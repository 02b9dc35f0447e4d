"""The distinguished one-parameter families of unitary modules whose
twice-infinitesimal-character is regular but not twice-integral, with
their exact multiplicity-free K-spectra.

Families (rank derived from the parameters):

  B(a, b)          so(2(a+b)+1), 0 < a <= b; spectrum
                   (x1, x1, ..., xa, xa, 0^(b-a))
  C_even(n)        sp(2n) even metaplectic component; spectrum (2k, 0...)
  C_odd(n)         sp(2n) odd component; spectrum (2k+1, 0...)
  D_even(a, b)     so(2(a+b)), spectrum (x1, ..., x_{2a}, 0^(b-a)),
                   sum even
  D_odd(a, b)      same shape, sum odd
  A(a, b)          gl(a+b) module induced from the trivial character of
                   GL(a) x GL(b)
  SpinB(n)         genuine family of the odd spin double cover
  SpinD+(n), SpinD-(n)   genuine families of the even spin double cover

The genuine Spin families carry only their two_lambda value here; their
spectra are not part of this catalog.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import isqrt

from .weights import (
    HalfIntVec,
    RootDatum,
    ZhParam,
    dominant_rep,
    norm_sq_x4,
)
from .characters import KType

KINDS = (
    "B",
    "C_even",
    "C_odd",
    "D_even",
    "D_odd",
    "A",
    "SpinB",
    "SpinD+",
    "SpinD-",
)

_AB_KINDS = ("B", "D_even", "D_odd", "A")
_N_KINDS = ("C_even", "C_odd", "SpinB", "SpinD+", "SpinD-")


@dataclass(frozen=True)
class UnipotentFamily:
    kind: str
    a: int = 0
    b: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown family kind %r" % (self.kind,))
        if self.kind in _AB_KINDS:
            if not (0 < self.a <= self.b):
                raise ValueError("need 0 < a <= b, got a=%s b=%s" % (self.a, self.b))
        else:
            if self.n < 1:
                raise ValueError("need n >= 1")

    @property
    def datum(self):
        k = self.kind
        if k == "B":
            return RootDatum("B", self.a + self.b)
        if k in ("C_even", "C_odd"):
            return RootDatum("C", self.n)
        if k in ("D_even", "D_odd"):
            return RootDatum("D", self.a + self.b)
        if k == "A":
            return RootDatum("A", self.a + self.b)
        if k == "SpinB":
            return RootDatum("B", self.n)
        return RootDatum("D", self.n)

    def __str__(self):
        if self.kind in _AB_KINDS:
            return "%s(%d,%d)" % (self.kind, self.a, self.b)
        return "%s(%d)" % (self.kind, self.n)


def _halves_down(top_doubled, count):
    # top, top-1, ..., length count (doubled arithmetic)
    return tuple(top_doubled - 2 * i for i in range(count))


def zh_param(fam):
    """The defining parameter pair of the family.

    Both sides are built from the explicit strings; the odd members of
    the C/D families flip the sign of the -1/2 entry on the right side.
    Genuine Spin families have no parameter at this level.
    """
    k = fam.kind
    if k == "B":
        left = _halves_down(-1, fam.b)[::-1] + tuple(
            -2 * i for i in range(fam.a, 0, -1)
        )
        lam = HalfIntVec(left)
        return ZhParam(lam, lam, fam.datum)
    if k in ("C_even", "C_odd"):
        left = tuple(-(2 * (fam.n - i) - 1) for i in range(fam.n))
        right = left if k == "C_even" else left[:-1] + (1,)
        return ZhParam(HalfIntVec(left), HalfIntVec(right), fam.datum)
    if k in ("D_even", "D_odd"):
        half = tuple(-(2 * (fam.a - i) - 1) for i in range(fam.a))
        ints = tuple(-2 * (fam.b - 1 - i) for i in range(fam.b))
        left = half + ints
        if k == "D_even":
            right = left
        else:
            right = half[:-1] + (1,) + ints
        return ZhParam(HalfIntVec(left), HalfIntVec(right), fam.datum)
    if k == "A":
        coords = tuple(fam.a - 1 - 2 * i for i in range(fam.a)) + tuple(
            fam.b - 1 - 2 * i for i in range(fam.b)
        )
        lam = HalfIntVec(coords)
        return ZhParam(lam, lam, fam.datum)
    raise ValueError("no parameter pair for the genuine family %s" % (fam,))


def two_lambda(fam):
    """The dominant vector 2*lambda of the family.

    For the non-genuine families this is twice the left parameter made
    dominant; the genuine Spin families have the fixed half-integer
    strings (2n-1, ..., 3, 1)/2 and (2n-1, ..., 3, +-1)/2.
    """
    k = fam.kind
    if k == "SpinB":
        return HalfIntVec(tuple(2 * (fam.n - i) - 1 for i in range(fam.n)))
    if k in ("SpinD+", "SpinD-"):
        coords = [2 * (fam.n - i) - 1 for i in range(fam.n)]
        if k == "SpinD-":
            coords[-1] = -coords[-1]
        return HalfIntVec(tuple(coords))
    lam = zh_param(fam).lambda_L
    doubled2 = HalfIntVec(tuple(2 * c for c in lam.doubled))
    return dominant_rep(doubled2, fam.datum)


def kspectrum(fam, bound):
    """All K-types of the family with every coordinate at most bound,
    in increasing norm order.  Multiplicity-free by construction.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    datum = fam.datum
    for hw in _highest_weights(fam, bound):
        yield KType(HalfIntVec(hw), datum)


def _shape(fam):
    """(length, pad, weight, parity) of the family's highest weights:
    ``length`` free weakly decreasing columns, each written ``weight``
    times (the B shape repeats every column), then ``pad`` zeros; the
    column sum must have the given parity (None: no condition)."""
    k = fam.kind
    if k in ("C_even", "C_odd"):
        length, pad = 1, fam.n - 1
    elif k == "B":
        length, pad = fam.a, fam.b - fam.a
    elif k in ("D_even", "D_odd"):
        length, pad = 2 * fam.a, fam.b - fam.a
    else:
        raise ValueError("no K-spectrum catalog for family %s" % (fam,))
    parity = {"C_even": 0, "C_odd": 1, "D_even": 0, "D_odd": 1}.get(k)
    return length, pad, 2 if k == "B" else 1, parity


def _highest_weights(fam, bound):
    """The highest weights of the family's K-types with every coordinate
    at most bound, as doubled-coordinate int tuples sorted by
    (norm_sq_x4, hw).

    This is the box that ``kspectrum`` streams (for ``parity_vanishing``
    and the CLI ``spectrum`` command).  The spin-LKT search does not list
    K-types: ``dirac._scan`` walks the same columns and prunes them.
    """
    length, pad, weight, parity = _shape(fam)
    zeros = (0,) * pad
    # the columns fix the weight and both halves of its sort key
    keyed = sorted(
        (sum(x * x for x in cols), cols)
        for cols in combinations_with_replacement(range(bound, -1, -1), length)
        if parity is None or sum(cols) % 2 == parity
    )
    return [
        tuple(2 * x for x in cols for _ in range(weight)) + zeros
        for _, cols in keyed
    ]


def search_norm_bound_x4(fam):
    """Integer upper bound for norm_sq_x4 of any K-type that could
    still tie or beat the family's spin-norm target.

    A K-type eta can only reach spin norm ||2 lambda|| when
    ||eta|| <= ||2 lambda|| + 2 ||rho||; the returned value is an exact
    integer dominating (||2 lambda|| + 2||rho||)^2 * 4.
    """
    tl = two_lambda(fam)
    a = norm_sq_x4(tl)
    b = 4 * norm_sq_x4(fam.datum.rho)
    # (sqrt(a) + sqrt(b))^2 = a + b + 2 sqrt(ab), rounded safely up
    return a + b + 2 * isqrt(a * b) + 2
