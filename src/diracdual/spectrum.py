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
"""

from itertools import combinations_with_replacement
from math import isqrt

from .weights import (
    HalfIntVec,
    KType,
    RootDatum,
    ZhParam,
    _Frozen,
    _set,
    dominant_rep,
    norm_sq_x4,
    rho,
)

# kind -> (root system, coordinate-sum parity of the K-types or None);
# the C kinds are sized by n, the others by (a, b)
_KINDS = {
    "B": ("B", None),
    "C_even": ("C", 0),
    "C_odd": ("C", 1),
    "D_even": ("D", 0),
    "D_odd": ("D", 1),
    "A": ("A", None),
}


class UnipotentFamily(_Frozen):
    __slots__ = ("kind", "a", "b", "n")

    def __init__(self, kind, a=0, b=0, n=0):
        if kind not in _KINDS:
            raise ValueError("unknown family kind %r" % (kind,))
        # the sizes the kind does not read are zeroed, so a stray size
        # neither splits equality nor the caches keyed by the family
        if _KINDS[kind][0] == "C":
            if n < 1:
                raise ValueError("need n >= 1")
            a = b = 0
        elif not (0 < a <= b):
            raise ValueError("need 0 < a <= b, got a=%s b=%s" % (a, b))
        else:
            n = 0
        _set(self, "kind", kind)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.a, self.b, self.n) == (
                other.kind, other.a, other.b, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.a, self.b, self.n))

    @property
    def datum(self):
        family = _KINDS[self.kind][0]
        return RootDatum(family, self.n if family == "C" else self.a + self.b)

    @property
    def parity(self):
        """The coordinate-sum parity of the family's K-types; None for
        B and A, which have no parity condition."""
        return _KINDS[self.kind][1]

    def __str__(self):
        if _KINDS[self.kind][0] == "C":
            return "%s(%d)" % (self.kind, self.n)
        return "%s(%d,%d)" % (self.kind, self.a, self.b)


def _half_string(m):
    """The doubled string -(m - 1/2), ..., -3/2, -1/2."""
    return tuple(range(1 - 2 * m, 0, 2))


def zh_param(fam):
    """The defining parameter pair of the family.

    Both sides are built from the explicit strings; the odd members of
    the C/D families flip the sign of the -1/2 entry on the right side.
    """
    family = fam.datum.family
    if family == "B":
        lam = HalfIntVec(_half_string(fam.b) + tuple(range(-2 * fam.a, 0, 2)))
        return ZhParam(lam, lam, fam.datum)
    if family in ("C", "D"):
        half = _half_string(fam.n if family == "C" else fam.a)
        ints = tuple(range(2 - 2 * fam.b, 1, 2)) if family == "D" else ()
        right = half[:-1] + (1,) if fam.parity else half
        return ZhParam(HalfIntVec(half + ints), HalfIntVec(right + ints), fam.datum)
    coords = tuple(fam.a - 1 - 2 * i for i in range(fam.a)) + tuple(
        fam.b - 1 - 2 * i for i in range(fam.b)
    )
    lam = HalfIntVec(coords)
    return ZhParam(lam, lam, fam.datum)


def two_lambda(fam):
    """The dominant vector 2*lambda of the family: twice the left
    parameter made dominant."""
    lam = zh_param(fam).lambda_L
    return dominant_rep(lam + lam, fam.datum)


def kspectrum(fam, bound):
    """All K-types of the family with every coordinate at most bound,
    streamed in increasing (norm, highest weight) order.  Multiplicity-free
    by construction.

    This box serves ``parity_vanishing`` and the CLI ``spectrum``
    command.  The spin-LKT search does not list K-types: ``dirac._scan``
    walks the same columns and prunes them.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    datum = fam.datum
    length, pad, weight, parity = _shape(fam)
    zeros = (0,) * pad
    # the columns fix the weight and both halves of its sort key
    keyed = sorted(
        (sum(x * x for x in cols), cols)
        for cols in combinations_with_replacement(range(bound, -1, -1), length)
        if parity is None or sum(cols) % 2 == parity
    )
    for _, cols in keyed:
        hw = tuple(2 * x for x in cols for _ in range(weight)) + zeros
        yield KType(HalfIntVec(hw), datum)


def _shape(fam):
    """(length, pad, weight, parity) of the family's highest weights:
    ``length`` free weakly decreasing columns, each written ``weight``
    times (the B shape repeats every column), then ``pad`` zeros; the
    column sum must have the given parity (None: no condition)."""
    family = fam.datum.family
    if family == "C":
        length, pad, weight = 1, fam.n - 1, 1
    elif family == "B":
        length, pad, weight = fam.a, fam.b - fam.a, 2
    elif family == "D":
        length, pad, weight = 2 * fam.a, fam.b - fam.a, 1
    else:
        raise ValueError("no K-spectrum catalog for family %s" % (fam,))
    return length, pad, weight, fam.parity


def search_norm_bound_x4(fam):
    """Integer upper bound for norm_sq_x4 of any K-type that could
    still tie or beat the family's spin-norm target.

    A K-type eta can only reach spin norm ||2 lambda|| when
    ||eta|| <= ||2 lambda|| + 2 ||rho||; the returned value is an exact
    integer dominating (||2 lambda|| + 2||rho||)^2 * 4.
    """
    tl = two_lambda(fam)
    a = norm_sq_x4(tl)
    b = 4 * norm_sq_x4(rho(fam.datum))
    # (sqrt(a) + sqrt(b))^2 = a + b + 2 sqrt(ab), rounded safely up
    return a + b + 2 * isqrt(a * b) + 2
