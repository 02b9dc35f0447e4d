"""Exact weight vectors, classical root data, parameters and K-types.

All weight coordinates live in (1/2)Z.  To keep every comparison exact
we store *doubled* coordinates (integers equal to twice the coordinate)
and squared norms multiplied by 4.  Nothing in this package ever touches
a float.

Conventions for the four classical families, all in the standard
e_1..e_n coordinates:

  A  gl(n):  positive roots e_i - e_j (i<j); Weyl group S_n.
  B  so(2n+1): e_i +- e_j (i<j) and e_i; signed permutations.
  C  sp(2n):   e_i +- e_j (i<j) and 2e_i; signed permutations.
  D  so(2n):   e_i +- e_j (i<j); signed permutations with an even
               number of sign changes.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
import operator

FAMILIES = ("A", "B", "C", "D")

_set = object.__setattr__  # how a _Frozen __init__ sets its fields


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__``, in constructor order,
    sets them in ``__init__`` with ``_set``, and writes its own ``__eq__``
    (``NotImplemented`` against other classes) and ``__hash__`` (the hash
    of the tuple of compared fields) on the fields directly: a generic
    loop over ``__slots__`` made both several times slower.  The base
    refuses assignment and deletion after construction, gives the
    ``Name(field=value, ...)`` repr, and pickles and copies through the
    constructor, so its checks run again.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__),
        )

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class HalfIntVec(_Frozen):
    """A vector with coordinates in (1/2)Z, stored doubled.

    ``HalfIntVec((5, 3, 1))`` is the vector (5/2, 3/2, 1/2).  Use
    :func:`vec` to build one from ordinary numbers.
    """

    __slots__ = ("doubled",)

    def __init__(self, doubled):
        # operator.index refuses floats and Fractions instead of truncating
        _set(self, "doubled", tuple(map(operator.index, doubled)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.doubled == other.doubled
        return NotImplemented

    def __hash__(self):
        return hash((self.doubled,))

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_halves(coords):
        """Build from Fractions/ints with denominator 1 or 2."""
        doubled = []
        for c in coords:
            f = Fraction(c)
            if f.denominator not in (1, 2):
                raise ValueError(
                    "coordinate %s is not a half-integer" % (c,)
                )
            doubled.append(int(2 * f))
        return HalfIntVec(tuple(doubled))

    @staticmethod
    def parse(text):
        """Parse comma-separated rationals, e.g. ``"5/2,3/2,1/2"``.  Spaces
        around an entry are allowed; an empty entry is an error."""
        parts = [p.strip() for p in text.split(",")]
        if not any(parts):
            raise ValueError("empty weight string")
        if not all(parts):
            raise ValueError("empty coordinate in weight %r" % (text,))
        return HalfIntVec.from_halves(Fraction(p) for p in parts)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return HalfIntVec(
            tuple(a + b for a, b in zip(self.doubled, other.doubled))
        )

    def __sub__(self, other):
        return HalfIntVec(
            tuple(a - b for a, b in zip(self.doubled, other.doubled))
        )

    def __neg__(self):
        return HalfIntVec(tuple(-a for a in self.doubled))

    def __len__(self):
        return len(self.doubled)

    # -- views -----------------------------------------------------------

    def halves(self):
        return tuple(Fraction(c, 2) for c in self.doubled)

    @property
    def is_integral(self):
        return all(c % 2 == 0 for c in self.doubled)

    def __str__(self):
        out = []
        for c in self.doubled:
            out.append(str(c // 2) if c % 2 == 0 else "%d/2" % c)
        return ",".join(out)

    def __repr__(self):
        return "HalfIntVec(%s)" % (str(self),)


def vec(*coords):
    """Convenience constructor from ints and "p/2" strings:
    ``vec(2, 1, 0)``, ``vec("5/2", "3/2", "1/2")``."""
    return HalfIntVec.from_halves(Fraction(c) for c in coords)


class RootDatum(_Frozen):
    """One of the classical families A/B/C/D at a given rank."""

    __slots__ = ("family", "rank")

    def __init__(self, family, rank):
        if family not in FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        if not isinstance(rank, int) or rank < 1:
            raise ValueError("rank must be a positive integer")
        _set(self, "family", family)
        _set(self, "rank", rank)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.rank) == (other.family, other.rank)
        return NotImplemented

    def __hash__(self):
        return hash((self.family, self.rank))

    def positive_roots(self):
        """Positive roots in ordinary (not doubled) integer coordinates."""
        return _positive_roots(self.family, self.rank)

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


@lru_cache(maxsize=None)
def _positive_roots(family, rank):
    roots = []
    for i in range(rank):
        for j in range(i + 1, rank):
            r = [0] * rank
            r[i], r[j] = 1, -1
            roots.append(tuple(r))
            if family in ("B", "C", "D"):
                r = [0] * rank
                r[i], r[j] = 1, 1
                roots.append(tuple(r))
    if family == "B":
        for i in range(rank):
            r = [0] * rank
            r[i] = 1
            roots.append(tuple(r))
    if family == "C":
        for i in range(rank):
            r = [0] * rank
            r[i] = 2
            roots.append(tuple(r))
    return tuple(roots)


@lru_cache(maxsize=None)
def _rho_doubled(family, rank):
    acc = [0] * rank
    for r in _positive_roots(family, rank):
        for i, c in enumerate(r):
            acc[i] += c
    return tuple(acc)  # sum of positive roots = doubled rho


def rho(datum):
    """Half the sum of positive roots.

    B_m: (m-1/2, ..., 1/2); C_m: (m, ..., 1); D_m: (m-1, ..., 1, 0);
    A_n, taken as gl(n): ((n-1)/2, (n-3)/2, ..., -(n-1)/2).
    """
    return HalfIntVec(_rho_doubled(datum.family, datum.rank))


def norm_sq_x4(v):
    """4 * ||v||^2, an exact nonnegative integer."""
    return sum(c * c for c in v.doubled)


def dominant_rep(v, datum):
    """The dominant representative {v} of the Weyl orbit of v.

    Type A sorts descending.  B and C sort absolute values descending.
    D does the same but the last coordinate keeps a minus sign when the
    number of strictly negative coordinates is odd and no coordinate
    vanishes (only an even number of signs can be flipped).
    """
    if len(v) != datum.rank:
        raise ValueError(
            "weight has %d coordinates, datum has rank %d"
            % (len(v), datum.rank)
        )
    return HalfIntVec(dominant_doubled(v.doubled, datum.family))


def dominant_doubled(d, family):
    """:func:`dominant_rep` on a nonempty sequence of doubled coordinates,
    returned as a list."""
    if family == "A":
        return sorted(d, reverse=True)
    mags = sorted(map(abs, d), reverse=True)
    if family == "D" and mags[-1] and sum(c < 0 for c in d) % 2:
        mags[-1] = -mags[-1]
    return mags


def _canonical_pairs(lL, lR, family):
    """The Weyl canonical form of a pair of doubled weights: the
    simultaneous Weyl action making the left side dominant, with a
    deterministic tie-break on the right side, as a list of [l, r]."""
    pairs = [list(p) for p in zip(lL, lR)]
    if family == "A":
        pairs.sort(key=lambda p: (-p[0], -p[1]))
        return pairs
    flips = 0
    for p in pairs:
        if p[0] < 0:
            p[0], p[1] = -p[0], -p[1]
            flips += 1
        elif p[0] == 0 and p[1] < 0 and family != "D":
            p[1] = -p[1]
    if family == "D":
        zero_ps = [p for p in pairs if p[0] == 0]
        for p in zero_ps:
            if p[1] < 0:
                p[1] = -p[1]
                flips += 1
        if flips % 2 == 1:
            if zero_ps:
                # flip back the zero-left pair with the smallest right
                # value; only the right sign is visible
                p = min(zero_ps, key=lambda p: abs(p[1]))
                p[1] = -p[1]
            else:
                # keep one genuine sign: put it on the smallest left
                # coordinate so the left side stays dominant
                p = min(pairs, key=lambda p: (p[0], p[1]))
                p[0], p[1] = -p[0], -p[1]
    pairs.sort(key=lambda p: (-abs(p[0]), p[0] < 0, -p[1]))
    return pairs


def is_dominant(v, datum):
    """Is v its own dominant representative :func:`dominant_rep`?"""
    if len(v) != datum.rank:
        raise ValueError("rank mismatch")
    return list(v.doubled) == dominant_doubled(v.doubled, datum.family)


def is_regular(v, datum):
    """No root pairing vanishes."""
    if len(v) != datum.rank:
        raise ValueError("rank mismatch")
    return is_regular_doubled(v.doubled, datum.family)


def is_regular_doubled(d, family):
    """:func:`is_regular` on a tuple of doubled coordinates."""
    if family == "A":
        return len(set(d)) == len(d)
    mags = set(map(abs, d))
    if len(mags) != len(d):
        return False
    return family == "D" or 0 not in mags  # D: a single zero is fine


def in_root_cone(d, family):
    """Are the doubled coordinates d (a nonempty iterable) an
    N-combination of positive roots of ``family``?  0 is, in every family.
    With the prefix sums p_i = v_1 + ... + v_i of the integral v: A needs
    every p_i >= 0 and p_n = 0; B every p_i >= 0; C also p_n even; D
    p_i >= 0 up to i = n-2 and both p_{n-1} -+ v_n even and nonnegative
    (D1 has no roots).  Taken doubled, "even" reads "divisible by 4", and
    v is integral iff every doubled sum is even."""
    p = list(accumulate(d))
    if reduce(operator.or_, p) & 1:
        return False
    if family == "A":
        return p[-1] == 0 and min(p) >= 0
    if family == "B":
        return min(p) >= 0
    if family == "C":
        return min(p) >= 0 and not p[-1] & 3
    if len(p) < 2:
        return not p[0]
    v = p[-1] - p[-2]
    return min(p[:-1]) >= 0 and p[-2] >= abs(v) and not (p[-2] - v) & 3


def w0_action(v, datum):
    """The longest Weyl element applied to v.

    -1 in types B and C; coordinate reversal in type A; in type D the
    map is -1 for even rank and -1 composed with one last-coordinate
    flip for odd rank.
    """
    if datum.family == "A":
        return HalfIntVec(tuple(reversed(v.doubled)))
    if datum.family in ("B", "C"):
        return -v
    if datum.rank % 2 == 0:
        return -v
    flipped = [-c for c in v.doubled]
    flipped[-1] = -flipped[-1]
    return HalfIntVec(tuple(flipped))


class KType(_Frozen):
    """An irreducible module of K (or its double cover), by highest weight."""

    __slots__ = ("hw", "datum")

    def __init__(self, hw, datum):
        if not is_dominant(hw, datum):
            raise ValueError("%s is not dominant for %s" % (hw, datum))
        parities = {c % 2 for c in hw.doubled}
        if len(parities) > 1:
            raise ValueError("mixed integral/half-integral coordinates")
        if parities == {1} and datum.family not in ("B", "D"):
            raise ValueError(
                "half-integral K-types only exist for the B/D double covers"
            )
        _set(self, "hw", hw)
        _set(self, "datum", datum)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.hw, self.datum) == (other.hw, other.datum)
        return NotImplemented

    def __hash__(self):
        return hash((self.hw, self.datum))

    @property
    def dim(self):
        return dim(self)

    def __str__(self):
        return "V(%s)" % (self.hw,)


def dim(kt):
    """Weyl dimension formula, exact."""
    datum = kt.datum
    r = _rho_doubled(datum.family, datum.rank)
    shifted = [h + c for h, c in zip(kt.hw.doubled, r)]
    num = den = 1
    for alpha in datum.positive_roots():
        num *= sum(map(operator.mul, shifted, alpha))
        den *= sum(map(operator.mul, r, alpha))
    q, rem = divmod(num, den)
    if rem or q <= 0:
        raise RuntimeError("dimension formula must divide exactly")
    return q


class ZhParam(_Frozen):
    """A module parameter: a pair of weights up to simultaneous
    Weyl-group action.  lambda_L - lambda_R must be a weight of a
    finite-dimensional module (integral, or half-integral throughout
    for the genuine double-cover parameters)."""

    __slots__ = ("lambda_L", "lambda_R", "datum")

    def __init__(self, lambda_L, lambda_R, datum):
        if len(lambda_L) != datum.rank or len(lambda_R) != datum.rank:
            raise ValueError("parameter length does not match rank")
        diff = lambda_L - lambda_R
        if not (
            diff.is_integral
            or all(c % 2 == 1 for c in diff.doubled)
            and datum.family in ("B", "D")
        ):
            raise ValueError(
                "lambda_L - lambda_R = %s is not a module weight" % (diff,)
            )
        _set(self, "lambda_L", lambda_L)
        _set(self, "lambda_R", lambda_R)
        _set(self, "datum", datum)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lambda_L, self.lambda_R, self.datum) == (
                other.lambda_L, other.lambda_R, other.datum)
        return NotImplemented

    def __hash__(self):
        return hash((self.lambda_L, self.lambda_R, self.datum))

    def __str__(self):
        return "(%s ; %s)" % (self.lambda_L, self.lambda_R)
