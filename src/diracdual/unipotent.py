"""Nilpotent-orbit catalog: partition validity, column pairing, the
attached infinitesimal character, and enumeration of the distinguished
parameters indexed by sign choices on column pairs.

The construction is purely combinatorial.  A valid partition is
transposed; a family-specific padding makes the column count odd (B, C)
or even (D); equal columns at fixed scan positions are peeled off in
pairs; the remaining columns are grouped into a singleton/spherical
anchor plus same-parity pairs, and every pair contributes either a
single descending coordinate string (sign +1, spherical) or a staggered
pair of strings, one for each side of the parameter (sign -1).
"""

import itertools

from .weights import (
    HalfIntVec,
    RootDatum,
    ZhParam,
    _Frozen,
    _canonical_pairs,
    _set,
    dominant_rep,
)


class OrbitPartition(_Frozen):
    __slots__ = ("rows", "family")

    def __init__(self, rows, family):
        _set(self, "rows", rows)
        _set(self, "family", family)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.family) == (other.rows, other.family)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.family))

    @property
    def total(self):
        return sum(self.rows)

    @property
    def datum(self):
        # gl(n) has rank n; so(2n+1), sp(2n) and so(2n) have rank n, and
        # ``validate`` gives type B an odd total of at least 3
        return RootDatum(self.family, self.total if self.family == "A" else self.total // 2)


def partition_rows(rows, family):
    """``rows`` as a tuple of ints, refused unless its parts are positive
    and weakly decreasing and its group has positive rank: type B's [1]
    is an orbit of so(1), of rank 0.  These refusals mark malformed
    input, before any orbit condition of :func:`validate` is read."""
    rows = tuple(int(r) for r in rows)
    if not rows or any(r <= 0 for r in rows):
        raise ValueError("partition parts must be positive")
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise ValueError("partition must be weakly decreasing")
    if family == "B" and rows == (1,):
        raise ValueError("partition [1] of type B is an orbit of so(1), of rank 0")
    return rows


def validate(rows, family):
    """Check the classical parity conditions and return the orbit.

    B: total odd, every even part with even multiplicity.
    C: total even, every odd part with even multiplicity.
    D: total even, every even part with even multiplicity.
    A: any partition.
    Rows that :func:`partition_rows` refuses raise its error first.
    """
    rows = partition_rows(rows, family)
    total = sum(rows)
    if family == "A":
        return OrbitPartition(rows, family)
    if family not in ("B", "C", "D"):
        raise ValueError("unknown family %r" % (family,))
    want_total_odd = family == "B"
    if total % 2 != (1 if want_total_odd else 0):
        raise ValueError(
            "family %s needs total %s, got %d"
            % (family, "odd" if want_total_odd else "even", total)
        )
    bad_parity = 0 if family in ("B", "D") else 1
    counts = {}
    for r in rows:
        counts[r] = counts.get(r, 0) + 1
    for r, c in counts.items():
        if r % 2 == bad_parity and c % 2 == 1:
            raise ValueError(
                "part %d occurs %d times; %s parts need even multiplicity"
                % (r, c, "even" if bad_parity == 0 else "odd")
            )
    return OrbitPartition(rows, family)


def transpose(rows):
    """The dual partition (no padding)."""
    rows = tuple(rows)
    if not rows:
        return ()
    return tuple(
        sum(1 for r in rows if r > k) for k in range(rows[0])
    )


def column_pairing(orbit):
    """Pair the orbit's columns: (shared, pairs, very_even).

    ``shared`` is the doubled coordinates every parameter of the orbit
    shares: the centered strings of the removed equal pairs, then the
    anchor's string.  ``pairs`` are the sign-carrying pairs (big, small).
    The anchor is a single odd column for B, a trailing even column for
    C, and the (first, last) even pair for D.  ``very_even`` marks the
    type-D case where everything was removed as equal pairs.
    """
    cols = list(transpose(orbit.rows))
    fam = orbit.family
    if fam == "A":
        raise ValueError("type A has no column pairing")
    if fam in ("B", "C") and len(cols) % 2 == 0:
        cols.append(0)
    if fam == "D" and len(cols) % 2 == 1:
        cols.append(0)

    # peel equal columns at the family's scan positions, rescanning
    # from scratch after each removal
    start = 1 if fam == "C" else 0
    shared = ()
    while True:
        for i in range(start, len(cols) - 1, 2):
            if cols[i] == cols[i + 1]:
                shared += _centered_string(cols[i])
                del cols[i : i + 2]
                break
        else:
            break

    if fam == "B":
        if cols[0] % 2 != 1:
            raise RuntimeError("leading column must be odd")
        return shared + _string(cols[0] - 2, 1), _paired(cols[1:]), False
    if fam == "C":
        if cols[-1] % 2 != 0:
            raise RuntimeError("trailing column must be even")
        return shared + _string(cols[-1], 2), _paired(cols[:-1]), False
    # type D
    if not cols:
        return shared, (), True
    if cols[0] % 2 != 0 or cols[-1] % 2 != 0:
        raise RuntimeError("anchor pair must be even")
    return shared + _string(cols[0] - 2, -cols[-1]), _paired(cols[1:-1]), False


def _paired(cols):
    """Consecutive columns as (big, small) pairs, which must share parity."""
    pairs = tuple((cols[i], cols[i + 1]) for i in range(0, len(cols), 2))
    if any(a % 2 != b % 2 for a, b in pairs):
        raise RuntimeError("paired columns must have equal parity")
    return pairs


def _string(top_doubled, bottom_doubled):
    """Doubled coordinates top, top-2, ..., bottom (descending by 1)."""
    return tuple(range(top_doubled, bottom_doubled - 1, -2))


def _pair_string(a, b):
    # (a, b) with sign +1: a/2 down to -(b-2)/2
    return _string(a, -(b - 2))


def _pair_staggered(a, b):
    # sign -1, right side: the +1 string's head down to (b+2)/2, then its
    # tail shifted down by one (the left side keeps the +1 string)
    return _string(a, b + 2) + _string(b - 2, -b)


def _left_side(shared, pairs):
    """The left side every parameter of the orbit shares: ``shared``, then
    each pair's +1 string."""
    return shared + tuple(c for a, b in pairs for c in _pair_string(a, b))


def _centered_string(v):
    # (v-1)/2 down to -(v-1)/2
    return _string(v - 1, -(v - 1))


class UnipotentParam(_Frozen):
    __slots__ = ("orbit", "eta", "zh", "very_even_tag")

    def __init__(self, orbit, eta, zh, very_even_tag=""):
        _set(self, "orbit", orbit)
        _set(self, "eta", eta)  # one sign per free pair, +1/-1
        _set(self, "zh", zh)
        _set(self, "very_even_tag", very_even_tag)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.orbit, self.eta, self.zh, self.very_even_tag) == (
                other.orbit, other.eta, other.zh, other.very_even_tag)
        return NotImplemented

    def __hash__(self):
        return hash((self.orbit, self.eta, self.zh, self.very_even_tag))


def infinitesimal_character(orbit):
    """The attached infinitesimal character, as a dominant weight."""
    if orbit.family == "A":
        cols = transpose(orbit.rows)
        coords = tuple(
            c for v in cols for c in _centered_string(v)
        )
        datum = orbit.datum
        return dominant_rep(HalfIntVec(coords), datum)
    shared, pairs, _ = column_pairing(orbit)
    return dominant_rep(HalfIntVec(_left_side(shared, pairs)), orbit.datum)


def component_group_order(orbit):
    """|A(O)| for the connected group: a power of two.

    B/D count distinct odd row sizes (one factor of two is absorbed by
    the center for the special orthogonal groups), C counts distinct
    even row sizes.
    """
    if orbit.family == "A":
        return 1
    if orbit.family == "C":
        return 2 ** len({r for r in orbit.rows if r % 2 == 0})
    odd = len({r for r in orbit.rows if r % 2 == 1})
    return 2 ** max(odd - 1, 0)


def enumerate_parameters(orbit):
    """All distinguished parameters attached to the orbit.

    One parameter per sign vector on the free pairs; the count equals
    component_group_order for the connected group.
    """
    datum = orbit.datum
    if orbit.family == "A":
        lam = infinitesimal_character(orbit)
        return [UnipotentParam(orbit, (), ZhParam(lam, lam, datum))]
    shared, pairs, very_even = column_pairing(orbit)
    # a pair ending in 0 keeps sign +1 (connected group): only type B can
    # trap the padding zero inside a pair, and such a pair admits the -1
    # choice only on the disconnected form
    free = [i for i, (a, b) in enumerate(pairs) if b]
    tag = "I/II" if very_even else ""
    left = _left_side(shared, pairs)
    out = []
    for choice in itertools.product((1, -1), repeat=len(free)):
        eta = [1] * len(pairs)
        for i, s in zip(free, choice):
            eta[i] = s
        right = shared + tuple(c for (a, b), s in zip(pairs, eta)
                               for c in (_pair_string if s == 1 else _pair_staggered)(a, b))
        canon = _canonical_pairs(left, right, datum.family)
        zh = ZhParam(HalfIntVec(tuple(l for l, _ in canon)),
                     HalfIntVec(tuple(r for _, r in canon)), datum)
        out.append(UnipotentParam(orbit, tuple(eta), zh, very_even_tag=tag))
    return out


def is_stably_trivial(orbit):
    """Combinatorial test for the orbits whose full component group
    survives the Lusztig quotient.

    A: always.  B: the largest part is the only odd part with odd
    multiplicity.  C/D: every even part has even multiplicity (for D
    this is implied by validity).
    """
    counts = {}
    for r in orbit.rows:
        counts[r] = counts.get(r, 0) + 1
    if orbit.family == "A":
        return True
    if orbit.family == "B":
        odd_odd = sorted(
            (r for r, c in counts.items() if r % 2 == 1 and c % 2 == 1),
            reverse=True,
        )
        return odd_odd == [orbit.rows[0]]
    return all(c % 2 == 0 for r, c in counts.items() if r % 2 == 0)


def is_triangular(orbit):
    """The staircase partitions: B (2m+1,2m-1,2m-1,...,3,3,1,1),
    C (2m,2m,...,2,2), D (2m-1,2m-1,...,1,1).  Not defined for A."""
    if orbit.family == "A":
        return False
    rows = list(orbit.rows)
    head = 1 if orbit.family == "B" else 0  # B's unpaired largest row
    want = rows[:head] + [
        v for v in range(rows[0] - 2 * head, 0, -2) for _ in range(2)
    ]
    return rows[0] % 2 == (orbit.family != "C") and rows == want
