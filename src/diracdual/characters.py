"""Finite-dimensional module arithmetic for the compact form.

K-types and their Weyl dimensions live in :mod:`weights`.  Dominant
weight multiplicities come from Freudenthal's recursion (taken over the dominant
weights in order of their distance from the highest weight, no search),
tensor products from the alternating-sum rule (Klimyk: a pruned walk
over the Weyl orbit of each dominant weight of the smaller factor, which
drops a branch as soon as its shifted weight is singular and carries the
sign and the dominant key of each term), and the lowest constituent of a
tensor product from the longest-element formula.  Everything is exact
integer arithmetic on doubled coordinates.

For repeated tensor-with-spin-module queries the generic path is too
slow, so ``RhoTensorEngine`` keeps the dominant weight multiplicities of
V(rho), built one rank at a time from a product formula for its
character, and answers a query by a pruned walk over the Weyl group.
Many queries against one small target V(tau) are one tensor product
instead (``_rho_tensor_multiplicities``).
"""

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
import itertools
import math
import operator

from .weights import (
    HalfIntVec,
    KType,
    _rho_doubled,
    dim,
    dominant_doubled,
    dominant_rep,
    in_root_cone,
    w0_action,
)


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities
# ---------------------------------------------------------------------------


def dominant_weights(hw, datum):
    """All dominant weights of the module with dominant highest weight hw,
    with multiplicities, as {doubled tuple: mult}.  A highest weight that
    ``KType`` refuses raises its ValueError."""
    KType(hw, datum)
    return dict(_dominant_weight_table(datum, hw.doubled))


@lru_cache(maxsize=4096)
def _dominant_weight_table(datum, lam):
    """Freudenthal's recursion for V(lam), as ((doubled weight, mult), ...).

    The dominant weights of V(lam) are the dominant mu with lam - mu in the
    positive root cone (``in_root_cone``, which holds 0, so lam passes),
    each coordinate between lam_n and lam_1 (A) or at most lam_1 in
    magnitude.  Of two such weights nu > mu, |nu + rho| > |mu + rho|, so
    by increasing gap |lam + rho|^2 - |mu + rho|^2 every multiplicity the
    recursion needs is already known.
    """
    family, n = datum.family, datum.rank
    r = _rho_doubled(family, n)
    values = range(lam[0], lam[-1] - 1, -2) if family == "A" else range(abs(lam[0]), -1, -2)
    hull = []
    for mu in itertools.combinations_with_replacement(values, n):
        for mu in (mu, mu[:-1] + (-mu[-1],)) if family == "D" and mu[-1] else (mu,):
            if in_root_cone(map(operator.sub, lam, mu), family):
                hull.append((sum((x + c) ** 2 - (y + c) ** 2 for x, y, c in zip(lam, mu, r)), mu))
    hull.sort()
    mult = {}
    for gap, mu in hull:
        if mu == lam:
            mult[mu] = 1
            continue
        if gap <= 0:
            raise RuntimeError("dominant weight below the highest weight has a gap")
        total = 0
        for alpha in datum.positive_roots():
            nu = mu
            while True:
                nu = [c + 2 * a for c, a in zip(nu, alpha)]
                m = mult.get(tuple(dominant_doubled(nu, family)))
                if not m:
                    # once outside the hull, walking further along alpha
                    # stays outside
                    break
                total += m * sum(map(operator.mul, nu, alpha))
        q, rem = divmod(4 * total, gap)
        if rem:
            raise RuntimeError("Freudenthal recursion must divide exactly")
        mult[mu] = q
    return tuple(mult.items())


# ---------------------------------------------------------------------------
# Tensor decomposition (alternating sum over one factor's weights)
# ---------------------------------------------------------------------------


def tensor_decompose(a, b):
    """Decompose V(a) (x) V(b) into a tuple of (KType, multiplicity)
    pairs, highest weights descending.

    Klimyk's rule: each weight nu of the smaller factor V(b) adds
    det(w) mult(nu) at w(a + rho + nu) - rho, w sorting t = a + rho + nu
    into the dominant chamber; a singular t adds nothing.  The nu are
    walked as each dominant weight's distinct (signed) permutations, one
    coordinate at a time, and a t_i whose magnitude repeats an earlier one
    (or is 0, in B and C) cuts the branch: every completion is singular.
    The magnitudes so far are kept sorted, so one insertion gives both the
    inversions of the sort and the dominant key; det(w) also counts t's
    negative entries in B and C, not in D, where signs change in pairs.
    """
    if a.datum != b.datum:
        raise ValueError("cannot tensor modules of different data")
    datum = a.datum
    if dim(b) > dim(a):
        a, b = b, a
    family, signed = datum.family, datum.family != "A"
    r = _rho_doubled(family, datum.rank)
    shift = [x + y for x, y in zip(a.hw.doubled, r)]
    last = len(shift) - 1
    bc = family in "BC"  # there a zero t_i is singular and t_i < 0 flips det
    acc = Counter()
    seen = []  # |t_j| for j < i in types B/C/D, t_j in type A; ascending

    def walk(i, det, neg, flips):
        # left: the magnitudes (values, in type A) of nu still to place;
        # det carries mult; neg counts t's negative entries, flips nu's
        s = shift[i]
        for v in left:
            if not left[v]:
                continue
            left[v] -= 1
            for x in (v, -v) if signed and v else (v,):
                t = s + x
                m = abs(t) if signed else t
                p = bisect_left(seen, m)
                if p < i and seen[p] == m or bc and not m:
                    continue
                d = -det if (p + (bc and t < 0)) & 1 else det
                seen.insert(p, m)
                if i < last:
                    walk(i + 1, d, neg + (t < 0), flips + (x < 0))
                elif parity is None or (flips + (x < 0)) & 1 == parity:
                    key = seen[::-1]
                    if (neg + (t < 0)) & 1 and family == "D" and key[-1]:
                        key[-1] = -key[-1]
                    acc[tuple(key)] += d
                del seen[p]
            left[v] += 1

    for mu, mult in dominant_weights(b.hw, datum).items():
        # type D changes evenly many signs, so without a zero coordinate
        # the parity of the negative count is an orbit invariant
        parity = mu[-1] < 0 if family == "D" and 0 not in mu else None
        left = Counter(map(abs, mu) if signed else mu)
        walk(0, mult, 0, 0)
    del walk  # it refers to itself: free it now, not at the next gc
    if min(acc.values(), default=0) < 0:
        raise RuntimeError("negative net multiplicity")
    # subtracting rho keeps the keys' order
    return tuple((KType(HalfIntVec(tuple(map(operator.sub, key, r))), datum), m)
                 for key, m in sorted(acc.items(), reverse=True) if m)


def prv_component(a, b):
    """The constituent V({a + w0 b}) of V(a) (x) V(b) — multiplicity one,
    strictly minimal shifted norm among all constituents."""
    if a.datum != b.datum:
        raise ValueError("datum mismatch")
    datum = a.datum
    return KType(dominant_rep(a.hw + w0_action(b.hw, datum), datum), datum)


# ---------------------------------------------------------------------------
# Fast multiplicities in V(eta) (x) V(rho)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rho_weight_table(family, rank):
    """The weight multiplicities of V(rho) for B/C/D of this rank, keyed by
    the weights' sorted magnitudes (doubled).  The character is

        prod_{alpha>0} (e^{alpha/2} + e^{-alpha/2}) = prod_i f(x_i) prod_{i<j} (c_i + c_j)

    with c = e^x + e^-x and f = e^{x/2} + e^{-x/2} (B), c (C) or 1 (D).
    Every factor is even in every x_i, so m_rho is invariant under all
    signed permutations, in type D too.  Splitting off x_1 leaves V(rho)
    one rank lower: each j > 1 gives the c_1 of c_1 + c_j to x_1 or moves
    mu_j by -+1, and after k such c_1 x_1 takes [e^{mu_1 x}] f(x) c(x)^k.
    A key is a weight iff rho - key is ``in_root_cone``.  The kmin cut (the
    fewest c_1 x_1's row can take) pays: B8 builds in 0.12 s, 0.35 without.
    No box or ball cut on the moved magnitudes is needed: every key one
    rank lower lies in the box and ball of rho one rank lower, so
    ``below`` already reads 0 for any term such a cut would drop.
    """
    if rank == 0:
        return {(): 1}
    below = _rho_weight_table(family, rank - 1)
    coef = [Counter() for _ in range(rank)]  # coef[k][m] = [e^{m x/2}] f c^k
    for j, k in itertools.combinations_with_replacement(range(rank), 2):
        for e in {"B": (1, -1), "C": (2, -2), "D": (0,)}[family]:
            coef[k][2 * (k - 2 * j) + e] += math.comb(k, j)
    r = _rho_doubled(family, rank)
    table = {}
    for key in itertools.combinations_with_replacement(range(r[0], -1, -2), rank):
        if not in_root_cone(map(operator.sub, r, key), family):
            continue
        row = [c[key[0]] for c in coef]
        kmin, left = next(k for k, c in enumerate(row) if c), rank - 1
        states = [(0, 1, ())]  # (c_1 taken, weight, magnitudes)
        for v, group in itertools.groupby(key[1:]):
            cnt = len(list(group))
            left -= cnt
            states = [(k + z, wt * w, parts + add)
                      for z, w, add in _moves(v, cnt) for k, wt, parts in states
                      if k + z + left >= kmin]
        table[key] = sum(row[k] * wt * below.get(tuple(sorted(parts, reverse=True)), 0)
                         for k, wt, parts in states if row[k])
    return table


@lru_cache(maxsize=None)
def _moves(v, cnt):
    """Ways for cnt coordinates of magnitude v to give c_1 (d = 0) or move
    to |v - d| (d = +-2), as (c_1 given, count, magnitudes)."""
    out = []
    for ds in itertools.combinations_with_replacement((0, 2, -2), cnt):
        add = tuple(abs(v - d) for d in ds)
        count = math.factorial(cnt) // math.prod(map(math.factorial, map(ds.count, (0, 2, -2))))
        out.append((ds.count(0), count, add))
    return out


class RhoTensorEngine:
    """Answers [V(eta) (x) V(rho) : V(tau)] fast, for one root datum, as
    sum_w det(w) * m_rho(w(tau + rho) - eta - rho).

    A query walks the signed permutations one coordinate at a time,
    carrying det(w), and cuts every branch that leaves the box
    |mu_i| <= rho_1 or the ball ||mu|| <= ||rho|| that hold every weight
    (without the ball a D7 query takes 6.3 ms, not 4.9; an L1 ball on top
    saved nothing).  m_rho comes from ``_rho_weight_table``, which must
    hold all 2^|positive roots| weights (else RuntimeError).
    """

    def __init__(self, datum):
        if datum.family == "A":
            raise ValueError("engine covers the signed-permutation families")
        self.datum, n = datum, datum.rank
        self._rho_doubled = _rho_doubled(datum.family, n)
        self._table = _rho_weight_table(datum.family, n)
        # m times the number of vectors with the magnitudes in key
        total = sum(m * (math.factorial(n) << sum(map(bool, key)))
                    // math.prod(map(math.factorial, Counter(key).values()))
                    for key, m in self._table.items())
        if total != 2 ** len(datum.positive_roots()):
            raise RuntimeError("V(rho) table for %s lost weights" % (datum,))

    def multiplicity(self, eta, tau):
        """[V(eta) (x) V(rho) : V(tau)] for dominant eta, tau, each all
        integral or all half-integral."""
        if len(eta) != self.datum.rank or len(tau) != self.datum.rank:
            raise ValueError("weight length does not match rank %d" % self.datum.rank)
        pe, pt = {c & 1 for c in eta.doubled}, {c & 1 for c in tau.doubled}
        if len(pe) > 1 or len(pt) > 1:
            raise ValueError("mixed integral/half-integral coordinates")
        r = self._rho_doubled
        # rho has one parity too: each coordinate of w(tau + rho) - eta - rho
        # has that of tau - eta, and a weight of V(rho) has that of rho
        if (pe.pop() + pt.pop() + r[0]) & 1:
            return 0
        t = [c + d for c, d in zip(tau.doubled, r, strict=True)]
        n, top, ball = len(t), r[0], sum(c * c for c in r)
        # type D changes evenly many signs, with det 1; a zero in t absorbs
        # an odd count.  rows[i][j]: where t_j may go as coordinate i, as
        # (|mu_i|, mu_i^2, det factor, sign changes)
        flip = -1 if self.datum.family != "D" else 1
        even_only = flip == 1 and 0 not in t
        rows = [[[(abs(x), x * x, s, f) for x, s, f in ((c - b, 1, 0), (-c - b, flip, 1))
                  if abs(x) <= top and (flip < 0 or c or not f)] for c in t]
                for b in (e + c_r for e, c_r in zip(eta.doubled, r, strict=True))]
        mu, table = [0] * n, self._table

        def walk(i, det, sq, rest, flips):
            total = 0
            for k, j in enumerate(rest):
                d = -det if k & 1 else det  # k unused indices lie below j
                for a, a2, s, f in rows[i][j]:
                    if sq + a2 > ball:
                        continue
                    mu[i] = a
                    if i + 1 < n:
                        total += walk(i + 1, d * s, sq + a2,
                                      rest[:k] + rest[k + 1:], flips + f)
                    elif not (even_only and (flips + f) & 1):
                        total += d * s * table.get(tuple(sorted(mu, reverse=True)), 0)
            return total

        total = walk(0, 1, 0, tuple(range(n)), 0)
        del walk  # it refers to itself: free it now, not at the next gc
        return total


@lru_cache(maxsize=None)
def rho_tensor_engine(datum):
    return RhoTensorEngine(datum)


def _rho_tensor_multiplicities(etas, tau, datum):
    """[V(eta) (x) V(rho) : V(tau)] for each highest weight eta in etas,
    exactly, by the cheaper of two routes.

    V(rho) is self-dual, so the same number is [V(tau) (x) V(rho) : V(eta)]:
    when dim V(tau) <= len(etas), one ``tensor_decompose`` answers every
    eta (the dual route), else each eta is one engine query.  The test is
    conservative.  Measured over box-4 K-types on a 2-core host, dual
    against engine: it picks the dual route for D_even(3,3) (110 etas,
    dim 1: 0.2 against 76 ms) and D_odd(2,4) (32 etas, dim 12: 0.3 against
    36 ms), and the engine for C_odd(6) (2 etas: 0.46 s against 3 ms) and
    C_even(5) (3 etas: 37 against 0.9 ms).  The dual cost tracks V(tau)'s
    distinct weights, not its dimension, so the test still passes over
    D_odd(2,5) (32 etas, dim 896: 3 ms against 0.25 s).
    """
    dual = _target_dim(tau, datum) <= len(etas)
    return (_dual_route if dual else _engine_route)(etas, tau, datum)


@lru_cache(maxsize=256)
def _target_dim(tau, datum):
    """dim V(tau), kept per target: the Weyl product alone costs about a
    third of a small engine query (40 against 120 us at D5)."""
    return dim(KType(tau, datum))


def _dual_route(etas, tau, datum):
    """One V(tau) (x) V(rho); an eta it does not hold reads as 0."""
    rho_kt = KType(HalfIntVec(_rho_doubled(datum.family, datum.rank)), datum)
    got = {kt.hw: m for kt, m in tensor_decompose(KType(tau, datum), rho_kt)}
    return [got.get(eta, 0) for eta in etas]


def _engine_route(etas, tau, datum):
    """One ``RhoTensorEngine`` query per eta."""
    engine = rho_tensor_engine(datum)
    return [engine.multiplicity(eta, tau) for eta in etas]
