"""Finite-dimensional module arithmetic for the compact form.

Dimensions come from the Weyl dimension formula, weight multiplicities
from Freudenthal's recursion, tensor products from the alternating-sum
rule (sum over the weight multiset of one factor, reflecting singular
shifted weights away), and the lowest constituent of a tensor product
from the longest-element formula.  Everything is exact integer
arithmetic on doubled coordinates.

For repeated tensor-with-spin-module queries at rank 5-6 the generic
path is too slow, so ``RhoTensorEngine`` precomputes the full weight
multiset of V(rho) as a dense integer array together with the whole
signed-permutation group, and answers multiplicity queries vectorized.
"""

from dataclasses import dataclass
from functools import lru_cache
import itertools

import numpy as np

from .weights import (
    HalfIntVec,
    RootDatum,
    dominant_rep,
    is_dominant,
    is_regular_doubled,
    norm_sq_x4,
    nspan_coefficients,
    pairing_x2,
    rho,
    w0_action,
)


@dataclass(frozen=True)
class KType:
    """An irreducible module of K (or its double cover), by highest weight."""

    hw: HalfIntVec
    datum: RootDatum

    def __post_init__(self):
        if not is_dominant(self.hw, self.datum):
            raise ValueError("%s is not dominant for %s" % (self.hw, self.datum))
        parities = {c % 2 for c in self.hw.doubled}
        if len(parities) > 1:
            raise ValueError("mixed integral/half-integral coordinates")
        if parities == {1} and self.datum.family not in ("B", "D"):
            raise ValueError(
                "half-integral K-types only exist for the B/D double covers"
            )

    @property
    def dim(self):
        return dim(self)

    def __str__(self):
        return "V(%s)" % (self.hw,)


@dataclass(frozen=True)
class Decomposition:
    """A finite multiset of K-types with positive multiplicities."""

    terms: tuple  # sorted tuple of (KType, multiplicity)

    @staticmethod
    def from_dict(d):
        items = tuple(
            sorted(d.items(), key=lambda kv: kv[0].hw.doubled, reverse=True)
        )
        return Decomposition(items)

    def multiplicity(self, kt):
        for t, m in self.terms:
            if t == kt:
                return m
        return 0

    def as_dict(self):
        return dict(self.terms)

    def total_dim(self):
        return sum(m * dim(t) for t, m in self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def dim(kt):
    """Weyl dimension formula, exact."""
    datum = kt.datum
    shifted = kt.hw + rho(datum)
    num = 1
    den = 1
    for alpha in datum.positive_roots():
        num *= pairing_x2(shifted, alpha)
        den *= pairing_x2(rho(datum), alpha)
    q, r = divmod(num, den)
    assert r == 0 and q > 0, "dimension formula must divide exactly"
    return q


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=200000)
def _freudenthal(datum, hw_doubled, wt_doubled):
    """Multiplicity of the *dominant* weight wt in V(hw)."""
    hw = HalfIntVec(hw_doubled)
    wt = HalfIntVec(wt_doubled)
    if wt_doubled == hw_doubled:
        return 1
    # a dominant weight occurs iff hw - wt is an N-combination of
    # simple roots; this also guards the division below
    if nspan_coefficients(hw - wt, datum) is None:
        return 0
    r = rho(datum)
    gap = norm_sq_x4(hw + r) - norm_sq_x4(wt + r)
    assert gap > 0, "dominant weight below the highest weight has a gap"
    total = 0
    for alpha in datum.positive_roots():
        step = HalfIntVec(tuple(2 * a for a in alpha))
        nu = wt
        while True:
            nu = nu + step
            m = _freudenthal(datum, hw_doubled, dominant_rep(nu, datum).doubled)
            if m == 0:
                # once outside the hull, walking further along alpha
                # stays outside
                break
            total += m * pairing_x2(nu, alpha)
    q, rem = divmod(4 * total, gap)
    assert rem == 0, "Freudenthal recursion must divide exactly"
    return q


def dominant_weights(hw, datum):
    """All dominant weights of the module with highest weight hw, with
    multiplicities, as {doubled tuple: mult}."""
    out = {}
    queue = [dominant_rep(hw, datum).doubled]
    seen = {queue[0]}
    while queue:
        cur = queue.pop()
        m = _freudenthal(datum, hw.doubled, cur)
        if m == 0:
            continue
        out[cur] = m
        v = HalfIntVec(cur)
        for alpha in datum.positive_roots():
            nxt = dominant_rep(
                v - HalfIntVec(tuple(2 * a for a in alpha)), datum
            ).doubled
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out


def _orbit(doubled, family):
    """The full Weyl orbit of a doubled coordinate vector, as a set."""
    out = set()
    if family == "A":
        return set(itertools.permutations(doubled))
    has_zero = any(c == 0 for c in doubled)
    neg_parity = sum(1 for c in doubled if c < 0) % 2
    for perm in set(itertools.permutations(tuple(abs(c) for c in doubled))):
        for signs in itertools.product((1, -1), repeat=len(perm)):
            if family == "D" and not has_zero:
                # only evenly many sign changes exist, so the parity of
                # the negative-coordinate count is an orbit invariant
                negs = sum(1 for s, c in zip(signs, perm) if s < 0 and c != 0)
                if negs % 2 != neg_parity:
                    continue
            out.add(tuple(s * c for s, c in zip(signs, perm)))
    return out


def weight_multiset(hw, datum):
    """Every weight of V(hw) with its multiplicity, as {doubled: mult}."""
    out = {}
    for dom, m in dominant_weights(hw, datum).items():
        for w in _orbit(dom, datum.family):
            out[w] = m
    return out


# ---------------------------------------------------------------------------
# Tensor decomposition (alternating sum over one factor's weights)
# ---------------------------------------------------------------------------


def _sort_sign(values):
    """Stable descending sort plus the sign of the sorting permutation."""
    idx = sorted(range(len(values)), key=lambda i: -values[i])
    inversions = 0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if idx[a] > idx[b]:
                inversions += 1
    return [values[i] for i in idx], (-1) ** inversions


def _to_dominant_with_det(doubled, family):
    """Map a regular vector to its dominant representative, returning
    (dominant doubled tuple, det of the Weyl element used)."""
    if family == "A":
        vals, sign = _sort_sign(list(doubled))
        return tuple(vals), sign
    mags = [abs(c) for c in doubled]
    flips = sum(1 for c in doubled if c < 0)
    vals, sign = _sort_sign(mags)
    if family in ("B", "C"):
        return tuple(vals), sign * ((-1) ** flips)
    # type D: only even sign-change counts are allowed; an odd count
    # moves to the last (smallest-magnitude) coordinate, or is absorbed
    # by a zero coordinate.  det is the permutation sign either way.
    if flips % 2 == 1 and all(c != 0 for c in doubled):
        vals[-1] = -vals[-1]
    return tuple(vals), sign


def tensor_decompose(a, b):
    """Decompose V(a) (x) V(b) into K-types with multiplicities."""
    if a.datum != b.datum:
        raise ValueError("cannot tensor modules of different data")
    datum = a.datum
    if dim(b) > dim(a):
        a, b = b, a
    r = rho(datum)
    shift = (a.hw + r).doubled
    acc = {}
    for wt, mult in weight_multiset(b.hw, datum).items():
        t = tuple(s + w for s, w in zip(shift, wt))
        if not is_regular_doubled(t, datum.family):
            continue
        dom, det = _to_dominant_with_det(t, datum.family)
        tau = tuple(d - rr for d, rr in zip(dom, r.doubled))
        acc[tau] = acc.get(tau, 0) + det * mult
        if acc[tau] == 0:
            del acc[tau]
    out = {}
    for tau, m in acc.items():
        assert m > 0, "negative net multiplicity: singular bookkeeping bug"
        out[KType(HalfIntVec(tau), datum)] = m
    return Decomposition.from_dict(out)


def prv_component(a, b):
    """The constituent V({a + w0 b}) of V(a) (x) V(b) — multiplicity one,
    strictly minimal shifted norm among all constituents."""
    if a.datum != b.datum:
        raise ValueError("datum mismatch")
    datum = a.datum
    return KType(dominant_rep(a.hw + w0_action(b.hw, datum), datum), datum)


def tensor_multiplicity(a, b, target):
    """[V(a) (x) V(b) : V(target)] without the full decomposition.

    Same alternating sum, but only terms landing on the target count.
    """
    if a.datum != b.datum or a.datum != target.datum:
        raise ValueError("datum mismatch")
    datum = a.datum
    if dim(b) > dim(a):
        a, b = b, a
    r = rho(datum)
    shift = (a.hw + r).doubled
    goal = (target.hw + r).doubled
    total = 0
    for wt, mult in weight_multiset(b.hw, datum).items():
        t = tuple(s + w for s, w in zip(shift, wt))
        if not is_regular_doubled(t, datum.family):
            continue
        dom, det = _to_dominant_with_det(t, datum.family)
        if dom == goal:
            total += det * mult
    return total


# ---------------------------------------------------------------------------
# Fast multiplicities in V(eta) (x) V(rho)
# ---------------------------------------------------------------------------


class RhoTensorEngine:
    """Answers [V(eta) (x) V(rho) : V(tau)] fast, for one root datum.

    The weight multiset of V(rho) is a product of 2-term factors over
    the positive roots, so it fills a dense box: we materialize it with
    numpy shift-adds, precompute the whole Weyl group as permutation
    and sign arrays, and evaluate the alternating sum

        sum_w det(w) * m_rho( w(tau + rho) - eta - rho )

    as one vectorized gather per query.
    """

    def __init__(self, datum):
        if datum.family == "A":
            raise ValueError("engine covers the signed-permutation families")
        self.datum = datum
        n = datum.rank
        r = rho(datum)
        self._rho_doubled = np.array(r.doubled, dtype=np.int64)
        lo = -max(r.doubled)
        self._lo = lo
        side = max(r.doubled) + 1  # doubled values step by 2
        shape = (side,) * n
        grid = np.zeros(shape, dtype=np.int64)
        start = tuple((c - lo) // 2 for c in r.doubled)
        grid[start] = 1
        for alpha in datum.positive_roots():
            shifted = np.zeros_like(grid)
            src = [slice(None)] * n
            dst = [slice(None)] * n
            for axis, step in enumerate(alpha):
                if step > 0:
                    src[axis] = slice(step, None)
                    dst[axis] = slice(None, -step)
                elif step < 0:
                    src[axis] = slice(None, step)
                    dst[axis] = slice(-step, None)
            shifted[tuple(dst)] = grid[tuple(src)]
            grid += shifted
        self._grid = grid
        self._side = side

        perms = []
        signs = []
        dets = []
        sign_choices = [
            s
            for s in itertools.product((1, -1), repeat=n)
            if datum.family in ("B", "C") or s.count(-1) % 2 == 0
        ]
        for perm in itertools.permutations(range(n)):
            inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if perm[i] > perm[j]
            )
            psign = (-1) ** inv
            for s in sign_choices:
                perms.append(perm)
                signs.append(s)
                if datum.family == "D":
                    dets.append(psign)
                else:
                    dets.append(psign * (1 if s.count(-1) % 2 == 0 else -1))
        self._perms = np.array(perms, dtype=np.int64)
        self._signs = np.array(signs, dtype=np.int64)
        self._dets = np.array(dets, dtype=np.int64)

    def multiplicity(self, eta, tau):
        """[V(eta) (x) V(rho) : V(tau)] for dominant eta, tau."""
        t = np.array((tau + rho(self.datum)).doubled, dtype=np.int64)
        base = np.array(eta.doubled, dtype=np.int64) + self._rho_doubled
        images = self._signs * t[self._perms]  # |W| x n, doubled coords
        rel = images - base - self._lo
        ok = (
            ((rel & 1) == 0).all(axis=1)
            & (rel >= 0).all(axis=1)
            & (rel < 2 * self._side).all(axis=1)
        )
        good = np.nonzero(ok)[0]
        if len(good) == 0:
            return 0
        sel = rel[good] >> 1
        vals = self._grid[tuple(sel.T)]
        return int((vals * self._dets[good]).sum())


@lru_cache(maxsize=8)
def rho_tensor_engine(datum):
    return RhoTensorEngine(datum)
