"""Finite-dimensional module arithmetic for the compact form.

Dimensions come from the Weyl dimension formula, weight multiplicities
from Freudenthal's recursion, tensor products from the alternating-sum
rule (sum over the weight multiset of one factor, reflecting singular
shifted weights away), and the lowest constituent of a tensor product
from the longest-element formula.  Everything is exact integer
arithmetic on doubled coordinates.

For repeated tensor-with-spin-module queries at rank 5-6 the generic
path is too slow, so ``RhoTensorEngine`` builds the weight multiset of
V(rho) as a dense integer array, in place on the support's bounding box,
lays out the signed-permutation group as broadcast numpy tables, and
answers each multiplicity query with one mask and one gather.
"""

from dataclasses import dataclass
from functools import lru_cache
import itertools
import math

import numpy as np

from .weights import (
    HalfIntVec,
    RootDatum,
    _rho_doubled,
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


# ---------------------------------------------------------------------------
# Fast multiplicities in V(eta) (x) V(rho)
# ---------------------------------------------------------------------------


class RhoTensorEngine:
    """Answers [V(eta) (x) V(rho) : V(tau)] fast, for one root datum.

    The weight multiset of V(rho) is e^rho times the product of
    (1 + e^-alpha) over the positive roots: we build it in place, one
    shift-add per root on the bounding box of the support so far, and
    check that it holds all 2^|positive roots| weights.  The Weyl group
    is the n! permutations broadcast against the allowed sign vectors,
    with det(w) their outer product, and the alternating sum

        sum_w det(w) * m_rho( w(tau + rho) - eta - rho )

    is one parity test, one range mask and one gather per query.
    """

    def __init__(self, datum):
        if datum.family == "A":
            raise ValueError("engine covers the signed-permutation families")
        self.datum = datum
        n = datum.rank
        r = _rho_doubled(datum.family, n)
        top = max(r)
        self._rho_doubled = r
        self._lo = -top
        self._side = side = top + 1  # doubled values step by 2
        grid = np.zeros((side,) * n, dtype=np.int64)
        # [lo, hi) per axis: the bounding box of the support built so far
        lo = [(c + top) // 2 for c in r]
        hi = [c + 1 for c in lo]
        grid[tuple(lo)] = 1
        roots = datum.positive_roots()
        for alpha in roots:
            # times (1 + e^-alpha): add the box onto itself moved by
            # -alpha (numpy buffers the overlap, so this is exact), then
            # widen the box by the root's extent
            src = tuple(map(slice, lo, hi))
            dst = []
            for i, s in enumerate(alpha):
                dst.append(slice(lo[i] - s, hi[i] - s))
                if s > 0:
                    lo[i] -= s
                elif s < 0:
                    hi[i] -= s
            grid[tuple(dst)] += grid[src]
        if grid.sum() != 2 ** len(roots):
            raise RuntimeError("V(rho) grid for %s lost weights" % (datum,))
        self._grid = grid

        # itertools lists permutations in lexicographic order, so the ones
        # starting with f have sign (-1)^f times that of the rest's order
        psign = [1]
        for k in range(2, n + 1):
            psign = [-s if f & 1 else s for f in range(k) for s in psign]
        # type D allows only evenly many sign changes, whose det is 1
        signs = [s for s in itertools.product((1, -1), repeat=n)
                 if datum.family != "D" or s.count(-1) % 2 == 0]
        # element (p, s) sits at [p, s]: the perms broadcast against signs
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        self._perms = perms[:, None, :]
        self._signs = np.array(signs, dtype=np.int64)
        self._dets = np.multiply.outer(psign, [math.prod(s) for s in signs])

    def multiplicity(self, eta, tau):
        """[V(eta) (x) V(rho) : V(tau)] for dominant eta, tau, each all
        integral or all half-integral."""
        pe, pt = {c & 1 for c in eta.doubled}, {c & 1 for c in tau.doubled}
        if len(pe) > 1 or len(pt) > 1:
            raise ValueError("mixed integral/half-integral coordinates")
        # rho has one parity too: each coordinate of w(tau + rho) - eta - rho
        # has that of tau - eta, and a weight of V(rho) has that of rho
        if (pe.pop() + pt.pop() + self._lo) & 1:
            return 0
        r, lo = self._rho_doubled, self._lo
        t = np.array([c + d for c, d in zip(tau.doubled, r)], dtype=np.int64)
        base = np.array([c + d + lo for c, d in zip(eta.doubled, r)], dtype=np.int64)
        idx = (t[self._perms] * self._signs - base) >> 1
        # negative indices wrap to huge unsigned ones: one compare per cell
        ok = (idx.view(np.uint64) < self._side).all(axis=2)
        vals = self._grid[tuple(idx[ok].T)]
        return int((vals * self._dets[ok]).sum())


@lru_cache(maxsize=8)
def rho_tensor_engine(datum):
    return RhoTensorEngine(datum)
