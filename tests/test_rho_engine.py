"""The V(rho) tensor engine against the dense build it replaced: the same
grid, the same multiplicities, the build postcondition and the parity
precondition of a query."""

import itertools
import random

import numpy as np
import pytest

from diracdual import characters
from diracdual.characters import KType, RhoTensorEngine
from diracdual.weights import HalfIntVec, RootDatum, dominant_rep, is_dominant, rho


class _ReferenceEngine:
    """The earlier engine, kept as a cross-check: a full-grid copy and add
    per positive root, and a Python loop over every Weyl group element."""

    def __init__(self, datum):
        self.datum = datum
        n = datum.rank
        r = rho(datum)
        self._rho_doubled = np.array(r.doubled, dtype=np.int64)
        lo = -max(r.doubled)
        self._lo = lo
        side = max(r.doubled) + 1
        grid = np.zeros((side,) * n, dtype=np.int64)
        grid[tuple((c - lo) // 2 for c in r.doubled)] = 1
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

        perms, signs, dets = [], [], []
        sign_choices = [
            s
            for s in itertools.product((1, -1), repeat=n)
            if datum.family in ("B", "C") or s.count(-1) % 2 == 0
        ]
        for perm in itertools.permutations(range(n)):
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
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
        t = np.array((tau + rho(self.datum)).doubled, dtype=np.int64)
        base = np.array(eta.doubled, dtype=np.int64) + self._rho_doubled
        rel = self._signs * t[self._perms] - base - self._lo
        ok = (
            ((rel & 1) == 0).all(axis=1)
            & (rel >= 0).all(axis=1)
            & (rel < 2 * self._side).all(axis=1)
        )
        good = np.nonzero(ok)[0]
        if len(good) == 0:
            return 0
        vals = self._grid[tuple((rel[good] >> 1).T)]
        return int((vals * self._dets[good]).sum())


DATA = [RootDatum(f, n) for f in "BCD" for n in (2, 3, 4, 5)]


@pytest.mark.parametrize("datum", DATA, ids=str)
def test_grid_matches_reference(datum):
    got = RhoTensorEngine(datum)._grid
    want = _ReferenceEngine(datum)._grid
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _dominant(rng, datum, parity):
    """A random dominant doubled vector of one parity, entries up to 9."""
    xs = sorted(
        (2 * rng.randint(0, 4) + parity for _ in range(datum.rank)), reverse=True
    )
    if datum.family == "D" and xs[-1] and rng.random() < 0.5:
        xs[-1] = -xs[-1]
    return HalfIntVec(tuple(xs))


def _pairs(datum, count, rng):
    """Seeded (eta, tau) pairs: half with tau + rho = dom(eta + rho + mu)
    for a weight mu = rho - (sum of some positive roots) of V(rho), so
    the answer is often nonzero; half with tau drawn on its own."""
    r = rho(datum).doubled
    roots = datum.positive_roots()
    parities = (0, 1) if datum.family in "BD" else (0,)
    out = []
    while len(out) < count:
        eta = _dominant(rng, datum, rng.choice(parities))
        if rng.random() < 0.5:
            drop = [alpha for alpha in roots if rng.random() < 0.5]
            v = tuple(
                e + 2 * c - 2 * sum(alpha[i] for alpha in drop)
                for i, (e, c) in enumerate(zip(eta.doubled, r))
            )
            tau = dominant_rep(HalfIntVec(v), datum) - HalfIntVec(r)
            if not is_dominant(tau, datum):
                continue
        else:
            tau = _dominant(rng, datum, rng.choice(parities))
        out.append((eta, tau))
    return out


@pytest.mark.parametrize("datum", DATA, ids=str)
def test_multiplicity_matches_reference(datum):
    rng = random.Random("engine-reference-%s" % datum)
    engine, reference = RhoTensorEngine(datum), _ReferenceEngine(datum)
    pairs = _pairs(datum, 40, rng)
    answers = [engine.multiplicity(eta, tau) for eta, tau in pairs]
    assert answers == [reference.multiplicity(eta, tau) for eta, tau in pairs]
    assert any(answers), "no nonzero answer among the pairs"
    if datum.family in "BD":
        # genuine (half-integral) K-types as eta and as tau, with an answer
        # (in type B rho is half-integral, so eta and tau differ in parity)
        for side in (0, 1):
            assert any(m and pair[side].doubled[0] & 1 for pair, m in zip(pairs, answers))
    if datum.family == "D":
        assert any(
            m and (eta.doubled[-1] < 0 or tau.doubled[-1] < 0)
            for (eta, tau), m in zip(pairs, answers)
        )


@pytest.mark.parametrize(
    "datum", [RootDatum(f, n) for f in "BCD" for n in range(1, 7)], ids=str
)
def test_grid_holds_every_weight(datum):
    # dim V(rho) = 2^|positive roots|, and every weight lies in the grid
    engine = RhoTensorEngine(datum)
    assert int(engine._grid.sum()) == 2 ** len(datum.positive_roots())
    assert KType(rho(datum), datum).dim == 2 ** len(datum.positive_roots())


class _NarrowNumpy:
    """numpy, except that new arrays get 8-bit cells."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def zeros(shape, dtype=None):
        return np.zeros(shape, dtype=np.int8)


def test_lost_weights_fail_the_build(monkeypatch):
    # C4 has weights of multiplicity 384, which wrap around in 8 bits
    monkeypatch.setattr(characters, "np", _NarrowNumpy())
    with pytest.raises(RuntimeError, match="lost weights"):
        RhoTensorEngine(RootDatum("C", 4))


@pytest.mark.parametrize("family", "BD")
def test_query_rejects_mixed_parity(family):
    datum = RootDatum(family, 3)
    engine = RhoTensorEngine(datum)
    whole, half = HalfIntVec((4, 2, 0)), HalfIntVec((3, 1, 1))
    mixed = HalfIntVec((3, 2, 0))
    assert engine.multiplicity(whole, half) == _ReferenceEngine(datum).multiplicity(
        whole, half
    )
    with pytest.raises(ValueError, match="mixed"):
        engine.multiplicity(mixed, half)
    with pytest.raises(ValueError, match="mixed"):
        engine.multiplicity(whole, mixed)
