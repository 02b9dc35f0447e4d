"""The V(rho) tensor engine against the dense engine it replaced: the same
multiplicities, the same weight multiplicities m_rho, the build
postcondition, the parity precondition of a query, and the ranks the dense
grid could not reach."""

import itertools
import math
import pkgutil
import random
import subprocess
import sys

import numpy as np
import pytest

import diracdual
from diracdual import characters
from diracdual.characters import KType, RhoTensorEngine
from diracdual.dirac import hd_multiplicity, spin_lkt_unipotent
from diracdual.spectrum import UnipotentFamily, kspectrum, two_lambda
from diracdual.weights import HalfIntVec, RootDatum, dominant_rep, is_dominant, rho


class _DenseEngine:
    """The earlier engine, kept as a cross-check: the weight multiset of
    V(rho) as a dense grid, built in place by one shift-add per positive
    root, and the Weyl group as broadcast permutation-by-sign tables."""

    def __init__(self, datum):
        n = datum.rank
        r = rho(datum).doubled
        top = max(r)
        self._rho_doubled = r
        self._lo = -top
        self._side = side = top + 1
        grid = np.zeros((side,) * n, dtype=np.int64)
        lo = [(c + top) // 2 for c in r]
        hi = [c + 1 for c in lo]
        grid[tuple(lo)] = 1
        for alpha in datum.positive_roots():
            src = tuple(map(slice, lo, hi))
            dst = []
            for i, s in enumerate(alpha):
                dst.append(slice(lo[i] - s, hi[i] - s))
                if s > 0:
                    lo[i] -= s
                elif s < 0:
                    hi[i] -= s
            grid[tuple(dst)] += grid[src]
        assert grid.sum() == 2 ** len(datum.positive_roots())
        self._grid = grid
        psign = [1]
        for k in range(2, n + 1):
            psign = [-s if f & 1 else s for f in range(k) for s in psign]
        signs = [s for s in itertools.product((1, -1), repeat=n)
                 if datum.family != "D" or s.count(-1) % 2 == 0]
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        self._perms = perms[:, None, :]
        self._signs = np.array(signs, dtype=np.int64)
        self._dets = np.multiply.outer(psign, [math.prod(s) for s in signs])

    def multiplicity(self, eta, tau):
        pe, pt = {c & 1 for c in eta.doubled}, {c & 1 for c in tau.doubled}
        if (pe.pop() + pt.pop() + self._lo) & 1:
            return 0
        r, lo = self._rho_doubled, self._lo
        t = np.array([c + d for c, d in zip(tau.doubled, r)], dtype=np.int64)
        base = np.array([c + d + lo for c, d in zip(eta.doubled, r)], dtype=np.int64)
        idx = (t[self._perms] * self._signs - base) >> 1
        ok = (idx.view(np.uint64) < self._side).all(axis=2)
        vals = self._grid[tuple(idx[ok].T)]
        return int((vals * self._dets[ok]).sum())


DATA = [RootDatum(f, n) for f in "BCD" for n in (2, 3, 4, 5)]


def _orbit_size(key):
    """How many vectors have the magnitudes in key."""
    size = math.factorial(len(key)) * 2 ** sum(1 for c in key if c)
    for c in set(key):
        size //= math.factorial(key.count(c))
    return size


@pytest.mark.parametrize("datum", DATA, ids=str)
def test_grid_matches_reference(datum):
    # m_rho from the weight table against the dense grid at every dominant
    # cell, in type D with either sign last
    dense = _DenseEngine(datum)
    table = characters._rho_weight_table(datum.family, datum.rank)
    top = max(rho(datum).doubled)
    cells = 0
    for key in itertools.combinations_with_replacement(range(top, -1, -2), datum.rank):
        for last in {key[-1], -key[-1]} if datum.family == "D" else {key[-1]}:
            cell = key[:-1] + (last,)
            want = int(dense._grid[tuple((c + top) // 2 for c in cell)])
            assert table.get(key, 0) == want, cell
            cells += 1
    assert cells and len(table) == sum(
        1 for key in itertools.combinations_with_replacement(range(top, -1, -2), datum.rank)
        if dense._grid[tuple((c + top) // 2 for c in key)]
    )


@pytest.mark.parametrize(
    "datum", [RootDatum(f, n) for f in "BCD" for n in range(1, 7)], ids=str
)
def test_grid_holds_every_weight(datum):
    # dim V(rho) = 2^|positive roots|: the weight table, summed over every
    # vector of every key, holds all of them
    table = RhoTensorEngine(datum)._table
    total = sum(m * _orbit_size(key) for key, m in table.items())
    assert total == 2 ** len(datum.positive_roots())
    assert KType(rho(datum), datum).dim == 2 ** len(datum.positive_roots())


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
    engine, dense = RhoTensorEngine(datum), _DenseEngine(datum)
    pairs = _pairs(datum, 60, rng)
    answers = [engine.multiplicity(eta, tau) for eta, tau in pairs]
    assert answers == [dense.multiplicity(eta, tau) for eta, tau in pairs]
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
        # tau_n = 0 puts a zero in tau + rho, which absorbs an odd sign count
        assert any(m and tau.doubled[-1] == 0 for (eta, tau), m in zip(pairs, answers))


def test_lost_weights_fail_the_build(monkeypatch):
    # one m_rho value off by one breaks dim V(rho) = 2^|positive roots|
    build = characters._rho_weight_table

    def corrupted(fam, rank):
        table = build(fam, rank)
        if rank < 4:
            return table
        table = dict(table)
        key = min(table)
        table[key] += 1
        return table

    monkeypatch.setattr(characters, "_rho_weight_table", corrupted)
    for family in "BCD":
        with pytest.raises(RuntimeError, match="lost weights"):
            RhoTensorEngine(RootDatum(family, 4))


@pytest.mark.parametrize("family", "BD")
def test_query_rejects_mixed_parity(family):
    datum = RootDatum(family, 3)
    engine = RhoTensorEngine(datum)
    whole, half = HalfIntVec((4, 2, 0)), HalfIntVec((3, 1, 1))
    mixed = HalfIntVec((3, 2, 0))
    assert engine.multiplicity(whole, half) == _DenseEngine(datum).multiplicity(
        whole, half
    )
    with pytest.raises(ValueError, match="mixed"):
        engine.multiplicity(mixed, half)
    with pytest.raises(ValueError, match="mixed"):
        engine.multiplicity(whole, mixed)


def test_query_rejects_wrong_rank():
    engine = RhoTensorEngine(RootDatum("C", 3))
    with pytest.raises(ValueError):
        engine.multiplicity(HalfIntVec((4, 2)), HalfIntVec((4, 2, 0)))
    with pytest.raises(ValueError):
        engine.multiplicity(HalfIntVec((4, 2, 0)), HalfIntVec((4, 2, 0, 0)))
    # in B3 the parity of rho alone would answer 0 for these
    engine = RhoTensorEngine(RootDatum("B", 3))
    for eta, tau in (((2, 0), (0, 0, 0)), ((2, 0, 0), (0, 0))):
        with pytest.raises(ValueError, match="^weight length does not match rank 3$"):
            engine.multiplicity(HalfIntVec(eta), HalfIntVec(tau))


# -- ranks 7 and 8, out of the dense grid's reach ------------------------------


@pytest.mark.parametrize(
    "kind,a,b",
    [("D_odd", 3, 4), ("D_even", 2, 5), ("B", 3, 4),
     ("B", 4, 4), ("D_even", 4, 4), ("D_odd", 4, 4)],
)
def test_tensor_path_agrees_at_ranks_7_and_8(kind, a, b):
    fam = UnipotentFamily(kind, a=a, b=b)
    datum = fam.datum
    assert datum.rank in (7, 8)
    # hd_multiplicity raises RuntimeError when the two paths disagree
    assert hd_multiplicity(fam, via_tensor=True) == hd_multiplicity(fam)
    # V(tau) is trivial for D_odd(3,4), D_even(4,4) and D_odd(4,4), so they
    # take the dual route there: query the rank-7 and rank-8 engines on the
    # minimizers too
    res = spin_lkt_unipotent(fam)
    engine = characters.rho_tensor_engine(datum)
    tau = dominant_rep(two_lambda(fam), datum) - rho(datum)
    total = sum(engine.multiplicity(kt.hw, tau) for kt, _ in res.spin_lkts)
    assert total == (1 if res.nonzero else 0)


def _catalogue(size):
    for a in range(1, size // 2 + 1):
        for b in range(a, size + 1 - a):
            for kind in ("B", "D_even", "D_odd"):
                yield UnipotentFamily(kind, a=a, b=b)
    for n in range(1, size + 1):
        for kind in ("C_even", "C_odd"):
            yield UnipotentFamily(kind, n=n)


def _route_cases():
    # every catalogue family of size <= 6: a vanishing one over its box-4
    # K-types, a nonvanishing one over its spin-LKT (each answer 1); then
    # two rank-7 boxes, one on each side of the size test
    for fam in _catalogue(6):
        res = spin_lkt_unipotent(fam)
        if res.nonzero:
            yield fam, [kt.hw for kt, _ in res.spin_lkts], [1]
        else:
            yield fam, [eta.hw for eta in kspectrum(fam, 4)], None
    for fam in (UnipotentFamily("D_even", a=3, b=4), UnipotentFamily("D_odd", a=2, b=5)):
        yield fam, [eta.hw for eta in kspectrum(fam, 4)], None


def test_rho_tensor_routes_agree():
    # the dual route (one V(tau) (x) V(rho)) and the engine route (one
    # query per eta) are exact, so they agree wherever both run
    cases = list(_route_cases())
    assert len(cases) == 39 + 2
    for fam, etas, want in cases:
        datum = fam.datum
        tau = dominant_rep(two_lambda(fam), datum) - rho(datum)
        dual = characters._dual_route(etas, tau, datum)
        assert dual == characters._engine_route(etas, tau, datum), str(fam)
        assert dual == (want or [0] * len(etas)), str(fam)
        assert characters._rho_tensor_multiplicities(etas, tau, datum) == dual


def _child(code):
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_rank_7_tensor_path_stays_small():
    # the dense B7 grid alone peaked near 1.6 GB
    code = (
        "import resource\n"
        "from diracdual.dirac import hd_multiplicity\n"
        "from diracdual.spectrum import UnipotentFamily\n"
        "hd_multiplicity(UnipotentFamily('B', a=3, b=4), via_tensor=True)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    assert int(_child(code)) < 150 * 1024  # ru_maxrss is in KB on Linux


def test_package_imports_no_numpy():
    names = sorted(
        "diracdual." + m.name for m in pkgutil.iter_modules(diracdual.__path__)
    )
    assert "diracdual.cli" in names and "diracdual.characters" in names
    code = "import sys\n%s\nprint('numpy' in sys.modules)\n" % "\n".join(
        "import " + name for name in names
    )
    assert _child(code) == "False"


# every package module, then each benchmark workload's modules
IMPORT_SETS = [
    sorted("diracdual." + m.name for m in pkgutil.iter_modules(diracdual.__path__)),
    ["diracdual.characters"],
    ["diracdual.spectrum", "diracdual.dirac"],
    ["diracdual.unitarity"],
    ["diracdual.cli"],
]


@pytest.mark.parametrize("names", IMPORT_SETS, ids=lambda names: "+".join(names))
def test_package_adds_no_dataclasses_or_inspect(names):
    # dataclasses pulls in inspect, ast, dis and tokenize: about a third of
    # the package's import time.  The baseline is what a bare interpreter
    # already holds (a site .pth may load either).
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "%s\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))\n"
    ) % "\n".join("import " + name for name in names)
    assert _child(code) == "[]"
