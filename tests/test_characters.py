"""Dimensions, tensor decompositions and the minimal-norm component,
checked against the frozen brute-force oracle at small rank."""

from collections import Counter
from functools import lru_cache
import itertools
import operator
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from diracdual import characters
from diracdual.weights import (
    HalfIntVec,
    RootDatum,
    dominant_doubled,
    in_root_cone,
    is_regular_doubled,
    norm_sq_x4,
    rho,
    vec,
)
from diracdual.characters import (
    KType,
    dim,
    prv_component,
    rho_tensor_engine,
    tensor_decompose,
)


def _dominant_doubled(family, rank, cap, parity=None, rng=random):
    """Random dominant doubled coordinates, optionally of fixed parity."""
    while True:
        cs = sorted((rng.randrange(0, cap + 1) for _ in range(rank)), reverse=True)
        if parity is not None:
            cs = [max(c - (c - parity) % 2, parity) for c in cs]
            cs.sort(reverse=True)
        if family == "D" and rng.random() < 0.3 and cs[-1] > 0:
            cs[-1] = -cs[-1]
        if family == "A":
            # any weakly decreasing integer string works for gl(n)
            cs = sorted((rng.randrange(-cap, cap + 1) for _ in range(rank)),
                        reverse=True)
            cs = [2 * (c // 2) for c in cs]
        return tuple(cs)


# -- KType validation ---------------------------------------------------------


def test_ktype_rejects_non_dominant():
    with pytest.raises(ValueError):
        KType(vec(1, 2), RootDatum("C", 2))


def test_ktype_rejects_mixed_parity():
    with pytest.raises(ValueError):
        KType(HalfIntVec.parse("1,1/2"), RootDatum("B", 2))


def test_ktype_rejects_half_integral_in_c():
    with pytest.raises(ValueError):
        KType(HalfIntVec.parse("1/2,1/2"), RootDatum("C", 2))
    # fine for B and D (genuine representations of the double cover)
    KType(HalfIntVec.parse("1/2,1/2"), RootDatum("B", 2))
    KType(HalfIntVec.parse("1/2,-1/2"), RootDatum("D", 2))


# -- dimensions ---------------------------------------------------------------


def test_dim_spot_values():
    assert KType(vec(1, 1, 0), RootDatum("B", 3)).dim == 21
    assert KType(vec(1, 1, 1), RootDatum("B", 3)).dim == 35
    assert KType(vec(2, 1, 1, 1, 0), RootDatum("D", 5)).dim == 1728
    assert KType(HalfIntVec.parse("1/2,1/2,1/2"), RootDatum("B", 3)).dim == 8


@pytest.mark.parametrize("family", "ABCD")
def test_dim_matches_oracle(family):
    rng = random.Random("dims-" + family)
    for rank in (1, 2, 3):
        datum = RootDatum(family, rank)
        for _ in range(12):
            hw = _dominant_doubled(family, rank, 6, parity=0, rng=rng)
            kt = KType(HalfIntVec(hw), datum)
            assert kt.dim == oracle.dim(family, rank, hw), (family, hw)


def test_dim_genuine_matches_oracle():
    for hw in [(1, 1, 1), (3, 1, 1), (5, 3, 1)]:
        kt = KType(HalfIntVec(hw), RootDatum("B", 3))
        assert kt.dim == oracle.dim("B", 3, hw)


# -- tensor decomposition -----------------------------------------------------


@pytest.mark.parametrize("family", "ABCD")
def test_tensor_matches_oracle(family):
    rng = random.Random("tensor-" + family)
    for rank in (2, 3):
        datum = RootDatum(family, rank)
        for _ in range(6):
            a = _dominant_doubled(family, rank, 4, parity=0, rng=rng)
            b = _dominant_doubled(family, rank, 4, parity=0, rng=rng)
            got = tensor_decompose(
                KType(HalfIntVec(a), datum), KType(HalfIntVec(b), datum)
            )
            want = oracle.tensor_decompose(family, rank, a, b)
            assert {kt.hw.doubled: m for kt, m in got} == want, (family, a, b)


def test_tensor_conserves_dimension():
    rng = random.Random("conserve")
    for family in "ABCD":
        datum = RootDatum(family, 3)
        for _ in range(4):
            a = KType(HalfIntVec(_dominant_doubled(family, 3, 6, 0, rng)), datum)
            b = KType(HalfIntVec(_dominant_doubled(family, 3, 6, 0, rng)), datum)
            dec = tensor_decompose(a, b)
            assert sum(m * kt.dim for kt, m in dec) == a.dim * b.dim


def test_tensor_commutes():
    datum = RootDatum("D", 3)
    a = KType(vec(2, 1, 1), datum)
    b = KType(vec(1, 1, 0), datum)
    assert dict(tensor_decompose(a, b)) == dict(tensor_decompose(b, a))


def test_tensor_with_genuine_factor():
    # integral (x) genuine lands in the genuine block, and the oracle agrees
    datum = RootDatum("B", 2)
    a, b = (2, 0), (1, 1)
    got = tensor_decompose(KType(HalfIntVec(a), datum), KType(HalfIntVec(b), datum))
    assert {kt.hw.doubled: m for kt, m in got} == oracle.tensor_decompose(
        "B", 2, a, b
    )


# -- the orbit walk against the full-orbit reference -------------------------


@lru_cache(maxsize=None)
def _freudenthal_reference(datum, hw, wt):
    """Multiplicity of the dominant weight wt in V(hw), by recursion."""
    if wt == hw:
        return 1
    if not in_root_cone((HalfIntVec(hw) - HalfIntVec(wt)).doubled, datum.family):
        return 0
    r = rho(datum).doubled
    gap = sum((h + c) ** 2 - (w + c) ** 2 for h, w, c in zip(hw, wt, r))
    total = 0
    for alpha in datum.positive_roots():
        nu = wt
        while True:
            nu = [c + 2 * a for c, a in zip(nu, alpha)]
            m = _freudenthal_reference(datum, hw, tuple(dominant_doubled(nu, datum.family)))
            if m == 0:
                break
            total += m * sum(map(operator.mul, nu, alpha))
    q, rem = divmod(4 * total, gap)
    assert rem == 0 and gap > 0
    return q


def _orbit(doubled, family):
    """The full Weyl orbit of a doubled coordinate vector, as a set."""
    if family == "A":
        return set(itertools.permutations(doubled))
    parity = sum(c < 0 for c in doubled) % 2 if family == "D" and 0 not in doubled else None
    out = set()
    for perm in set(itertools.permutations(map(abs, doubled))):
        for signs in itertools.product((1, -1), repeat=len(perm)):
            v = tuple(map(operator.mul, signs, perm))
            if parity is None or sum(c < 0 for c in v) % 2 == parity:
                out.add(v)
    return out


def _weight_multiset(hw, datum):
    """Every weight of V(hw) with its multiplicity: a search down from hw
    over the dominant weights, then their full orbits."""
    queue, dom, seen = [hw], {}, {hw}
    while queue:
        cur = queue.pop()
        m = _freudenthal_reference(datum, hw, cur)
        if m == 0:
            continue
        dom[cur] = m
        for alpha in datum.positive_roots():
            nxt = tuple(dominant_doubled([c - 2 * a for c, a in zip(cur, alpha)], datum.family))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return {w: m for d, m in dom.items() for w in _orbit(d, datum.family)}


def _to_dominant_with_det(doubled, family):
    """(dominant representative, det of the sorting Weyl element)."""
    mags = doubled if family == "A" else [abs(c) for c in doubled]
    inversions = sum(a < b for i, a in enumerate(mags) for b in mags[i + 1:])
    flips = sum(c < 0 for c in doubled) if family in "BC" else 0
    return tuple(dominant_doubled(doubled, family)), (-1) ** (inversions + flips)


def _klimyk_reference(a, b):
    """Klimyk's sum over every weight of the smaller factor, one weight at a
    time, as the library computed it before the orbit walk."""
    datum = a.datum
    if dim(b) > dim(a):
        a, b = b, a
    r = rho(datum)
    shift = (a.hw + r).doubled
    acc = Counter()
    for wt, mult in _weight_multiset(b.hw.doubled, datum).items():
        t = tuple(s + w for s, w in zip(shift, wt))
        if is_regular_doubled(t, datum.family):
            dom, det = _to_dominant_with_det(t, datum.family)
            acc[tuple(d - rr for d, rr in zip(dom, r.doubled))] += det * mult
    assert min(acc.values(), default=0) >= 0
    return tuple((KType(HalfIntVec(tau), datum), m)
                 for tau, m in sorted(acc.items(), reverse=True) if m)


def _rank4_weights(family):
    """Every dominant weight with entries <= 3 (in type D also with the
    last entry negated), doubled."""
    out = []
    for xs in itertools.combinations_with_replacement((6, 4, 2, 0), 4):
        out.append(xs)
        if family == "D" and xs[-1]:
            out.append(xs[:-1] + (-xs[-1],))
    return out


@pytest.mark.parametrize("family", "ABCD")
def test_tensor_matches_reference_at_ranks_1_and_2(family):
    # rank 1 has no roots in types A and D: a lone weight, no cancellation
    for rank in (1, 2):
        datum = RootDatum(family, rank)
        kts = [KType(HalfIntVec(xs), datum)
               for xs in itertools.product(range(-4, 5), repeat=rank)
               if tuple(dominant_doubled(xs, family)) == xs
               and len({x & 1 for x in xs}) == 1 and (family in "BD" or xs[0] % 2 == 0)]
        for a, b in itertools.product(kts, kts[::3]):
            got = tensor_decompose(a, b)
            assert got == _klimyk_reference(a, b), (family, a.hw, b.hw)


@pytest.mark.parametrize("family", "ABCD")
def test_tensor_matches_reference_at_rank_4(family):
    rng = random.Random("walk-rank4-" + family)
    datum = RootDatum(family, 4)
    hws = _rank4_weights(family)
    for hw in hws:
        for other in rng.sample(hws, 2):
            a, b = KType(HalfIntVec(hw), datum), KType(HalfIntVec(other), datum)
            got = tensor_decompose(a, b)
            assert got == _klimyk_reference(a, b), (family, hw, other)


@pytest.mark.parametrize("family", "ABCD")
def test_tensor_matches_reference_at_rank_5(family):
    rng = random.Random("walk-rank5-" + family)
    datum = RootDatum(family, 5)
    # genuine factors (odd doubled coordinates) only exist in B and D
    parities = (0, 1) if family in "BD" else (0,)
    for k in range(12):
        a = KType(HalfIntVec(_dominant_doubled(family, 5, 5, rng.choice(parities), rng)), datum)
        b = _dominant_doubled(family, 5, 4, rng.choice(parities), rng)
        if family == "D" and b[-1] and k % 2:
            b = b[:-1] + (-abs(b[-1]),)
        b = KType(HalfIntVec(b), datum)
        got = tensor_decompose(a, b)
        assert got == _klimyk_reference(a, b), (family, a.hw, b.hw)


def test_corrupted_weight_table_raises_under_optimize():
    # without the (0, 0) weight of V(1, 0) the alternating sum of
    # V(1, 0) (x) V(1, 0) in B2 leaves -V(1, 0); the check must survive -O
    code = (
        "import sys\n"
        "from diracdual import characters\n"
        "from diracdual.weights import RootDatum, vec\n"
        "real = characters.dominant_weights\n"
        "characters.dominant_weights = lambda hw, datum: {\n"
        "    w: m for w, m in real(hw, datum).items() if any(w)}\n"
        "d = RootDatum('B', 2)\n"
        "a = characters.KType(vec(1, 0), d)\n"
        "try:\n"
        "    characters.tensor_decompose(a, a)\n"
        "except RuntimeError as e:\n"
        "    print(sys.flags.optimize, e)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1 negative net multiplicity"


# -- minimal-norm component ---------------------------------------------------


@pytest.mark.parametrize("family", "ABCD")
def test_prv_component_minimal_and_multiplicity_one(family):
    rng = random.Random("prv-" + family)
    datum = RootDatum(family, 3)
    r = rho(datum)
    for _ in range(8):
        a = KType(HalfIntVec(_dominant_doubled(family, 3, 5, 0, rng)), datum)
        b = KType(HalfIntVec(_dominant_doubled(family, 3, 5, 0, rng)), datum)
        c = prv_component(a, b)
        dec = tensor_decompose(a, b)
        assert dict(dec).get(c, 0) == 1
        target = norm_sq_x4(c.hw + r)
        for kt, _ in dec:
            if kt != c:
                assert norm_sq_x4(kt.hw + r) > target, (a.hw, b.hw, kt.hw)
            # every constituent sits above the minimal one in the root lattice
            assert in_root_cone((kt.hw - c.hw).doubled, datum.family), (a.hw, b.hw, kt.hw)


# -- the decomposition: (KType, multiplicity) pairs ----------------------------


def test_decomposition_api():
    datum = RootDatum("C", 2)
    dec = tensor_decompose(KType(vec(1, 0), datum), KType(vec(1, 0), datum))
    assert isinstance(dec, tuple)
    assert len(dec) == 3
    assert dict(dec).get(KType(vec(1, 1), datum), 0) == 1
    assert dict(dec).get(KType(vec(5, 5), datum), 0) == 0
    hws = [kt.hw.doubled for kt, _ in dec]
    assert hws == sorted(hws, reverse=True)


def test_dominant_weights_refuse_what_ktype_refuses():
    # a half-integral type-C weight, a non-dominant one, and one whose
    # recursion would not divide: bad input, so ValueError
    for hw, family, msg in (
        ((1, 1), "C", "half-integral K-types only exist"),
        ((0, 2), "B", "0,1 is not dominant for B2"),
        ((3, 3), "C", "half-integral K-types only exist"),
    ):
        with pytest.raises(ValueError, match=msg):
            characters.dominant_weights(HalfIntVec(hw), RootDatum(family, 2))


def test_products_refuse_mixed_data():
    c2, b2 = KType(vec(1, 0), RootDatum("C", 2)), KType(vec(1, 0), RootDatum("B", 2))
    with pytest.raises(ValueError, match="cannot tensor modules of different data"):
        tensor_decompose(c2, b2)
    with pytest.raises(ValueError, match="datum mismatch"):
        prv_component(c2, b2)


# -- the dense engine for (x) V(rho) -----------------------------------------


@pytest.mark.parametrize("family", "BCD")
def test_rho_engine_matches_full_decomposition(family):
    rng = random.Random("engine-" + family)
    for rank in (2, 3):
        datum = RootDatum(family, rank)
        engine = rho_tensor_engine(datum)
        r = rho(datum)
        rho_kt = KType(r, datum)
        par = 1 if family in "BD" else 0
        for _ in range(5):
            eta = KType(
                HalfIntVec(_dominant_doubled(family, rank, 5, par, rng)), datum
            )
            dec = tensor_decompose(eta, rho_kt)
            seen = {kt.hw.doubled: m for kt, m in dec}
            # every constituent and a few absentees agree with the engine
            for kt, m in dec:
                assert engine.multiplicity(eta.hw, kt.hw) == m
            for _ in range(5):
                probe = _dominant_doubled(family, rank, 7, par, rng)
                if probe not in seen:
                    assert engine.multiplicity(eta.hw, HalfIntVec(probe)) == 0


def test_rho_engine_rejects_type_a():
    with pytest.raises(ValueError):
        rho_tensor_engine(RootDatum("A", 2))
