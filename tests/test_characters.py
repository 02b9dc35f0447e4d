"""Dimensions, tensor decompositions and the minimal-norm component,
checked against the frozen brute-force oracle at small rank."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from diracdual.weights import (
    HalfIntVec,
    RootDatum,
    norm_sq_x4,
    nspan_coefficients,
    rho,
    vec,
)
from diracdual.characters import (
    Decomposition,
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
            assert dec.total_dim() == a.dim * b.dim


def test_tensor_commutes():
    datum = RootDatum("D", 3)
    a = KType(vec(2, 1, 1), datum)
    b = KType(vec(1, 1, 0), datum)
    assert tensor_decompose(a, b).as_dict() == tensor_decompose(b, a).as_dict()


def test_tensor_with_genuine_factor():
    # integral (x) genuine lands in the genuine block, and the oracle agrees
    datum = RootDatum("B", 2)
    a, b = (2, 0), (1, 1)
    got = tensor_decompose(KType(HalfIntVec(a), datum), KType(HalfIntVec(b), datum))
    assert {kt.hw.doubled: m for kt, m in got} == oracle.tensor_decompose(
        "B", 2, a, b
    )


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
        assert dec.multiplicity(c) == 1
        target = norm_sq_x4(c.hw + r)
        for kt, _ in dec:
            if kt != c:
                assert norm_sq_x4(kt.hw + r) > target, (a.hw, b.hw, kt.hw)
            # every constituent sits above the minimal one in the root lattice
            coeffs = nspan_coefficients(kt.hw - c.hw, datum)
            assert coeffs is not None, (a.hw, b.hw, kt.hw)


# -- Decomposition container --------------------------------------------------


def test_decomposition_api():
    datum = RootDatum("C", 2)
    dec = tensor_decompose(KType(vec(1, 0), datum), KType(vec(1, 0), datum))
    assert len(dec) == 3
    assert dec.multiplicity(KType(vec(1, 1), datum)) == 1
    assert dec.multiplicity(KType(vec(5, 5), datum)) == 0
    hws = [kt.hw.doubled for kt, _ in dec]
    assert hws == sorted(hws, reverse=True)
    rebuilt = Decomposition.from_dict(dec.as_dict())
    assert rebuilt.as_dict() == dec.as_dict()


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
