"""Exact weight arithmetic: parsing, dominance, regularity, cone tests."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracle
from diracdual.weights import (
    HalfIntVec,
    RootDatum,
    ZhParam,
    dominant_rep,
    in_root_cone,
    is_dominant,
    is_regular,
    norm_sq_x4,
    rho,
    vec,
    w0_action,
)

halfints = st.integers(min_value=-9, max_value=9)


def hv(st_rank=st.integers(min_value=1, max_value=5)):
    return st_rank.flatmap(
        lambda n: st.tuples(*([halfints] * n)).map(HalfIntVec)
    )


# -- construction and parsing ------------------------------------------------


def test_from_halves_and_parse():
    v = HalfIntVec.from_halves([Fraction(5, 2), 1, Fraction(-3, 2)])
    assert v.doubled == (5, 2, -3)
    assert HalfIntVec.parse("5/2,1,-3/2") == v
    assert HalfIntVec.parse(" 5/2 , 1,-3/2 ") == v
    assert str(v) == "5/2,1,-3/2"


def test_constructor_refuses_non_integers():
    # doubled coordinates must be integers: a float or a Fraction raises
    # instead of being truncated to another weight
    with pytest.raises(TypeError):
        HalfIntVec((5.9, 3.2, 1.7))
    with pytest.raises(TypeError):
        HalfIntVec((Fraction(7, 2), 1))
    v = HalfIntVec([5, 3, 1])
    assert v.doubled == (5, 3, 1) and type(v.doubled[0]) is int
    assert str(v) == "5/2,3/2,1/2"
    assert HalfIntVec((True, False)).doubled == (1, 0)


def test_from_halves_rejects_thirds():
    with pytest.raises(ValueError, match="not a half-integer"):
        HalfIntVec.from_halves([Fraction(1, 3)])


def test_parse_rejects_empty():
    for text in ("", " ", ","):
        with pytest.raises(ValueError, match="empty weight string"):
            HalfIntVec.parse(text)


def test_parse_rejects_an_empty_coordinate():
    for text in ("2,,1", "2,1,", ",2,1", "2, ,1"):
        with pytest.raises(ValueError, match="empty coordinate") as exc:
            HalfIntVec.parse(text)
        assert repr(text) in str(exc.value)


@given(hv())
def test_parse_round_trips(v):
    assert HalfIntVec.parse(str(v)) == v


@given(hv())
def test_halves_match_doubled(v):
    assert tuple(2 * h for h in v.halves()) == v.doubled


def test_arithmetic():
    a, b = vec(1, 2), HalfIntVec.parse("1/2,-1/2")
    assert (a + b).doubled == (3, 3)
    assert (a - b).doubled == (1, 5)
    assert (-b).doubled == (-1, 1)


def test_is_integral():
    assert vec(1, 2).is_integral
    assert not HalfIntVec.parse("1/2,1").is_integral


# -- rho ---------------------------------------------------------------------


@pytest.mark.parametrize("family,rank", list(itertools.product("ABCD", (1, 2, 3))))
def test_rho_matches_half_sum(family, rank):
    r = rho(RootDatum(family, rank))
    assert r.doubled == oracle.rho_doubled(family, rank)


def test_rho_values():
    assert str(rho(RootDatum("B", 3))) == "5/2,3/2,1/2"
    assert str(rho(RootDatum("C", 2))) == "2,1"
    assert str(rho(RootDatum("D", 4))) == "3,2,1,0"


@pytest.mark.parametrize("family,rank", list(itertools.product("ABCD", range(1, 8))))
def test_rho_is_dominant_and_regular(family, rank):
    datum = RootDatum(family, rank)
    r = rho(datum)
    assert is_dominant(r, datum)
    assert is_regular(r, datum)
    zeros = r.doubled.count(0)
    if family in "BC":
        # strictly positive, strictly decreasing coordinates
        assert zeros == 0 and r.doubled[-1] > 0
        assert all(a > b for a, b in zip(r.doubled, r.doubled[1:]))
    elif family == "A":
        # strictly decreasing, zero only at the middle of an odd rank
        assert zeros == (rank % 2)
        assert all(a > b for a, b in zip(r.doubled, r.doubled[1:]))
    else:
        # the last coordinate is the single zero
        assert zeros == 1 and r.doubled[-1] == 0


# -- dominance ---------------------------------------------------------------


def _simple_root_dominant(d, family):
    """<v, alpha_i> >= 0 for every simple root, written out per family:
    e_i - e_{i+1}, then e_n (B), 2e_n (C) or e_{n-1} + e_n (D, rank >= 2)."""
    ok = all(a >= b for a, b in zip(d, d[1:]))
    if family in "BC":
        return ok and d[-1] >= 0
    if family == "D" and len(d) >= 2:
        return ok and d[-2] + d[-1] >= 0
    return ok


@pytest.mark.parametrize("family", "ABCD")
def test_is_dominant_matches_simple_roots(family):
    # every vector with doubled entries in [-4, 4] at ranks 1-4
    for n in range(1, 5):
        datum = RootDatum(family, n)
        for d in itertools.product(range(-4, 5), repeat=n):
            assert is_dominant(HalfIntVec(d), datum) == _simple_root_dominant(d, family), d


@given(hv(), st.sampled_from("ABCD"))
def test_dominant_rep_is_dominant(v, family):
    datum = RootDatum(family, len(v))
    d = dominant_rep(v, datum)
    assert is_dominant(d, datum)


@given(hv(), st.sampled_from("ABCD"))
def test_dominant_rep_in_orbit(v, family):
    # the representative really is a Weyl image of v
    datum = RootDatum(family, len(v))
    d = dominant_rep(v, datum)
    images = {
        oracle.act(p, s, v.doubled)
        for p, s, _ in oracle.weyl_elements(family, len(v))
    }
    assert d.doubled in images


@given(hv(), st.sampled_from("ABCD"))
def test_dominant_rep_idempotent(v, family):
    datum = RootDatum(family, len(v))
    d = dominant_rep(v, datum)
    assert dominant_rep(d, datum) == d


def test_rank_checks():
    b3 = RootDatum("B", 3)
    with pytest.raises(ValueError, match="^weight has 2 coordinates, datum has rank 3$"):
        dominant_rep(vec(1, 0), b3)
    for check in (is_dominant, is_regular):
        with pytest.raises(ValueError, match="^rank mismatch$"):
            check(vec(1, 0), b3)


def test_zh_param_checks():
    with pytest.raises(ValueError, match="^parameter length does not match rank$"):
        ZhParam(vec(1, 0), vec(1, 0, 0), RootDatum("B", 3))
    with pytest.raises(ValueError, match="^parameter length does not match rank$"):
        ZhParam(vec(1, 0, 0), vec(1, 0, 0), RootDatum("B", 2))
    for family in "BC":
        with pytest.raises(
            ValueError, match="^lambda_L - lambda_R = 1/2,0 is not a module weight$"
        ):
            ZhParam(vec("1/2", 0), vec(0, 0), RootDatum(family, 2))


def test_regularity():
    d = RootDatum("D", 3)
    assert is_regular(vec(2, 1, 0), d)          # one zero is fine in D
    assert not is_regular(vec(2, 1, 1), d)
    assert not is_regular(vec(2, 1, 0), RootDatum("B", 3))
    assert is_regular(vec(2, 1, 1), RootDatum("A", 3)) is False
    assert is_regular(vec(3, 1, 2), RootDatum("A", 3))


@given(hv(), st.sampled_from("ABCD"))
def test_regular_means_no_root_vanishes(v, family):
    datum = RootDatum(family, len(v))
    # oracle roots come doubled, v comes doubled: plain dot product
    vanish = any(
        sum(a * b for a, b in zip(v.doubled, root)) == 0
        for root in oracle.positive_roots(family, len(v))
    )
    assert is_regular(v, datum) == (not vanish)


# -- norms and pairings -------------------------------------------------------


@given(hv())
def test_norm_is_doubled_sum_of_squares(v):
    assert norm_sq_x4(v) == sum(c * c for c in v.doubled)


# -- longest element ----------------------------------------------------------


@given(hv(), st.sampled_from("ABCD"))
def test_w0_is_an_involution_preserving_norm(v, family):
    datum = RootDatum(family, len(v))
    w = w0_action(v, datum)
    assert w0_action(w, datum) == v
    assert norm_sq_x4(w) == norm_sq_x4(v)


@given(hv(), st.sampled_from("ABCD"))
def test_w0_gives_the_dual_dominant_rep(v, family):
    # -w0 . d is the dominant representative of -d
    datum = RootDatum(family, len(v))
    d = dominant_rep(v, datum)
    assert dominant_rep(-d, datum) == -w0_action(d, datum)


# -- nonnegative root cone ----------------------------------------------------


def _in_cone_brute(v, datum, cap=6):
    """Slow check: v is an N-combination of positive roots."""
    roots = oracle.positive_roots(datum.family, datum.rank)
    for combo in itertools.product(range(cap), repeat=len(roots)):
        acc = [0] * datum.rank
        for c, r in zip(combo, roots):
            for i in range(datum.rank):
                acc[i] += c * r[i]
        if tuple(acc) == v.doubled:
            return True
    return False


@pytest.mark.parametrize("family", "ABCD")
def test_nspan_small_exhaustive(family):
    datum = RootDatum(family, 2)
    for coords in itertools.product(range(-4, 5), repeat=2):
        v = vec(*coords)
        assert in_root_cone(v.doubled, datum.family) == _in_cone_brute(v, datum), (
            family, coords)


def test_root_cone_holds_zero_in_every_family():
    # D1 has no roots: its cone is the origin alone
    for family in "ABCD":
        for n in range(1, 4):
            assert in_root_cone((0,) * n, family), (family, n)
    assert not in_root_cone((2,), "D") and not in_root_cone((-2,), "D")


def test_nspan_type_a_needs_zero_sum():
    datum = RootDatum("A", 3)
    assert in_root_cone(vec(1, 0, -1).doubled, datum.family)
    assert not in_root_cone(vec(1, 0, 0).doubled, datum.family)
    assert not in_root_cone(vec(-1, 1, 0).doubled, datum.family)


def test_nspan_rejects_half_integral_steps():
    datum = RootDatum("C", 2)
    assert not in_root_cone(HalfIntVec.parse("1/2,1/2").doubled, datum.family)
    assert in_root_cone(vec(1, 1).doubled, datum.family)
    assert in_root_cone(vec(1, -1).doubled, datum.family)


# -- RootDatum ----------------------------------------------------------------


def test_root_datum_validation():
    with pytest.raises(ValueError):
        RootDatum("E", 8)
    with pytest.raises(ValueError):
        RootDatum("B", 0)


def test_positive_root_counts():
    assert len(RootDatum("A", 3).positive_roots()) == 3
    assert len(RootDatum("B", 3).positive_roots()) == 9
    assert len(RootDatum("C", 3).positive_roots()) == 9
    assert len(RootDatum("D", 4).positive_roots()) == 12
