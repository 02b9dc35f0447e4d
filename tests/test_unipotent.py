"""Orbit partitions, attached infinitesimal characters, and the
parameter count against the component group order."""

import itertools

import pytest

from diracdual import unipotent
from diracdual.weights import HalfIntVec, dominant_rep
from diracdual.unipotent import (
    OrbitPartition,
    column_pairing,
    component_group_order,
    enumerate_parameters,
    infinitesimal_character,
    is_stably_trivial,
    is_triangular,
    transpose,
    validate,
)


def _partitions(total):
    def gen(left, cap):
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in gen(left - first, first):
                yield (first,) + rest

    return list(gen(total, total))


# -- validity -----------------------------------------------------------------


def test_validate_parity_rules():
    validate((2, 2, 2, 2), "C")
    validate((3, 2, 2), "B")
    validate((3, 3, 1, 1), "D")
    with pytest.raises(ValueError):
        validate((2, 2, 2), "B")        # even total in B
    with pytest.raises(ValueError):
        validate((3, 2, 2), "C")        # odd total in C
    with pytest.raises(ValueError):
        validate((3, 1), "C")           # odd parts with odd multiplicity
    with pytest.raises(ValueError):
        validate((2, 1, 1), "D")        # lone even part
    validate((5, 3, 3), "B")            # all parts odd: nothing to reject


def test_validate_shape_rules():
    with pytest.raises(ValueError):
        validate((2, 3), "C")
    with pytest.raises(ValueError):
        validate((2, 0), "C")
    with pytest.raises(ValueError):
        validate((), "C")
    # so(1) has rank 0: no root datum, so no orbit to catalogue
    with pytest.raises(ValueError, match=r"^partition \[1\] of type B "):
        validate((1,), "B")


def test_rank_bookkeeping():
    assert validate((2, 2, 2, 2), "C").datum.rank == 4
    assert validate((3, 2, 2), "B").datum.rank == 3
    assert validate((3, 3, 1, 1), "D").datum.rank == 4
    assert validate((2, 1), "A").datum.rank == 3


def test_transpose():
    assert transpose((3, 2, 2)) == (3, 3, 1)
    assert transpose((2, 2, 2, 2)) == (4, 4)
    assert transpose((1,)) == (1,)


# -- infinitesimal characters ---------------------------------------------------


def test_lambda_of_model_orbits():
    # the three worked examples: metaplectic-type orbits in sp(8), sp(6), sp(4)
    lam = infinitesimal_character(validate((2, 2, 2, 2), "C"))
    assert str(lam) == "2,1,1,0"
    lam = infinitesimal_character(validate((2, 2, 2), "C"))
    assert str(lam) == "3/2,1/2,1/2"
    lam = infinitesimal_character(validate((2, 1, 1), "C"))
    assert str(lam) == "3/2,1/2"


def test_lambda_zero_orbit_is_rho():
    # the zero orbit (all parts 1) carries the trivial-representation
    # character rho; the principal orbit sits at the singular far end
    for rows, fam, want in [
        ((1,) * 7, "B", "5/2,3/2,1/2"),
        ((1,) * 6, "C", "3,2,1"),
        ((1,) * 8, "D", "3,2,1,0"),
    ]:
        assert str(infinitesimal_character(validate(rows, fam))) == want
    assert str(infinitesimal_character(validate((7,), "B"))) == "0,0,0"


def test_lambda_is_dominant():
    for total, fam in [(9, "B"), (8, "C"), (8, "D")]:
        for rows in _partitions(total):
            try:
                orbit = validate(rows, fam)
            except ValueError:
                continue
            lam = infinitesimal_character(orbit)
            assert dominant_rep(lam, orbit.datum) == lam


# -- parameters vs component group ---------------------------------------------


@pytest.mark.parametrize("fam,total_max", [("B", 13), ("C", 12), ("D", 12)])
def test_parameter_count_equals_component_group_order(fam, total_max):
    start = 3 if fam == "B" else 2  # so(1) has rank zero; skip it
    for total in range(start, total_max + 1):
        for rows in _partitions(total):
            try:
                orbit = validate(rows, fam)
            except ValueError:
                continue
            params = enumerate_parameters(orbit)
            assert len(params) == component_group_order(orbit), (fam, rows)


def test_component_group_spot_values():
    assert component_group_order(validate((2, 2, 2, 2), "C")) == 2
    assert component_group_order(validate((4, 2, 2), "C")) == 4
    assert component_group_order(validate((3, 3, 1), "B")) == 2
    assert component_group_order(validate((5, 3, 1), "B")) == 4
    assert component_group_order(validate((3, 3, 1, 1), "D")) == 2
    assert component_group_order(validate((2, 1), "A")) == 1


def test_parameters_share_infinitesimal_character():
    # both sides of every parameter are Weyl-conjugate to lambda_O
    for rows, fam in [((2, 2, 2), "C"), ((4, 2, 2), "C"), ((3, 3, 1), "B"),
                      ((3, 3, 1, 1), "D"), ((5, 3, 3, 1), "D")]:
        orbit = validate(rows, fam)
        lam = infinitesimal_character(orbit)
        for p in enumerate_parameters(orbit):
            assert dominant_rep(p.zh.lambda_L, orbit.datum) == lam
            assert dominant_rep(p.zh.lambda_R, orbit.datum) == lam


def test_type_a_orbit_has_one_spherical_parameter():
    # gl(3), orbit (2,1): the centered column strings, one parameter
    orbit = validate((2, 1), "A")
    lam = infinitesimal_character(orbit)
    assert str(lam) == "1/2,0,-1/2"
    params = enumerate_parameters(orbit)
    assert [(p.eta, str(p.zh.lambda_L), str(p.zh.lambda_R)) for p in params] == [
        ((), "1/2,0,-1/2", "1/2,0,-1/2")]
    assert len(params) == component_group_order(orbit) == 1


def test_model_orbit_parameters():
    # sp(6), orbit (2,2,2): two parameters, one spherical one not
    params = enumerate_parameters(validate((2, 2, 2), "C"))
    assert len(params) == 2
    zhs = {(str(p.zh.lambda_L), str(p.zh.lambda_R)) for p in params}
    assert ("3/2,1/2,1/2", "3/2,1/2,1/2") in zhs
    # the eta = -1 parameter has a staggered right side
    other = next(iter(zhs - {("3/2,1/2,1/2", "3/2,1/2,1/2")}))
    assert other[0] == "3/2,1/2,1/2"
    assert HalfIntVec.parse(other[1]) != HalfIntVec.parse(other[0])

    # sp(4), orbit (2,1,1): the two oscillator-type parameters
    params = enumerate_parameters(validate((2, 1, 1), "C"))
    assert len(params) == 2
    for p in params:
        assert dominant_rep(p.zh.lambda_L, p.orbit.datum) == HalfIntVec.parse(
            "3/2,1/2"
        )


def test_very_even_tag():
    params = enumerate_parameters(validate((3, 3, 1, 1), "D"))
    assert all(p.very_even_tag == "" for p in params)
    # all columns in equal pairs: transpose of (2,2,2,2) is (4,4)
    orbit = validate((2, 2, 2, 2), "D")
    tagged = enumerate_parameters(orbit)
    assert all(p.very_even_tag == "I/II" for p in tagged)


def test_column_pairing_checks_are_runtime_errors(monkeypatch):
    # a broken column list is an internal error under ``python -O`` too
    orbit = validate((3,), "B")
    monkeypatch.setattr(unipotent, "transpose", lambda rows: (2,))
    with pytest.raises(RuntimeError, match="^leading column must be odd$"):
        column_pairing(orbit)


# -- flags ----------------------------------------------------------------------


def test_stably_trivial():
    assert is_stably_trivial(validate((2, 2, 2, 2), "C"))
    assert not is_stably_trivial(validate((2, 2, 2), "C"))
    assert is_stably_trivial(validate((3, 1), "A"))
    assert is_stably_trivial(validate((3, 2, 2), "B"))
    assert not is_stably_trivial(validate((3, 3, 1), "B"))


def test_triangular():
    assert is_triangular(validate((3, 1, 1), "B"))
    assert is_triangular(validate((2, 2), "C"))
    assert is_triangular(validate((4, 4, 2, 2), "C"))
    assert is_triangular(validate((3, 3, 1, 1), "D"))
    # B's staircase at m = 0; validate refuses it, so(1) having rank 0
    assert is_triangular(OrbitPartition((1,), "B"))
    assert is_triangular(validate((1, 1), "D"))
    assert not is_triangular(validate((4, 4, 2), "C"))
    assert not is_triangular(validate((2, 2, 2, 2), "C"))
    assert not is_triangular(validate((5, 1, 1), "B"))
    assert not is_triangular(validate((2, 1), "A"))
