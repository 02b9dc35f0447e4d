"""The small-representation series: defining parameters, 2*lambda
closed forms, and the explicit K-type catalogs."""

import itertools

import pytest

from diracdual.weights import (
    HalfIntVec,
    dominant_rep,
    is_dominant,
    is_regular,
    norm_sq_x4,
)
from diracdual.spectrum import (
    _KINDS,
    UnipotentFamily,
    kspectrum,
    search_norm_bound_x4,
    two_lambda,
    zh_param,
)
from diracdual.unitarity import full_unitarity


def _series_families(total_max=5, n_max=4):
    fams = []
    for t in range(2, total_max + 1):
        for a in range(1, t // 2 + 1):
            for kind in ("B", "D_even", "D_odd"):
                fams.append(UnipotentFamily(kind, a=a, b=t - a))
    for n in range(1, n_max + 1):
        fams.append(UnipotentFamily("C_even", n=n))
        fams.append(UnipotentFamily("C_odd", n=n))
    return fams


# -- family bookkeeping ---------------------------------------------------------


def test_family_validation():
    with pytest.raises(ValueError):
        UnipotentFamily("B", a=2, b=1)      # needs a <= b
    with pytest.raises(ValueError):
        UnipotentFamily("C_even", n=0)
    with pytest.raises(ValueError):
        UnipotentFamily("nonsense", n=1)
    assert str(UnipotentFamily("D_odd", a=1, b=2)) == "D_odd(1,2)"
    assert str(UnipotentFamily("C_even", n=3)) == "C_even(3)"


def test_datum_ranks():
    assert UnipotentFamily("B", a=1, b=2).datum.rank == 3
    assert UnipotentFamily("C_odd", n=4).datum.rank == 4
    assert UnipotentFamily("D_even", a=2, b=3).datum.rank == 5


def test_kinds_table():
    want = {
        "B": ("B", None),
        "C_even": ("C", 0),
        "C_odd": ("C", 1),
        "D_even": ("D", 0),
        "D_odd": ("D", 1),
        "A": ("A", None),
    }
    assert tuple(_KINDS) == tuple(want)
    for kind, (family, parity) in want.items():
        # every size given: each kind reads only the ones it is sized by
        fam = UnipotentFamily(kind, a=1, b=2, n=3)
        assert (fam.datum.family, fam.parity) == (family, parity), kind


# -- 2*lambda --------------------------------------------------------------------


def test_two_lambda_closed_forms():
    assert str(two_lambda(UnipotentFamily("C_even", n=2))) == "3,1"
    assert str(two_lambda(UnipotentFamily("C_odd", n=4))) == "7,5,3,1"
    # B(a,b): odds 2b-1..1 merged with evens 2a..2
    assert str(two_lambda(UnipotentFamily("B", a=1, b=2))) == "3,2,1"
    assert str(two_lambda(UnipotentFamily("B", a=2, b=3))) == "5,4,3,2,1"
    assert str(two_lambda(UnipotentFamily("B", a=1, b=4))) == "7,5,3,2,1"
    # D(a,b): odds 2a-1..1 merged with evens 2b-2..0
    assert str(two_lambda(UnipotentFamily("D_even", a=1, b=2))) == "2,1,0"
    assert str(two_lambda(UnipotentFamily("D_odd", a=2, b=3))) == "4,3,2,1,0"
    assert str(two_lambda(UnipotentFamily("D_even", a=1, b=4))) == "6,4,2,1,0"


def test_two_lambda_matches_both_parameter_sides():
    # each side of the defining parameter is Weyl-conjugate to lambda,
    # so doubling either one lands on the same dominant 2*lambda
    for fam in _series_families():
        zh = zh_param(fam)
        tl = two_lambda(fam)
        assert dominant_rep(zh.lambda_L + zh.lambda_L, fam.datum) == tl, str(fam)
        assert dominant_rep(zh.lambda_R + zh.lambda_R, fam.datum) == tl, str(fam)


def test_two_lambda_dominant_regular():
    for fam in _series_families():
        tl = two_lambda(fam)
        assert is_dominant(tl, fam.datum)
        assert is_regular(tl, fam.datum)
        assert tl.is_integral
        # halving it must leave the lattice: some coordinate stays odd
        assert any(d % 4 != 0 for d in tl.doubled), str(fam)


def test_family_parameters_are_unitary():
    # every catalogued family point must pass the unitarity test
    for fam in _series_families(total_max=5, n_max=4):
        verdict = full_unitarity(zh_param(fam))
        assert verdict.status == "Unitary", "%s: %s" % (fam, verdict)
    # A(a, b) with a + b odd, where 2*lambda is regular
    for t in (3, 5, 7):
        for a in range(1, t // 2 + 1):
            fam = UnipotentFamily("A", a=a, b=t - a)
            assert is_regular(two_lambda(fam), fam.datum), str(fam)
            verdict = full_unitarity(zh_param(fam))
            assert (verdict.status, verdict.case) == (
                "Unitary", "A:character-stack"
            ), "%s: %s" % (fam, verdict)


# -- K-type catalogs --------------------------------------------------------------


def test_kspectrum_c_families():
    fam = UnipotentFamily("C_even", n=3)
    hws = [kt.hw.doubled for kt in kspectrum(fam, 6)]
    assert hws == [(0, 0, 0), (4, 0, 0), (8, 0, 0), (12, 0, 0)]
    fam = UnipotentFamily("C_odd", n=3)
    hws = [kt.hw.doubled for kt in kspectrum(fam, 6)]
    assert hws == [(2, 0, 0), (6, 0, 0), (10, 0, 0)]


def test_kspectrum_b_families():
    fam = UnipotentFamily("B", a=1, b=2)
    hws = [kt.hw.doubled for kt in kspectrum(fam, 3)]
    assert hws == [(0, 0, 0), (2, 2, 0), (4, 4, 0), (6, 6, 0)]
    # two pair-columns when a = 2
    fam = UnipotentFamily("B", a=2, b=2)
    hws = {kt.hw.doubled for kt in kspectrum(fam, 2)}
    assert (2, 2, 2, 2) in hws
    assert (4, 4, 2, 2) in hws
    assert (0, 0, 0, 0) in hws


def test_kspectrum_b_shape_sweep():
    # every catalog member for B(a, b) is built from a repeated columns
    # padded with b - a zeros
    for total in range(2, 6):
        for a in range(1, total // 2 + 1):
            b = total - a
            fam = UnipotentFamily("B", a=a, b=b)
            for kt in kspectrum(fam, 4):
                d = kt.hw.doubled
                assert d[2 * a:] == (0,) * (b - a), (fam, d)
                pairs = [d[2 * i : 2 * i + 2] for i in range(a)]
                assert all(p[0] == p[1] for p in pairs), (fam, d)


def test_kspectrum_d_families():
    fam = UnipotentFamily("D_even", a=1, b=2)
    hws = [kt.hw.doubled for kt in kspectrum(fam, 4)]
    # length-2 alpha block with even coordinate sum, then zeros
    assert (0, 0, 0) in hws
    assert (2, 2, 0) in hws
    assert (4, 0, 0) in hws
    assert all(sum(h) % 4 == 0 for h in hws)
    fam = UnipotentFamily("D_odd", a=1, b=2)
    hws = [kt.hw.doubled for kt in kspectrum(fam, 4)]
    assert (2, 0, 0) in hws
    assert all(sum(h) % 4 == 2 for h in hws)


def test_kspectrum_ordering_and_validity():
    for fam in _series_families(total_max=5, n_max=4):
        datum = fam.datum
        norms = []
        for kt in kspectrum(fam, 4):
            assert kt.datum == datum
            assert is_dominant(kt.hw, datum)
            norms.append(norm_sq_x4(kt.hw))
        assert norms == sorted(norms), str(fam)
        assert norms, "empty catalog for %s" % fam


def _in_catalog(fam, hw):
    """The catalog shapes of the module docstring, on ordinary coordinates."""
    if fam.kind in ("C_even", "C_odd"):
        return hw[0] % 2 == (fam.kind == "C_odd") and not any(hw[1:])
    cols = 2 * fam.a
    if any(hw[cols:]):
        return False
    if fam.kind == "B":
        return all(hw[i] == hw[i + 1] for i in range(0, cols, 2))
    return sum(hw) % 2 == (fam.kind == "D_odd")


def test_kspectrum_matches_brute_force_box():
    for fam in _series_families(total_max=5, n_max=4):
        rank = fam.datum.rank
        for bound in (0, 1, 3):
            want = sorted(
                (sum(4 * c * c for c in hw), tuple(2 * c for c in hw))
                for hw in itertools.product(range(bound + 1), repeat=rank)
                if list(hw) == sorted(hw, reverse=True) and _in_catalog(fam, hw)
            )
            got = [kt.hw.doubled for kt in kspectrum(fam, bound)]
            assert got == [hw for _, hw in want], (str(fam), bound)


def test_kspectrum_rejects_uncatalogued():
    with pytest.raises(ValueError, match="no K-spectrum catalog"):
        list(kspectrum(UnipotentFamily("A", a=1, b=2), 3))


def test_kspectrum_rejects_negative_bound():
    with pytest.raises(ValueError, match="^bound must be nonnegative$"):
        list(kspectrum(UnipotentFamily("B", a=1, b=2), -1))


def test_search_bound_covers_two_lambda():
    for fam in _series_families():
        assert search_norm_bound_x4(fam) > norm_sq_x4(two_lambda(fam))
