"""Spin norms, the norm floor ||2 lambda||, and Dirac cohomology of the
catalogued families and their GL-induced relatives."""

from itertools import combinations_with_replacement
from math import isqrt
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from diracdual.weights import HalfIntVec, RootDatum, dominant_rep, norm_sq_x4, rho, vec
from diracdual import characters, cli, dirac, spectrum
from diracdual.characters import KType, RhoTensorEngine, rho_tensor_engine
from diracdual.spectrum import (
    UnipotentFamily,
    kspectrum,
    search_norm_bound_x4,
    two_lambda,
)
from diracdual.dirac import (
    DiracResult,
    _count_columns,
    _scan,
    _spin_norm_sq_x4,
    dirac_induced,
    hd_multiplicity,
    parity_vanishing,
    spin_lkt_unipotent,
    spin_norm_sq_x4,
)


def fam(kind, *sizes):
    if len(sizes) == 1:
        return UnipotentFamily(kind, n=sizes[0])
    return UnipotentFamily(kind, a=sizes[0], b=sizes[1])


def _all_families(total_max, n_max):
    out = []
    for t in range(2, total_max + 1):
        for a in range(1, t // 2 + 1):
            for kind in ("B", "D_even", "D_odd"):
                out.append(fam(kind, a, t - a))
    for n in range(1, n_max + 1):
        out.append(fam("C_even", n))
        out.append(fam("C_odd", n))
    return out


# -- spin norm -------------------------------------------------------------------


def test_spin_norm_spot_values():
    assert spin_norm_sq_x4(KType(vec(2, 0), RootDatum("C", 2))) == 40
    assert spin_norm_sq_x4(KType(vec(2, 2, 0), RootDatum("B", 3))) == 56
    # eta = rho has spin norm ||rho|| (the braced part vanishes)
    d = RootDatum("C", 3)
    assert spin_norm_sq_x4(KType(rho(d), d)) == norm_sq_x4(rho(d))


def _spin_norm_via_vectors(doubled, datum):
    r = rho(datum)
    return norm_sq_x4(dominant_rep(HalfIntVec(doubled) - r, datum) + r)


@st.composite
def _shifted_weights(draw):
    """(family, rank, eta) with eta - rho drawn first, so the type-D sign
    cases of {eta - rho} can be forced: a zero coordinate, or no zero
    and an odd number of negative ones."""
    family = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers(min_value=1, max_value=8))
    case = draw(st.sampled_from(("free", "zero", "odd")))
    if case == "odd":
        mags = draw(st.lists(st.integers(1, 12), min_size=rank, max_size=rank))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
        if signs.count(-1) % 2 == 0:
            signs[0] = -signs[0]
        shifted = [m * s for m, s in zip(mags, signs)]
    else:
        shifted = draw(st.lists(st.integers(-12, 12), min_size=rank, max_size=rank))
        if case == "zero":
            shifted[draw(st.integers(0, rank - 1))] = 0
    datum = RootDatum(family, rank)
    eta = tuple(c + r for c, r in zip(shifted, rho(datum).doubled))
    return family, rank, eta


@settings(max_examples=400)
@given(_shifted_weights())
@example(("D", 1, (-2,)))
@example(("D", 3, (4, 2, -2)))  # eta - rho = (0, 0, -2): a zero, one negative
@example(("D", 3, (2, 0, -2)))  # eta - rho = (-2, -2, -2): no zero, odd negatives
@example(("B", 8, (1,) * 8))
def test_spin_norm_kernel_matches_vectors(case):
    family, rank, eta = case
    datum = RootDatum(family, rank)
    want = _spin_norm_via_vectors(eta, datum)
    assert _spin_norm_sq_x4(eta, family, rho(datum).doubled) == want


def test_spin_norm_floor():
    # the floor ||2 lambda||^2: attained by the minimizer of C_even(2)
    f = fam("C_even", 2)
    assert norm_sq_x4(two_lambda(f)) == 40
    assert norm_sq_x4(two_lambda(fam("C_odd", 4))) == 4 * (49 + 25 + 9 + 1)
    assert norm_sq_x4(two_lambda(fam("B", 1, 2))) == 56


# -- the scan ---------------------------------------------------------------------


def test_nonzero_series_c_even_2():
    res = spin_lkt_unipotent(fam("C_even", 2))
    assert res.nonzero
    assert res.multiplicity == 2
    assert str(res.tau.hw) == "1,0"
    assert [(str(kt.hw), m) for kt, m in res.spin_lkts] == [("2,0", 1)]
    assert res.checks["min_spin_norm_sq_x4"] == 40
    assert res.checks["two_lambda_norm_sq_x4"] == 40
    assert res.checks["complete"]


def test_vanishing_series_c_odd_2():
    res = spin_lkt_unipotent(fam("C_odd", 2))
    assert not res.nonzero
    assert res.tau is None and res.multiplicity is None
    # two tied minimizers strictly above the floor
    assert {str(kt.hw) for kt, _ in res.spin_lkts} == {"1,0", "3,0"}
    assert res.checks["min_spin_norm_sq_x4"] == 52
    assert res.checks["two_lambda_norm_sq_x4"] == 40


def test_nonzero_series_b12():
    res = spin_lkt_unipotent(fam("B", 1, 2))
    assert res.nonzero
    assert str(res.spin_lkts[0][0].hw) == "2,2,0"
    assert res.checks["min_spin_norm_sq_x4"] == 56
    assert res.multiplicity == 2  # 2^(3//2)


def test_scan_rejects_uncatalogued():
    with pytest.raises(ValueError, match=r"no K-spectrum catalog for family A\(1,2\)"):
        spin_lkt_unipotent(UnipotentFamily("A", a=1, b=2))
    with pytest.raises(ValueError):
        spin_lkt_unipotent(UnipotentFamily("SpinB", n=2))


def test_stray_size_is_ignored():
    # a family reads only the sizes of its kind: n for C, (a, b) otherwise;
    # the stray sizes have the other parity, so reading them would flip
    # the even/odd selection rule
    for stray, plain in (
        (UnipotentFamily("D_odd", a=1, b=2, n=4), fam("D_odd", 1, 2)),
        (UnipotentFamily("C_odd", n=3, a=2, b=2), fam("C_odd", 3)),
    ):
        assert str(stray) == str(plain)
        assert stray.datum == plain.datum
        assert stray == plain and hash(stray) == hash(plain)
        # one family, so one scan: the second call is a cache hit
        _scan.cache_clear()
        assert spin_lkt_unipotent(stray).as_dict() == spin_lkt_unipotent(plain).as_dict()
        info = _scan.cache_info()
        assert (info.misses, info.hits) == (1, 1), str(plain)


def test_explicit_bound_reports_completeness():
    res = spin_lkt_unipotent(fam("C_even", 2), bound=3)
    assert not res.checks["complete"]
    assert res.nonzero  # the minimizer (2,0) is inside the small box
    res = spin_lkt_unipotent(fam("C_even", 2), bound=50)
    assert res.checks["complete"]


def _reference_result(f, bound=None):
    """The full-cube scan the ball search replaced: every K-type of the
    box from kspectrum, the ball filter of the complete search, and
    spin norms through HalfIntVec.  Returns the expected DiracResult."""
    datum = f.datum
    limit = search_norm_bound_x4(f)
    cap = isqrt(limit // 4) if bound is None else bound
    best, minimizers, scanned = None, [], 0
    for eta in kspectrum(f, cap):
        if bound is None and norm_sq_x4(eta.hw) > limit:
            continue
        scanned += 1
        s = _spin_norm_via_vectors(eta.hw.doubled, datum)
        if best is None or s < best:
            best, minimizers = s, [eta]
        elif s == best:
            minimizers.append(eta)
    target = norm_sq_x4(two_lambda(f))
    nonzero = best == target
    checks = {
        "min_spin_norm_sq_x4": best,
        "two_lambda_norm_sq_x4": target,
        "coordinate_bound": cap,
        "candidates": scanned,
        "complete": bound is None or bound >= isqrt(limit // 4),
    }
    rule = {
        "C_even": f.n % 2 == 0,
        "C_odd": f.n % 2 == 1,
        "D_even": f.a % 2 == 0,
        "D_odd": f.a % 2 == 1,
    }.get(f.kind)
    if rule is not None:
        checks["parity_rule_nonzero"] = rule
    if not nonzero:
        return DiracResult(False, None, None, tuple((m, 1) for m in minimizers), checks)
    assert len(minimizers) == 1, str(f)
    tau = KType(dominant_rep(two_lambda(f), datum) - rho(datum), datum)
    return DiracResult(True, tau, 2 ** (datum.rank // 2), ((minimizers[0], 1),), checks)


def test_search_matches_full_cube_scan():
    # every field, checks included, for all 39 families of size <= 6
    families = _all_families(6, 6)
    assert len(families) == 39
    for f in families:
        want = _reference_result(f)
        got = spin_lkt_unipotent(f)
        assert got == want, str(f)
        assert got.checks == want.checks, str(f)


def test_explicit_bound_matches_full_box_scan():
    for f in _all_families(6, 6):
        for bound in (1, 3):
            want = _reference_result(f, bound)
            got = spin_lkt_unipotent(f, bound)
            assert got == want and got.checks == want.checks, (str(f), bound)


def test_results_do_not_share_checks():
    f = fam("C_even", 2)
    first = spin_lkt_unipotent(f)
    first.checks["candidates"] = -1
    assert spin_lkt_unipotent(f).checks["candidates"] == 4
    # the answer is derived once and shared: a caller's edits reach no
    # other reader of it
    for f in (fam("C_even", 2), fam("C_odd", 2)):
        fresh = spin_lkt_unipotent(f).as_dict()
        hd = hd_multiplicity(f, via_tensor=True)
        pv = f.kind == "C_odd" and parity_vanishing(f, 4)
        mine = spin_lkt_unipotent(f)
        mine.checks.clear()
        mine.checks["complete"] = "edited"
        assert spin_lkt_unipotent(f).as_dict() == fresh, str(f)
        assert hd_multiplicity(f, via_tensor=True) == hd, str(f)
        assert (f.kind == "C_odd" and parity_vanishing(f, 4)) == pv, str(f)
    # tau is kept for the vanishing family, but only the scan reads it
    f = fam("C_odd", 2)
    assert spin_lkt_unipotent(f).tau is None
    assert str(_scan(f, None)[1].hw) == "1,0"


@pytest.fixture
def fresh_scans():
    _scan.cache_clear()
    yield
    _scan.cache_clear()


def _first_ktype_on_floor(f):
    """A spin norm that puts the first K-type the walk meets on the
    floor ||2 lambda||^2 and leaves the others alone."""
    floor = norm_sq_x4(two_lambda(f))
    spin_norm, first = dirac._spin_norm_sq_x4, []

    def fake(hw, family, r):
        first.append(hw)
        return floor if hw == first[0] else spin_norm(hw, family, r)

    return fake


@pytest.mark.parametrize(
    "f, fake, message",
    [
        (fam("C_even", 2), lambda f: lambda *args: 0, "spin norm fell below"),
        (
            fam("C_even", 2),
            lambda f: lambda *args: norm_sq_x4(two_lambda(f)),
            "tie on the floor",
        ),
        (fam("D_even", 1, 1), _first_ktype_on_floor, "even/odd selection rule disagrees"),
    ],
)
def test_scan_postconditions_raise(f, fake, message, monkeypatch, capsys, fresh_scans):
    # each check runs once per cache fill; an exception is not cached, so
    # it is raised again on every call, and the CLI reports a bug
    monkeypatch.setattr(dirac, "_spin_norm_sq_x4", fake(f))
    for _ in range(2):
        with pytest.raises(RuntimeError, match=message):
            spin_lkt_unipotent(f)
    argv = ["dirac", "--family", f.kind]
    argv += ["--n", str(f.n)] if f.kind.startswith("C") else ["--a", str(f.a), "--b", str(f.b)]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


def test_each_family_is_derived_once(monkeypatch, fresh_scans):
    # the scan, the tensor count and the parity certificate share one
    # derivation of 2 lambda, the floor, tau and the minimizers
    calls = []
    zh_param = spectrum.zh_param

    def counted(f):
        calls.append(f)
        return zh_param(f)

    monkeypatch.setattr(spectrum, "zh_param", counted)
    for repeat in (False, True):
        for f in (fam("D_even", 3, 3), fam("C_odd", 2)):
            calls.clear()
            spin_lkt_unipotent(f)
            assert hd_multiplicity(f, via_tensor=True) == 0
            assert parity_vanishing(f, 4)
            assert len(calls) <= (0 if repeat else 2), (str(f), repeat)


def test_rank_seven_families_complete():
    # the even/odd rule at rank 7: D_odd(a,b) carries cohomology iff a
    # is odd, D_even(a,b) iff a is even, every B(a,b) does
    for f, want in (
        (fam("D_odd", 3, 4), True),
        (fam("D_even", 3, 4), False),
        (fam("B", 3, 4), True),
    ):
        res = spin_lkt_unipotent(f)
        assert res.checks["complete"], str(f)
        assert res.nonzero == want, str(f)
        floor = res.checks["two_lambda_norm_sq_x4"]
        if want:
            assert len(res.spin_lkts) == 1, str(f)
            assert res.checks["min_spin_norm_sq_x4"] == floor, str(f)
        else:
            assert res.checks["min_spin_norm_sq_x4"] > floor, str(f)


def test_rank_eight_to_ten_families_complete():
    # the Dirac-inequality cuts keep the search complete, and the
    # candidate count exact, well past the reach of listing the ball
    for f, want, candidates in (
        (fam("D_even", 4, 4), True, 1989340),
        (fam("D_odd", 4, 4), False, 1983233),
        (fam("B", 4, 5), True, None),
        (fam("D_even", 4, 5), True, None),
        (fam("D_odd", 5, 5), True, None),
    ):
        res = spin_lkt_unipotent(f)
        assert res.checks["complete"], str(f)
        assert res.nonzero == want == res.checks.get("parity_rule_nonzero", True), str(f)
        if candidates is not None:
            assert res.checks["candidates"] == candidates, str(f)
        floor = res.checks["two_lambda_norm_sq_x4"]
        if want:
            assert len(res.spin_lkts) == 1, str(f)
            assert res.checks["min_spin_norm_sq_x4"] == floor, str(f)
        else:
            assert res.checks["min_spin_norm_sq_x4"] > floor, str(f)


def _ball_highest_weights(fam, bound, limit):
    """The listing the pruned search replaced: every highest weight of
    the family with coordinates at most bound and norm_sq_x4 at most
    limit, as doubled tuples sorted by (norm_sq_x4, hw)."""
    k = fam.kind
    if k in ("C_even", "C_odd"):
        length, pad = 1, fam.n - 1
    elif k == "B":
        length, pad = fam.a, fam.b - fam.a
    else:
        length, pad = 2 * fam.a, fam.b - fam.a
    parity = {"C_even": 0, "C_odd": 1, "D_even": 0, "D_odd": 1}.get(k)
    weight = 2 if k == "B" else 1
    room = limit // 4
    level = [((), bound, room)]
    for _ in range(length):
        level = [
            (head + (2 * x,) * weight, x, left - weight * x * x)
            for head, top, left in level
            for x in range(min(top, isqrt(left // weight)) + 1)
        ]
    zeros = (0,) * pad
    keyed = sorted(
        (room - left, head + zeros)
        for head, _, left in level
        if parity is None or sum(head) % 4 == 2 * parity
    )
    return [hw for _, hw in keyed]


def _ball_reference_result(f):
    """The complete search as a ball listing with a spin norm for every
    K-type in it; returns the expected DiracResult."""
    datum = f.datum
    limit = search_norm_bound_x4(f)
    cap = isqrt(limit // 4)
    hws = _ball_highest_weights(f, cap, limit)
    r = rho(datum).doubled
    norms = [_spin_norm_sq_x4(hw, datum.family, r) for hw in hws]
    best = min(norms)
    minimizers = [KType(HalfIntVec(hw), datum) for hw, s in zip(hws, norms) if s == best]
    target = norm_sq_x4(two_lambda(f))
    checks = {
        "min_spin_norm_sq_x4": best,
        "two_lambda_norm_sq_x4": target,
        "coordinate_bound": cap,
        "candidates": len(hws),
        "complete": True,
    }
    rule = {
        "C_even": f.n % 2 == 0,
        "C_odd": f.n % 2 == 1,
        "D_even": f.a % 2 == 0,
        "D_odd": f.a % 2 == 1,
    }.get(f.kind)
    if rule is not None:
        checks["parity_rule_nonzero"] = rule
    if best != target:
        return DiracResult(False, None, None, tuple((m, 1) for m in minimizers), checks)
    assert len(minimizers) == 1, str(f)
    tau = KType(dominant_rep(two_lambda(f), datum) - rho(datum), datum)
    return DiracResult(True, tau, 2 ** (datum.rank // 2), ((minimizers[0], 1),), checks)


def test_search_matches_ball_listing_to_size_eight():
    # every field, checks included, for the families of size <= 8 whose
    # balls hold at most 250k K-types
    big = {
        fam("D_even", 3, 5), fam("D_odd", 3, 5),
        fam("D_even", 4, 4), fam("D_odd", 4, 4),
    }
    families = [f for f in _all_families(8, 8) if f not in big]
    assert len(families) == 60
    for f in families:
        want = _ball_reference_result(f)
        got = spin_lkt_unipotent(f)
        assert got == want and got.checks == want.checks, str(f)


@settings(max_examples=300)
@given(
    length=st.integers(0, 5),
    top=st.integers(0, 7),
    room=st.integers(0, 120),
    weight=st.sampled_from((1, 2)),
    parity=st.sampled_from((None, 0, 1)),
)
def test_count_columns_matches_enumeration(length, top, room, weight, parity):
    want = sum(
        1
        for cols in combinations_with_replacement(range(top, -1, -1), length)
        if weight * sum(x * x for x in cols) <= room
        and (parity is None or sum(cols) % 2 == parity)
    )
    memo = {}
    assert _count_columns(length, top, room, weight, parity, memo) == want
    # a second query answers from the same memo
    assert _count_columns(length, top, room, weight, parity, memo) == want


# -- parity of the index ------------------------------------------------------------


def test_parity_rule_matches_scan():
    for f in _all_families(5, 5):
        res = spin_lkt_unipotent(f)
        kind = f.kind
        if kind == "B":
            assert res.nonzero, str(f)
        elif kind == "C_even":
            assert res.nonzero == (f.n % 2 == 0), str(f)
        elif kind == "C_odd":
            assert res.nonzero == (f.n % 2 == 1), str(f)
        elif kind == "D_even":
            assert res.nonzero == (f.a % 2 == 0), str(f)
        else:
            assert res.nonzero == (f.a % 2 == 1), str(f)


def test_parity_vanishing_certificate():
    assert parity_vanishing(fam("C_odd", 2), 8)
    assert parity_vanishing(fam("D_even", 1, 2), 6)


def test_parity_vanishing_rank_eight_certificates():
    # by one V(tau) (x) V(rho) each (the dual route); one engine query per
    # K-type of the box took 18 s and 12 s
    for f in (fam("D_odd", 4, 4), fam("D_even", 3, 5)):
        start = time.perf_counter()
        assert parity_vanishing(f, 4), str(f)
        assert time.perf_counter() - start < 2.0, str(f)


def _box_tau(f):
    box = [eta.hw for eta in kspectrum(f, 4)]
    return box, dominant_rep(two_lambda(f), f.datum) - rho(f.datum)


def test_parity_vanishing_raises_on_a_dual_route_answer(monkeypatch):
    # D_even(3,3) has tau = 0: the check is one V(0) (x) V(rho), and a
    # box K-type it reports must reach the disagreement raise
    f = fam("D_even", 3, 3)
    box, tau = _box_tau(f)
    assert KType(tau, f.datum).dim == 1 < len(box)
    decompose = characters.tensor_decompose

    def with_box_ktype(a, b):
        d = dict(decompose(a, b))
        d[KType(box[-1], f.datum)] = 1
        return tuple(sorted(d.items(), key=lambda kv: kv[0].hw.doubled, reverse=True))

    monkeypatch.setattr(characters, "tensor_decompose", with_box_ktype)
    with pytest.raises(RuntimeError, match="disagree"):
        parity_vanishing(f, 4)


def test_parity_vanishing_raises_on_an_engine_answer(monkeypatch):
    # C_odd(6) has a huge V(tau) and two box K-types: one query each
    f = fam("C_odd", 6)
    box, tau = _box_tau(f)
    assert KType(tau, f.datum).dim > len(box)
    query = RhoTensorEngine.multiplicity

    def with_box_ktype(self, eta, t):
        return 1 if eta == box[-1] else query(self, eta, t)

    monkeypatch.setattr(RhoTensorEngine, "multiplicity", with_box_ktype)
    with pytest.raises(RuntimeError, match="disagree"):
        parity_vanishing(f, 4)


def test_parity_vanishing_rejects_nonvanishing():
    with pytest.raises(ValueError, match="nonzero"):
        parity_vanishing(fam("C_even", 2), 6)
    with pytest.raises(ValueError, match="nonzero"):
        parity_vanishing(fam("D_odd", 1, 2), 6)
    with pytest.raises(ValueError):
        parity_vanishing(fam("B", 1, 2), 6)


# -- multiplicity -------------------------------------------------------------------


def test_hd_multiplicity_two_paths():
    assert hd_multiplicity(fam("C_even", 2), via_tensor=True) == 2
    assert hd_multiplicity(fam("C_odd", 3), via_tensor=True) == 2
    assert hd_multiplicity(fam("B", 1, 1), via_tensor=True) == 2
    assert hd_multiplicity(fam("C_odd", 2), via_tensor=True) == 0
    assert hd_multiplicity(fam("D_even", 2, 3), via_tensor=True) == 4


def test_engines_are_built_once():
    # the catalogue's vanishing families and spin-LKTs use more engines
    # than a small bounded cache held; a second pass must build none
    rho_tensor_engine.cache_clear()
    misses = []
    for _ in range(2):
        for f in _all_families(6, 6):
            hd_multiplicity(f, via_tensor=True)
            if not spin_lkt_unipotent(f).nonzero:
                parity_vanishing(f, 4)
        misses.append(rho_tensor_engine.cache_info().misses)
    assert misses[0] > 8 and misses[1] == misses[0], misses


def test_tau_is_two_lambda_minus_rho():
    for f in _all_families(4, 4):
        res = spin_lkt_unipotent(f)
        if not res.nonzero:
            continue
        datum = f.datum
        want = dominant_rep(two_lambda(f), datum) - rho(datum)
        assert res.tau.hw == want, str(f)
        assert res.multiplicity == 2 ** (datum.rank // 2)


def test_spin_lkt_actually_contains_tau():
    # [V(eta_min) (x) V(rho) : V(tau)] = 1, and the parity of every
    # constituent matches tau's class
    for f in [fam("C_even", 4), fam("B", 2, 2), fam("D_odd", 1, 2)]:
        res = spin_lkt_unipotent(f)
        engine = rho_tensor_engine(f.datum)
        eta = res.spin_lkts[0][0]
        assert engine.multiplicity(eta.hw, res.tau.hw) == 1, str(f)


# -- induction from GL blocks --------------------------------------------------------


def test_induced_model_example():
    res = dirac_induced([2], fam("C_even", 2), HalfIntVec.parse("-6,-6"))
    assert res.nonzero
    assert res.multiplicity == 4
    assert str(res.tau.hw) == "3,2,1,0"
    assert str(res.checks["lambda"]) == "-5/2,-7/2,3/2,1/2"
    assert res.checks["spin_lkt_verified"]
    assert [(str(kt.hw), m) for kt, m in res.spin_lkts] == [("6,6,2,0", 1)]


def test_induced_bottom_layer_multiplicity_one():
    # the certified lift is the only bounded K-type pairing with tau
    res = dirac_induced([2], fam("C_even", 2), HalfIntVec.parse("-6,-6"))
    big = RootDatum("C", 4)
    engine = rho_tensor_engine(big)
    lift = res.spin_lkts[0][0]
    tau = res.tau
    total = 0
    for eta_core in kspectrum(fam("C_even", 2), 8):
        cand = dominant_rep(
            HalfIntVec((12, 12) + eta_core.hw.doubled), big
        )
        total += engine.multiplicity(cand, tau.hw)
    assert total == 1
    assert engine.multiplicity(lift.hw, tau.hw) == 1


def test_induced_reduces_to_core_when_no_blocks():
    direct = spin_lkt_unipotent(fam("C_even", 2))
    via = dirac_induced([], fam("C_even", 2), HalfIntVec(()))
    assert via.nonzero == direct.nonzero
    assert via.tau == direct.tau
    assert via.spin_lkts == direct.spin_lkts


def test_induced_vanishing_core():
    res = dirac_induced([1], fam("C_odd", 2), HalfIntVec.parse("5"))
    assert not res.nonzero
    assert res.tau is None and res.multiplicity is None
    assert res.spin_lkts == ()


def test_induced_unverified_lift_is_withheld():
    # GL(1) x Sp(6) with xi = 4: lambda is regular and H_D is nonzero,
    # but the naive concatenated lift misses the norm floor
    res = dirac_induced([1], fam("C_odd", 3), HalfIntVec.parse("4"))
    assert res.nonzero
    assert res.spin_lkts == ()
    assert res.checks["spin_lkt_verified"] is False
    assert "note" in res.checks


def test_induced_error_contract():
    with pytest.raises(ValueError, match="constant"):
        dirac_induced([2], fam("C_even", 2), HalfIntVec.parse("1,2"))
    with pytest.raises(ValueError, match="half-integral"):
        dirac_induced([2], fam("C_even", 2), HalfIntVec.parse("1/2,1/2"))
    with pytest.raises(ValueError, match="regular"):
        dirac_induced([1], fam("C_even", 2), HalfIntVec.parse("3"))
    with pytest.raises(ValueError):
        dirac_induced([0], fam("C_even", 2), HalfIntVec(()))
    with pytest.raises(ValueError):
        dirac_induced([1], UnipotentFamily("SpinB", n=2), HalfIntVec.parse("4"))
    # xi's length is checked against the blocks, in either form of xi
    with pytest.raises(ValueError, match="xi has 1 coordinates, the GL blocks need 2"):
        dirac_induced([2], fam("C_even", 2), [-6])
    with pytest.raises(ValueError, match="xi has 2 coordinates, the GL blocks need 1"):
        dirac_induced([1], fam("C_even", 2), HalfIntVec.parse("1,2"))
    # a type-A core is refused by the one spectrum-catalog check, with or
    # without blocks
    for blocks, xi in (([], ()), ([1], (1,))):
        with pytest.raises(ValueError, match=r"no K-spectrum catalog for family A\(1,2\)"):
            dirac_induced(blocks, UnipotentFamily("A", a=1, b=2), xi)


def test_induced_takes_xi_as_plain_coordinates():
    # a list of ordinary coordinates reads as HalfIntVec.from_halves does
    via_list = dirac_induced([2], fam("C_even", 2), [-6, -6])
    via_vec = dirac_induced([2], fam("C_even", 2), HalfIntVec.parse("-6,-6"))
    assert via_list.as_dict() == via_vec.as_dict()
    assert via_list.as_dict()["spin_lkts"] == [["6,6,2,0", 1]]
    halves = dirac_induced([2], fam("C_even", 2), ["-3", "-3"])
    assert halves.as_dict() == {
        "nonzero": True, "tau": "0,0,0,0", "multiplicity": 4, "spin_lkts": [],
        "checks": {
            "lambda": "-1,-2,3/2,1/2", "gl_blocks": [2], "core": "C_even(2)",
            "core_nonzero": True, "spin_lkt_verified": False,
            "note": "bottom-layer lift V(3,3,2,0) does not reach the spin-norm "
                    "floor; the spin-LKT is not identified",
        },
    }


def test_bound_errors():
    with pytest.raises(ValueError, match="^bound must be nonnegative$"):
        spin_lkt_unipotent(fam("B", 1, 2), -1)
    with pytest.raises(ValueError, match="^bound 0 leaves no K-types to scan$"):
        spin_lkt_unipotent(fam("C_odd", 1), 0)
    with pytest.raises(ValueError, match="^bound 0 leaves no K-types to test$"):
        parity_vanishing(fam("C_odd", 2), 0)


def test_result_string_forms():
    assert "H_D = 0" in str(spin_lkt_unipotent(fam("C_odd", 2)))
    s = str(spin_lkt_unipotent(fam("C_even", 2)))
    assert "H_D = 2" in s and "2,0" in s
