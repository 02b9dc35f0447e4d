"""Acceptance suite: the eight headline checks, one test (and one
pass/fail line under -v) per criterion, each with its time budget.

Criteria 3-5 sweep every catalogued family with total size at most 6;
criterion 7 drives the random tensor property suite against the frozen
brute-force oracle.
"""

import random
import time
from pathlib import Path

import pytest

import oracle
from diracdual.weights import (
    HalfIntVec,
    RootDatum,
    dominant_rep,
    in_root_cone,
    is_dominant,
    is_regular,
    norm_sq_x4,
    rho,
)
from diracdual.characters import (
    KType,
    prv_component,
    rho_tensor_engine,
    tensor_decompose,
)
from diracdual.unipotent import (
    enumerate_parameters,
    infinitesimal_character,
    is_stably_trivial,
    validate,
)
from diracdual.spectrum import UnipotentFamily, kspectrum, two_lambda
from diracdual.dirac import hd_multiplicity, parity_vanishing, spin_lkt_unipotent
from diracdual.cli import FIXTURE_DIR, _load_fixture, _run_fixture

REPORT_DIR = Path(__file__).resolve().parent.parent / "reports"


def _families_up_to(total_max, n_max):
    fams = []
    for t in range(2, total_max + 1):
        for a in range(1, t // 2 + 1):
            for kind in ("B", "D_even", "D_odd"):
                fams.append(UnipotentFamily(kind, a=a, b=t - a))
    for n in range(1, n_max + 1):
        fams.append(UnipotentFamily("C_even", n=n))
        fams.append(UnipotentFamily("C_odd", n=n))
    return fams


def _budget(t0, seconds, label):
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, "%s took %.1fs (budget %ds)" % (label, elapsed, seconds)
    return elapsed


# -- criterion 1: recorded dimension tables ------------------------------------


def test_criterion_1_recorded_dimension_tables():
    t0 = time.monotonic()
    tables = {
        ("B", 3): {"0,0,0": 1, "1,1,0": 21, "1,1,1": 35},
        ("B", 4): {"0,0,0,0": 1, "1,1,0,0": 36, "2,0,0,0": 44,
                   "2,2,0,0": 495, "3,1,0,0": 910},
        ("C", 4): {"1,0,0,0": 8, "1,1,1,0": 48},
        ("D", 3): {"0,0,0": 1, "1,1,0": 15, "2,0,0": 20, "2,1,1": 45},
        ("D", 5): {"1,0,0,0,0": 10, "1,1,1,0,0": 120, "2,1,0,0,0": 320,
                   "3,0,0,0,0": 210, "2,1,1,1,0": 1728},
    }
    n = 0
    for (fam, rank), rows in tables.items():
        datum = RootDatum(fam, rank)
        for hw, want in rows.items():
            got = KType(HalfIntVec.parse(hw), datum).dim
            assert got == want, (fam, rank, hw, got, want)
            n += 1
    elapsed = _budget(t0, 1, "criterion 1")
    print("CRITERION 1 PASS: %d recorded dimensions exact (%.2fs)" % (n, elapsed))


# -- criterion 2: orbit catalog ---------------------------------------------------


def test_criterion_2_orbit_catalog():
    t0 = time.monotonic()
    o = validate((2, 2, 2, 2), "C")
    assert str(infinitesimal_character(o)) == "2,1,1,0"
    assert is_stably_trivial(o)

    o = validate((2, 2, 2), "C")
    assert str(infinitesimal_character(o)) == "3/2,1/2,1/2"
    assert len(enumerate_parameters(o)) == 2
    assert not is_stably_trivial(o)

    o = validate((2, 1, 1), "C")
    assert str(infinitesimal_character(o)) == "3/2,1/2"
    params = enumerate_parameters(o)
    assert len(params) == 2  # the two halves of the oscillator
    for p in params:
        assert dominant_rep(p.zh.lambda_L, o.datum) == HalfIntVec.parse("3/2,1/2")

    elapsed = _budget(t0, 1, "criterion 2")
    print("CRITERION 2 PASS: model orbit data reproduced (%.2fs)" % elapsed)


# -- criterion 3: multiplicity one -------------------------------------------------


def test_criterion_3_multiplicity_one():
    t0 = time.monotonic()
    nonzero = vanishing = 0
    for fam in _families_up_to(6, 6):
        res = spin_lkt_unipotent(fam)
        assert res.checks["complete"], str(fam)
        half = 2 ** (fam.datum.rank // 2)
        if res.nonzero:
            nonzero += 1
            assert len(res.spin_lkts) == 1, str(fam)
            assert (
                res.checks["min_spin_norm_sq_x4"]
                == res.checks["two_lambda_norm_sq_x4"]
            ), str(fam)
            eta = res.spin_lkts[0][0]
            engine = rho_tensor_engine(fam.datum)
            assert engine.multiplicity(eta.hw, res.tau.hw) == 1, str(fam)
            want = half
        else:
            vanishing += 1
            assert (
                res.checks["min_spin_norm_sq_x4"]
                > res.checks["two_lambda_norm_sq_x4"]
            ), str(fam)
            want = 0
        # the counting path and the tensor path must agree
        assert hd_multiplicity(fam, via_tensor=True) == want, str(fam)
    elapsed = _budget(t0, 300, "criterion 3")
    print(
        "CRITERION 3 PASS: unique floor K-type with tensor multiplicity one "
        "across %d families (+%d vanishing) (%.1fs)" % (nonzero, vanishing, elapsed)
    )


# -- criterion 4: parity selection --------------------------------------------------


def test_criterion_4_parity_selection():
    t0 = time.monotonic()
    checked = certified = 0
    for n in range(2, 7):
        assert spin_lkt_unipotent(UnipotentFamily("C_even", n=n)).nonzero == (
            n % 2 == 0
        )
        assert spin_lkt_unipotent(UnipotentFamily("C_odd", n=n)).nonzero == (
            n % 2 == 1
        )
        checked += 2
    for t in range(2, 7):
        for a in range(1, t // 2 + 1):
            for kind, want in (("D_even", a % 2 == 0), ("D_odd", a % 2 == 1)):
                fam = UnipotentFamily(kind, a=a, b=t - a)
                assert spin_lkt_unipotent(fam).nonzero == want, str(fam)
                checked += 1
                if not want:
                    assert parity_vanishing(fam, 6), str(fam)
                    certified += 1
    for n in range(2, 7):
        kind = "C_odd" if n % 2 == 0 else "C_even"
        fam = UnipotentFamily(kind, n=n)
        assert parity_vanishing(fam, 6), str(fam)
        certified += 1
    elapsed = _budget(t0, 300, "criterion 4")
    print(
        "CRITERION 4 PASS: even/odd selection on %d members, %d vanishing "
        "members certified both ways (%.1fs)" % (checked, certified, elapsed)
    )


# -- criterion 5: positivity --------------------------------------------------------


def test_criterion_5_positivity():
    t0 = time.monotonic()
    cap = {1: 6, 2: 5, 3: 4, 4: 3, 5: 3, 6: 2}
    constituents = 0
    for fam in _families_up_to(6, 6):
        datum = fam.datum
        r = rho(datum)
        rho_kt = KType(r, datum)
        res = spin_lkt_unipotent(fam)
        deltas = {
            dominant_rep(kt.hw - r, datum).doubled for kt, _ in res.spin_lkts
        }
        assert len(deltas) == 1, "%s: minimizers disagree on delta" % fam
        delta = HalfIntVec(deltas.pop())
        for eta in kspectrum(fam, cap[datum.rank]):
            for dp, mult in tensor_decompose(rho_kt, eta):
                constituents += 1
                assert mult >= 1, (str(fam), str(dp.hw))
                assert in_root_cone((dp.hw - delta).doubled, datum.family), (
                    "%s: constituent %s of V(%s) (x) V(rho) is not above "
                    "delta = %s" % (fam, dp.hw, eta.hw, delta)
                )
    elapsed = _budget(t0, 300, "criterion 5")
    print(
        "CRITERION 5 PASS: %d constituents all inside delta + N-span of the "
        "positive roots (%.1fs)" % (constituents, elapsed)
    )


# -- criterion 6: unitarity fixtures -------------------------------------------------


def test_criterion_6_unitarity_fixtures():
    t0 = time.monotonic()
    paths = sorted(FIXTURE_DIR.glob("*.txt"))
    assert len(paths) == 5
    for path in paths:
        out = _run_fixture(_load_fixture(path))
        assert out["dims_ok"], path.name
        assert out["sig_pattern_ok"], path.name
        assert out["verdict_ok"], path.name
        assert out["witness_ok"], "%s: witness set %s" % (path.name, out["witness"])
    elapsed = _budget(t0, 1, "criterion 6")
    print(
        "CRITERION 6 PASS: all five recorded signature tables reproduced, "
        "witness sets exact (%.2fs)" % elapsed
    )


# -- criterion 7: tensor property suite ----------------------------------------------


def test_criterion_7_tensor_property_suite():
    t0 = time.monotonic()
    rng = random.Random("acceptance-7")

    def rand_hw(family, rank, cap):
        if family == "A":
            cs = sorted(
                (2 * rng.randrange(-cap // 2, cap // 2 + 1) for _ in range(rank)),
                reverse=True,
            )
        else:
            cs = sorted(
                (2 * rng.randrange(0, cap // 2 + 1) for _ in range(rank)),
                reverse=True,
            )
        return tuple(cs)

    pairs = 0
    for family in "ABCD":
        for _ in range(100):
            rank = rng.choice((1, 2, 3))
            cap = 6 if rank < 3 else 4
            datum = RootDatum(family, rank)
            a_hw = rand_hw(family, rank, cap)
            b_hw = rand_hw(family, rank, cap)
            a = KType(HalfIntVec(a_hw), datum)
            b = KType(HalfIntVec(b_hw), datum)
            dec = tensor_decompose(a, b)
            # frozen-oracle agreement
            assert {kt.hw.doubled: m for kt, m in dec} == oracle.tensor_decompose(
                family, rank, a_hw, b_hw
            ), (family, a_hw, b_hw)
            # dimension conservation
            assert sum(m * kt.dim for kt, m in dec) == a.dim * b.dim, (family, a_hw, b_hw)
            # minimal-norm component: multiplicity one, strictly minimal
            c = prv_component(a, b)
            assert dict(dec).get(c, 0) == 1, (family, a_hw, b_hw)
            r = rho(datum)
            floor = norm_sq_x4(c.hw + r)
            for kt, _ in dec:
                if kt != c:
                    assert norm_sq_x4(kt.hw + r) > floor, (family, a_hw, b_hw)
            pairs += 1
    elapsed = _budget(t0, 120, "criterion 7")
    print(
        "CRITERION 7 PASS: %d random pairs match the oracle with conserved "
        "dimension and a unique minimal component (%.1fs)" % (pairs, elapsed)
    )


# -- criterion 8: the D-series 2*lambda ------------------------------------------------


def _d_series_closed_form(a, b):
    """Evens 2b-2 down to 2a, then every integer from 2a-1 down to 0."""
    return tuple(range(2 * b - 2, 2 * a - 1, -2)) + tuple(range(2 * a - 1, -1, -1))


def test_criterion_8_d_series_two_lambda():
    t0 = time.monotonic()
    lines = [
        "2*lambda for the D-series families",
        "===================================",
        "",
        "Computed from the defining parameter (twice the left side, made",
        "dominant) for every D(a,b) with a + b <= 6.  The reference closed",
        "form is: even entries 2b-2, 2b-4, ..., 2a followed by every",
        "integer 2a-1, 2a-2, ..., 1, 0.  A display of this form sometimes",
        "circulates with its leading even pair misordered ('2b-2, 2b, ...');",
        "read literally that string is not weakly decreasing whenever",
        "b >= a + 2, so the table below flags where the literal reading",
        "breaks while the corrected form matches the computation.",
        "",
        "a  b  computed            closed form         literal-display note",
        "-  -  ------------------  ------------------  --------------------",
    ]
    mismatches = 0
    for t in range(2, 7):
        for a in range(1, t // 2 + 1):
            b = t - a
            fam = UnipotentFamily("D_even", a=a, b=b)
            tl = two_lambda(fam)
            # the numeric assertions: dominant, regular, twice-integral
            assert is_dominant(tl, fam.datum)
            assert is_regular(tl, fam.datum)
            assert tl.is_integral
            assert two_lambda(UnipotentFamily("D_odd", a=a, b=b)) == tl
            closed = _d_series_closed_form(a, b)
            assert tl.doubled == tuple(2 * c for c in closed), (a, b)
            if b >= a + 2:
                note = "leading pair '2b-2, 2b' not decreasing; corrected"
                mismatches += 1
            else:
                note = "coincides with the literal display"
            lines.append(
                "%-2d %-2d %-19s %-19s %s"
                % (a, b, tl, ",".join(str(c) for c in closed), note)
            )
    lines.append("")
    lines.append(
        "%d of the size-<=6 families fall in the misordered-display range."
        % mismatches
    )
    # the committed report must read exactly as computed: a change to the
    # table shows here, and the test leaves the tree as it found it
    out = REPORT_DIR / "d_series_two_lambda.txt"
    assert out.read_text() == "\n".join(lines) + "\n", (
        "%s differs from the computed table" % (out,))
    elapsed = _budget(t0, 10, "criterion 8")
    print(
        "CRITERION 8 PASS: D-series 2*lambda dominant, regular and integral; "
        "report at %s (%.2fs)" % (out, elapsed)
    )
