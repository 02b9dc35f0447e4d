"""The benchmark's answer checkers accept known answers and reject
mutated ones.

Known answers are the README tour, the README library example, the five
recorded fixture tables and a few small cases worked out by hand.  Run
with ``python -m pytest perfbench``; diracdual itself is not imported.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import checks

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "diracdual" / "fixtures"


def w(text):
    return checks.parse_weight(text)


def load_fixture(path):
    fx = {"name": path.stem, "rows": [], "witness": []}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "group":
            family, rank = rest.split()
            fx["family"], fx["rank"] = family, int(rank)
        elif key in ("lambda", "lambda_l", "lambda_r", "verdict"):
            fx[key] = rest
        elif key == "witness":
            fx["witness"] = [w(p) for p in rest.split("|")]
        elif key == "row":
            _, hw, dim = (p.strip() for p in rest.split("|"))
            fx["rows"].append((w(hw), int(dim)))
    return fx


FIXTURE_TABLES = [load_fixture(p) for p in sorted(FIXTURES.glob("*.txt"))]


def test_five_fixture_tables_are_read():
    assert [fx["name"] for fx in FIXTURE_TABLES] == [
        "b3_spherical", "b4_spherical", "c4_nonspherical", "d3_single_ktype", "d5_nonspherical"]


# -- closed forms ----------------------------------------------------------------


def test_rho_matches_the_tour_and_rejects_a_shift():
    assert checks.rho("B", 3) == w("5/2,3/2,1/2")
    assert checks.check_cli(("rho", "B", 3), {"rho": "5/2,3/2,1/2"}) == []
    assert checks.check_cli(("rho", "B", 3), {"rho": "5/2,3/2,3/2"})


@pytest.mark.parametrize("fx", FIXTURE_TABLES, ids=lambda fx: fx["name"])
def test_weyl_dimension_matches_fixture_rows(fx):
    for hw, dim in fx["rows"]:
        assert checks.weyl_dim(hw, fx["family"]) == dim
        key = ("dim", fx["family"], hw)
        assert checks.check_cli(key, {"dim": dim}) == []
        assert checks.check_cli(key, {"dim": dim + 1})


# -- dirac-catalogue ----------------------------------------------------------


def test_family_accepts_the_tour_answer_and_rejects_mutations():
    fam = {"kind": "C_even", "n": 2}
    assert checks.two_lambda("C_even", n=2) == (3, 1)
    assert checks.check_family(fam, [(w("2,0"), 1)], 40, 2, None) == []
    assert checks.check_family(fam, [(w("4,0"), 1)], 40, 2, None)  # wrong spin-LKT
    assert checks.check_family(fam, [(w("2,0"), 2)], 40, 2, None)  # multiplicity 2
    assert checks.check_family(fam, [(w("2,0"), 1)], 44, 2, None)  # norm off the floor
    assert checks.check_family(fam, [(w("2,0"), 1)], 40, 4, None)  # wrong hd multiplicity


def test_family_accepts_the_library_example():
    # README: B(1,2) has the spin-LKT (2,2,0) with multiplicity 1
    fam = {"kind": "B", "a": 1, "b": 2}
    assert checks.two_lambda("B", a=1, b=2) == (3, 2, 1)
    assert checks.check_family(fam, [(w("2,2,0"), 1)], 56, 2, None) == []
    assert checks.check_family(fam, [(w("2,1,0"), 1)], 56, 2, None)  # not in the spectrum


def test_vanishing_family_worked_by_hand():
    # C_even(1): K-types (0), (2), ...; rho = (1); both (0) and (2) have
    # spin norm 2^2 = 4 > ||2 lambda||^2 = 1, so the cohomology vanishes.
    fam = {"kind": "C_even", "n": 1}
    lkts = [(w("0"), 1), (w("2"), 1)]
    assert checks.check_family(fam, lkts, 16, 0, True) == []
    assert checks.check_family(fam, lkts, 16, 1, True)  # hd multiplicity must be 0
    assert checks.check_family(fam, lkts, 16, 0, False)  # parity certificate missing
    assert checks.check_family(fam, lkts, 4, 0, True)  # reaches the floor
    # the even/odd rule marks C_even(1) as vanishing, so a nonzero answer fails
    assert checks.check_family(fam, [(w("0"), 1)], 4, 1, None)


def test_even_odd_rule():
    assert checks.expect_nonzero("B", a=1, b=1)
    assert checks.expect_nonzero("C_even", n=2) and not checks.expect_nonzero("C_even", n=3)
    assert checks.expect_nonzero("C_odd", n=3) and not checks.expect_nonzero("C_odd", n=2)
    assert checks.expect_nonzero("D_even", a=2, b=2) and not checks.expect_nonzero("D_even", a=1, b=2)
    assert checks.expect_nonzero("D_odd", a=1, b=2) and not checks.expect_nonzero("D_odd", a=2, b=2)


# -- tensor-engine --------------------------------------------------------------


def test_tensor_accepts_a_known_decomposition_and_rejects_mutations():
    # Sp(4): V(1,0) (x) V(1,0) = V(2,0) + V(1,1) + V(0,0), dimensions 16 = 10 + 5 + 1
    a = b = w("1,0")
    terms = {w("2,0"): 1, w("1,1"): 1, w("0,0"): 1}
    assert checks.check_tensor("C", a, b, terms, dict(terms)) == []
    assert checks.check_tensor("C", a, b, {w("2,0"): 1, w("1,1"): 1})  # dimension lost
    assert checks.check_tensor("C", a, b, {w("2,0"): 1, w("1,1"): 1, w("0,0"): 2})
    assert checks.check_tensor("C", a, b, terms, {w("2,0"): 1, w("1,1"): 2})  # oracle differs


def test_engine_accepts_self_dual_answers_and_rejects_mutations():
    # C2, eta = 0: V(0) (x) V(rho) = V(rho), and [V(rho) (x) V(rho) : V(0)] = 1
    zero, r = w("0,0"), checks.rho("C", 2)
    assert checks.check_engine("C", {(zero, r): 1, (r, zero): 1}) == []
    assert checks.check_engine("C", {(zero, r): 1, (r, zero): 2})  # not symmetric
    assert checks.check_engine("C", {(zero, r): 2})  # PRV constituent twice


# -- unitarity-sweep ------------------------------------------------------------


SPHERICAL_KNOWN = [
    ("B", "5/2,3/2,1/2", "Unitary"),  # README tour
    ("B", "9/2,7/2,1/2", "NonUnitary"),  # README tour
    ("C", "7/2,5/2,3/2,1/2", "Unitary"),  # README library example
] + [(fx["family"], fx["lambda"], fx["verdict"]) for fx in FIXTURE_TABLES if "lambda" in fx]


@pytest.mark.parametrize("family,lam,status", SPHERICAL_KNOWN)
def test_spherical_catalogue_accepts_known_and_rejects_flipped(family, lam, status):
    lam = checks.dominant(w(lam), family)
    assert checks.check_spherical(family, lam, status) == []
    flipped = "NonUnitary" if status == "Unitary" else "Unitary"
    assert checks.check_spherical(family, lam, flipped)


def test_dirac_inequality_accepts_rho_and_rejects_a_far_parameter():
    rho = w("5/2,3/2,1/2")
    assert checks.check_unitary("B", rho, rho) == []  # equality at the trivial module
    far = w("9/2,7/2,1/2")
    assert checks.check_unitary("B", far, far)


@pytest.mark.parametrize("fx", FIXTURE_TABLES, ids=lambda fx: fx["name"])
def test_witness_accepts_fixture_and_rejects_mutations(fx):
    family, rank, wit = fx["family"], fx["rank"], fx["witness"]
    assert checks.check_witness(family, rank, wit) == []
    assert checks.check_witness(family, rank, wit + [wit[0]])  # repeated K-type
    assert checks.check_witness(family, rank, [])  # no witness
    assert checks.check_witness(family, rank + 1, wit)  # wrong rank
    bad = tuple(reversed(wit[0])) if len(set(wit[0])) > 1 else (F(1, 2),) * rank
    assert checks.check_witness(family, rank, [bad])  # not dominant or not integral


# -- cli-calls: README tour records ------------------------------------------------


TOUR_RECORDS = {
    ("unitarity", "unitarity B3 5/2,3/2,1/2"): {"status": "Unitary", "case": "B:trivial"},
    ("unitarity", "unitarity B3 9/2,7/2,1/2"): {
        "status": "NonUnitary", "case": "B:unabsorbed-extra", "witness": ["0,0,0", "1,1,0"]},
    ("dirac", "dirac C_even 2"): {
        "nonzero": True, "tau": "1,0", "multiplicity": 2, "spin_lkts": [["2,0", 1]],
        "checks": {"min_spin_norm_sq_x4": 40, "two_lambda_norm_sq_x4": 40, "candidates": 4,
                   "complete": True}},
    ("catalog", "catalog C 2,2,2"): {
        "lambda": "3/2,1/2,1/2", "component_group_order": 2, "stably_trivial": False,
        "triangular": False,
        "parameters": [{"lambda_l": "3/2,1/2,1/2", "lambda_r": "3/2,1/2,1/2"},
                       {"lambda_l": "3/2,1/2,1/2", "lambda_r": "1/2,3/2,-1/2"}]},
    ("fixtures",): {
        "passed": True,
        "fixtures": [{"name": fx["name"], "witness": [",".join(str(c) for c in hw) for hw in fx["witness"]]}
                     for fx in FIXTURE_TABLES]},
}


def _mutate(record):
    """Change one answer in a record."""
    out = dict(record)
    if "status" in out:
        out["status"] = "NonUnitary" if out["status"] == "Unitary" else "Unitary"
    elif "tau" in out:
        out["tau"] = "2,0"
    elif "lambda" in out:
        out["parameters"] = out["parameters"][:1]
    else:
        out["passed"] = False
    return out


@pytest.mark.parametrize("key", list(TOUR_RECORDS), ids=lambda k: k[-1])
def test_cli_tour_records(key):
    assert checks.check_cli(key, TOUR_RECORDS[key]) == []
    assert checks.check_cli(key, _mutate(TOUR_RECORDS[key]))


def test_cli_tensor_record():
    record = [{"hw": "2,0", "mult": 1, "dim": 10}, {"hw": "1,1", "mult": 1, "dim": 5},
              {"hw": "0,0", "mult": 1, "dim": 1}]
    key = ("tensor", "C", w("1,0"), w("1,0"))
    assert checks.check_cli(key, record) == []
    assert checks.check_cli(key, record[:2])


# -- operations that raise ---------------------------------------------------------


MULTI = ("D", w("1,1/2,0"), w("0,-1/2,-1"))
MALFORMED = "ValueError: malformed non-spherical block (1/2 \\ -1/2)"


def test_failures_accept_the_known_fault_only():
    prefix = "ValueError: malformed non-spherical block"
    assert checks.check_failures([(MULTI, MALFORMED)], {MULTI}, prefix) == []
    assert checks.check_failures([(MULTI, "RuntimeError: scan below the floor")], {MULTI}, prefix)
    assert checks.check_failures([(("B", w("5/2,3/2,1/2")), MALFORMED)], {MULTI}, prefix)
    assert checks.check_failures([(MULTI, MALFORMED)], set(), None)


def _workload(fns, may_fail=(), may_fail_with=None):
    import workloads

    ops = [workloads.Op("op", key, fn) for key, fn in fns]
    return workloads.Workload("fake", [], ops, lambda results: [], tail_pct=0, warmup=False,
                              may_fail=may_fail, may_fail_with=may_fail_with)


def _problems(wl):
    import run

    _, _, _, first, failed, mismatches, _ = run.run_rounds(wl, 0)
    return failed, run.problems_of(wl, first, mismatches)


def _raise(exc):
    def fn():
        raise exc

    return fn


def test_an_operation_that_raises_makes_the_run_incorrect():
    ok = [(i, lambda i=i: i) for i in range(10)]
    assert _problems(_workload(ok)) == (0, [])
    failed, problems = _problems(_workload(ok + [("x", _raise(RuntimeError("tie on the floor")))]))
    assert failed == 1 and problems
    failed, problems = _problems(_workload(ok + [("x", _raise(AssertionError()))], {"x"},
                                           "ValueError: malformed"))
    assert failed == 1 and problems


def test_the_known_fault_keeps_the_run_correct():
    ok = [(i, lambda i=i: i) for i in range(10)]
    wl = _workload(ok + [("x", _raise(ValueError("malformed non-spherical block")))], {"x"},
                   "ValueError: malformed non-spherical block")
    assert _problems(wl) == (1, [])


# -- the metric names the benchmark prints are the ones BENCHMARK.json lists ----


def test_metric_names_match_benchmark_json():
    import json

    import run
    import spans

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
