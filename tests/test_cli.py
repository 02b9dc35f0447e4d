"""The command-line adapter: exit codes, JSON stability, fixtures."""

import json
import subprocess
import sys

import pytest

from diracdual import characters
from diracdual.cli import main
from diracdual.weights import HalfIntVec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# -- pinned examples ---------------------------------------------------------


def test_rho(capsys):
    code, out, _ = run(capsys, "rho", "--type", "C", "--rank", "2")
    assert code == 0
    assert out.strip() == "2,1"


def test_dim(capsys):
    code, out, _ = run(
        capsys, "dim", "--type", "D", "--rank", "5", "--hw", "2,1,1,1,0"
    )
    assert code == 0
    assert out.strip() == "1728"


def test_dim_infers_rank(capsys):
    code, out, _ = run(capsys, "dim", "--type", "B", "--hw", "1,1,0")
    assert code == 0
    assert out.strip() == "21"


def test_unitarity_spherical(capsys):
    code, out, _ = run(
        capsys, "unitarity", "--type", "B", "--rank", "3", "--lambda", "1/2,2,1"
    )
    assert code == 0
    assert "NonUnitary" in out
    assert "1,1,0" in out and "1,1,1" in out


def test_unitarity_json_contract(capsys):
    rec = run_json(
        capsys, "unitarity", "--type", "B", "--rank", "3", "--lambda", "1/2,2,1"
    )
    assert rec["status"] == "NonUnitary"
    assert sorted(rec["witness"]) == ["1,1,0", "1,1,1"]
    assert "case" in rec


def test_unitarity_full_parameter_with_negatives(capsys):
    # leading minus signs must not be read as option flags
    rec = run_json(
        capsys,
        "unitarity", "--type", "C", "--rank", "4",
        "--lambda-l", "1/2,-2,-1,3/2",
        "--lambda-r", "-1/2,-2,-1,3/2",
    )
    assert rec["status"] == "NonUnitary"
    assert sorted(rec["witness"]) == ["1,0,0,0", "1,1,1,0"]


# -- JSON stability -------------------------------------------------------------


def test_tensor_json_round_trips(capsys):
    rec = run_json(
        capsys, "tensor", "--type", "C", "--rank", "2", "--a", "1,0", "--b", "1,0"
    )
    assert isinstance(rec, list)
    assert {(r["hw"], r["mult"], r["dim"]) for r in rec} == {
        ("2,0", 1, 10), ("1,1", 1, 5), ("0,0", 1, 1),
    }
    for r in rec:
        hw = HalfIntVec.parse(r["hw"])
        assert str(hw) == r["hw"]


def test_tensor_dim_check_fails_loudly(capsys, monkeypatch):
    real = characters.tensor_decompose

    def lossy(a, b):
        dec = real(a, b)
        return dec[1:]

    monkeypatch.setattr(characters, "tensor_decompose", lossy)
    code, out, err = run(
        capsys, "tensor", "--type", "C", "--rank", "2", "--a", "1,0", "--b", "1,0"
    )
    assert code == 1 and out == ""
    assert "internal error" in err and "dim check" in err


def test_dirac_json_contract(capsys):
    rec = run_json(capsys, "dirac", "--family", "C_even", "--n", "2")
    assert set(rec) == {"nonzero", "tau", "multiplicity", "spin_lkts", "checks"}
    assert rec["nonzero"] is True
    assert rec["tau"] == "1,0"
    assert rec["multiplicity"] == 2
    assert rec["spin_lkts"] == [["2,0", 1]]


def test_dirac_vanishing_json(capsys):
    rec = run_json(capsys, "dirac", "--family", "C_odd", "--n", "2")
    assert rec["nonzero"] is False
    assert rec["tau"] is None and rec["multiplicity"] is None


def test_dirac_rank_eight_json(capsys):
    # the complete search at rank 8, through the CLI
    rec = run_json(capsys, "dirac", "--family", "D_even", "--a", "4", "--b", "4")
    assert rec["checks"]["complete"] is True
    assert rec["nonzero"] is True
    assert rec["spin_lkts"] == [["7,6,5,4,3,2,1,0", 1]]


def test_spin_lkt_json(capsys):
    rec = run_json(capsys, "spin-lkt", "--family", "B", "--a", "1", "--b", "2")
    assert rec["floor_attained"] is True
    assert rec["spin_lkts"] == [["2,2,0", 1]]
    assert rec["complete"] is True


def test_prv_and_spin_norm_records(capsys):
    argv = ("prv", "--type", "B", "--a", "1,1,0", "--b", "1,0,0")
    assert run(capsys, *argv) == (0, "1,0,0\n", "")
    assert run_json(capsys, *argv) == {
        "type": "B", "rank": 3, "a": "1,1,0", "b": "1,0,0", "prv": "1,0,0", "dim": 7,
    }
    argv = ("spin-norm", "--type", "B", "--eta", "2,1,0")
    assert run(capsys, *argv) == (0, "spin norm squared: 14  (4x: 56)\n", "")
    assert run_json(capsys, *argv) == {
        "type": "B", "rank": 3, "eta": "2,1,0", "spin_norm_sq_x4": 56, "spin_norm_sq": "14",
    }


def test_spin_lkt_truncated_scan(capsys):
    argv = ("spin-lkt", "--family", "B", "--a", "1", "--b", "2", "--bound", "1")
    assert run(capsys, *argv) == (0, (
        "B(1,2): min spin norm squared 21 vs ||2 lambda||^2 = 14 (floor not attained)\n"
        "  minimizer V(1,1,0) (multiplicity 1)\n"
        "  (truncated scan: coordinates <= 1)\n"), "")
    rec = run_json(capsys, *argv)
    assert (rec["complete"], rec["floor_attained"]) == (False, False)
    assert rec["spin_lkts"] == [["1,1,0", 1]]


def test_catalog_json(capsys):
    rec = run_json(capsys, "catalog", "--type", "C", "--partition", "2,2,2")
    assert rec["valid"] is True
    assert rec["lambda"] == "3/2,1/2,1/2"
    assert rec["component_group_order"] == 2
    assert len(rec["parameters"]) == 2


def test_spectrum_json(capsys):
    rec = run_json(
        capsys, "spectrum", "--family", "B", "--a", "1", "--b", "2",
        "--bound", "3",
    )
    assert rec["two_lambda"] == "3,2,1"
    assert [k["hw"] for k in rec["k_types"]] == ["0,0,0", "1,1,0", "2,2,0", "3,3,0"]


def test_dirac_induced_json(capsys):
    rec = run_json(
        capsys, "dirac-induced", "--levi", "gl2", "--core", "C_even:2",
        "--xi", "-6,-6",
    )
    assert set(rec) == {"nonzero", "tau", "multiplicity", "spin_lkts", "checks"}
    assert rec["multiplicity"] == 4
    assert rec["tau"] == "3,2,1,0"
    assert rec["spin_lkts"] == [["6,6,2,0", 1]]
    assert rec["checks"]["spin_lkt_verified"] is True


# -- exit codes -------------------------------------------------------------------


def test_precondition_violations_exit_2(capsys):
    cases = [
        ("dim", "--type", "C", "--hw", "1,2"),                  # not dominant
        ("dim", "--type", "B", "--rank", "4", "--hw", "1,1,0"),  # rank clash
        ("rho", "--type", "C", "--rank", "0"),
        ("unitarity", "--type", "B", "--rank", "3", "--lambda", "1/2,1/2,1"),
        ("dirac", "--family", "A", "--a", "1", "--b", "2"),
        ("spin-lkt", "--family", "A", "--a", "1", "--b", "2"),
        ("dirac-induced", "--core", "A:1,2"),
        ("dirac-induced", "--levi", "gl1", "--core", "A:1,2", "--xi", "1"),
        ("dirac-induced", "--levi", "gl2", "--core", "C_even:2",
         "--xi", "1/2,1/2"),
        ("dirac-induced", "--levi", "bad", "--core", "C_even:2", "--xi", "4"),
        ("dirac-induced", "--levi", "gl1", "--core", "C_even", "--xi", "4"),
        ("catalog", "--type", "C", "--partition", "1,2"),
        ("catalog", "--type", "C", "--partition", "0"),
        ("spectrum", "--family", "SpinB", "--n", "2", "--bound", "3"),
        # type D weights with a sign the Weyl group cannot absorb
        ("spin-norm", "--type", "D", "--eta=-1,-2,-3"),
        ("prv", "--type", "D", "--a=-1,-2,-3", "--b=1,0,0"),
        ("dim", "--type", "D", "--rank", "2", "--hw=-1,-3"),
        # the second weight's rank clashes with the first's
        ("tensor", "--type", "C", "--a", "1,0", "--b", "1,0,0"),
        ("prv", "--type", "C", "--a", "1,0", "--b", "1,0,0"),
        # an empty coordinate is not dropped
        ("dim", "--type", "B", "--hw", "2,,1"),
        ("dim", "--type", "B", "--hw", "2,1,"),
        ("dim", "--type", "B", "--hw", ",2,1"),
        ("unitarity", "--type", "B", "--lambda", "5/2,,1/2"),
        ("dirac-induced", "--levi", "gl2", "--core", "C_even:2",
         "--xi", "-6,,-6"),
        ("catalog", "--type", "C", "--partition", "2,,2"),
        # a part that is not an integer
        ("catalog", "--type", "C", "--partition", "x"),
        ("catalog", "--type", "C", "--partition", "2,a"),
        # the count of core sizes does not fit the kind
        ("dirac-induced", "--levi", "g", "--core", "B:2"),
        ("dirac-induced", "--levi", "g", "--core", "C_even:2,3"),
        # an empty core size is not dropped
        ("dirac-induced", "--levi", "g", "--core", "B:1,,2"),
        ("dirac-induced", "--levi", "g", "--core", "C_even:2,"),
        ("dirac-induced", "--levi", "g", "--core", "C_even:,2"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_option_errors_name_the_problem(capsys):
    both = "give either --lambda or --lambda-l/--lambda-r, not both"
    neither = "need --lambda, or both --lambda-l and --lambda-r"
    cases = [
        (("unitarity", "--type", "B", "--lambda", "1/2,2,1",
          "--lambda-l", "1,1,1", "--lambda-r", "1,1,1"), both),
        (("unitarity", "--type", "B", "--rank", "3"), neither),
        (("unitarity", "--type", "B", "--lambda-l", "1,1,1"), neither),
        (("dirac-induced", "--core", "X:1,2"), "unknown family kind 'X'"),
        (("dirac-induced", "--core", "B:1,x"), "core sizes must be integers (got '1,x')"),
        (("catalog", "--type", "B", "--partition", "1"),
         "partition [1] of type B is an orbit of so(1), of rank 0"),
    ]
    for argv, msg in cases:
        for extra in ((), ("--json",)):
            assert run(capsys, *argv, *extra) == (2, "", "error: %s\n" % msg), argv


def test_empty_entries(capsys):
    code, _, err = run(capsys, "catalog", "--type", "C", "--partition", "2,,2")
    assert code == 2
    assert "comma-separated integers" in err and "int()" not in err
    # spaces around an entry are fine, and an empty --xi means no xi
    code, out, _ = run(capsys, "dim", "--type", "B", "--hw", " 2 , 1 ")
    assert (code, out.strip()) == (0, "35")
    plain = run_json(capsys, "dirac-induced", "--levi", "g", "--core", "C_even:2")
    assert run_json(
        capsys, "dirac-induced", "--levi", "g", "--core", "C_even:2", "--xi", ""
    ) == plain


def test_malformed_sizes_name_the_expected_form(capsys):
    for partition in ("x", "2,a"):
        code, _, err = run(capsys, "catalog", "--type", "C", "--partition", partition)
        assert code == 2
        assert err.strip() == (
            "error: partition must be comma-separated integers, e.g. 2,2,2 (got %r)"
            % (partition,))
    for core, form in (("B:2", "B:a,b"), ("C_even:2,3", "C_even:n"),
                       ("D_odd:1,2,3", "D_odd:a,b"), ("C_odd:", "C_odd:n"),
                       ("B:1,,2", "B:a,b"), ("C_even:2,", "C_even:n"),
                       ("C_even:,2", "C_even:n")):
        code, _, err = run(capsys, "dirac-induced", "--levi", "g", "--core", core)
        assert code == 2
        assert err.strip() == "error: core %s needs %s (got %r)" % (
            core.split(":")[0], form, core)


def test_malformed_block_error_reads_as_half_integers(capsys):
    code, _, err = run(
        capsys, "unitarity", "--type", "D",
        "--lambda-l", "1,1/2,0", "--lambda-r", "0,-1/2,-1",
    )
    assert code == 2
    assert err.strip() == "error: malformed non-spherical block (1,1/2,0 \\ 0,-1/2,-1)"


def test_invalid_orbit_is_a_result_not_an_error(capsys):
    rec = run_json(capsys, "catalog", "--type", "B", "--partition", "2,2")
    assert rec["valid"] is False
    assert rec["reason"]
    code, out, _ = run(capsys, "catalog", "--type", "B", "--partition", "2,2")
    assert code == 0
    assert "invalid orbit" in out


def test_missing_required_option_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--family", "B", "--a", "1", "--b", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_env_bound_override(capsys, monkeypatch):
    # --bound is the only bound; DIRAC_SERIES_BOUND no longer changes a record
    monkeypatch.delenv("DIRAC_SERIES_BOUND", raising=False)
    plain = run_json(capsys, "dirac", "--family", "C_even", "--n", "2")
    for value in ("3", "oops"):
        monkeypatch.setenv("DIRAC_SERIES_BOUND", value)
        assert run_json(capsys, "dirac", "--family", "C_even", "--n", "2") == plain


def test_explicit_bound_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("DIRAC_SERIES_BOUND", "3")
    rec = run_json(
        capsys, "dirac", "--family", "C_even", "--n", "2", "--bound", "50"
    )
    assert rec["checks"]["complete"] is True
    monkeypatch.setenv("DIRAC_SERIES_BOUND", "50")
    rec = run_json(
        capsys, "dirac", "--family", "C_even", "--n", "2", "--bound", "3"
    )
    assert rec["checks"]["coordinate_bound"] == 3
    assert rec["checks"]["complete"] is False


# -- imports ---------------------------------------------------------------------

# the modules each subcommand loads, beyond diracdual, weights and cli
_CHARS = {"characters"}
_DIRAC = {"characters", "spectrum", "dirac"}
_UNIT = {"unitarity"}
MODULES = [
    (None, set()),
    (["rho", "--type", "B", "--rank", "3"], set()),
    (["dim", "--type", "B", "--hw", "2,1"], set()),
    (["tensor", "--type", "C", "--a", "1,0", "--b", "1,0"], _CHARS),
    (["prv", "--type", "C", "--a", "1,0", "--b", "1,0"], _CHARS),
    (["spin-norm", "--type", "C", "--eta", "1,0"], _DIRAC),
    (["catalog", "--type", "C", "--partition", "2,2,2"], {"unipotent"}),
    (["spectrum", "--family", "C_even", "--n", "2", "--bound", "2"],
     {"spectrum"}),
    (["spin-lkt", "--family", "C_even", "--n", "2"], _DIRAC),
    (["dirac", "--family", "C_even", "--n", "2"], _DIRAC),
    (["dirac-induced", "--levi", "gl1", "--core", "C_odd:2", "--xi", "5"], _DIRAC),
    (["unitarity", "--type", "B", "--lambda", "9/2,7/2,1/2"], _UNIT),
    (["unitarity", "--type", "C", "--lambda-l", "1/2,-2", "--lambda-r", "-1/2,-2"],
     _UNIT),
    (["fixtures"], _UNIT),
]


def _modules_loaded(argv):
    """Exit code and diracdual modules after one call in a fresh interpreter."""
    code = (
        "import contextlib, io, json, sys\n"
        "from diracdual import cli\n"
        "argv = %r\n"
        "code = None\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.split('.')[0] == 'diracdual')]))\n"
        % (argv,)
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "argv,extra", MODULES, ids=[a[0] if a else "import" for a, _ in MODULES]
)
def test_each_call_imports_only_its_modules(argv, extra):
    code, loaded = _modules_loaded(argv)
    assert code in (None, 0)
    want = {"diracdual", "diracdual.weights", "diracdual.cli"}
    want |= {"diracdual." + m for m in extra}
    assert set(loaded) == want


# -- fixtures ---------------------------------------------------------------------


def test_fixtures_pass(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "5/5 fixtures passed" in out
    assert "FAIL" not in out


def test_fixtures_json(capsys):
    rec = run_json(capsys, "fixtures")
    assert rec["passed"] is True
    assert len(rec["fixtures"]) == 5
    names = {f["name"] for f in rec["fixtures"]}
    assert names == {
        "b3_spherical", "b4_spherical", "c4_nonspherical",
        "d3_single_ktype", "d5_nonspherical",
    }
    for f in rec["fixtures"]:
        assert f["dims_ok"] and f["sig_pattern_ok"]
        assert f["verdict_ok"] and f["witness_ok"]
