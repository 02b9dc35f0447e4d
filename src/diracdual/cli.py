"""Command-line front end.

Every subcommand is a thin adapter over one library operation; output is
a human-readable table by default and stable JSON with ``--json``.  Exit
codes: 0 on success, 2 when the input violates an operation's
precondition (the message names the condition), 1 on internal errors.
The ``fixtures`` subcommand replays the recorded signature tables and
exits 0 only when every check passes.

A call is mostly import, so this module loads only :mod:`weights` and
each handler imports what it runs at the top of its body: ``rho`` and
``dim`` need nothing more; ``tensor`` and ``prv`` load ``characters``;
``catalog`` loads ``unipotent``; ``spectrum`` loads ``spectrum``;
``spin-norm``, ``spin-lkt``, ``dirac`` and ``dirac-induced`` load
``dirac`` (with ``characters`` and ``spectrum``); ``unitarity`` and
``fixtures`` load ``unitarity``.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .weights import HalfIntVec, KType, RootDatum, ZhParam, rho

FIXTURE_DIR = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _datum(args, *weights):
    """RootDatum from --type/--rank, with the rank inferred from the first
    weight when omitted; every weight is cross-checked against it."""
    rank = getattr(args, "rank", None)
    if rank is None:
        rank = len(weights[0])
    for w in weights:
        if len(w) != rank:
            raise ValueError(
                "weight has %d coordinates but --rank is %d" % (len(w), rank)
            )
    return RootDatum(args.type, rank)


def _family(args):
    from .spectrum import UnipotentFamily

    return UnipotentFamily(
        args.family, a=args.a or 0, b=args.b or 0, n=args.n or 0
    )


def _parse_levi(text):
    """GL block sizes from forms like "gl2", "gl2+gl1", "gl2,gl3"; "g"
    or an empty string means no induction."""
    if text is None:
        return []
    s = text.strip().lower()
    if s in ("", "g", "none"):
        return []
    blocks = []
    for token in re.split(r"[+,x*]", s):
        token = token.strip()
        m = re.fullmatch(r"gl(\d+)", token)
        if not m:
            raise ValueError(
                "cannot read Levi token %r (expected glK, e.g. gl2+gl1)" % (token,)
            )
        blocks.append(int(m.group(1)))
    return blocks


def _parse_core(text):
    """UnipotentFamily from "C_even:2" or "B:1,2" style strings: one size
    for the kinds whose root system is C, two for the rest."""
    from .spectrum import _KINDS, UnipotentFamily

    if ":" not in text:
        raise ValueError(
            "core must look like KIND:n or KIND:a,b (got %r)" % (text,)
        )
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ValueError("unknown family kind %r" % (kind,))
    nums = [p.strip() for p in rest.split(",")]
    if not all(re.fullmatch(r"-?\d+", p) for p in nums if p):
        raise ValueError("core sizes must be integers (got %r)" % (rest,))
    sizes = ("n",) if _KINDS[kind][0] == "C" else ("a", "b")
    # an empty size is not dropped
    if len(nums) != len(sizes) or "" in nums:
        raise ValueError(
            "core %s needs %s:%s (got %r)" % (kind, kind, ",".join(sizes), text)
        )
    return UnipotentFamily(kind, **dict(zip(sizes, map(int, nums))))


def _table(rows, headers):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    fmt = "  ".join("%%-%ds" % w for w in widths)
    lines = [fmt % tuple(headers)]
    lines.append(fmt % tuple("-" * w for w in widths))
    for row in rows:
        lines.append(fmt % tuple(str(c) for c in row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (record, human text, exit code)
# ---------------------------------------------------------------------------


def cmd_rho(args):
    datum = RootDatum(args.type, args.rank)
    r = rho(datum)
    record = {"type": args.type, "rank": args.rank, "rho": str(r)}
    return record, str(r), 0


def cmd_dim(args):
    hw = HalfIntVec.parse(args.hw)
    datum = _datum(args, hw)
    kt = KType(hw, datum)
    record = {"type": args.type, "rank": datum.rank, "hw": str(hw), "dim": kt.dim}
    return record, str(kt.dim), 0


def cmd_tensor(args):
    from .characters import tensor_decompose

    a_hw = HalfIntVec.parse(args.a)
    b_hw = HalfIntVec.parse(args.b)
    datum = _datum(args, a_hw, b_hw)
    a = KType(a_hw, datum)
    b = KType(b_hw, datum)
    dec = tensor_decompose(a, b)
    total = sum(m * kt.dim for kt, m in dec)
    if total != a.dim * b.dim:
        raise RuntimeError("dim check failed: %d * %d != %d"
                           % (a.dim, b.dim, total))
    record = [
        {"hw": str(kt.hw), "mult": m, "dim": kt.dim} for kt, m in dec
    ]
    rows = [(str(kt.hw), m, kt.dim) for kt, m in dec]
    text = _table(rows, ("hw", "mult", "dim"))
    text += "\n%d terms; dim check %d * %d = %d" % (
        len(dec), a.dim, b.dim, total,
    )
    return record, text, 0


def cmd_prv(args):
    from .characters import prv_component

    a_hw = HalfIntVec.parse(args.a)
    b_hw = HalfIntVec.parse(args.b)
    datum = _datum(args, a_hw, b_hw)
    kt = prv_component(KType(a_hw, datum), KType(b_hw, datum))
    record = {
        "type": args.type,
        "rank": datum.rank,
        "a": str(a_hw),
        "b": str(b_hw),
        "prv": str(kt.hw),
        "dim": kt.dim,
    }
    return record, str(kt.hw), 0


def cmd_spin_norm(args):
    from .dirac import spin_norm_sq_x4

    eta = HalfIntVec.parse(args.eta)
    datum = _datum(args, eta)
    x4 = spin_norm_sq_x4(KType(eta, datum))
    record = {
        "type": args.type,
        "rank": datum.rank,
        "eta": str(eta),
        "spin_norm_sq_x4": x4,
        "spin_norm_sq": str(Fraction(x4, 4)),
    }
    text = "spin norm squared: %s  (4x: %d)" % (Fraction(x4, 4), x4)
    return record, text, 0


def cmd_catalog(args):
    from .unipotent import (
        component_group_order,
        enumerate_parameters,
        infinitesimal_character,
        is_stably_trivial,
        is_triangular,
        validate,
    )

    try:
        rows = tuple(int(p) for p in args.partition.split(","))
    except ValueError:
        raise ValueError(
            "partition must be comma-separated integers, e.g. 2,2,2 (got %r)"
            % (args.partition,)
        ) from None
    if not rows or any(r <= 0 for r in rows):
        raise ValueError("partition parts must be positive")
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise ValueError("partition must be weakly decreasing")
    try:
        orbit = validate(rows, args.type)
    except ValueError as e:
        record = {
            "type": args.type,
            "partition": list(rows),
            "valid": False,
            "reason": str(e),
        }
        return record, "invalid orbit: %s" % e, 0
    lam = infinitesimal_character(orbit)
    params = enumerate_parameters(orbit)
    record = {
        "type": args.type,
        "partition": list(rows),
        "valid": True,
        "lambda": str(lam),
        "component_group_order": component_group_order(orbit),
        "stably_trivial": is_stably_trivial(orbit),
        "triangular": is_triangular(orbit),
        "parameters": [
            {
                "signs": list(p.eta),
                "lambda_l": str(p.zh.lambda_L),
                "lambda_r": str(p.zh.lambda_R),
                "tag": p.very_even_tag or None,
            }
            for p in params
        ],
    }
    lines = [
        "orbit [%s] in type %s (rank %d)"
        % (",".join(str(r) for r in rows), args.type, orbit.datum.rank),
        "  infinitesimal character: %s" % lam,
        "  component group order:   %d" % record["component_group_order"],
        "  stably trivial:          %s" % ("yes" if record["stably_trivial"] else "no"),
        "  triangular:              %s" % ("yes" if record["triangular"] else "no"),
        "  parameters (%d):" % len(params),
    ]
    for p in params:
        tag = "  [%s]" % p.very_even_tag if p.very_even_tag else ""
        lines.append(
            "    signs=%-12s L=%s  R=%s%s"
            % (
                "(%s)" % ",".join("%+d" % s for s in p.eta),
                p.zh.lambda_L,
                p.zh.lambda_R,
                tag,
            )
        )
    return record, "\n".join(lines), 0


def cmd_spectrum(args):
    from .spectrum import kspectrum, two_lambda

    fam = _family(args)
    kts = list(kspectrum(fam, args.bound))
    record = {
        "family": str(fam),
        "two_lambda": str(two_lambda(fam)),
        "bound": args.bound,
        "k_types": [{"hw": str(kt.hw), "dim": kt.dim} for kt in kts],
    }
    rows = [(str(kt.hw), kt.dim) for kt in kts]
    text = "%s: 2*lambda = %s, %d K-types with coordinates <= %d\n%s" % (
        fam,
        record["two_lambda"],
        len(kts),
        args.bound,
        _table(rows, ("hw", "dim")),
    )
    return record, text, 0


def cmd_spin_lkt(args):
    from .dirac import spin_lkt_unipotent

    fam = _family(args)
    res = spin_lkt_unipotent(fam, args.bound)
    record = {
        "family": str(fam),
        "floor_attained": res.nonzero,
        "min_spin_norm_sq_x4": res.checks["min_spin_norm_sq_x4"],
        "two_lambda_norm_sq_x4": res.checks["two_lambda_norm_sq_x4"],
        "complete": res.checks["complete"],
        "spin_lkts": [[str(kt.hw), m] for kt, m in res.spin_lkts],
    }
    lines = [
        "%s: min spin norm squared %s vs ||2 lambda||^2 = %s (%s)"
        % (
            fam,
            Fraction(record["min_spin_norm_sq_x4"], 4),
            Fraction(record["two_lambda_norm_sq_x4"], 4),
            "floor attained" if res.nonzero else "floor not attained",
        )
    ]
    label = "spin-LKT" if res.nonzero else "minimizer"
    for kt, m in res.spin_lkts:
        lines.append("  %s %s (multiplicity %d)" % (label, kt, m))
    if not record["complete"]:
        lines.append("  (truncated scan: coordinates <= %d)" % res.checks["coordinate_bound"])
    return record, "\n".join(lines), 0


def cmd_dirac(args):
    from .dirac import spin_lkt_unipotent

    fam = _family(args)
    res = spin_lkt_unipotent(fam, args.bound)
    record = res.as_dict()
    lines = ["%s: %s" % (fam, res)]
    for key in ("min_spin_norm_sq_x4", "two_lambda_norm_sq_x4", "candidates", "complete"):
        lines.append("  %s: %s" % (key, res.checks[key]))
    return record, "\n".join(lines), 0


def cmd_dirac_induced(args):
    from .dirac import dirac_induced

    blocks = _parse_levi(args.levi)
    core = _parse_core(args.core)
    xi = HalfIntVec.parse(args.xi) if args.xi else HalfIntVec(())
    res = dirac_induced(blocks, core, xi)
    record = res.as_dict()
    levi = " x ".join(["GL(%d)" % k for k in blocks] + [str(core)])
    lines = ["induced from %s: %s" % (levi, res)]
    if "lambda" in res.checks:
        lines.append("  lambda = %s" % res.checks["lambda"])
    if "note" in res.checks:
        lines.append("  note: %s" % res.checks["note"])
    return record, "\n".join(lines), 0


def cmd_unitarity(args):
    from .unitarity import full_unitarity, spherical_unitarity

    if args.lam is not None:
        if args.lambda_l is not None or args.lambda_r is not None:
            raise ValueError("give either --lambda or --lambda-l/--lambda-r, not both")
        lam = HalfIntVec.parse(args.lam)
        datum = _datum(args, lam)
        verdict = spherical_unitarity(lam, datum)
    else:
        if args.lambda_l is None or args.lambda_r is None:
            raise ValueError("need --lambda, or both --lambda-l and --lambda-r")
        lL = HalfIntVec.parse(args.lambda_l)
        lR = HalfIntVec.parse(args.lambda_r)
        datum = _datum(args, lL)
        verdict = full_unitarity(ZhParam(lL, lR, datum))
    record = verdict.as_dict()
    return record, str(verdict), 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _load_fixture(path):
    fx = {"name": path.stem, "rows": [], "witness": []}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "group":
            fam, rank = rest.split()
            fx["datum"] = RootDatum(fam, int(rank))
        elif key in ("lambda", "lambda_l", "lambda_r"):
            fx[key] = HalfIntVec.parse(rest)
        elif key == "verdict":
            fx["verdict"] = rest
        elif key == "witness":
            fx["witness"] = [
                HalfIntVec.parse(p.strip()) for p in rest.split("|")
            ]
        elif key == "row":
            sig, hw, d = [p.strip() for p in rest.split("|")]
            fx["rows"].append((sig, HalfIntVec.parse(hw), int(d)))
        else:
            raise ValueError("unknown fixture line %r in %s" % (raw, path.name))
    return fx


def _sig_definite(sigs):
    """A form is definite exactly when the signature symbols are all
    plain scalars or all scalar multiples of s."""
    return all(re.fullmatch(r"\d+", s) for s in sigs) or all(
        re.fullmatch(r"\d*s", s) for s in sigs
    )


def _run_fixture(fx):
    from .unitarity import full_unitarity, spherical_unitarity

    datum = fx["datum"]
    out = {"name": fx["name"], "group": str(datum)}
    dims_ok = True
    for _, hw, d in fx["rows"]:
        if KType(hw, datum).dim != d:
            dims_ok = False
    out["dims_ok"] = dims_ok
    expected_unitary = fx["verdict"] == "Unitary"
    out["sig_pattern_ok"] = (
        _sig_definite([s for s, _, _ in fx["rows"]]) == expected_unitary
    )
    if "lambda" in fx:
        verdict = spherical_unitarity(fx["lambda"], datum)
    else:
        verdict = full_unitarity(ZhParam(fx["lambda_l"], fx["lambda_r"], datum))
    out["status"] = verdict.status
    out["verdict_ok"] = verdict.status == fx["verdict"]
    got = {kt.hw.doubled for kt in verdict.witness}
    want = {w.doubled for w in fx["witness"]}
    out["witness_ok"] = got == want
    out["witness"] = sorted(str(HalfIntVec(w)) for w in got)
    out["passed"] = dims_ok and out["sig_pattern_ok"] and out["verdict_ok"] and out["witness_ok"]
    return out


def cmd_fixtures(args):
    paths = sorted(FIXTURE_DIR.glob("*.txt"))
    if not paths:
        raise RuntimeError("no fixture files found in %s" % FIXTURE_DIR)
    results = [_run_fixture(_load_fixture(p)) for p in paths]
    record = {"fixtures": results, "passed": all(r["passed"] for r in results)}
    lines = []
    for r in results:
        flags = ",".join(
            k for k in ("dims_ok", "sig_pattern_ok", "verdict_ok", "witness_ok")
            if not r[k]
        )
        lines.append(
            "%-4s %-22s %s %s"
            % (
                "ok" if r["passed"] else "FAIL",
                r["name"],
                r["status"],
                "{(%s)}" % "), (".join(r["witness"]) if r["witness"] else "",
            )
            + (("  failing: " + flags) if flags else "")
        )
    lines.append(
        "%d/%d fixtures passed" % (sum(r["passed"] for r in results), len(results))
    )
    return record, "\n".join(lines), 0 if record["passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_type_rank(p, rank_required=False):
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    p.add_argument("--rank", type=int, required=rank_required)


def _add_family(p):
    p.add_argument("--family", required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--n", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diracdual",
        description="Exact spin norms, Dirac cohomology and unitarity "
        "decisions for the complex classical groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="half-sum of positive roots")
    _add_type_rank(p, rank_required=True)
    p.set_defaults(handler=cmd_rho)

    p = sub.add_parser("dim", help="dimension of a K-type")
    _add_type_rank(p)
    p.add_argument("--hw", required=True, help="highest weight, e.g. 2,1,1,1,0")
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("tensor", help="decompose V(a) (x) V(b)")
    _add_type_rank(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=cmd_tensor)

    p = sub.add_parser("prv", help="minimal-norm constituent of V(a) (x) V(b)")
    _add_type_rank(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=cmd_prv)

    p = sub.add_parser("spin-norm", help="squared spin norm of a K-type")
    _add_type_rank(p)
    p.add_argument("--eta", required=True)
    p.set_defaults(handler=cmd_spin_norm)

    p = sub.add_parser("catalog", help="nilpotent orbit data and its parameters")
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    p.add_argument("--partition", required=True, help="e.g. 2,2,2")
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("spectrum", help="K-types of a catalogued family")
    _add_family(p)
    p.add_argument("--bound", type=int, required=True,
                   help="largest coordinate to list")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("spin-lkt", help="spin-norm minimizers of a family")
    _add_family(p)
    p.add_argument("--bound", type=int)
    p.set_defaults(handler=cmd_spin_lkt)

    p = sub.add_parser("dirac", help="Dirac cohomology of a family")
    _add_family(p)
    p.add_argument("--bound", type=int)
    p.set_defaults(handler=cmd_dirac)

    p = sub.add_parser(
        "dirac-induced",
        help="Dirac cohomology of a module induced from GL characters "
        "times a catalogued core",
    )
    p.add_argument("--levi", help='GL blocks, e.g. "gl2" or "gl2+gl1"; "g" for none')
    p.add_argument("--core", required=True, help='e.g. "C_even:2" or "B:1,2"')
    p.add_argument("--xi", help="character coordinates, one per GL column")
    p.set_defaults(handler=cmd_dirac_induced)

    p = sub.add_parser("unitarity", help="unitarity verdict with certificate "
                       "or witness K-types")
    _add_type_rank(p)
    p.add_argument("--lambda", dest="lam", help="spherical parameter")
    p.add_argument("--lambda-l", dest="lambda_l")
    p.add_argument("--lambda-r", dest="lambda_r")
    p.set_defaults(handler=cmd_unitarity)

    p = sub.add_parser("fixtures", help="replay the recorded signature tables")
    p.set_defaults(handler=cmd_fixtures)

    for name, sp in sub.choices.items():
        sp.add_argument("--json", action="store_true")

    return parser


_WEIGHT_OPTS = frozenset(
    ("--lambda", "--lambda-l", "--lambda-r", "--hw", "--a", "--b", "--eta", "--xi")
)


def _join_negative_values(argv):
    """Fuse "--lambda -1/2,2" into "--lambda=-1/2,2" so weights with a
    leading minus are not mistaken for option flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _WEIGHT_OPTS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and any(c.isdigit() for c in argv[i + 1])
        ):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_values(list(argv)))
    try:
        record, text, code = args.handler(args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 -- anything else is a bug
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
