"""Benchmark for diracdual: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all

Workloads: dirac-catalogue, tensor-engine, unitarity-sweep, cli-calls (see
README.md).  A run repeats whole rounds of the workload's operations
while the next round should end within ``--seconds`` (at least the
workload's minimum number of rounds, plus one untimed warm-up round where
the workload has one), measures set-up (the median of several fresh
interpreters importing the workload's modules, started between the
rounds), then checks every answer.  An operation that raises is counted
in ``failed``; unless the workload names it as a known fault, it also
makes the run incorrect.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the same rounds run with spans around each layer and the
metrics are the per-layer ones.  Result and span files go to
``perfbench/out/``.

The package is imported from this checkout's ``src`` and nowhere else;
``DIRAC_SERIES_BOUND`` is removed from the environment of this process
and of every child, since it changes the scan's bound.
"""

import argparse
import ctypes
import ctypes.util
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("dirac-catalogue", "tensor-engine", "unitarity-sweep", "cli-calls")
SETUP_REPEATS = 15
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4  # mallopt parameters, <malloc.h>
CLI_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# One thread per process: no BLAS pool is started by the numpy import.  No
# transparent huge pages for numpy arrays: whether the kernel grants them
# depends on the memory of the whole host, and it moved tensor-engine's
# throughput by a quarter between runs.  Fixed malloc policy: by default
# glibc maps large blocks and raises its mmap and trim thresholds as they
# are freed, so whether a rank-6 V(rho) grid came from fresh pages or from
# a heap hole depended on the run's history, and tensor-engine's
# peak_rss_mb moved between 179 and 236 MB.  With no mapped blocks and a
# heap that keeps up to 1 GB free, the grids always come from the heap
# (peak_rss_mb is also read after the first round; see run_rounds).
TRIM_THRESHOLD = 1 << 30
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMPY_MADVISE_HUGEPAGE": "0", "MALLOC_MMAP_MAX_": "0",
          "MALLOC_TRIM_THRESHOLD_": str(TRIM_THRESHOLD)}


def child_env():
    env = dict(os.environ)
    env.pop("DIRAC_SERIES_BOUND", None)
    env.pop("PYTHONSTARTUP", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(PINNED)
    return env


def pin_malloc():
    """This process's share of ``PINNED``: the malloc policy, which the
    environment sets only for processes started after it."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        ok = libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) and libc.mallopt(M_MMAP_MAX, 0)
    except (OSError, AttributeError):
        ok = False
    if not ok:
        print("warning: malloc policy not set; peak_rss_mb may move between runs",
              file=sys.stderr)


def import_package():
    """Import diracdual from this checkout and return its resolved path."""
    os.environ.pop("DIRAC_SERIES_BOUND", None)
    os.environ.update(PINNED)
    pin_malloc()
    if not (SRC / "diracdual" / "__init__.py").is_file():
        raise SystemExit("error: no diracdual package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import diracdual

    where = Path(diracdual.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit("error: diracdual resolved to %s, outside %s" % (where, SRC))
    return where


class Setup:
    """``setup_s``: the median over fresh interpreters of the time to import
    ``modules``, measured inside each child.

    The interpreters are not started back to back but before the rounds
    and between them, spread over the run (``keep_up``), so the median sees
    the same host load as the rounds rather than that of a few seconds
    before them.  The first interpreter is untimed: it leaves the file
    cache (and compiled bytecode, where it is written) warm."""

    def __init__(self, modules, env):
        self.code = (
            "import time, json\n"
            "t0 = time.perf_counter()\n"
            + "".join("import %s\n" % m for m in modules)
            + "t1 = time.perf_counter()\n"
            "import diracdual\n"
            "print(json.dumps({'s': t1 - t0, 'file': diracdual.__file__}))\n"
        )
        self.env = env
        self.times = []
        self.sample(timed=False)

    def sample(self, timed=True):
        proc = subprocess.run([sys.executable, "-c", self.code], env=self.env, cwd=str(ROOT),
                              capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if SRC.resolve() not in Path(rec["file"]).resolve().parents:
            raise SystemExit("error: a child imported diracdual from %s" % rec["file"])
        if timed:
            self.times.append(rec["s"])

    def keep_up(self, share):
        """Take interpreters until ``share`` of ``SETUP_REPEATS`` are done."""
        while len(self.times) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * share)):
            self.sample()

    def median(self):
        self.keep_up(1.0)
        return statistics.median(self.times)


def clear_caches():
    """Empty every functools cache of the package, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("diracdual") or module is None:
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def show(value):
    """Readable form of an operation key: Fractions as 5/2."""
    if isinstance(value, (tuple, list)):
        return "(%s)" % ",".join(show(v) for v in value)
    if isinstance(value, dict):
        return "{%s}" % ",".join("%s=%s" % (k, show(v)) for k, v in value.items())
    return str(value)


def percentile(sorted_xs, pct):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_xs) * pct // 100) - 1)
    return sorted_xs[int(min(k, len(sorted_xs) - 1))]


def build(name, seed):
    import workloads

    if name == "dirac-catalogue":
        return workloads.dirac_catalogue(seed)
    if name == "tensor-engine":
        return workloads.tensor_engine(seed, ROOT)
    if name == "unitarity-sweep":
        return workloads.unitarity_sweep(seed)
    return workloads.cli_calls(seed, child_env(), str(ROOT))


def run_rounds(wl, seconds, tracer=None, setup=None):
    """Repeat whole rounds for about ``seconds``.

    With ``wl.warmup`` the first round is a warm-up: its answers are
    checked but its times are not used, so the figures describe a process
    whose allocator and interpreter state have settled.

    Each round starts from cold package caches and a collected heap, with
    the cyclic garbage collector off while it runs (as ``timeit`` does), so
    a collection triggered by one operation's garbage is not charged to
    whichever operation happens to follow.  Returns the number of rounds,
    the timed rounds' rates (successful operations per second) and
    successful operations' latencies, the first round's (op, answer, ok,
    seconds) tuples, the number of failed operations, the number of answers
    that differ from the first round's and the peak resident memory in MB
    at the end of the first round (of the largest child where the work runs
    in children).  The answer of an operation that raised is the text
    ``"<exception>: <message>"``.

    The memory figure is the first round's because a round from a fresh
    process is what the workload needs; later rounds only add the heap
    layout left by earlier ones, which depends on timing (tensor-engine
    read 180 MB or, in two runs of ten, 216 MB over the whole run).

    With ``setup``, its interpreters are taken between rounds in step with
    the share of the run that is done.
    """
    latencies, rates, first = [], [], []
    mismatches = failed = rounds = 0
    peak_mb = 0.0
    least = wl.min_rounds + (1 if wl.warmup else 0)
    start = time.perf_counter()
    last = 0.0
    if setup is not None:
        setup.keep_up(1.0 / SETUP_REPEATS)
    try:
        # another round only if it should end within ``seconds``
        while rounds < least or time.perf_counter() - start + last <= seconds:
            clear_caches()
            gc.collect()
            gc.disable()
            round_latencies = []
            done_ok = 0
            r0 = time.perf_counter()
            for index, op in enumerate(wl.ops):
                if tracer is not None:
                    tracer.op = index
                    tracer.begin("op." + op.kind)
                t0 = time.perf_counter()
                try:
                    answer = op.fn()
                    ok = True
                except Exception as exc:  # counted as a failed operation
                    answer = "%s: %s" % (type(exc).__name__, exc)
                    ok = False
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.end()
                if not ok:
                    failed += 1
                else:
                    done_ok += 1
                    if wl.latency_kind in (None, op.kind):
                        round_latencies.append(t1 - t0)
                if rounds == 0:
                    first.append((op, answer, ok, t1 - t0))
                elif first[index][1] != answer:
                    mismatches += 1
            last = time.perf_counter() - r0
            if rounds or not wl.warmup:
                rates.append(done_ok / last)
                latencies += round_latencies
            gc.enable()
            if rounds == 0:
                who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
                peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
            rounds += 1
            if setup is not None:
                done = time.perf_counter() - start
                left = max(least - rounds, int(max(0.0, seconds - done) // last))
                setup.keep_up(done / (done + left * last))
    finally:
        gc.enable()
    return rounds, rates, latencies, first, failed, mismatches, peak_mb


def problems_of(wl, first, mismatches):
    """Everything wrong with a run: answers the checkers reject, operations
    that raised where the workload allows none (or raised the wrong error),
    and answers that differ between rounds."""
    import checks

    problems = wl.check([(op, answer) for op, answer, ok, _ in first if ok])
    problems += checks.check_failures(
        [(op.key, answer) for op, answer, ok, _ in first if not ok], wl.may_fail,
        wl.may_fail_with)
    if mismatches:
        problems.append("%d answers differ between rounds" % mismatches)
    return problems


def run_workload(name, seed, seconds, trace):
    where = import_package()
    print("diracdual imported from %s" % where.parent)
    env = child_env()
    wl = build(name, seed)

    tracer = setup = None
    if trace:
        import spans as tracing

        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            rounds, rates, latencies, first, failed, mismatches, peak_mb = run_rounds(
                wl, seconds, tracer)
    else:
        setup = Setup(wl.modules, env)
        rounds, rates, latencies, first, failed, mismatches, peak_mb = run_rounds(
            wl, seconds, setup=setup)

    attempted = rounds * len(wl.ops)
    problems = problems_of(wl, first, mismatches)
    for op, answer, ok, _ in first:
        if not ok:
            print("failed operation %s %s: %s" % (op.kind, show(op.key), answer), file=sys.stderr)
    for p in problems[:50]:
        print("CHECK FAILED: %s" % p, file=sys.stderr)

    info = {"workload": name, "seed": seed, "rounds": rounds, "ops_per_round": len(wl.ops),
            "round_rates": rates, "tail_percentile": wl.tail_pct,
            "first_round_s": [[op.kind, show(op.key), dt] for op, _, _, dt in first],
            "package": str(where.parent), "problems": problems[:50]}
    OUT.mkdir(exist_ok=True)
    probed = ()
    if trace:
        metrics, probed = layer_metrics(tracer, wl, seed, rounds, env)
        info["probe_metrics"] = probed
        tracer.write(OUT / ("trace-%s-seed%d.jsonl" % (name, seed)),
                     {"info": info, "metrics": metrics})
        units = tracing.UNITS
    else:
        lat = sorted(latencies)
        metrics = {
            "setup_s": setup.median(),
            "ops_per_s": statistics.median(rates),
            "latency_p50_ms": percentile(lat, 50) * 1e3 if lat else 0.0,
            "latency_tail_ms": percentile(lat, wl.tail_pct) * 1e3 if lat else 0.0,
            "peak_rss_mb": peak_mb,
        }
        info["setup_s"] = setup.times
        units = dict(END_TO_END)
    for key, value in metrics.items():
        print("%-34s %14.6g %-5s%s" % (key, value, units[key], " (probe)" if key in probed else ""))
    print("rounds %d x %d ops, median round %.3f s; attempted %d, failed %d; tail is p%s"
          % (rounds, len(wl.ops), len(wl.ops) / statistics.median(rates) if latencies else 0.0,
             attempted, failed, wl.tail_pct))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / ("result-%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    return result


def layer_metrics(tracer, wl, seed, rounds, env):
    """Per-layer metrics per round, and the names of those measured by a
    probe rather than by the workload.

    Every traced run reports every per-layer metric.  A group the workload
    did not reach is measured by its fixed probe, once, in a tracer of its
    own; the cli metrics of a workload other than ``cli-calls`` come from
    the fixed ``PROBE_CLI`` calls.  Those metrics are listed as probed (in
    the result file's ``probe_metrics`` and marked in the printed table):
    they describe the probe's inputs, not the workload's."""
    import spans as tracing
    import workloads

    metrics, probed = {}, []
    for group, key in tracing.GROUPS.items():
        if tracer.calls(key):
            metrics.update(tracing.group_metrics(tracer, group, rounds))
        else:
            probe = tracing.Tracer()
            clear_caches()
            with tracing.installed(probe):
                tracing.PROBES[group]()
            found = tracing.group_metrics(probe, group, 1)
            metrics.update(found)
            probed += found
    if wl.name == "cli-calls":
        argvs = [argv for argv, _ in workloads.cli_sequence(seed)]
        metrics.update(tracing.cli_metrics(tracer, argvs, env, str(ROOT), CLI_REPEATS))
    else:
        found = tracing.cli_metrics(tracer, tracing.PROBE_CLI, env, str(ROOT), 3)
        metrics.update(found)
        probed += found
    names = [name for name, _, _ in tracing.LAYER_METRICS]
    return {name: metrics[name] for name in names}, [name for name in names if name in probed]


def run_all(seed, seconds):
    """Run every workload in its own process and print one table."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=str(ROOT))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit("error: workload %s exited %d" % (name, proc.returncode))
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("%-16s %9s %7s %8s  %s" % ("workload", "attempted", "failed", "correct",
                                     "  ".join(m for m, _ in END_TO_END)))
    for name, r in rows.items():
        print("%-16s %9d %7d %8s  %s" % (
            name, r["attempted"], r["failed"], r["correct"],
            "  ".join("%.4g %s" % (r["metrics"][m]["value"], u) for m, u in END_TO_END)))
    return {"correct": all(r["correct"] for r in rows.values()),
            "attempted": sum(r["attempted"] for r in rows.values()),
            "failed": sum(r["failed"] for r in rows.values()),
            "workloads": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs untraced")
        result = run_all(args.seed, args.seconds)
    else:
        try:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        except Exception:
            traceback.print_exc()
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
