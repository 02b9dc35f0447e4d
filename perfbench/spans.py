"""Spans for the traced run and the per-layer metrics derived from them.

In traced mode the benchmark wraps public entry points of each layer
(and the few internal names every verdict or scan passes through) on the
diracdual modules, so calls the library makes between its own layers are
recorded too.  A span has a name, start, end, parent span and the index
of the operation that caused it; the span of a lazily consumed K-type
stream ends at its start plus the time spent inside the generator.  Spans are aggregated as they close
(count, inclusive time, self time = inclusive minus child spans); the
first ``MAX_SPANS`` are also kept in memory and written out at the end.

Per-layer figures are per round, so they do not depend on how many
rounds a run holds.  Every traced run reports every per-layer metric:
layers the workload does not reach are measured by a small fixed probe
(``PROBES``, ``PROBE_CLI``) run after the workload, and the run lists the
metrics that came from a probe in its result file (``probe_metrics``) and
marks them in its table.
"""

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc

MAX_SPANS = 20000

# (metric, unit, better); the order is the order of the output
LAYER_METRICS = (
    ("spectrum.kspectrum_s", "s", "lower"),
    ("spectrum.ktypes_generated", "count", "lower"),
    ("dirac.ktypes_scanned", "count", "lower"),
    ("dirac.scan_yield", "ratio", "higher"),
    ("dirac.spin_lkt_calls", "count", "lower"),
    ("dirac.spin_lkt_s", "s", "lower"),
    ("dirac.hd_multiplicity_s", "s", "lower"),
    ("dirac.parity_vanishing_s", "s", "lower"),
    ("characters.engine_build_s", "s", "lower"),
    ("characters.engine_build_peak_mb", "MB", "lower"),
    ("characters.engine_query_us", "us", "lower"),
    ("characters.weight_multiset_s", "s", "lower"),
    ("characters.weights_generated", "count", "lower"),
    ("characters.tensor_decompose_s", "s", "lower"),
    ("unipotent.canonical_param_s", "s", "lower"),
    ("unitarity.decompose_strings_s", "s", "lower"),
    ("weights.dominant_rep_us", "us", "lower"),
    ("unitarity.spherical_s", "s", "lower"),
    ("unitarity.full_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.handler_ms", "ms", "lower"),
)
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

# spans whose every duration is kept, for the median metrics
SAMPLED = {"characters.engine_query", "weights.dominant_rep", "cli.handler"}


class Tracer:
    def __init__(self):
        self.stack = []  # [name, start, child_time, span_id, parent_id]
        self.op = None
        self.next_id = 0
        self.agg = {}  # name -> [count, inclusive, self]
        self.samples = {}  # name -> durations, for the names in SAMPLED
        self.counters = {}
        self.built = set()  # root data whose V(rho) engine was built
        self.spans = []
        self.dropped = 0

    def begin(self, name):
        parent = self.stack[-1][3] if self.stack else None
        self.next_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, self.next_id, parent])

    def end(self):
        t1 = time.perf_counter()
        name, t0, child, span_id, parent = self.stack.pop()
        dur = t1 - t0
        self._close(name, t0, dur, dur - child, span_id, parent)
        return dur

    def record(self, name, start, busy):
        """A span for work done in pieces inside the current span (a lazily
        consumed stream): it ends ``busy`` seconds after ``start``."""
        self.next_id += 1
        parent = self.stack[-1][3] if self.stack else None
        self._close(name, start, busy, busy, self.next_id, parent)

    def _close(self, name, t0, dur, self_time, span_id, parent):
        if self.stack:
            self.stack[-1][2] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += self_time
        if name in SAMPLED:
            self.samples.setdefault(name, []).append(dur)
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, t0, t0 + dur, parent, self.op))
        else:
            self.dropped += 1

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def calls(self, name):
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def write(self, path, extra):
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
            summary = {"summary": {name: {"count": a[0], "inclusive_s": a[1], "self_s": a[2]}
                                   for name, a in sorted(self.agg.items())},
                       "counters": self.counters, "dropped_spans": self.dropped}
            summary.update(extra)
            fh.write(json.dumps(summary) + "\n")


def _wrap(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(result, *args)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Wrap the traced names on every diracdual module that holds them."""
    from diracdual import characters, dirac, spectrum, unipotent, unitarity, weights

    restore = []

    def patch(module, attr, make, namespaces=None):
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapper = make(orig)
        for mod in namespaces or [m for n, m in sorted(sys.modules.items())
                                  if n.startswith("diracdual") and m is not None]:
            if getattr(mod, attr, None) is orig:
                restore.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def kspectrum(orig):
        # The scan consumes the stream lazily, between its own work, so the
        # span counts only the time spent inside the generator.
        def wrapper(fam, bound):
            caller = tracer.stack[-1][0] if tracer.stack else None
            inner = orig(fam, bound)
            start = time.perf_counter()
            busy = 0.0
            count = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    count += 1
                    yield item
            finally:
                tracer.record("spectrum.kspectrum", start, busy)
                tracer.count("spectrum.ktypes_generated", count)
                if caller == "dirac.spin_lkt_unipotent":
                    tracer.count("dirac.ktypes_generated_for_scan", count)

        return wrapper

    def scanned(res, *args):
        tracer.count("dirac.ktypes_scanned", res.checks.get("candidates", 0))

    def weights_made(res, *args):
        tracer.count("characters.weights_generated", len(res))

    patch(spectrum, "kspectrum", kspectrum)
    patch(dirac, "spin_lkt_unipotent",
          lambda f: _wrap(tracer, "dirac.spin_lkt_unipotent", f, scanned))
    patch(dirac, "hd_multiplicity", lambda f: _wrap(tracer, "dirac.hd_multiplicity", f))
    patch(dirac, "parity_vanishing", lambda f: _wrap(tracer, "dirac.parity_vanishing", f))
    patch(characters, "weight_multiset",
          lambda f: _wrap(tracer, "characters.weight_multiset", f, weights_made))
    patch(characters, "tensor_decompose", lambda f: _wrap(tracer, "characters.tensor_decompose", f))
    patch(unipotent, "canonical_param", lambda f: _wrap(tracer, "unipotent.canonical_param", f))
    patch(unitarity, "_decompose", lambda f: _wrap(tracer, "unitarity.decompose_strings", f))
    patch(unitarity, "spherical_unitarity", lambda f: _wrap(tracer, "unitarity.spherical", f))
    patch(unitarity, "full_unitarity", lambda f: _wrap(tracer, "unitarity.full", f))
    # the verdict path's own calls into the weights layer
    patch(weights, "dominant_rep", lambda f: _wrap(tracer, "weights.dominant_rep", f),
          namespaces=[unitarity, unipotent])

    engine = getattr(characters, "RhoTensorEngine", None)
    if engine is not None:
        init, query = engine.__init__, engine.multiplicity

        def traced_init(self, datum):
            tracer.built.add(datum)
            tracer.begin("characters.engine_build")
            try:
                init(self, datum)
            finally:
                tracer.end()

        engine.__init__ = traced_init
        engine.multiplicity = _wrap(tracer, "characters.engine_query", query)
        restore += [(engine, "__init__", init), (engine, "multiplicity", query)]
    try:
        yield
    finally:
        for obj, attr, orig in reversed(restore):
            setattr(obj, attr, orig)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# group -> the span whose presence shows the workload reached the group
GROUPS = {
    "dirac": "dirac.spin_lkt_unipotent",
    "engine": "characters.engine_build",
    "tensor": "characters.tensor_decompose",
    "unitarity": "unitarity.spherical",
}


def group_metrics(tracer, group, rounds):
    """The metrics of one group from a tracer, per round."""
    agg = tracer.agg

    def incl(name):
        return agg.get(name, (0, 0.0, 0.0))[1] / rounds

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2] / rounds

    def median_us(name):
        xs = tracer.samples.get(name)
        return statistics.median(xs) * 1e6 if xs else 0.0

    c = tracer.counters
    if group == "dirac":
        generated = c.get("dirac.ktypes_generated_for_scan", 0)
        scanned = c.get("dirac.ktypes_scanned", 0)
        return {
            "spectrum.kspectrum_s": incl("spectrum.kspectrum"),
            "spectrum.ktypes_generated": c.get("spectrum.ktypes_generated", 0) / rounds,
            "dirac.ktypes_scanned": scanned / rounds,
            "dirac.scan_yield": scanned / generated if generated else 0.0,
            "dirac.spin_lkt_calls": tracer.calls("dirac.spin_lkt_unipotent") / rounds,
            "dirac.spin_lkt_s": self_s("dirac.spin_lkt_unipotent"),
            "dirac.hd_multiplicity_s": self_s("dirac.hd_multiplicity"),
            "dirac.parity_vanishing_s": self_s("dirac.parity_vanishing"),
        }
    if group == "engine":
        return {
            "characters.engine_build_s": incl("characters.engine_build"),
            "characters.engine_build_peak_mb": engine_peak_mb(tracer.built),
            "characters.engine_query_us": median_us("characters.engine_query"),
        }
    if group == "tensor":
        return {
            "characters.weight_multiset_s": incl("characters.weight_multiset"),
            "characters.weights_generated": c.get("characters.weights_generated", 0) / rounds,
            "characters.tensor_decompose_s": self_s("characters.tensor_decompose"),
        }
    if group == "unitarity":
        return {
            "unipotent.canonical_param_s": incl("unipotent.canonical_param"),
            "unitarity.decompose_strings_s": incl("unitarity.decompose_strings"),
            "weights.dominant_rep_us": median_us("weights.dominant_rep"),
            "unitarity.spherical_s": self_s("unitarity.spherical"),
            "unitarity.full_s": self_s("unitarity.full"),
        }
    raise ValueError(group)


def engine_peak_mb(built):
    """Traced-allocation peak of building the largest engine among
    ``built`` once more under tracemalloc (tracemalloc slows the build
    several times, so the timed builds run without it)."""
    from diracdual import characters
    from diracdual.weights import rho

    if not built:
        return 0.0
    largest = max(built, key=lambda d: ((max(rho(d).doubled) + 1) ** d.rank, str(d)))
    tracemalloc.start()
    try:
        characters.RhoTensorEngine(largest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


# ---------------------------------------------------------------------------
# probes for the layers a workload does not reach
# ---------------------------------------------------------------------------


def _probe_dirac():
    from diracdual import dirac, spectrum

    for kind, a, b in (("B", 2, 3), ("D_even", 2, 3), ("D_odd", 2, 3)):
        fam = spectrum.UnipotentFamily(kind, a=a, b=b)
        dirac.spin_lkt_unipotent(fam)
        dirac.hd_multiplicity(fam, via_tensor=True)
        if kind == "D_odd":
            dirac.parity_vanishing(fam, 4)


def _probe_engine():
    from diracdual import characters
    from diracdual.weights import HalfIntVec, RootDatum, dominant_rep, rho

    for family in "BCD":
        datum = RootDatum(family, 5)
        engine = characters.rho_tensor_engine(datum)
        for top in range(4):
            eta = HalfIntVec((2 * top, 2, 2, 0, 0))
            engine.multiplicity(eta, dominant_rep(eta - rho(datum), datum))


def _probe_tensor():
    from diracdual import characters
    from diracdual.weights import HalfIntVec, RootDatum

    for family in "ABCD":
        datum = RootDatum(family, 3)
        for a, b in (((6, 4, 2), (4, 2, 0)), ((8, 2, 2), (2, 2, 0)), ((4, 4, 0), (6, 2, 2))):
            characters.tensor_decompose(characters.KType(HalfIntVec(a), datum),
                                        characters.KType(HalfIntVec(b), datum))


def _probe_unitarity():
    import random

    from diracdual import unitarity
    from diracdual.weights import HalfIntVec, RootDatum, ZhParam

    import workloads

    rng = random.Random("unitarity-probe")
    for family in "BCD":
        for n in (3, 4, 5, 6):
            datum = RootDatum(family, n)
            for _ in range(6):
                lam = workloads.spherical_draw(rng, family, n)
                unitarity.spherical_unitarity(workloads._hv(lam), datum)
                left, right = workloads.nonspherical_draw(rng, family, n)
                unitarity.full_unitarity(ZhParam(workloads._hv(left), workloads._hv(right), datum))


PROBES = {"dirac": _probe_dirac, "engine": _probe_engine, "tensor": _probe_tensor,
          "unitarity": _probe_unitarity}

PROBE_CLI = (
    ["rho", "--type", "B", "--rank", "3", "--json"],
    ["unitarity", "--type", "B", "--lambda", "9/2,7/2,1/2", "--json"],
    ["dirac", "--family", "C_even", "--n", "2", "--json"],
)


def cli_metrics(tracer, argvs, env, cwd, repeats):
    """cli.interpreter_s: a bare interpreter; cli.import_s: a fresh
    ``import diracdual.cli`` minus that control (medians, interleaved);
    cli.handler_ms: median of cli.main(argv) in-process, stdout captured."""
    from diracdual import cli

    bare, full = [], []
    for _ in range(repeats):
        for name, code, out in (("cli.interpreter", "pass", bare),
                                ("cli.import", "import diracdual.cli", full)):
            tracer.begin(name)
            try:
                subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True)
            finally:
                out.append(tracer.end())
    handler = []
    for argv in argvs:
        sink = io.StringIO()
        tracer.begin("cli.handler")
        try:
            with contextlib.redirect_stdout(sink):
                cli.main(list(argv))
        finally:
            handler.append(tracer.end())
    interp = statistics.median(bare)
    return {
        "cli.interpreter_s": interp,
        "cli.import_s": statistics.median(full) - interp,
        "cli.handler_ms": statistics.median(handler) * 1e3,
    }
