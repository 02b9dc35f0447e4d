"""The four benchmark workloads.

Each workload is built from a seed and holds one *round*: a fixed list of
operations that every round of a run repeats in the same order.  Every
round starts from cold package caches (see ``run.clear_caches``), so all
rounds of a run do the same work and a run's figures do not depend on how
many rounds fit in it.  ``check`` verifies the answers of one round with
the independent code in ``checks``; later rounds must repeat them exactly.

Operations look the library functions up on their modules at call time,
so the traced run's wrappers see every call.
"""

import importlib.util
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import checks

HALF = Fraction(1, 2)


class Op:
    """One operation: ``fn()`` does the work, ``key`` names its input."""

    __slots__ = ("kind", "key", "fn")

    def __init__(self, kind, key, fn):
        self.kind = kind
        self.key = key
        self.fn = fn


class Workload:
    """A named list of operations and the checker for their answers.

    ``modules`` are the diracdual modules the workload imports (timed as
    set-up); the latency metrics are over the operations of kind
    ``latency_kind`` (all operations where it is None); ``tail_pct`` is the
    latency percentile reported as ``latency_tail_ms``, chosen so that at
    least ten of those operations of ``min_rounds`` rounds lie beyond it.
    ``may_fail`` holds the keys of
    the operations that are known to raise, and ``may_fail_with`` the start
    of the ``"<exception>: <message>"`` text they must raise with; any other
    operation that raises makes the run incorrect.
    """

    def __init__(self, name, modules, ops, check, tail_pct, min_rounds=1,
                 children=False, warmup=True, may_fail=(), may_fail_with=None,
                 latency_kind=None):
        self.name = name
        self.modules = modules
        self.ops = ops
        self.check = check
        self.tail_pct = tail_pct
        self.min_rounds = min_rounds
        self.children = children  # the work runs in child processes
        self.warmup = warmup  # the first round is untimed
        self.may_fail = frozenset(may_fail)
        self.may_fail_with = may_fail_with
        self.latency_kind = latency_kind
        timed = sum(1 for op in ops if latency_kind in (None, op.kind))
        beyond = timed * min_rounds * (1 - tail_pct / 100.0)
        if beyond < 10:
            raise ValueError("%s: p%s has only %.1f samples beyond it" % (name, tail_pct, beyond))


def _hv(values):
    """HalfIntVec from Fractions/ints."""
    from diracdual.weights import HalfIntVec

    return HalfIntVec(tuple(int(2 * Fraction(v)) for v in values))


def _fr(vec):
    """Fraction tuple from a HalfIntVec."""
    return tuple(Fraction(c, 2) for c in vec.doubled)


# ---------------------------------------------------------------------------
# dirac-catalogue
# ---------------------------------------------------------------------------

PARITY_BOUND = 4  # coordinate cap of the parity_vanishing certificate


def catalogue_families():
    """Every catalogued series family of size at most 6."""
    fams = []
    for a in range(1, 7):
        for b in range(a, 7 - a):
            for kind in ("B", "D_even", "D_odd"):
                fams.append({"kind": kind, "a": a, "b": b})
    for n in range(1, 7):
        for kind in ("C_even", "C_odd"):
            fams.append({"kind": kind, "n": n})
    return fams


def dirac_catalogue(seed):
    from diracdual import dirac, spectrum

    # The catalogue is fixed, so the seed changes nothing here.  The order
    # is fixed too: families sharing a root datum share one cached V(rho)
    # engine, and the heap left by one family shapes the peak memory of
    # the next, so a shuffled order would move both per-family times and
    # peak_rss_mb from run to run.
    groups = {}
    for fam in catalogue_families():
        key = (checks.family_type(fam["kind"]),
               checks.family_rank(fam["kind"], fam.get("a", 0), fam.get("b", 0), fam.get("n", 0)))
        groups.setdefault(key, []).append(fam)

    def make(fam):
        uf = spectrum.UnipotentFamily(fam["kind"], a=fam.get("a", 0), b=fam.get("b", 0),
                                      n=fam.get("n", 0))
        vanishing = not checks.expect_nonzero(fam["kind"], fam.get("a", 0), fam.get("b", 0),
                                              fam.get("n", 0))

        def fn():
            res = dirac.spin_lkt_unipotent(uf)
            hd = dirac.hd_multiplicity(uf, via_tensor=True)
            pv = dirac.parity_vanishing(uf, PARITY_BOUND) if vanishing else None
            return res, hd, pv

        return Op("family", fam, fn)

    ops = [make(fam) for key in sorted(groups) for fam in groups[key]]

    def check(results):
        problems = []
        for op, (res, hd, pv) in results:
            lkts = [(_fr(kt.hw), m) for kt, m in res.spin_lkts]
            problems += checks.check_family(op.key, lkts, res.checks["min_spin_norm_sq_x4"], hd, pv)
        return problems

    # A round (~19 s) is as long as a run, so there is no warm-up round.
    # Two timed rounds give 78 latencies, enough for a tail (p87) that
    # lands on the scan-bound families rather than between the cheap ones.
    return Workload("dirac-catalogue", ["diracdual.spectrum", "diracdual.dirac"], ops, check,
                    tail_pct=87, min_rounds=2, warmup=False)


# ---------------------------------------------------------------------------
# tensor-engine
# ---------------------------------------------------------------------------

# rank -> (pairs per type, largest coordinate of a, of b); rank-3 pairs are
# kept small because the brute-force oracle checks every one of them
PAIRS = {2: (20, 3, 3), 3: (10, 2, 1)}
# Rank-4 pairs cost from 0.1 to 50 ms and make up most of the round's pair
# time and the latency figures, so they are not drawn from the seed: with
# 20 or 60 random draws per type their total time moved by a half between
# seeds, and with a seeded pairing of the weights below the pairs' median
# latency still moved by a fifth.  Each pass pairs every dominant weight
# with entries <= 3 with another, so it is once an a and once a b; the
# pairing and the order are drawn once, from a fixed generator.
RANK4_CAP = 3
RANK4_PASSES = 2
ENGINES = (("B", 5), ("B", 6), ("C", 5), ("C", 6), ("D", 5), ("D", 6))
ETAS_PER_ENGINE = 10


def random_hw(rng, family, rank, cap):
    """A random dominant integral highest weight with entries at most cap."""
    xs = sorted((rng.randint(0, cap) for _ in range(rank)), reverse=True)
    if family == "D" and xs[-1] and rng.random() < 0.5:
        xs[-1] = -xs[-1]
    return tuple(Fraction(x) for x in xs)


def dominant_hws(family, rank, cap):
    """Every dominant integral highest weight with entries at most cap (in
    type D also those with the last entry negated), as random_hw draws them."""
    out = []
    for xs in itertools.combinations_with_replacement(range(cap, -1, -1), rank):
        out.append(tuple(Fraction(x) for x in xs))
        if family == "D" and xs[-1]:
            out.append(tuple(Fraction(x) for x in xs[:-1] + (-xs[-1],)))
    return out


def load_oracle(root):
    """The frozen brute-force character oracle of the test suite."""
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tensor_engine(seed, root):
    from diracdual import characters
    from diracdual.weights import RootDatum

    rng = random.Random("tensor-engine-%d" % seed)

    def pair(family, a, b, kind="pair"):
        datum = RootDatum(family, len(a))
        ka = characters.KType(_hv(a), datum)
        kb = characters.KType(_hv(b), datum)
        return Op(kind, (family, a, b), lambda: characters.tensor_decompose(ka, kb))

    pair_blocks, engine_blocks = [], []
    for family in "ABCD":
        for rank, (count, cap_a, cap_b) in PAIRS.items():
            pair_blocks.append([pair(family, random_hw(rng, family, rank, cap_a),
                                random_hw(rng, family, rank, cap_b)) for _ in range(count)])
        block = []
        hws = dominant_hws(family, 4, RANK4_CAP)
        fixed = random.Random("tensor-engine-rank4-" + family)
        for _ in range(RANK4_PASSES):
            left, right = fixed.sample(hws, len(hws)), fixed.sample(hws, len(hws))
            block += [pair(family, a, b, "rank4-pair") for a, b in zip(left, right)]
        pair_blocks.append(block)
    for family, rank in ENGINES:
        datum = RootDatum(family, rank)
        block = [Op("build", (family, rank),
                    lambda d=datum: characters.rho_tensor_engine(d) is not None)]
        r = checks.rho(family, rank)
        roots = checks.positive_roots(family, rank)
        for _ in range(ETAS_PER_ENGINE):
            eta = random_hw(rng, family, rank, 3)
            prv = checks.dominant(checks.sub(eta, r), family)
            # a weight of V(rho) is rho minus a sum of distinct positive roots
            drop = [alpha for alpha in roots if rng.random() < 0.5]
            shift = tuple(sum(Fraction(al[i]) for al in drop) for i in range(rank))
            other = checks.dominant(checks.sub(checks.add(eta, r), shift), family)
            for x, y in ((eta, prv), (prv, eta), (eta, other), (other, eta)):
                hx, hy = _hv(x), _hv(y)
                block.append(Op("query", (family, rank, x, y),
                                lambda d=datum, hx=hx, hy=hy:
                                characters.rho_tensor_engine(d).multiplicity(hx, hy)))
        engine_blocks.append(block)
    # Blocks run in a fixed order: which engines are alive while the
    # largest one is built sets the peak memory.  The engines come first,
    # while the heap holds nothing of this round yet: built after the pairs,
    # they found a heap cut up by the pairs' caches, whose sizes depend on
    # the seed, and one seed in five needed another 37 MB.
    ops = [op for block in engine_blocks + pair_blocks for op in block]

    def check(results):
        oracle = load_oracle(root)
        problems = []
        engines = {}
        for op, res in results:
            if op.kind in ("pair", "rank4-pair"):
                family, a, b = op.key
                terms = {_fr(kt.hw): m for kt, m in res}
                expected = None
                if len(a) <= 3:
                    raw = oracle.tensor_decompose(family, len(a), _hv(a).doubled, _hv(b).doubled)
                    expected = {tuple(Fraction(c, 2) for c in hw): m for hw, m in raw.items()}
                problems += checks.check_tensor(family, a, b, terms, expected)
            elif op.kind == "query":
                family, rank, x, y = op.key
                engines.setdefault(family + str(rank), {})[(x, y)] = res
        for name, answers in sorted(engines.items()):
            problems += checks.check_engine(name[0], answers)
        return problems

    # Latencies are over the fixed rank-4 pairs only.  With the builds and
    # the queries (rank-5 and rank-6 engines, 0.5 and 2-3 ms) in, the median
    # fell where the query and pair populations overlap; with the seeded
    # rank-2 and rank-3 pairs in, it sat where those pairs end and the
    # rank-4 ones begin, near 1 ms, where ten places in the sorted list span
    # a fifth of the value, and how many seeded pairs fell below it changed
    # with the seed: the median's spread over ten seeds was 0.11 in one set
    # and 0.34 in another.  The rank-4 pairs are the same in every run.
    return Workload("tensor-engine", ["diracdual.characters"], ops, check, tail_pct=96,
                    latency_kind="rank4-pair")


# ---------------------------------------------------------------------------
# unitarity-sweep
# ---------------------------------------------------------------------------

SWEEP_RANKS = (3, 4, 5, 6, 7, 8)
SPHERICAL_PER_RANK = 100
NONSPHERICAL_PER_RANK = 60

# Hermitian type-D parameters whose level-1 part holds both the
# (1/2 \ -1/2) block and the (1,0 \ 0,-1) block.  full_unitarity hands
# them to relevant_unitarity, which rejects them as malformed; they stay
# in every round, counted as failed, until that is fixed.
MULTI_BLOCK_ERROR = "ValueError: malformed non-spherical block"
MULTI_BLOCK = (
    ("1,1/2,0", "0,-1/2,-1"),
    ("3/2,1,1/2,0", "-3/2,0,-1/2,-1"),
    ("5/2,2,1,1/2,0", "5/2,2,0,-1/2,-1"),
    ("7/2,5/2,3/2,1,1/2,0", "7/2,5/2,-3/2,0,-1/2,-1"),
    ("3,5/2,2,3/2,1,1/2,0", "3,5/2,-2,-3/2,0,-1/2,-1"),
    ("4,7/2,5/2,2,3/2,1,1/2,0", "4,7/2,-5/2,-2,-3/2,0,-1/2,-1"),
)


def _regular(values, family):
    mags = [abs(v) for v in values]
    if len(set(mags)) != len(mags):
        return False
    return family == "D" or all(m != 0 for m in mags)


def spherical_draw(rng, family, n):
    """A regular dominant lambda with 2*lambda integral: catalogue members,
    near misses (one entry pushed out by one) and generic parameters."""
    while True:
        mode = rng.random()
        if mode < 0.3:
            if family == "B":
                k0 = rng.randint((n + 1) // 2, n)
            elif family == "C":
                k0 = rng.choice((0, n))
            else:
                k0 = rng.randint(0, n // 2)
            coords = [Fraction(2 * i + 1, 2) for i in range(k0)]
            start = 0 if family == "D" else 1
            coords += [Fraction(start + i) for i in range(n - k0)]
            if mode < 0.12:
                coords[rng.randrange(n)] += 1
        else:
            lo = 0 if family == "D" else 1
            coords = rng.sample([Fraction(c, 2) for c in range(lo, 4 * n + 2)], n)
        if _regular(coords, family):
            return tuple(sorted(coords, reverse=True))


def _hermitian(pairs, family):
    """Is some Weyl element w with w(L, R) = (-R, -L)?  Pairs are matched
    up to simultaneous sign flips; type D needs an even number of flips
    unless a (0, 0) pair absorbs one."""
    from collections import Counter

    have = Counter(pairs)
    want = Counter((-r, -l) for l, r in pairs)
    parity = 0
    for p in set(have) | set(want):
        q = (-p[0], -p[1])
        if p == q or p < q:
            continue
        if have[p] + have[q] != want[p] + want[q]:
            return False
        parity += have[p] + want[p]
    return family != "D" or parity % 2 == 0 or have[(0, 0)] > 0


def nonspherical_draw(rng, family, n):
    """A regular Hermitian parameter (lambda_L, lambda_R) that is not
    spherical: GL levels >= 2 carrying a run symmetric about level/2 (a
    unitary character, or a split run that is not one), the (1/2 \\ -1/2)
    block or, in type D, the (1,0 \\ 0,-1) block, and spherical entries.
    The two small blocks never occur together."""
    while True:
        pairs = []
        block = rng.choice(("half", "gl2", "none") if family == "D" else ("half", "none"))
        if block == "half":
            pairs.append((HALF, -HALF))
        elif block == "gl2":
            pairs += [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))]
        for _ in range(rng.choice((0, 1, 1, 2)) if block != "none" else rng.choice((1, 2))):
            level = rng.randint(2, 5)
            if rng.random() < 0.75:
                m = rng.randint(1, 3)
                values = [Fraction(level, 2) + Fraction(m - 1, 2) - i for i in range(m)]
            else:
                k = Fraction(rng.randint(2, 6), 2)
                values = [Fraction(level, 2) + k, Fraction(level, 2) - k]
            pairs += [(x, x - level) for x in values]
        if len(pairs) > n:
            continue
        pool = [Fraction(c, 2) for c in range(0 if family == "D" else 1, 4 * n + 2)]
        used = {abs(l) for l, _ in pairs}
        pool = [c for c in pool if c not in used]
        pairs += [(c, c) for c in rng.sample(pool, n - len(pairs))]
        pairs = [(l, r) if rng.random() < 0.5 else (-l, -r) for l, r in pairs]
        rng.shuffle(pairs)
        if _regular([l for l, _ in pairs], family) and _hermitian(pairs, family):
            return tuple(l for l, _ in pairs), tuple(r for _, r in pairs)


def unitarity_sweep(seed):
    from diracdual import unitarity
    from diracdual.weights import RootDatum, ZhParam

    rng = random.Random("unitarity-sweep-%d" % seed)
    ops = []
    multi_block = []
    for family in "BCD":
        for n in SWEEP_RANKS:
            datum = RootDatum(family, n)
            for _ in range(SPHERICAL_PER_RANK):
                lam = spherical_draw(rng, family, n)
                hv = _hv(lam)
                ops.append(Op("spherical", (family, lam, lam),
                              lambda hv=hv, d=datum: unitarity.spherical_unitarity(hv, d)))
            for _ in range(NONSPHERICAL_PER_RANK):
                left, right = nonspherical_draw(rng, family, n)
                param = ZhParam(_hv(left), _hv(right), datum)
                ops.append(Op("full", (family, left, right),
                              lambda p=param: unitarity.full_unitarity(p)))
    for left, right in MULTI_BLOCK:
        lv, rv = checks.parse_weight(left), checks.parse_weight(right)
        param = ZhParam(_hv(lv), _hv(rv), RootDatum("D", len(lv)))
        multi_block.append(("D", lv, rv))
        ops.append(Op("full", multi_block[-1], lambda p=param: unitarity.full_unitarity(p)))
    rng.shuffle(ops)

    def check(results):
        problems = []
        for op, verdict in results:
            family, left, right = op.key
            if op.kind == "spherical":
                problems += checks.check_spherical(family, left, verdict.status)
            if verdict.status == "Unitary":
                problems += checks.check_unitary(family, left, right)
            elif verdict.status == "NonUnitary":
                witness = [_fr(kt.hw) for kt in verdict.witness]
                problems += checks.check_witness(family, len(left), witness)
            else:
                problems.append("%s %s: unknown status %r" % (family, left, verdict.status))
        return problems

    return Workload("unitarity-sweep", ["diracdual.unitarity"], ops, check, tail_pct=99.5,
                    may_fail=multi_block, may_fail_with=MULTI_BLOCK_ERROR)


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------

def _arg(values):
    return ",".join(str(v) for v in values)


def cli_sequence(seed):
    """The round's (argv, check key) pairs; the seed picks the rho, dim and
    tensor arguments, the rest are the README tour and the fixtures."""
    rng = random.Random("cli-calls-%d" % seed)
    family = rng.choice("ABCD")
    rank = rng.randint(2, 8)
    seq = [(["rho", "--type", family, "--rank", str(rank)], ("rho", family, rank)),
           (["rho", "--type", "B", "--rank", "3"], ("rho", "B", 3))]
    family = rng.choice("ABCD")
    hw = random_hw(rng, family, rng.randint(3, 5), 4)
    seq.append((["dim", "--type", family, "--hw", _arg(hw)], ("dim", family, hw)))
    family = rng.choice("ABCD")
    a, b = random_hw(rng, family, 2, 3), random_hw(rng, family, 2, 3)
    seq.append((["tensor", "--type", family, "--a", _arg(a), "--b", _arg(b)],
                ("tensor", family, a, b)))
    for lam in ("5/2,3/2,1/2", "9/2,7/2,1/2"):
        seq.append((["unitarity", "--type", "B", "--lambda", lam],
                    ("unitarity", "unitarity B3 " + lam)))
    family = rng.choice("BCD")
    left, right = nonspherical_draw(rng, family, rng.randint(3, 5))
    seq.append((["unitarity", "--type", family, "--lambda-l", _arg(left), "--lambda-r", _arg(right)],
                ("full", family, left, right)))
    seq.append((["catalog", "--type", "C", "--partition", "2,2,2"], ("catalog", "catalog C 2,2,2")))
    seq.append((["dirac", "--family", "C_even", "--n", "2"], ("dirac", "dirac C_even 2")))
    seq.append((["fixtures"], ("fixtures",)))
    return [(argv + ["--json"], key) for argv, key in seq]


def cli_calls(seed, env, cwd):
    def make(argv, key):
        cmd = [sys.executable, "-m", "diracdual.cli"] + argv

        def fn():
            proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                                  timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        return Op("call", key, fn)

    ops = [make(argv, key) for argv, key in cli_sequence(seed)]

    def check(results):
        problems = []
        for op, (code, out, err) in results:
            if code != 0:
                problems.append("%s: exit %d: %s" % (op.key, code, err.strip()))
                continue
            try:
                record = json.loads(out)
            except ValueError:
                problems.append("%s: output is not JSON" % (op.key,))
                continue
            if op.key[0] == "full":
                family, left, right = op.key[1:]
                if record.get("status") == "Unitary":
                    problems += checks.check_unitary(family, left, right)
                else:
                    witness = [checks.parse_weight(w) for w in record.get("witness", ())]
                    problems += checks.check_witness(family, len(left), witness)
            else:
                problems += checks.check_cli(op.key, record)
        return problems

    return Workload("cli-calls", ["diracdual.cli"], ops, check, tail_pct=75, min_rounds=4,
                    children=True)
