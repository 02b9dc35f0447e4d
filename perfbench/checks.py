"""Independent answer checks for the benchmark.

Nothing here imports diracdual.  Weights are tuples of Fractions (or of
ints and Fractions); root data are (family, rank) pairs.  Each checker
returns a list of problems, empty when the answer is accepted, so a
caller can report every failure of a run at once.

The mathematics is recomputed from closed forms:

* rho, the positive roots, the dominant representative and the longest
  Weyl element of the classical families A-D;
* the Weyl dimension formula;
* 2*lambda and the K-spectrum shape of every catalogued series family;
* the even/odd rule for which C/D family members carry Dirac cohomology;
* the unitary spherical catalogue (anchored-string shapes);
* Parthasarathy's Dirac inequality ||{mu-rho}+rho|| >= ||lambda_L+lambda_R||.
"""

from fractions import Fraction


def frac_vec(values):
    return tuple(Fraction(v) for v in values)


def fmt(v):
    """A weight as in the CLI: "(5/2,3/2,1/2)"."""
    return "(%s)" % ",".join(str(Fraction(x)) for x in v)


def parse_weight(text):
    """"5/2,3/2,1/2" -> (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))."""
    return tuple(Fraction(p.strip()) for p in text.split(",") if p.strip())


def rho(family, rank):
    if family == "A":
        return tuple(Fraction(rank - 1 - 2 * i, 2) for i in range(rank))
    if family == "B":
        return tuple(Fraction(2 * (rank - i) - 1, 2) for i in range(rank))
    if family == "C":
        return tuple(Fraction(rank - i) for i in range(rank))
    if family == "D":
        return tuple(Fraction(rank - 1 - i) for i in range(rank))
    raise ValueError("unknown family %r" % (family,))


def positive_roots(family, rank):
    roots = []
    for i in range(rank):
        for j in range(i + 1, rank):
            minus = [0] * rank
            minus[i], minus[j] = 1, -1
            roots.append(tuple(minus))
            if family != "A":
                plus = [0] * rank
                plus[i], plus[j] = 1, 1
                roots.append(tuple(plus))
    if family in ("B", "C"):
        for i in range(rank):
            r = [0] * rank
            r[i] = 1 if family == "B" else 2
            roots.append(tuple(r))
    return roots


def dominant(v, family):
    """Dominant representative of the Weyl orbit of v."""
    v = frac_vec(v)
    if family == "A":
        return tuple(sorted(v, reverse=True))
    mags = sorted((abs(x) for x in v), reverse=True)
    if family == "D" and all(x != 0 for x in v):
        if sum(1 for x in v if x < 0) % 2:
            mags[-1] = -mags[-1]
    return tuple(mags)


def is_dominant(v, family):
    v = frac_vec(v)
    return dominant(v, family) == v


def w0(v, family):
    """The longest Weyl element applied to v."""
    v = frac_vec(v)
    if family == "A":
        return tuple(reversed(v))
    out = [-x for x in v]
    if family == "D" and len(v) % 2 == 1:
        out[-1] = v[-1]
    return tuple(out)


def norm_sq(v):
    return sum(Fraction(x) * Fraction(x) for x in v)


def add(u, v):
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v))


def sub(u, v):
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def weyl_dim(hw, family):
    """Weyl dimension formula."""
    hw = frac_vec(hw)
    r = rho(family, len(hw))
    shifted = add(hw, r)
    num = den = Fraction(1)
    for alpha in positive_roots(family, len(hw)):
        num *= sum(a * x for a, x in zip(alpha, shifted))
        den *= sum(a * x for a, x in zip(alpha, r))
    value = num / den
    if value.denominator != 1 or value <= 0:
        raise ValueError("Weyl formula gave %s for %s %s" % (value, family, hw))
    return int(value)


def spin_norm_sq(eta, family):
    """||{eta - rho} + rho||^2."""
    r = rho(family, len(eta))
    return norm_sq(add(dominant(sub(eta, r), family), r))


# ---------------------------------------------------------------------------
# dirac-catalogue
# ---------------------------------------------------------------------------


def family_rank(kind, a=0, b=0, n=0):
    return n if kind.startswith("C_") else a + b


def family_type(kind):
    return kind[0]


def two_lambda(kind, a=0, b=0, n=0):
    """2*lambda from the closed forms of the family's strings.

    B(a,b): lambda = (b-1/2, ..., 1/2) u (a, ..., 1);
    C_even(n), C_odd(n): lambda = (n-1/2, ..., 1/2);
    D_even(a,b), D_odd(a,b): lambda = (a-1/2, ..., 1/2) u (b-1, ..., 0).
    """
    if kind == "B":
        coords = [2 * i - 1 for i in range(1, b + 1)] + [2 * i for i in range(1, a + 1)]
    elif kind in ("C_even", "C_odd"):
        coords = [2 * i - 1 for i in range(1, n + 1)]
    elif kind in ("D_even", "D_odd"):
        coords = [2 * i - 1 for i in range(1, a + 1)] + [2 * i for i in range(b)]
    else:
        raise ValueError("no closed form for %s" % (kind,))
    return tuple(Fraction(c) for c in sorted(coords, reverse=True))


def expect_nonzero(kind, a=0, b=0, n=0):
    """The even/odd rule: which family members carry Dirac cohomology."""
    return {
        "B": True,
        "C_even": n % 2 == 0,
        "C_odd": n % 2 == 1,
        "D_even": a % 2 == 0,
        "D_odd": a % 2 == 1,
    }[kind]


def in_spectrum_shape(kind, hw, a=0, b=0, n=0):
    """Does hw have the K-spectrum shape of the family?"""
    hw = frac_vec(hw)
    if any(x.denominator != 1 or x < 0 for x in hw):
        return False
    if list(hw) != sorted(hw, reverse=True):
        return False
    if kind in ("C_even", "C_odd"):
        return (
            len(hw) == n
            and all(x == 0 for x in hw[1:])
            and hw[0] % 2 == (0 if kind == "C_even" else 1)
        )
    if len(hw) != a + b:
        return False
    if kind == "B":
        head, tail = hw[: 2 * a], hw[2 * a :]
        return all(head[2 * i] == head[2 * i + 1] for i in range(a)) and not any(tail)
    head, tail = hw[: 2 * a], hw[2 * a :]
    return not any(tail) and sum(head) % 2 == (0 if kind == "D_even" else 1)


def check_family(fam, lkts, min_norm_x4, hd_mult, vanishing):
    """Check one catalogued family's answers.

    ``fam`` is a dict with kind/a/b/n.  ``lkts`` lists (hw, multiplicity)
    pairs for the reported spin-norm minimizers, ``min_norm_x4`` is the
    reported 4*min spin norm, ``hd_mult`` the value of hd_multiplicity
    and ``vanishing`` the parity_vanishing certificate (None when it was
    not asked for).
    """
    kind = fam["kind"]
    a, b, n = fam.get("a", 0), fam.get("b", 0), fam.get("n", 0)
    label = "%s(a=%s,b=%s,n=%s)" % (kind, a, b, n)
    typ = family_type(kind)
    rank = family_rank(kind, a, b, n)
    target = norm_sq(two_lambda(kind, a, b, n))
    problems = []
    for hw, _ in lkts:
        if len(hw) != rank:
            problems.append("%s: minimizer %s has the wrong rank" % (label, fmt(hw)))
        elif not in_spectrum_shape(kind, hw, a, b, n):
            problems.append("%s: minimizer %s is not in the K-spectrum" % (label, fmt(hw)))
        elif spin_norm_sq(hw, typ) * 4 != min_norm_x4:
            problems.append(
                "%s: minimizer %s has spin norm %s, reported %s"
                % (label, fmt(hw), spin_norm_sq(hw, typ), Fraction(min_norm_x4, 4))
            )
    if expect_nonzero(kind, a, b, n):
        if len(lkts) != 1 or lkts[0][1] != 1:
            problems.append("%s: expected one spin-LKT of multiplicity 1, got %s" % (label, lkts))
        if Fraction(min_norm_x4, 4) != target:
            problems.append(
                "%s: spin-LKT norm %s != ||2 lambda||^2 = %s"
                % (label, Fraction(min_norm_x4, 4), target)
            )
        if hd_mult != 2 ** (rank // 2):
            problems.append("%s: hd_multiplicity %s != 2^%d" % (label, hd_mult, rank // 2))
        if vanishing is not None:
            problems.append("%s: parity_vanishing asked of a nonzero family" % (label,))
    else:
        if not lkts:
            problems.append("%s: no spin-norm minimizer reported" % (label,))
        if Fraction(min_norm_x4, 4) <= target:
            problems.append(
                "%s: vanishing family reaches spin norm %s <= %s"
                % (label, Fraction(min_norm_x4, 4), target)
            )
        if hd_mult != 0:
            problems.append("%s: hd_multiplicity %s on a vanishing family" % (label, hd_mult))
        if vanishing is not True:
            problems.append("%s: parity_vanishing gave %r" % (label, vanishing))
    return problems


# ---------------------------------------------------------------------------
# tensor-engine
# ---------------------------------------------------------------------------


def prv(a, b, family):
    """The PRV constituent {a + w0 b}."""
    return dominant(add(a, w0(b, family)), family)


def check_tensor(family, a, b, terms, oracle_terms=None):
    """``terms`` maps highest weights (Fraction tuples) to multiplicities.

    Checks dimension conservation, that the PRV constituent occurs once
    and has strictly the smallest ||tau + rho||, and, when given, equality
    with an independently computed decomposition.
    """
    label = "%s %s (x) %s" % (family, fmt(a), fmt(b))
    problems = []
    if any(m <= 0 for m in terms.values()):
        problems.append("%s: non-positive multiplicity" % label)
    total = sum(m * weyl_dim(hw, family) for hw, m in terms.items())
    want = weyl_dim(a, family) * weyl_dim(b, family)
    if total != want:
        problems.append("%s: sum m*dim = %d, expected %d" % (label, total, want))
    c = prv(a, b, family)
    if terms.get(c) != 1:
        problems.append("%s: PRV constituent %s has multiplicity %s" % (label, fmt(c), terms.get(c)))
    r = rho(family, len(a))
    floor = norm_sq(add(c, r))
    for hw in terms:
        if hw != c and norm_sq(add(hw, r)) <= floor:
            problems.append("%s: %s is not above the PRV constituent" % (label, fmt(hw)))
    if oracle_terms is not None and oracle_terms != terms:
        problems.append("%s: disagrees with the oracle" % label)
    return problems


def check_engine(family, answers):
    """``answers`` maps (eta, tau) to [V(eta) (x) V(rho) : V(tau)].

    V(rho) is self-dual, so m(eta, tau) = m(tau, eta) whenever both were
    asked; the PRV constituent {eta - rho} occurs exactly once.
    """
    problems = []
    r = rho(family, len(next(iter(answers))[0])) if answers else ()
    for (eta, tau), m in answers.items():
        if m < 0:
            problems.append("%s: negative multiplicity at %s, %s" % (family, fmt(eta), fmt(tau)))
        swapped = answers.get((tau, eta))
        if swapped is not None and swapped != m:
            problems.append(
                "%s: m(%s, %s) = %d but m(%s, %s) = %d"
                % (family, fmt(eta), fmt(tau), m, fmt(tau), fmt(eta), swapped)
            )
        if tau == dominant(sub(eta, r), family) and m != 1:
            problems.append("%s: [V(%s) (x) V(rho) : V({eta-rho})] = %d" % (family, fmt(eta), m))
    return problems


# ---------------------------------------------------------------------------
# unitarity-sweep
# ---------------------------------------------------------------------------


def catalogue_shape(coords, family):
    """Is the spherical parameter with these coordinates in the unitary
    catalogue?  B: (K0-1/2, ..., 1/2) u (N0, ..., 1) with 1 <= K0, N0 <= K0;
    C: one anchored string of either parity; D: (N0-1, ..., 0) u
    (K0-1/2, ..., 1/2) with N0 >= 1, N0 >= K0."""
    mags = sorted(abs(Fraction(c)) for c in coords)
    ints = [c for c in mags if c.denominator == 1]
    halves = [c for c in mags if c.denominator == 2]
    half_run = [Fraction(2 * i + 1, 2) for i in range(len(halves))]
    if halves != half_run:
        return False
    if family == "B":
        return 1 <= len(halves) and ints == list(range(1, len(ints) + 1)) and len(ints) <= len(halves)
    if family == "C":
        if ints and halves:
            return False
        return ints == list(range(1, len(ints) + 1))
    return 1 <= len(ints) and ints == list(range(len(ints))) and len(ints) >= len(halves)


def check_spherical(family, lam, status):
    want = "Unitary" if catalogue_shape(lam, family) else "NonUnitary"
    if status != want:
        return ["%s spherical %s: verdict %s, catalogue says %s" % (family, fmt(lam), status, want)]
    return []


def dirac_inequality(family, lam_l, lam_r):
    """(lhs, rhs) of ||{mu - rho} + rho||^2 >= ||lambda_L + lambda_R||^2,
    mu the dominant lowest K-type of the parameter."""
    mu = dominant(sub(lam_l, lam_r), family)
    return spin_norm_sq(mu, family), norm_sq(add(lam_l, lam_r))


def check_unitary(family, lam_l, lam_r):
    lhs, rhs = dirac_inequality(family, lam_l, lam_r)
    if lhs < rhs:
        return [
            "%s (%s ; %s): Unitary verdict breaks the Dirac inequality (%s < %s)"
            % (family, fmt(lam_l), fmt(lam_r), lhs, rhs)
        ]
    return []


def check_witness(family, rank, witness):
    """A NonUnitary verdict names one or two distinct, dominant, integral
    K-types of the parameter's rank."""
    label = "%s%d witness %s" % (family, rank, ", ".join(fmt(hw) for hw in witness))
    problems = []
    if not 1 <= len(witness) <= 2:
        problems.append("%s: %d K-types" % (label, len(witness)))
    if len(set(witness)) != len(witness):
        problems.append("%s: repeated K-type" % label)
    for hw in witness:
        hw = frac_vec(hw)
        if len(hw) != rank:
            problems.append("%s: %s has the wrong rank" % (label, fmt(hw)))
        elif any(x.denominator != 1 for x in hw):
            problems.append("%s: %s is not integral" % (label, fmt(hw)))
        elif not is_dominant(hw, family):
            problems.append("%s: %s is not dominant" % (label, fmt(hw)))
    return problems


def check_failures(failures, may_fail, may_fail_with):
    """Operations that raised, as (key, "<exception>: <message>") pairs.
    Only the keys in ``may_fail`` may raise, and only with a text that
    starts with ``may_fail_with``."""
    problems = []
    for key, text in failures:
        if key not in may_fail:
            problems.append("%s raised %s" % (key, text))
        elif not text.startswith(may_fail_with):
            problems.append("%s raised %s, not %s" % (key, text, may_fail_with))
    return problems


# ---------------------------------------------------------------------------
# cli-calls: the answers the README tour prints
# ---------------------------------------------------------------------------

TOUR = {
    "rho B3": "5/2,3/2,1/2",
    "unitarity B3 5/2,3/2,1/2": ("Unitary", "B:trivial"),
    "unitarity B3 9/2,7/2,1/2": ("NonUnitary", "B:unabsorbed-extra", {"0,0,0", "1,1,0"}),
    "dirac C_even 2": {
        "nonzero": True,
        "tau": "1,0",
        "multiplicity": 2,
        "spin_lkt": "2,0",
        "min_spin_norm_sq_x4": 40,
        "two_lambda_norm_sq_x4": 40,
        "candidates": 4,
        "complete": True,
    },
    "catalog C 2,2,2": {
        "lambda": "3/2,1/2,1/2",
        "component_group_order": 2,
        "stably_trivial": False,
        "triangular": False,
        "parameters": [("3/2,1/2,1/2", "3/2,1/2,1/2"), ("3/2,1/2,1/2", "1/2,3/2,-1/2")],
    },
    "fixtures": {
        "b3_spherical": {"1,1,0", "1,1,1"},
        "b4_spherical": {"1,1,0,0", "2,0,0,0"},
        "c4_nonspherical": {"1,0,0,0", "1,1,1,0"},
        "d3_single_ktype": {"1,1,0"},
        "d5_nonspherical": {"1,1,1,0,0", "2,1,0,0,0"},
    },
}


def check_cli(key, record):
    """Check one parsed ``--json`` record of a CLI call.

    ``key`` is a tuple: ("rho", family, rank), ("dim", family, hw),
    ("tensor", family, a, b), ("unitarity", tour key),
    ("dirac", tour key), ("catalog", tour key) or ("fixtures",).
    """
    kind = key[0]
    problems = []
    if kind == "rho":
        _, family, rank = key
        want = rho(family, rank)
        if parse_weight(record.get("rho", "")) != want:
            problems.append("rho %s%d: got %s" % (family, rank, record.get("rho")))
    elif kind == "dim":
        _, family, hw = key
        if record.get("dim") != weyl_dim(hw, family):
            problems.append("dim %s %s: got %s" % (family, fmt(hw), record.get("dim")))
    elif kind == "tensor":
        _, family, a, b = key
        terms = {parse_weight(t["hw"]): t["mult"] for t in record}
        for t in record:
            if t["dim"] != weyl_dim(parse_weight(t["hw"]), family):
                problems.append("tensor %s: dim of %s is %s" % (family, t["hw"], t["dim"]))
        problems += check_tensor(family, a, b, terms)
    elif kind == "unitarity":
        want = TOUR[key[1]]
        if (record.get("status"), record.get("case")) != want[:2]:
            problems.append("%s: got %s [%s]" % (key[1], record.get("status"), record.get("case")))
        if len(want) > 2 and set(record.get("witness", ())) != want[2]:
            problems.append("%s: witness %s" % (key[1], record.get("witness")))
    elif kind == "dirac":
        want = TOUR[key[1]]
        checks = record.get("checks", {})
        got = {
            "nonzero": record.get("nonzero"),
            "tau": record.get("tau"),
            "multiplicity": record.get("multiplicity"),
            "spin_lkt": (record.get("spin_lkts") or [[None]])[0][0],
        }
        got.update({k: checks.get(k) for k in want if k in checks})
        for k, v in want.items():
            if got.get(k) != v:
                problems.append("%s: %s = %r, expected %r" % (key[1], k, got.get(k), v))
    elif kind == "catalog":
        want = TOUR[key[1]]
        for k in ("lambda", "component_group_order", "stably_trivial", "triangular"):
            if record.get(k) != want[k]:
                problems.append("%s: %s = %r" % (key[1], k, record.get(k)))
        params = [(p["lambda_l"], p["lambda_r"]) for p in record.get("parameters", ())]
        if params != want["parameters"]:
            problems.append("%s: parameters %s" % (key[1], params))
    elif kind == "fixtures":
        want = TOUR["fixtures"]
        if record.get("passed") is not True:
            problems.append("fixtures: passed = %r" % (record.get("passed"),))
        got = {f["name"]: set(f["witness"]) for f in record.get("fixtures", ())}
        if got != want:
            problems.append("fixtures: witnesses %s" % (got,))
    else:
        problems.append("unknown CLI check %r" % (kind,))
    return problems
