"""Spin norms, spin-lowest K-types, and Dirac cohomology.

For a unitary module pi whose infinitesimal character lambda has
2*lambda regular and integral, the spin norm

    ||eta||_spin = ||{eta - rho} + rho||

of its K-types is bounded below by ||2 lambda||, and the cohomology is
nonzero exactly when some K-type attains the bound.  When it does, the
cohomology is 2^[l/2] copies of the single K-type with highest weight
2*lambda - rho', taken in the positive system that makes 2*lambda
dominant.  Everything here is exact integer arithmetic on quadrupled
squared norms.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import add, mul, sub

from .weights import (
    HalfIntVec,
    KType,
    RootDatum,
    dominant_doubled,
    dominant_rep,
    is_regular,
    norm_sq_x4,
    rho,
)
from .characters import _rho_tensor_multiplicities
from .spectrum import _shape, kspectrum, search_norm_bound_x4, two_lambda


@dataclass(frozen=True)
class DiracResult:
    """Outcome of a Dirac-cohomology computation.

    ``spin_lkts`` lists the spin-norm minimizers found, with their
    multiplicity in the module (always 1 here: the catalogued spectra
    are multiplicity free).  ``tau`` and ``multiplicity`` are populated
    only when the cohomology is nonzero.
    """

    nonzero: bool
    tau: object  # KType, or None when the cohomology vanishes
    multiplicity: object  # 2^[l/2], or None
    spin_lkts: tuple  # ((KType, mult), ...)
    checks: dict = field(default_factory=dict, compare=False)

    def as_dict(self):
        return {
            "nonzero": self.nonzero,
            "tau": None if self.tau is None else str(self.tau.hw),
            "multiplicity": self.multiplicity,
            "spin_lkts": [[str(kt.hw), m] for kt, m in self.spin_lkts],
            "checks": dict(self.checks),
        }

    def __str__(self):
        if not self.nonzero:
            lkts = ", ".join(str(kt) for kt, _ in self.spin_lkts)
            return "H_D = 0 (spin-norm minimizers: %s)" % (lkts or "none scanned")
        tail = (
            "spin-LKT %s" % self.spin_lkts[0][0]
            if self.spin_lkts
            else "spin-LKT not certified"
        )
        return "H_D = %d * %s (%s)" % (self.multiplicity, self.tau, tail)


def spin_norm_sq_x4(eta):
    """4 * ||{eta - rho} + rho||^2 for a K-type eta, an exact integer."""
    datum = eta.datum
    return _spin_norm_sq_x4(eta.hw.doubled, datum.family, rho(datum).doubled)


def _spin_norm_sq_x4(doubled, family, rho_doubled):
    """4 * ||{v - rho} + rho||^2 on doubled coordinates, with {v - rho}
    from weights.dominant_doubled.  (rho_n = 0 in type D, so the D sign
    rule never changes the norm.)"""
    dom = dominant_doubled(list(map(sub, doubled, rho_doubled)), family)
    back = list(map(add, dom, rho_doubled))
    return sum(map(mul, back, back))


def spin_lkt_unipotent(fam, bound=None):
    """Scan the family's K-spectrum for its spin-norm minimizers.

    With ``bound=None`` the scan is complete: a K-type with
    ||eta|| > ||2 lambda|| + 2||rho|| satisfies
    ||{eta-rho}+rho|| >= ||eta-rho|| >= ||eta|| - ||rho||, which already
    exceeds every norm the scanned region produces, so no minimizer is
    missed.  That ball (the bound is ``search_norm_bound_x4``) is the
    region searched; ``checks["candidates"]`` counts its K-types.  An
    explicit ``bound`` searches the whole box of K-types with
    coordinates at most ``bound`` instead (possibly truncated; the
    result records whether it was complete).

    Within the region, spin norms are computed only near rho: by the
    Dirac inequality ||{eta-rho}+rho||^2 >= ||eta-rho||^2 + ||rho||^2,
    so ``_scan`` cuts every branch of its column walk that cannot reach
    the best spin norm found so far.  The region's K-types are counted
    once by ``_count_columns``, apart from the walk.  Only the tied
    minimizers are sorted.

    The whole answer, checks included, is derived once per family and
    bound by the cached ``_scan``, which ``hd_multiplicity`` and
    ``parity_vanishing`` read too.  Every call still gets its own
    ``checks`` dict.
    """
    res, _ = _scan(fam, bound)
    return replace(res, checks=dict(res.checks))


@lru_cache(maxsize=256)
def _scan(fam, bound):
    """(spin_lkt_unipotent's result, tau = 2 lambda - rho as a K-type,
    kept even where the result's tau is None), floor, tie and even/odd
    checks done; a failed check raises, and is not cached.

    The columns are walked depth first, carrying the partial
    4*||eta - rho||^2, which splits by column (the padding zeros add a
    fixed sum of rho_i^2).  Since {eta - rho} and rho are both dominant,
    ||{eta - rho} + rho||^2 >= ||eta - rho||^2 + ||rho||^2 (the Dirac
    inequality), so a subtree whose partial sum, plus the least its
    remaining columns can add, plus those fixed terms, exceeds the best
    spin norm found so far holds no minimizer, and is cut.  The columns
    of a level are tried by that lower bound, least first, and best only
    falls, so the walk stops at the first column it cuts.  The K-types
    of the region are counted by one _count_columns call, apart from
    the walk."""
    length, pad, weight, parity = _shape(fam)
    datum = fam.datum
    tl = two_lambda(fam)
    target = norm_sq_x4(tl)
    limit = search_norm_bound_x4(fam)
    cap = isqrt(limit // 4)  # largest single coordinate inside the ball
    complete = True
    if bound is not None:
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        complete = bound >= cap
        cap, limit = bound, None
    family, r = datum.family, rho(datum).doubled
    room = weight * length * cap * cap if limit is None else limit // 4
    # cost[j][x]: what column j adds to 4*||eta - rho||^2 when it is x,
    # sum over its coordinates c of (2x - c)^2
    cost = []
    for j in range(length):
        col = r[weight * j : weight * (j + 1)]
        s1, s2 = 4 * sum(col), sum(c * c for c in col)
        cost.append([(4 * weight * x - s1) * x + s2 for x in range(cap + 1)])
    # floor[j][t]: the least that columns j.. add when each is at most t
    floor = [[0] * (cap + 1)]
    for j in reversed(range(length)):
        floor.append(list(map(add, accumulate(cost[j], min), floor[-1])))
    floor.reverse()
    fixed = sum(c * c for c in r[weight * length :]) + sum(c * c for c in r)
    zeros = (0,) * pad
    best, minimizers = None, []

    def walk(j, top, left, partial, odd, head):
        nonlocal best, minimizers
        if j == length:
            if parity is None or odd == parity:
                hw = head + zeros
                s = _spin_norm_sq_x4(hw, family, r)
                if best is None or s < best:
                    best, minimizers = s, [hw]
                elif s == best:
                    minimizers.append(hw)
            return
        below = floor[j + 1]
        # the most promising columns first, so that best falls early and
        # every column after the first one cut is cut too
        xs = sorted(
            range(min(top, isqrt(left // weight)) + 1),
            key=lambda x: cost[j][x] + below[x],
        )
        for x in xs:
            p = partial + cost[j][x]
            if best is not None and p + below[x] + fixed > best:
                break
            walk(j + 1, x, left - weight * x * x, p, odd ^ (x & 1), head + (2 * x,) * weight)

    walk(0, cap, room, 0, 0, ())
    if best is None:
        raise ValueError("bound %s leaves no K-types to scan" % (bound,))
    if best < target:
        raise RuntimeError(
            "spin norm fell below ||2 lambda|| for %s: scan inconsistency" % (fam,)
        )
    nonzero = best == target
    minimizers.sort(key=lambda hw: (sum(c * c for c in hw), hw))
    minimizers = [KType(HalfIntVec(hw), datum) for hw in minimizers]
    if nonzero and len(minimizers) > 1:
        raise RuntimeError(
            "spin-norm tie on the floor for %s: %s"
            % (fam, ", ".join(str(m) for m in minimizers))
        )
    # the even/odd selection rule (none for B, where every member has
    # cohomology): a C/D member carries cohomology exactly when its size,
    # n for C and a for D, has its K-types' coordinate-sum parity
    rule = None if fam.parity is None else (
        (fam.n if family == "C" else fam.a) % 2 == fam.parity
    )
    if complete and rule is not None and rule != nonzero:
        raise RuntimeError(
            "even/odd selection rule disagrees with the scan for %s" % (fam,)
        )
    checks = {
        "min_spin_norm_sq_x4": best,
        "two_lambda_norm_sq_x4": target,
        "coordinate_bound": cap,
        "candidates": _count_columns(length, cap, room, weight, parity, {}),
        "complete": complete,
    }
    if rule is not None:
        checks["parity_rule_nonzero"] = rule
    tau = KType(tl - rho(datum), datum)  # tl is dominant already
    mult = 2 ** (datum.rank // 2) if nonzero else None
    res = DiracResult(nonzero, tau if nonzero else None, mult,
                      tuple((m, 1) for m in minimizers), checks)
    return res, tau


def _count_columns(length, top, room, weight, parity, memo):
    """The number of weakly decreasing tuples of ``length`` integers in
    [0, top] with weight * (sum of squares) at most room and, unless
    parity is None, a sum of that parity.  ``memo`` is a dict kept for
    one count."""
    top = min(top, isqrt(room // weight))
    if length == 0 or top == 0:
        return 0 if parity == 1 else 1
    if length == 1:
        return top + 1 if parity is None else (top - parity) // 2 + 1
    # a room the whole box fits in counts like the box itself
    room = min(room, weight * length * top * top)
    key = (length, top, room, weight, parity)
    total = memo.get(key)
    if total is None:
        total = sum(
            _count_columns(
                length - 1, x, room - weight * x * x, weight,
                None if parity is None else parity ^ (x & 1), memo,
            )
            for x in range(top + 1)
        )
        memo[key] = total
    return total


def hd_multiplicity(fam, via_tensor=False):
    """[V(2 lambda - rho') : H_D], the total multiplicity of the
    cohomology type.

    The counting path multiplies 2^[l/2] by the number of K-types on the
    spin-norm floor.  With ``via_tensor`` the count is recomputed as
    sum over the minimizers eta of [V(eta) (x) V(rho) : V(2 lambda - rho')]
    (each term is 1 on the floor and 0 off it); the two paths must agree.
    The terms come from ``characters._rho_tensor_multiplicities``: one
    V(2 lambda - rho') (x) V(rho) when that module is no larger than the
    number of minimizers, else one V(rho) engine query per minimizer.
    """
    res, tau = _scan(fam, None)
    factor = 2 ** (fam.datum.rank // 2)
    by_count = factor * (len(res.spin_lkts) if res.nonzero else 0)
    if not via_tensor:
        return by_count
    etas = [kt.hw for kt, _ in res.spin_lkts]
    by_tensor = factor * sum(_rho_tensor_multiplicities(etas, tau.hw, fam.datum))
    if by_tensor != by_count:
        raise RuntimeError(
            "multiplicity paths disagree for %s: tensor gives %d, count gives %d"
            % (fam, by_tensor, by_count)
        )
    return by_count


def parity_vanishing(fam, bound):
    """Certify [pi (x) V(rho) : V(2 lambda - rho')] = 0 for a vanishing
    C/D family, two independent ways.

    Every root of types C and D has even coordinate sum, so each
    constituent of V(eta) (x) V(rho) keeps the coordinate-sum parity of
    eta + rho; for the vanishing member of an even/odd pair the target
    2 lambda - rho' sits in the opposite parity class for the whole
    spectrum.  The direct tensor computation checks the same
    multiplicities without the shortcut, each one exactly, by
    ``characters._rho_tensor_multiplicities``: since V(rho) is self-dual,
    [V(eta) (x) V(rho) : V(tau)] = [V(tau) (x) V(rho) : V(eta)], so when
    dim V(tau) is at most the number of K-types in the box, one
    V(tau) (x) V(rho) answers them all (D_even(3,3) has tau = 0, and
    D_odd(4,4) at rank 8 takes milliseconds); otherwise each K-type is one
    V(rho) engine query.  True when both confirm zero; ``bound`` caps the
    scanned coordinates.  A box the parity argument clears but the tensor
    computation does not raises RuntimeError, whichever route answered.
    """
    if fam.parity is None:
        raise ValueError("parity vanishing only applies to the C/D families")
    res, tau = _scan(fam, None)
    if res.nonzero:
        raise ValueError(
            "%s has nonzero Dirac cohomology; nothing vanishes" % (fam,)
        )
    datum = fam.datum
    r = rho(datum)
    etas = [eta.hw for eta in kspectrum(fam, bound)]
    if not etas:
        raise ValueError("bound %s leaves no K-types to test" % (bound,))
    # doubled-coordinate sums mod 4 stand in for ordinary sums mod 2
    tau_class = sum(tau.hw.doubled) % 4
    parity_ok = all(
        (sum(eta.doubled) + sum(r.doubled)) % 4 != tau_class for eta in etas
    )
    tensor_zero = not any(_rho_tensor_multiplicities(etas, tau.hw, datum))
    if parity_ok and not tensor_zero:
        raise RuntimeError(
            "parity argument and tensor computation disagree for %s" % (fam,)
        )
    return parity_ok and tensor_zero


def _character_block(size, value):
    """The lambda-coordinates a GL(size) character contributes: half the
    character weight spread by the GL half-sum (size-1)/2, ..., -(size-1)/2.
    ``value`` is the doubled character weight; the entries are 4*lambda,
    so an odd entry marks a quarter-integral lambda."""
    return [value + 2 * (size - 1 - 2 * i) for i in range(size)]


def dirac_induced(gl_blocks, core, xi):
    """Dirac cohomology of a module induced from unitary characters on
    GL blocks times a catalogued core family.

    ``gl_blocks`` lists the GL factor sizes ([] means no induction, where
    this reduces to spin_lkt_unipotent); ``xi`` holds one character
    coordinate per GL column, constant on each block.  The assembled
    lambda must be half-integral with 2*lambda regular.  The cohomology
    is nonzero exactly when the core's is; the bottom-layer K-type
    obtained by prefixing xi to the core's spin-LKT is reported as the
    spin-LKT whenever its spin norm verifies against ||2 lambda||.
    """
    blocks = [int(k) for k in gl_blocks]
    if any(k <= 0 for k in blocks):
        raise ValueError("GL block sizes must be positive")
    _shape(core)  # a core without a K-spectrum catalog is refused here
    if not isinstance(xi, HalfIntVec):
        xi = HalfIntVec.from_halves(xi)
    if len(xi) != sum(blocks):
        raise ValueError(
            "xi has %d coordinates, the GL blocks need %d" % (len(xi), sum(blocks))
        )
    if not blocks:
        return spin_lkt_unipotent(core)

    lam_x4 = []
    pos = 0
    for size in blocks:
        seg = xi.doubled[pos : pos + size]
        pos += size
        if any(v != seg[0] for v in seg):
            raise ValueError(
                "xi must be constant on each GL block (one unitary character "
                "per factor); block of size %d got %s" % (size, HalfIntVec(seg))
            )
        lam_x4.extend(_character_block(size, seg[0]))
    lam_x4.extend(two_lambda(core).doubled)
    if any(c % 2 for c in lam_x4):
        raise ValueError(
            "xi does not make lambda half-integral: lambda would be (%s)"
            % ",".join(str(Fraction(c, 4)) for c in lam_x4)
        )
    lam = HalfIntVec(tuple(c // 2 for c in lam_x4))
    datum = RootDatum(core.datum.family, len(lam))
    two_lam = lam + lam
    if not is_regular(two_lam, datum):
        raise ValueError(
            "2*lambda = %s is not regular for %s" % (two_lam, datum)
        )

    core_res = spin_lkt_unipotent(core)
    checks = {
        "lambda": str(lam),
        "gl_blocks": list(blocks),
        "core": str(core),
        "core_nonzero": core_res.nonzero,
    }
    if not core_res.nonzero:
        return DiracResult(False, None, None, (), checks)

    dom2 = dominant_rep(two_lam, datum)
    tau = KType(dom2 - rho(datum), datum)
    lift = dominant_rep(
        HalfIntVec(xi.doubled + core_res.spin_lkts[0][0].hw.doubled), datum
    )
    candidate = KType(lift, datum)
    verified = spin_norm_sq_x4(candidate) == norm_sq_x4(two_lam)
    checks["spin_lkt_verified"] = verified
    if verified:
        spin_lkts = ((candidate, 1),)
    else:
        spin_lkts = ()
        checks["note"] = (
            "bottom-layer lift %s does not reach the spin-norm floor; "
            "the spin-LKT is not identified" % (candidate,)
        )
    return DiracResult(True, tau, 2 ** (datum.rank // 2), spin_lkts, checks)
