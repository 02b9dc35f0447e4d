"""Unitarity verdicts: the recorded signature tables, certificate and
witness shape invariants, and random-parameter robustness."""

import itertools
import random

import pytest

import oracle
from diracdual.weights import (
    HalfIntVec,
    RootDatum,
    ZhParam,
    _canonical_pairs,
    dominant_rep,
    is_dominant,
    is_regular,
    norm_sq_x4,
    rho,
)
from diracdual.characters import KType
from diracdual.dirac import spin_norm_sq_x4
from diracdual.unitarity import (
    _decompose,
    _is_hermitian,
    decompose_strings,
    full_unitarity,
    spherical_unitarity,
)
from diracdual.unipotent import validate, infinitesimal_character


def v(s):
    return HalfIntVec.parse(s)


def _witness_set(verdict):
    return {str(kt.hw) for kt in verdict.witness}


def _dirac_slack(lam_l, lam_r, datum):
    """||{mu - rho} + rho||^2 - ||lambda_L + lambda_R||^2 (times 4) for
    the lowest K-type mu = {lambda_L - lambda_R}.  A unitary module
    satisfies the Dirac inequality, so this is never negative on a
    Unitary verdict."""
    mu = KType(dominant_rep(lam_l - lam_r, datum), datum)
    return spin_norm_sq_x4(mu) - norm_sq_x4(lam_l + lam_r)


# -- the five recorded tables ---------------------------------------------------


def test_so7_spherical_table():
    verdict = spherical_unitarity(v("1/2,2,1"), RootDatum("B", 3))
    assert verdict.status == "NonUnitary"
    assert _witness_set(verdict) == {"1,1,0", "1,1,1"}


def test_type_a_spherical_goes_through_the_level_machinery():
    # gl(3), lambda = rho: one level-0 GL(3) block on a rank-0 trivial core
    for lam in ("1,0,-1", "-1,1,0"):
        verdict = spherical_unitarity(v(lam), RootDatum("A", 3))
        assert verdict.as_dict() == {
            "status": "Unitary",
            "case": "A:character-stack",
            "certificate": {
                "kind": "induced",
                "gl_blocks": [{"level": 0, "size": 3, "string": ["1", "0", "-1"]}],
                "core": {"kind": "trivial", "rank": 0},
            },
        }


def test_so9_spherical_table():
    verdict = spherical_unitarity(v("5/2,2,3/2,1/2"), RootDatum("B", 4))
    assert verdict.status == "NonUnitary"
    assert _witness_set(verdict) == {"1,1,0,0", "2,0,0,0"}


def test_sp8_nonspherical_table():
    from diracdual.weights import ZhParam

    param = ZhParam(v("1/2,-2,-1,3/2"), v("-1/2,-2,-1,3/2"), RootDatum("C", 4))
    verdict = full_unitarity(param)
    assert verdict.status == "NonUnitary"
    assert _witness_set(verdict) == {"1,0,0,0", "1,1,1,0"}


def test_so6_spherical_table():
    verdict = spherical_unitarity(v("3/2,1/2,0"), RootDatum("D", 3))
    assert verdict.status == "NonUnitary"
    assert _witness_set(verdict) == {"1,1,0"}


def test_so10_nonspherical_table():
    from diracdual.weights import ZhParam

    param = ZhParam(
        v("1/2,-2,-1,0,5/2"), v("-1/2,-2,-1,0,5/2"), RootDatum("D", 5)
    )
    verdict = full_unitarity(param)
    assert verdict.status == "NonUnitary"
    assert _witness_set(verdict) == {"1,1,1,0,0", "2,1,0,0,0"}


# -- easy unitary points ----------------------------------------------------------


def test_trivial_representation_is_unitary():
    for fam, rank in [("B", 3), ("C", 3), ("D", 4)]:
        datum = RootDatum(fam, rank)
        verdict = spherical_unitarity(rho(datum), datum)
        assert verdict.status == "Unitary", (fam, verdict)


def test_catalog_characters_are_unitary():
    # attached characters of a few small orbits, spherical side
    for rows, fam in [((2, 2, 2, 2), "C"), ((2, 1, 1), "C"), ((3, 2, 2), "B")]:
        orbit = validate(rows, fam)
        lam = infinitesimal_character(orbit)
        if not is_regular(lam, orbit.datum):
            continue
        verdict = spherical_unitarity(lam, orbit.datum)
        assert verdict.status == "Unitary", (rows, fam, verdict)


# -- error contract ----------------------------------------------------------------


def test_spherical_requires_regular():
    with pytest.raises(ValueError, match="regular"):
        spherical_unitarity(v("1/2,1/2,1"), RootDatum("B", 3))


def test_spherical_requires_matching_rank():
    with pytest.raises(ValueError, match="coordinates"):
        spherical_unitarity(v("1,2"), RootDatum("B", 3))


def test_decompose_strings_rejects_integral():
    with pytest.raises(ValueError, match="half-integral"):
        decompose_strings(v("2,1"), RootDatum("B", 2))


def test_decompose_strings_rejects_type_a():
    with pytest.raises(ValueError, match="B/C/D"):
        decompose_strings(v("1/2,1"), RootDatum("A", 2))


def test_decompose_strings_rejects_wrong_length_and_non_dominant():
    with pytest.raises(ValueError, match="^expected 3 coordinates, got 2$"):
        decompose_strings(v("1/2,3/2"), RootDatum("B", 3))
    with pytest.raises(ValueError, match="^lambda must be dominant$"):
        decompose_strings(v("1/2,3/2"), RootDatum("B", 2))


def test_full_rejects_non_hermitian():
    from diracdual.weights import ZhParam

    param = ZhParam(v("2,1"), v("1,0"), RootDatum("C", 2))
    with pytest.raises(ValueError, match="Hermitian"):
        full_unitarity(param)


def test_full_rejects_genuine():
    from diracdual.weights import ZhParam

    param = ZhParam(v("3/2,1/2"), v("1,0"), RootDatum("B", 2))
    with pytest.raises(ValueError, match="genuine"):
        full_unitarity(param)


def test_full_requires_regular():
    param = ZhParam(v("1,1,0"), v("1,1,0"), RootDatum("B", 3))
    with pytest.raises(ValueError, match=r"^2\*lambda must be regular$"):
        full_unitarity(param)


# -- shape properties over random parameters ---------------------------------------


def _random_regular_halfint(datum, rng):
    """Random dominant regular strictly half-integral lambda."""
    n = datum.rank
    while True:
        doubled = sorted(
            rng.sample(range(1, 2 * n + 9, 2), n), reverse=True
        )
        if datum.family == "D" and rng.random() < 0.5:
            doubled[-1] = -doubled[-1]
        lam = HalfIntVec(tuple(doubled))
        if is_regular(lam, datum) and is_dominant(lam, datum):
            return lam


@pytest.mark.parametrize("family", "BCD")
def test_spherical_verdict_shape(family):
    rng = random.Random("shape-" + family)
    for rank in (3, 4, 5, 6):
        datum = RootDatum(family, rank)
        for _ in range(60):
            lam = _random_regular_halfint(datum, rng)
            verdict = spherical_unitarity(lam, datum)
            d = verdict.as_dict()
            assert d["status"] in ("Unitary", "NonUnitary")
            if verdict.status == "Unitary":
                assert verdict.certificate, (family, str(lam))
                assert "witness" not in d
                assert _dirac_slack(lam, lam, datum) >= 0, (family, str(lam))
            else:
                assert verdict.witness, (family, str(lam))
                for kt in verdict.witness:
                    # witnesses are genuine K-types of the right group
                    assert isinstance(kt, KType)
                    assert kt.datum == datum
                    assert is_dominant(kt.hw, datum)
                    assert kt.hw.is_integral
                # a verdict must name its deciding case
                assert d["case"]


def test_nonunitary_verdicts_have_distinct_witnesses():
    rng = random.Random("distinct")
    datum = RootDatum("B", 4)
    for _ in range(80):
        lam = _random_regular_halfint(datum, rng)
        verdict = spherical_unitarity(lam, datum)
        if verdict.status == "NonUnitary":
            hws = [kt.hw.doubled for kt in verdict.witness]
            assert len(hws) == len(set(hws))
            assert 1 <= len(hws) <= 2


def test_verdict_dict_round_trip():
    verdict = spherical_unitarity(v("1/2,2,1"), RootDatum("B", 3))
    d = verdict.as_dict()
    assert set(d) >= {"status", "case", "witness"}
    assert d["witness"] == [str(kt.hw) for kt in verdict.witness]


# -- deformation endpoints ----------------------------------------------------------


def test_long_string_endpoint_unitary():
    # a single unbroken string through 1/2 is the spherical unipotent point
    assert (
        spherical_unitarity(v("5/2,3/2,1/2"), RootDatum("B", 3)).status
        == "Unitary"
    )
    assert (
        spherical_unitarity(v("7/2,5/2,3/2,1/2"), RootDatum("C", 4)).status
        == "Unitary"
    )


def test_separated_string_nonunitary():
    # pushing the string past the unitary window must flip the verdict
    verdict = spherical_unitarity(v("9/2,7/2,1/2"), RootDatum("B", 3))
    assert verdict.status == "NonUnitary"


def test_level_block_violation_fires_gl_check():
    from diracdual.weights import ZhParam

    # level-2 coordinates {7/2, -3/2} are self-dual but split into two
    # strings, so they cannot stack into a unitary GL character; the
    # witness pairs the lowest K-type (2,2,0,0) with its Casimir
    # companion (3,1,0,0)
    param = ZhParam(v("7/2,-3/2,1,0"), v("3/2,-7/2,1,0"), RootDatum("D", 4))
    verdict = full_unitarity(param)
    assert verdict.status == "NonUnitary"
    assert verdict.case == "gl-string-violation"
    assert "level 2" in verdict.notes
    assert _witness_set(verdict) == {"2,2,0,0", "3,1,0,0"}

    # a three-coordinate bad level shows the full (r+1, r, r-1) companion
    param = ZhParam(v("7/2,1,-3/2,0"), v("3/2,-1,-7/2,0"), RootDatum("D", 4))
    verdict = full_unitarity(param)
    assert verdict.status == "NonUnitary"
    assert _witness_set(verdict) == {"2,2,2,0", "3,2,1,0"}


# -- the catalog sweep: independent shape check over random parameters --------------
#
# The unitary spherical parameters are exactly the anchored-string
# catalogs: B needs the half-integer string (K0-1/2,...,1/2) plus an
# integer string (N0,...,1) with K0 >= 1 and N0 <= K0; C needs a single
# anchored string of either parity; D needs the integer string
# (N0-1,...,1,0) present plus the half-integer one with N0 >= K0.  The
# predicate below rebuilds that catalog from scratch so the sweep net
# never shares code with the classifier.


def _catalog_shape(coords, family):
    from fractions import Fraction

    ints = sorted(c for c in coords if c.denominator == 1)
    halfs = sorted(c for c in coords if c.denominator == 2)
    k0 = [Fraction(2 * i + 1, 2) for i in range(len(halfs))]
    if family == "B":
        s0 = list(range(1, len(ints) + 1))
        return (
            len(halfs) >= 1
            and halfs == k0
            and ints == s0
            and len(ints) <= len(halfs)
        )
    if family == "C":
        if ints and halfs:
            return False
        if halfs:
            return halfs == k0
        return ints == list(range(1, len(ints) + 1))
    s0 = list(range(len(ints)))
    return (
        len(ints) >= 1
        and ints == s0
        and halfs == k0
        and len(ints) >= len(halfs)
    )


def _sweep_draw(family, n, rng):
    """Random dominant regular lambda with 2*lambda integral: a mix of
    exact catalog shapes, near misses, and generic parameters."""
    from fractions import Fraction

    mode = rng.random()
    if mode < 0.3:
        # exact catalog member
        if family == "B":
            k0 = rng.randint((n + 1) // 2, n)
        elif family == "C":
            k0 = rng.choice((0, n))
        else:
            k0 = rng.randint(0, n // 2)
        halfs = [Fraction(2 * i + 1, 2) for i in range(k0)]
        if family == "D":
            ints = list(range(n - k0))
        else:
            ints = list(range(1, n - k0 + 1))
        coords = halfs + [Fraction(c) for c in ints]
        if mode < 0.12 and coords:
            # near miss: push the top entry one step out
            coords[-1 if rng.random() < 0.5 else 0] += 1
    else:
        lo = 0 if family == "D" else 1
        pool = [Fraction(c, 2) for c in range(lo, 4 * n + 2)]
        coords = rng.sample(pool, n)
    coords = sorted(coords, reverse=True)
    lam = HalfIntVec.from_halves(coords)
    datum = RootDatum(family, n)
    if not (is_dominant(lam, datum) and is_regular(lam, datum)):
        return None
    return lam


@pytest.mark.parametrize("family", "BCD")
def test_catalog_sweep_matches_independent_shape_check(family):
    from diracdual.spectrum import UnipotentFamily, two_lambda

    rng = random.Random("sweep-" + family)
    drawn = unitary_hits = 0
    per_rank = 250
    for rank in (3, 4, 5, 6):
        datum = RootDatum(family, rank)
        r = rho(datum)
        done = 0
        while done < per_rank:
            lam = _sweep_draw(family, rank, rng)
            if lam is None:
                continue
            done += 1
            drawn += 1
            verdict = spherical_unitarity(lam, datum)
            expected = _catalog_shape(list(lam.halves()), family)
            assert (verdict.status == "Unitary") == expected, (
                family, str(lam), verdict.status,
            )
            if verdict.status != "Unitary":
                continue
            unitary_hits += 1
            assert _dirac_slack(lam, lam, datum) >= 0, (family, str(lam))
            cert = verdict.certificate
            # certificate re-synthesis: the parameter is pinned exactly
            if cert["kind"] == "trivial":
                assert sorted(lam.halves()) == sorted(r.halves()), str(lam)
            else:
                if "n" in cert:
                    fam_pt = UnipotentFamily(cert["family"], n=cert["n"])
                else:
                    fam_pt = UnipotentFamily(
                        cert["family"], a=cert["a"], b=cert["b"]
                    )
                two = dominant_rep(lam + lam, datum)
                assert two == two_lambda(fam_pt), (str(lam), cert)
            # the certificate orbit carries the same infinitesimal character
            orbit = validate(tuple(cert["orbit"]), family)
            assert infinitesimal_character(orbit) == dominant_rep(lam, datum)
    assert unitary_hits >= 40, "sweep for %s never reached the catalog" % family


@pytest.mark.parametrize("family", "BCD")
def test_string_decomposition_partitions_coordinates(family):
    from fractions import Fraction

    rng = random.Random("partition-" + family)
    for rank in (3, 4, 5, 6):
        datum = RootDatum(family, rank)
        done = 0
        while done < 40:
            lam = _sweep_draw(family, rank, rng)
            if lam is None or lam.is_integral:
                continue
            done += 1
            sd = decompose_strings(lam, datum)
            rebuilt = []
            rebuilt += [Fraction(2 * i + 1, 2) for i in range(sd.kappa0_len)]
            if family == "D":
                rebuilt += list(range(sd.sigma0_len))
            else:
                rebuilt += list(range(1, sd.sigma0_len + 1))
            for (k, K) in sd.kappa:
                rebuilt += [Fraction(2 * j - 1, 2) for j in range(k, K + 1)]
            for (s, S) in sd.sigma:
                rebuilt += list(range(s, S + 1))
            assert sorted(rebuilt) == sorted(abs(c) for c in lam.halves()), (
                family, str(lam), sd,
            )


# -- full parameters: a seeded sweep over GL levels and the small blocks ------------


def _full_draw(family, n, rng):
    """A regular Hermitian non-spherical (lambda_L, lambda_R): GL levels
    >= 2 holding a run symmetric about half the level (a unitary
    character, or a split pair that is not one), at most one small block
    ((1/2 \\ -1/2), or (1,0 \\ 0,-1) in type D) and spherical entries.
    Pairs are built on doubled coordinates."""
    while True:
        block = rng.choice(("half", "gl2", "none") if family == "D" else ("half", "none"))
        pairs = {"half": [(1, -1)], "gl2": [(2, 0), (0, -2)], "none": []}[block]
        for _ in range(rng.choice((0, 1, 2) if pairs else (1, 2))):
            level = rng.randint(2, 5)
            if rng.random() < 0.75:
                m = rng.randint(1, 3)
                values = [level + m - 1 - 2 * i for i in range(m)]
            else:
                k = rng.randint(2, 6)
                values = [level + k, level - k]
            pairs += [(x, x - 2 * level) for x in values]
        if len(pairs) > n:
            continue
        used = {abs(l) for l, _ in pairs}
        pool = [c for c in range(0 if family == "D" else 1, 4 * n + 2) if c not in used]
        spherical = rng.sample(pool, n - len(pairs))
        if family == "D" and 0 not in spherical and len(spherical) % 2:
            continue  # (c, c) -> (-c, -c) on an odd count, with no zero to absorb it
        pairs += [(c, c) for c in spherical]
        # flip whole pairs; type D's Weyl group flips evenly many
        flips = [rng.random() < 0.5 for _ in pairs]
        if family == "D" and sum(flips) % 2:
            flips[flips.index(True)] = False
        pairs = [(-l, -r) if f else (l, r) for f, (l, r) in zip(flips, pairs)]
        rng.shuffle(pairs)
        lam_l = HalfIntVec(tuple(l for l, _ in pairs))
        lam_r = HalfIntVec(tuple(r for _, r in pairs))
        datum = RootDatum(family, n)
        if is_regular(lam_l, datum):
            return ZhParam(lam_l, lam_r, datum)


# cases that only the GL levels and the small blocks lead to
_FULL_SWEEP_REACHES = {
    "B": {"induced+relevant-B:character", "relevant-B:nontrivial-tail"},
    "C": {"induced+relevant-C:character-induced", "relevant-C:separated-strings"},
    "D": {
        "induced+relevant-D:character",
        "relevant-D:missing-sigma0",
        "induced+relevant-D:gl2-character",
        "relevant-D:gl2-nontrivial-tail",
    },
}


@pytest.mark.parametrize("family", "BCD")
def test_full_parameter_sweep(family):
    rng = random.Random("full-" + family)
    cases = set()
    unitary = 0
    for rank in (3, 4, 5, 6):
        for _ in range(150):
            param = _full_draw(family, rank, rng)
            datum = param.datum
            verdict = full_unitarity(param)
            label = (family, str(param), verdict.case)
            cases.add(verdict.case)
            if verdict.status == "Unitary":
                unitary += 1
                assert verdict.certificate, label
                assert _dirac_slack(param.lambda_L, param.lambda_R, datum) >= 0, label
            else:
                assert verdict.status == "NonUnitary", label
                hws = [kt.hw for kt in verdict.witness]
                assert 1 <= len(hws) == len(set(hws)) <= 2, label
                for kt in verdict.witness:
                    assert kt.datum == datum and kt.hw.is_integral, label
    assert unitary >= 50, (family, unitary)
    reached = _FULL_SWEEP_REACHES[family] | {"gl-string-violation", "induced+trivial"}
    assert reached <= cases, (family, sorted(reached - cases))


def test_malformed_block_names_its_coordinates():
    # both small blocks at level 1 at once: not classified here, and the
    # error shows the block as half-integers
    param = ZhParam(v("1,1/2,0"), v("0,-1/2,-1"), RootDatum("D", 3))
    with pytest.raises(
        ValueError, match=r"^malformed non-spherical block \(1,1/2,0 \\ 0,-1/2,-1\)$"
    ):
        full_unitarity(param)


# -- every small regular Hermitian parameter ----------------------------------------


def _small_hermitian_params():
    """Every regular Hermitian (lambda_L, lambda_R) with lambda_L - lambda_R
    integral and doubled entries in [-4, 4], at ranks 1-3 of B/C/D."""
    coord = [(l, r) for l in range(-4, 5) for r in range(-4, 5) if (l - r) % 2 == 0]
    for family in "BCD":
        for rank in (1, 2, 3):
            datum = RootDatum(family, rank)
            for pairs in itertools.product(coord, repeat=rank):
                lL = tuple(l for l, _ in pairs)
                lR = tuple(r for _, r in pairs)
                if is_regular(HalfIntVec(lL), datum) and _is_hermitian(lL, lR, family):
                    yield ZhParam(HalfIntVec(lL), HalfIntVec(lR), datum)


def _string_values(sd):
    """All strings of the decomposition as doubled coordinate lists."""
    out = []
    if sd.kappa0_len:
        out.append(list(range(1, 2 * sd.kappa0_len, 2)))
    if sd.sigma0_len:
        lo = 0 if sd.datum.family == "D" else 2
        out.append(list(range(lo, lo + 2 * sd.sigma0_len, 2)))
    for (k, K) in sd.kappa:
        out.append(list(range(2 * k - 1, 2 * K, 2)))
    for (n, N) in sd.sigma:
        out.append(list(range(2 * n, 2 * N + 1, 2)))
    return out


def _has_half_gap(strings):
    """True if two different strings come within 1/2 of each other
    (doubled distance 1): the reference for the C witness split."""
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            for x in strings[i]:
                for y in strings[j]:
                    if abs(x - y) == 1:
                        return True
    return False


def test_every_small_hermitian_parameter():
    # a verdict for all but the 48 D3 parameters whose level 1 holds both
    # small blocks; Dirac's inequality on every Unitary verdict; and the C
    # witness split against string-by-string adjacency
    verdicts, unitary, equal, malformed, c_split = 0, 0, 0, 0, {}
    for param in _small_hermitian_params():
        datum = param.datum
        try:
            verdict = full_unitarity(param)
        except ValueError as exc:
            assert datum == RootDatum("D", 3), (str(param), exc)
            assert str(exc).startswith("malformed non-spherical block"), (str(param), exc)
            malformed += 1
            continue
        verdicts += 1
        if verdict.is_unitary:
            unitary += 1
            slack = _dirac_slack(param.lambda_L, param.lambda_R, datum)
            assert slack >= 0, str(param)
            equal += slack == 0
        tag = verdict.case.rpartition(":")[2]
        if tag in ("adjacent-strings", "separated-strings"):
            assert datum.family == "C", (str(param), verdict.case)
            level0 = [l for l, r in zip(param.lambda_L.doubled, param.lambda_R.doubled)
                      if l == r]
            sd = _decompose(level0, RootDatum("C", len(level0)))
            want = "adjacent-strings" if _has_half_gap(_string_values(sd)) else "separated-strings"
            assert tag == want, (str(param), verdict.case)
            c_split[tag] = c_split.get(tag, 0) + 1
    assert (verdicts, malformed) == (7337, 48)
    assert (unitary, equal) == (3151, 49)
    assert set(c_split) == {"adjacent-strings", "separated-strings"}, c_split


# -- the Hermitian test against brute-force Weyl orbits -----------------------------


def _check_orbit(family, lL, lR):
    """(-lR, -lL) lies in the orbit of (lL, lR), listed by brute force,
    exactly when _is_hermitian says so, and _canonical_pairs is constant
    on the orbit.  Returns the orbit and the verdict."""
    orbit = {
        (oracle.act(p, s, lL), oracle.act(p, s, lR))
        for p, s, _ in oracle.weyl_elements(family, len(lL))
    }
    canon = _canonical_pairs(lL, lR, family)
    herm = (tuple(-r for r in lR), tuple(-l for l in lL)) in orbit
    for wl, wr in orbit:
        assert _canonical_pairs(wl, wr, family) == canon, (family, lL, lR, wl, wr)
        assert _is_hermitian(wl, wr, family) == herm, (family, wl, wr)
    return orbit, herm


@pytest.mark.parametrize("family", "ABCD")
def test_hermitian_matches_weyl_orbits(family):
    # every pair with doubled entries in [-3, 3] at ranks 1-2, [-2, 2] at rank 3
    for rank, top in ((1, 3), (2, 3), (3, 2)):
        seen, verdicts = set(), set()
        for flat in itertools.product(range(-top, top + 1), repeat=2 * rank):
            lL, lR = flat[:rank], flat[rank:]
            if (lL, lR) in seen:
                continue
            orbit, herm = _check_orbit(family, lL, lR)
            seen |= orbit
            verdicts.add(herm)
        assert verdicts == {True, False}, (family, rank)


def test_hermitian_matches_weyl_orbits_rank4_D():
    # seeded draws: half free, half built Hermitian as (x, -w x) for an
    # involution w, so that w maps the pair to (-lR, -lL)
    rng = random.Random(4)
    involutions = [(p, s) for p, s, _ in oracle.weyl_elements("D", 4)
                   if oracle.act(p, s, oracle.act(p, s, (1, 2, 3, 4))) == (1, 2, 3, 4)]
    verdicts = []
    for k in range(120):
        lL = tuple(rng.randint(-3, 3) for _ in range(4))
        if k % 2:
            p, s = rng.choice(involutions)
            lR = tuple(-c for c in oracle.act(p, s, lL))
        else:
            lR = tuple(rng.randint(-3, 3) for _ in range(4))
        herm = _check_orbit("D", lL, lR)[1]
        assert herm or k % 2 == 0, (lL, lR)  # the built pairs are Hermitian
        verdicts.append(herm)
    assert not all(verdicts)
