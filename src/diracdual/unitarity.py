"""Unitarity classification for regular half-integral parameters.

The classification runs on the *string decomposition* of the coordinate
multiset: a maximal consecutive run anchored at 1/2 (``kappa0``), one
anchored at 1 for B/C resp. 0 for D (``sigma0``), and the remaining
maximal runs ("floating" strings).  Unitary parameters are exactly the
ones whose decomposition collapses to the anchored shapes; every other
shape is rejected together with a pair of small K-types on which the
invariant form is indefinite.  All of it runs on the doubled integer
coordinates that ``HalfIntVec`` stores.

Entry points:

* ``decompose_strings``  -- the decomposition itself;
* ``spherical_unitarity`` -- parameters (lam, lam);
* ``full_unitarity``      -- arbitrary Hermitian parameters; peels off
  unitarily-induced character levels and decides the level <= 1 part
  from its split pairs: a spherical tail, possibly under one small
  block (lowest K-type entries 0/1).
"""

from collections import Counter
from functools import lru_cache

from .weights import (
    HalfIntVec,
    KType,
    RootDatum,
    ZhParam,
    _Frozen,
    _canonical_pairs,
    _set,
    dominant_rep,
    is_dominant,
    is_regular,
)

__all__ = [
    "StringDecomp",
    "UnitarityVerdict",
    "decompose_strings",
    "spherical_unitarity",
    "full_unitarity",
]


# ---------------------------------------------------------------------------
# string decomposition
# ---------------------------------------------------------------------------

class StringDecomp(_Frozen):
    """Sorted coordinate multiset of a spherical parameter, cut into
    maximal consecutive runs.

    ``kappa`` entries are integer pairs (k, K) standing for the run
    (k-1/2, k+1/2, ..., K-1/2); ``sigma`` entries (n, N) stand for
    (n, n+1, ..., N).  The anchored runs are stored as lengths only:
    kappa0 = (1/2, ..., K0-1/2), sigma0 = (1, ..., N0) for B/C and
    (0, 1, ..., N0-1) for D.
    """

    __slots__ = ("datum", "kappa0_len", "sigma0_len", "kappa", "sigma")

    def __init__(self, datum, kappa0_len, sigma0_len, kappa=(), sigma=()):
        _set(self, "datum", datum)
        _set(self, "kappa0_len", kappa0_len)
        _set(self, "sigma0_len", sigma0_len)
        _set(self, "kappa", kappa)
        _set(self, "sigma", sigma)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.datum, self.kappa0_len, self.sigma0_len, self.kappa,
                    self.sigma) == (other.datum, other.kappa0_len,
                                    other.sigma0_len, other.kappa, other.sigma)
        return NotImplemented

    def __hash__(self):
        return hash((self.datum, self.kappa0_len, self.sigma0_len, self.kappa,
                     self.sigma))

    @property
    def has_extras(self):
        return bool(self.kappa) or bool(self.sigma)


def _run_len(cnt, start):
    """Consume the maximal run start, start+1, ... (one copy each) of
    doubled coordinates, which step by 2."""
    n = 0
    x = start
    while cnt[x] > 0:
        cnt[x] -= 1
        x += 2
        n += 1
    return n


def _decompose(values, datum):
    """The decomposition of the doubled coordinates ``values``; only the
    magnitudes count, so neither order nor signs matter."""
    cnt = Counter(abs(c) for c in values)
    k0 = _run_len(cnt, 1)
    s0 = _run_len(cnt, 2 if datum.family != "D" else 0)

    kappa, sigma = [], []
    for parity, out in ((1, kappa), (0, sigma)):
        while True:
            left = [x for x in cnt if x % 2 == parity and cnt[x] > 0]
            if not left:
                break
            b = min(left)
            bottom = (b + 1) // 2  # k of (k-1/2, ...) or n of (n, ...)
            out.append((bottom, bottom + _run_len(cnt, b) - 1))

    present = lambda runs: tuple(sorted(runs, key=lambda r: (r[0] - r[1], r[0])))
    return StringDecomp(
        datum=datum,
        kappa0_len=k0,
        sigma0_len=s0,
        kappa=present(kappa),
        sigma=present(sigma),
    )


def decompose_strings(lam, datum):
    """Cut the coordinate multiset of a dominant half-integral ``lam``
    into anchored and floating maximal consecutive runs."""
    if datum.family not in ("B", "C", "D"):
        raise ValueError("string decomposition is defined for families B/C/D")
    if len(lam) != datum.rank:
        raise ValueError("expected %d coordinates, got %d" % (datum.rank, len(lam)))
    if not is_dominant(lam, datum):
        raise ValueError("lambda must be dominant")
    if lam.is_integral:
        raise ValueError("lambda must be half-integral (some non-integer entry)")
    return _decompose(lam.doubled, datum)


# ---------------------------------------------------------------------------
# verdicts and witness K-types
# ---------------------------------------------------------------------------

class UnitarityVerdict(_Frozen):
    __slots__ = ("status", "case", "certificate", "witness", "notes")

    def __init__(self, status, case, certificate=None, witness=(), notes=""):
        _set(self, "status", status)  # "Unitary" | "NonUnitary"
        _set(self, "case", case)  # which branch of the decision tree fired
        _set(self, "certificate", certificate)  # dict, Unitary only
        # NonUnitary only: KTypes with indefinite form
        _set(self, "witness", witness)
        _set(self, "notes", notes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.status, self.case, self.certificate, self.witness,
                    self.notes) == (other.status, other.case, other.certificate,
                                    other.witness, other.notes)
        return NotImplemented

    def __hash__(self):
        return hash((self.status, self.case, self.certificate, self.witness,
                     self.notes))

    @property
    def is_unitary(self):
        return self.status == "Unitary"

    def as_dict(self):
        out = {"status": self.status, "case": self.case}
        if self.is_unitary:
            out["certificate"] = self.certificate
        else:
            out["witness"] = [str(kt.hw) for kt in self.witness]
        if self.notes:
            out["notes"] = self.notes
        return out

    def __str__(self):
        if self.is_unitary:
            return "Unitary [%s]" % self.case
        wit = ", ".join(str(kt) for kt in self.witness)
        return "NonUnitary [%s] witness {%s}" % (self.case, wit)


@lru_cache(maxsize=4096)
def _kt(datum, coords):
    """The K-type with the tuple of integer coordinates ``coords``, sorted
    and padded.  Cached: a sweep asks for the same few witnesses (the
    trivial K-type, (1,1,0,...), (2,0,...), runs of ones) again and again."""
    if len(coords) > datum.rank:
        raise RuntimeError(
            "witness K-type %s does not fit rank %d" % (list(coords), datum.rank))
    hw = sorted((2 * c for c in coords), reverse=True)
    return KType(HalfIntVec(tuple(hw) + (0,) * (datum.rank - len(hw))), datum)


def _trivial_kt(datum):
    return _kt(datum, ())


def _bottom_pair(datum):
    """Trivial + adjoint-type pair, the generic indefiniteness witness of
    the orthogonal families (only B and D data reach it).  The
    adjoint-type K-type is (1,1,0,...); at rank one it is (1) for B, and
    D has none, so(2) being abelian."""
    if datum.rank > 1:
        return (_trivial_kt(datum), _kt(datum, (1, 1)))
    if datum.family == "B":
        return (_trivial_kt(datum), _kt(datum, (1,)))
    return (_trivial_kt(datum),)


def _boundary_pair(datum):
    """(1,1,0,..) and (2,0,..): the pair split by parameters that deform
    onto the unitary shape from outside."""
    return (_kt(datum, (1, 1)), _kt(datum, (2,)))


def _ones_kt(datum, m):
    return _kt(datum, (1,) * m)


def _unitary(case, certificate, notes=""):
    return UnitarityVerdict("Unitary", case, certificate=certificate, notes=notes)


def _nonunitary(case, witness, notes=""):
    return UnitarityVerdict("NonUnitary", case, witness=tuple(witness), notes=notes)


# ---------------------------------------------------------------------------
# spherical parameters
# ---------------------------------------------------------------------------

def _absorb(fam, K0, N0, kappa, sigma):
    """Monotone merge of floating strings into the anchored ones.

    An integer string merges into kappa0 once its bottom sits at or below
    the first free slot K0; a half-integer string merges into sigma0 once
    its bottom reaches the top of sigma0 plus 1/2.  Thresholds only grow,
    so the fixpoint does not depend on the firing order.
    """
    kq, sq = sorted(kappa), sorted(sigma)
    while True:
        for i, (n, N) in enumerate(sq):
            if n <= K0:
                K0 += N - n + 1
                sq.pop(i)
                break
        else:
            for i, (k, K) in enumerate(kq):
                if k <= (N0 + 1 if fam == "B" else N0):
                    N0 += K - k + 1
                    kq.pop(i)
                    break
            else:
                return K0, N0, kq, sq


def _b_imbalance_pair(datum, K0, N0):
    # sigma0 sticking out above kappa0: indefiniteness between the
    # 2K0-ones K-type and its step-up companion.
    first = _ones_kt(datum, 2 * K0)
    if N0 == K0 + 1:
        second = _ones_kt(datum, 2 * K0 + 1)
    else:
        second = _ones_kt(datum, 2 * K0 + 2)
    return (first, second)


def _d_imbalance_pair(datum, K0, N0):
    # kappa0 sticking out above sigma0; for an odd overhang the form is
    # already indefinite inside one isotypic component.
    first = _ones_kt(datum, 2 * N0)
    if (K0 - N0) % 2 == 0:
        return (first, _ones_kt(datum, 2 * N0 + 2))
    return (first,)


def _spherical_B(sd):
    datum, K0, N0 = sd.datum, sd.kappa0_len, sd.sigma0_len
    if K0 == 0:
        return _nonunitary("B:missing-kappa0", _bottom_pair(datum))
    if not sd.has_extras:
        if N0 == 0:
            cert = {"kind": "trivial", "orbit": [1] * (2 * K0 + 1)}
            return _unitary(
                "B:trivial", cert,
                notes="boundary row (no integer anchor) accepted as the "
                      "trivial-representation parameter",
            )
        if N0 <= K0:
            cert = {
                "kind": "unipotent",
                "family": "B", "a": N0, "b": K0,
                "orbit": [2] * (2 * N0) + [1] * (2 * K0 - 2 * N0 + 1),
            }
            return _unitary("B:unipotent", cert)
        return _nonunitary(
            "B:sigma-exceeds-kappa", _b_imbalance_pair(datum, K0, N0))
    K0f, N0f, kq, sq = _absorb("B", K0, N0, sd.kappa, sd.sigma)
    if kq or sq:
        return _nonunitary("B:unabsorbed-extra", _bottom_pair(datum))
    if N0f <= K0f:
        return _nonunitary("B:boundary-pair", _boundary_pair(datum))
    return _nonunitary(
        "B:absorbed-sigma-exceeds-kappa", _b_imbalance_pair(datum, K0f, N0f))


def _c_gap_pair(datum, values):
    """C witness split: neighbouring strings hit the (1,1,..) K-type,
    fully separated ones the (2,0,..) K-type.  Two magnitudes 1 apart
    (doubled) have opposite parity, so they lie in different strings."""
    mags = set(map(abs, values))
    if any(x + 1 in mags for x in mags):
        return "adjacent-strings", (_trivial_kt(datum), _kt(datum, (1, 1)))
    return "separated-strings", (_trivial_kt(datum), _kt(datum, (2,)))


def _spherical_C(sd, values):
    datum, K0, N0 = sd.datum, sd.kappa0_len, sd.sigma0_len
    if K0 >= 1 and N0 == 0 and not sd.has_extras:
        cert = {
            "kind": "unipotent",
            "family": "C_even", "n": K0,
            "orbit": [2] + [1] * (2 * K0 - 2),
        }
        return _unitary("C:oscillator", cert)
    if N0 >= 1 and K0 == 0 and not sd.has_extras:
        cert = {"kind": "trivial", "orbit": [1] * (2 * N0)}
        return _unitary("C:trivial", cert)
    tag, pair = _c_gap_pair(datum, values)
    return _nonunitary("C:" + tag, pair)


def _spherical_D(sd):
    datum, K0, N0 = sd.datum, sd.kappa0_len, sd.sigma0_len
    if N0 == 0:
        return _nonunitary(
            "D:missing-sigma0", _bottom_pair(datum),
            notes="" if datum.rank > 1 else "rank-one degenerate case",
        )
    if not sd.has_extras:
        if K0 == 0:
            cert = {"kind": "trivial", "orbit": [1] * (2 * N0)}
            return _unitary("D:trivial", cert)
        if N0 >= K0:
            cert = {
                "kind": "unipotent",
                "family": "D_even", "a": K0, "b": N0,
                "orbit": [3] + [2] * (2 * K0 - 2) + [1] * (2 * N0 - 2 * K0 + 1),
            }
            return _unitary("D:unipotent", cert)
        return _nonunitary(
            "D:kappa-exceeds-sigma", _d_imbalance_pair(datum, K0, N0))
    K0f, N0f, kq, sq = _absorb("D", K0, N0, sd.kappa, sd.sigma)
    if kq or sq:
        return _nonunitary("D:unabsorbed-extra", _bottom_pair(datum))
    if N0f >= K0f:
        return _nonunitary("D:boundary-pair", _boundary_pair(datum))
    return _nonunitary(
        "D:absorbed-kappa-exceeds-sigma", _d_imbalance_pair(datum, K0f, N0f))


def spherical_unitarity(lam, datum):
    """Decide unitarity of the spherical parameter (lam, lam).

    ``lam`` must be regular with 2*lam integral; it is replaced by its
    dominant representative first.  Type A is routed through the level
    machinery of :func:`full_unitarity`.
    """
    if len(lam) != datum.rank:
        raise ValueError("expected %d coordinates, got %d" % (datum.rank, len(lam)))
    lam = dominant_rep(lam, datum)
    if not is_regular(lam, datum):
        raise ValueError("lambda must be regular")
    if datum.family == "A":
        return full_unitarity(ZhParam(lam, lam, datum))
    return _spherical(lam.doubled, datum)


def _spherical(values, datum):
    """The spherical verdict for the regular doubled coordinates
    ``values`` of a B/C/D datum."""
    sd = _decompose(values, datum)
    if datum.family == "B":
        return _spherical_B(sd)
    if datum.family == "C":
        return _spherical_C(sd, values)
    return _spherical_D(sd)


# ---------------------------------------------------------------------------
# relevant parameters: one small non-spherical block
# ---------------------------------------------------------------------------

def _lift(datum, extra, kts):
    """Prepend ``extra`` coordinates to each witness K-type."""
    return tuple(
        _kt(datum, tuple(c // 2 for c in kt.hw.doubled) + tuple(extra)) for kt in kts)


def _relevant(datum, block, spherical):
    """Decide the level <= 1 part of a parameter whose level 1 holds one
    small block: (1/2 \\ -1/2) for B/C/D or (1,0 \\ 0,-1) for D.
    ``block`` is the level-1 doubled pairs (l, l-2) sorted descending,
    ``spherical`` the level-0 doubled coordinates."""
    fam = datum.family
    s = len(spherical)

    if block == [(2, 0), (0, -2)]:
        if s == 0:
            cert = {
                "kind": "induced",
                "gl_blocks": [{"size": 2, "level": 1, "string": ["1", "0"]}],
                "core": {"kind": "trivial", "rank": 0},
            }
            return _unitary("relevant-D:gl2-character", cert)
        sub = RootDatum("D", s)
        return _nonunitary(
            "relevant-D:gl2-nontrivial-tail",
            _lift(datum, [1, 1], _bottom_pair(sub)))

    if block != [(1, -1)]:
        raise ValueError("malformed non-spherical block (%s \\ %s)" % (
            HalfIntVec(tuple(l for l, _ in block)),
            HalfIntVec(tuple(r for _, r in block))))

    # (1/2 \ -1/2) block ----------------------------------------------------
    block_cert = {"size": 1, "level": 1, "string": ["1/2"]}

    if fam == "B":
        if s == 0:
            cert = {"kind": "induced", "gl_blocks": [block_cert],
                    "core": {"kind": "trivial", "rank": 0}}
            return _unitary("relevant-B:character", cert)
        sub = RootDatum("B", s)
        return _nonunitary(
            "relevant-B:nontrivial-tail",
            _lift(datum, [1], _bottom_pair(sub)))

    if fam == "C":
        if s == 0:
            cert = {"kind": "unipotent", "family": "C_odd", "n": 1}
            return _unitary("C:oscillator-odd", cert)
        sub = RootDatum("C", s)
        sd = _decompose(spherical, sub)
        K1 = sd.kappa[0][1] if len(sd.kappa) == 1 and sd.kappa[0][0] == 2 else None
        if (K1 is not None and sd.sigma0_len == 0 and not sd.sigma
                and sd.kappa0_len == 0):
            cert = {"kind": "unipotent", "family": "C_odd", "n": K1}
            return _unitary("C:oscillator-odd", cert)
        if sd.sigma0_len >= 1 and not sd.has_extras and sd.kappa0_len == 0:
            # the block is a unitary one-dimensional factor on top of the
            # trivial representation
            cert = {
                "kind": "induced", "gl_blocks": [block_cert],
                "core": {"kind": "trivial", "rank": sd.sigma0_len,
                         "orbit": [1] * (2 * sd.sigma0_len)},
            }
            return _unitary("relevant-C:character-induced", cert)
        tag, pair = _c_gap_pair(sub, spherical)
        return _nonunitary("relevant-C:" + tag, _lift(datum, [1], pair))

    # fam == "D"
    if s == 0:
        cert = {"kind": "induced", "gl_blocks": [block_cert],
                "core": {"kind": "trivial", "rank": 0}}
        return _unitary("relevant-D:character", cert)
    sub = RootDatum("D", s)
    sd = _decompose(spherical, sub)
    N0 = sd.sigma0_len
    if N0 == 0:
        return _nonunitary(
            "relevant-D:missing-sigma0",
            _lift(datum, [1], _bottom_pair(sub)))
    if not sd.has_extras and sd.kappa0_len == 0:
        cert = {"kind": "unipotent", "family": "D_odd", "a": 1, "b": N0}
        return _unitary(
            "relevant-D:unipotent", cert,
            notes="verdict via the unipotent-family cross-check")
    K1 = sd.kappa[0][1] if len(sd.kappa) == 1 and sd.kappa[0][0] == 2 else None
    if (K1 is not None and not sd.sigma and sd.kappa0_len == 0):
        if N0 >= K1:
            cert = {"kind": "unipotent", "family": "D_odd", "a": K1, "b": N0}
            return _unitary("relevant-D:unipotent", cert)
        return _nonunitary(
            "relevant-D:kappa-exceeds-sigma",
            _d_imbalance_pair(datum, K1, N0))
    if any(k >= 3 for (k, K) in sd.kappa):
        return _nonunitary(
            "relevant-D:deep-kappa",
            _lift(datum, [1], _boundary_pair(sub)))
    return _nonunitary(
        "relevant-D:extra-strings",
        _lift(datum, [1], _bottom_pair(sub)))


# ---------------------------------------------------------------------------
# full parameters
# ---------------------------------------------------------------------------

def _is_hermitian(lL, lR, fam):
    """Is some Weyl twist of (lambda_L, lambda_R) equal to
    (-lambda_R, -lambda_L)?  Both sides are in doubled coordinates; the
    two pairs lie in one orbit exactly when their canonical
    representatives agree."""
    return _canonical_pairs(lL, lR, fam) == _canonical_pairs(
        [-r for r in lR], [-l for l in lL], fam)


def _parity_classes(values):
    """The doubled coordinates, integers then half-integers, each class
    sorted descending; empty classes are left out."""
    classes = (sorted((x for x in values if x % 2 == p), reverse=True) for p in (0, 1))
    return [cls for cls in classes if cls]


def _block_ok(values, r):
    """May the level-r coordinates (doubled) sit inside a unitary
    character of a GL factor?  Per parity class: one consecutive run
    with top+bottom = r."""
    for cls in _parity_classes(values):
        if any(a - b != 2 for a, b in zip(cls, cls[1:])):
            return False
        if cls[0] + cls[-1] != 2 * r:
            return False
    return True


def _gl_block_descriptors(values, r):
    return [
        {"level": r, "size": len(cls), "string": str(HalfIntVec(tuple(cls))).split(",")}
        for cls in _parity_classes(values)
    ]


def _level_violation(datum, pairs, bad_level):
    """Witness for a level whose coordinates cannot form a character:
    the lowest K-type itself against the companion obtained by spreading
    one copy of the level value.  ``pairs`` holds doubled coordinates."""
    mu = sorted(((l - r) // 2 for (l, r) in pairs), reverse=True)
    companion = list(mu)
    # replace the bad level's entries r^m by (r+1, r^(m-2), r-1)
    idx = [i for i, x in enumerate(companion) if x == bad_level]
    companion[idx[0]] = bad_level + 1
    companion[idx[-1]] = bad_level - 1
    return (_kt(datum, tuple(mu)), _kt(datum, tuple(companion)))


def full_unitarity(param):
    """Classify an arbitrary Hermitian parameter with 2*lambda regular
    integral.

    Levels >= 2 of the lowest K-type must stack into unitary characters
    of GL factors; the level <= 1 part is decided from its split pairs
    (a spherical tail, possibly under one small level-1 block) and the
    verdict is pulled back through the induction.
    """
    datum = param.datum
    fam = datum.family
    if not is_regular(param.lambda_L, datum):
        raise ValueError("2*lambda must be regular")
    diff = param.lambda_L - param.lambda_R
    if not diff.is_integral:
        raise ValueError(
            "lowest K-type is not integral; genuine double-cover "
            "parameters are not classified here")
    pairs = list(zip(param.lambda_L.doubled, param.lambda_R.doubled))
    if not _is_hermitian(param.lambda_L.doubled, param.lambda_R.doubled, fam):
        raise ValueError("parameter is not Hermitian")

    if fam != "A":
        pairs = [(l, r) if l - r >= 0 else (-l, -r) for (l, r) in pairs]

    levels = {}
    for (l, r) in pairs:
        levels.setdefault((l - r) // 2, []).append((l, r))

    shape_levels = [r for r in sorted(levels) if (fam == "A" or r >= 1)]
    for r in shape_levels:
        if not _block_ok([l for (l, _) in levels[r]], r):
            return _nonunitary(
                "gl-string-violation", _level_violation(datum, pairs, r),
                notes="level %d" % r)

    gl_levels = shape_levels if fam == "A" else [r for r in shape_levels if r >= 2]
    blocks = []
    for r in gl_levels:
        blocks.extend(_gl_block_descriptors([l for (l, _) in levels[r]], r))

    if fam == "A":
        cert = {"kind": "induced", "gl_blocks": blocks,
                "core": {"kind": "trivial", "rank": 0}}
        return _unitary("A:character-stack", cert)

    # decide levels <= 1
    gl_coords = sorted(
        (r for r in levels if r >= 2 for _ in levels[r]), reverse=True)
    block = sorted(levels.get(1, []), reverse=True)
    spherical = [l for (l, _) in levels.get(0, [])]
    if not block and not spherical:
        sub = _unitary("trivial", {"kind": "trivial", "rank": 0})
    else:
        sub_datum = RootDatum(fam, len(block) + len(spherical))
        if block:
            sub = _relevant(sub_datum, block, spherical)
        else:
            sub = _spherical(spherical, sub_datum)

    if not blocks:
        return sub
    if sub.is_unitary:
        cert = {"kind": "induced", "gl_blocks": blocks,
                "core": sub.certificate}
        return _unitary("induced+" + sub.case, cert, notes=sub.notes)
    return _nonunitary(
        "induced+" + sub.case,
        _lift(datum, gl_coords, sub.witness),
        notes=sub.notes)
