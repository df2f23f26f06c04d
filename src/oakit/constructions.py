"""Juxtaposition, replacement, and family constructions for irredundant arrays.

Three mechanisms generate everything here:

* juxtaposing a strength-2 host with a square difference scheme,
  C = [A (+) 0_d, D (+) (d)], whose minimal distance is exactly
  min(r, MD(A) + r - r/d);
* juxtaposing two strength-3 arrays along orthogonal partitions of
  strength 1, which yields a strength-3 mixed array with a case-wise
  minimal-distance lower bound;
* expansive replacement, substituting each symbol of a d-level column by
  the matching row of a d-row array. This preserves strength, and it
  preserves irredundancy when the undisturbed columns carry minimal
  distance >= k + 1, a replaced column bearing distance only when its
  replacement array has distinct rows.

Every family builder ends with a mandatory oracle re-verification (exact
strength check plus minimal distance); certificates distinguish predicted
values from oracle-verified ones, and nothing is ever emitted as verified
without the re-check.  Intermediates a pipeline builds itself are not
re-checked: `certify` on the output, seed predicates on load and the public
builders' preconditions on caller input are the checks.  A wrong
intermediate still shows, because the output then fails `certify`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from itertools import combinations
from math import gcd, lcm, prod

import numpy as np

from .algebra import (
    DifferenceScheme,
    _linear_scheme,
    column_vector,
    ds_poly3,
    expand,
    finite_field,
    hadamard01,
    juxtapose_scheme_raw,
    product_construction,
)
from .arrays import (
    MixedArray,
    StrengthReport,
    _strength_and_spectrum,
    delete_columns,
    min_distance,
    select_columns,
    verify_strength,
)
from .errors import ConstructionError, ParameterError, VerificationError
from .groups import _require_prime_power, decode, encode, prime_power_decomposition

# Largest output, in cells, that a size-checked builder attempts; larger
# parameters raise ParameterError before building.  Builders compute in
# int64 before `MixedArray` narrows the result, so 2^24 cells pass through
# 128 MiB of int64 even when they are stored as 16 MiB of uint8.
OUTPUT_CELL_CAP = 1 << 24
# an exponent clamped to this keeps q**e finite and, as q >= 2, still above the cap
_CAP_EXPONENT = OUTPUT_CELL_CAP.bit_length()

__all__ = [
    "OrthogonalPartition",
    "ConstructionCertificate",
    "certify",
    "juxtapose_scheme",
    "juxtapose_partitions",
    "partition_from_scheme",
    "expansive_replace",
    "bush_oa",
    "bush_oa_even",
    "trivial_moa",
    "five_column_feasibility",
    "FeasibilityVerdict",
    "two_uniform_3m2n",
    "two_uniform_dm2n",
    "three_uniform_3m2n",
    "three_uniform_dm2n",
    "k_uniform_product",
    "two_uniform_from_scheme",
    "two_uniform_prime_power",
]


def _check_cells(runs: int, cols: int, what: str) -> None:
    """Raise ``ParameterError`` before building a runs x cols array above the cap."""
    if runs * cols > OUTPUT_CELL_CAP:
        raise ParameterError(f"{what} asks for more than the cap of {OUTPUT_CELL_CAP} cells")


def _check_strength(report: StrengthReport, what: str) -> None:
    """The strength precondition on an array a caller passes in, from its report."""
    if not report.holds:
        t, witness = report.strength_checked, report.witness
        raise ParameterError(f"{what} fails the strength-{t} precondition: witness {witness}")


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class OrthogonalPartition:
    """A partition of an array's rows into equal blocks of strength 1."""

    parent: MixedArray
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        r = self.parent.runs
        flat = [i for b in blocks for i in b]
        if sorted(flat) != list(range(r)):
            raise ParameterError("blocks do not partition the row set")
        sizes = {len(b) for b in blocks}
        if len(sizes) != 1:
            raise ParameterError("blocks are not of equal size")
        size = sizes.pop()
        u, levels = len(blocks), self.parent.levels
        label = np.empty(r, dtype=np.int64)
        label[flat] = np.repeat(np.arange(u), size)
        # bad[b, j]: block b fails strength 1 on column j; a level that does
        # not divide the block size fails in every block
        bad = np.ones((u, len(levels)), dtype=bool)
        for j, d in enumerate(levels):
            if size % d == 0:
                codes = encode((label, self.parent.cells[:, j]), (u, d))
                counts = np.bincount(codes, minlength=u * d).reshape(u, d)
                bad[:, j] = (counts != size // d).any(axis=1)
        if bad.any():
            bi, j = (int(x) for x in np.argwhere(bad)[0])
            if size % levels[j]:
                raise VerificationError(
                    f"block size {size} not divisible by level {levels[j]}"
                )
            raise VerificationError(f"block {bi} fails the strength-1 check on column {j}")

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def partition_from_scheme(scheme: DifferenceScheme) -> OrthogonalPartition:
    """The canonical partition of D (+) (d): one block per scheme row.

    The scheme is not re-checked: a `DifferenceScheme` is checked at its
    declared strength when constructed (unless built with ``verify=False``,
    as for internal staging and by `HadamardMatrix01.as_scheme`, whose matrix
    check already proves it) and its cells are read-only.
    """
    parent = expand(scheme)
    d = scheme.order
    blocks = tuple(
        tuple(range(i * d, (i + 1) * d)) for i in range(scheme.rows)
    )
    return OrthogonalPartition(parent, blocks)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class ConstructionCertificate:
    """Claimed parameters plus their verification status.

    ``predicted_md`` carries a construction-level value; ``md_exact`` says
    whether that value is an equality or only a lower bound.  A builder
    fills in neither ``runs`` nor ``profile``: `certify` reads both from the
    array it checks, and sets ``verified`` and ``measured_md`` with them, so
    until it runs a certificate is unverified and carries no runs or profile.
    """

    construction: str
    strength: int
    runs: int | None = None
    profile: str | None = None
    predicted_md: int | None = None
    md_formula: str | None = None
    md_exact: bool = False
    verified: bool = False
    measured_md: int | None = None
    seeds: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "schema": "oakit-certificate-v1",
            "construction": self.construction,
            "runs": self.runs,
            "profile": self.profile,
            "strength": self.strength,
            "predicted_min_distance": self.predicted_md,
            "min_distance_formula": self.md_formula,
            "min_distance_is_exact": self.md_exact,
            "verified": self.verified,
            "measured_min_distance": self.measured_md,
            "irredundant": None
            if self.measured_md is None
            else bool(self.measured_md >= self.strength + 1),
            "seeds": list(self.seeds),
            "notes": list(self.notes),
        }


def certify(
    array: MixedArray, certificate: ConstructionCertificate
) -> ConstructionCertificate:
    """Mandatory oracle re-check: exact strength plus measured distance.

    One split pass gives both (``arrays._strength_and_spectrum``).
    Returns the certificate verified, with ``runs``, ``profile`` and
    ``measured_md`` read from ``array``; whatever it carried in those fields
    before is replaced.
    """
    report, spectrum = _strength_and_spectrum(array, certificate.strength)
    md = spectrum.min_distance
    if not report.holds:
        raise VerificationError(
            f"{certificate.construction}: strength {certificate.strength} oracle "
            f"failed with witness {report.witness}"
        )
    if certificate.predicted_md is not None:
        if certificate.md_exact and md != certificate.predicted_md:
            raise VerificationError(
                f"{certificate.construction}: predicted minimal distance "
                f"{certificate.predicted_md} but measured {md}"
            )
        if not certificate.md_exact and md < certificate.predicted_md:
            raise VerificationError(
                f"{certificate.construction}: minimal distance bound "
                f"{certificate.predicted_md} but measured {md}"
            )
    if md < certificate.strength + 1:
        raise VerificationError(
            f"{certificate.construction}: output is not irredundant at "
            f"k={certificate.strength} (minimal distance {md})"
        )
    return dc_replace(
        certificate, runs=array.runs, profile=array.profile(), verified=True, measured_md=md
    )


# ---------------------------------------------------------------------------
# scheme juxtaposition


def juxtapose_scheme(
    host: MixedArray, scheme: DifferenceScheme
) -> tuple[MixedArray, ConstructionCertificate]:
    """C = [A (+) 0_d, D (+) (d)] for a strength-2 host and square scheme.

    The output is a strength-2 mixed array on N + r columns and d*r runs with
    minimal distance exactly min(r, MD(A) + r - r/d).  The certificate
    returned is unverified and carries no runs or profile until `certify`
    runs on the output.
    """
    r = host.runs
    if scheme.rows != r:
        raise ParameterError(f"host has {r} rows but scheme has {scheme.rows}")
    if scheme.cols != scheme.rows:
        raise ParameterError("scheme must be square")
    report, spectrum = _strength_and_spectrum(host, 2)
    _check_strength(report, "host")
    d = scheme.order
    out = juxtapose_scheme_raw(host, scheme)
    md_host = spectrum.min_distance
    predicted = min(r, md_host + r - r // d)
    cert = ConstructionCertificate(
        construction="juxtapose_scheme",
        strength=2,
        predicted_md=predicted,
        md_formula=f"min(r, MD(host) + r - r/d) = min({r}, {md_host} + {r} - {r // d})",
        md_exact=True,
    )
    return out, cert


# ---------------------------------------------------------------------------
# partition juxtaposition


def _uniform_level(a: MixedArray) -> int:
    levels = set(a.levels)
    if len(levels) != 1:
        raise ParameterError("expected a single-level array")
    return levels.pop()


def juxtapose_partitions(
    pa: OrthogonalPartition, pb: OrthogonalPartition
) -> tuple[MixedArray, ConstructionCertificate]:
    """Combine two strength-3 arrays along their strength-1 partitions pa, pb.

    With u <= v blocks, h = lcm(u, v), the output stacks h/u copies of
    (A blocks, each row repeated d'') against h/v copies of (B blocks, each
    block tiled d') and juxtaposes columns: a strength-3 mixed array on
    d'd''h runs.  Its minimal distance is bounded below by
    min(w1 + w2, N', N'') when u = v, min(N', w2) when u | v with u < v,
    and min(w1, w2) otherwise.  Each factor's strength and w come from one
    ``arrays._strength_and_spectrum`` call.  The certificate returned is
    unverified and carries no runs or profile until `certify` runs on the
    output.
    """
    report, spectrum_a = _strength_and_spectrum(pa.parent, 3)
    _check_strength(report, "first array")
    report, spectrum_b = _strength_and_spectrum(pb.parent, 3)
    _check_strength(report, "second array")
    return _juxtapose_partitions(pa, pb, spectrum_a.min_distance, spectrum_b.min_distance)


def _juxtapose_partitions(
    pa: OrthogonalPartition, pb: OrthogonalPartition, w1: int, w2: int
) -> tuple[MixedArray, ConstructionCertificate]:
    """`juxtapose_partitions` without the strength-3 precondition on the factors.

    ``w1`` and ``w2`` are the factors' minimal distances.  Pipelines call
    this on factors they built themselves: the output's left and right
    column blocks repeat every row of each factor equally often, so
    `certify`'s strength-3 check on the output covers every 3-subset of both.
    """
    a, b = pa.parent, pb.parent
    d1 = _uniform_level(a)
    d2 = _uniform_level(b)
    u, v = pa.block_count, pb.block_count
    if a.runs != d1 * u or b.runs != d2 * v:
        raise ParameterError("block counts must satisfy r = d * blocks")
    if u > v:
        raise ParameterError(f"need u <= v, got u={u} > v={v}")
    h = lcm(u, v)
    # row gathers: A's blocks with each row repeated d'', B's blocks each
    # tiled d', each stack repeated until both have h blocks
    left = np.tile(np.repeat(pa.blocks, d2, axis=1).ravel(), h // u)
    right = np.tile(np.tile(pb.blocks, (1, d1)).ravel(), h // v)
    out = MixedArray(a.levels + b.levels, np.hstack([a.cells[left], b.cells[right]]))
    n1, n2 = a.ncols, b.ncols
    if u == v:
        bound, case = min(w1 + w2, n1, n2), "u = v"
    elif v % u == 0:
        bound, case = min(n1, w2), "u | v, u < v"
    else:
        bound, case = min(w1, w2), "u, v incomparable"
    cert = ConstructionCertificate(
        construction="juxtapose_partitions",
        strength=3,
        predicted_md=bound,
        md_formula=f"case {case}: bound {bound} from w1={w1}, w2={w2}, N'={n1}, N''={n2}",
        md_exact=False,
    )
    return out, cert


# ---------------------------------------------------------------------------
# expansive replacement


def expansive_replace(
    a: MixedArray, replacements: dict[int, MixedArray], strength: int
) -> tuple[MixedArray, ConstructionCertificate]:
    """Substitute symbols of chosen columns by rows of replacement arrays.

    ``replacements`` maps a column index to its replacement array, whose
    columns all take that column's place.  Row i of a replacement stands for
    symbol i, so its run count must equal the replaced column's level.
    Strength is preserved.  The distance-bearing columns are the unreplaced
    ones plus each replaced one whose replacement has distinct rows; when the
    host's minimal distance on them is at least k + 1 the certificate
    predicts k + 1, otherwise it records that a re-verification is required
    (and `certify` performs it).  The certificate returned is unverified and
    carries no runs or profile until `certify` runs on the output.
    """
    if not replacements:
        raise ParameterError("empty replacement plan")
    for j, rep in replacements.items():
        if not 0 <= j < a.ncols:
            raise ParameterError(f"column {j} out of range")
        if rep.runs != a.levels[j]:
            raise ParameterError(
                f"replacement for column {j} has {rep.runs} rows "
                f"but the column has {a.levels[j]} levels"
            )

    pieces: list[np.ndarray] = []
    levels: list[int] = []
    bearing: list[int] = []
    for j in range(a.ncols):
        rep = replacements.get(j)
        if rep is None:
            pieces.append(a.cells[:, [j]])
            levels.append(a.levels[j])
            bearing.append(j)
        else:
            pieces.append(rep.cells[a.cells[:, j]])
            levels.extend(rep.levels)
            if min_distance(rep) >= 1:
                bearing.append(j)
    out = MixedArray(tuple(levels), np.hstack(pieces))

    notes: tuple[str, ...]
    predicted = None
    if bearing:
        host_md = min_distance(select_columns(a, bearing))
        if host_md >= strength + 1:
            predicted = strength + 1
            notes = (
                f"irredundant at k={strength}: distance-bearing columns {bearing} "
                f"carry host distance {host_md} >= k+1",
            )
        else:
            notes = (
                f"distance conditions unmet (host distance {host_md} on columns "
                f"{bearing}); re-verify",
            )
    else:
        notes = ("no distance-bearing columns; re-verify",)
    cert = ConstructionCertificate(
        construction="expansive_replace",
        strength=strength,
        predicted_md=predicted,
        md_formula=None if predicted is None else "k + 1 via replacement distance conditions",
        md_exact=False,
        notes=notes,
    )
    return out, cert


# ---------------------------------------------------------------------------
# polynomial-evaluation arrays


def _evaluations(q: int, k: int, points: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Every polynomial of degree < k over GF(q), evaluated at field elements.

    Row m is the polynomial whose coefficient of x^j is the j-th base-q digit
    of m; returns the (q^k, points) evaluations at elements 0..points-1, by
    Horner's rule, and the coefficient columns.
    """
    gf = finite_field(q)
    coeffs = decode(np.arange(q**k)[:, None], (q,) * k)[::-1]
    e = np.arange(points)[None, :]
    values = 0
    for c in reversed(coeffs):
        values = gf.add(gf.mul(values, e), c)
    return values, coeffs


def bush_oa(q: int, k: int, columns: int | None = None) -> MixedArray:
    """OA(q^k, q+1, q, k) by evaluating degree-<k polynomials over GF(q).

    Row m encodes the polynomial whose coefficient of x^j is the j-th base-q
    digit of m; the first q columns evaluate it at each field element and the
    last column carries the degree-(k-1) coefficient.  The full array has
    minimal distance q + 2 - k, so with q >= 2k - 1 (enforced) it is
    irredundant at k; ``columns`` truncates to the first so-many columns,
    and only those are computed.  Above ``OUTPUT_CELL_CAP`` cells the call
    raises ``ParameterError`` before building anything.
    """
    _require_prime_power(q)
    if k < 1:
        raise ParameterError("strength must be >= 1")
    if q + 1 < 2 * k:
        raise ParameterError(
            f"need q >= 2k - 1 for the irredundancy guarantee, got q={q}, k={k}"
        )
    width = q + 1 if columns is None else columns
    if not 1 <= width <= q + 1:
        raise ParameterError(f"columns must be in 1..{q + 1}")
    _check_cells(q ** min(k, _CAP_EXPONENT), width, f"q={q}, k={k}, columns={width}")
    values, coeffs = _evaluations(q, k, min(width, q))
    if width > q:
        values = np.hstack([values, coeffs[k - 1]])
    return MixedArray((q,) * width, values)


def bush_oa_even(q: int) -> MixedArray:
    """Strength-3 array OA(q^3, q+2, q, 3) for even prime powers q.

    Columns evaluate each degree-<3 polynomial at the q field elements and
    append its two top coefficients; over characteristic 2 any three of
    these functionals are independent, giving minimal distance q (= k + 1
    at q = 4).  One split pass checks both as the array is built.
    """
    pm = prime_power_decomposition(q)
    if pm is None or pm[0] != 2:
        raise ParameterError(f"{q} must be an even prime power")
    values, coeffs = _evaluations(q, 3, q)
    array = MixedArray((q,) * (q + 2), np.hstack([values, coeffs[1], coeffs[2]]))
    report, spectrum = _strength_and_spectrum(array, 3)
    if not report.holds:
        raise ConstructionError("even-characteristic strength-3 construction failed")
    if spectrum.min_distance != q:
        raise ConstructionError("even-characteristic construction missed its distance")
    return array


def trivial_moa(levels) -> MixedArray:
    """Full factorial over the given levels (first column most significant).

    Strength equals the column count.
    """
    levels = tuple(int(d) for d in levels)
    if not levels or any(d < 2 for d in levels):
        raise ParameterError("levels must be a nonempty list of integers >= 2")
    runs = prod(levels)
    _check_cells(runs, len(levels), f"levels {levels}")
    return MixedArray(levels, np.stack(decode(np.arange(runs), levels), axis=1))


# ---------------------------------------------------------------------------
# five-column feasibility


@dataclass(frozen=True)
class FeasibilityVerdict:
    impossible: bool
    reason: str

    @property
    def status(self) -> str:
        return "Impossible" if self.impossible else "NotRuledOut"


def five_column_feasibility(levels) -> FeasibilityVerdict:
    """Counting verdict for irredundant strength-2 arrays on five columns.

    Strength 2 forces the run count to be a common multiple of every pair of
    levels, while irredundancy at k = 2 caps it by the level product of every
    three-column subarray (rows there must be distinct).  When the smallest
    admissible multiple exceeds some cap, no such array exists.  Requires the
    hypothesis: levels not all equal, distinct values pairwise coprime.
    """
    levels = tuple(int(d) for d in levels)
    if len(levels) != 5:
        raise ParameterError(f"need exactly five levels, got {len(levels)}")
    if any(d < 2 for d in levels):
        raise ParameterError("levels must all be >= 2")
    if len(set(levels)) == 1:
        return FeasibilityVerdict(False, "hypothesis unmet: all levels equal")
    for x, y in combinations(sorted(set(levels)), 2):
        if gcd(x, y) != 1:
            return FeasibilityVerdict(
                False, f"hypothesis unmet: distinct levels {x} and {y} share a factor"
            )
    run_multiple = 1
    for i, j in combinations(range(5), 2):
        run_multiple = lcm(run_multiple, levels[i] * levels[j])
    best_cap = None
    best_pair = None
    for i, j in combinations(range(5), 2):
        cap = prod(levels[c] for c in range(5) if c not in (i, j))
        if best_cap is None or cap < best_cap:
            best_cap, best_pair = cap, (i, j)
    assert best_cap is not None and best_pair is not None
    if run_multiple > best_cap:
        return FeasibilityVerdict(
            True,
            f"runs must be a multiple of {run_multiple}, but deleting columns "
            f"{best_pair} leaves at most {best_cap} distinct rows",
        )
    return FeasibilityVerdict(
        False,
        f"counting admits runs = {run_multiple} (subarray caps are >= {best_cap})",
    )


# ---------------------------------------------------------------------------
# family builders


def _two_uniform_pipeline(
    host: MixedArray | None, d: int, m: int, n: int, construction: str
) -> tuple[MixedArray, ConstructionCertificate]:
    """Shared strength-2 pipeline: pick a host, then [A (+) 0_2, H (+) (2)].

    Built-in hosts over d^m 2^b: the seeds moa-12-3x2^4, moa-36-3^2x2^2 and
    moa-108-3^3x2^2 for d = 3 and m = 1, 2, 3, and the 8-run array over
    4^1 2^4 for d = 4, m = 1.  A caller's host keeps its first m d-level
    columns, moved in front of its two-level ones, must pass the strength-2
    precondition and is recorded as "caller-host".

    At each stage the host gains r two-level scheme columns.  Deletion first
    spends the guaranteed budget on the trailing columns and otherwise drops
    the host's inherited two-level columns before trimming the scheme block;
    the result is re-verified regardless of which strategy ran.  Parameters
    whose last stage would exceed ``OUTPUT_CELL_CAP`` cells raise
    ``ParameterError`` before any stage is built.
    """
    from .catalog import seed_array  # deferred: catalog builds on this module

    if host is not None:
        seed = "caller-host"
    elif d == 3 and m in (1, 2, 3):
        seed = ("moa-12-3x2^4", "moa-36-3^2x2^2", "moa-108-3^3x2^2")[m - 1]
        host = seed_array(seed)
    elif d == 4 and m == 1:
        # the 8-run array over 4^1 2^4 that two_uniform_from_scheme(4, 4, 2)
        # certifies; the output's certify covers it here
        seed = "scheme-juxtaposition 4^1x2^4"
        host = juxtapose_scheme_raw(column_vector(4), hadamard01(4).as_scheme())
    else:
        raise ParameterError(f"no built-in host for d = {d}, m = {m}; pass a strength-2 host")
    d_cols = [j for j, lv in enumerate(host.levels) if lv == d]
    if len(d_cols) < m or any(lv not in (2, d) for lv in host.levels):
        raise ParameterError(f"host must be an array over levels {d} and 2")
    # the stages below take the host's d-level columns to come first
    two_cols = [j for j, lv in enumerate(host.levels) if lv == 2]
    host = select_columns(host, d_cols[:m] + two_cols)
    if seed == "caller-host":
        _check_strength(verify_strength(host, 2), "host")

    # the last stage's host has r runs and `inherited` binary columns
    r, inherited, stages = host.runs, host.ncols - m, 1
    while n > inherited + r:
        r, inherited, stages = 2 * r, inherited + r, stages + 1
    total_two = inherited + r
    low = r // 2 + 3
    if n < low:
        raise ParameterError(
            f"{n} two-level columns unreachable at this stage (needs >= {low})"
        )
    cols = host.ncols + 2 * r - host.runs  # the host plus every scheme block
    _check_cells(2 * r, cols, f"n = {n} two-level columns")
    stage = host
    for _ in range(stages):
        stage = juxtapose_scheme_raw(stage, hadamard01(stage.runs).as_scheme())
    j = total_two - n
    budget = min_distance(stage) - 3
    # every n >= r is within budget: j <= inherited there, and a strength-2
    # host over d^m 2^inherited with m*d >= 3 has inherited <= budget
    if j <= budget:
        drop = list(range(stage.ncols - j, stage.ncols))
        notes = (f"any-within-budget deletion of the last {j} binary columns",)
    else:
        # host-part-first: drop every inherited binary column, then trim
        # the scheme block from the end
        from_scheme = j - inherited
        drop = list(range(m, m + inherited))
        drop += list(range(stage.ncols - from_scheme, stage.ncols))
        notes = (
            f"host-part-first deletion: {inherited} inherited binary columns "
            f"plus the last {from_scheme} scheme columns",
        )
    out = delete_columns(stage, drop) if drop else stage
    cert = ConstructionCertificate(construction=construction, strength=2, seeds=(seed,), notes=notes)
    return out, certify(out, cert)


def two_uniform_3m2n(
    m: int, n: int, host: MixedArray | None = None
) -> tuple[MixedArray, ConstructionCertificate]:
    """Irredundant strength-2 array over 3^m 2^n.

    The built-in hosts are full factorials for m = 2 (36 runs over 3^2 2^2,
    n >= 21) and m = 3 (108 runs over 3^3 2^2, n >= 57) and a searched
    12-run array for m = 1, which covers every n >= 8 (n = 8 through the
    verified scheme-trim route).  A caller-provided strength-2 host
    MOA(r, 3^m 2^b, 2) overrides the built-ins.
    """
    from .catalog import seed_array  # deferred: catalog builds on this module

    if m < 1:
        raise ParameterError("need m >= 1")
    if host is None and m == 1 and n == 8:
        return two_uniform_from_scheme(
            12, 12, 2, replacement=seed_array("moa-12-3x2^4"), scheme_keep=4
        )
    return _two_uniform_pipeline(host, 3, m, n, f"two_uniform_3m2n(m={m}, n={n})")


def two_uniform_dm2n(
    d: int, m: int, n: int, host: MixedArray | None = None
) -> tuple[MixedArray, ConstructionCertificate]:
    """Irredundant strength-2 array over d^m 2^n for d > 3.

    Built-in host exists for d = 4 (the verified 8-run array over 4^1 2^4),
    covering every n >= 7; other d require a caller host, as the known
    tabulated hosts are not printed anywhere reachable.
    """
    if d <= 3:
        raise ParameterError("use the 3^m 2^n builder for d <= 3")
    if m < 1:
        raise ParameterError("need m >= 1")
    return _two_uniform_pipeline(host, d, m, n, f"two_uniform_dm2n(d={d}, m={m}, n={n})")


def _three_uniform_pipeline(
    left_scheme: DifferenceScheme,
    keep_left: int,
    n: int,
    base_order: int,
    construction: str,
    seeds: tuple[str, ...],
) -> tuple[MixedArray, ConstructionCertificate]:
    """Shared strength-3 pipeline: trim schemes, expand, partition, juxtapose.

    ``base_order`` is the smallest usable Hadamard order; doublings cover
    n in [order/2 + 4, order].  A value of n that falls in the gap just above
    an order is built from the next doubling by re-verified extra deletion.
    When the output or the order x order Hadamard matrix would exceed
    ``OUTPUT_CELL_CAP`` cells, ``ParameterError`` is raised before building.
    """
    order = base_order
    while n > order:
        order *= 2
    guaranteed_low = order // 2 + 4
    extra = max(0, guaranteed_low - n)
    n_build = max(n, guaranteed_low)  # <= order, as base orders are at least 36
    left = left_scheme
    if keep_left < left.cols:
        left = left.select_columns(range(keep_left))
    _check_cells(order, order, f"n = {n} (Hadamard order {order})")
    runs = left.order * 2 * lcm(left.rows, order)
    _check_cells(runs, left.cols + n_build, f"n = {n}")

    pa = partition_from_scheme(left)
    right = hadamard01(order).as_scheme(3).select_columns(range(n_build))
    pb = partition_from_scheme(right)
    out, cert = _juxtapose_partitions(pa, pb, min_distance(pa.parent), min_distance(pb.parent))
    notes = [f"binary scheme of order {order} trimmed to {n_build} columns"]
    if extra:
        out = delete_columns(out, range(out.ncols - extra, out.ncols))
        notes.append(
            f"re-verified deletion of {extra} further binary columns beyond the guarantee"
        )
        cert = dc_replace(cert, predicted_md=4, md_formula="beyond-guarantee deletion", md_exact=False)
    cert = dc_replace(cert, construction=construction, seeds=seeds, notes=tuple(notes))
    return out, certify(out, cert)


def three_uniform_3m2n(m: int, n: int) -> tuple[MixedArray, ConstructionCertificate]:
    """Irredundant strength-3 array over 3^m 2^n (m in {4, 5}, n >= 22).

    Left factor: the searched strength-3 scheme on 18 rows and 5 ternary
    columns, expanded to a 54-run array and trimmed to m columns; right
    factor: a binary Hadamard scheme of order 36 * 2^h trimmed to n columns.
    """
    from .catalog import seed_scheme  # deferred: catalog builds on this module

    if m not in (4, 5):
        raise ParameterError("m must be 4 or 5")
    if n < 22:
        raise ParameterError("n >= 22 is the constructive range from extracted sources")
    scheme18 = seed_scheme("scheme-18x5-over-3")
    return _three_uniform_pipeline(
        scheme18,
        m,
        n,
        36,
        f"three_uniform_3m2n(m={m}, n={n})",
        ("scheme-18x5-over-3", "hadamard"),
    )


def three_uniform_dm2n(d: int, m: int, n: int) -> tuple[MixedArray, ConstructionCertificate]:
    """Irredundant strength-3 array over d^m 2^n for odd prime powers d > 4.

    Left factor: the verified strength-3 scheme on d^2 rows and d columns
    (entry a*c + b*c^2 over GF(d)); right factor: binary Hadamard schemes of
    order 4d^2 * 2^h.  Constructive range: 4 <= m <= d and
    n in [2 d^2 2^h + 4, 4 d^2 2^h].
    """
    pm = prime_power_decomposition(d)
    if pm is None or pm[0] == 2 or d <= 4:
        raise ParameterError("d must be an odd prime power greater than 4")
    if not 4 <= m <= d:
        raise ParameterError(f"m must be in 4..{d}")
    if n < 2 * d * d + 4:
        raise ParameterError(f"n must be at least {2 * d * d + 4}")
    scheme = ds_poly3(d)
    return _three_uniform_pipeline(
        scheme,
        m,
        n,
        4 * d * d,
        f"three_uniform_dm2n(d={d}, m={m}, n={n})",
        (f"poly-scheme-d{d}", "hadamard"),
    )


def k_uniform_product(
    k: int, factors, plan=None
) -> tuple[MixedArray, ConstructionCertificate]:
    """Irredundant strength-k array over d = prod(factors) levels on 2k columns.

    Each factor q (a distinct prime power >= 2k - 1) contributes its
    polynomial-evaluation array truncated to 2k columns; the symbol-pairing
    product combines them in ascending-factor order.  ``plan`` optionally
    replaces columns by full factorials over given sub-levels (their product
    must equal d), splitting parties while keeping k-uniformity.  When the
    product array would exceed ``OUTPUT_CELL_CAP`` cells, ``ParameterError``
    is raised before building anything.
    """
    factors = sorted(int(q) for q in factors)
    if not factors:
        raise ParameterError("need at least one factor")
    if len(set(factors)) != len(factors):
        raise ParameterError("factors must be distinct")
    for x, y in combinations(factors, 2):
        if gcd(x, y) != 1:
            raise ParameterError("factors must be coprime prime powers")
    # k < 1 and bad factors are left to bush_oa's checks
    if k >= 1:
        runs = prod(q ** min(k, _CAP_EXPONENT) for q in factors)
        _check_cells(runs, 2 * k, f"k={k}, factors={factors}")
    arrays = [bush_oa(q, k, columns=2 * k) for q in factors]
    out = arrays[0]
    for nxt in arrays[1:]:
        out = product_construction(out, nxt)
    d = prod(factors)
    seeds = tuple(f"polynomial-evaluation q={q} k={k}" for q in factors)
    if plan:
        replacements = {}
        for column, sub_levels in plan:
            if prod(int(x) for x in sub_levels) != d:
                raise ParameterError(
                    f"replacement levels {sub_levels} do not multiply to {d}"
                )
            if int(column) in replacements:
                raise ParameterError("plan replaces a column twice")
            replacements[int(column)] = trivial_moa(sub_levels)
        out, cert = expansive_replace(out, replacements, k)
        cert = dc_replace(
            cert, construction=f"k_uniform_product(k={k}, factors={factors})", seeds=seeds
        )
    else:
        cert = ConstructionCertificate(
            construction=f"k_uniform_product(k={k}, factors={factors})",
            strength=k,
            predicted_md=k + 1,
            md_formula="min over factors of (q + 2 - k) - (q + 1 - 2k) = k + 1",
            md_exact=True,
            seeds=seeds,
        )
    return out, certify(out, cert)


def two_uniform_from_scheme(
    index_levels: int,
    scheme_columns: int,
    d: int,
    replacement: MixedArray | None = None,
    scheme_keep: int | None = None,
    scheme: DifferenceScheme | None = None,
) -> tuple[MixedArray, ConstructionCertificate]:
    """[(N) (+) 0_d, D(N, M, d) (+) (d)] with optional index-column replacement.

    N = ``index_levels``: the first column enumerates the scheme rows and the
    remaining M = ``scheme_columns`` columns expand the scheme, giving a
    strength-2 array on d*N runs over N^1 d^M.  Replacing the index column by
    an N-row strength-2 array B trades it for B's columns.  ``scheme_keep``
    trims the scheme block to that many columns, choosing the
    lexicographically first subset for which the finished array passes the
    exact checks.  The certificate names the scheme ``hadamard-N`` when it
    is the built-in one and ``scheme-NxM-over-d`` when the caller passes it.
    When the output or the built-in N x N Hadamard matrix would
    exceed ``OUTPUT_CELL_CAP`` cells, ``ParameterError`` is raised before
    building.
    """
    n = index_levels
    width = scheme_columns + (1 if replacement is None else replacement.ncols)
    _check_cells(d * n, width, f"N={n}, M={scheme_columns}, d={d}")
    seeds = (f"scheme-{n}x{scheme_columns}-over-{d}",)
    if scheme is None:
        if d != 2:
            raise ParameterError("built-in schemes exist only for d = 2; pass one")
        _check_cells(n, n, f"N={n} (Hadamard order)")
        scheme, seeds = hadamard01(n).as_scheme(), (f"hadamard-{n}",)
    elif scheme.rows != n:
        raise ParameterError("scheme row count must equal the index levels")
    elif scheme.order != d:
        raise ParameterError(f"scheme has order {scheme.order}, not d = {d}")
    if not 1 <= scheme_columns <= scheme.cols:
        raise ParameterError(f"need 1..{scheme.cols} scheme columns, got {scheme_columns}")
    if scheme_columns != scheme.cols:
        scheme = scheme.select_columns(range(scheme_columns))
    if replacement is not None:
        if replacement.runs != n:
            raise ParameterError(f"replacement has {replacement.runs} rows, not N = {n}")
        _check_strength(verify_strength(replacement, min(2, replacement.ncols)), "replacement")

    # a replacement's rows stand in for the index column's symbols, which is
    # the same as juxtaposing the scheme with the replacement as host
    index = column_vector(n) if replacement is None else replacement
    name = f"two_uniform_from_scheme(N={n}, M={scheme_columns}, d={d})"
    if scheme_keep is None or scheme_keep == scheme.cols:
        out = juxtapose_scheme_raw(index, scheme)
        cert = ConstructionCertificate(construction=name, strength=2, seeds=seeds)
        return out, certify(out, cert)
    if not 1 <= scheme_keep < scheme.cols:
        raise ParameterError("scheme_keep out of range")
    for keep_cols in combinations(range(scheme.cols), scheme_keep):
        candidate = juxtapose_scheme_raw(index, scheme.select_columns(keep_cols))
        cert = ConstructionCertificate(
            construction=name,
            strength=2,
            seeds=seeds,
            notes=(
                f"scheme block trimmed to columns {keep_cols} (first verified subset)",
            ),
        )
        try:  # strength 2 with minimal distance >= 3, checked once
            return candidate, certify(candidate, cert)
        except VerificationError:
            continue
    raise ConstructionError(
        f"no {scheme_keep}-column scheme subset passes verification"
    )


def two_uniform_prime_power(
    d: int, n: int, replacement: MixedArray | None = None
) -> tuple[MixedArray, ConstructionCertificate]:
    """Theorem 8 over the linear scheme D(d^n, d^n, d), for prime powers d.

    Expands D(d^n, d^n, d) behind an index column through
    `two_uniform_from_scheme`; the scheme block alone has minimal distance
    d^n - d^(n-1), so for all but the smallest orders the result is
    irredundant at 2 outright.  A d^n-row replacement array of strength 2
    (strength 1 if it has one column) may substitute the index column.  The
    output has d^(n+1) x (d^n + 1) cells without a replacement; above
    ``OUTPUT_CELL_CAP`` the call raises ``ParameterError`` before building
    anything.
    """
    if d >= 2 and n >= 1:
        e = min(n, _CAP_EXPONENT)
        _check_cells(d ** (e + 1), d**e + 1, f"d={d}, n={n}")
    scheme = _linear_scheme(d, n, verify=False)  # `certify` checks its expansion columns
    name = f"two_uniform_prime_power(d={d}, n={n})"
    try:
        out, cert = two_uniform_from_scheme(d**n, d**n, d, replacement, scheme=scheme)
    except VerificationError as exc:  # it names Theorem 8's call; name this one
        raise VerificationError(f"{name}:{str(exc).partition(':')[2]}") from None
    return out, dc_replace(cert, construction=name, seeds=(f"linear-scheme d={d} n={n}",))
