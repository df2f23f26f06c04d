"""Seed registry, family registry, and the named state fixtures.

Seeds are never invented.  Each one is produced by a deterministic
generator (an algebraic construction), stored as package data, or must be
imported from a file.  The stored seeds are the results of canonical
backtracking searches: ``seeds/<name>.moa`` is a moa v1 file whose ``#``
header records the generating call and, for ``search_moa``, its node count.
Every seed declares a predicate (runs, levels, strength, and a distance
floor for arrays; rows, order and strength for schemes), and materializing
a seed always checks it before the result is memoized per process, so a
corrupted generator or seed file can never feed a build silently.  A stored
seed is read on first use, never at import, and a missing or failing file
raises VerificationError; no search runs in its place.  ``regenerate`` on a
search seed's entry re-runs its search and renders the stored file.

Family entries reproduce the cataloged constructions: building one
re-verifies the expected certificate exactly, and the emitted bytes are
deterministic from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import DifferenceScheme, ds_linear
from .arrays import MixedArray, min_distance, verify_strength
from .constructions import (
    ConstructionCertificate,
    k_uniform_product,
    three_uniform_3m2n,
    two_uniform_3m2n,
    two_uniform_from_scheme,
    two_uniform_prime_power,
    trivial_moa,
)
from .errors import MissingSeedError, OakitError, ParameterError, VerificationError
from .formats import parse_any, serialize_array, serialize_scheme
from .quantum import SparseState, emit_state, verify_k_uniform
from .search import SearchResult, SearchSpec, search_moa, search_scheme

__all__ = [
    "SeedPredicate",
    "SeedEntry",
    "FamilyEntry",
    "seed_array",
    "seed_scheme",
    "seed_entries",
    "catalog_list",
    "catalog_build",
    "fixture_states",
    "self_test",
]


# ---------------------------------------------------------------------------
# seeds


@dataclass(frozen=True)
class SeedPredicate:
    """What a seed must satisfy before it is cached.

    An array seed has ``runs`` rows over ``levels``, strength ``strength``
    and, if ``min_distance`` is set, at least that minimal distance.  A
    scheme seed has ``runs`` rows, one ``levels`` entry (its order) per
    column and the strength tag ``strength``; a DifferenceScheme's tag is
    checked against its expansion when it is constructed, which
    ``parse_any`` always does.
    """

    kind: str  # "array" | "scheme"
    runs: int
    levels: tuple[int, ...]
    strength: int
    min_distance: int | None = None

    def violation(self, obj) -> str | None:
        """Why ``obj`` fails the predicate, or None if it holds."""
        if self.kind == "scheme":
            if not isinstance(obj, DifferenceScheme):
                return "not a difference scheme"
            found = (obj.rows, (obj.order,) * obj.cols, obj.strength)
            declared = (self.runs, self.levels, self.strength)
            if found != declared:
                return f"(rows, levels, strength) is {found}, declared {declared}"
            return None
        if not isinstance(obj, MixedArray):
            return "not an array"
        if (obj.runs, obj.levels) != (self.runs, self.levels):
            return f"shape is {obj.runs} x {obj.levels}, declared {self.runs} x {self.levels}"
        report = verify_strength(obj, self.strength)
        if not report.holds:
            return f"strength {self.strength} fails at columns {report.witness.columns}"
        if self.min_distance is not None:
            md = min_distance(obj)
            if md < self.min_distance:
                return f"minimal distance {md} is below {self.min_distance}"
        return None


@dataclass(frozen=True)
class SeedEntry:
    """A named seed and the predicate it is checked against.

    ``build`` makes a generator seed.  A search seed is stored as package
    data in ``seeds/<name>.moa``; its ``regenerate`` re-runs the search and
    renders that file, provenance header included.
    """

    name: str
    description: str
    origin: str  # "generator" | "search" | "import-required"
    predicate: SeedPredicate | None = None
    build: Callable[[], object] | None = None
    regenerate: Callable[[], str] | None = None


def _provenance(name: str, description: str, *lines: str) -> str:
    return "".join(f"# {line}\n" for line in (f"seed {name}: {description}", *lines))


def _search_moa_seed(name, description, runs, levels, strength, w):
    spec = SearchSpec(runs, levels, strength, min_distance=w, node_budget=20_000_000)

    def regenerate() -> str:
        result = search_moa(spec)
        if not result.found:
            raise VerificationError(f"seed {name!r}: search ended {result.status}")
        header = _provenance(
            name, description, f"generated by search_moa({spec!r})", f"nodes {result.nodes}"
        )
        return header + serialize_array(result.array, strength)

    predicate = SeedPredicate("array", runs, spec.levels, strength, w)
    return SeedEntry(name, description, "search", predicate, regenerate=regenerate)


def _search_scheme_seed(name, description, rows, cols, order, strength, budget):
    call = (
        f"search_scheme(rows={rows}, cols={cols}, order={order}, "
        f"strength={strength}, node_budget={budget})"
    )

    def regenerate() -> str:
        scheme = search_scheme(rows, cols, order, strength, node_budget=budget)
        if isinstance(scheme, SearchResult):
            raise VerificationError(f"seed {name!r}: search ended {scheme.status}")
        return _provenance(name, description, f"generated by {call}") + serialize_scheme(scheme)

    predicate = SeedPredicate("scheme", rows, (order,) * cols, strength)
    return SeedEntry(name, description, "search", predicate, regenerate=regenerate)


_SEEDS: dict[str, SeedEntry] = {}


def _register_seed(entry: SeedEntry) -> None:
    _SEEDS[entry.name] = entry


_register_seed(
    SeedEntry(
        "scheme-3x3x3",
        "difference scheme D(3,3,3): the multiplication table of Z_3",
        "generator",
        SeedPredicate("scheme", 3, (3, 3, 3), 2),
        build=lambda: ds_linear(3, 1),
    )
)
_register_seed(
    _search_scheme_seed(
        "scheme-18x5-over-3",
        "strength-3 difference scheme on 18 rows and 5 ternary columns",
        18, 5, 3, 3, budget=50_000_000,
    )
)
# MD >= 2 is impossible for this profile (canonical search exhausts), so the
# seed asks only for distinct rows.
_register_seed(
    _search_moa_seed(
        "moa-12-3x2^4",
        "MOA(12, 5, 3^1 2^4, 2) with distinct rows",
        12, (3, 2, 2, 2, 2), 2, w=1,
    )
)
_register_seed(
    _search_moa_seed(
        "moa-6-6x3x2",
        "MOA(6, 3, 6^1 3^1 2^1, 1) with minimal distance 2 (the AME seed)",
        6, (6, 3, 2), 1, w=2,
    )
)
_register_seed(
    SeedEntry(
        "moa-36-3^2x2^2",
        "MOA(36, 4, 3^2 2^2, 2): the full factorial host for the 3^2 x 2^n family",
        "generator",
        SeedPredicate("array", 36, (3, 3, 2, 2), 2),
        build=lambda: trivial_moa((3, 3, 2, 2)),
    )
)
_register_seed(
    SeedEntry(
        "moa-108-3^3x2^2",
        "MOA(108, 5, 3^3 2^2, 2): the full factorial host for the 3^3 x 2^n family",
        "generator",
        SeedPredicate("array", 108, (3, 3, 3, 2, 2), 2),
        build=lambda: trivial_moa((3, 3, 3, 2, 2)),
    )
)
_register_seed(
    SeedEntry(
        "scheme-12x6-over-6",
        "difference scheme D(12, 6, 6) over Z_6 (externally tabulated; import it)",
        "import-required",
    )
)
_register_seed(
    SeedEntry(
        "iroa-6-levels-strength-3",
        "IrOA(r_N, N, 6, 3) hosts (externally tabulated; import them)",
        "import-required",
    )
)

_SEED_CACHE: dict[str, object] = {}


def seed_entries() -> list[SeedEntry]:
    return [_SEEDS[name] for name in sorted(_SEEDS)]


def _load_stored(name: str):
    """Parse the search seed ``name`` from its package-data file."""
    from importlib.resources import files  # deferred: seeds load on first use

    try:
        text = (files(__package__) / "seeds" / f"{name}.moa").read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise VerificationError(f"seed {name!r}: stored file seeds/{name}.moa is missing") from exc
    try:
        return parse_any(text)
    except OakitError as exc:
        raise VerificationError(f"seed {name!r}: stored file is invalid: {exc}") from exc


def _materialize(name: str):
    if name not in _SEEDS:
        raise ParameterError(f"unknown seed {name!r}")
    entry = _SEEDS[name]
    if entry.origin == "import-required":
        raise MissingSeedError(
            f"seed {name!r} ({entry.description}) is not generatable here; "
            "supply it with --seed FILE"
        )
    if name not in _SEED_CACHE:
        assert entry.predicate is not None
        obj = _load_stored(name) if entry.origin == "search" else entry.build()
        problem = entry.predicate.violation(obj)
        if problem is not None:
            raise VerificationError(f"seed {name!r} fails its predicate: {problem}")
        _SEED_CACHE[name] = obj
    return _SEED_CACHE[name]


def seed_array(name: str) -> MixedArray:
    obj = _materialize(name)
    if not isinstance(obj, MixedArray):
        raise ParameterError(f"seed {name!r} is not an array")
    return obj


def seed_scheme(name: str) -> DifferenceScheme:
    obj = _materialize(name)
    if not isinstance(obj, DifferenceScheme):
        raise ParameterError(f"seed {name!r} is not a difference scheme")
    return obj


def self_test() -> list[str]:
    """Materialize every generatable seed, failing loudly with its name."""
    checked = []
    for entry in seed_entries():
        if entry.origin == "import-required":
            continue
        try:
            _materialize(entry.name)
        except Exception as exc:  # pragma: no cover - failure path
            raise VerificationError(f"seed {entry.name!r} failed its self-test: {exc}")
        checked.append(entry.name)
    return checked


# ---------------------------------------------------------------------------
# family registry


@dataclass(frozen=True)
class FamilyEntry:
    """One buildable catalog entry with its expected certificate."""

    id: str
    description: str
    runs: int
    profile: str
    strength: int
    md_floor: int
    builder: Callable[[], tuple[MixedArray, ConstructionCertificate]] | None = None
    needs_seed: str | None = None


def _table3_replacement(levels):
    return lambda: two_uniform_from_scheme(
        12, 12, 2, replacement=trivial_moa(levels)
    )


def _table5_builder(seed: DifferenceScheme):
    return two_uniform_from_scheme(12, 6, 6, scheme=seed)


_FAMILIES: list[FamilyEntry] = []


def _register(entry: FamilyEntry) -> None:
    _FAMILIES.append(entry)


for _n in range(9, 17):
    _register(
        FamilyEntry(
            f"thm1/3^1x2^{_n}",
            f"two-uniform family over 3^1 2^{_n} (24 runs)",
            24,
            f"3^1 2^{_n}",
            2,
            3,
            (lambda n=_n: two_uniform_3m2n(1, n)),
        )
    )
_register(
    FamilyEntry(
        "thm1/3^2x2^21",
        "two-uniform family over 3^2 2^21 (72 runs, searched 36-run host)",
        72,
        "3^2 2^21",
        2,
        3,
        lambda: two_uniform_3m2n(2, 21),
    )
)
_register(
    FamilyEntry(
        "thm2/4^1x2^7",
        "two-uniform family over 4^1 2^7 (16 runs)",
        16,
        "4^1 2^7",
        2,
        3,
        lambda: _thm2_entry(),
    )
)
_register(
    FamilyEntry(
        "thm3/3^5x2^36",
        "three-uniform family over 3^5 2^36 (216 runs)",
        216,
        "3^5 2^36",
        3,
        4,
        lambda: three_uniform_3m2n(5, 36),
    )
)
_register(
    FamilyEntry(
        "thm3/3^4x2^22",
        "three-uniform family over 3^4 2^22 (216 runs)",
        216,
        "3^4 2^22",
        3,
        4,
        lambda: three_uniform_3m2n(4, 22),
    )
)
_register(
    FamilyEntry(
        "table3/12^1x2^12",
        "24-run base: index column against the order-12 binary scheme",
        24,
        "12^1 2^12",
        2,
        3,
        lambda: two_uniform_from_scheme(12, 12, 2),
    )
)
_register(
    FamilyEntry(
        "table3/3^1x2^8",
        "the special 24-run array over 3^1 2^8 (trimmed scheme, searched replacement)",
        24,
        "3^1 2^8",
        2,
        3,
        lambda: two_uniform_from_scheme(
            12, 12, 2, replacement=seed_array("moa-12-3x2^4"), scheme_keep=4
        ),
    )
)
_register(
    FamilyEntry(
        "table3/6^1x2^13",
        "24-run array over 6^1 2^13 (index column split as 6 x 2)",
        24,
        "6^1 2^13",
        2,
        3,
        _table3_replacement((6, 2)),
    )
)
_register(
    FamilyEntry(
        "table3/4^1x3^1x2^12",
        "24-run array over 4^1 3^1 2^12 (index column split as 4 x 3)",
        24,
        "4^1 3^1 2^12",
        2,
        3,
        _table3_replacement((4, 3)),
    )
)
_register(
    FamilyEntry(
        "table3/3^1x2^14",
        "24-run array over 3^1 2^14 (index column split as 3 x 2 x 2)",
        24,
        "3^1 2^14",
        2,
        3,
        _table3_replacement((3, 2, 2)),
    )
)
_register(
    FamilyEntry(
        "thm7/12^3x4^1x3^1",
        "144-run strength-2 family over 12^3 4^1 3^1 (product of evaluation arrays)",
        144,
        "12^3 4^1 3^1",
        2,
        3,
        lambda: k_uniform_product(2, (3, 4), plan=[(3, (4, 3))]),
    )
)
_register(
    FamilyEntry(
        "thm8/4^1x2^4",
        "8-run array over 4^1 2^4 (index column against the order-4 binary scheme)",
        8,
        "4^1 2^4",
        2,
        3,
        lambda: two_uniform_from_scheme(4, 4, 2),
    )
)
_register(
    FamilyEntry(
        "cor2/4^1x2^9",
        "16-run array over 4^1 2^9 (linear scheme at 2^3, index split as 4 x 2)",
        16,
        "4^1 2^9",
        2,
        3,
        lambda: two_uniform_prime_power(2, 3, replacement=trivial_moa((4, 2))),
    )
)
_register(
    FamilyEntry(
        "ame/6^1x3^1x2^1",
        "6-run AME seed over 6^1 3^1 2^1 (uniform at k = 1)",
        6,
        "6^1 3^1 2^1",
        1,
        2,
        lambda: _ame_entry(),
    )
)
_register(
    FamilyEntry(
        "table5/12^1x6^6",
        "72-run family over 12^1 6^6 (needs the imported D(12,6,6))",
        72,
        "12^1 6^6",
        2,
        3,
        None,
        needs_seed="scheme-12x6-over-6",
    )
)
_register(
    FamilyEntry(
        "table1/6^7x3^1x2^1",
        "strength-3 family over 6^7 3^1 2^1 (needs imported strength-3 hosts at 6 levels)",
        0,
        "6^7 3^1 2^1",
        3,
        4,
        None,
        needs_seed="iroa-6-levels-strength-3",
    )
)


def _thm2_entry():
    from .constructions import two_uniform_dm2n

    return two_uniform_dm2n(4, 1, 7)


def _ame_entry():
    array = seed_array("moa-6-6x3x2")
    cert = ConstructionCertificate(
        construction="searched AME seed",
        runs=array.runs,
        profile=array.profile(),
        strength=1,
        predicted_md=2,
        md_exact=False,
        seeds=("moa-6-6x3x2",),
    )
    from .constructions import certify

    return array, certify(array, cert)


def catalog_list() -> list[FamilyEntry]:
    return sorted(_FAMILIES, key=lambda e: e.id)


def catalog_build(
    entry_id: str, seed: DifferenceScheme | MixedArray | None = None
) -> tuple[MixedArray, ConstructionCertificate]:
    """Build a registry entry and verify its expected certificate exactly."""
    matches = [e for e in _FAMILIES if e.id == entry_id]
    if not matches:
        raise ParameterError(f"unknown catalog id {entry_id!r}")
    entry = matches[0]
    if entry.builder is None:
        if entry.id.startswith("table5/"):
            if seed is None:
                raise MissingSeedError(
                    f"entry {entry.id} needs seed {entry.needs_seed}; pass --seed FILE"
                )
            if not isinstance(seed, DifferenceScheme):
                raise ParameterError("table5 entries need a difference-scheme seed")
            array, cert = _table5_builder(seed)
        else:
            raise MissingSeedError(
                f"entry {entry.id} needs seed {entry.needs_seed}, which is externally "
                "tabulated and has no generator here"
            )
    else:
        array, cert = entry.builder()
    if entry.runs and array.runs != entry.runs:
        raise VerificationError(
            f"{entry.id}: expected {entry.runs} runs, built {array.runs}"
        )
    if array.profile() != entry.profile:
        raise VerificationError(
            f"{entry.id}: expected profile {entry.profile}, built {array.profile()}"
        )
    if not cert.verified or (cert.measured_md or 0) < entry.md_floor:
        raise VerificationError(f"{entry.id}: certificate does not meet the floor")
    return array, cert


# ---------------------------------------------------------------------------
# state fixtures


def fixture_states() -> dict[str, SparseState]:
    """The named golden states, rebuilt from their constructions.

    Each fixture's array is verified for its claimed uniformity before being
    emitted as a ket list.
    """
    fixtures: dict[str, tuple[MixedArray, int]] = {}
    arr9, _ = two_uniform_3m2n(1, 9)
    fixtures["3^1x2^9"] = (arr9, 2)
    arr10, _ = two_uniform_3m2n(1, 10)
    fixtures["3^1x2^10"] = (arr10, 2)
    fixtures["4^5x2^2"] = (_fixture_4522(), 3)
    out: dict[str, SparseState] = {}
    for name, (array, k) in fixtures.items():
        report = verify_k_uniform(array, k)
        if not report.holds:
            raise VerificationError(
                f"fixture {name} failed {k}-uniformity at subset {report.witness_subset}"
            )
        out[name] = emit_state(array)
    return out


def _fixture_4522() -> MixedArray:
    from .constructions import (
        ColumnReplacement,
        ReplacementPlan,
        bush_oa_even,
        expansive_replace,
    )

    host = bush_oa_even(4)
    if min_distance(host) != 4 or not verify_strength(host, 3).holds:
        raise VerificationError("strength-3 host for the 4^5 2^2 fixture is invalid")
    plan = ReplacementPlan((ColumnReplacement(5, trivial_moa((2, 2))),))
    out, _cert = expansive_replace(host, plan, 3)
    return out
