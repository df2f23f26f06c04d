"""The task lists of the in-process workloads, built from a seed.

``family`` builds paper-size arrays, round-trips them through moa v1 with a
seeded row permutation and symbol relabelling, and verifies them; it also
builds every finite field up to 256 (plus GF(729)) and the schemes the
family builders use.  ``reject`` asks the same kernels and the search engine
for "no" answers: seeded corruptions of the family arrays, strength and
uniformity queries one above the true value, an exhaustive nonexistence
proof, a budgeted inconclusive search and the five-column verdicts.

Each task calls oakit's public functions inside a span named after the
layer it calls into.  Its ``outcome`` summary is compared with the record
and ``recount`` re-derives what it can with plain numpy; both run after the
pass, outside the timed region.  ``smoke`` selects a tiny version of each
list for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb
from typing import Callable

import numpy as np

import oakit
from check import combination_rank, min_distance, strength_fails, uniformity_fails
from spans import Tracer


@dataclass
class Task:
    """One timed unit of work.

    ``expect`` holds outcome fields that are known for every seed.  A
    ``seeded`` task's outcome depends on the seed beyond what the row
    permutation and symbol relabelling leave invariant, so its record is
    kept per seed.
    """

    name: str
    run: Callable[[Tracer], object]
    outcome: Callable[[object, dict], dict]
    recount: Callable[[object], str | None] | None = None
    expect: dict = field(default_factory=dict)
    seeded: bool = False


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _add(counts: dict, name: str, n: int) -> None:
    counts[name] = counts.get(name, 0) + int(n)


def _is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def _prime_powers(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if _is_prime_power(q)]


# ---------------------------------------------------------------------------
# calls shared by both workloads


def _strength_task(name, get, k) -> Task:
    def run(tr):
        array = get()
        with tr.span("arrays.strength"):
            return array, oakit.verify_strength(array, k)

    def outcome(result, counts):
        array, report = result
        w = report.witness
        scanned = comb(array.ncols, k) if w is None else combination_rank(w.columns, array.ncols) + 1
        _add(counts, "arrays.strength_subsets", scanned)
        return {"holds": report.holds, "witness": None if w is None else list(w.columns)}

    def recount(result):
        array, report = result
        w = report.witness
        if w is not None and not strength_fails(array.cells, array.levels, w.columns):
            return f"{name}: witness {w.columns} is balanced"
        return None

    return Task(name, run, outcome, recount)


def _uniformity_task(name, get, k) -> Task:
    def run(tr):
        array = get()
        with tr.span("quantum.uniformity"):
            return array, oakit.verify_k_uniform(array, k)

    def outcome(result, counts):
        _array, report = result
        _add(counts, "quantum.subsets_checked", report.subsets_checked)
        w = report.witness_subset
        return {
            "holds": report.holds,
            "witness": None if w is None else list(w),
            "subsets_checked": report.subsets_checked,
        }

    def recount(result):
        array, report = result
        w = report.witness_subset
        if w is not None and not uniformity_fails(array.cells, array.levels, w):
            return f"{name}: witness {w} reduces to the maximally mixed state"
        return None

    return Task(name, run, outcome, recount)


def _distance_task(name, get) -> Task:
    def run(tr):
        array = get()
        with tr.span("arrays.distance"):
            return array, oakit.distance_spectrum(array)

    def outcome(result, counts):
        array, spectrum = result
        _add(counts, "arrays.row_pairs", array.runs * (array.runs - 1) // 2)
        return {"min": spectrum.min_distance, "counts": {str(d): c for d, c in spectrum.counts.items()}}

    return Task(name, run, outcome)


def _irredundant_task(name, get, k) -> Task:
    def run(tr):
        array = get()
        with tr.span("arrays.distance"):
            return array, oakit.is_irredundant(array, k)

    def outcome(result, counts):
        array, report = result
        _add(counts, "arrays.row_pairs", array.runs * (array.runs - 1) // 2)
        return {"holds": report.holds, "min_distance": report.min_distance}

    def recount(result):
        array, report = result
        md = min_distance(array.cells)
        if md != report.min_distance:
            return f"{name}: minimal distance is {md}, reported {report.min_distance}"
        return None

    return Task(name, run, outcome, recount)


def _call_name(fn: str, args) -> str:
    return f"{fn}({','.join(map(str, args))})"


# ---------------------------------------------------------------------------
# family

FAMILY = {
    "field_limit": 256,
    "fields_extra": (729,),
    # builder, arguments, strength written to moa v1, verifications
    "arrays": (
        ("three_uniform_dm2n", (5, 4, 54), 3, (("strength", 3), ("distance",), ("uniformity", 2))),
        ("bush_oa", (11, 4), 4, (("strength", 4), ("uniformity", 4))),
        ("bush_oa", (16, 3), 3, (("strength", 3), ("distance",), ("uniformity", 3))),
        ("bush_oa_even", (16,), 3, (("strength", 3), ("distance",), ("uniformity", 3))),
    ),
    "schemes": (
        ("hadamard01", (100,)),
        ("hadamard01", (200,)),
        ("ds_poly3", (5,)),
        ("ds_poly3", (7,)),
        ("ds_poly3", (11,)),
        ("ds_poly3", (13,)),
        ("ds_linear", (5, 2)),
        ("ds_linear", (7, 2)),
        ("ds_linear", (4, 3)),
        ("ds_linear", (9, 2)),
    ),
}

FAMILY_SMOKE = {
    "field_limit": 16,
    "fields_extra": (),
    "arrays": (
        ("bush_oa", (5, 2), 2, (("strength", 2), ("distance",), ("uniformity", 2))),
        ("bush_oa_even", (4,), 3, (("strength", 3), ("uniformity", 3))),
    ),
    "schemes": (("hadamard01", (8,)), ("ds_poly3", (5,))),
}


def _relabelled(array, rng):
    """Rows permuted and each column's symbols relabelled, by the seed."""
    cells = array.cells[rng.permutation(array.runs)]
    cells = np.stack(
        [rng.permutation(d)[cells[:, j]] for j, d in enumerate(array.levels)], axis=1
    )
    return oakit.MixedArray(array.levels, cells)


def _array_chain(fn, args, strength, checks, rng, state) -> list[Task]:
    label = _call_name(fn, args)
    builder = getattr(oakit, fn)

    def build(tr):
        with tr.span("constructions.build"):
            built = builder(*args)
        array, cert = built if isinstance(built, tuple) else (built, None)
        state[label] = (array, cert)
        return array

    def build_outcome(array, counts):
        _add(counts, "constructions.cells", array.runs * array.ncols)
        return {"runs": array.runs, "cols": array.ncols, "profile": array.profile()}

    def roundtrip(tr):
        array, cert = state[label]
        with tr.span("formats.serialize"):
            text = oakit.serialize_array(array, strength=strength)
            cert_text = None if cert is None else oakit.formats.dump_json(cert.to_json())
        with tr.span("formats.parse"):
            parsed = oakit.parse_array(text)
        state["permuted " + label] = _relabelled(parsed, rng)
        return text, cert_text, parsed, array

    def roundtrip_outcome(result, counts):
        text, cert_text, parsed, array = result
        data = text.encode()
        _add(counts, "formats.bytes", len(data))
        return {
            "moa": _sha(data),
            "cert": None if cert_text is None else _sha(cert_text.encode()),
            "parsed_equal": parsed == array,
        }

    def permuted():
        return state["permuted " + label]

    chain = [
        Task(f"build/{label}", build, build_outcome),
        Task(f"roundtrip/{label}", roundtrip, roundtrip_outcome),
    ]
    for check in checks:
        if check[0] == "strength":
            chain.append(_strength_task(f"strength/{label}/k{check[1]}", permuted, check[1]))
        elif check[0] == "uniformity":
            chain.append(_uniformity_task(f"uniformity/{label}/k{check[1]}", permuted, check[1]))
        else:
            chain.append(_distance_task(f"distance/{label}", permuted))
    return chain


def _field_task(q: int, probes: np.ndarray) -> Task:
    def run(tr):
        with tr.span("algebra.field"):
            return oakit.finite_field(q)

    def outcome(gf, counts):
        _add(counts, "algebra.fields", 1)
        return {"modulus": list(gf.modulus)}

    def recount(gf):
        for a in (int(x) for x in probes):
            if gf.mul(a, gf.inv(a)) != 1 or gf.mul(a, 1) != a:
                return f"GF({q}): a * a^-1 != 1 or a * 1 != a at a = {a}"
        return None

    return Task(f"field/{q}", run, outcome, recount)


def _scheme_task(fn, args) -> Task:
    def run(tr):
        with tr.span("algebra.scheme"):
            return getattr(oakit, fn)(*args)

    def outcome(scheme, counts):
        cells = np.ascontiguousarray(scheme.cells, dtype=np.int64)
        return {"shape": list(cells.shape), "cells": _sha(cells.tobytes())}

    return Task(f"scheme/{_call_name(fn, args)}", run, outcome)


def family_tasks(seed: int, smoke: bool) -> list[Task]:
    spec = FAMILY_SMOKE if smoke else FAMILY
    rng = np.random.default_rng(seed)
    state: dict = {}
    chains = [
        [_field_task(q, rng.integers(1, q, size=8))]
        for q in _prime_powers(spec["field_limit"]) + list(spec["fields_extra"])
    ]
    chains += [[_scheme_task(fn, args)] for fn, args in spec["schemes"]]
    chains += [
        _array_chain(fn, args, strength, checks, np.random.default_rng([seed, i]), state)
        for i, (fn, args, strength, checks) in enumerate(spec["arrays"])
    ]
    # Spreading the many small field tasks over the whole pass keeps the
    # median task from sampling the machine's speed in one short stretch.
    # Builders find only the smallest fields (q <= 16) warm when they run
    # later, and those stay below the median either way.
    return [task for i in rng.permutation(len(chains)) for task in chains[i]]


# ---------------------------------------------------------------------------
# reject

REJECT = {
    # builder, arguments, strength t, uniformity k, check irredundancy
    "bases": (
        ("three_uniform_dm2n", (5, 4, 54), 3, 3, True),
        ("bush_oa", (11, 4), 4, 4, False),
        ("bush_oa", (16, 3), 3, 3, False),
    ),
    "cell_fractions": tuple(i / 11 for i in range(12)),
    "duplicates": 6,
    # runs, levels, strength, minimal distance, node budget: a proof of
    # nonexistence after 396,980 nodes, and a search the budget cuts short
    "searches": ((12, (3, 2, 2, 2, 2), 2, 2, 2_000_000), (18, (2, 3, 3, 3, 3), 2, 3, 150_000)),
    "feasibility_levels": (2, 3, 5, 7),
}

REJECT_SMOKE = {
    "bases": (
        ("bush_oa", (5, 2), 2, 2, True),
        ("bush_oa_even", (4,), 3, 3, False),
    ),
    "cell_fractions": (0, 1),
    "duplicates": 1,
    "searches": ((4, (2, 2, 2, 2), 2, 2, 100_000), (18, (2, 3, 3, 3, 3), 2, 3, 2_000)),
    "feasibility_levels": (2, 3),
}


def _variants(array, fractions, duplicates, rng):
    """Single-cell corruptions at fixed columns, and duplicated rows."""
    out = []
    r, n = array.cells.shape
    for f in fractions:
        j = min(n - 1, int(f * n))
        cells = array.cells.copy()
        i = int(rng.integers(r))
        cells[i, j] = (cells[i, j] + rng.integers(1, array.levels[j])) % array.levels[j]
        out.append((f"cell-c{j}", oakit.MixedArray(array.levels, cells)))
    for m in range(duplicates):
        i, src = (int(x) for x in rng.choice(r, size=2, replace=False))
        cells = array.cells.copy()
        cells[i] = cells[src]
        out.append((f"dup-{m}", oakit.MixedArray(array.levels, cells)))
    return out


def _search_task(runs, levels, strength, md, budget) -> Task:
    name = f"search/{_call_name('nonexistence', (runs, ''.join(map(str, levels)), strength, md, budget))}"

    def run(tr):
        spec = oakit.SearchSpec(runs, levels, strength, min_distance=md, node_budget=budget)
        with tr.span("search.search"):
            return oakit.exhaustive_nonexistence(spec)

    def outcome(result, counts):
        _add(counts, "search.nodes", result.nodes)
        return {"status": result.status, "nodes": result.nodes}

    return Task(name, run, outcome)


def _feasibility_task(levels_pool) -> Task:
    cases = list(combinations_with_replacement(levels_pool, 5))

    def run(tr):
        with tr.span("constructions.build"):
            return [oakit.five_column_feasibility(c).status for c in cases]

    def outcome(verdicts, counts):
        return {"verdicts": _sha(" ".join(verdicts).encode()), "impossible": verdicts.count("Impossible")}

    return Task(f"feasibility/{''.join(map(str, levels_pool))}", run, outcome)


def reject_tasks(seed: int, smoke: bool) -> list[Task]:
    spec = REJECT_SMOKE if smoke else REJECT
    rng = np.random.default_rng(seed)
    tasks = []
    for fn, args, t, k, irredundant in spec["bases"]:
        built = getattr(oakit, fn)(*args)
        base = built[0] if isinstance(built, tuple) else built
        label = _call_name(fn, args)
        tasks.append(_strength_task(f"strength/{label}/k{t + 1}", lambda a=base: a, t + 1))
        tasks.append(_uniformity_task(f"uniformity/{label}/k{k + 1}", lambda a=base: a, k + 1))
        for tag, variant in _variants(base, spec["cell_fractions"], spec["duplicates"], rng):
            get = lambda a=variant: a  # noqa: E731
            checks = [
                _strength_task(f"strength/{label}/{tag}/k{t}", get, t),
                _uniformity_task(f"uniformity/{label}/{tag}/k{k}", get, k),
            ]
            # a changed cell or a repeated row unbalances some t-subset
            for task in checks:
                task.expect = {"holds": False}
            if irredundant:
                checks.append(_irredundant_task(f"irredundant/{label}/{tag}/k{k}", get, k))
            for task in checks:
                task.seeded = True
            tasks += checks
    tasks += [_search_task(*s) for s in spec["searches"]]
    tasks.append(_feasibility_task(spec["feasibility_levels"]))
    return [tasks[i] for i in rng.permutation(len(tasks))]


WORKLOADS = {"family": family_tasks, "reject": reject_tasks}
