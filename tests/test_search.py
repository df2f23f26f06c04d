"""Canonical backtracking search: soundness, completeness, determinism."""

import sys
import tracemalloc
from itertools import combinations, combinations_with_replacement, product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oakit import search
from oakit.algebra import ds_linear, expand, hadamard01, is_difference_scheme
from oakit.arrays import MixedArray, min_distance, verify_strength
from oakit.catalog import seed_array
from oakit.constructions import bush_oa, trivial_moa
from oakit.errors import ParameterError, VerificationError
from oakit.search import (
    NonexistenceResult,
    SearchSpec,
    exhaustive_nonexistence,
    search_moa,
    search_partition,
    search_scheme,
)

from oracles import (
    naive_canonical_search,
    naive_min_distance,
    naive_partition,
    naive_strength,
)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _shallow(call):
    """Run ``call`` with room for only 50 more frames than the caller has."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        return call()
    finally:
        sys.setrecursionlimit(old)


class TestSearchMoa:
    def test_finds_the_12_run_seed(self):
        result = search_moa(SearchSpec(12, (3, 2, 2, 2, 2), 2, min_distance=1))
        assert result.found and result.nodes == 174_513
        arr = result.array
        assert verify_strength(arr, 2).holds and min_distance(arr) >= 1

    def test_finds_the_ame_seed(self):
        result = search_moa(SearchSpec(6, (6, 3, 2), 1, min_distance=2))
        assert result.found and min_distance(result.array) >= 2
        assert result.nodes == 29

    def test_divisibility_is_infeasible_not_nonexistent(self):
        result = search_moa(SearchSpec(4, (2, 2, 2), 3))
        assert result.status == "infeasible"
        assert "divisible" in result.reason

    def test_floor_above_the_column_count_is_infeasible(self):
        result = search_moa(SearchSpec(4, (2, 2), 1, min_distance=3))
        assert result.status == "infeasible" and result.array is None
        assert result.reason == "distance floor 3 exceeds 2 columns"

    def test_determinism(self):
        spec = SearchSpec(12, (3, 2, 2, 2, 2), 2, min_distance=1)
        a = search_moa(spec).array
        b = search_moa(spec).array
        assert a == b

    def test_canonical_form_of_results(self):
        arr = search_moa(SearchSpec(8, (2, 2, 2, 2), 2)).array
        assert not arr.cells[0].any()
        rows = arr.row_tuples()
        assert rows == sorted(rows)

    def test_an_answer_with_a_floor_is_certified_in_one_split_pass(self, split_passes):
        result = search_moa(SearchSpec(6, (6, 3, 2), 1, min_distance=2))
        assert result.found and split_passes == [result.array]

    @pytest.mark.parametrize("strength", [0, 1, 2])
    def test_an_answer_without_a_floor_makes_no_split_pass(self, strength, split_passes):
        # only the strength is checked, by the subset loop alone
        result = search_moa(SearchSpec(8, (2,) * 4, strength))
        assert result.found and split_passes == []

    @pytest.mark.parametrize(
        "rows, spec, message",
        [
            ([[0, 0], [0, 0], [1, 1], [1, 1]], SearchSpec(4, (2, 2), 2, 1), "strength oracle"),
            ([[0, 0], [0, 1], [1, 0], [1, 1]], SearchSpec(4, (2, 2), 1, 2), "distance floor"),
        ],
    )
    def test_certify_refuses_a_wrong_answer(self, rows, spec, message, split_passes):
        arr = MixedArray.from_rows((2, 2), rows)
        with pytest.raises(VerificationError, match=message):
            search._certify(arr, spec)
        assert split_passes == [arr]

    def test_budget_reported_distinctly(self):
        result = search_moa(SearchSpec(18, (2, 3, 3, 3, 3), 2, min_distance=3, node_budget=50))
        assert result.status == "budget" and result.nodes == 51


class TestCompleteness:
    """The canonical form must keep at least one member of every class."""

    @pytest.mark.parametrize(
        "runs,levels,k",
        [(4, (2, 2, 2), 2), (4, (2, 2, 2, 2), 2), (8, (2, 2, 2, 2), 3), (6, (3, 2), 2)],
    )
    def test_verdict_matches_brute_force(self, runs, levels, k):
        exists = self._brute_force_exists(runs, levels, k)
        result = search_moa(SearchSpec(runs, levels, k))
        assert result.found == exists
        if not exists:
            assert result.status in ("exhausted", "infeasible")

    @pytest.mark.parametrize(
        "runs,levels,k,floor,nodes",
        [
            (4, (2, 2, 2), 1, 2, 13),
            (6, (3, 2, 2), 1, 2, 105),
            (8, (2, 2, 2, 2), 2, 2, 39),
        ],
    )
    def test_verdict_with_distance_floor_matches_brute_force(self, runs, levels, k, floor, nodes):
        result = search_moa(SearchSpec(runs, levels, k, min_distance=floor))
        assert result.found == self._brute_force_exists(runs, levels, k, floor)
        assert result.status in ("found", "exhausted") and result.nodes == nodes
        if result.found:
            rows = result.array.row_tuples()
            assert naive_min_distance(rows, len(levels)) >= floor

    @staticmethod
    def _brute_force_exists(runs, levels, k, floor=None) -> bool:
        symbols = [range(d) for d in levels]
        all_rows = list(product(*symbols))
        # enumerate nondecreasing row sequences (row multisets cover all arrays)
        def rec(start, picked):
            if len(picked) == runs:
                return naive_strength(picked, levels, k) and (
                    floor is None or naive_min_distance(picked, len(levels)) >= floor
                )
            for idx in range(start, len(all_rows)):
                if rec(idx, picked + [all_rows[idx]]):
                    return True
            return False

        return rec(0, [])


class TestSchemeCompleteness:
    """The scheme search's canonical form must keep a member of every class."""

    @pytest.mark.parametrize(
        "rows,cols,order,t,nodes",
        [
            (4, 3, 2, 2, 16),
            (4, 5, 2, 2, 39),
            (3, 4, 3, 2, 8),
            (6, 4, 2, 2, 210),
            (4, 3, 2, 3, 12),
            (8, 3, 2, 3, 24),
        ],
    )
    def test_verdict_matches_brute_force(self, rows, cols, order, t, nodes):
        result = search_scheme(rows, cols, order, t)
        assert result.found == self._brute_force_exists(rows, cols, order, t)
        assert result.status in ("found", "exhausted")
        assert result.nodes == nodes
        if result.found:
            assert is_difference_scheme(result.array.cells, order, t).holds

    @staticmethod
    def _brute_force_exists(rows, cols, order, t) -> bool:
        # adding a constant to a row leaves the expansion unchanged, so rows
        # that start with 0 reach every scheme
        candidates = [(0,) + rest for rest in product(range(order), repeat=cols - 1)]
        return any(
            is_difference_scheme(np.array(picked), order, t).holds
            for picked in combinations_with_replacement(candidates, rows)
        )


class TestNodeCounts:
    @pytest.mark.parametrize(
        "spec,nodes", [(SearchSpec(8, (4, 2, 2), 2), 33), (SearchSpec(9, (3, 3, 3), 2), 87)]
    )
    def test_moa_node_counts_are_pinned(self, spec, nodes):
        assert search_moa(spec).nodes == nodes


class TestSearchScheme:
    def test_small_scheme(self):
        result = search_scheme(6, 3, 3, 2)
        assert result.found
        assert verify_strength(expand(result.array), 2).holds

    def test_infeasible_when_rows_do_not_divide(self):
        result = search_scheme(9, 4, 2, 2)
        assert result.status == "infeasible" and result.array is None

    def test_determinism(self):
        a = search_scheme(12, 4, 2, 3)
        b = search_scheme(12, 4, 2, 3)
        assert a.found
        assert np.array_equal(a.array.cells, b.array.cells) and a.nodes == b.nodes


class TestSearchParameters:
    @pytest.mark.parametrize(
        "kwargs", [{"node_budget": -1}, {"min_distance": -5}], ids=["budget", "floor"]
    )
    def test_negative_spec_values_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            SearchSpec(4, (2, 2), 1, **kwargs)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, (2,), 1), "need at least one run"),
            ((2, (2, 1), 1), "levels must all be >= 2"),
            ((2, (2,), 2), "strength out of range"),
            ((2, (2,), -1), "strength out of range"),
        ],
        ids=["runs-0", "level-1", "strength-past-columns", "strength-negative"],
    )
    def test_spec_input_checks(self, args, message):
        with pytest.raises(ParameterError, match=message):
            SearchSpec(*args)

    def test_scheme_strength_below_2_rejected(self):
        with pytest.raises(ParameterError, match="scheme strength must be >= 2"):
            search_scheme(4, 3, 2, 1)

    def test_scheme_with_fewer_columns_than_the_strength_is_infeasible(self):
        result = search_scheme(4, 2, 2, 3)
        assert result.status == "infeasible"
        assert result.reason == "fewer columns than the strength"

    def test_negative_scheme_budget_rejected(self):
        with pytest.raises(ParameterError):
            search_scheme(6, 3, 3, 2, node_budget=-1)

    @pytest.mark.parametrize("rows", [0, -3])
    def test_scheme_without_rows_rejected(self, rows):
        with pytest.raises(ParameterError):
            search_scheme(rows, 3, 3, 2)

    def test_empty_levels_rejected(self):
        # search_moa used to fail with an IndexError inside the engine
        with pytest.raises(ParameterError, match="column"):
            search_moa(SearchSpec(3, (), 0))

    def test_zero_budget_stops_at_once(self):
        assert search_moa(SearchSpec(4, (2, 2), 1, node_budget=0)).status == "budget"

    # above the cell cap each search refuses before it allocates a row, so
    # these return at once instead of building 10^9 row lists
    def test_moa_above_the_cell_cap_rejected(self):
        with pytest.raises(ParameterError, match="cap"):
            search_moa(SearchSpec(10**9, (2,), 1))

    def test_scheme_above_the_cell_cap_rejected(self):
        with pytest.raises(ParameterError, match="cap"):
            search_scheme(1 << 30, 2, 2, 2)

    # 2^12 candidate rows per row, each a bit in every table of the engine
    def test_moa_at_the_candidate_cap_runs(self):
        result = search_moa(SearchSpec(2, (2,) * 12, 1))
        assert result.found and result.nodes == 13
        assert result.array.cells[1].all()

    def test_scheme_at_the_candidate_cap_runs(self):
        # its first column is pinned, so 13 columns leave 2^12 candidates
        assert search_scheme(2, 13, 2, 2).status == "exhausted"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: search_moa(SearchSpec(2, (2,) * 13, 1)),
            lambda: search_scheme(2, 14, 2, 2),
            # 2.3 billion counters, none of them built
            lambda: search_scheme(1 << 10, 40, 2, 11),
        ],
        ids=["moa", "scheme", "scheme-many-counters"],
    )
    def test_above_the_candidate_cap_rejected_before_allocating(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=r"\d+ candidate rows exceed the cap of 4096"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_no_obstruction_is_settled_without_walking_the_subsets(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked the column subsets")

        monkeypatch.setattr(search, "combinations", walk)
        # C(30, 15) = 155,117,520 subsets, each of product 2^15
        assert SearchSpec(2**15, (2,) * 30, 15).divisibility_obstruction() is None
        # so an over-wide search meets the candidate cap at once
        with pytest.raises(ParameterError, match="16777216 candidate rows exceed the cap"):
            search_moa(SearchSpec(2**12, (2,) * 24, 12))

    def test_obstruction_of_a_huge_prime_level_needs_no_factoring(self, monkeypatch):
        import oakit.algebra
        import oakit.arrays
        import oakit.groups

        def refuse(n):
            raise AssertionError(f"factored {n}")

        for module in (oakit.algebra, oakit.arrays, oakit.groups, search):
            monkeypatch.setattr(module, "_prime_factors", refuse, raising=False)
        # the largest prime below 2^63: trial division would take 3 * 10^9 steps
        assert SearchSpec(2, (9223372036854775783, 2), 1).divisibility_obstruction() == (0,)

    def test_obstruction_is_found_without_walking_the_subsets(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked the column subsets")

        monkeypatch.setattr(search, "combinations", walk)
        # a 25-subset's product 2^(25 + its 4s) divides 2^34 unless it holds all ten 4s
        spec = SearchSpec(2**34, (2,) * 40 + (4,) * 10, 25)
        assert spec.divisibility_obstruction() == tuple(range(15)) + tuple(range(40, 50))

    def test_obstruction_of_a_wide_spec_builds_no_lcm_table(self, monkeypatch):
        def lcm(*args):
            raise AssertionError("built the lcm table")

        monkeypatch.setattr(search, "lcm", lcm)
        # every 2000-subset's product is 2^2000 > 2 runs; a full table would
        # hold 8 * 10^6 entries of up to 2000 bits
        spec = SearchSpec(2, (2,) * 4000, 2000)
        assert spec.divisibility_obstruction() == tuple(range(2000))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from((2, 3, 4, 5, 6, 8, 9, 10, 11, 12)), min_size=1, max_size=7),
        st.tuples(*(st.integers(0, e) for e in (7, 4, 2, 1))),
        st.data(),
    )
    def test_obstruction_matches_the_subset_walk(self, levels, exponents, data):
        runs = prod(p**e for p, e in zip((2, 3, 5, 7), exponents))
        t = data.draw(st.integers(0, len(levels)))
        subsets = combinations(range(len(levels)), t)
        first = next((s for s in subsets if runs % prod(levels[j] for j in s)), None)
        assert SearchSpec(runs, tuple(levels), t).divisibility_obstruction() == first

    def test_partition_above_the_candidate_cap_rejected(self, monkeypatch):
        moa12 = seed_array("moa-12-3x2^4")  # its labels are the candidates
        monkeypatch.setattr(search, "CANDIDATE_CAP", 2)
        assert search_partition(moa12, 2) is None
        monkeypatch.setattr(search, "CANDIDATE_CAP", 1)
        with pytest.raises(ParameterError, match="2 candidate rows exceed the cap of 1"):
            search_partition(moa12, 2)

    def test_partition_above_the_cell_cap_rejected(self, monkeypatch):
        # an array of 2^24 cells would take 128 MiB, so lower the cap instead:
        # 12 runs of 5 columns and a label column are 72 cells
        moa12 = seed_array("moa-12-3x2^4")
        monkeypatch.setattr(search, "OUTPUT_CELL_CAP", 72)
        assert search_partition(moa12, 2) is None  # at the cap it searches
        monkeypatch.setattr(search, "OUTPUT_CELL_CAP", 71)
        with pytest.raises(ParameterError, match="cap of 71 cells"):
            search_partition(moa12, 2)


class TestSearchPartition:
    def test_recovers_canonical_scheme_partition(self):
        scheme = ds_linear(3, 1)
        parent = expand(scheme)
        partition = search_partition(parent, 3)
        assert partition is not None
        assert partition.blocks == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_oa_9_3_has_three_blocks(self):
        arr = bush_oa(3, 2, columns=3)
        partition = search_partition(arr, 3)
        assert partition is not None and partition.block_count == 3

    def test_divisibility_error(self):
        arr = MixedArray.from_rows((2,), [[0], [1]] * 3)
        with pytest.raises(ParameterError):
            search_partition(arr, 4)

    @pytest.mark.parametrize("block_count", [0, -1])
    def test_block_count_below_one_rejected(self, block_count):
        # 0 used to divide by zero; -1 returned None, a false "no partition"
        arr = MixedArray.from_rows((2,), [[0], [1]] * 3)
        with pytest.raises(ParameterError):
            search_partition(arr, block_count)

    def test_800_rows_pair_up_without_deep_recursion(self):
        # the expansion's rows come in complementary pairs; one stack frame
        # per row would not fit in 50
        parent = expand(hadamard01(400).as_scheme().select_columns(range(8)))
        partition = _shallow(lambda: search_partition(parent, 400))
        assert partition is not None and parent.runs == 800
        assert partition.blocks == tuple((i, i + 1) for i in range(0, 800, 2))

    @staticmethod
    def _corpus():
        moa12 = seed_array("moa-12-3x2^4")
        yield "trivial-2x2", trivial_moa((2, 2))
        yield "trivial-3x2", trivial_moa((3, 2))
        yield "trivial-2x2x3", trivial_moa((2, 2, 3))
        oa = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
        yield "oa-4-3-2", MixedArray.from_rows((2, 2, 2), oa)  # no 2-block partition
        yield "bush-9", bush_oa(3, 2, columns=3)
        yield "scheme-9", expand(ds_linear(3, 1))
        yield "moa-12", moa12
        yield "h12-cols", MixedArray((2,) * 4, hadamard01(12).cells[:, :4])
        pairs = trivial_moa((2, 2))
        yield "doubled-rows", MixedArray(pairs.levels, np.repeat(pairs.cells, 2, axis=0))
        yield "stacked-rows", MixedArray(pairs.levels, np.vstack([pairs.cells] * 3))
        yield "repeated-row", MixedArray.from_rows((2,), [[0], [0], [1], [1]] * 2)
        for name, arr in [("bush-9", bush_oa(3, 2, columns=3)), ("moa-12", moa12)]:
            for i, j in [(0, 0), (arr.runs - 1, arr.ncols - 1), (4, 1)]:
                cells = arr.cells.copy()
                cells[i, j] = (cells[i, j] + 1) % arr.levels[j]
                yield f"{name}-corrupt-{i}-{j}", MixedArray(arr.levels, cells)

    def test_matches_the_naive_partition_oracle(self):
        verdicts = set()
        for name, arr in self._corpus():
            for b in range(1, arr.runs + 1):
                if arr.runs % b:
                    continue
                if any((arr.runs // b) % d for d in arr.levels):
                    with pytest.raises(ParameterError):
                        search_partition(arr, b)
                    continue
                expected = naive_partition(arr, b)
                found = search_partition(arr, b)
                assert (found and found.blocks) == expected, (name, b)
                verdicts.add(expected is None)
        assert verdicts == {True, False}


class TestNodeCountOracle:
    """The engine visits the nodes of the plain cell-by-cell canonical walk."""

    @pytest.mark.parametrize(
        "spec",
        [
            SearchSpec(1, (3, 2), 0),
            SearchSpec(4, (2, 2, 2), 2),
            SearchSpec(4, (2, 2, 2, 2), 2),
            SearchSpec(8, (2, 2, 2, 2), 3),
            SearchSpec(6, (3, 2), 2),
            SearchSpec(8, (4, 2, 2), 2),
            SearchSpec(9, (3, 3, 3), 2),
            SearchSpec(8, (2,) * 5, 2, node_budget=100),
            SearchSpec(4, (2, 2, 2), 1, min_distance=2),
            SearchSpec(6, (3, 2, 2), 1, min_distance=2),
            SearchSpec(8, (2, 2, 2, 2), 2, min_distance=2),
            SearchSpec(6, (6, 3, 2), 1, min_distance=2),
            SearchSpec(9, (3, 3, 3, 3), 2, min_distance=3),
            SearchSpec(8, (2,) * 5, 2, min_distance=1),
            SearchSpec(16, (4, 2, 2, 2, 2), 2, min_distance=2),
            SearchSpec(4, (2, 2, 2, 2), 2, min_distance=2),
            SearchSpec(12, (3, 2, 2, 2, 2), 2, min_distance=3),
            SearchSpec(12, (3, 2, 2, 2, 2), 2, min_distance=2, node_budget=3000),
            SearchSpec(18, (2, 3, 3, 3, 3), 2, min_distance=3, node_budget=500),
            SearchSpec(18, (2, 3, 3, 3, 3), 2, min_distance=3, node_budget=501),
            SearchSpec(12, (2,) * 6, 2, min_distance=2, node_budget=2000),
            SearchSpec(4, (2, 2), 1, node_budget=0),
        ],
        ids=repr,
    )
    def test_moa(self, spec):
        counters = [
            (columns, tuple, spec.runs // prod(spec.levels[c] for c in columns))
            for columns in combinations(range(len(spec.levels)), spec.strength)
        ] if spec.strength else []
        status, nodes, rows = naive_canonical_search(
            spec.levels, spec.runs, counters, spec.min_distance, spec.node_budget
        )
        result = search_moa(spec)
        assert (result.status, result.nodes) == (status, nodes)
        assert (result.array and result.array.row_tuples()) == rows

    @pytest.mark.parametrize(
        "rows,cols,order,t,budget",
        [
            (4, 3, 2, 2, None),
            (4, 5, 2, 2, None),
            (3, 4, 3, 2, None),
            (6, 4, 2, 2, None),
            (6, 3, 3, 2, None),
            (9, 4, 3, 2, None),
            (12, 5, 2, 2, 1000),
            (4, 3, 2, 3, None),
            (8, 3, 2, 3, None),
            (12, 4, 2, 3, None),
            (8, 4, 2, 3, 20),
            (16, 5, 2, 3, 3000),
        ],
    )
    def test_scheme(self, rows, cols, order, t, budget):
        def differences(xs):
            return tuple((x - xs[-1]) % order for x in xs[:-1])

        counters = [
            (columns, differences, rows // order ** (size - 1))
            for size in sorted({2, t})
            for columns in combinations(range(cols), size)
        ]
        status, nodes, found = naive_canonical_search(
            (1,) + (order,) * (cols - 1), rows, counters, budget=budget
        )
        result = search_scheme(rows, cols, order, t, budget)
        assert (result.status, result.nodes) == (status, nodes)
        assert (result.array and [tuple(row) for row in result.array.cells.tolist()]) == found

    def test_partition(self):
        cases = 0
        for name, arr in TestSearchPartition._corpus():
            for b in range(1, arr.runs + 1):
                if arr.runs % b or any((arr.runs // b) % d for d in arr.levels):
                    continue
                size, n = arr.runs // b, arr.ncols
                counters = [((j, n), tuple, size // d) for j, d in enumerate(arr.levels)]
                status, nodes, rows = naive_canonical_search(
                    arr.levels + (b,), arr.runs, counters, given=arr.row_tuples()
                )
                result = search._search_partition(arr, b)
                assert (result.status, result.nodes) == (status, nodes), (name, b)
                blocks = rows and tuple(
                    tuple(i for i, row in enumerate(rows) if row[n] == label) for label in range(b)
                )
                assert (result.array and result.array.blocks) == blocks, (name, b)
                cases += 1
        assert cases == 39

    def test_three_label_columns(self):
        # no client searches more than one column after given ones; the
        # engine must still carry a full given-head tally of one label column
        # into every later one
        cases = 0
        for name, arr in TestSearchPartition._corpus():
            n = arr.ncols
            for labels in [(2, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 1), (3, 1, 2)]:
                if arr.runs > 12 or arr.runs % labels[0] or arr.runs % labels[-1]:
                    continue
                counters = [
                    ((j, n + t), np.arange(d * k).reshape(d, k), arr.runs // k // d)
                    for j, d in enumerate(arr.levels)
                    for t, k in enumerate(labels)
                    if arr.runs // k % d == 0
                ]
                levels = arr.levels + labels
                status, nodes, rows = naive_canonical_search(
                    levels,
                    arr.runs,
                    [(columns, tuple, lam) for columns, _, lam in counters],
                    given=arr.row_tuples(),
                )
                result = search._backtrack(
                    arr.runs, levels, counters, None, None, lambda cells: cells, arr.cells
                )
                assert (result.status, result.nodes) == (status, nodes), (name, labels)
                found = None if result.array is None else list(map(tuple, result.array.tolist()))
                assert found == rows, (name, labels)
                cases += 1
        assert cases > 30


class TestSearchDepth:
    """A search's stack depth does not grow with its rows or cells."""

    def test_128_binary_runs_of_strength_1(self):
        result = _shallow(lambda: search_moa(SearchSpec(128, (2,) * 8, 1)))
        assert result.found and result.nodes == 1017
        assert verify_strength(result.array, 1).holds

    def test_200_runs_of_strength_0(self):
        result = search_moa(SearchSpec(200, (2,) * 5, 0))
        assert result.found and result.nodes == 995
        assert result.array.runs == 200


class TestNonexistence:
    def test_existing_seed_is_a_counterexample(self):
        spec = SearchSpec(12, (3, 2, 2, 2, 2), 2, min_distance=1, node_budget=10_000_000)
        verdict = exhaustive_nonexistence(spec)
        assert verdict.status == "counterexample"
        assert min_distance(verdict.counterexample) >= 1

    def test_impossible_pattern_proved_by_prefilter(self):
        spec = SearchSpec(12, (3, 2, 2, 2, 2), 2, min_distance=3, node_budget=1000)
        verdict = exhaustive_nonexistence(spec)
        assert verdict.status == "proved"

    def test_budget_exhaustion_is_inconclusive(self):
        spec = SearchSpec(18, (2, 3, 3, 3, 3), 2, min_distance=3, node_budget=100)
        verdict = exhaustive_nonexistence(spec)
        assert verdict.status == "inconclusive"

    def test_requires_budget(self):
        with pytest.raises(ParameterError):
            exhaustive_nonexistence(SearchSpec(6, (2, 3), 2))

    def test_proved_nonexistence_md2_on_12_runs(self):
        # the strongest distance floor the 12-run 3^1 2^4 profile cannot meet
        spec = SearchSpec(12, (3, 2, 2, 2, 2), 2, min_distance=2, node_budget=10_000_000)
        verdict = exhaustive_nonexistence(spec)
        assert verdict.status == "proved" and verdict.nodes == 396_980

    def test_budgeted_18_run_search_is_inconclusive(self):
        # the benchmark's second search: neither found nor ruled out
        spec = SearchSpec(18, (2, 3, 3, 3, 3), 2, min_distance=3, node_budget=150_000)
        verdict = exhaustive_nonexistence(spec)
        assert verdict.status == "inconclusive" and verdict.nodes == 150_001


class TestOracleAgreement:
    def test_found_arrays_pass_independent_oracles(self):
        for spec in [
            SearchSpec(8, (4, 2, 2), 2),
            SearchSpec(9, (3, 3, 3), 2),
            SearchSpec(12, (3, 2, 2, 2, 2), 2, min_distance=1),
        ]:
            result = search_moa(spec)
            assert result.found
            rows = result.array.row_tuples()
            assert naive_strength(rows, spec.levels, spec.strength)
            if spec.min_distance:
                assert naive_min_distance(rows, len(spec.levels)) >= spec.min_distance
