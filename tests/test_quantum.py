"""States, exact reductions, and uniformity verdicts."""

import re
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from oakit import catalog
from oakit.algebra import ds_linear, expand, hadamard01
import oakit.quantum
from oakit.arrays import (
    MixedArray,
    _coset_weights,
    _strength_loop,
    delete_columns,
    min_distance,
    select_columns,
    verify_strength,
)
from oakit.constructions import (
    bush_oa,
    k_uniform_product,
    three_uniform_dm2n,
    trivial_moa,
    two_uniform_3m2n,
)
from oakit.errors import ParameterError
from oakit.quantum import (
    _close_pairs,
    _paired_masks,
    emit_state,
    is_ame,
    reduced_density,
    render_ket,
    verify_k_uniform,
)

from oracles import k_uniform_loop, naive_k_uniform, naive_reduced_density, uniform_on_subset
from test_arrays import _relabelled, fallback_arrays, group_arrays


@pytest.fixture(scope="module")
def state_array():
    arr, _ = two_uniform_3m2n(1, 9)
    return arr


class TestEmitState:
    def test_one_ket_per_row_in_order(self, state_array):
        state = emit_state(state_array)
        assert state.terms == 24
        assert state.kets == tuple(state_array.row_tuples())
        assert state.amplitude() == "1/sqrt(24)"

    def test_single_row(self):
        arr = MixedArray.from_rows((2, 3), [[1, 2]])
        state = emit_state(arr)
        assert state.kets == ((1, 2),)
        assert render_ket(state) == "|1 2⟩"

    def test_row_permutation_same_multiset(self, state_array):
        perm = np.random.default_rng(7).permutation(state_array.runs)
        other = MixedArray(state_array.levels, state_array.cells[perm])
        assert sorted(emit_state(other).kets) == sorted(emit_state(state_array).kets)

    def test_duplicate_flag(self):
        arr = MixedArray.from_rows((2,), [[0], [0]])
        assert emit_state(arr).has_duplicate_kets

    def test_ket_rendering_joins_terms(self):
        state = emit_state(trivial_moa((2, 2)))
        assert render_ket(state) == "|0 0⟩ + |0 1⟩ + |1 0⟩ + |1 1⟩"


class TestReducedDensity:
    def test_two_uniform_pair_is_maximally_mixed(self, state_array):
        rho = reduced_density(state_array, (0, 1))  # 3-level with a 2-level party
        assert rho.dimension == 6
        assert rho.is_maximally_mixed()
        assert rho.trace() == 1

    def test_hand_counted_two_row_example(self):
        arr = MixedArray.from_rows((2, 2), [[0, 0], [1, 0]])
        rho = reduced_density(arr, (0,))
        half = Fraction(1, 2)
        assert rho.entries == ((half, half), (half, half))

    def test_product_state_reduction_not_mixed(self):
        # the full factorial induces a product state: all entries are 1/2
        rho = reduced_density(trivial_moa((2, 2)), (0,))
        half = Fraction(1, 2)
        assert rho.entries == ((half, half), (half, half))
        assert not rho.is_maximally_mixed()
        assert rho.trace() == 1 and rho.is_symmetric()

    def test_matches_naive_oracle(self, state_array):
        for subset in [(0,), (3, 7), (1, 2, 9)]:
            rho = reduced_density(state_array, subset)
            naive = naive_reduced_density(
                state_array.row_tuples(), state_array.levels, subset
            )
            assert [list(row) for row in rho.entries] == naive

    def test_matches_naive_oracle_with_repeated_rows(self):
        # mixed levels, rows repeated within and across complement groups,
        # and subsets out of column order
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            levels = tuple(int(d) for d in rng.integers(2, 5, size=n))
            r = int(rng.integers(1, 30))
            cells = np.stack([rng.integers(0, d, size=r) for d in levels], axis=1)
            arr = MixedArray(levels, np.vstack([cells, cells[: r // 2]]))
            size = int(rng.integers(1, n))
            subset = tuple(int(j) for j in rng.permutation(n)[:size])
            rho = reduced_density(arr, subset)
            naive = naive_reduced_density(arr.row_tuples(), arr.levels, subset)
            assert [list(row) for row in rho.entries] == naive, (arr, subset)

    def test_dimension_past_the_cap_is_refused_before_counting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rows were counted")

        monkeypatch.setattr(oakit.quantum, "subset_codes", refuse)
        with pytest.raises(ParameterError, match="exceeds the materialization cap"):
            reduced_density(trivial_moa((2,) * 12), range(11))  # dimension 2^11

    def test_parameter_errors(self, state_array):
        with pytest.raises(ParameterError):
            reduced_density(state_array, ())
        with pytest.raises(ParameterError):
            reduced_density(state_array, tuple(range(state_array.ncols)))
        with pytest.raises(ParameterError):
            reduced_density(state_array, (0, 0))


class TestUniformity:
    def test_fixture_is_two_uniform(self, state_array):
        report = verify_k_uniform(state_array, 2)
        assert report.holds and report.subsets_checked == 45

    def test_duplicated_row_breaks_it(self, state_array):
        cells = state_array.cells.copy()
        cells[1] = cells[0]
        corrupted = MixedArray(state_array.levels, cells)
        report = verify_k_uniform(corrupted, 2)
        assert not report.holds and report.witness_subset is not None

    def test_k_equal_n_minus_one_fails_on_factorial(self):
        arr = trivial_moa((2, 2, 2))
        assert not verify_k_uniform(arr, 2).holds

    def test_monotone_on_fixture(self, state_array):
        assert verify_k_uniform(state_array, 2).holds
        assert verify_k_uniform(state_array, 1).holds

    def test_equivalence_on_selected_arrays(self, state_array):
        arrays = [
            state_array,
            trivial_moa((2, 2, 2)),
            trivial_moa((3, 2)),
            bush_oa(3, 2),
            bush_oa(5, 3),
        ]
        rng = np.random.default_rng(11)
        for base in list(arrays):
            cells = base.cells.copy()
            i = rng.integers(base.runs)
            j = rng.integers(base.ncols)
            cells[i, j] = (cells[i, j] + 1) % base.levels[j]
            arrays.append(MixedArray(base.levels, cells))
        for arr in arrays:
            for k in (1, 2, 3):
                if k >= arr.ncols:
                    continue
                fast = verify_k_uniform(arr, k).holds
                slow = verify_strength(arr, k).holds and min_distance(arr) >= k + 1
                assert fast == slow

    def test_against_naive_density_oracle(self):
        arrays = [
            trivial_moa((2, 2)),
            bush_oa(3, 2),
            MixedArray.from_rows((2, 2, 2), [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]),
        ]
        for arr in arrays:
            for k in (1, 2):
                if k >= arr.ncols:
                    continue
                assert (
                    verify_k_uniform(arr, k).holds
                    == naive_k_uniform(arr.row_tuples(), arr.levels, k)
                )

    def test_relabeling_preserves_verdicts(self, state_array):
        cells = state_array.cells.copy()
        cells[:, 0] = (cells[:, 0] + 1) % 3  # local symbol relabel on party 0
        relabeled = MixedArray(state_array.levels, cells)
        assert verify_k_uniform(relabeled, 2).holds

    def test_wide_complement_projection(self):
        # 72 binary parties: the complement of a singleton cannot be packed
        # into one 64-bit code, exercising the unique-rows grouping path
        from oakit.algebra import expand, hadamard01

        arr = expand(hadamard01(72).as_scheme(3))  # 144 x 72, distance 36
        assert verify_k_uniform(arr, 1).holds
        cells = arr.cells.copy()
        cells[3] = cells[2]
        assert not verify_k_uniform(MixedArray(arr.levels, cells), 1).holds


def _uniformity_corpus():
    """Seeded (array, k) pairs: bases that pass, their corruptions, random arrays."""
    rng = np.random.default_rng(20261018)
    bases = [
        trivial_moa((2, 2, 2)),
        trivial_moa((3, 2)),
        trivial_moa((4, 3)),
        bush_oa(3, 2),
        bush_oa(5, 2),
        bush_oa(4, 2),
        bush_oa(5, 3),
        bush_oa(7, 3),
        expand(hadamard01(4).as_scheme()),
        expand(hadamard01(8).as_scheme()),
        expand(ds_linear(3, 1)),
        expand(ds_linear(2, 3)),
        catalog.seed_array("moa-6-6x3x2"),
        catalog.seed_array("moa-12-3x2^4"),
        catalog.fixture_states()["3^1x2^9"].to_array(),
        catalog.fixture_states()["3^1x2^10"].to_array(),
        two_uniform_3m2n(1, 9)[0],
        expand(hadamard01(36).as_scheme(3)),
        expand(hadamard01(72).as_scheme(3)),  # complements wider than 62 bits
    ]
    arrays = []
    for base in bases:
        arrays.append(base)
        r, n = base.cells.shape
        for _ in range(8):  # one or two cell flips
            cells = base.cells.copy()
            for _ in range(int(rng.integers(1, 3))):
                i, j = int(rng.integers(r)), int(rng.integers(n))
                cells[i, j] = (cells[i, j] + int(rng.integers(1, base.levels[j]))) % base.levels[j]
            arrays.append(MixedArray(base.levels, cells))
        for _ in range(4):  # one row copied over another
            i, src = rng.choice(r, size=2, replace=False)
            cells = base.cells.copy()
            cells[i] = cells[src]
            arrays.append(MixedArray(base.levels, cells))
        arrays.append(MixedArray(base.levels, np.vstack([base.cells, base.cells])))
    while len(arrays) < 900:
        n = int(rng.integers(2, 9))
        levels = tuple(int(rng.integers(2, 5)) for _ in range(n))
        r = int(rng.integers(1, 40))
        arrays.append(
            MixedArray(levels, np.stack([rng.integers(0, d, size=r) for d in levels], axis=1))
        )
    return [
        (arr, k)
        for arr in arrays
        for k in range(1, min(arr.ncols, 4))
        if comb(arr.ncols, k) <= 3000  # keeps the per-subset oracle quick
    ]


class TestKernelCrossCheck:
    """verify_k_uniform against the per-subset oracle, field by field."""

    def test_reports_match_the_subset_loop(self):
        corpus = _uniformity_corpus()
        assert len(corpus) >= 2000
        verdicts = set()
        for arr, k in corpus:
            report = verify_k_uniform(arr, k)
            got = (report.holds, report.witness_subset, report.subsets_checked, report.subsets_total)
            assert got == k_uniform_loop(arr.cells, arr.levels, k), (arr, k)
            if report.witness_subset is not None:
                assert all(type(c) is int for c in report.witness_subset)
            verdicts.add(report.holds)
        assert verdicts == {True, False}

    def test_three_uniform_yes_verdict(self):
        arr, _ = three_uniform_dm2n(5, 4, 54)  # 1000 x 58
        report = verify_k_uniform(arr, 3)
        assert report.holds and report.witness_subset is None
        assert report.subsets_checked == report.subsets_total == 30856

    def test_vouched_strength_with_a_pair_at_distance_k(self):
        # three_uniform_dm2n(5, 4, 54) without its first column: the split
        # pass vouches for strength 3, and its distances show a pair of rows
        # that differ in 3 columns, so the state is not 3-uniform
        arr = delete_columns(three_uniform_dm2n(5, 4, 54)[0], [0])
        assert _strength_loop(arr, 3)[1] is not None and min_distance(arr) == 3
        report = verify_k_uniform(arr, 3)
        assert (report.holds, report.witness_subset, report.subsets_checked) == (False, (0, 1, 2), 1)
        assert not uniform_on_subset(arr.cells, arr.levels, (0, 1, 2))

    def test_memory_stays_bounded(self):
        arr = bush_oa(11, 4)  # 14641 x 12, no close pairs at k = 4
        tracemalloc.start()
        try:
            assert verify_k_uniform(arr, 4).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def _mask_rows(chunks, lead):
    """The distinct mask rows of a close-pair search, each as a bit code, sorted."""
    assert lead < 63
    rows = np.vstack([np.zeros((0, lead), dtype=bool), *chunks])
    return np.unique(rows.astype(np.int64) @ (1 << np.arange(lead)))


class TestCosetPath:
    """_close_pairs's translation-group path against the pair kernel and oracle."""

    @pytest.mark.parametrize("name", [*group_arrays(), *fallback_arrays()])
    def test_close_pairs_match_the_pair_kernel(self, name):
        arr = {**group_arrays(), **fallback_arrays()}[name]
        n = arr.ncols
        for k in range(1, min(n, 4)):
            for lead in (n, n - 1, k + 1):
                got = _mask_rows(_close_pairs(arr, lead, k), lead)
                assert np.array_equal(got, _mask_rows(_paired_masks(arr, lead, k), lead)), (k, lead)

    @pytest.mark.parametrize("name", [*group_arrays(), *fallback_arrays()])
    def test_reports_match_the_subset_loop(self, name):
        arr = {**group_arrays(), **fallback_arrays()}[name]
        for k in range(1, min(arr.ncols, 4)):
            r = verify_k_uniform(arr, k)
            got = (r.holds, r.witness_subset, r.subsets_checked, r.subsets_total)
            assert got == k_uniform_loop(arr.cells, arr.levels, k), k

    def test_full_factorial_reads_its_pairs_off_row_0(self, monkeypatch):
        # 65536 x 16: every row has 16 neighbours at distance 1, and comparing
        # the pairs takes seconds where the coset path takes milliseconds
        def compared(*args):
            raise AssertionError("_paired_masks was entered")

        monkeypatch.setattr(oakit.quantum, "_paired_masks", compared)
        report = verify_k_uniform(trivial_moa((2,) * 16), 2)
        assert not report.holds
        assert (report.witness_subset, report.subsets_checked) == ((0, 1), 1)

    def test_thm7_state_over_gf8(self):
        # `construct thm7 k=4 factors=8 split=7:4,2`: 4096 x 9, minimal distance 5
        arr, _ = k_uniform_product(4, [8], plan=[(7, (4, 2))])
        got = _mask_rows(_close_pairs(arr, 9, 5), 9)
        assert len(got) and np.array_equal(got, _mask_rows(_paired_masks(arr, 9, 5), 9))


class TestIndexOneBound:
    """At strength k with index 1 and N >= 2k there is nothing to search."""

    def test_below_2k_columns_still_searches(self):
        arr = select_columns(bush_oa(3, 2), [0, 1, 2])  # index 1, N = 3 = 2k - 1
        assert verify_strength(arr, 2).index == 1
        report = verify_k_uniform(arr, 2)
        assert not report.holds
        got = (report.holds, report.witness_subset, report.subsets_checked, report.subsets_total)
        assert got == k_uniform_loop(arr.cells, arr.levels, 2)

    @pytest.mark.parametrize(
        "build, k",
        [(lambda: bush_oa(5, 2), 2), (lambda: bush_oa(7, 3), 3), (lambda: bush_oa(11, 4), 4)],
        ids=["bush_oa(5,2)", "bush_oa(7,3)", "bush_oa(11,4)"],
    )
    def test_relabelled_index_one_array_skips_the_search(self, build, k, monkeypatch):
        arr = _relabelled(build(), np.random.default_rng(k))
        assert _coset_weights(arr) is None and verify_strength(arr, k).index == 1
        expected = verify_k_uniform(arr, k)

        def entered(*args):
            raise AssertionError("_close_pairs was entered")

        monkeypatch.setattr(oakit.quantum, "_close_pairs", entered)
        assert verify_k_uniform(arr, k) == expected
        assert expected.holds and expected.subsets_checked == comb(arr.ncols, k)
        if arr.runs < 1000:
            got = (expected.holds, expected.witness_subset, expected.subsets_checked)
            assert got == k_uniform_loop(arr.cells, arr.levels, k)[:3]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_k_uniform(trivial_moa((2, 2, 2)), 0), "1 <= k < 3, got 0"),
        (lambda: verify_k_uniform(trivial_moa((2, 2, 2)), 3), "1 <= k < 3, got 3"),
        (lambda: is_ame(trivial_moa((2,))), "need at least two parties"),
        (lambda: reduced_density(trivial_moa((2, 2, 2)), (3,)), "subset out of range 0..2"),
    ],
    ids=["k=0", "k=N", "ame-one-party", "subset-past-the-end"],
)
def test_input_checks(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


class TestAme:
    def test_searched_seed_is_ame(self):
        from oakit.catalog import seed_array

        seed = seed_array("moa-6-6x3x2")
        assert is_ame(seed)

    def test_five_party_two_uniform_is_ame(self):
        # strength 2, distance >= 3, five parties: uniform at floor(5/2) = 2
        arr = bush_oa(4, 2)  # OA(16, 5, 4, 2), distance 4
        assert is_ame(arr)

    def test_factorial_is_not_ame(self):
        assert not is_ame(trivial_moa((2, 2)))
