"""Core predicates: strength, distances, irredundancy, column surgery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oakit.algebra import expand, hadamard01, juxtapose_scheme_raw, column_vector
from oakit.arrays import (
    MixedArray,
    concat_columns,
    delete_columns,
    distance_spectrum,
    guaranteed_deletion_budget,
    is_irredundant,
    min_distance,
    select_columns,
    verify_strength,
)
from oakit.constructions import trivial_moa
from oakit.errors import ParameterError

from oracles import (
    naive_distances,
    naive_irredundant,
    naive_min_distance,
    naive_strength,
)


def small_arrays():
    """Hypothesis strategy for small mixed arrays (not necessarily OAs)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 5))
        levels = tuple(draw(st.integers(2, 4)) for _ in range(n))
        r = draw(st.integers(1, 12))
        cells = [[draw(st.integers(0, levels[j] - 1)) for j in range(n)] for _ in range(r)]
        return MixedArray(levels, np.array(cells))

    return build()


class TestMixedArray:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MixedArray((2, 2), np.array([[0, 2]]))  # symbol out of range
        with pytest.raises(ParameterError):
            MixedArray((1,), np.array([[0]]))  # level below 2
        with pytest.raises(ParameterError):
            MixedArray((2,), np.zeros((0, 1), dtype=int))  # no rows

    @pytest.mark.parametrize("dtype", [float, bool, complex])
    def test_non_integer_dtype_rejected(self, dtype):
        with pytest.raises(ParameterError, match="integer dtype"):
            MixedArray((2, 2), np.array([[0, 1], [1, 0]], dtype=dtype))

    def test_float_cell_is_not_truncated(self):
        with pytest.raises(ParameterError, match="integer dtype"):
            MixedArray((2, 2), [[0, 1.7], [1, 0]])
        with pytest.raises(ParameterError, match="integer dtype"):
            MixedArray.from_rows((2, 2), [[0, 1.7], [1, 0]])

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_integer_dtypes_and_int_lists_accepted(self, dtype):
        arr = MixedArray((2, 2), np.array([[0, 1], [1, 0]], dtype=dtype))
        assert arr.cells.dtype == np.int64
        assert np.array_equal(arr.cells, MixedArray((2, 2), [[0, 1], [1, 0]]).cells)

    def test_profile_uses_descending_levels(self):
        arr = MixedArray.from_rows((2, 3, 2), [[0, 0, 0]])
        assert arr.profile() == "3^1 2^2"

    def test_cells_immutable(self):
        arr = trivial_moa((2, 2))
        with pytest.raises(ValueError):
            arr.cells[0, 0] = 1


class TestStrength:
    def test_expanded_scheme_is_strength_3_with_index_2(self, scheme18):
        # 54 x 5 ternary array: every 3-tuple appears exactly 54/27 = 2 times
        report = verify_strength(expand(scheme18), 3)
        assert report.holds and report.index == 2

    def test_full_factorial_7_4_2(self):
        arr = trivial_moa((7, 4, 2))
        assert arr.runs == 56
        report = verify_strength(arr, 3)
        assert report.holds and report.index == 1

    def test_k0_trivial(self):
        arr = trivial_moa((2, 2))
        report = verify_strength(arr, 0)
        assert report.holds and report.index == 4

    def test_corrupted_cell_gives_witness(self, scheme18):
        base = expand(scheme18)
        cells = base.cells.copy()
        cells[17, 2] = (cells[17, 2] + 1) % 3
        corrupted = MixedArray(base.levels, cells)
        assert not naive_strength(corrupted.row_tuples(), corrupted.levels, 3)
        report = verify_strength(corrupted, 3)
        assert not report.holds
        w = report.witness
        assert w is not None and w.symbols is not None
        # the witness really is miscounted
        count = sum(
            1
            for row in corrupted.row_tuples()
            if tuple(row[j] for j in w.columns) == w.symbols
        )
        assert count == w.count != int(w.expected)

    def test_divisibility_failure(self):
        arr = MixedArray.from_rows((2, 3), [[0, 0], [1, 1], [0, 2]])
        report = verify_strength(arr, 2)
        assert not report.holds and report.witness.symbols is None

    def test_parameter_errors(self):
        arr = trivial_moa((2, 2))
        with pytest.raises(ParameterError):
            verify_strength(arr, 3)
        with pytest.raises(ParameterError):
            verify_strength(arr, -1)

    def test_lambda_none_for_mixed_subsets(self):
        arr = trivial_moa((2, 3, 2))
        report = verify_strength(arr, 1)
        assert report.holds and report.index is None  # 12/2 vs 12/3 differ


class TestDistanceSpectrum:
    def test_hadamard12_expansion(self, h12):
        # 24 x 12 binary strength-2 array: distances {6, 12}, minimum r - r/d = 6
        spec = distance_spectrum(expand(h12.as_scheme()))
        assert spec.min_distance == 6
        assert spec.distances == (6, 12)

    def test_hadamard36_expansion(self):
        spec = distance_spectrum(expand(hadamard01(36).as_scheme(3)))
        assert spec.min_distance == 18

    def test_duplicate_rows_give_zero(self):
        arr = MixedArray.from_rows((2, 2), [[0, 0], [0, 0], [1, 1]])
        spec = distance_spectrum(arr)
        assert 0 in spec.distances and spec.min_distance == 0

    def test_d333_expansion_two_distances(self):
        from oakit.algebra import ds_linear

        spec = distance_spectrum(expand(ds_linear(3, 1)))
        assert spec.distances == (2, 3)  # {N - N/d, N}

    def test_one_row_convention(self):
        arr = MixedArray.from_rows((2, 2, 2), [[0, 1, 0]])
        spec = distance_spectrum(arr)
        assert spec.min_distance == 4 and spec.distances == ()

    def test_pair_counts_sum(self):
        arr = trivial_moa((2, 3))
        spec = distance_spectrum(arr)
        assert sum(spec.counts.values()) == arr.runs * (arr.runs - 1) // 2


class TestIrredundancy:
    def test_special_24x9_array(self, moa12):
        from oakit.constructions import two_uniform_from_scheme

        arr, _ = two_uniform_from_scheme(12, 12, 2, replacement=moa12, scheme_keep=4)
        assert is_irredundant(arr, 2).holds

    def test_full_factorial_not_irredundant(self):
        assert not is_irredundant(trivial_moa((2, 2)), 1).holds

    def test_hadamard12_expansion_k2_k6(self, h12):
        arr = expand(h12.as_scheme())
        assert is_irredundant(arr, 2).holds       # MD 6 >= 3
        assert not is_irredundant(arr, 6).holds   # MD 6 < 7

    def test_parameter_errors(self):
        arr = trivial_moa((2, 2))
        with pytest.raises(ParameterError):
            is_irredundant(arr, 2)  # k must stay below N

    def test_methods_agree_on_factorial(self):
        arr = trivial_moa((2, 2, 2))
        for k in (1, 2):
            assert is_irredundant(arr, k).holds == is_irredundant(arr, k, "subarrays").holds


class TestColumnSurgery:
    def test_budget_on_36_column_expansion(self):
        arr = expand(hadamard01(36).as_scheme(3))
        assert guaranteed_deletion_budget(arr, 3) == 14  # 18 - 3 - 1

    def test_budget_exhaustive_small_fixture(self, h12):
        # deleting ANY set of <= budget columns keeps distance >= k + 1
        from itertools import combinations

        arr = expand(hadamard01(8).as_scheme())  # 16 x 8, MD 4
        k = 2
        budget = guaranteed_deletion_budget(arr, k)
        assert budget == 1
        for size in range(budget + 1):
            for drop in combinations(range(arr.ncols), size):
                if drop:
                    assert min_distance(delete_columns(arr, drop)) >= k + 1

    def test_delete_identity_and_errors(self):
        arr = trivial_moa((2, 3))
        assert delete_columns(arr, []) == arr
        with pytest.raises(ParameterError):
            delete_columns(arr, [5])
        with pytest.raises(ParameterError):
            delete_columns(arr, [0, 1])

    def test_concat_requires_equal_runs(self):
        with pytest.raises(ParameterError):
            concat_columns(trivial_moa((2,)), trivial_moa((3,)))

    def test_concat_doubles_distances(self):
        col = column_vector(3)
        doubled = concat_columns(col, col)
        assert distance_spectrum(doubled).distances == (2,)

    def test_juxtaposition_equals_manual_concat(self):
        # [A (+) 0_d, D (+) (d)] = columnwise concat of the two halves
        from oakit.algebra import ds_linear, repeat_rows_each

        d333 = ds_linear(3, 1)
        host = column_vector(3)
        via_raw = juxtapose_scheme_raw(host, d333)
        manual = concat_columns(repeat_rows_each(host, 3), expand(d333))
        assert via_raw == manual

    def test_select_reorders(self):
        arr = trivial_moa((2, 3))
        sel = select_columns(arr, [1, 0])
        assert sel.levels == (3, 2)
        assert np.array_equal(sel.cells[:, 0], arr.cells[:, 1])


class TestProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_arrays(), st.randoms(use_true_random=False))
    def test_invariance_under_relabel_and_permutation(self, arr, rng):
        cols = list(range(arr.ncols))
        rng.shuffle(cols)
        permuted = select_columns(arr, cols)
        relabeled_cells = permuted.cells.copy()
        for j, d in enumerate(permuted.levels):
            mapping = list(range(d))
            rng.shuffle(mapping)
            relabeled_cells[:, j] = np.array(mapping)[relabeled_cells[:, j]]
        other = MixedArray(permuted.levels, relabeled_cells)
        for k in range(0, min(arr.ncols, 3) + 1):
            assert verify_strength(arr, k).holds == verify_strength(other, k).holds
        assert distance_spectrum(arr).distances == distance_spectrum(other).distances
        for k in range(1, arr.ncols):
            assert is_irredundant(arr, k).holds == is_irredundant(other, k).holds

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_arrays())
    def test_strength_monotone(self, arr):
        held = [verify_strength(arr, k).holds for k in range(arr.ncols + 1)]
        for k in range(1, len(held)):
            if held[k]:
                assert held[k - 1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_arrays())
    def test_against_naive_oracles(self, arr):
        rows = arr.row_tuples()
        for k in range(0, arr.ncols + 1):
            assert verify_strength(arr, k).holds == naive_strength(rows, arr.levels, k)
        if arr.runs >= 2:
            spec = distance_spectrum(arr)
            assert spec.min_distance == naive_min_distance(rows, arr.ncols)
            assert set(spec.distances) == naive_distances(rows)
        for k in range(1, arr.ncols):
            fast = is_irredundant(arr, k).holds
            assert fast == naive_irredundant(rows, arr.ncols, k)
            assert fast == is_irredundant(arr, k, "subarrays").holds

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_arrays())
    def test_self_stack_contains_zero(self, arr):
        stacked = MixedArray(arr.levels, np.vstack([arr.cells, arr.cells]))
        assert 0 in distance_spectrum(stacked).distances
