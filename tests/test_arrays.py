"""Core predicates: strength, distances, irredundancy, column surgery."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oakit import arrays
from oakit.algebra import (
    column_vector,
    ds_linear,
    expand,
    hadamard01,
    juxtapose_scheme_raw,
    repeat_rows_each,
)
from oakit.arrays import (
    MixedArray,
    StrengthWitness,
    _bitsets_cheaper,
    _coset_weights,
    _pair_spectrum,
    _strength_bitsets,
    _strength_loop,
    concat_columns,
    delete_columns,
    distance_spectrum,
    guaranteed_deletion_budget,
    is_irredundant,
    min_distance,
    select_columns,
    verify_strength,
)
from oakit.catalog import catalog_build
from oakit.constructions import (
    bush_oa,
    bush_oa_even,
    k_uniform_product,
    three_uniform_dm2n,
    trivial_moa,
    two_uniform_3m2n,
    two_uniform_prime_power,
)
from oakit.errors import ParameterError
from oakit.formats import parse_array, serialize_array
from oakit.search import SearchSpec, search_moa

from oracles import (
    macwilliams_strength,
    naive_distances,
    naive_irredundant,
    naive_min_distance,
    naive_spectrum,
    naive_strength,
    strength_report_loop,
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
        assert arr.cells.dtype == np.uint8  # the narrowest that holds 2 levels
        assert np.array_equal(arr.cells, MixedArray((2, 2), [[0, 1], [1, 0]]).cells)

    def test_profile_uses_descending_levels(self):
        arr = MixedArray.from_rows((2, 3, 2), [[0, 0, 0]])
        assert arr.profile() == "3^1 2^2"

    def test_cells_immutable(self):
        arr = trivial_moa((2, 2))
        with pytest.raises(ValueError):
            arr.cells[0, 0] = 1


# a level and the dtype its cells are stored in, at each boundary of the rule
_STORAGE = [
    (256, np.uint8),
    (257, np.uint16),
    (1 << 16, np.uint16),
    ((1 << 16) + 1, np.uint32),
    (1 << 32, np.uint32),
    ((1 << 32) + 1, np.int64),
]
_GIVEN = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64, list]


def _boundary_array(level: int) -> MixedArray:
    """Two rows over (2, level), the second reading level - 1."""
    return MixedArray((2, level), [[0, 0], [1, level - 1]])


class TestCellStorage:
    @pytest.mark.parametrize("level, dtype", _STORAGE)
    def test_rule_at_its_boundaries(self, level, dtype):
        assert arrays.cell_dtype((2, level)) == dtype == arrays.cell_dtype((level, 3))

    @pytest.mark.parametrize("given", _GIVEN, ids=lambda g: getattr(g, "__name__", str(g)))
    @pytest.mark.parametrize("level, dtype", _STORAGE)
    def test_every_integer_dtype_and_lists(self, level, dtype, given):
        top = level - 1 if given is list else min(level - 1, int(np.iinfo(given).max))
        rows = [[0, 0], [1, top]]
        arr = MixedArray((2, level), rows if given is list else np.array(rows, dtype=given))
        assert arr.cells.dtype == dtype and arr.cells.tolist() == rows
        assert arr.cells.flags.c_contiguous and not arr.cells.flags.writeable

    @pytest.mark.parametrize("level, dtype", _STORAGE)
    def test_parse_array(self, level, dtype):
        arr = _boundary_array(level)
        parsed = parse_array(serialize_array(arr))
        assert parsed.cells.dtype == dtype and parsed == arr

    @pytest.mark.parametrize("level, dtype", _STORAGE)
    def test_column_surgery(self, level, dtype):
        arr = _boundary_array(level)
        assert select_columns(arr, [1]).cells.dtype == dtype
        assert select_columns(arr, [0]).cells.dtype == np.uint8
        assert delete_columns(arr, [0]).cells.dtype == dtype
        assert delete_columns(arr, [1]).cells.dtype == np.uint8
        joined = concat_columns(arr, arr)
        assert joined.cells.dtype == dtype and joined.cells.tolist() == [[0, 0] * 2, [1, level - 1] * 2]
        two = MixedArray((2,), [[0], [1]])
        assert concat_columns(two, two).cells.dtype == np.uint8
        assert concat_columns(two, select_columns(arr, [1])).cells.dtype == dtype

    @pytest.mark.parametrize(
        "build, dtype",
        [
            (lambda: bush_oa(256, 1), np.uint8),
            (lambda: bush_oa(257, 1), np.uint16),
            (lambda: trivial_moa((1 << 16,)), np.uint16),
            (lambda: trivial_moa(((1 << 16) + 1,)), np.uint32),
            (lambda: two_uniform_prime_power(4, 2)[0], np.uint8),
            (lambda: three_uniform_dm2n(5, 4, 54)[0], np.uint8),
            (lambda: k_uniform_product(2, [5, 8])[0], np.uint8),
        ],
        ids=["bush-256", "bush-257", "trivial-65536", "trivial-65537", "cor2", "thm4", "thm7"],
    )
    def test_family_builders(self, build, dtype):
        assert build().cells.dtype == dtype

    @pytest.mark.parametrize(
        "levels, cells, message",
        [
            # 2^63 wraps to a negative int64
            ((2,), np.array([[1 << 63]], dtype=np.uint64), "column 0 holds symbol 9223372036854775808 "),
            ((1 << 64,), np.array([[1 << 63]], dtype=np.uint64), "symbol 9223372036854775808 is outside"),
            # 300 wraps to 44 in uint8, and -1 to 255
            ((256,), np.array([[300]], dtype=np.int16), "column 0 holds symbol 300 but has only 256"),
            ((256,), np.array([[-1]], dtype=np.int8), "negative symbol"),
            # 2^32 wraps to 0 in uint32
            ((2, 1 << 32), [[0, 1 << 32]], "column 1 holds symbol 4294967296 "),
        ],
        ids=["uint64-2^63-level-2", "uint64-2^63-level-2^64", "int16-300", "int8-negative", "2^32"],
    )
    def test_out_of_range_rejected_before_the_cast(self, levels, cells, message):
        with pytest.raises(ParameterError, match=message):
            MixedArray(levels, cells)

    def test_kernels_on_int64_cells(self):
        # a level above 2^32 keeps int64 cells, which the subset loop adds
        # to its uint8 codes for the columns (0, 1)
        rows = [[0, 0, 0], [0, 1, 5], [1, 0, 7], [1, 1, (1 << 33) - 1]]
        arr = MixedArray((2, 2, 1 << 33), rows)
        assert arr.cells.dtype == np.int64
        report = verify_strength(arr, 2)
        assert report.witness.columns == (0, 2) and report.witness.symbols is None
        assert strength_report_loop(arr.cells, arr.levels, 2)[2][0] == (0, 2)
        assert distance_spectrum(arr).counts == naive_spectrum(arr.cells)

    def test_codes_of_narrow_cells_do_not_wrap(self):
        arr = _boundary_array(256)
        assert arr.cells.dtype == np.uint8
        assert arrays.subset_codes(arr.cells, arr.levels, (0, 1)).tolist() == [0, 511]
        assert arrays.subset_codes(arr.cells, arr.levels, (1, 0)).tolist() == [0, 511]
        full = trivial_moa((256, 3))
        assert verify_strength(full, 2).index == 1
        assert distance_spectrum(full).counts == naive_spectrum(full.cells)


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


def _as_oracle_report(report):
    w = report.witness
    witness = None if w is None else (w.columns, w.symbols, w.count, w.expected)
    return report.holds, report.index, witness


def _damaged(base, rng, cells_flipped, rows_copied):
    """Copies of ``base`` with one or two cells changed, or one row copied over another."""
    r, n = base.cells.shape
    out = []
    for flips in range(cells_flipped):
        cells = base.cells.copy()
        for _ in range(1 + flips % 2):
            i, j = int(rng.integers(r)), int(rng.integers(n))
            cells[i, j] = (cells[i, j] + int(rng.integers(1, base.levels[j]))) % base.levels[j]
        out.append(MixedArray(base.levels, cells))
    for _ in range(rows_copied):
        i, src = rng.choice(r, size=2, replace=False)
        cells = base.cells.copy()
        cells[i] = cells[src]
        out.append(MixedArray(base.levels, cells))
    return out


def _strength_corpus():
    rng = np.random.default_rng(20261018)
    cases = []
    for levels in ((2, 3, 2), (4, 2, 2, 2), (3, 3, 3, 2), (2,) * 6):
        # factorials pass at every k; their damaged copies fail
        base = trivial_moa(levels)
        ks = range(1, min(len(levels), 4) + 1)
        cases += [(arr, k) for arr in [base, *_damaged(base, rng, 3, 1)] for k in ks]
    while len(cases) < 1200:
        n = int(rng.integers(1, 8))
        levels = tuple(int(d) for d in rng.integers(2, 5, size=n))
        r = int(rng.integers(1, 50))  # most row counts are not divisible by every product
        cells = np.stack([rng.integers(0, d, size=r) for d in levels], axis=1)
        cases += [(MixedArray(levels, cells), k) for k in range(1, min(n, 4) + 1)]
    thm3 = catalog_build("thm3/3^5x2^36")[0]  # 216 x 41
    for base, ks in (
        (three_uniform_dm2n(5, 4, 54)[0], range(1, 5)),  # 1000 x 58
        (thm3, range(1, 5)),
        (bush_oa(5, 3), range(1, 5)),  # 125 x 6
    ):
        cases += [(arr, k) for arr in _damaged(base, rng, 12, 4) for k in ks]
        cases += [(base, k) for k in ks if k < 3 or base.runs < 1000]
    # a column copied over the next one fails only in the box of that late
    # pair: the first failures are (61, 62) and (39, 40) at k = 2, and
    # (0, 39, 40) at k = 3
    for base, copied, ks in ((expand(ds_linear(4, 3)), 61, (2, 3)), (thm3, 39, (2, 3, 4))):
        cells = base.cells.copy()
        cells[:, copied + 1] = cells[:, copied]
        cases += [(MixedArray(base.levels, cells), k) for k in ks]
    tall = bush_oa(16, 3, columns=6)  # 4096 x 6 at 16 levels
    cases += [(arr, k) for arr in [tall, *_damaged(tall, rng, 2, 1)] for k in range(1, 5)]
    return cases


class TestStrengthCrossCheck:
    """The subset loop, the dispatch and the row-set voucher against the per-subset oracle."""

    @staticmethod
    def _check(arr, k):
        expected = strength_report_loop(arr.cells, arr.levels, k)
        for path in (verify_strength, _strength_loop):
            report = path(arr, k)
            assert report.strength_checked == k
            assert _as_oracle_report(report) == expected, (path.__name__, arr, k)
            if report.witness is not None:
                assert all(type(c) is int for c in report.witness.columns)
        if k in (2, 3):  # the row sets serve these strengths only
            start = _strength_bitsets(arr, k)
            # None exactly when the array holds; else no later than the first failure
            if expected[0]:
                assert start is None, (arr, k, start)
            else:
                assert start is not None and start <= expected[2][0], (arr, k, start)
        return expected

    def test_both_paths_match_the_oracle(self):
        verdicts, witnesses = set(), set()
        for arr, k in _strength_corpus():
            expected = self._check(arr, k)
            verdicts.add(expected[0])
            witnesses.add(expected[2] is not None and expected[2][1] is None)
        assert verdicts == {True, False} and witnesses == {True, False}

    @pytest.mark.parametrize(
        "build, args, k, first",
        [
            (three_uniform_dm2n, (5, 5, 100), 3, (0, 104, 105)),  # 1000 x 105
            (two_uniform_prime_power, (4, 4), 2, (256, 257)),  # 1024 x 257
        ],
    )
    def test_late_witness(self, build, args, k, first):
        # the last column appended again: only the subsets holding both
        # copies fail, and the first of them comes late in the scan
        base = build(*args)[0]
        arr = concat_columns(base, select_columns(base, [base.ncols - 1]))
        assert _bitsets_cheaper(arr.levels, arr.runs, k)
        assert self._check(arr, k)[2][0] == first

    def test_dispatch_by_cost(self):
        # tall arrays with many levels keep the subset loop: bush_oa(11, 4),
        # bush_oa(16, 3) and bush_oa_even(16)
        assert not _bitsets_cheaper((11,) * 12, 14641, 4)
        assert not _bitsets_cheaper((16,) * 17, 4096, 3)
        assert not _bitsets_cheaper((16,) * 18, 4096, 3)
        # wide arrays with few levels take the row sets: three_uniform_dm2n(5, 4, 54)
        # and the output of construct cor2 d=4 n=5
        assert _bitsets_cheaper((5,) * 4 + (2,) * 54, 1000, 3)
        assert _bitsets_cheaper((1024,) + (4,) * 1024, 4096, 2)
        # every other strength takes the loop: the 128 x 8 certificate of
        # oakit search --runs 128 at k = 1, and trivial_moa((2,) * 12) at k = 4
        deep = search_moa(SearchSpec(128, (2,) * 8, 1)).array
        assert not _bitsets_cheaper(deep.levels, deep.runs, 1)
        full = trivial_moa((2,) * 12)
        assert not _bitsets_cheaper(full.levels, full.runs, 4)

    def test_memory_stays_bounded(self):
        # OA(1024, 256^1 2^256, 2): a in Z_256, b in Z_2, and the 2-level
        # columns l(a) + b for every linear form l on the bits of a.  The first
        # block of the row-set voucher ANDs the 256-level column's 255 box slots
        # against the 256 slots after it, 255 x 256 pairs of 16-word row sets:
        # 8 MiB, were it not tiled
        a, b = np.divmod(np.arange(512), 2)
        forms = np.arange(256)
        parity = np.bitwise_count(a[:, None] & forms[None, :]) % 2
        cells = np.hstack([a[:, None], (parity + b[:, None]) % 2])
        arr = MixedArray((256,) + (2,) * 256, np.vstack([cells, cells]))
        tracemalloc.start()
        try:
            start = _strength_bitsets(arr, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert start is None
        assert peak < 8 << 20


class TestStrengthLoop:
    """The subset loop's shared prefix codes, against the per-subset oracle at k = 1..5."""

    @staticmethod
    def _check(arr):
        for k in range(1, min(arr.ncols, 5) + 1):
            expected = strength_report_loop(arr.cells, arr.levels, k)
            assert _as_oracle_report(_strength_loop(arr, k)) == expected, (arr, k)

    def test_divisibility_witness_mid_scan(self):
        # (0, 1, 2) is balanced; then (0, 1, 3) has level product 8, which
        # does not divide 12, and (0, 1, 2) leaves codes of its prefix behind
        full = trivial_moa((2, 2, 3))
        arr = MixedArray((2, 2, 3, 2, 2), np.hstack([full.cells, full.cells[::-1, :2]]))
        report = _strength_loop(arr, 3)
        assert report.witness == StrengthWitness((0, 1, 3), None, None, Fraction(12, 8))
        self._check(arr)

    def test_one_corrupted_cell_in_each_column(self):
        rng = np.random.default_rng(23)
        base = bush_oa(7, 4)  # 2401 x 8, strength 4
        base = MixedArray(base.levels, base.cells[rng.permutation(base.runs)])
        self._check(base)
        for j in range(base.ncols):
            cells = base.cells.copy()
            cells[int(rng.integers(base.runs)), j] += 1
            cells[:, j] %= 7
            arr = MixedArray(base.levels, cells)
            self._check(arr)
            for k in range(1, 5):  # every k-subset through column j is now unbalanced
                assert j in _strength_loop(arr, k).witness.columns

    def test_mixed_levels(self):
        rng = np.random.default_rng(29)
        full = trivial_moa((3, 2, 2, 4, 2, 3))  # 288 runs, strength 6
        two = two_uniform_3m2n(1, 9)[0]  # 24 x 10 over 3^1 2^9, strength 2
        for base in (full, two, concat_columns(full, select_columns(full, [4, 0]))):
            for arr in (base, *_damaged(base, rng, 4, 2)):
                self._check(arr)


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


    @pytest.mark.parametrize(
        "runs, levels",
        [
            (1, (3, 2, 2)),
            (2, (2, 2)),
            (2, (300, 2)),  # symbols above 255
            (40, (2,) * 300),  # 300 columns
            (30, (50,) * 280 + (1000,)),  # distances above 255
            (544, (2, 3, 5)),  # tiles of 481 and 63 rows, counted 60 rows at a time
            (1100, (4, 2)),  # five tiles, the last one short
        ],
    )
    def test_matches_pair_oracle(self, runs, levels):
        rng = np.random.default_rng(runs * 1000 + len(levels))
        cells = np.stack([rng.integers(0, d, size=runs) for d in levels], axis=1)
        spec = distance_spectrum(MixedArray(levels, cells))
        expected = naive_spectrum(cells)
        assert spec.counts == expected
        if runs > 1:
            assert spec.distances == tuple(sorted(expected))
            assert spec.min_distance == min(expected)

    def test_memory_stays_bounded(self):
        arr = bush_oa(16, 3)  # 4096 x 17
        tracemalloc.start()
        try:
            spec = distance_spectrum(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.distances == (15, 16, 17)
        assert peak < 8 << 20


def group_arrays():
    """Arrays whose rows are a coset of a subgroup of the column groups' product."""
    bush, even = bush_oa(5, 2), bush_oa_even(4)
    return {
        "bush_oa(5,2)": bush,
        "bush_oa(7,3)": bush_oa(7, 3),
        "bush_oa_even(4)": even,
        "ds_linear(4,2) expanded": expand(ds_linear(4, 2)),
        # thm7 over GF(8), its column 3 split into 4 x 2: radices (2, 2, 2)
        "thm7 k=2 factors=8 split=3:4,2": k_uniform_product(2, [8], plan=[(3, (4, 2))])[0],
        "k_uniform_product(2,[3,4])": k_uniform_product(2, [3, 4])[0],  # 12 as 3 x 4
        "trivial_moa(6,12)": trivial_moa((6, 12)),
        "bush_oa(5,2) + (1,2,3,4,0,1)": MixedArray(
            bush.levels, (bush.cells + [1, 2, 3, 4, 0, 1]) % 5
        ),
        "bush_oa_even(4) + (1,2,3,1,2,3)": MixedArray(even.levels, even.cells ^ [1, 2, 3, 1, 2, 3]),
        # every permutation of 4 symbols is affine over GF(4)'s (2, 2)
        "bush_oa_even(4) relabelled": _relabelled(even, np.random.default_rng(5)),
    }


def _relabelled(array, rng):
    """Each column's symbols permuted at random."""
    cells = [rng.permutation(d)[array.cells[:, j]] for j, d in enumerate(array.levels)]
    return MixedArray(array.levels, np.stack(cells, axis=1))


def fallback_arrays():
    """Arrays that are no coset: seeded copies of group arrays with a cell
    changed, a row repeated or every column relabelled, a group array with
    every row twice, and a union of three cosets that passes the probes."""
    rng = np.random.default_rng(20261019)
    out = {}
    for name in ("bush_oa(5,2)", "bush_oa_even(4)", "k_uniform_product(2,[3,4])"):
        base = group_arrays()[name]
        r, n = base.cells.shape
        cells = base.cells.copy()
        i, j = int(rng.integers(r)), int(rng.integers(n))
        cells[i, j] = (cells[i, j] + int(rng.integers(1, base.levels[j]))) % base.levels[j]
        out[f"{name} one cell changed"] = MixedArray(base.levels, cells)
        cells = base.cells.copy()
        cells[int(rng.integers(1, r))] = cells[0]
        out[f"{name} row 0 repeated"] = MixedArray(base.levels, cells)
        if name != "bush_oa_even(4)":  # its relabellings are cosets too
            out[f"{name} relabelled"] = _relabelled(base, rng)
    # balanced columns and rows whose sums the probes find, but no coset:
    # K, K + a and K + b for independent a, b mod K lack a + b, and rows 1,
    # r // 2 and r - 1 are taken from K
    k = bush_oa(3, 2).cells
    cosets = [k, (k + [0, 0, 0, 1]) % 3, (k + [0, 0, 1, 0]) % 3]
    rows = np.vstack(cosets)
    rows[[2, 3, 13, 26]] = rows[[13, 26, 2, 3]]
    out["bush_oa(3,2) + three cosets"] = MixedArray((3,) * 4, rows)
    even = bush_oa_even(4)
    out["bush_oa_even(4) twice"] = MixedArray(even.levels, np.vstack([even.cells, even.cells]))
    # every row next to its copy, in row order and in seeded row orders
    doubled = repeat_rows_each(even, 2)
    out["bush_oa_even(4) rows each twice"] = doubled
    for s in range(3):
        rows = doubled.cells[rng.permutation(doubled.runs)]
        out[f"bush_oa_even(4) rows each twice, shuffle {s}"] = MixedArray(even.levels, rows)
    return out


class TestCosetPath:
    """distance_spectrum's translation-group path against the pair kernel and oracle."""

    @pytest.mark.parametrize("name", group_arrays())
    def test_group_arrays_take_it_and_match(self, name):
        arr = group_arrays()[name]
        assert _coset_weights(arr) is not None
        spec = distance_spectrum(arr)
        assert spec == _pair_spectrum(arr)
        assert spec.counts == naive_spectrum(arr.cells)

    @pytest.mark.parametrize("name", fallback_arrays())
    def test_other_arrays_fall_back_and_match(self, name):
        arr = fallback_arrays()[name]
        assert _coset_weights(arr) is None
        spec = distance_spectrum(arr)
        assert spec == _pair_spectrum(arr)
        assert spec.counts == naive_spectrum(arr.cells)

    def test_gf4_and_z4_columns(self):
        # (a, a >> 1) is additive over GF(4) = (2, 2) but not over Z_4:
        # (1, 0) + (1, 0) = (2, 0) is no row
        gf = MixedArray.from_rows((4, 2), [(a, a >> 1) for a in range(4)])
        assert _coset_weights(gf) is not None
        # <(1, 1, 0), (0, 1, 1)> in Z_4^3 is no GF(4) subspace:
        # (1, 1, 0) xor (0, 1, 1) = (1, 0, 1) is no row, so the pairs answer
        rows = [(a, (a + b) % 4, b) for a in range(4) for b in range(4)]
        z4 = MixedArray.from_rows((4, 4, 4), rows)
        assert _coset_weights(z4) is None
        for arr in (gf, z4):
            assert distance_spectrum(arr).counts == naive_spectrum(arr.cells)

    def test_column_over_more_than_255_levels(self):
        arr, _ = two_uniform_prime_power(4, 4)  # 1024 x 257, its index column over 256 levels
        assert max(arr.levels) == 256
        assert _coset_weights(arr) is not None
        assert distance_spectrum(arr) == _pair_spectrum(arr)

    def test_level_past_two_to_the_32_is_not_factored(self, monkeypatch):
        # the largest prime below 2^63: trial division up to its square root
        # would take minutes, so such a level goes to the pairs unfactored
        p = 9223372036854775783
        arr = MixedArray((p, 2), [[0, 0], [p - 1, 1]])

        def refuse(d):
            raise AssertionError(f"{d} was factored")

        monkeypatch.setattr(arrays, "_prime_factors", refuse)
        assert _coset_weights(arr) is None
        assert distance_spectrum(arr) == _pair_spectrum(arr)

    def test_thm7_state_over_gf8(self):
        # `construct thm7 k=4 factors=8 split=7:4,2`: 4096 x 9 over 8^7 4^1 2^1
        arr, _ = k_uniform_product(4, [8], plan=[(7, (4, 2))])
        assert _coset_weights(arr) is not None
        assert distance_spectrum(arr) == _pair_spectrum(arr)

    def test_pair_kernel_memory_stays_bounded(self):
        arr = bush_oa(16, 3)  # 4096 x 17
        tracemalloc.start()
        try:
            spec = _pair_spectrum(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.distances == (15, 16, 17)
        assert peak < 8 << 20

    @pytest.mark.parametrize(
        "q, build",
        [(7, lambda: bush_oa(7, 4)), (8, lambda: bush_oa(8, 3)), (4, lambda: bush_oa_even(4))],
        ids=["bush_oa(7,4)", "bush_oa(8,3)", "bush_oa_even(4)"],
    )
    def test_strength_matches_the_macwilliams_transform(self, q, build):
        # a linear array: its rows' weights are its distances from the zero row
        arr = build()
        assert not arr.cells[0].any()
        weights = np.bincount(np.count_nonzero(arr.cells, axis=1), minlength=arr.ncols + 1)
        t = macwilliams_strength(weights.tolist(), q)
        assert verify_strength(arr, t).holds
        assert t == arr.ncols or not verify_strength(arr, t + 1).holds


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
        # the distance criterion against direct subarray enumeration
        arr = trivial_moa((2, 2, 2))
        for k in (1, 2):
            report = is_irredundant(arr, k)
            assert report.min_distance == 1
            assert report.holds == naive_irredundant(arr.row_tuples(), arr.ncols, k)


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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_arrays())
    def test_self_stack_contains_zero(self, arr):
        stacked = MixedArray(arr.levels, np.vstack([arr.cells, arr.cells]))
        assert 0 in distance_spectrum(stacked).distances
