"""Fields, groups, Hadamard generators, difference schemes, Kronecker sums."""

import re
import tracemalloc

import numpy as np
import pytest

from oakit import algebra
from oakit.algebra import (
    column_vector,
    DifferenceScheme,
    FiniteField,
    HadamardMatrix01,
    cyclic_group,
    ds_linear,
    ds_poly3,
    expand,
    finite_field,
    gf_additive_group,
    hadamard01,
    is_difference_scheme,
    juxtapose_scheme_raw,
    kronecker_sum,
    prime_power_decomposition,
    product_construction,
    repeat_rows_each,
)
from oakit.arrays import MixedArray, distance_spectrum, min_distance, verify_strength
from oakit.constructions import bush_oa
from oakit.errors import ParameterError, VerificationError
from oracles import (
    naive_gf_add,
    naive_gf_mul,
    naive_gf_pow,
    naive_prime_power,
    naive_smallest_irreducible,
)


class TestFiniteFields:
    def test_gf5_arithmetic(self):
        gf = finite_field(5)
        assert gf.mul(2, 3) == 1
        assert gf.inv(2) == 3

    def test_gf4_polynomial_arithmetic(self):
        gf = finite_field(4)
        assert gf.modulus == (1, 1, 1)  # x^2 + x + 1
        assert gf.mul(2, 2) == 3        # x * x = x + 1

    def test_gf9_multiplicative_order(self):
        gf = finite_field(9)
        assert all(gf.pow(a, 8) == 1 for a in range(1, 9))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81])
    def test_axioms_exhaustive(self, q):
        gf = finite_field(q)
        add = np.array([[gf.add(a, b) for b in range(q)] for a in range(q)])
        mul = np.array([[gf.mul(a, b) for b in range(q)] for a in range(q)])
        assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
        assert np.array_equal(mul[1], np.arange(q))
        assert np.array_equal(mul[0], np.zeros(q, dtype=int))
        # associativity and distributivity over all triples, via table lookups
        assert np.array_equal(mul[mul, :], mul[:, mul])
        assert np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
        for a in range(1, q):
            assert gf.mul(a, gf.inv(a)) == 1

    def test_modulus_is_smallest_irreducible(self):
        # GF(729) used to pick the reducible x^6 + x + 1 (root 1 over GF(3))
        for q in range(2, 4097):
            pm = prime_power_decomposition(q)
            if pm is not None:
                assert FiniteField(q).modulus == naive_smallest_irreducible(*pm), q
        assert finite_field(729).modulus == (2, 1, 0, 0, 0, 0, 1)

    @pytest.mark.parametrize("q", [729, 1024, 3**10, 65521, 1 << 16])
    def test_arithmetic_matches_polynomial_oracle(self, q):
        gf = finite_field(q)
        p, m, modulus = gf.p, gf.m, gf.modulus
        rng = np.random.default_rng(q)
        a = np.concatenate([[0, 0, 1, q - 1], rng.integers(0, q, size=60)])
        b = np.concatenate([[0, 5, 0, q - 1], rng.integers(0, q, size=60)])
        e = np.concatenate([[0, 3, 0, q - 1], rng.integers(0, 3 * q, size=60)])
        for x, y, n in zip(a.tolist(), b.tolist(), e.tolist()):
            assert gf.add(x, y) == naive_gf_add(x, y, p, m)
            assert gf.add(gf.sub(x, y), y) == x and gf.add(x, gf.neg(x)) == 0
            assert gf.mul(x, y) == naive_gf_mul(x, y, p, modulus)
            assert gf.pow(x, n) == naive_gf_pow(x, n, p, modulus)
            if x:
                assert naive_gf_mul(x, int(gf.inv(x)), p, modulus) == 1
                if q % 2:
                    square = naive_gf_pow(x, (q - 1) // 2, p, modulus) == 1
                    assert gf.quadratic_character(x) == (1 if square else -1)
        # numpy arguments give the scalar results elementwise, with broadcasting
        pairs = list(zip(a.tolist(), b.tolist()))
        for op in (gf.add, gf.sub, gf.mul):
            assert op(a, b).tolist() == [op(x, y) for x, y in pairs]
        for n in (0, 7):
            assert gf.pow(a, n).tolist() == [gf.pow(x, n) for x in a.tolist()]
        chi = gf.quadratic_character(a)
        assert chi.tolist() == [gf.quadratic_character(x) for x in a.tolist()]
        nonzero = np.where(a == 0, 1, a)
        assert gf.inv(nonzero).tolist() == [gf.inv(x) for x in nonzero.tolist()]
        table = gf.mul(a[:8, None], b[None, :8])
        assert table.tolist() == [[gf.mul(x, y) for y in b[:8].tolist()] for x in a[:8].tolist()]
        with pytest.raises(ParameterError):
            gf.inv(a)

    @pytest.mark.parametrize("q", [2, 4, 8, 64, 1024, 3, 9, 25, 729])
    def test_quadratic_character_matches_squares(self, q):
        gf = finite_field(q)
        squares = {naive_gf_mul(y, y, gf.p, gf.modulus) for y in range(1, q)}
        expected = [0] + [1 if x in squares else -1 for x in range(1, q)]
        assert [gf.quadratic_character(x) for x in range(q)] == expected
        assert gf.quadratic_character(np.arange(q)).tolist() == expected

    def test_order_cap(self):
        with pytest.raises(ParameterError, match="exceeds 2"):
            FiniteField((1 << 16) + 1)

    def test_not_prime_power(self):
        with pytest.raises(ParameterError):
            finite_field(6)
        assert prime_power_decomposition(12) is None
        assert prime_power_decomposition(49) == (7, 2)

    def test_group_axioms(self):
        # add/sub are arithmetic, not tables: check them on ints and on
        # broadcast arrays against (a +- b) % d and the digit-wise oracle
        rng = np.random.default_rng(3)
        for group in (cyclic_group(6), cyclic_group(64), *map(gf_additive_group, (8, 9, 729))):
            d, pm = group.order, prime_power_decomposition(group.order)

            def naive_add(x, y):
                return (x + y) % d if group.tag == "mod" else naive_gf_add(x, y, *pm)

            a = np.arange(d) if d <= 64 else rng.integers(0, d, 40)
            b = a if d <= 64 else rng.integers(0, d, 30)
            sums = [[naive_add(x, y) for y in b.tolist()] for x in a.tolist()]
            assert group.add(a[:, None], b[None, :]).tolist() == sums
            assert [[group.add(x, y) for y in b.tolist()] for x in a.tolist()] == sums
            diffs = group.sub(a[:, None], b[None, :]).tolist()
            assert [[group.sub(x, y) for y in b.tolist()] for x in a.tolist()] == diffs
            assert [[naive_add(z, y) for z, y in zip(row, b.tolist())] for row in diffs] == [
                [x] * len(b) for x in a.tolist()
            ]
            if group.tag == "mod":
                assert diffs == ((a[:, None] - b[None, :]) % d).tolist()
            assert np.array_equal(group.add(a, 0), a) and not group.sub(a, a).any()
        assert gf_additive_group(9).tag == "gf" and gf_additive_group(7) == cyclic_group(7)


class TestPrimePowers:
    def test_matches_trial_division_below_5000(self):
        for q in range(-10, 5000):
            assert prime_power_decomposition(q) == naive_prime_power(q), q

    @pytest.mark.parametrize(
        "q",
        [
            999_999_999_989,  # prime
            1_000_003**2,
            999_983**3,
            65_521**4,
            3**39,
            2**63,
            65_521 * 65_537,  # semiprimes
            999_983 * 1_000_003,
            3_215_031_751,  # strong pseudoprime to bases 2, 3, 5 and 7
            3_825_123_056_546_413_051,  # strong pseudoprime to the first nine prime bases
        ],
    )
    def test_matches_trial_division_on_large_values(self, q):
        assert prime_power_decomposition(q) == naive_prime_power(q)

    @pytest.mark.parametrize(
        "q, expected",
        [
            (9_223_372_036_854_775_783, (9_223_372_036_854_775_783, 1)),  # largest prime < 2^63
            (2**61 - 1, (2**61 - 1, 1)),
            ((2**31 - 1) ** 2, (2**31 - 1, 2)),
            (1_000_000_007**2, (1_000_000_007, 2)),
            (1_000_000_007 * 1_000_000_009, None),
            (9_999_999_999_999_999_999, None),
        ],
    )
    def test_nineteen_digit_orders(self, q, expected):
        # trial division would need up to 3 * 10^9 steps on these
        assert prime_power_decomposition(q) == expected

    def test_beyond_the_exact_range(self):
        # the smallest strong pseudoprime to the first 12 prime bases
        with pytest.raises(ParameterError, match="primality range"):
            prime_power_decomposition(318_665_857_834_031_151_167_461)


class TestHadamard:
    def test_base_case(self):
        assert hadamard01(2).cells.tolist() == [[0, 0], [0, 1]]

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 16, 20, 24, 36, 40, 48, 100])
    def test_orders(self, n):
        h = hadamard01(n)
        cells = h.cells
        assert not cells[0].any() and not cells[:, 0].any()
        for i in range(n - 1):
            d = np.count_nonzero(cells[i + 1 :] != cells[i], axis=1)
            assert (d == n // 2).all()

    @pytest.mark.parametrize(
        "symbol, message",
        [(2, "column 1 holds symbol 2 but has only 2 levels"), (-1, "negative symbol")],
        ids=["2", "-1"],
    )
    def test_symbols_other_than_0_and_1_rejected(self, symbol, message):
        # both matrices are normalized with rows at distance 1 = n/2
        with pytest.raises(ParameterError, match=message):
            HadamardMatrix01(2, np.array([[0, 0], [0, symbol]]))

    def test_sylvester_orders_match_the_pm1_kronecker_powers(self):
        h = np.array([[1]])
        for m in range(9):
            assert np.array_equal(hadamard01(2**m).cells, (1 - h) // 2), 2**m
            h = np.kron(h, np.array([[1, 1], [1, -1]]))

    def test_rows_at_another_distance_rejected(self):
        # normalized, but row 3 repeats row 1: that one pair is at distance 0, not 2
        cells = hadamard01(4).cells.copy()
        cells[3] = cells[1]
        with pytest.raises(VerificationError, match="rows at Hamming distance != 2: not Hadamard"):
            HadamardMatrix01(4, cells)

    def test_no_generator_error(self):
        with pytest.raises(ParameterError, match="applicable methods"):
            hadamard01(92)  # 92 = 4 * 23; 91 and 45 are not usable orders

    def test_strength_three(self):
        # every generated order >= 4 yields a strength-3 binary scheme
        for n in (4, 8, 12, 16, 20, 24, 36):
            assert is_difference_scheme(hadamard01(n).cells, 2, 3).holds


def _generated_orders(top):
    orders = []
    for n in range(2, top + 1):
        try:
            orders.append(hadamard01(n).order)
        except ParameterError:
            continue
    return orders


class TestHadamardAsScheme:
    """`as_scheme` skips the expansion check; these tests make that check."""

    def test_strength_two_up_to_order_200(self):
        orders = _generated_orders(200)
        assert len(orders) == 45 and orders[-1] == 200
        for n in orders:
            cells = expand(hadamard01(n).as_scheme()).cells
            # every column pair takes each of (0,0), (0,1), (1,0), (1,1) n/2
            # times, counted exactly by integer matrix products
            ones = cells.T @ cells
            sums = np.diag(ones)
            assert (sums == n).all()
            off = ~np.eye(n, dtype=bool)
            both, first = ones[off], (sums[:, None] - ones)[off]
            assert (both == n // 2).all() and (first == n // 2).all()

    def test_strength_three_for_orders_4_to_36(self):
        for n in _generated_orders(36)[1:]:
            scheme = hadamard01(n).as_scheme(3)
            assert scheme.strength == 3
            assert verify_strength(expand(scheme), 3).holds

    @pytest.mark.parametrize("order, strength", [(4, 1), (4, 4), (1, 2), (2, 3)])
    def test_other_strengths_rejected(self, order, strength):
        with pytest.raises(ParameterError, match=f"no strength-{strength} scheme"):
            hadamard01(order).as_scheme(strength)


class TestDifferenceSchemes:
    def test_searched_scheme_strength3(self, scheme18):
        assert is_difference_scheme(scheme18.cells, 3, 3).holds

    def test_all_zero_matrix_rejected(self):
        assert not is_difference_scheme(np.zeros((4, 2), dtype=int), 2, 2).holds

    def test_ds_linear_small(self):
        d333 = ds_linear(3, 1)
        assert d333.cells.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
        assert is_difference_scheme(d333.cells, 3, 2).holds

    def test_ds_linear_matches_hadamard4_spectrum(self):
        lin = ds_linear(2, 2)
        spec_lin = distance_spectrum(expand(lin))
        spec_h4 = distance_spectrum(expand(hadamard01(4).as_scheme()))
        assert spec_lin.distances == spec_h4.distances
        assert spec_lin.counts == spec_h4.counts

    def test_ds_linear_gf4(self):
        scheme = ds_linear(4, 1)
        assert scheme.group.tag == "gf"
        assert is_difference_scheme(scheme.cells, 4, 2, scheme.group).holds
        # the cyclic group would NOT make this matrix a scheme
        assert not is_difference_scheme(scheme.cells, 4, 2, cyclic_group(4)).holds

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_ds_poly3(self, d):
        scheme = ds_poly3(d)
        assert scheme.rows == d * d and scheme.cols == d
        assert is_difference_scheme(scheme.cells, d, 3, scheme.group).holds

    def test_ds_poly3_rejects_even(self):
        with pytest.raises(ParameterError):
            ds_poly3(4)

    @pytest.mark.parametrize("rows, d, t", [(1, 6, 2), (2, 4, 2), (6, 2, 3), (3, 3, 3)])
    def test_divisibility_witness_matches_the_expansion(self, rows, d, t):
        # rows % d^(t-1) != 0: answered without expanding, with the report
        # verify_strength gives on the expansion built here by hand
        cells = np.arange(rows * 3).reshape(rows, 3) % d
        shifted = (cells[:, None, :] + np.arange(d)[None, :, None]) % d
        report = verify_strength(MixedArray((d,) * 3, shifted.reshape(rows * d, 3)), t)
        assert not report.holds and report.witness.symbols is None
        assert is_difference_scheme(cells, d, t) == report

    def test_out_of_range_or_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            is_difference_scheme([[0, 5]], 3, 2)
        with pytest.raises(ParameterError):
            is_difference_scheme(np.zeros((2, 0), dtype=int), 2, 2)

    def test_corrupted_scheme_rejected_at_construction(self):
        bad = np.zeros((4, 3), dtype=int)
        with pytest.raises(VerificationError):
            DifferenceScheme(bad, 2, 2, cyclic_group(2))

    @pytest.mark.parametrize("indices", [[-1], [0, 4]], ids=["negative", "past-the-end"])
    def test_select_columns_out_of_range_rejected(self, indices):
        with pytest.raises(ParameterError, match="out of range 0..3"):
            hadamard01(4).as_scheme().select_columns(indices)

    def test_square_scheme_distance_contract(self):
        # MD(D(r, r, d) (+) (d)) = r - r/d for every generated square scheme
        for n in (2, 4, 8, 12, 16, 20, 24, 36):
            md = min_distance(expand(hadamard01(n).as_scheme()))
            assert md == n - n // 2
        assert min_distance(expand(ds_linear(3, 1))) == 2
        assert min_distance(expand(ds_linear(3, 2))) == 6
        assert min_distance(expand(ds_linear(4, 1))) == 3


@pytest.mark.parametrize(
    "cells",
    # integer parts [[0, 0], [0, 1]]: a scheme and a normalized Hadamard matrix
    [np.array([[0.0, 0.0], [0.3, 1.7]]), np.array([[False, False], [False, True]])],
    ids=["float", "bool"],
)
@pytest.mark.parametrize(
    "make",
    [
        lambda cells: DifferenceScheme(cells, 2, 2, cyclic_group(2)),
        lambda cells: is_difference_scheme(cells, 2, 2),
        lambda cells: HadamardMatrix01(2, cells),
    ],
    ids=["DifferenceScheme", "is_difference_scheme", "HadamardMatrix01"],
)
def test_non_integer_cells_rejected(make, cells):
    with pytest.raises(ParameterError, match="cells must have an integer dtype"):
        make(cells)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: HadamardMatrix01(2, [[0, 1], [0, 0]]), VerificationError, "matrix is not normalized"),
        (lambda: HadamardMatrix01(2, [[0, 0, 0], [0, 1, 0]]), ParameterError, "expected 2x2 matrix"),
        (lambda: hadamard01(0), ParameterError, "order must be >= 1, got 0"),
        (
            lambda: DifferenceScheme([[0, 0], [0, 1]], 2, 2, cyclic_group(3)),
            ParameterError,
            "group order does not match scheme order",
        ),
        (
            lambda: DifferenceScheme([[0, 0], [0, 1]], 2, 1, cyclic_group(2)),
            ParameterError,
            "scheme strength tag must be >= 2",
        ),
        (
            lambda: is_difference_scheme([[0, 1]], 2, 3),
            ParameterError,
            "strength 3 exceeds column count 2",
        ),
        (lambda: ds_linear(2, 0), ParameterError, "extension count must be >= 1, got 0"),
        (lambda: repeat_rows_each(bush_oa(2, 1), 0), ParameterError, "repeat count must be >= 1"),
        (
            lambda: juxtapose_scheme_raw(bush_oa(3, 2), hadamard01(2).as_scheme()),
            ParameterError,
            "host has 9 rows but scheme has 2",
        ),
    ],
    ids=[
        "hadamard-not-normalized", "hadamard-not-square", "hadamard-order-0",
        "scheme-group-order", "scheme-strength-1", "scheme-strength-past-columns",
        "ds_linear-n-0", "repeat-0", "juxtapose-row-mismatch",
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestKroneckerAndStacking:
    def test_expansion_is_oa933(self):
        arr = expand(ds_linear(3, 1))
        assert arr.runs == 9 and arr.ncols == 3
        assert verify_strength(arr, 2).holds

    def test_kronecker_sum_zero_vector_replicates(self):
        a = MixedArray.from_rows((3, 3), [[0, 1], [2, 0]])
        zeros = MixedArray.from_rows((3,), [[0], [0]])
        out = kronecker_sum(a, zeros, cyclic_group(3))
        assert np.array_equal(out.cells, np.repeat(a.cells, 2, axis=0))
        assert repeat_rows_each(a, 2) == MixedArray(a.levels, np.repeat(a.cells, 2, 0))

    @pytest.mark.parametrize(
        "group, add",
        [
            (gf_additive_group(256), lambda x, y: naive_gf_add(x, y, 2, 8)),
            (cyclic_group(200), lambda x, y: (x + y) % 200),
        ],
        ids=["gf256", "z200"],
    )
    def test_kronecker_sum_of_narrow_cells(self, group, add):
        # stored as uint8, whose sums wrap at 256; the expected block
        # (i, j) is computed on Python ints
        rng = np.random.default_rng(group.order)
        d = group.order
        a = MixedArray((d,) * 3, rng.integers(d - 60, d, size=(4, 3)))
        b = MixedArray((d,) * 2, rng.integers(d - 60, d, size=(5, 2)))
        assert a.cells.dtype == b.cells.dtype == np.uint8
        out = kronecker_sum(a, b, group)
        expected = [
            [add(x, y) for x in row_a for y in row_b]
            for row_a in a.row_tuples()
            for row_b in b.row_tuples()
        ]
        assert out.row_tuples() == [tuple(row) for row in expected]

    @pytest.mark.parametrize("tile", [1, 700, 1 << 18])
    def test_kronecker_sum_blocks_match_one_broadcast(self, monkeypatch, tile):
        # a block of a's rows at a time, one row when a row is over the tile
        monkeypatch.setattr(algebra, "_TILE_CELLS", tile)
        rng = np.random.default_rng(tile)
        group = gf_additive_group(4)
        a = MixedArray((4,) * 5, rng.integers(0, 4, size=(37, 5)))
        b = MixedArray((4,) * 3, rng.integers(0, 4, size=(6, 3)))
        whole = group.add(a.cells[:, None, :, None], b.cells[None, :, None, :])
        out = kronecker_sum(a, b, group)
        assert out.cells.dtype == np.uint8
        assert np.array_equal(out.cells, whole.reshape(37 * 6, 15))

    def test_expanding_the_gf4_linear_scheme_stays_small(self):
        # cor2 d=4 n=5 expands the 1024 x 1024 scheme over GF(4) to 4096 x
        # 1024 cells, 4 MiB as uint8; one broadcast sum took 104 MiB
        scheme = algebra._linear_scheme(4, 5, verify=False)
        tracemalloc.start()
        try:
            arr = expand(scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.cells.shape == (4096, 1024) and arr.cells.dtype == np.uint8
        assert peak < 16 * 2**20

    def test_kronecker_sum_level_mismatch(self):
        with pytest.raises(ParameterError):
            kronecker_sum(column_vector(3), column_vector(2), cyclic_group(3))

    def test_blocks_reassemble_expansion(self, scheme18):
        # the 18 canonical blocks, each row i shifted by every group element,
        # stack back to the 54-run expansion in order
        from oakit.constructions import partition_from_scheme

        partition = partition_from_scheme(scheme18)
        parent = expand(scheme18)
        assert partition.parent == parent
        stacked = parent.cells[np.concatenate(partition.blocks)]
        assert np.array_equal(stacked, parent.cells)
        for i, block in enumerate(partition.blocks):
            shifts = (scheme18.cells[i][None, :] + np.arange(3)[:, None]) % 3
            assert np.array_equal(parent.cells[list(block)], shifts)


class TestProductConstruction:
    def test_product_of_evaluation_arrays(self):
        a = bush_oa(3, 2)           # OA(9, 4, 3, 2)
        b = bush_oa(4, 2, columns=4)
        out = product_construction(a, b)
        assert out.runs == 144 and out.levels ==(12,) * 4
        assert verify_strength(out, 2).holds
        assert min_distance(out) >= min(min_distance(a), min_distance(b))

    def test_product_with_single_row_relabels(self):
        a = bush_oa(3, 2)
        one = MixedArray((2, 2, 2, 2), np.zeros((1, 4), dtype=int))
        out = product_construction(a, one)
        assert out.runs == a.runs
        # an all-zero single-row factor only relabels symbols (a -> 2a)
        assert np.array_equal(out.cells, a.cells * 2)
        assert distance_spectrum(out).distances == distance_spectrum(a).distances

    def test_codes_above_255_from_narrow_cells(self):
        # pairs (x, y) under radices (16, 17) and (17, 16) reach codes up to 271
        rng = np.random.default_rng(5)
        a = MixedArray((16, 17), np.array([[15, 16], [14, 0], [0, 16]]))
        b = MixedArray((17, 16, 2), rng.integers(0, 2, size=(4, 3)) + [[15, 14, 0]])
        out = product_construction(a, b)
        assert a.cells.dtype == b.cells.dtype == np.uint8
        assert out.levels == (272, 272) and out.cells.dtype == np.uint16
        expected = [
            tuple(x * db + y for x, y, db in zip(row_a, row_b, (17, 16)))
            for row_a in a.row_tuples()
            for row_b in b.row_tuples()
        ]
        assert out.row_tuples() == expected and max(map(max, expected)) > 255

    def test_level_product_past_int64_is_refused(self):
        # column 0 pairs (2^23, 5) over 2^24 x 2^41 levels: its code 2^64 + 5
        # wraps to the cell 5 in int64
        a = MixedArray((1 << 24, 2), [[1 << 23, 0], [(1 << 24) - 1, 1]])
        b = MixedArray((1 << 41, 2), [[5, 0]])
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ParameterError, match="column 0 .* above the int64 range"):
                product_construction(x, y)
        # the largest level product that fits
        fits = MixedArray((1 << 22, 2), [[(1 << 22) - 1, 1]])
        top = MixedArray((1 << 41, 2), [[(1 << 41) - 1, 1]])
        out = product_construction(fits, top)
        assert out.levels == (1 << 63, 4)
        assert out.row_tuples() == [((1 << 63) - 1, 3)]

    def test_md_lower_bound_on_fixtures(self):
        pairs = [
            (bush_oa(3, 2), bush_oa(4, 2, columns=4)),
            (bush_oa(3, 2), bush_oa(5, 2, columns=4)),
        ]
        for a, b in pairs:
            out = product_construction(a, b)
            assert min_distance(out) >= min(min_distance(a), min_distance(b))
