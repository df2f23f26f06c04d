"""Juxtapositions, replacement, polynomial arrays, families, feasibility."""

import re
from itertools import combinations

import numpy as np
import pytest

from oakit.algebra import (
    column_vector,
    ds_linear,
    expand,
    hadamard01,
    juxtapose_scheme_raw,
    product_construction,
)
from oakit.arrays import (
    MixedArray,
    delete_columns,
    distance_spectrum,
    min_distance,
    select_columns,
    verify_strength,
)
from oakit.catalog import catalog_build
from oakit.constructions import (
    ConstructionCertificate,
    OrthogonalPartition,
    _juxtapose_partitions,
    bush_oa,
    bush_oa_even,
    certify,
    expansive_replace,
    five_column_feasibility,
    juxtapose_partitions,
    juxtapose_scheme,
    k_uniform_product,
    partition_from_scheme,
    three_uniform_3m2n,
    three_uniform_dm2n,
    trivial_moa,
    two_uniform_3m2n,
    two_uniform_dm2n,
    two_uniform_from_scheme,
    two_uniform_prime_power,
)
from oakit.errors import ConstructionError, ParameterError, VerificationError
from oakit.quantum import verify_k_uniform
from oracles import naive_min_distance, naive_strength


def _one_block(levels):
    """The full factorial over ``levels`` as one block of strength 1."""
    arr = trivial_moa(levels)
    return OrthogonalPartition(arr, (tuple(range(arr.runs)),))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: juxtapose_scheme(
                trivial_moa((2, 2)), hadamard01(4).as_scheme().select_columns([0, 1, 2])
            ),
            ParameterError,
            "scheme must be square",
        ),
        (
            lambda: _juxtapose_partitions(
                partition_from_scheme(ds_linear(3, 2)), partition_from_scheme(ds_linear(3, 1))
            ),
            ParameterError,
            "need u <= v, got u=9 > v=3",
        ),
        (
            lambda: _juxtapose_partitions(_one_block((2, 3)), _one_block((2, 2))),
            ParameterError,
            "expected a single-level array",
        ),
        (
            lambda: _juxtapose_partitions(_one_block((2, 2)), _one_block((2, 2))),
            ParameterError,
            "block counts must satisfy r = d * blocks",
        ),
        (
            lambda: OrthogonalPartition(trivial_moa((2,)), ((0,),)),
            ParameterError,
            "blocks do not partition the row set",
        ),
        (lambda: bush_oa(4, 2, columns=6), ParameterError, "columns must be in 1..5"),
        (lambda: bush_oa(4, 2, columns=0), ParameterError, "columns must be in 1..5"),
        (lambda: bush_oa(4, 0), ParameterError, "strength must be >= 1"),
        (lambda: trivial_moa(()), ParameterError, "levels must be a nonempty list of integers >= 2"),
        (lambda: five_column_feasibility((1, 2, 3, 5, 7)), ParameterError, "levels must all be >= 2"),
        (lambda: k_uniform_product(2, [3, 3]), ParameterError, "factors must be distinct"),
        (lambda: k_uniform_product(2, [4, 8]), ParameterError, "factors must be coprime prime powers"),
        (
            lambda: two_uniform_from_scheme(9, 4, 3),
            ParameterError,
            "built-in schemes exist only for d = 2; pass one",
        ),
        (
            lambda: two_uniform_from_scheme(12, 12, 2, scheme_keep=0),
            ParameterError,
            "scheme_keep out of range",
        ),
        (
            lambda: certify(
                bush_oa(5, 2), ConstructionCertificate("c", 2, predicted_md=4, md_exact=True)
            ),
            VerificationError,
            "c: predicted minimal distance 4 but measured 5",
        ),
        (
            lambda: certify(bush_oa(5, 2), ConstructionCertificate("c", 2, predicted_md=6)),
            VerificationError,
            "c: minimal distance bound 6 but measured 5",
        ),
    ],
    ids=[
        "juxtapose-non-square-scheme", "partitions-u-above-v", "partitions-mixed-levels",
        "partitions-block-count", "partition-missing-row", "bush-columns-past-q+1",
        "bush-columns-0", "bush-strength-0", "trivial-no-levels", "feasibility-level-1",
        "product-repeated-factor", "product-non-coprime", "from-scheme-built-in-d-3",
        "from-scheme-keep-0", "certify-exact-distance", "certify-distance-bound",
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestJuxtaposeScheme:
    def test_24x17_family_base(self, moa12, h12):
        arr, cert = juxtapose_scheme(moa12, h12.as_scheme())
        assert arr.runs == 24 and arr.ncols == 17
        assert arr.profile() == "3^1 2^16"
        assert verify_strength(arr, 2).holds
        assert min_distance(arr) == cert.predicted_md

    def test_predicted_distance_is_exact_on_pairs(self, moa12, h12):
        pairs = [
            (moa12, h12.as_scheme()),
            (trivial_moa((2, 2)), hadamard01(4).as_scheme()),
            (bush_oa(3, 2), ds_linear(3, 2)),
        ]
        for host, scheme in pairs:
            arr, cert = juxtapose_scheme(host, scheme)
            assert min_distance(arr) == cert.predicted_md == min(
                host.runs, min_distance(host) + host.runs - host.runs // scheme.order
            )

    def test_host_check_and_distance_from_one_split_pass(self, moa12, h12, split_passes):
        juxtapose_scheme(moa12, h12.as_scheme())
        assert split_passes == [moa12]

    def test_degenerate_host_rejected(self):
        host = MixedArray.from_rows((2,), [[0], [0]])  # strength 2 impossible
        with pytest.raises(ParameterError):
            juxtapose_scheme(host, hadamard01(2).as_scheme())

    def test_row_mismatch(self, h12):
        with pytest.raises(ParameterError):
            juxtapose_scheme(trivial_moa((2, 2)), h12.as_scheme())


class TestPartitions:
    def test_canonical_partition_of_small_scheme(self):
        partition = partition_from_scheme(ds_linear(3, 1))
        assert partition.block_count == 3
        assert partition.blocks[0] == (0, 1, 2)

    def test_searched_scheme_partition(self, scheme18):
        partition = partition_from_scheme(scheme18)
        assert partition.block_count == 18

    def test_invalid_partition_rejected(self):
        arr = trivial_moa((2, 2))
        with pytest.raises(VerificationError):
            OrthogonalPartition(arr, ((0, 1), (2, 3)))  # blocks not strength 1

    def test_unequal_blocks_rejected(self):
        arr = trivial_moa((2,))
        with pytest.raises(ParameterError):
            OrthogonalPartition(arr, ((0,), (1,), ()))

    def test_first_failing_block_and_column_named(self):
        # rows 2 and 3 agree on column 1, every other pair below is balanced;
        # the second partition lists blocks and rows out of row order
        arr = MixedArray.from_rows(
            (2, 2), [[0, 0], [1, 1], [0, 1], [1, 1], [0, 1], [1, 0]]
        )
        for blocks in (((0, 1), (2, 3), (4, 5)), ((5, 4), (3, 2), (1, 0))):
            with pytest.raises(VerificationError, match="^block 1 fails .* column 1$"):
                OrthogonalPartition(arr, blocks)
        # block 2 also fails, on column 0: block-major order still names block 1
        arr = MixedArray.from_rows(
            (2, 2), [[0, 0], [1, 1], [0, 1], [1, 1], [0, 0], [0, 1]]
        )
        with pytest.raises(VerificationError, match="^block 1 fails .* column 1$"):
            OrthogonalPartition(arr, ((0, 1), (2, 3), (4, 5)))

    def test_level_not_dividing_block_size_rejected(self):
        arr = trivial_moa((2, 3))
        with pytest.raises(VerificationError, match="block size 3 not divisible by level 2"):
            OrthogonalPartition(arr, ((0, 1, 2), (3, 4, 5)))


class TestJuxtaposePartitions:
    def test_u_equals_v_case(self, scheme18):
        a = expand(scheme18)
        b = expand(scheme18)
        pa = partition_from_scheme(scheme18)
        pb = partition_from_scheme(scheme18)
        out, cert = juxtapose_partitions(pa, pb)
        assert out.runs == 3 * 3 * 18 and out.ncols == 10
        assert cert.predicted_md == min(
            min_distance(a) + min_distance(b), 5, 5
        )
        assert min_distance(out) >= cert.predicted_md
        assert verify_strength(out, 3).holds

    def test_block_order_behaviour(self, scheme18):
        # reordering BOTH partitions by the same permutation is a row
        # permutation; reordering one side still keeps the claimed strength
        # and distance bound, even though the pairing of blocks changes
        a = expand(scheme18)
        pa = partition_from_scheme(scheme18)
        blocks = list(pa.blocks)
        blocks[0], blocks[1] = blocks[1], blocks[0]
        pa_swapped = OrthogonalPartition(a, tuple(blocks))
        out1, _ = juxtapose_partitions(pa, pa)
        out_two_sided, _ = juxtapose_partitions(pa_swapped, pa_swapped)
        assert sorted(map(tuple, out1.cells.tolist())) == sorted(
            map(tuple, out_two_sided.cells.tolist())
        )
        out_one_sided, cert = juxtapose_partitions(pa_swapped, pa)
        assert verify_strength(out_one_sided, 3).holds
        assert min_distance(out_one_sided) >= cert.predicted_md
        assert (
            distance_spectrum(out_one_sided).distances
            == distance_spectrum(out1).distances
        )

    def test_strength_preconditions_enforced(self):
        weak = expand(ds_linear(3, 1))  # strength 2 only
        partition = partition_from_scheme(ds_linear(3, 1))
        assert partition.parent == weak
        with pytest.raises(ParameterError, match="strength-3 precondition"):
            juxtapose_partitions(partition, partition)

    def test_row_order_repeats_left_rows_and_tiles_right_blocks(self):
        # u = 2 blocks of 2 binary rows against v = 3 blocks of 3 ternary
        # rows: h = 6, so A's block stack appears 3 times with each row
        # repeated d'' = 3 times, and B's twice with each block tiled d' = 2
        # times; blocks and rows are gathered in the partitions' order
        from oakit.constructions import _juxtapose_partitions

        pa = partition_from_scheme(ds_linear(2, 1))
        b = expand(ds_linear(3, 1))
        pb = OrthogonalPartition(b, ((5, 3, 4), (0, 2, 1), (8, 7, 6)))
        out, cert = _juxtapose_partitions(pa, pb)
        left = [i for _ in range(3) for blk in pa.blocks for i in blk for _ in range(3)]
        right = [i for _ in range(2) for blk in pb.blocks for _ in range(2) for i in blk]
        assert out.runs == 36 and "incomparable" in cert.md_formula
        assert np.array_equal(out.cells, np.hstack([pa.parent.cells[left], b.cells[right]]))


class TestExpansiveReplace:
    def test_identity_replacement(self, moa12):
        out, _ = expansive_replace(moa12, {0: column_vector(3)}, 2)
        assert out == moa12

    def test_table3_special_array(self, moa12):
        arr, cert = two_uniform_from_scheme(12, 12, 2, replacement=moa12, scheme_keep=4)
        assert arr.runs == 24 and arr.profile() == "3^1 2^8"
        assert cert.verified and cert.measured_md >= 3
        assert verify_k_uniform(arr, 2).holds

    def test_product_replacement_at_144_runs(self):
        host = product_construction(bush_oa(3, 2), bush_oa(4, 2, columns=4))
        out, cert = expansive_replace(host, {0: trivial_moa((4, 3))}, 2)
        assert out.profile() == "12^3 4^1 3^1"
        assert verify_strength(out, 2).holds and min_distance(out) >= 3
        assert verify_k_uniform(out, 2).holds
        assert cert.predicted_md == 3  # certified via the distance conditions

    def test_strength_preserved_by_oracle(self, moa12):
        # replace the ternary column of the 12-run seed by a 3-row factorial
        rep = MixedArray.from_rows((3,), [[0], [1], [2]])
        out, _ = expansive_replace(moa12, {0: rep}, 2)
        assert verify_strength(out, 2).holds

    def test_run_count_mismatch(self, moa12):
        with pytest.raises(ParameterError):
            expansive_replace(moa12, {0: trivial_moa((2, 2))}, 2)
        with pytest.raises(ParameterError, match="out of range"):
            expansive_replace(moa12, {5: column_vector(2)}, 2)

    def test_empty_plan_rejected(self, moa12):
        with pytest.raises(ParameterError):
            expansive_replace(moa12, {}, 2)


class TestPolynomialArrays:
    def test_small_case(self):
        arr = bush_oa(3, 2)
        assert arr.runs == 9 and arr.ncols == 4
        assert verify_strength(arr, 2).holds and min_distance(arr) == 3

    def test_q7_k4(self):
        arr = bush_oa(7, 4)
        assert arr.runs == 2401 and arr.ncols == 8
        assert verify_strength(arr, 4).holds
        assert min_distance(arr) == 5

    def test_precondition(self):
        with pytest.raises(ParameterError):
            bush_oa(2, 2)  # q < 2k - 1
        with pytest.raises(ParameterError):
            bush_oa(6, 2)  # not a prime power

    @pytest.mark.parametrize(
        "q,k",
        [(q, k) for q in (2, 3, 4, 5, 7, 8, 9, 11) for k in (1, 2, 3, 4) if q >= 2 * k - 1],
    )
    def test_distance_is_mds(self, q, k):
        arr = bush_oa(q, k)
        assert min_distance(arr) == q + 2 - k
        assert verify_strength(arr, k).holds

    def test_truncation_builds_only_the_kept_columns(self):
        # the full 4099 x 4100 array is over the cell cap; two columns are not
        arr = bush_oa(4099, 1, columns=2)
        assert (arr.cells == np.arange(4099)[:, None]).all()
        assert bush_oa(7, 3, columns=5) == select_columns(bush_oa(7, 3), range(5))
        with pytest.raises(ParameterError, match="cap"):
            bush_oa(4099, 1)

    def test_even_extension(self):
        arr = bush_oa_even(4)
        assert arr.runs == 64 and arr.ncols == 6
        assert verify_strength(arr, 3).holds and min_distance(arr) == 4

    @pytest.mark.parametrize("q", [4, 16])
    def test_even_extension_is_checked_in_one_split_pass(self, q, split_passes):
        arr = bush_oa_even(q)
        assert split_passes == [arr]

    def test_even_extension_rejects_odd(self):
        with pytest.raises(ParameterError):
            bush_oa_even(5)


class TestTrivialMoa:
    def test_56_run_factorial(self):
        arr = trivial_moa((7, 4, 2))
        assert arr.runs == 56
        report = verify_strength(arr, 3)
        assert report.holds and report.index == 1

    def test_single_column(self):
        assert trivial_moa((2,)) == column_vector(2)

    def test_cell_cap_checked_before_allocating(self):
        # 2^40 runs of 2 columns: 16 TiB of int64 cells
        with pytest.raises(ParameterError, match="cap"):
            trivial_moa((1 << 20, 1 << 20))


class TestFeasibility:
    @pytest.mark.parametrize(
        "levels",
        [(3, 2, 2, 2, 2), (2, 2, 3, 3, 3), (5, 5, 5, 2, 3), (2, 3, 5, 7, 11)],
    )
    def test_impossible_patterns(self, levels):
        verdict = five_column_feasibility(levels)
        assert verdict.impossible

    def test_exception_clause(self):
        verdict = five_column_feasibility((2, 3, 3, 3, 3))
        assert not verdict.impossible

    def test_hypothesis_unmet(self):
        assert not five_column_feasibility((2, 2, 2, 2, 2)).impossible
        assert "hypothesis" in five_column_feasibility((2, 4, 4, 4, 4)).reason

    def test_wrong_arity(self):
        with pytest.raises(ParameterError):
            five_column_feasibility((2, 3, 5))


class TestFamilies:
    @pytest.mark.parametrize("n", [8, 9, 12, 16, 17, 20, 40])
    def test_two_uniform_3_2n_sweep(self, n):
        arr, cert = two_uniform_3m2n(1, n)
        assert arr.profile() == f"3^1 2^{n}"
        assert cert.verified and cert.measured_md >= 3
        assert verify_strength(arr, 2).holds

    def test_two_uniform_m2(self):
        arr, cert = two_uniform_3m2n(2, 21)
        assert arr.profile() == "3^2 2^21" and cert.measured_md >= 3

    def test_caller_host_checked_and_trimmed(self):
        from oakit.catalog import seed_array

        with pytest.raises(ParameterError, match="over levels 3 and 2"):
            two_uniform_3m2n(1, 9, host=trivial_moa((4, 2)))
        with pytest.raises(ParameterError, match="over levels 5 and 2"):
            two_uniform_dm2n(5, 1, 9, host=trivial_moa((4, 2)))
        # the 36-run host over 3^2 2^2 loses its second ternary column
        arr, cert = two_uniform_3m2n(1, 21, host=seed_array("moa-36-3^2x2^2"))
        assert arr.profile() == "3^1 2^21" and cert.seeds == ("caller-host",)

    @pytest.mark.parametrize("n", [9, 21])
    def test_caller_host_with_its_ternary_column_inside(self, n):
        # the host's ternary column sits between its binary ones; it used to
        # be deleted as an inherited binary column, leaving 24 x 10 over 2^10
        arr, cert = two_uniform_3m2n(1, n, host=trivial_moa((2, 3, 2)))
        assert arr.profile() == f"3^1 2^{n}" and arr.levels[0] == 3
        assert cert.verified and cert.seeds == ("caller-host",) and cert.measured_md >= 3
        assert verify_strength(arr, 2).holds

    def test_d4_family(self):
        arr, cert = two_uniform_dm2n(4, 1, 7)
        assert arr.profile() == "4^1 2^7" and cert.measured_md >= 3
        arr, cert = two_uniform_dm2n(4, 1, 12)
        assert arr.profile() == "4^1 2^12" and cert.measured_md >= 3

    def test_tight_caller_host_deletes_within_budget(self):
        # A strength-2 host of r runs over d^m 2^b with minimal distance w
        # has b <= w + r/2 - 1 - m*d/2.  This 16-run host over 4^1 2^6 meets
        # it with w = 1: rows (s, z), s the 4-level symbol and z in GF(2)^2,
        # read f.z + e in binary column c, with (f, e) from the tables by s,
        # and rows (0, z) and (1, z) differ only in the 4-level column.
        # Its one stage has distance min(r, w + r/2) = 9, so its budget 6
        # is every inherited column, and each n >= r deletes within it.
        f = [(1, 1, 1, 1)] * 2 + [(2, 2, 1, 1)] * 2 + [(3, 3, 2, 2)] * 2
        e = [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 1, 1)]
        rows = [
            [s] + [(bin(fc[s] & z).count("1") + ec[s]) % 2 for fc, ec in zip(f, e)]
            for s in range(4)
            for z in range(4)
        ]
        host = MixedArray.from_rows((4,) + (2,) * 6, rows)
        assert naive_strength(rows, host.levels, 2) and naive_min_distance(rows, 7) == 1
        for n in range(16, 23):
            arr, cert = two_uniform_dm2n(4, 1, n, host=host)
            assert cert.notes == (f"any-within-budget deletion of the last {22 - n} binary columns",)
            out = arr.row_tuples()
            assert naive_strength(out, arr.levels, 2) and naive_min_distance(out, n + 1) >= 3

    def test_m3_built_in_host(self):
        # the 108-run full factorial over 3^3 2^2 doubles once, to 216 runs
        with pytest.raises(ParameterError, match="needs >= 57"):
            two_uniform_3m2n(3, 56)
        arr, cert = two_uniform_3m2n(3, 57)
        assert arr.runs == 216 and arr.profile() == "3^3 2^57"
        assert cert.seeds == ("moa-108-3^3x2^2",) and cert.measured_md == 22

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: two_uniform_3m2n(1, 7), "needs >= 9"),
            (lambda: two_uniform_3m2n(0, 9), "need m >= 1"),
            (lambda: two_uniform_3m2n(4, 30), "no built-in host for d = 3, m = 4"),
            (lambda: two_uniform_dm2n(3, 1, 9), "use the 3\\^m 2\\^n builder for d <= 3"),
            (lambda: two_uniform_dm2n(4, 2, 9), "no built-in host for d = 4, m = 2"),
            (lambda: two_uniform_dm2n(5, 1, 9), "no built-in host for d = 5, m = 1"),
            (lambda: two_uniform_dm2n(4, 0, 9, host=trivial_moa((2, 2))), "need m >= 1"),
        ],
        ids=[
            "3m2n-1-7", "3m2n-0-9", "3m2n-4-30", "dm2n-3-1-9", "dm2n-4-2-9", "dm2n-5-1-9",
            "dm2n-4-0-9",
        ],
    )
    def test_out_of_range(self, call, message):
        with pytest.raises(ParameterError, match=message):
            call()

    def test_three_uniform_small(self, thm3_full):
        arr, cert = thm3_full
        assert arr.runs == 216 and arr.profile() == "3^5 2^36"
        assert cert.verified and cert.measured_md >= 4

    def test_three_uniform_m4(self):
        arr, cert = three_uniform_3m2n(4, 22)
        assert arr.profile() == "3^4 2^22"
        assert cert.measured_md >= 4
        assert verify_k_uniform(arr, 3).holds

    def test_three_uniform_gap_value(self):
        # 37 falls between the order-36 and order-72 guarantees
        arr, cert = three_uniform_3m2n(5, 37)
        assert arr.profile() == "3^5 2^37"
        assert cert.measured_md >= 4

    def test_three_uniform_five_levels(self):
        from oakit.constructions import three_uniform_dm2n

        arr, cert = three_uniform_dm2n(5, 4, 54)
        assert arr.runs == 1000 and arr.profile() == "5^4 2^54"
        assert cert.verified and cert.measured_md >= 4

    def test_three_uniform_five_levels_range_errors(self):
        from oakit.constructions import three_uniform_dm2n

        with pytest.raises(ParameterError):
            three_uniform_dm2n(4, 4, 40)  # even
        with pytest.raises(ParameterError):
            three_uniform_dm2n(5, 3, 54)  # m below 4
        with pytest.raises(ParameterError):
            three_uniform_dm2n(5, 4, 50)  # below 2 d^2 + 4

    def test_three_uniform_range_errors(self):
        with pytest.raises(ParameterError):
            three_uniform_3m2n(3, 36)
        with pytest.raises(ParameterError):
            three_uniform_3m2n(5, 16)

    def test_product_family(self):
        arr, cert = k_uniform_product(2, (3, 4), plan=[(3, (4, 3))])
        assert arr.profile() == "12^3 4^1 3^1"
        assert cert.verified and cert.measured_md >= 3
        assert verify_k_uniform(arr, 2).holds

    def test_product_family_base_distance_exact(self):
        arr, cert = k_uniform_product(2, (3, 4))
        assert arr.levels == (12, 12, 12, 12)
        assert cert.measured_md == 3 == cert.predicted_md

    def test_product_family_rejects_small_factor(self):
        with pytest.raises(ParameterError):
            k_uniform_product(2, (2, 3))  # 2 < 2k - 1

    def test_product_family_rejects_bad_factor_lists_and_plans(self):
        with pytest.raises(ParameterError, match="at least one factor"):
            k_uniform_product(2, [])
        with pytest.raises(ParameterError, match="column twice"):
            k_uniform_product(2, (3, 4), plan=[(3, (4, 3)), (3, (3, 4))])

    def test_scheme_family_8_runs(self):
        arr, cert = two_uniform_from_scheme(4, 4, 2)
        assert arr.runs == 8 and arr.profile() == "4^1 2^4"
        assert cert.measured_md == 3

    def test_scheme_of_another_order_rejected(self):
        # a 9 x 9 scheme over GF(3) is no D(9, 9, 7)
        with pytest.raises(ParameterError, match="order 3, not d = 7"):
            two_uniform_from_scheme(9, 9, 7, scheme=ds_linear(3, 2))

    @pytest.mark.parametrize(
        "args, scheme",
        [((12, -1, 2), None), ((4, 5, 2), None), ((9, 12, 3), ds_linear(3, 2))],
        ids=["negative", "past-hadamard-order", "past-scheme-columns"],
    )
    def test_scheme_columns_out_of_range_rejected(self, args, scheme):
        # M = -1 used to slice off the last Hadamard column and build
        with pytest.raises(ParameterError, match="scheme columns, got"):
            two_uniform_from_scheme(*args, scheme=scheme)

    def test_scheme_family_replacement_profile(self):
        arr, _ = two_uniform_from_scheme(12, 12, 2, replacement=trivial_moa((6, 2)))
        assert arr.profile() == "6^1 2^13"

    @pytest.mark.parametrize(
        "columns, profile, md", [(8, "12^1 2^8", 3), (11, "12^1 2^11", 6)]
    )
    def test_scheme_family_keeps_a_prefix_of_the_hadamard_scheme(self, columns, profile, md):
        arr, cert = two_uniform_from_scheme(12, columns, 2)
        assert (arr.runs, arr.profile(), cert.measured_md) == (24, profile, md)
        assert np.array_equal(arr.cells, two_uniform_from_scheme(12, 12, 2)[0].cells[:, : columns + 1])

    def test_scheme_family_prefix_too_short_to_be_irredundant(self):
        with pytest.raises(VerificationError, match=r"not irredundant at k=2 \(minimal distance 1\)"):
            two_uniform_from_scheme(12, 4, 2)

    def test_caller_binary_scheme_recorded_as_the_callers(self):
        # only the Hadamard scheme the builder makes itself is "hadamard-N"
        arr, cert = two_uniform_from_scheme(8, 8, 2, scheme=ds_linear(2, 3))
        assert cert.seeds == ("scheme-8x8-over-2",)
        assert two_uniform_from_scheme(8, 8, 2)[1].seeds == ("hadamard-8",)
        assert np.array_equal(arr.cells, two_uniform_prime_power(2, 3)[0].cells)

    def test_prime_power_family(self):
        arr, cert = two_uniform_prime_power(2, 3, replacement=trivial_moa((4, 2)))
        assert arr.profile() == "4^1 2^9" and cert.measured_md >= 3
        assert verify_k_uniform(arr, 2).holds
        assert cert.construction == "two_uniform_prime_power(d=2, n=3)"
        assert cert.seeds == ("linear-scheme d=2 n=3",) and cert.notes == ()

    def test_prime_power_verification_failure_names_cor2(self):
        # D(2, 2, 2) expands to runs two apart: strength 2 holds, irredundancy does not
        with pytest.raises(
            VerificationError,
            match=r"^two_uniform_prime_power\(d=2, n=1\): output is not irredundant at k=2",
        ):
            two_uniform_prime_power(2, 1)

    def test_prime_power_replacement_failing_strength_2_rejected_before_building(
        self, monkeypatch
    ):
        import oakit.constructions

        def refuse(*args):
            raise AssertionError("built the juxtaposition")

        monkeypatch.setattr(oakit.constructions, "juxtapose_scheme_raw", refuse)
        # distinct rows, but the second column never takes the symbols 2 and 3
        rows = [(a, b) for a in range(4) for b in range(2)]
        replacement = MixedArray.from_rows((4, 4), rows)
        with pytest.raises(ParameterError, match="replacement fails the strength-2 precondition"):
            two_uniform_prime_power(2, 3, replacement=replacement)


class TestVerifyOnce:
    """Intermediates are not re-checked; `certify` on the output is the check."""

    @staticmethod
    def _count_checks(monkeypatch, modules):
        """(array, k) of every strength check that ``modules`` make: ``verify_strength``
        calls and the split passes of `certify` and the other constructions
        (``_strength_and_spectrum``), which check strength too."""
        import oakit.arrays
        import oakit.constructions

        calls = []

        def counted(check):
            def counting(array, k):
                calls.append((array, k))
                return check(array, k)

            return counting

        for module in modules:
            monkeypatch.setattr(module, "verify_strength", counted(verify_strength))
        split = counted(oakit.arrays._strength_and_spectrum)
        monkeypatch.setattr(oakit.constructions, "_strength_and_spectrum", split)
        return calls

    @pytest.mark.parametrize(
        "build",
        [
            lambda: catalog_build("thm3/3^5x2^36"),
            lambda: three_uniform_dm2n(5, 4, 54),
        ],
        ids=["thm3/3^5x2^36", "three_uniform_dm2n(5,4,54)"],
    )
    def test_one_strength_check_per_build(self, build, monkeypatch):
        import oakit.constructions

        calls = self._count_checks(monkeypatch, [oakit.constructions])
        arr, cert = build()
        assert len(calls) == 1
        assert calls[0][0] is arr and calls[0][1] == 3 and cert.verified

    def test_bad_intermediate_fails_certify(self):
        from oakit.algebra import DifferenceScheme
        from oakit.constructions import _three_uniform_pipeline

        weak = ds_linear(3, 2)  # strength 2 only, tagged 3 without a check
        tagged = DifferenceScheme(weak.cells, weak.order, 3, weak.group, verify=False)
        with pytest.raises(VerificationError, match="strength 3 oracle failed"):
            _three_uniform_pipeline(tagged, 4, 22, 36, "weak left factor", ())

    def test_certify_reads_runs_and_profile_from_the_array(self):
        claimed = ConstructionCertificate(construction="x", runs=999, profile="7^3", strength=2)
        cert = certify(bush_oa(5, 2), claimed)
        assert cert.verified and (cert.runs, cert.profile) == (25, "5^6")

    @pytest.mark.parametrize("entry_id", ["thm1/3^2x2^21", "thm2/4^1x2^7"])
    def test_hadamard_host_builds_check_strength_once(self, entry_id, monkeypatch):
        import oakit.algebra
        import oakit.constructions

        catalog_build(entry_id)  # warm the seeds: their checks on load are not counted
        calls = self._count_checks(monkeypatch, [oakit.algebra, oakit.constructions])
        _, cert = catalog_build(entry_id)
        assert [k for _, k in calls] == [2] and cert.verified

    def test_linear_scheme_build_checks_strength_once(self, monkeypatch):
        # `construct cor2`: the linear scheme is covered by the output's check
        import oakit.algebra
        import oakit.constructions

        calls = self._count_checks(monkeypatch, [oakit.algebra, oakit.constructions])
        _, cert = two_uniform_prime_power(4, 2)
        assert [k for _, k in calls] == [2] and cert.verified

    def test_group_chain_compares_no_row_pairs(self, monkeypatch):
        # expansive_replace measures its host's distance again after
        # bush_oa_even has; on these group arrays no pair is compared
        import oakit.arrays

        calls = []

        def counting(array, groups):
            calls.append(array.cells.shape)
            return pair_counts(array, groups)

        pair_counts = oakit.arrays._pair_counts
        monkeypatch.setattr(oakit.arrays, "_pair_counts", counting)
        host = bush_oa_even(4)
        out, cert = expansive_replace(host, {5: trivial_moa((2, 2))}, 3)
        cert = certify(out, cert)
        assert calls == []
        assert cert.verified and cert.measured_md == min_distance(out) == 4

    def test_replacement_with_other_than_n_rows_rejected(self):
        with pytest.raises(ParameterError, match="4 rows, not N = 12"):
            two_uniform_from_scheme(12, 12, 2, replacement=trivial_moa((2, 2)))

    def test_replacement_failing_strength_2_rejected(self):
        column = np.repeat([0, 1], 6)[:, None]
        twin = MixedArray((2, 2), np.hstack([column, column]))  # pairs (0,1) never occur
        with pytest.raises(ParameterError, match="replacement fails the strength-2 precondition"):
            two_uniform_from_scheme(12, 12, 2, replacement=twin)

    def test_caller_host_failing_strength_2_rejected(self, moa12):
        cells = moa12.cells.copy()
        cells[0, 1] ^= 1  # one flipped binary cell unbalances a column pair
        host = MixedArray(moa12.levels, cells)
        assert not verify_strength(host, 2).holds
        with pytest.raises(ParameterError, match="strength-2 precondition"):
            two_uniform_3m2n(1, 9, host=host)


class TestDeletionGuarantee:
    def test_any_deletion_within_budget_keeps_irredundancy(self, moa12, h12):
        arr, _ = juxtapose_scheme(moa12, h12.as_scheme())
        budget = min_distance(arr) - 3  # = 4
        assert budget == 4
        two_level = [j for j, d in enumerate(arr.levels) if d == 2]
        rng = np.random.default_rng(3)
        for _ in range(60):  # random sampling of 4-subsets of binary columns
            drop = rng.choice(two_level, size=budget, replace=False)
            out = delete_columns(arr, drop.tolist())
            assert min_distance(out) >= 3
        for drop in combinations(two_level[:8], budget):  # exhaustive corner
            assert min_distance(delete_columns(arr, drop)) >= 3
