"""Mixed-radix digits and the digit groups, against the enumeration oracle."""

from itertools import islice
from math import prod

import numpy as np
import pytest

import oakit.groups
from oakit.algebra import FiniteField
from oakit.constructions import trivial_moa
from oakit.errors import ParameterError
from oakit.groups import (
    FIELD_ORDER_CAP,
    AdditiveGroup,
    add_digits,
    cyclic_group,
    decode,
    encode,
    gf_additive_group,
    place_values,
    sub_digits,
)
from oracles import naive_codes

SEEDS = range(6)


def _radices(rng, below: int, largest: int) -> tuple[int, ...]:
    """Random radices from 2 to ``largest`` whose product stays below ``below``."""
    radices = []
    while True:
        d = int(rng.integers(2, largest + 1))
        if prod(radices) * d >= below:
            return tuple(radices) or (d,)
        radices.append(d)


class TestMixedRadix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_small_products_match_the_enumeration(self, seed):
        radices = _radices(np.random.default_rng(seed), 1 << 12, 9)
        tuples = list(naive_codes(radices))
        assert len(tuples) == prod(radices)
        # Python ints
        assert [encode(t, radices) for t in tuples] == list(range(len(tuples)))
        assert [decode(c, radices) for c in range(len(tuples))] == tuples
        # numpy arrays: one array per digit, most significant first
        columns = decode(np.arange(len(tuples)), radices)
        assert np.stack(columns, axis=1).tolist() == [list(t) for t in tuples]
        assert encode(columns, radices).tolist() == list(range(len(tuples)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_large_products_match_the_enumeration_and_round_trip(self, seed):
        rng = np.random.default_rng(100 + seed)
        radices = _radices(rng, 1 << 62, 1 << 12)
        total = prod(radices)
        # the first codes against the enumeration, on ints and on an array
        head = list(islice(naive_codes(radices), 1000))
        assert [decode(c, radices) for c in range(len(head))] == head
        assert np.stack(decode(np.arange(len(head)), radices), axis=1).tolist() == [
            list(t) for t in head
        ]
        # random codes: code order is lexicographic digit order, and encoding
        # undoes decoding, on Python ints and on int64 arrays
        codes = sorted({int(c) for c in rng.integers(0, total, 500)} | {0, total - 1})
        digits = [decode(c, radices) for c in codes]
        assert digits == sorted(digits)
        assert digits[-1] == tuple(d - 1 for d in radices)
        assert all(0 <= x < d for t in digits for x, d in zip(t, radices))
        assert [encode(t, radices) for t in digits] == codes
        array = np.array(codes, dtype=np.int64)
        columns = decode(array, radices)
        assert np.stack(columns, axis=1).tolist() == [list(t) for t in digits]
        assert encode(columns, radices).tolist() == codes

    def test_narrow_digits_widen_before_the_arithmetic(self):
        # each of these wraps in uint8, whose dtype NumPy keeps through the
        # arithmetic on two uint8 arrays or one and a Python int
        high = np.array([255, 200, 0], dtype=np.uint8)
        low = np.array([255, 3, 1], dtype=np.uint8)
        assert encode((high, low), (256, 256)).tolist() == [65535, 51203, 1]
        assert encode((high, low), np.array([256, 256])).tolist() == [65535, 51203, 1]
        assert decode(np.uint16(51203), (256, 256)) == (200, 3)
        assert add_digits(high, low, (256,)).tolist() == [254, 203, 1]
        assert add_digits(high, low, (16, 16)).tolist() == [238, 203, 1]
        assert sub_digits(low, high, (256,)).tolist() == [0, 59, 1]
        assert sub_digits(low, high, (2,) * 8).tolist() == [0, 203, 1]

    def test_place_values(self):
        assert place_values((4, 3, 2)) == (6, 2, 1)
        assert place_values((5,)) == (1,)
        assert place_values(()) == ()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trivial_moa_rows_are_the_enumeration(self, seed):
        levels = _radices(np.random.default_rng(200 + seed), 1 << 12, 7)
        assert trivial_moa(levels).row_tuples() == list(naive_codes(levels))


class TestDigitGroups:
    @pytest.mark.parametrize("radices", [(6,), (2, 2, 2), (3, 3), (2, 2, 2, 3, 3), (4, 3, 5)])
    def test_add_and_sub_are_digit_wise(self, radices):
        tuples = list(naive_codes(radices))
        a = np.arange(len(tuples))
        sums = add_digits(a[:, None], a[None, :], radices)
        diffs = sub_digits(a[:, None], a[None, :], radices)
        for x, s in enumerate(tuples):
            for y, t in enumerate(tuples):
                assert tuples[sums[x, y]] == tuple((u + v) % d for u, v, d in zip(s, t, radices))
                assert tuples[diffs[x, y]] == tuple((u - v) % d for u, v, d in zip(s, t, radices))
        assert add_digits(3, 5, radices) == sums[3, 5]
        assert sub_digits(3, 5, radices) == diffs[3, 5]

    def test_radices(self):
        assert cyclic_group(12).radices == (12,)
        assert gf_additive_group(8).radices == (2, 2, 2)
        assert gf_additive_group(9).radices == (3, 3)
        assert gf_additive_group(7).radices == (7,) and gf_additive_group(7).tag == "mod"
        assert repr(gf_additive_group(9)) == "AdditiveGroup(order=9, tag='gf')"

    def test_add_and_sub_never_factor_the_order(self, monkeypatch):
        groups = [cyclic_group(10), gf_additive_group(27), gf_additive_group(64)]

        def refuse(q):
            raise AssertionError(f"factored {q} again")

        monkeypatch.setattr(oakit.groups, "prime_power_decomposition", refuse)
        for group in groups:
            x = np.arange(group.order)
            assert group.sub(group.add(x, x[::-1]), x[::-1]).tolist() == x.tolist()
            assert group.add(3, 4) == group.add(np.int64(3), 4)

    @pytest.mark.parametrize(
        "make", [FiniteField, gf_additive_group, lambda q: AdditiveGroup(q, "gf")]
    )
    def test_one_field_order_cap(self, make):
        assert FIELD_ORDER_CAP == 1 << 16
        make(FIELD_ORDER_CAP)  # 2^16 itself is allowed
        with pytest.raises(ParameterError, match=r"field order 131072 exceeds 2\^16"):
            make(2 * FIELD_ORDER_CAP)
