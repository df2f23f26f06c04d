"""moa v1 round-trips and the JSON report schema."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oakit.algebra import DifferenceScheme, ds_linear, hadamard01
from oakit.arrays import (
    MixedArray,
    StrengthWitness,
    distance_spectrum,
    is_irredundant,
    verify_strength,
)
from oakit.constructions import trivial_moa
from oakit.errors import FormatError, OakitError, ParameterError, VerificationError
from oakit.formats import (
    parse_any,
    parse_array,
    serialize_array,
    serialize_hadamard,
    serialize_scheme,
    verification_report,
)


def test_canonical_layout():
    text = serialize_array(trivial_moa((2, 3)), strength=2)
    lines = text.split("\n")
    assert lines[0] == "moa v1"
    assert lines[1] == "runs 6"
    assert lines[2] == "levels 2 3"
    assert lines[3] == "strength 2"
    assert lines[4] == "rows:"
    assert text.endswith("\n") and "  " not in text


def test_round_trip_array():
    arr = trivial_moa((3, 2, 2))
    assert parse_array(serialize_array(arr)) == arr


def test_comments_allowed_before_rows():
    text = "moa v1\n# a comment\nruns 1\n# another\nlevels 2 2\nrows:\n0 1\n"
    assert parse_array(text) == MixedArray.from_rows((2, 2), [[0, 1]])


@pytest.mark.parametrize(
    "text",
    [
        "moa v2\nruns 1\nlevels 2\nrows:\n0\n",
        "moa v1\nruns 2\nlevels 2\nrows:\n0\n",          # row count mismatch
        "moa v1\nruns 1\nlevels 2\nrows:\n0 1\n",        # row width mismatch
        "moa v1\nruns 1\nlevels 2\nrows:\n 0\n",         # leading whitespace
        "moa v1\nруны 1\nlevels 2\nrows:\n0\n",          # malformed header key
        "moa v1\nruns 1\nlevels 2\n0\n",                 # missing rows:
        "moa v1\nruns 1\nlevels 2\nrows:\n+1\n",        # integers must read
        "moa v1\nruns 1\nlevels 2\nrows:\n0_0\n",       # as str(int(token))
        "moa v1\nruns 1\nlevels 2\nrows:\n\u0661\n",     # Arabic-Indic one
        "moa v1\nruns 1\nlevels 2\nrows:\n01\n",
        "moa v1\nruns 1\nlevels 2\nrows:\n-0\n",
        "moa v1\nruns +1\nlevels 2\nrows:\n0\n",
        "moa v1\nruns 1\nlevels 0_2\nrows:\n0\n",
        "moa v1\nruns 1\nlevels 2  2\nrows:\n0 0\n",
        "moa v1\nruns 1\nruns 1\nlevels 2\nrows:\n0\n",  # repeated key
        "moa v1\nruns 1\nfoo bar\nlevels 2\nrows:\n0\n",  # unknown key
        "moa v1\nruns 1\nlevels 2\nstrength banana\nrows:\n0\n",
        "moa v1\nruns 1\nlevels 2\nstrength 1 1\nrows:\n0\n",
    ],
)
def test_malformed_documents(text):
    with pytest.raises(FormatError):
        parse_array(text)


@pytest.mark.parametrize(
    "text",
    [
        "moa v1\nruns 1\nlevels 2\nrows:\n" + "9" * 20 + "\n",  # symbol past int64
        "moa v1\nruns 1\nlevels 2\nrows:\n-" + "9" * 20 + "\n",  # and below it
        "moa v1\nkind \nruns 1\nlevels 2\nrows:\n0\n",  # empty kind
        "moa v1\nkind ds x 2\nruns 1\nlevels 2\nrows:\n0\n",  # non-integer order
        "moa v1\nkind ds 2 y\nruns 1\nlevels 2\nrows:\n0\n",  # non-integer strength
        # a valid D(2, 2, 2) scheme but for a non-canonical order or strength
        "moa v1\nkind ds +2 2\nruns 2\nlevels 2 2\nrows:\n0 0\n0 1\n",
        "moa v1\nkind ds 2 0_2\nruns 2\nlevels 2 2\nrows:\n0 0\n0 1\n",
        "moa v1\nkind ds \u0662 2\nruns 2\nlevels 2 2\nrows:\n0 0\n0 1\n",
        # a hadamard document declares levels 2 on as many columns as runs
        "moa v1\nkind hadamard\nruns 2\nlevels 5 7\nrows:\n0 0\n0 1\n",
        "moa v1\nkind hadamard\nruns 2\nlevels 2\nrows:\n0\n0\n",
        "moa v1\nkind hadamard 2\nruns 2\nlevels 2 2\nrows:\n0 0\n0 1\n",
    ],
)
def test_damaged_documents_raise_format_error(text):
    with pytest.raises(FormatError):
        parse_any(text)


def test_negative_gf_order_is_a_parameter_error():
    # a negative order is no prime power; it must not reach a real root of it
    text = "moa v1\nkind ds -4 2 gf\nruns 1\nlevels -4 -4\nrows:\n0 1\n"
    with pytest.raises(ParameterError, match="not a prime power"):
        parse_any(text)


@pytest.mark.parametrize(
    "order, tag",
    [(100000, ""), (65536, " gf"), (10**12, ""), (9223372036854775783, " gf")],
)
def test_tiny_scheme_rejected_without_cost_in_its_order(order, tag):
    # the expansion of a 1 x 2 matrix has d rows over d^2 pairs; the witness
    # is verify_strength's divisibility witness on columns (0, 1); the last
    # order is the largest prime below 2^63, which trial division would take
    # minutes to recognize before the gf tag turns into mod
    text = f"moa v1\nkind ds {order} 2{tag}\nruns 1\nlevels {order} {order}\nrows:\n0 1\n"
    tracemalloc.start()
    try:
        with pytest.raises(VerificationError) as exc:
            parse_any(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    witness = StrengthWitness((0, 1), None, None, Fraction(order, order**2))
    assert str(exc.value).endswith(f"witness {witness}")


_VALID_DOCUMENTS = [
    serialize_array(trivial_moa((3, 2)), strength=2),
    serialize_scheme(ds_linear(3, 1)),
    serialize_scheme(ds_linear(4, 1)),
    serialize_hadamard(hadamard01(4)),
]
_PIECES = ["0", "1", "2", "7", "-", " ", "\n", "#", "x", "kind ", "ds ", " gf", "rows:", "9" * 20]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_documents_raise_only_oakit_errors(data):
    text = data.draw(st.sampled_from(_VALID_DOCUMENTS))
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 3))
        text = text[:pos] + data.draw(st.sampled_from(_PIECES)) + text[pos + cut :]
    try:
        parse_any(text)
    except OakitError:
        pass


def test_scheme_round_trip_cyclic():
    scheme = ds_linear(3, 1)
    text = serialize_scheme(scheme)
    assert "kind ds 3 2" in text.split("\n")[1]
    back = parse_any(text)
    assert isinstance(back, DifferenceScheme)
    assert back == scheme


def test_scheme_round_trip_gf_group():
    scheme = ds_linear(4, 1)
    text = serialize_scheme(scheme)
    assert text.split("\n")[1] == "kind ds 4 2 gf"
    back = parse_any(text)
    assert back == scheme and back.group.tag == "gf"


def test_hadamard_round_trip():
    h = hadamard01(8)
    back = parse_any(serialize_hadamard(h))
    assert back == h


def test_report_shape():
    arr = trivial_moa((2, 2, 2))
    report = verification_report(
        verify_strength(arr, 2), distance_spectrum(arr), is_irredundant(arr, 2)
    )
    assert report["schema"] == "oakit-report-v1"
    assert report["strength"] == {"k": 2, "holds": True, "lambda": 2}
    assert report["distance"]["min"] == 1
    assert report["irredundant"] == {"k": 2, "holds": False}


def test_report_witness():
    arr = MixedArray.from_rows((2, 2), [[0, 0], [0, 0], [1, 1], [1, 0]])
    report = verification_report(verify_strength(arr, 2), distance_spectrum(arr), None)
    w = report["strength"]["witness"]
    assert w["columns"] == [0, 1] and w["count"] != w["expected"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_round_trip_random(data):
    n = data.draw(st.integers(1, 5))
    levels = tuple(data.draw(st.integers(2, 5)) for _ in range(n))
    r = data.draw(st.integers(1, 10))
    cells = np.array(
        [[data.draw(st.integers(0, levels[j] - 1)) for j in range(n)] for _ in range(r)]
    )
    arr = MixedArray(levels, cells)
    assert parse_array(serialize_array(arr)) == arr
