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
from oakit.constructions import bush_oa, trivial_moa
from oakit.errors import FormatError, OakitError, ParameterError, VerificationError
from oakit.formats import (
    _read_rows,
    parse_any,
    parse_array,
    serialize_array,
    serialize_hadamard,
    serialize_scheme,
    verification_report,
)

from oracles import line_parse_any


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


_MALFORMED = [
    "moa v2\nruns 1\nlevels 2\nrows:\n0\n",
    "moa v1\nruns 2\nlevels 2\nrows:\n0\n",          # row count mismatch
    "moa v1\nruns 1\nlevels 2\nrows:\n0 1\n",        # row width mismatch
    "moa v1\nruns 1\nlevels 2\nrows:\n 0\n",         # leading whitespace
    "moa v1\nруны 1\nlevels 2\nrows:\n0\n",          # malformed header key
    "moa v1\nruns 1\nlevels 2\n0\n",                 # missing rows:
    "moa v1\nruns 1\nlevels 2\n",                    # missing rows: after good headers
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
]


@pytest.mark.parametrize("text", _MALFORMED)
def test_malformed_documents(text):
    with pytest.raises(FormatError):
        parse_array(text)


_DAMAGED = [
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
    # a ds document's levels all equal its order
    "moa v1\nkind ds 2 2\nruns 2\nlevels 3 3\nrows:\n0 0\n0 1\n",
]


@pytest.mark.parametrize("text", _DAMAGED)
def test_damaged_documents_raise_format_error(text):
    with pytest.raises(FormatError):
        parse_any(text)


def test_parse_array_refuses_a_scheme():
    with pytest.raises(FormatError, match="document is not a plain array"):
        parse_array(serialize_scheme(ds_linear(2, 2)))


# header integers past the int64 range, each of at most 19 digits
_HEADER_OVERFLOWS = [
    "moa v1\nruns 1\nlevels 9999999999999999999 2\nrows:\n0 0\n",
    "moa v1\nruns 1\nlevels 2 -9223372036854775809\nrows:\n0 0\n",
    "moa v1\nruns 9223372036854775808\nlevels 2\nrows:\n0\n",
    "moa v1\nruns 1\nlevels 2\nstrength 9223372036854775808\nrows:\n0\n",
    "moa v1\nkind ds 2 9223372036854775808\nruns 2\nlevels 2 2\nrows:\n0 0\n0 1\n",
]


@pytest.mark.parametrize("text", _HEADER_OVERFLOWS)
def test_header_integers_past_int64_are_refused(text):
    with pytest.raises(FormatError, match="must be canonical int64 decimals"):
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


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the object, or its error's type and message."""
    try:
        obj = parse(text)
    except OakitError as exc:
        return type(exc), str(exc)
    return type(obj), obj


def _rows_document(rows, levels, runs=None):
    head = f"moa v1\nruns {len(rows) if runs is None else runs}\nlevels {' '.join(map(str, levels))}\nrows:\n"
    return head + "".join(row + "\n" for row in rows)


_MAX, _MIN = str((1 << 63) - 1), str(-(1 << 63))
# ten thousand rows of one document span many of the reader's byte blocks
_TALL = [" ".join(str((i * 7 + j) % 12) for j in range(3)) for i in range(10000)]
_EDGE_DOCUMENTS = [
    "moa v1\r\nruns 1\r\nlevels 2\r\nrows:\r\n0\r\n",  # CRLF
    "moa v1\nruns 2\nlevels 2 2\nrows:\n0 1\r\n1 0\r\n",
    _rows_document(["0\t1", "1 0"], (2, 2)),  # a tab
    _rows_document(["0 1 ", "1 0"], (2, 2)),  # a trailing space
    _rows_document(["0 1", "", "1 0"], (2, 2), runs=2),  # a blank line between rows
    _rows_document(["0 1", "", "1 0"], (2, 2), runs=3),
    _rows_document(["0 1", "# late", "1 0"], (2, 2)),  # a comment after rows:
    _rows_document(["# late", "0 1"], (2, 2)),
    "moa v1\nruns 1\nlevels 2 2\nrows:\n0 1",  # no final LF
    "moa v1\nruns 1\nlevels 2 2\nrows:\n0 1\n\n",
    "moa v1\nruns 0\nlevels 2\nrows:\n",
    "moa v1\nruns 1\nlevels 2\nrows:",
    _rows_document(["00"], (2,)),
    _rows_document(["-00"], (2,)),
    _rows_document(["1-1"], (2,)),
    _rows_document(["--1"], (2,)),
    _rows_document(["1 -"], (2, 2)),
    _rows_document(["0 0", "0 \ud800"], (2, 2)),  # a lone surrogate
    # tokens of 18, 19 and 20 digits, at and past the int64 range
    *(_rows_document([sign + digits], (2,)) for sign in ("", "-") for digits in
      ("9" * 18, "1" + "0" * 17, "9" * 19, _MAX, str(1 << 63), "9" * 20, "1" + "0" * 19)),
    _rows_document([_MAX, _MIN], (2,)),
    _rows_document([_MIN + " " + _MAX], (2, 2)),
    # the first bad row is reported, whatever follows it
    _rows_document(["0 1", "0 01", "# late", "9" * 20 + " 0"], (2, 2)),
    _rows_document(["0 1", "# late", "0 01"], (2, 2)),
    _rows_document(["9" * 19 + " 0", "0 0 0"], (2, 2)),  # a bad row beats an overflow
    _rows_document(["9" * 19 + " 0"], (2, 2), runs=2),  # and so does the row count
    # multi-digit symbols
    _rows_document(["11 99 999", "10 0 100", "0 10 1", "1 9 10"], (12, 100, 1000)),
    _rows_document(["12 0 0"], (12, 100, 1000)),
    _rows_document(["0 100 0"], (12, 100, 1000)),
    _rows_document(["0 0 1000"], (12, 100, 1000)),
    serialize_scheme(ds_linear(11, 1)),
    # tall documents: the same reports from the last of many blocks
    _rows_document(_TALL, (12, 12, 12)),
    _rows_document(_TALL, (12, 12, 12), runs=9999),
    _rows_document(_TALL[:-1] + ["0 1 x"], (12, 12, 12)),
    _rows_document(_TALL[:-1] + ["0 1"], (12, 12, 12)),
    _rows_document(_TALL[:-1] + ["# late"], (12, 12, 12)),
    _rows_document(["9" * 19 + " 0 0", *_TALL[1:-1], "0 1"], (12, 12, 12)),
    _rows_document(["9" * 19 + " 0 0", *_TALL[1:]], (12, 12, 12)),
    _rows_document(["9" * 19 + " 0 0", *_TALL[1:]], (12, 12, 12), runs=1),
    _rows_document([*_TALL[:-1], "-" + "9" * 19 + " 0 0"], (12, 12, 12)),
]


@pytest.mark.parametrize(
    "text", _MALFORMED + _DAMAGED + _HEADER_OVERFLOWS + _EDGE_DOCUMENTS, ids=lambda text: text[:40]
)
def test_rows_read_as_the_line_reader_reads_them(text):
    # the same object, or the same exception type and message
    assert _outcome(parse_any, text) == _outcome(line_parse_any, text)


def test_edge_documents_reach_every_outcome():
    outcomes = {_outcome(line_parse_any, text)[0] for text in _EDGE_DOCUMENTS}
    assert {MixedArray, DifferenceScheme, FormatError, ParameterError} <= outcomes
    messages = {str(_outcome(line_parse_any, text)[1]) for text in _EDGE_DOCUMENTS}
    assert "symbol outside the int64 range" in messages
    assert "comments are only allowed before rows:" in messages
    assert any(m.startswith("declared ") for m in messages)
    # no array holds a negative symbol, so the reader is asked for them directly
    rows, cells, overflow = _read_rows(f"{_MAX} {_MIN}\n-1 10\n-{_MAX} 0", 2)
    assert (rows, cells.tolist(), overflow) == (3, [(1 << 63) - 1, -(1 << 63), -1, 10, 1 - (1 << 63), 0], False)
    top = parse_array(_rows_document([str((1 << 63) - 2), "0"], ((1 << 63) - 1,)))
    assert top.cells[:, 0].tolist() == [(1 << 63) - 2, 0]


def test_tall_document_memory_is_bounded():
    # bush_oa(11, 4) is 14641 x 12; its cells take 0.17 MiB stored as uint8,
    # and 1.34 MiB in the int64 buffer the reader fills before MixedArray
    # narrows it, and the text is 0.35 MB.  The line reader's list of lines
    # and of tokens peaked at 4.6 MiB
    array = bush_oa(11, 4)
    tracemalloc.start()
    try:
        text = serialize_array(array)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert parse_array(text) == array
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written < 3 << 19 and read < 4 << 20


_VALID_DOCUMENTS = [
    serialize_array(trivial_moa((3, 2)), strength=2),
    serialize_array(trivial_moa((12, 2)), strength=2),
    _rows_document(["11 99 999", "10 0 100", "0 10 1", "1 9 10"], (12, 100, 1000)),
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
