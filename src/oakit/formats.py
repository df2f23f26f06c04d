"""The "moa v1" text format and the oakit-report-v1 JSON schema.

moa v1 (UTF-8, LF) lays out an array as::

    moa v1
    runs 24
    levels 3 2 2 2 2
    strength 2          <- optional, advisory only
    rows:
    0 0 0 0 0
    ...

`#`-prefixed comment lines may appear anywhere before ``rows:``; each header
key (``kind``, ``runs``, ``levels``, ``strength``) appears at most once, and
``strength`` is one integer.  Difference schemes and Hadamard matrices use
the same layout with an extra header line directly after the version line:
``kind ds <d> <t>`` (with an optional trailing group tag ``mod`` or ``gf``;
absent means ``mod``) or ``kind hadamard``, whose levels are 2 on as many
columns as runs.  Serialization is bit-exact canonical: single spaces, no
trailing whitespace, LF endings, integers as ``str(int)`` prints them
(ASCII decimal; no ``+``, ``_`` or leading zeros), and parsing insists on it.
Header integers and rows are read by one reader, which range-checks every
integer against int64.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AdditiveGroup, DifferenceScheme, HadamardMatrix01
from .arrays import (
    DistanceSpectrum,
    IrredundancyReport,
    MixedArray,
    StrengthReport,
)
from .errors import FormatError

__all__ = [
    "serialize_array",
    "parse_array",
    "serialize_scheme",
    "serialize_hadamard",
    "parse_any",
    "report",
    "distance_section",
    "verification_report",
    "uniformity_report",
]

REPORT_SCHEMA = "oakit-report-v1"


# bytes of row text per block when rows are written or read
_BLOCK = 1 << 15


def _write(cells: np.ndarray, levels, kind: str | None = None, strength: int | None = None) -> str:
    """The one moa v1 writer: header lines, ``rows:``, then one line per row."""
    lines = ["moa v1"]
    if kind is not None:
        lines.append(f"kind {kind}")
    lines += [f"runs {cells.shape[0]}", "levels " + " ".join(map(str, levels))]
    if strength is not None:
        lines.append(f"strength {strength}")
    lines.append("rows:")
    return "\n".join(lines) + "\n" + _row_text(cells)


def _row_text(cells: np.ndarray) -> str:
    """The row lines of non-negative ``cells``, as ``str(int)`` prints each symbol.

    A block of rows is laid out as bytes, every symbol in as many digit
    slots as the widest one needs and followed by a space or, at the end of
    a row, an LF.  The leading zero slots of narrower symbols are dropped
    before the block is kept; a block lays out at most ``_BLOCK`` slots.
    """
    r, n = cells.shape
    width = len(str(int(cells.max())))
    places = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    step = max(1, _BLOCK // (n * (width + 1)))
    text = []
    for lo in range(0, r, step):
        block = cells[lo : lo + step, :, None]
        slots = np.empty((block.shape[0], n, width + 1), dtype=np.uint8)
        slots[:, :, :width] = block // places % 10 + 48
        slots[:, :, width] = 32
        slots[:, -1, width] = 10
        if width > 1:  # a symbol keeps its slots from its leading digit on
            keep = np.ones(slots.shape, dtype=bool)
            keep[:, :, : width - 1] = block >= places[:-1]
            slots = slots[keep]
        text.append(slots.tobytes())
    return b"".join(text).decode("ascii")


def serialize_array(array: MixedArray, strength: int | None = None) -> str:
    return _write(array.cells, array.levels, strength=strength)


def serialize_scheme(scheme: DifferenceScheme) -> str:
    kind = f"ds {scheme.order} {scheme.strength}"
    if scheme.group.tag != "mod":
        kind += f" {scheme.group.tag}"
    return _write(scheme.cells, (scheme.order,) * scheme.cols, kind)


def serialize_hadamard(h: HadamardMatrix01) -> str:
    return _write(h.cells, (2,) * h.order, "hadamard")


_HEADER_KEYS = ("kind", "runs", "levels", "strength")


def _parse_header(text: str) -> tuple[dict[str, str], int]:
    """The header fields, and the offset in ``text`` of the line after ``rows:``."""
    pos = 0
    header: dict[str, str] = {}
    seen_version = False
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line = text[pos:end]
        pos = end + 1
        if line.startswith("#"):
            continue
        if line.strip() == "":
            raise FormatError("blank line before rows:")
        if not seen_version:
            if line != "moa v1":
                raise FormatError(f"expected 'moa v1' header, got {line!r}")
            seen_version = True
            continue
        if line == "rows:":
            return header, pos
        try:
            key, value = line.split(" ", 1)
        except ValueError as exc:
            raise FormatError(f"malformed header line {line!r}") from exc
        if key not in _HEADER_KEYS:
            raise FormatError(f"unknown header key {key!r}")
        if key in header:
            raise FormatError(f"header key {key!r} given twice")
        header[key] = value
    raise FormatError("missing rows: marker")


def _ints(text: str, what: str) -> list[int]:
    """The integers of a header value, read as ``_block_values`` reads a row."""
    line = np.frombuffer(f"{text}\n".encode("ascii", "replace"), dtype=np.uint8)
    values = _block_values(line, text.count(" ") + 1)
    if isinstance(values, int) or values[1]:
        raise FormatError(f"{what} must be canonical int64 decimals, got {text!r}")
    return values[0].tolist()


def _read_rows(block: str, width: int) -> tuple[int, np.ndarray, bool]:
    """The rows after ``rows:``: their count, their cells and whether one overflows.

    Every line of ``block`` (the last needs no LF) must hold ``width``
    canonical int64 decimals separated by single spaces; the first line
    that does not raises its ``FormatError``.  The cells come back flat.
    The lines are read as bytes, ``_BLOCK`` bytes of whole lines at a time;
    a character that is not ASCII reads as ``?``, which no row may hold, so
    byte offsets are character offsets.
    """
    data = block.encode("ascii", "replace")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    rows = data.count(b"\n")
    # every valid row takes at least two bytes a cell, so the cells of the
    # rows read before a bad one fit without allocating rows * width
    cells = np.empty(min(rows * width, len(data) // 2), dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    lo = done = 0
    overflow = False
    while lo < len(data):
        hi = data.find(b"\n", min(lo + _BLOCK, len(data)) - 1) + 1
        values = _block_values(buf[lo:hi], width)
        if isinstance(values, int):
            start = data.rfind(b"\n", 0, lo + values) + 1
            line = block[start : data.find(b"\n", lo + values)]
            if line.startswith("#"):
                raise FormatError("comments are only allowed before rows:")
            raise FormatError(f"malformed row {line!r}")
        values, out_of_range = values
        cells[done : done + values.size] = values
        done += values.size
        overflow |= out_of_range
        lo = hi
    return rows, cells, overflow


def _block_values(c: np.ndarray, width: int) -> int | tuple[np.ndarray, bool]:
    """The symbols of ``c`` and whether one overflows int64, or a bad line's offset.

    ``c`` holds whole lines, each ended by an LF.  A line is good when it
    holds ``width`` tokens ``0`` or ``-?[1-9][0-9]{0,18}`` separated by
    single spaces; if one is not, the offset of a byte of the first such
    line comes back instead.  Magnitudes are read in uint64, which holds
    every 19-digit one.
    """
    newline = c == 10
    sep = newline | (c == 32)
    after_sep = np.empty_like(sep)  # the byte before is a separator, or there is none
    after_sep[0] = True
    after_sep[1:] = sep[:-1]
    digits = c - 48
    digit = digits < 10
    minus = c == 45
    bad = ~(digit | sep | minus) | (sep & after_sep)  # a foreign byte or an empty token
    # a sign starts a token and precedes 1-9; a leading 0 is the whole token
    bad[:-1] |= minus[:-1] & ~(after_sep[:-1] & digit[1:] & (c[1:] != 48))
    bad[:-1] |= (c[:-1] == 48) & after_sep[:-1] & digit[1:]
    # the runs of digits; the last byte is an LF, so every run ends before it
    first = np.flatnonzero(digit[1:] & ~digit[:-1]) + 1
    if digit[0]:
        first = np.concatenate(([0], first))
    length = np.flatnonzero(digit[:-1] & ~digit[1:]) + 1 - first
    ends = np.flatnonzero(newline)
    # in lines with no bad byte every token holds one run of digits
    miscounted = np.searchsorted(first, ends) != width * np.arange(1, ends.size + 1)
    suspects = [np.argmax(bad) if bad.any() else c.size]
    if length.size and length.max() > 19:
        suspects.append(first[np.argmax(length > 19)])
    if miscounted.any():
        suspects.append(ends[np.argmax(miscounted)])
    if min(suspects) < c.size:
        return int(min(suspects))
    magnitude = np.zeros(first.size, dtype=np.uint64)
    for t in range(int(length.max())):
        live = length > t
        np.multiply(magnitude, 10, out=magnitude, where=live)
        np.add(magnitude, digits.take(first + t, mode="clip"), out=magnitude, where=live)
    negative = c.take(first - 1) == 45  # the byte before a run at 0 is the last, an LF
    # int64 holds magnitudes up to 2^63 - 1, and 2^63 behind a sign
    overflow = bool(((magnitude - negative) >> 63).any())
    values = magnitude.view(np.int64)
    np.negative(values, out=values, where=negative)
    return values, overflow


def parse_any(text: str):
    """Parse a moa v1 document; returns the kind-appropriate object.

    Plain arrays come back as a MixedArray; ``kind ds``/``kind hadamard``
    documents come back as DifferenceScheme/HadamardMatrix01.
    """
    header, start = _parse_header(text)
    if "runs" not in header or "levels" not in header:
        raise FormatError("missing runs or levels header")
    runs = _ints(header["runs"], "runs")
    levels = tuple(_ints(header["levels"], "levels"))
    if "strength" in header and len(_ints(header["strength"], "strength")) != 1:
        raise FormatError(f"strength must be one integer, got {header['strength']!r}")
    rows, cells, overflow = _read_rows(text[start:], len(levels))
    if runs != [rows]:
        raise FormatError(f"declared {header['runs']} rows, found {rows}")
    if overflow:
        raise FormatError("symbol outside the int64 range")
    cells = cells.reshape(rows, len(levels))
    kind = header.get("kind")
    if kind is None:
        return MixedArray(levels, cells)
    parts = kind.split() or [""]
    if parts[0] == "hadamard":
        if len(parts) != 1:
            raise FormatError(f"malformed kind line {kind!r}")
        if levels != (2,) * rows:
            raise FormatError("a hadamard matrix has levels 2 on as many columns as runs")
        return HadamardMatrix01(rows, cells)
    if parts[0] == "ds":
        if len(parts) not in (3, 4):
            raise FormatError(f"malformed kind line {kind!r}")
        d, t = _ints(f"{parts[1]} {parts[2]}", "scheme order and strength")
        tag = parts[3] if len(parts) == 4 else "mod"
        if set(levels) != {d}:
            raise FormatError("difference scheme levels must all equal its order")
        return DifferenceScheme(cells, d, t, AdditiveGroup(d, tag), verify=True)
    raise FormatError(f"unknown kind {parts[0]!r}")


def parse_array(text: str) -> MixedArray:
    obj = parse_any(text)
    if not isinstance(obj, MixedArray):
        raise FormatError("document is not a plain array")
    return obj


def _witness_json(report: StrengthReport):
    w = report.witness
    if w is None:
        return None
    out: dict = {"columns": list(w.columns)}
    if w.symbols is None:
        out["reason"] = "run count not divisible by level product"
        out["expected"] = str(w.expected)
    else:
        out["tuple"] = list(w.symbols)
        out["count"] = w.count
        out["expected"] = int(w.expected)
    return out


def report(**sections) -> dict:
    """An oakit-report-v1 document holding the given sections."""
    return {"schema": REPORT_SCHEMA, **sections}


def distance_section(spectrum: DistanceSpectrum) -> dict:
    return {"min": spectrum.min_distance, "spectrum": list(spectrum.distances)}


def verification_report(
    strength: StrengthReport,
    spectrum: DistanceSpectrum,
    irredundant: IrredundancyReport | None,
) -> dict:
    out = report(
        strength={
            "k": strength.strength_checked,
            "holds": strength.holds,
            "lambda": strength.index,
        },
        distance=distance_section(spectrum),
        irredundant=None
        if irredundant is None
        else {"k": irredundant.k, "holds": irredundant.holds},
    )
    witness = _witness_json(strength)
    if witness is not None:
        out["strength"]["witness"] = witness
    return out


def uniformity_report(uniformity, spectrum: DistanceSpectrum) -> dict:
    out = report(
        uniformity={
            "k": uniformity.k,
            "holds": uniformity.holds,
            "subsets_checked": uniformity.subsets_checked,
            "subsets_total": uniformity.subsets_total,
        },
        distance=distance_section(spectrum),
    )
    if uniformity.witness_subset is not None:
        out["uniformity"]["witness"] = {"columns": list(uniformity.witness_subset)}
    return out


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
