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
"""

from __future__ import annotations

import json
import re

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


def _write(cells: np.ndarray, levels, kind: str | None = None, strength: int | None = None) -> str:
    """The one moa v1 writer: header lines, ``rows:``, then one line per row."""
    lines = ["moa v1"]
    if kind is not None:
        lines.append(f"kind {kind}")
    lines += [f"runs {cells.shape[0]}", "levels " + " ".join(map(str, levels))]
    if strength is not None:
        lines.append(f"strength {strength}")
    lines.append("rows:")
    lines.extend(" ".join(map(str, row.tolist())) for row in cells)
    return "\n".join(lines) + "\n"


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


def _parse_header(text: str):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0
    header: dict[str, str] = {}
    seen_version = False
    while pos < len(lines):
        line = lines[pos]
        pos += 1
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
            break
        try:
            key, value = line.split(" ", 1)
        except ValueError as exc:
            raise FormatError(f"malformed header line {line!r}") from exc
        if key not in _HEADER_KEYS:
            raise FormatError(f"unknown header key {key!r}")
        if key in header:
            raise FormatError(f"header key {key!r} given twice")
        header[key] = value
    else:
        raise FormatError("missing rows: marker")
    return header, lines[pos:]


# tokens with str(int(token)) == token, at most the 19 digits of an int64
_INTS = re.compile(r"(?:0|-?[1-9][0-9]{0,18})(?: (?:0|-?[1-9][0-9]{0,18}))*")


def _ints(text: str, what: str) -> list[int]:
    if not _INTS.fullmatch(text):
        raise FormatError(f"{what} must be canonical int64 decimals, got {text!r}")
    return [int(x) for x in text.split(" ")]


def parse_any(text: str):
    """Parse a moa v1 document; returns the kind-appropriate object.

    Plain arrays come back as a MixedArray; ``kind ds``/``kind hadamard``
    documents come back as DifferenceScheme/HadamardMatrix01.
    """
    header, row_lines = _parse_header(text)
    if "runs" not in header or "levels" not in header:
        raise FormatError("missing runs or levels header")
    runs = _ints(header["runs"], "runs")
    levels = tuple(_ints(header["levels"], "levels"))
    if "strength" in header and len(_ints(header["strength"], "strength")) != 1:
        raise FormatError(f"strength must be one integer, got {header['strength']!r}")
    for line in row_lines:
        if line.startswith("#"):
            raise FormatError("comments are only allowed before rows:")
        if not _INTS.fullmatch(line) or line.count(" ") != len(levels) - 1:
            raise FormatError(f"malformed row {line!r}")
    if runs != [len(row_lines)]:
        raise FormatError(f"declared {header['runs']} rows, found {len(row_lines)}")
    try:
        cells = np.array(" ".join(row_lines).split(), dtype=np.int64)
    except OverflowError as exc:
        raise FormatError("symbol outside the int64 range") from exc
    cells = cells.reshape(len(row_lines), len(levels))
    kind = header.get("kind")
    if kind is None:
        return MixedArray(levels, cells)
    parts = kind.split() or [""]
    if parts[0] == "hadamard":
        if len(parts) != 1:
            raise FormatError(f"malformed kind line {kind!r}")
        if levels != (2,) * len(row_lines):
            raise FormatError("a hadamard matrix has levels 2 on as many columns as runs")
        return HadamardMatrix01(len(row_lines), cells)
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
