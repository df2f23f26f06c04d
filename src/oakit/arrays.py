"""Mixed-level arrays and their definitional predicates.

A mixed orthogonal array MOA(r, N, d_1^{n_1}...d_l^{n_l}, k) is an r x N
matrix whose column j takes symbols in {0, ..., d_j - 1} and in which every
r x k submatrix contains each of the prod(d) possible k-tuples exactly
r / prod(d) times.  The array is irredundant at strength k when all rows of
every r x (N - k) subarray are distinct, which happens exactly when the
minimal pairwise Hamming distance is at least k + 1.

Everything here is exact integer counting on immutable inputs; there are no
tolerances and no sampling.  All functions are pure and safe to call
concurrently.  Failure witnesses are deterministic: column subsets are
scanned in lexicographic order and the first offender is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "MixedArray",
    "StrengthWitness",
    "StrengthReport",
    "DistanceSpectrum",
    "IrredundancyReport",
    "verify_strength",
    "distance_spectrum",
    "min_distance",
    "is_irredundant",
    "delete_columns",
    "select_columns",
    "concat_columns",
    "guaranteed_deletion_budget",
    "subset_codes",
]


@dataclass(frozen=True, eq=False)
class MixedArray:
    """An r x N symbol matrix with a per-column level profile.

    ``levels[j]`` is the number of symbols of column j; every cell obeys
    ``0 <= cells[i, j] < levels[j]``.  Instances are immutable: the cell
    matrix is stored contiguous, int64 and non-writeable.
    """

    levels: tuple[int, ...]
    cells: np.ndarray

    def __post_init__(self) -> None:
        levels = tuple(int(d) for d in self.levels)
        cells = np.asarray(self.cells)
        if cells.dtype.kind not in "iu":  # float, bool, complex, ... would be cast silently
            raise ParameterError(f"cells must have an integer dtype, got {cells.dtype}")
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if cells.ndim != 2:
            raise ParameterError(f"cells must be 2-D, got shape {cells.shape}")
        r, n = cells.shape
        if r < 1 or n < 1:
            raise ParameterError(f"need at least one row and one column, got {r}x{n}")
        if len(levels) != n:
            raise ParameterError(f"{n} columns but {len(levels)} level entries")
        if any(d < 2 for d in levels):
            raise ParameterError(f"levels must all be >= 2, got {levels}")
        if cells.min() < 0:
            raise ParameterError("negative symbol")
        too_big = cells.max(axis=0) >= np.asarray(levels)
        if too_big.any():
            j = int(np.flatnonzero(too_big)[0])
            raise ParameterError(
                f"column {j} holds symbol {int(cells[:, j].max())} "
                f"but has only {levels[j]} levels"
            )
        cells.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_rows(cls, levels: Sequence[int], rows: Iterable[Sequence[int]]) -> "MixedArray":
        return cls(tuple(levels), np.array(list(rows)))

    @property
    def runs(self) -> int:
        return self.cells.shape[0]

    @property
    def ncols(self) -> int:
        return self.cells.shape[1]

    def row_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(int(x) for x in row) for row in self.cells]

    def profile(self) -> str:
        """Exponent notation over the level multiset, largest level first."""
        counts: dict[int, int] = {}
        for d in self.levels:
            counts[d] = counts.get(d, 0) + 1
        return " ".join(f"{d}^{counts[d]}" for d in sorted(counts, reverse=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedArray):
            return NotImplemented
        return self.levels == other.levels and np.array_equal(self.cells, other.cells)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"MixedArray({self.runs}x{self.ncols}, {self.profile()})"


@dataclass(frozen=True)
class StrengthWitness:
    """First offending column subset for a failed strength check.

    ``symbols`` is the first tuple whose count differs from the expected
    index; it is None when the failure is a divisibility obstruction.
    """

    columns: tuple[int, ...]
    symbols: tuple[int, ...] | None
    count: int | None
    expected: Fraction


@dataclass(frozen=True)
class StrengthReport:
    strength_checked: int
    holds: bool
    index: int | None  # common count lambda, when it is common to all subsets
    witness: StrengthWitness | None = None


@dataclass(frozen=True)
class DistanceSpectrum:
    """All attained pairwise Hamming distances with pair counts."""

    distances: tuple[int, ...]
    min_distance: int
    counts: dict[int, int]

    def irredundancy(self, k: int) -> IrredundancyReport:
        """Irredundancy at k: minimal distance >= k + 1 (see ``is_irredundant``)."""
        return IrredundancyReport(k, self.min_distance >= k + 1, self.min_distance)


@dataclass(frozen=True)
class IrredundancyReport:
    k: int
    holds: bool
    min_distance: int


_TILE_CELLS = 1 << 18  # cells per tile of row pairs (distance_spectrum, verify_k_uniform)


def _narrowest_unsigned(bound: int) -> type:
    """Smallest unsigned numpy integer type that holds ``bound``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


def subset_codes(cells: np.ndarray, levels: Sequence[int], subset: Sequence[int]) -> np.ndarray:
    """Mixed-radix encoding of each row's projection onto ``subset``.

    The first column of the subset is the most significant digit, so code
    order equals lexicographic tuple order.
    """
    codes = np.zeros(cells.shape[0], dtype=np.int64)
    for j in subset:
        codes *= levels[j]
        codes += cells[:, j]
    return codes


def _decode(code: int, dims: Sequence[int]) -> tuple[int, ...]:
    out = []
    for d in reversed(dims):
        out.append(code % d)
        code //= d
    return tuple(reversed(out))


def verify_strength(array: MixedArray, k: int) -> StrengthReport:
    """Exact strength check: every k-column tuple count equals r / prod(d).

    Subsets are scanned in lexicographic order; the first failing subset and
    its lexicographically first bad tuple are reported.  A subset whose level
    product does not divide r fails with a divisibility witness.
    """
    n = array.ncols
    if k < 0:
        raise ParameterError(f"strength must be >= 0, got {k}")
    if k > n:
        raise ParameterError(f"strength {k} exceeds column count {n}")
    r = array.runs
    if k == 0:
        return StrengthReport(0, True, r)
    lambdas: set[int] = set()
    for subset in combinations(range(n), k):
        dims = [array.levels[j] for j in subset]
        d_prod = prod(dims)
        if r % d_prod != 0:
            witness = StrengthWitness(subset, None, None, Fraction(r, d_prod))
            return StrengthReport(k, False, None, witness)
        lam = r // d_prod
        counts = np.bincount(
            subset_codes(array.cells, array.levels, subset), minlength=d_prod
        )
        bad = np.flatnonzero(counts != lam)
        if bad.size:
            code = int(bad[0])
            witness = StrengthWitness(
                subset, _decode(code, dims), int(counts[code]), Fraction(lam)
            )
            return StrengthReport(k, False, None, witness)
        lambdas.add(lam)
    common = lambdas.pop() if len(lambdas) == 1 else None
    return StrengthReport(k, True, common)


def distance_spectrum(array: MixedArray) -> DistanceSpectrum:
    """Exact Hamming distances over all row pairs.

    Rows are compared in tiles: a block of b consecutive rows against itself
    and every later row, with b * r <= 2^18 cells.  Besides one copy of the
    cells, transposed into the narrowest unsigned dtype, the working memory
    is one boolean and one distance tile of at most 2^18 cells each, reused
    across tiles: under 1 MiB at any row count.

    A one-row array has the conventional empty spectrum with minimal
    distance N + 1 so that irredundancy predicates degrade gracefully.
    """
    r, n = array.cells.shape
    if r == 1:
        return DistanceSpectrum((), n + 1, {})
    columns = np.ascontiguousarray(array.cells.T, dtype=_narrowest_unsigned(max(array.levels)))
    b = max(1, min(r, _TILE_CELLS // r))
    unequal = np.empty(b * r, dtype=bool)
    dist = np.empty(b * r, dtype=_narrowest_unsigned(n))
    later = np.triu(np.ones((b, b), dtype=bool), 1)  # j > i inside the diagonal block
    # bincount copies its input to int64: count 2^15 cells at a time so that
    # the copy is no larger than one tile
    count_rows = max(1, (_TILE_CELLS >> 3) // r)
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, r - 1, b):
        h, w = min(b, r - lo), r - lo
        tile = unequal[: h * w].reshape(h, w)
        acc = dist[: h * w].reshape(h, w)
        acc.fill(0)
        for col in columns:
            np.not_equal(col[lo : lo + h, None], col[None, lo:], out=tile)
            acc += tile
        counts += np.bincount(acc[:, :h][later[:h, :h]], minlength=n + 1)
        for top in range(0, h, count_rows):
            counts += np.bincount(acc[top : top + count_rows, h:].ravel(), minlength=n + 1)
    attained = np.flatnonzero(counts)
    return DistanceSpectrum(
        tuple(int(d) for d in attained),
        int(attained[0]),
        {int(d): int(counts[d]) for d in attained},
    )


def min_distance(array: MixedArray) -> int:
    return distance_spectrum(array).min_distance


def is_irredundant(array: MixedArray, k: int) -> IrredundancyReport:
    """True iff all rows of every r x (N-k) subarray are distinct.

    Two rows that agree on some N-k columns differ in at most k places, so the
    criterion is exactly min_distance >= k + 1; the report carries that
    measured distance.  The direct subarray enumeration is the test oracle
    ``naive_irredundant``.
    """
    n = array.ncols
    if not 1 <= k < n:
        raise ParameterError(f"irredundancy strength must satisfy 1 <= k < {n}, got {k}")
    return distance_spectrum(array).irredundancy(k)


def delete_columns(array: MixedArray, indices: Iterable[int]) -> MixedArray:
    """Remove the given columns, keeping the order of the survivors."""
    drop = set(int(j) for j in indices)
    n = array.ncols
    for j in drop:
        if not 0 <= j < n:
            raise ParameterError(f"column {j} out of range 0..{n - 1}")
    keep = [j for j in range(n) if j not in drop]
    if not keep:
        raise ParameterError("cannot delete every column")
    return select_columns(array, keep)


def select_columns(array: MixedArray, indices: Sequence[int]) -> MixedArray:
    indices = [int(j) for j in indices]
    n = array.ncols
    for j in indices:
        if not 0 <= j < n:
            raise ParameterError(f"column {j} out of range 0..{n - 1}")
    if not indices:
        raise ParameterError("must keep at least one column")
    return MixedArray(
        tuple(array.levels[j] for j in indices), array.cells[:, indices]
    )


def concat_columns(a: MixedArray, b: MixedArray) -> MixedArray:
    """Columnwise juxtaposition [A, B] of two arrays with equal run counts."""
    if a.runs != b.runs:
        raise ParameterError(f"run counts differ: {a.runs} vs {b.runs}")
    return MixedArray(a.levels + b.levels, np.hstack([a.cells, b.cells]))


def guaranteed_deletion_budget(array: MixedArray, k: int) -> int:
    """Columns deletable in ANY combination while staying irredundant at k.

    With minimal distance w, deleting up to w - k - 1 columns leaves every
    row pair at distance >= k + 1.  Deleting more may still succeed but must
    be re-verified.
    """
    if k < 1:
        raise ParameterError(f"strength must be >= 1, got {k}")
    return max(0, min_distance(array) - k - 1)
