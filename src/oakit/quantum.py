"""States induced by arrays and exact uniformity verification.

An r x N array over levels (d_1, ..., d_N) induces the pure state that
superposes one product ket per row with uniform amplitude 1/sqrt(r).  For a
party subset S, the reduced density matrix has exact rational entries

    rho_S(a, b) = (1/r) * #{ordered row pairs (x, y) :
                            x|_S = a, y|_S = b, x|_{S^c} = y|_{S^c}},

so it can be computed by grouping rows on the complement projection; the
ambient Hilbert space is never materialized (``reduced_density``).

``verify_k_uniform`` never builds a reduction.  It uses this criterion: the
reduction to S equals (1/D_S) I exactly iff S is balanced (every tuple on S
appears r / D_S times) and no two rows agree on every column outside S.  A
pair of rows that agree off S but differ on S puts mass off the diagonal; a
repeated row leaves the diagonal summing to more than 1.  Without such pairs
the diagonal is the tuple count on S.  So the state is k-uniform iff the
array has strength k and minimal distance >= k + 1.  The test suite, not
this module, cross-checks the criterion against the reduced density
matrices and a per-subset grouping oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import numpy as np

from .arrays import (
    _TILE_CELLS,
    MixedArray,
    _coset_weights,
    _strength_loop,
    subset_codes,
)
from .errors import ParameterError

__all__ = [
    "SparseState",
    "DensityMatrix",
    "UniformityReport",
    "emit_state",
    "render_ket",
    "reduced_density",
    "verify_k_uniform",
    "is_ame",
]

_DENSITY_DIMENSION_CAP = 1 << 10


@dataclass(frozen=True)
class SparseState:
    """A uniform superposition of product kets, one per array row."""

    levels: tuple[int, ...]
    kets: tuple[tuple[int, ...], ...]

    @property
    def terms(self) -> int:
        return len(self.kets)

    @property
    def has_duplicate_kets(self) -> bool:
        return len(set(self.kets)) != len(self.kets)

    def amplitude(self) -> str:
        return f"1/sqrt({self.terms})"

    def to_array(self) -> MixedArray:
        return MixedArray.from_rows(self.levels, self.kets)


@dataclass(frozen=True)
class DensityMatrix:
    """Exact-rational reduced density matrix on a party subset."""

    subset: tuple[int, ...]
    dims: tuple[int, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return prod(self.dims)

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.dimension)), Fraction(0))

    def is_symmetric(self) -> bool:
        d = self.dimension
        return all(
            self.entries[i][j] == self.entries[j][i] for i in range(d) for j in range(i)
        )

    def is_maximally_mixed(self) -> bool:
        d = self.dimension
        target = Fraction(1, d)
        return all(
            self.entries[i][j] == (target if i == j else 0)
            for i in range(d)
            for j in range(d)
        )


@dataclass(frozen=True)
class UniformityReport:
    k: int
    holds: bool
    witness_subset: tuple[int, ...] | None
    subsets_checked: int
    subsets_total: int


def emit_state(array: MixedArray) -> SparseState:
    """One product ket per row, in row order."""
    return SparseState(array.levels, tuple(array.row_tuples()))


def render_ket(state: SparseState) -> str:
    return " + ".join(
        "|" + " ".join(str(s) for s in ket) + "⟩" for ket in state.kets
    )


def reduced_density(array: MixedArray, subset) -> DensityMatrix:
    """Exact reduction to the given parties by complement-projection grouping.

    The rows are grouped by their projection off ``subset``, and the
    ordered row pairs inside each group are counted with one ``bincount``
    of their pair codes; every distinct count becomes one shared
    ``Fraction``.  Dimensions above ``_DENSITY_DIMENSION_CAP`` are refused
    before any counting: the dim x dim entries are Python objects.
    """
    subset = tuple(int(j) for j in subset)
    n = array.ncols
    if not subset:
        raise ParameterError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ParameterError("subset has repeated parties")
    if any(not 0 <= j < n for j in subset):
        raise ParameterError(f"subset out of range 0..{n - 1}")
    if len(subset) == n:
        raise ParameterError("subset must be a proper subset of the parties")
    dims = tuple(array.levels[j] for j in subset)
    dim = prod(dims)
    if dim > _DENSITY_DIMENSION_CAP:
        raise ParameterError(
            f"reduction dimension {dim} exceeds the materialization cap; "
            "use verify_k_uniform for the matrix-free check"
        )
    comp = [j for j in range(n) if j not in subset]
    codes = subset_codes(array.cells, array.levels, subset)
    group = np.unique(array.cells[:, comp], axis=0, return_inverse=True)[1].ravel()
    codes = codes[np.argsort(group, kind="stable")]
    sizes = np.bincount(group)
    # the sorted rows of a group pair with every row of it, themselves included
    size = np.repeat(sizes, sizes)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    partner = np.repeat(first - (np.cumsum(size) - size), size) + np.arange(size.sum())
    counts = np.bincount(np.repeat(codes * dim, size) + codes[partner], minlength=dim * dim)
    r = array.runs
    share = {c: Fraction(c, r) for c in np.unique(counts).tolist()}
    rows = counts.reshape(dim, dim).tolist()
    entries = tuple(tuple(map(share.__getitem__, row)) for row in rows)
    return DensityMatrix(subset, dims, entries)


def verify_k_uniform(array: MixedArray, k: int) -> UniformityReport:
    """True iff every |S| = k reduction equals (1/D_S) I exactly.

    The witness is the lexicographically first failing subset, and
    ``subsets_checked`` its position in lexicographic order (all of them
    when the state is k-uniform).  A subset fails when it is unbalanced, or
    when it contains the difference set of a close pair: two rows that agree
    on every column outside it.  The first unbalanced subset comes from
    ``verify_strength``'s scan; close pairs are only searched among the
    columns whose first k-subset precedes it.

    Three cases need no search.  At strength k with index 1 every k-column
    projection is injective, so two rows differ in at least N - k + 1
    columns, and with N >= 2k that is more than k: there are no close
    pairs, whatever the symbols' labels.  When strength k holds and the
    scan made a split pass, that pass also counted the pairs by distance,
    and there is a close pair iff the minimal distance is at most k.  And
    when the rows are a group coset, ``_close_pairs`` reads them off the
    rows' differences from row 0; every other array has its row pairs
    compared.
    """
    return _uniformity(array, k)[0]


def _uniformity(array: MixedArray, k: int) -> tuple[UniformityReport, np.ndarray | None]:
    """``verify_k_uniform``'s report and, whenever its strength scan made a
    split pass, that pass's per-distance pair counts, else None."""
    n = array.ncols
    if not 1 <= k < n:
        raise ParameterError(f"uniformity strength must satisfy 1 <= k < {n}, got {k}")
    total = comb(n, k)
    strength, distances = _strength_loop(array, k)
    # a pass that declined hands back its counts too, so strength k must hold
    # as well as no pair lie within distance k
    vouched = strength.holds and distances is not None and not distances[: k + 1].any()
    if vouched or (strength.index == 1 and n >= 2 * k):
        return UniformityReport(k, True, None, total, total), distances
    witness = None if strength.holds else strength.witness.columns
    lead = n if witness is None else sum(_first_superset((c,), k) < witness for c in range(n))
    for differ in _close_pairs(array, lead, k):
        first = _lex_first_superset(differ, k)
        if witness is None or first < witness:
            witness = first
        if witness == tuple(range(k)):
            break
    if witness is None:
        return UniformityReport(k, True, None, total, total), distances
    return UniformityReport(k, False, witness, _lex_rank(witness, n) + 1, total), distances


def _first_superset(columns: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The lexicographically first k-subset that contains ``columns``."""
    fill = [c for c in range(k) if c not in columns][: k - len(columns)]
    return tuple(sorted((*columns, *fill)))


def _lex_first_superset(differ: np.ndarray, k: int) -> tuple[int, ...]:
    """Lexicographic minimum over rows of ``differ`` of their first supersets.

    Each row marks a difference set of at most k leading columns.  Padding it
    with its first unmarked columns (all below k) gives its first superset; of
    two k-sets the lexicographically smaller one holds the smallest column in
    which they differ.
    """
    p, m = differ.shape
    mask = np.zeros((p, max(m, k)), dtype=bool)
    mask[:, :m] = differ
    free = ~mask[:, :k]
    short = k - differ.sum(axis=1)
    mask[:, :k] |= free & (np.cumsum(free, axis=1) <= short[:, None])
    sets = np.nonzero(mask)[1].reshape(p, k)
    best = np.lexsort(sets.T[::-1])[0]
    return tuple(int(c) for c in sets[best])


def _lex_rank(subset: tuple[int, ...], n: int) -> int:
    """Zero-based position of a sorted k-subset of range(n) in lexicographic order.

    Subsets that share the first i entries and then take a smaller value v
    number comb(n - v - 1, k - i - 1) each; summed over v in (prev, c) that is
    comb(n - prev - 1, k - i) - comb(n - c, k - i).
    """
    k = len(subset)
    rank, prev = 0, -1
    for i, c in enumerate(subset):
        rank += comb(n - prev - 1, k - i) - comb(n - c, k - i)
        prev = c
    return rank


def _close_pairs(array: MixedArray, lead: int, k: int):
    """Difference masks, on columns 0..lead-1, of close row pairs.

    Returns an iterator of boolean chunks of at most 2^18 cells, the tile
    bound of ``distance_spectrum``, with one row per pair of rows that agree
    on every column from ``lead`` on and differ in at most k of the first
    ``lead`` (duplicate rows included).  A pair may be yielded more than
    once.  When the rows are a group coset the pairs' difference masks are
    those of the rows at distance 1..k from row 0 (``_coset_masks``);
    otherwise the pairs are compared (``_paired_masks``).
    """
    if lead == 0:
        return iter(())
    weights = _coset_weights(array)
    if weights is None:
        return _paired_masks(array, lead, k)
    return _coset_masks(array, weights, lead, k)


def _coset_masks(array: MixedArray, weights: np.ndarray, lead: int, k: int):
    """The close-pair masks of a group coset, from each row's distance to row 0.

    The differences a - b of the row pairs of a coset s0 + H run over the
    nonzero elements of H, and so do the differences s - s0 from row 0.  So
    the masks are the supports of the rows at distance 1..k from row 0 that
    lie in the leading columns.
    """
    cells = array.cells
    near = np.flatnonzero((weights >= 1) & (weights <= k))
    chunk = max(1, _TILE_CELLS // cells.shape[1])
    for lo in range(0, near.size, chunk):
        differ = cells[near[lo : lo + chunk]] != cells[0]
        differ = differ[~differ[:, lead:].any(axis=1), :lead]
        if differ.size:
            yield differ


def _paired_masks(array: MixedArray, lead: int, k: int):
    """The close-pair masks, by comparing the row pairs that may be close.

    A close pair agrees on at least one of k + 1 blocks of the leading
    columns, so rows are grouped by their projection onto the trailing
    columns plus one block at a time, and only pairs inside a group are
    compared; a pair is yielded once per block it agrees on.
    """
    cells, levels = array.cells, array.levels
    r, n = cells.shape
    head = np.ascontiguousarray(cells[:, :lead].T)
    trailing = list(range(lead, n))
    blocks = np.array_split(np.arange(lead), k + 1) if lead > k else [np.arange(0)]
    chunk = max(1, _TILE_CELLS // lead)
    for block in blocks:
        keys = _projection_keys(cells, levels, trailing + block.tolist())
        order = np.argsort(keys, kind="stable")
        keys, columns = keys[order], head[:, order]
        for step in range(1, r):
            same = np.flatnonzero(keys[:-step] == keys[step:])
            if not same.size:
                break  # groups are contiguous runs of the sorted keys
            for lo in range(0, same.size, chunk):
                i = same[lo : lo + chunk]
                # one compare of every leading column at once: a tile of at
                # most 2^18 cells, and no Python loop over the columns
                differ = columns[:, i] != columns[:, i + step]
                near = np.count_nonzero(differ, axis=0) <= k
                if near.any():
                    yield differ[:, near].T


def _projection_keys(cells: np.ndarray, levels, columns: list[int]) -> np.ndarray:
    """Integers equal exactly when the rows' projections onto ``columns`` are."""
    if prod(levels[j] for j in columns) < 1 << 62:
        return subset_codes(cells, levels, columns)
    # too wide for one int64 code: number the distinct projections
    _, ids = np.unique(cells[:, columns], axis=0, return_inverse=True)
    return ids.reshape(-1)


def is_ame(array: MixedArray) -> bool:
    """Absolutely maximally entangled: uniform at k = floor(N / 2)."""
    n = array.ncols
    if n < 2:
        raise ParameterError("need at least two parties")
    return verify_k_uniform(array, n // 2).holds
