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
from itertools import accumulate, chain
from math import comb, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError
from .groups import _prime_factors, add_digits, decode, encode, sub_digits

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
    "cell_dtype",
]


@dataclass(frozen=True, eq=False)
class MixedArray:
    """An r x N symbol matrix with a per-column level profile.

    ``levels[j]`` is the number of symbols of column j; every cell obeys
    ``0 <= cells[i, j] < levels[j]``, checked on the caller's values before
    any cast.  Instances are immutable: the cell matrix is stored
    contiguous, non-writeable and in ``cell_dtype(levels)``, the narrowest
    unsigned dtype that holds every symbol (uint8 up to 256 levels), or
    int64 above 2^32 levels.  Arithmetic on narrow cells keeps their dtype
    and wraps, so widen them first; ``oakit.groups`` does so itself.
    """

    levels: tuple[int, ...]
    cells: np.ndarray

    def __post_init__(self) -> None:
        levels = tuple(int(d) for d in self.levels)
        cells = np.asarray(self.cells)
        if cells.dtype.kind not in "iu":  # float, bool, complex, ... would be cast silently
            raise ParameterError(f"cells must have an integer dtype, got {cells.dtype}")
        if cells.ndim != 2:
            raise ParameterError(f"cells must be 2-D, got shape {cells.shape}")
        r, n = cells.shape
        if r < 1 or n < 1:
            raise ParameterError(f"need at least one row and one column, got {r}x{n}")
        if len(levels) != n:
            raise ParameterError(f"{n} columns but {len(levels)} level entries")
        if any(d < 2 for d in levels):
            raise ParameterError(f"levels must all be >= 2, got {levels}")
        # the range checks read the caller's values, which no cast has wrapped yet
        if cells.dtype.kind == "i" and cells.min() < 0:
            raise ParameterError("negative symbol")
        tops = cells.max(axis=0).tolist()
        for j, (top, d) in enumerate(zip(tops, levels)):
            if top >= d:
                raise ParameterError(f"column {j} holds symbol {top} but has only {d} levels")
        dtype = cell_dtype(levels)
        if max(tops) > np.iinfo(dtype).max:  # int64, under a level above 2^63
            raise ParameterError(f"symbol {max(tops)} is outside the int64 range")
        cells = np.ascontiguousarray(cells, dtype=dtype)
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


# cells per tile of row pairs (distance_spectrum, verify_k_uniform) or of ANDed row-set words
_TILE_CELLS = 1 << 18

# verify_strength's cost model, in rough nanoseconds on one core
_SUBSET_NS = 10000  # the subset loop's fixed cost per subset
_ROW_NS = 6  # the subset loop's cost per row of each subset
_CALL_NS = 60000  # the row-set path's fixed cost per call
_PACK_NS = 2  # its cost per row and slot, to pack the row sets
_PREFIX_NS = 120000  # its fixed cost per prefix
_WORD_NS = 3  # its cost per ANDed and counted 64-bit word


def cell_dtype(levels: Iterable[int]) -> np.dtype:
    """The dtype that `MixedArray` stores cells over ``levels`` in.

    It is the narrowest of uint8, uint16 and uint32 that holds
    max(levels) - 1, or int64 when none does.  The kernels size their
    codes and distance counts by the same rule: a value below v is a
    symbol of v levels.
    """
    top = max(levels) - 1
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def subset_codes(cells: np.ndarray, levels: Sequence[int], subset: Sequence[int]) -> np.ndarray:
    """Mixed-radix encoding of each row's projection onto ``subset``.

    The first column of the subset is the most significant digit, so code
    order equals lexicographic tuple order.
    """
    if len(subset) == 0:
        return np.zeros(cells.shape[0], dtype=np.int64)
    return encode([cells[:, j] for j in subset], [levels[j] for j in subset])


def verify_strength(array: MixedArray, k: int) -> StrengthReport:
    """Exact strength check: every k-column tuple count equals r / prod(d).

    Subsets are scanned in lexicographic order; the first failing subset and
    its lexicographically first bad tuple are reported.  A subset whose level
    product does not divide r fails with a divisibility witness.

    The row sets vouch and the loop reports.  The subset loop,
    ``_strength_loop``, makes one ``bincount`` of mixed-radix codes per
    k-subset and builds every report.  Once its first subset holds, and
    ``_bitsets_cheaper`` expects a full scan from packed r-bit row sets to
    cost less than one by the loop (from the shape alone; at k = 2 and 3
    only), it asks the row sets, ``_strength_bitsets``, for the first subset
    they cannot vouch for, and resumes there, or holds if there is none.
    The row sets pay off on wide arrays with few levels; they can only
    answer "holds", so every report is that of the lexicographic scan.
    """
    n = array.ncols
    if k < 0:
        raise ParameterError(f"strength must be >= 0, got {k}")
    if k > n:
        raise ParameterError(f"strength {k} exceeds column count {n}")
    if k == 0:
        return StrengthReport(0, True, array.runs)
    return _strength_loop(array, k)


def _bitsets_cheaper(levels: tuple[int, ...], r: int, k: int) -> bool:
    """Whether the row-set path should beat the subset loop on a full scan.

    Only k = 2 and k = 3 may take the row sets.  The loop costs
    C(N, k) * (per-subset overhead + r).  The row-set path costs a packing
    pass, an overhead per prefix, and the words it counts: per prefix symbol
    tuple, the margins of every later column and the box of every later
    column pair.  At k = 2 the one prefix is empty, with one tuple; at k = 3
    the prefixes are the single columns c <= N - 3, with ``levels[c]`` tuples.
    """
    if k not in (2, 3):
        return False
    n = len(levels)
    # slots and box slots of the columns from m on, and box slot pairs of
    # the column pairs from m on
    after = [*accumulate(reversed(levels), initial=0)][::-1]
    box_after = [*accumulate((d - 1 for d in reversed(levels)), initial=0)][::-1]
    box_pairs = ((levels[j] - 1) * box_after[j + 1] for j in reversed(range(n)))
    pairs = [*accumulate(box_pairs, initial=0)][::-1]
    # (symbol tuples, first later column) of each prefix
    prefixes = [(1, 0)] if k == 2 else [(levels[c], c + 1) for c in range(n - 2)]
    slot_pairs = sum(t * (pairs[m] + after[m]) for t, m in prefixes)
    bitsets = (
        _CALL_NS
        + _PACK_NS * r * after[0]
        + _PREFIX_NS * len(prefixes)
        + _WORD_NS * slot_pairs * -(-r // 64)
    )
    return bitsets < comb(n, k) * (_SUBSET_NS + _ROW_NS * r)


def _strength_loop(array: MixedArray, k: int) -> StrengthReport:
    """The subset loop: one ``bincount`` per k-subset, in lexicographic order.

    The columns are scanned from one column-major copy of the cells.
    ``codes[i]`` holds the mixed-radix code of each row's projection onto
    the first i + 1 columns of the subset, in ``cell_dtype((r,))``; consecutive
    subsets share a prefix, so a subset costs one multiply-add per position
    from the first one that changed, most often the last alone.  A subset's
    level product is checked to divide r before any of its codes are built,
    so every code is below r; the product it fails with is its divisibility
    witness.  Its counts, which sum to r over as many bins as the product,
    are all the index iff their maximum is; otherwise the smallest
    miscounted code is its first bad tuple.  Once the first subset holds,
    the row sets may vouch for a run of subsets (see ``verify_strength``),
    and the scan resumes at the first one they do not vouch for.
    """
    r, n = array.cells.shape
    levels = array.levels
    columns = np.ascontiguousarray(array.cells.T)
    if columns.dtype.kind == "i":  # int64 cells, never negative: unsigned codes add uint64
        columns = columns.view(np.uint64)
    codes = np.empty((k, r), dtype=cell_dtype((r,)))
    dims = [1] * (k + 1)  # dims[i + 1]: the level product of the first i + 1 columns
    subset = list(range(k))
    changed = 0  # the first position of subset that differs from the last one scanned
    vouch = _bitsets_cheaper(levels, r, k)  # whether the row sets still get their turn
    while True:
        for i in range(changed, k):
            dims[i + 1] = dims[i] * levels[subset[i]]
        if r % dims[k]:
            witness = StrengthWitness(tuple(subset), None, None, Fraction(r, dims[k]))
            return StrengthReport(k, False, None, witness)
        for i in range(changed, k):
            if i == 0:
                codes[0] = columns[subset[0]]
            else:
                np.multiply(codes[i - 1], levels[subset[i]], out=codes[i])
                codes[i] += columns[subset[i]]
        counts = np.bincount(codes[k - 1], minlength=dims[k])
        lam = r // dims[k]
        if counts.max() != lam:
            code = int(np.argmax(counts != lam))
            symbols = decode(code, [levels[j] for j in subset])
            witness = StrengthWitness(tuple(subset), symbols, int(counts[code]), Fraction(lam))
            return StrengthReport(k, False, None, witness)
        if vouch:
            vouch = False
            start = _strength_bitsets(array, k)
            if start is None:
                break
            subset, changed = list(start), 0
            continue
        # the next subset in lexicographic order: raise the last position
        # that can still rise and restart the ones after it
        changed = k - 1
        while changed >= 0 and subset[changed] == n - k + changed:
            changed -= 1
        if changed < 0:
            break
        subset[changed] += 1
        for i in range(changed + 1, k):
            subset[i] = subset[i - 1] + 1
    # every k-subset has the same level product iff all levels are equal or
    # there is only one subset: otherwise swapping in a column of another
    # level changes it
    if len(set(levels)) > 1 and k < n:
        return StrengthReport(k, True, None)
    return StrengthReport(k, True, r // prod(levels[:k]))


def _row_sets(array: MixedArray) -> tuple[np.ndarray, list[int]]:
    """Packed row sets, one per (column, symbol), and each column's first slot.

    Slot ``offsets[j] + s`` holds the rows where column j reads s, as bit
    (i mod 64) of word (i div 64).  The result is word-major, W x slots of
    uint64, so that a column's slots are a slice of every word row.  The
    one-hot bits are set and packed a block of columns at a time, each
    block's flat one-hot index and bits at most a tile of ``_TILE_CELLS``
    (or one column's worth).
    """
    r, n = array.cells.shape
    offsets = [0, *accumulate(array.levels)]
    padded = -(-r // 64) * 64
    packed = np.empty((offsets[-1], padded // 8), dtype=np.uint8)
    rows = np.arange(r)
    step = max(1, _TILE_CELLS // (padded * max(array.levels)))  # columns per block
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        # the flat one-hot index of every cell of the block, built in place
        index = array.cells[:, lo:hi].T + np.asarray(offsets[lo:hi])[:, None] - offsets[lo]
        index *= padded
        index += rows
        onehot = np.zeros((offsets[hi] - offsets[lo], padded), dtype=bool)
        onehot.ravel()[index] = True
        packed[offsets[lo] : offsets[hi]] = np.packbits(onehot, axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view(np.uint64).T), offsets


def _miscounted(
    left: np.ndarray, right: np.ndarray, left_d: np.ndarray, right_d: np.ndarray, r: int
) -> np.ndarray:
    """``out[a, b]``: whether the rows that ``left[:, a]`` and ``right[:, b]``
    share number other than r / (left_d[a] * right_d[b]).

    A count is right iff it times the level product is r, so a product
    that does not divide r always miscounts.  Both row-set operands are
    word-major.  The ANDed words are counted in tiles of at most
    ``_TILE_CELLS`` words, and each tile's counts are checked before the
    next tile, so memory stays bounded for any slot counts.
    """
    w, a = left.shape
    b = right.shape[1]
    b_step = max(1, min(b, _TILE_CELLS // w))
    a_step = max(1, min(a, _TILE_CELLS // (w * b_step)))
    tile = np.empty(w * a_step * b_step, dtype=np.uint64)
    bits = tile.view(np.uint8)  # each popcount byte overwrites a word already counted
    counts = np.empty(a_step * b_step, dtype=np.min_scalar_type(r))  # a count is at most r
    out = np.empty((a, b), dtype=bool)
    for lo in range(0, a, a_step):
        hi = min(a, lo + a_step)
        for start in range(0, b, b_step):
            stop = min(b, start + b_step)
            shape = (hi - lo, stop - start)
            t = tile[: w * shape[0] * shape[1]].reshape(w, *shape)
            np.bitwise_and(left[:, lo:hi, None], right[:, None, start:stop], out=t)
            p = np.bitwise_count(t, out=bits[: t.size].reshape(t.shape))
            c = np.add.reduce(p, axis=0, out=counts[: shape[0] * shape[1]].reshape(shape))
            product = left_d[lo:hi, None] * right_d[start:stop]
            np.not_equal(c * product, r, out=out[lo:hi, start:stop])
    return out


def _strength_bitsets(array: MixedArray, k: int) -> tuple[int, ...] | None:
    """The row-set voucher, at k = 2 or 3: the first k-subset it cannot vouch for.

    Every k-subset before the one returned is balanced; None vouches for
    all of them.  Each (k - 2)-column prefix, in lexicographic order, has
    the row sets of its symbol tuples: at k = 2 the empty prefix's one
    tuple, met by every row, and at k = 3 a column's own row sets.  A table
    of counts over two next columns (a, b) is all lambda iff its two
    margins are, which are the counts of prefix + (a) and prefix + (b), and
    so is the box without the last symbol of a and of b.  So each prefix
    counts the margins of its later columns once; one that miscounts stops
    the vouching at the prefix's first subset.  Then it counts the box of
    every pair, in blocks of consecutive columns a, each against every
    column after the block's first; a slot pair (a < b) that miscounts,
    which it does whenever the pair's level product times the prefix's
    does not divide r, stops it at the block's first subset.  A block ANDs
    at most an eighth of a tile of words (or one column's worth), so an
    early failure costs little more than its margins.
    """
    r, n = array.cells.shape
    levels = array.levels
    sets, offsets = _row_sets(array)
    d = np.asarray(levels, dtype=np.int64)
    slot_levels = np.repeat(d, d)
    # the box's row sets: every column's slots but its last, from starts[c] on
    box = np.ascontiguousarray(np.delete(sets, np.subtract(offsets[1:], 1), axis=1))
    box_levels = np.repeat(d, d - 1)
    box_column = np.repeat(np.arange(n), d - 1)
    starts = np.subtract(offsets, np.arange(n + 1))
    if k == 2:
        everyone = np.bitwise_or.reduce(sets[:, : levels[0]], axis=1, keepdims=True)
        prefixes = [((), 1, everyone)]
    else:  # the columns that leave two later ones
        prefixes = (((c,), levels[c], sets[:, offsets[c] : offsets[c + 1]]) for c in range(n - 2))
    for prefix, d_prefix, prefix_sets in prefixes:
        j = prefix[-1] + 1 if prefix else 0
        later = slice(offsets[j], None)
        left_d = np.full(prefix_sets.shape[1], d_prefix)
        if _miscounted(prefix_sets, sets[:, later], left_d, slot_levels[later], r).any():
            return (*prefix, j, j + 1)
        w, tuples = prefix_sets.shape
        while j < n - 1:
            right = slice(starts[j + 1], starts[n])
            width = right.stop - right.start
            # the block ends at the last column whose box slots keep its ANDed words in budget
            reach = starts[j] + (_TILE_CELLS >> 3) // (w * tuples * width)
            end = min(n - 1, max(j + 1, int(np.searchsorted(starts, reach, "right")) - 1))
            left = slice(starts[j], starts[end])
            left_sets = (prefix_sets[:, :, None] & box[:, None, left]).reshape(w, -1)
            left_d = np.tile(d_prefix * box_levels[left], tuples)
            bad = _miscounted(left_sets, box[:, right], left_d, box_levels[right], r)
            bad = bad.reshape(tuples, -1, width).any(axis=0)
            if (bad & (box_column[left, None] < box_column[right])).any():
                return (*prefix, j, j + 1)
            j = end
    return None


def _split_radices(d: int) -> tuple[int, ...]:
    """The digit radices of d split into its prime-power factors.

    The factors go in ascending order, most significant first, each as
    GF(p^m)'s additive group on its base-p labels, (p,) * m: the "gf" group
    for a prime power, and ``product_construction``'s symbol pairing for a
    product of coprime ones.
    """
    factors = []
    for p in _prime_factors(d):
        digits = []
        while d % p == 0:
            d //= p
            digits.append(p)
        factors.append(digits)
    return tuple(chain.from_iterable(sorted(factors, key=prod)))


def _coset_weights(array: MixedArray) -> np.ndarray | None:
    """Each row's Hamming distance from row 0, if the rows form a group coset.

    Returns None unless the rows are distinct and form a coset s0 + H of a
    subgroup H of the product of the column groups, each level split into
    its prime-power factors as GF(q) digits (``_split_radices``).  For such
    an array the differences between a row and the others run over
    H \\ {0} once, whatever the row, so the distances from row 0 are the
    distances from every row.  A level above 2^32 returns None before it
    is factored: trial division up to its square root could take minutes,
    and no builder makes one.

    The check is exact.  A few sums of rows are looked for among the rows
    first, which rejects most other arrays for the cost of a few scans.
    Each column must then take its symbols equally often, which rejects a
    group array with a changed cell in one pass, and no row may repeat.
    Then H is grown from generators, one coset of the part grown so far at
    a time, and every element must be a row; the rows are a coset once the
    part grown reaches r elements.  Rows are looked up by their bytes in
    the stored cells, in chunks of at most 2^18 cells.
    """
    levels = array.levels
    cells = array.cells
    r, n = cells.shape
    if r == 1 or prod(levels) % r:  # |H| divides the order of the product
        return None
    if max(levels) > 1 << 32:  # no level is split by more than 2^16 trial divisions
        return None
    split_level = {d: _split_radices(d) for d in set(levels)}
    if not _is_coset(cells, [split_level[d] for d in levels]):
        return None
    chunk = max(1, _TILE_CELLS // n)
    blocks = (cells[lo : lo + chunk] != cells[0] for lo in range(0, r, chunk))
    return np.concatenate([np.count_nonzero(b, axis=1) for b in blocks])


def _sorted_rows(narrow: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """The rows' bytes as void keys, the order that sorts them, and whether a row repeats.

    ``narrow`` is C-contiguous.  A repeated row sorts next to its copy, so
    neighbours in the order are compared, in chunks of at most 2^18 cells.
    """
    r, n = narrow.shape
    keys = narrow.view(np.dtype((np.void, n * narrow.itemsize))).ravel()
    order = np.argsort(keys)
    chunk = max(1, _TILE_CELLS // n)
    for lo in range(0, r - 1, chunk):
        near = keys[order[lo : lo + chunk + 1]]
        if (near[1:] == near[:-1]).any():
            return keys, order, True
    return keys, order, False


def _is_coset(narrow: np.ndarray, radices: list[tuple[int, ...]]) -> bool:
    """Whether the rows of ``narrow`` are distinct and form a coset of a subgroup.

    The group is the product over columns of the digit-wise groups on
    ``radices[j]``.  ``narrow`` is C-contiguous and unsigned; group sums,
    which ``groups`` computes in int64, are cast back to its dtype so that
    their bytes are keys of its rows.
    """
    r, n = narrow.shape
    depth = max(map(len, radices))
    # per digit position, most significant first, each column's radix, with
    # radix 1 padding the columns that have fewer digits: the digit format
    # of ``groups`` taken column-wise
    padded = [(1,) * (depth - len(rs)) + rs for rs in radices]
    digits = list(np.array(padded, dtype=np.int64).T)
    binary = all(d == 2 for rs in radices for d in rs)

    def add(x, t):
        """x + t in the group, row-wise: over binary digits, XOR."""
        return x ^ t if binary else add_digits(x, t, digits).astype(narrow.dtype)

    def minus(i):
        """row i - row 0 in the group."""
        return sub_digits(narrow[i], narrow[0], digits).astype(narrow.dtype)

    def has_row(row):
        hits = np.flatnonzero(narrow[:, 0] == row[0])
        return bool((narrow[hits] == row).all(axis=1).any())

    # row i + (row j - row 0) is a row of every coset: cheap probes first
    for i, j in ((1, r - 1), (r // 2, 1), (r - 1, r - 1)):
        if not has_row(add(narrow[i], minus(j))):
            return False
    chunk = max(1, _TILE_CELLS // n)
    # each column of a coset takes the symbols it takes equally often, which
    # a changed cell upsets
    levels = [prod(rs) for rs in radices]
    offsets = np.cumsum([0, *levels[:-1]])
    counts = np.zeros(sum(levels), dtype=np.int64)
    for lo in range(0, r, chunk):
        counts += np.bincount((narrow[lo : lo + chunk] + offsets).ravel(), minlength=counts.size)
    seen = np.where(counts, counts, r)
    if (np.maximum.reduceat(counts, offsets) != np.minimum.reduceat(seen, offsets)).any():
        return False
    keys, order, repeated = _sorted_rows(narrow)
    if repeated:
        return False

    def shift(members, t):
        """The row index of each member's row + t, or None if one is not a row."""
        out = np.empty_like(members)
        for lo in range(0, members.size, chunk):
            wanted = add(narrow[members[lo : lo + chunk]], t).view(keys.dtype).ravel()
            found = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), r - 1)]
            if (keys[found] != wanted).any():
                return None
            out[lo : lo + chunk] = found
        return out

    # members: the rows of s0 + H for the part H grown so far, row 0 first
    members = np.zeros(1, dtype=np.intp)
    grown = np.zeros(r, dtype=bool)
    grown[0] = True
    while members.size < r:
        t = minus(int(np.argmin(grown)))  # a row outside s0 + H gives a new generator
        cosets, layer = [members], members
        while True:  # the cosets s0 + H + c t, until c t falls in H
            layer = shift(layer, t)
            if layer is None:
                return False
            if grown[layer[0]]:
                break
            grown[layer] = True
            cosets.append(layer)
        members = np.concatenate(cosets)
    return True


def _spectrum(counts: np.ndarray) -> DistanceSpectrum:
    """The spectrum of per-distance pair counts."""
    attained = np.flatnonzero(counts)
    return DistanceSpectrum(
        tuple(int(d) for d in attained),
        int(attained[0]),
        {int(d): int(counts[d]) for d in attained},
    )


def distance_spectrum(array: MixedArray) -> DistanceSpectrum:
    """Exact Hamming distances over all row pairs.

    When the rows are a group coset (``_coset_weights``), the pairs at
    distance w number r * A_w / 2, where A_w counts the rows at distance w
    from row 0: one pass over the rows instead of r^2 / 2 pair compares.
    Every other array, repeated rows included, goes to ``_pair_spectrum``,
    which compares the pairs; both give the same spectrum.

    A one-row array has the conventional empty spectrum with minimal
    distance N + 1 so that irredundancy predicates degrade gracefully.
    """
    r, n = array.cells.shape
    if r == 1:
        return DistanceSpectrum((), n + 1, {})
    weights = _coset_weights(array)
    if weights is None:
        return _pair_spectrum(array)
    counts = np.bincount(weights, minlength=n + 1) * r // 2
    counts[0] = 0  # the rows are distinct: row 0 is the only one at distance 0
    return _spectrum(counts)


def _pair_spectrum(array: MixedArray) -> DistanceSpectrum:
    """The spectrum of an array of at least two rows, one row pair at a time.

    Rows are compared in tiles: a block of b consecutive rows against itself
    and every later row, with b * r <= 2^18 cells.  Besides one transposed
    copy of the cells, the working memory is one boolean and one distance
    tile of at most 2^18 cells each, reused across tiles: under 1 MiB at
    any row count.  A boolean tile is added through its uint8 view, which
    skips the bool-to-integer casting loop.
    """
    r, n = array.cells.shape
    columns = np.ascontiguousarray(array.cells.T)
    b = max(1, min(r, _TILE_CELLS // r))
    unequal = np.empty(b * r, dtype=bool)
    dist = np.empty(b * r, dtype=cell_dtype((n + 1,)))
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
            np.add(acc, tile.view(np.uint8), out=acc)
        counts += np.bincount(acc[:, :h][later[:h, :h]], minlength=n + 1)
        for top in range(0, h, count_rows):
            counts += np.bincount(acc[top : top + count_rows, h:].ravel(), minlength=n + 1)
    return _spectrum(counts)


def min_distance(array: MixedArray) -> int:
    """The least Hamming distance between two rows (N + 1 for a single row).

    A repeated row makes it 0, which one sort of the rows finds before any
    pair is compared.
    """
    if _sorted_rows(array.cells)[2]:
        return 0
    return distance_spectrum(array).min_distance


def is_irredundant(array: MixedArray, k: int) -> IrredundancyReport:
    """True iff all rows of every r x (N-k) subarray are distinct.

    Two rows that agree on some N-k columns differ in at most k places, so the
    criterion is exactly min_distance >= k + 1; the report carries that
    measured distance, 0 from a repeated row, which one sort of the rows
    finds before any pair is compared.  The direct subarray enumeration is
    the test oracle ``naive_irredundant``.
    """
    n = array.ncols
    if not 1 <= k < n:
        raise ParameterError(f"irredundancy strength must satisfy 1 <= k < {n}, got {k}")
    if _sorted_rows(array.cells)[2]:
        return IrredundancyReport(k, False, 0)
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
