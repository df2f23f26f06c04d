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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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


# cells per tile: of row pairs compared (the split kernel, verify_k_uniform's
# close pairs) or of rows read at once
_TILE_CELLS = 1 << 18

# the split kernel's cap on the distance patterns prod(n_c + 1) of the level
# classes: every code then fits a uint16 accumulator
_SPLIT_PATTERNS = 1 << 16

# verify_strength's cost model, in rough nanoseconds on one core
_SUBSET_NS = 5000  # the subset loop's fixed cost per subset
_ROW_NS = 3  # the subset loop's cost per row of each subset
_PASS_NS = 300000  # the split pass's fixed cost: the coset test, the sums
_PAIR_CELLS_PER_NS = 3  # row pair cells, one pair in one column, the pass compares
_COSET_NS = 60  # the pass's cost per cell of a coset's rows


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

    The loop runs first and reports; a split pass may vouch.  The subset
    loop, ``_strength_loop``, builds every report.  Once its first N - k + 1
    subsets hold, and ``_split_cheaper`` expects one split pass to cost
    less than the rest of the loop, it asks ``_voucher``, whose pass can
    only answer "holds" (``_vanishes``); on any other answer the loop
    carries on where it stopped, so every report is that of the
    lexicographic scan.
    """
    return _strength_loop(array, k)[0]


def _split_cheaper(levels: tuple[int, ...], r: int, k: int, coset: bool) -> bool:
    """Whether one split pass should cost less than the subset loop after its first run.

    That is C(N, k) - (N - k + 1) subsets at an overhead plus r each, against
    an overhead plus r(r - 1)/2 row pairs in N columns, or r rows of a group
    coset (``coset``).
    """
    n = len(levels)
    if k < 2:
        return False
    rest = (comb(n, k) - (n - k + 1)) * (_SUBSET_NS + _ROW_NS * r)
    cost = r * n * _COSET_NS if coset else r * (r - 1) // 2 * n // _PAIR_CELLS_PER_NS
    return _PASS_NS + cost < rest


def _strength_loop(array: MixedArray, k: int) -> tuple[StrengthReport, np.ndarray | None]:
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
    miscounted code is its first bad tuple.  Once the first run of subsets,
    (0, ..., k - 2, j) for every j, holds, the split pass may vouch for the
    rest (see ``verify_strength``).  Returns the report and, whenever that
    pass ran, whether or not it vouched, its per-distance pair counts
    (``_distances``), else None.  Strength 0 holds with no loop.
    """
    r, n = array.cells.shape
    if k < 0:
        raise ParameterError(f"strength must be >= 0, got {k}")
    if k > n:
        raise ParameterError(f"strength {k} exceeds column count {n}")
    if k == 0:
        return StrengthReport(0, True, r), None
    levels = array.levels
    columns = np.ascontiguousarray(array.cells.T)
    if columns.dtype.kind == "i":  # int64 cells, never negative: unsigned codes add uint64
        columns = columns.view(np.uint64)
    codes = np.empty((k, r), dtype=cell_dtype((r,)))
    dims = [1] * (k + 1)  # dims[i + 1]: the level product of the first i + 1 columns
    subset = list(range(k))
    changed = 0  # the first position of subset that differs from the last one scanned
    distances = None
    while True:
        for i in range(changed, k):
            dims[i + 1] = dims[i] * levels[subset[i]]
        if r % dims[k]:
            witness = StrengthWitness(tuple(subset), None, None, Fraction(r, dims[k]))
            return StrengthReport(k, False, None, witness), distances
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
            return StrengthReport(k, False, None, witness), distances
        # the next subset in lexicographic order: raise the last position
        # that can still rise and restart the ones after it
        changed = k - 1
        while changed >= 0 and subset[changed] == n - k + changed:
            changed -= 1
        if changed < 0:
            break
        # only the first run has the prefix 0, ..., k - 2
        if changed < k - 1 and subset[k - 2] == k - 2:
            vouched, distances = _voucher(array, k)
            if vouched:
                break
        subset[changed] += 1
        for i in range(changed + 1, k):
            subset[i] = subset[i - 1] + 1
    return _holds(levels, r, k), distances


def _holds(levels: tuple[int, ...], r: int, k: int) -> StrengthReport:
    """The report of strength k, 1 <= k <= N, found to hold."""
    # every k-subset has the same level product iff all levels are equal or
    # there is only one subset: otherwise swapping in a column of another
    # level changes it
    if len(set(levels)) > 1 and k < len(levels):
        return StrengthReport(k, True, None)
    return StrengthReport(k, True, r // prod(levels[:k]))


def _voucher(array: MixedArray, k: int) -> tuple[bool, np.ndarray | None]:
    """Whether one split pass vouches for strength k, and its per-distance pair counts.

    The pass runs on the pairs if ``_split_cheaper`` says so, else on a
    coset's rows if it says that and the rows are one; not at all above
    ``_SPLIT_PATTERNS``.  When it does not run: (False, None).
    """
    r, levels = array.runs, array.levels
    groups = _split_groups(levels)
    pairs = _split_cheaper(levels, r, k, coset=False)
    if groups is None or not (pairs or _split_cheaper(levels, r, k, coset=True)):
        return False, None
    counts = _split_counts(array, groups, compare=pairs)
    if counts is None:
        return False, None
    return _vanishes(counts, groups, array, k), _distances(counts, groups)


def _strength_and_spectrum(array: MixedArray, k: int) -> tuple[StrengthReport, DistanceSpectrum]:
    """``verify_strength`` and ``distance_spectrum`` with one split pass.

    The spectrum is read from the counts of the pass the loop's voucher
    made, or, when it made none, from one ``distance_spectrum`` call.
    """
    report, distances = _strength_loop(array, k)
    return report, distance_spectrum(array) if distances is None else _spectrum(distances)


def _split_groups(levels: tuple[int, ...]) -> list[np.ndarray] | None:
    """The columns of each level class, by ascending level; None above ``_SPLIT_PATTERNS``."""
    classes = Counter(levels)
    if prod(n_c + 1 for n_c in classes.values()) > _SPLIT_PATTERNS:
        return None
    return [np.flatnonzero([d == c for d in levels]) for c in sorted(classes)]


def _plain(n: int) -> list[np.ndarray]:
    """One class of every column: unit strides, whose codes are the distances."""
    return [np.arange(n)]


def _krawtchouk(n: int, q: int, top: int) -> list[list[int]]:
    """K_j(w; n, q) of the Hamming scheme for j = 0..top (rows) and w = 0..n.

    By the three-term recurrence, exact in Python ints, from K_0 = 1, K_-1 = 0:
    (j + 1) K_{j+1}(w) = ((n - j)(q - 1) + j - q w) K_j(w) - (q - 1)(n - j + 1) K_{j-1}(w).
    """
    rows, prev = [[1] * (n + 1)], [0] * (n + 1)
    for j in range(top):
        a, b = (n - j) * (q - 1) + j, (q - 1) * (n - j + 1)
        terms = enumerate(zip(rows[-1], prev))
        rows.append([((a - q * w) * x - b * y) // (j + 1) for w, (x, y) in terms])
        prev = rows[-2]
    return rows


def _vanishes(counts: np.ndarray, groups: list[np.ndarray], array: MixedArray, k: int) -> bool:
    """Whether split pair counts show strength k: B_j = 0 for every type 1 <= |j| <= k.

    A_w counts the ordered row pairs (i = j included) whose distance within
    each level class c is w_c: twice the unordered ``counts``, plus r at
    w = 0.  B_j = sum_w A_w prod_c K_{j_c}(w_c; n_c, d_c) is the sum of
    |sum_rows chi(row)|^2 over the characters chi of the column groups Z_d
    supported on a column set of type j, so it vanishes iff every
    projection onto such a set is uniform (Delsarte 1973; Sloane & Stufken
    1996 for mixed levels), for any labels and any multiset of rows.  A is
    contracted with each class's Krawtchouk table in turn, in Python ints.
    """
    b = counts.astype(object) * 2
    b[0] += array.runs
    b = b.reshape([len(g) + 1 for g in groups])
    for g in groups:  # the class's distance axis becomes its type axis, last
        table = np.array(_krawtchouk(len(g), array.levels[g[0]], min(k, len(g))), dtype=object)
        b = np.tensordot(b, table, axes=([0], [1]))
    types = np.indices(b.shape).sum(axis=0)
    return not b[(types >= 1) & (types <= k)].any()


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


def _coset_weights(array: MixedArray, groups: list[np.ndarray] | None = None) -> np.ndarray | None:
    """Each row's split code from row 0 (see ``_split_counts``), if the rows form a group coset.

    By default (``_plain``) the code is the Hamming distance.  Returns None
    unless the rows are distinct and form a coset s0 + H of a subgroup H of
    the product of the column groups, each level split into its prime-power
    factors as GF(q) digits (``_split_radices``).  For such an array the
    differences between a row and the others run over H \\ {0} once,
    whatever the row, so the codes from row 0 are those from every row.  A level above 2^32 returns
    None before it is factored: trial division up to its square root could
    take minutes, and no builder makes one.

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
    codes = np.zeros(r, dtype=np.int64)
    for lo in range(0, r, chunk):
        differ = cells[lo : lo + chunk] != cells[0]
        for g in groups or _plain(n):  # Horner's rule over the classes
            codes[lo : lo + chunk] *= len(g) + 1
            codes[lo : lo + chunk] += np.count_nonzero(differ[:, g], axis=1)
    return codes


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
    # GF(2^m) digits are all binary, and their sum is XOR on the labels:
    # bush_oa_even(16)'s test takes 3.0 ms so, against 10.8 ms through
    # add_digits (min of 21 calls, 2 cores)
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
    """The spectrum of the pair counts at distances 0..N; with no pair, minimal distance N + 1."""
    attained = np.flatnonzero(counts)
    return DistanceSpectrum(
        tuple(int(d) for d in attained),
        int(attained[0]) if attained.size else counts.size,
        {int(d): int(counts[d]) for d in attained},
    )


def distance_spectrum(array: MixedArray) -> DistanceSpectrum:
    """Exact Hamming distances over all row pairs.

    The split kernel, ``_split_counts``, counts the pairs with unit strides,
    so that a pair's code is its distance.  When the rows are a group coset
    the pairs at distance w number r * A_w / 2, where A_w counts the rows
    at distance w from row 0: one pass over the rows instead of r^2 / 2
    pair compares.  Every other array, repeated rows included, has its
    pairs compared; both give the same spectrum.

    A one-row array has the conventional empty spectrum with minimal
    distance N + 1 so that irredundancy predicates degrade gracefully.
    """
    return _spectrum(_split_counts(array, _plain(array.ncols)))


def _split_counts(
    array: MixedArray, groups: list[np.ndarray], compare: bool = True
) -> np.ndarray | None:
    """The split kernel: unordered row pairs counted by their split distance code.

    ``groups`` lists the columns of each level class, most significant
    first.  A column's stride is the product of (n_c + 1) over the later
    classes, and a pair's code is the sum of the strides where its rows
    differ; with one class (``_plain``) the strides are 1 and the code is
    the distance.  A group coset has r/2 pairs per row at each code from
    row 0 (``_coset_weights``); other arrays have their pairs compared
    (``_pair_counts``), or give None unless ``compare``.
    """
    codes = _coset_weights(array, groups)
    if codes is None:
        return _pair_counts(array, groups) if compare else None
    counts = np.bincount(codes, minlength=prod(len(g) + 1 for g in groups)) * array.runs // 2
    counts[0] = 0
    return counts


def _distances(counts: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Per-distance pair counts from split counts: each code's digits summed."""
    out = np.zeros(sum(map(len, groups)) + 1, dtype=np.int64)
    attained = np.flatnonzero(counts)
    digits = np.unravel_index(attained, [len(g) + 1 for g in groups])
    np.add.at(out, sum(digits), counts[attained])
    return out


def _pair_counts(array: MixedArray, groups: list[np.ndarray]) -> np.ndarray:
    """Split counts of an array, one row pair at a time.

    Rows are compared in tiles: a block of b consecutive rows against itself
    and every later row, with b * r <= 2^18 cells.  Codes accumulate by
    Horner's rule: each class multiplies the tile by n_c + 1, then its
    columns add 1 where the rows differ.  Besides one transposed copy of
    the cells, the working memory is one boolean and one code tile of at
    most 2^18 cells each, reused across tiles: under 1 MiB at any row
    count.  A boolean tile is added through its uint8 view, which skips
    the bool-to-integer casting loop.  One row has no pair, which
    ``_spectrum`` reads as minimal distance N + 1.
    """
    r, n = array.cells.shape
    size = prod(len(g) + 1 for g in groups)
    columns = np.ascontiguousarray(array.cells.T)
    b = max(1, min(r, _TILE_CELLS // r))
    unequal = np.empty(b * r, dtype=bool)
    code = np.empty(b * r, dtype=cell_dtype((size,)))
    later = np.triu(np.ones((b, b), dtype=bool), 1)  # j > i inside the diagonal block
    # bincount copies its input to int64: count 2^15 cells at a time so that
    # the copy is no larger than one tile
    count_rows = max(1, (_TILE_CELLS >> 3) // r)
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(0, r - 1, b):
        h, w = min(b, r - lo), r - lo
        tile = unequal[: h * w].reshape(h, w)
        acc = code[: h * w].reshape(h, w)
        acc.fill(0)
        for c, g in enumerate(groups):
            if c:
                acc *= len(g) + 1
            for j in g:
                np.not_equal(columns[j, lo : lo + h, None], columns[j, None, lo:], out=tile)
                np.add(acc, tile.view(np.uint8), out=acc)
        counts += np.bincount(acc[:, :h][later[:h, :h]], minlength=size)
        for top in range(0, h, count_rows):
            counts += np.bincount(acc[top : top + count_rows, h:].ravel(), minlength=size)
    return counts


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
    md = min_distance(array)
    return IrredundancyReport(k, md >= k + 1, md)


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
