"""Backtracking search for small arrays, schemes, and partitions.

One engine, ``_backtrack``, fills rows top-down under a canonical form that
touches every isomorphism class at least once: the first row is all zeros
(per-column symbol relabeling), rows are lexicographically nondecreasing
(row permutation), and columns with the same symbol range are
lexicographically nondecreasing as vectors (column permutation).  Pruning
uses exact partial counters plus an optional distance floor.  The search is
defined cell by cell: depth-first, ascending symbols, one node per (cell,
symbol) tried, which makes the first result, the node count, and therefore
every verdict, deterministic.

The engine walks it a row at a time.  A row's candidates are the tuples of
the searched columns in lexicographic order, at most ``CANDIDATE_CAP`` of
them, and every rule and counter becomes a Python-int bitset over them, so
one row costs a few big-int operations per column instead of a Python step
per node, and the nodes are counted from the bitsets exactly.  The walk is
one loop with an explicit stack of rows, not recursion, so its stack depth
does not grow with the array.

The engine knows nothing of what it searches for; three tables set it up.
``search_moa`` counts the raw tuple on every t-subset of columns.
``search_scheme`` counts, on every 2-subset (and t-subset when t > 2), the
differences of the earlier columns against the last one, which are what a
column shift leaves invariant, and pins its first column to zero by giving
it a single symbol.  ``search_partition`` gives the engine the array's
columns as fixed leading columns and searches one label column after them:
it counts each (symbol, block label) pair, and a row may open at most one
label that no earlier row used.

A search that exhausts the canonical space proves nonexistence; running out
of node budget is reported distinctly.  Returned arrays, schemes and
partitions are always re-checked by the exact oracles; the searcher never
self-certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import inf, lcm, prod
from operator import or_
from typing import Callable, Iterable

import numpy as np

from .algebra import DifferenceScheme
from .arrays import MixedArray, min_distance, verify_strength
from .constructions import OUTPUT_CELL_CAP, OrthogonalPartition, five_column_feasibility
from .errors import ParameterError, VerificationError
from .groups import cyclic_group, decode, encode

__all__ = [
    "SearchSpec",
    "SearchResult",
    "NonexistenceResult",
    "search_moa",
    "search_scheme",
    "search_partition",
    "exhaustive_nonexistence",
]


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: run count, level profile, strength, distance floor."""

    runs: int
    levels: tuple[int, ...]
    strength: int
    min_distance: int | None = None
    node_budget: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(int(d) for d in self.levels))
        if self.runs < 1:
            raise ParameterError("need at least one run")
        if not self.levels:
            raise ParameterError("need at least one column")
        if any(d < 2 for d in self.levels):
            raise ParameterError("levels must all be >= 2")
        if not 0 <= self.strength <= len(self.levels):
            raise ParameterError("strength out of range")
        if any(x is not None and x < 0 for x in (self.min_distance, self.node_budget)):
            raise ParameterError("distance floor and node budget must be >= 0")

    def divisibility_obstruction(self) -> tuple[int, ...] | None:
        """First k-subset whose level product does not divide the run count.

        Every product is at least 2^k, so when that exceeds the run count the
        first k columns are the answer.  Otherwise ``reach[j][t]`` is the lcm
        of the level products of the j-subsets of columns t.. (1 when there
        are none), or 0 once that lcm does not divide the run count, so every
        such subset's product divides it iff ``reach[j][t]`` is nonzero.  Each
        column of the obstruction is then the first one that still leaves a
        failing completion, which makes it the lexicographically first.  The
        table has n x min(k, log2 runs) entries, none above the run count.
        """
        levels, runs, n, k = self.levels, self.runs, len(self.levels), self.strength
        if k >= runs.bit_length():
            return tuple(range(k))
        reach = [[1] * (n + 1)]
        for j in range(1, k + 1):
            row = [0] * (n - j + 1) + [1] * j
            for t in range(n - j, -1, -1):
                below = levels[t] * reach[j - 1][t + 1]
                if not below or runs % below:
                    break  # so does every lcm further left, which it divides
                row[t] = lcm(row[t + 1], below)
            reach.append(row)
        if reach[k][0]:
            return None
        subset, product, t = [], 1, 0
        for j in range(k, 0, -1):
            while reach[j - 1][t + 1] and runs % (product * levels[t] * reach[j - 1][t + 1]) == 0:
                t += 1
            subset.append(t)
            product *= levels[t]
            t += 1
        return tuple(subset)


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "exhausted" | "budget" | "infeasible"
    array: MixedArray | DifferenceScheme | OrthogonalPartition | None = None
    nodes: int = 0
    reason: str | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


@dataclass(frozen=True)
class NonexistenceResult:
    status: str  # "proved" | "counterexample" | "inconclusive"
    counterexample: MixedArray | None = None
    nodes: int = 0
    reason: str | None = None


# The most candidates a row of a search may have.  The engine keeps its rules
# and tallies as bitsets over them, and a distance floor one bitset per column
# for each candidate placed, so its memory grows with the square of this.
CANDIDATE_CAP = 1 << 12


def _bits(mask: np.ndarray) -> int:
    """The bitset of a boolean vector: bit r set where mask[r] is true."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _backtrack(
    runs: int,
    hi: tuple[int, ...],
    counters: Iterable[tuple[tuple[int, ...], np.ndarray, int]],
    floor: int | None,
    node_budget: int | None,
    finish: Callable[[np.ndarray], MixedArray | DifferenceScheme | OrthogonalPartition],
    given: np.ndarray | None = None,
) -> SearchResult:
    """The canonical search; ``finish`` checks the found int64 rows and wraps them.

    Column j takes the symbols below ``hi[j]``.  A counter ``(columns, table,
    lam)`` sorts each row into the tally ``table[row[columns]]``, and every
    tally must end at exactly ``lam`` rows.  ``floor`` bounds the distance
    between rows: a row agrees with each earlier one on at most n - floor
    columns.  ``given`` (no floor) fixes every row's cells in the leading
    columns; a row then ties the previous one only where those cells agree,
    no counter ends in them, and the searched columns hold labels, of which
    a row opens at most one that no earlier row used.  Row 0 is otherwise
    all zeros.

    The walk places a row at a time.  A row's candidates are the searched
    columns' symbol tuples in lexicographic order, so the candidates sharing
    a j-cell prefix form a block of consecutive indices, and a set of
    prefixes is a Python-int bitset over the candidates.  When a row opens,
    T_j, the prefixes the cell order tries in column j, is A_{j-1}, those
    alive after column j - 1, within the canonical rules: at or after the
    row above, equal-range columns nondecreasing, labels below the next new
    one.  A_j is T_j less the prefixes that hit a full tally of a counter
    ending at j or agree with an earlier row on too many columns.  The
    j-blocks of T_j up to a candidate are the (cell, symbol) nodes the cell
    order visits before it, so node counts and budget cuts are exact.
    Taking a row uses up its tallies, and a tally that fills cuts its
    candidates from every later row; going back gives them back.

    More than ``OUTPUT_CELL_CAP`` cells (runs x columns) or ``CANDIDATE_CAP``
    candidate rows raise ``ParameterError`` before anything is allocated,
    ``counters`` included: it is read only after these checks.
    """
    n = len(hi)
    if runs * n > OUTPUT_CELL_CAP:
        raise ParameterError(
            f"{runs} runs x {n} columns exceed the cap of {OUTPUT_CELL_CAP} cells"
        )
    g = 0 if given is None else given.shape[1]
    searched = hi[g:]
    count = prod(searched)
    if count > CANDIDATE_CAP:
        raise ParameterError(
            f"{count} candidate rows exceed the cap of {CANDIDATE_CAP} per row"
        )
    counters = list(counters)
    m = n - g
    full = (1 << count) - 1
    digits = np.stack(decode(np.arange(count), searched), axis=1)
    rows = [tuple(row) for row in digits.tolist()]
    holds = [[_bits(digits[:, j] == x) for x in range(d)] for j, d in enumerate(searched)]
    block = [prod(searched[j + 1 :]) for j in range(m)]
    firsts = [_bits(np.arange(count) % size == 0) for size in block]
    rising = [_bits(digits[:, j] >= digits[:, j - 1]) if j else full for j in range(m)]
    # equal-column flags, bit j for columns j - 1 and j: those of the same
    # range, and per candidate those it fills with the same symbol
    equal = sum(1 << j for j in range(1, m) if searched[j] == searched[j - 1])
    repeats = ((digits[:, 1:] == digits[:, :-1]) << np.arange(1, m)).sum(axis=1).tolist()

    # All tallies in one list.  A full tally cuts, from every later row, the
    # candidates that would hit it: a bitset kept in the slot of the counter's
    # last column.  A counter with given heads tallies a packed index (its
    # given symbols, then the candidate), so it keeps its own slot, shifted
    # down by each row's given symbols when the row opens.
    fronts = np.zeros((runs, 0), dtype=np.int64) if given is None else given.astype(np.int64)
    labelled = any(c < g for columns, _, _ in counters for c in columns)
    rooms: list[int] = []
    hits: list[int] = []
    slot_of: list[int] = []
    bases, tables, offsets = [], [], []  # with given heads: per counter
    # tally ids stay below 2^25: under the bound a counter has at most 2^12
    # tallies, and there are at most 2^13 counters
    name = np.zeros((0 if labelled else count, len(counters)), dtype=np.int32)
    shifted: list[list[tuple[int, list[int]]]] = [[] for _ in range(m)]
    for k, (columns, table, lam) in enumerate(counters):
        heads = [c for c in columns if c < g]
        dims = [hi[c] for c in heads]
        combos = np.indices(dims).reshape(len(dims), prod(dims))
        index = tuple(
            combos[heads.index(c)][:, None] if c < g else digits[:, c - g][None, :]
            for c in columns
        )
        codes = np.broadcast_to(table[index], (combos.shape[1], count)).ravel()
        sets = [0] * (int(table.max()) + 1)
        for p, code in enumerate(codes.tolist()):
            sets[code] |= 1 << p
        slot = columns[-1] - g
        if labelled:
            offset = (np.broadcast_to(encode(fronts[:, heads].T, dims), (runs,)) * count).tolist()
            if heads:
                slot = m + sum(map(len, shifted))
                shifted[columns[-1] - g].append((slot, offset))
            bases.append(len(rooms))
            tables.append(codes.tolist())
            offsets.append(offset)
        else:
            name[:, k] = codes + len(rooms)
        rooms += [lam] * len(sets)
        hits += sets
        slot_of += [slot] * len(sets)
    offsets = list(zip(*offsets))
    # without given heads a candidate names the same tallies in every row, so
    # they are listed once per candidate (summing them per row took about a
    # fifth more time on the benchmark's searches)
    named: list[list[int] | None] = [None] * count
    linked = [True] + (fronts[1:] == fronts[:-1]).all(axis=1).tolist()
    most = n - (floor or 0)  # agreements allowed with each earlier row
    planes: list[list[int] | None] = [None] * count

    def agreeing(r: int) -> list[int]:
        """Per column j: the candidates agreeing with row r on > most of columns 0..j."""
        atleast = [full] + [0] * (most + 1)
        out = planes[r] = []
        for j, x in enumerate(rows[r]):
            hit = holds[j][x]
            for a in range(min(j + 1, most + 1), 0, -1):
                atleast[a] |= atleast[a - 1] & hit
            out.append(atleast[most + 1])
        return out

    # labels: the candidates below each symbol, per column
    below = [list(accumulate(sets, or_, initial=0)) for sets in holds] if g else []

    def push(i: int, r: int, state: tuple) -> tuple[list[int], tuple]:
        """Place candidate r as row i; return its tallies and the next row's state."""
        cut, eq, top = state
        if floor:
            cut = [a | b for a, b in zip(cut, planes[r] or agreeing(r))]
        if g:
            top = tuple(min(d, max(t, x + 2)) for d, t, x in zip(searched, top, rows[r]))
        if labelled:
            codes = [b + t[o + r] for b, t, o in zip(bases, tables, offsets[i])]
        else:
            codes = named[r]
            if codes is None:
                codes = named[r] = name[r].tolist()
        for c in codes:
            rooms[c] -= 1
            if not rooms[c]:
                if cut is state[0]:
                    cut = cut.copy()
                cut[slot_of[c]] |= hits[c]
        return codes, (cut, eq & repeats[r], top)

    def open_row(i: int, state: tuple) -> tuple[list[int], int, int]:
        """The j-blocks each column tries, their count, and the candidates left alive."""
        cut, eq, top = state
        above = chosen[i - 1] if linked[i] else 0
        tried, total, alive = [], 0, full
        for j, (first, dead) in enumerate(zip(firsts, cut)):
            start = above - above % block[j]  # at or after the row above
            alive = alive >> start << start
            if eq >> j & 1:  # not below the equal column before
                alive &= rising[j]
            if top:  # at most one new label
                alive &= below[j][top[j]]
            if not alive:
                break
            tried.append(alive & first)
            total += tried[-1].bit_count()
            alive &= ~dead
            if labelled:
                for s, shift in shifted[j]:
                    alive &= ~(cut[s] >> shift[i])
        return tried, total, alive

    limit = inf if node_budget is None else node_budget
    chosen = [0] * runs
    _, state = push(0, 0, ([0] * (m + sum(map(len, shifted))), equal, (0,) * m if g else ()))
    if runs == 1:
        return SearchResult("found", finish(np.hstack([fronts, digits[chosen]])), 0)
    # nodes counts every node of each row opened so far; while rows are open,
    # those past their taken candidates are still to come
    tried, nodes, rest = open_row(1, state)
    # per open row: its tried blocks, candidates left, the one taken and its
    # tallies, and the state the row opened with; row i is stack[i - 1]
    stack = [[tried, rest, -1, None, state]]

    def visited() -> int:
        """The nodes the cell order has visited up to the candidates taken now."""
        return nodes - sum((t >> r + 1).bit_count() for tried, _, r, _, _ in stack for t in tried)

    while True:
        i, frame = len(stack), stack[-1]
        tried, rest, _, codes, state = frame
        if codes is not None:  # back from the row below: give its tallies back
            for c in codes:
                rooms[c] += 1
        if not rest:  # row i has no candidate left: back to the row above
            stack.pop()
            if not stack:
                if nodes > limit:
                    return SearchResult("budget", nodes=int(limit) + 1)
                return SearchResult("exhausted", nodes=nodes)
            continue
        low = rest & -rest
        frame[1] = rest ^ low
        r = frame[2] = chosen[i] = low.bit_length() - 1
        if nodes > limit and visited() > limit:
            return SearchResult("budget", nodes=int(limit) + 1)
        if i == runs - 1:
            return SearchResult("found", finish(np.hstack([fronts, digits[chosen]])), visited())
        frame[3], state = push(i, r, state)
        tried, total, rest = open_row(i + 1, state)
        nodes += total
        if rest:
            stack.append([tried, rest, -1, None, state])
        elif nodes > limit and visited() > limit:  # a dead end, visited whole
            return SearchResult("budget", nodes=int(limit) + 1)


def search_moa(spec: SearchSpec) -> SearchResult:
    """Search for an MOA matching the given SearchSpec, under canonical symmetry breaking."""
    obstruction = spec.divisibility_obstruction()
    if obstruction is not None:
        return SearchResult(
            "infeasible",
            reason=f"run count {spec.runs} not divisible by the level product of "
            f"columns {obstruction}",
        )
    if spec.min_distance is not None and spec.min_distance > len(spec.levels):
        if spec.runs > 1:
            return SearchResult(
                "infeasible",
                reason=f"distance floor {spec.min_distance} exceeds "
                f"{len(spec.levels)} columns",
            )
    levels = spec.levels

    def counters():
        if spec.strength:  # strength 0 counts nothing
            for columns in combinations(range(len(levels)), spec.strength):
                dims = [levels[c] for c in columns]
                size = prod(dims)
                yield columns, np.arange(size).reshape(dims), spec.runs // size

    return _backtrack(
        spec.runs, levels, counters(), spec.min_distance, spec.node_budget,
        lambda cells: _certify(MixedArray(levels, cells), spec),
    )


def _certify(array: MixedArray, spec: SearchSpec) -> MixedArray:
    report = verify_strength(array, spec.strength)
    if not report.holds:
        raise VerificationError("search produced an array failing the strength oracle")
    if spec.min_distance is not None and array.runs > 1:
        if min_distance(array) < spec.min_distance:
            raise VerificationError("search produced an array below the distance floor")
    return array


def search_scheme(
    rows: int,
    cols: int,
    order: int,
    strength: int,
    node_budget: int | None = None,
) -> SearchResult:
    """Search for a difference scheme D_t(rows, cols, order) over Z_order.

    Canonical form: first row and first column all zero (row and column
    shifts leave the expansion invariant as a row multiset), rows and columns
    lexicographically nondecreasing.  Counters track shift-normalized
    difference tuples: for every t-subset of columns, each (t-1)-tuple of
    differences against the subset's last column must occur exactly
    rows / order^(t-1) times (and rows / order for pairs).  A found scheme
    is the result's ``array``.
    """
    group = cyclic_group(order)
    if rows < 1:
        raise ParameterError("need at least one row")
    if strength < 2:
        raise ParameterError("scheme strength must be >= 2")
    if node_budget is not None and node_budget < 0:
        raise ParameterError("node budget must be >= 0")
    if rows % order ** (strength - 1):
        return SearchResult(
            "infeasible", reason=f"{rows} rows not divisible by {order}^{strength - 1}"
        )
    if cols < strength:
        return SearchResult("infeasible", reason="fewer columns than the strength")
    hi = (1,) + (order,) * (cols - 1)

    def counters():
        for size in sorted({2, strength}):
            for columns in combinations(range(cols), size):
                grid = np.indices([hi[c] for c in columns])
                table = encode(group.sub(grid[:-1], grid[-1]), (order,) * (size - 1))
                yield columns, table, rows // order ** (size - 1)

    return _backtrack(
        rows, hi, counters(), None, node_budget,
        lambda matrix: DifferenceScheme(matrix, order, strength, group),
    )


def search_partition(array: MixedArray, block_count: int) -> OrthogonalPartition | None:
    """Find an orthogonal partition of strength 1 with the given block count.

    The engine labels each row with its block, the array's columns given:
    every (column, label) pair must hold each symbol size / level times, and
    a row opens at most one new block, which removes block-permutation
    symmetry.  The first partition in that deterministic order is returned,
    or None.
    """
    return _search_partition(array, block_count).array


def _search_partition(array: MixedArray, block_count: int) -> SearchResult:
    r = array.runs
    if block_count < 1:
        raise ParameterError("need at least one block")
    if r % block_count:
        raise ParameterError(f"{r} rows not divisible into {block_count} blocks")
    size = r // block_count
    for j, d in enumerate(array.levels):
        if size % d:
            raise ParameterError(
                f"block size {size} not divisible by level {d} of column {j}"
            )
    n = array.ncols
    counters = [
        ((j, n), np.arange(d * block_count).reshape(d, block_count), size // d)
        for j, d in enumerate(array.levels)
    ]
    return _backtrack(
        r, array.levels + (block_count,), counters, None, None,
        lambda cells: OrthogonalPartition(
            array, tuple(np.flatnonzero(cells[:, n] == b) for b in range(block_count))
        ),
        array.cells,
    )


def exhaustive_nonexistence(spec: SearchSpec) -> NonexistenceResult:
    """Bounded exhaustive confirmation that no array matches the SearchSpec.

    Uses the five-column counting verdict as a fast pre-filter when it
    applies, then runs the canonical search to exhaustion or budget.
    Verdicts are never asserted beyond what the run actually established.
    """
    if spec.node_budget is None:
        raise ParameterError("nonexistence confirmation requires a node budget")
    if spec.min_distance is not None and len(spec.levels) == 5 and spec.strength == 2:
        verdict = five_column_feasibility(spec.levels)
        if verdict.impossible and spec.min_distance >= 3:
            return NonexistenceResult("proved", reason=verdict.reason)
    result = search_moa(spec)
    if result.status == "found":
        return NonexistenceResult("counterexample", result.array, result.nodes)
    if result.status in ("exhausted", "infeasible"):
        return NonexistenceResult("proved", nodes=result.nodes, reason=result.reason)
    return NonexistenceResult(
        "inconclusive", nodes=result.nodes, reason=f"node budget {spec.node_budget} reached"
    )
