"""Backtracking search for small arrays, schemes, and partitions.

One engine, ``_backtrack``, fills rows top-down, cell by cell, under a
canonical form that touches every isomorphism class at least once: the
first row is all zeros (per-column symbol relabeling), rows are
lexicographically nondecreasing (row permutation), and columns with the
same symbol range are lexicographically nondecreasing as vectors (column
permutation).  Pruning uses exact partial counters plus an optional
distance floor, kept as agreement counts with the completed rows that a cell
raises only for the rows holding its symbol.  Depth-first order with
ascending symbols makes the first result, the node count, and therefore
every verdict, deterministic.  The search is one loop over per-row and
per-cell records, not recursion, so its stack depth does not grow with the
array.

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
from itertools import combinations
from math import inf, prod
from typing import Callable

import numpy as np

from .algebra import DifferenceScheme
from .arrays import MixedArray, min_distance, verify_strength
from .constructions import OUTPUT_CELL_CAP, OrthogonalPartition, five_column_feasibility
from .errors import ParameterError, VerificationError
from .groups import cyclic_group, place_values

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
        if any(d < 2 for d in self.levels):
            raise ParameterError("levels must all be >= 2")
        if not 0 <= self.strength <= len(self.levels):
            raise ParameterError("strength out of range")
        if any(x is not None and x < 0 for x in (self.min_distance, self.node_budget)):
            raise ParameterError("distance floor and node budget must be >= 0")

    def divisibility_obstruction(self) -> tuple[int, ...] | None:
        """First k-subset whose level product does not divide the run count."""
        for subset in combinations(range(len(self.levels)), self.strength):
            if self.runs % prod(self.levels[j] for j in subset):
                return subset
        return None


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


def _backtrack(
    runs: int,
    hi: tuple[int, ...],
    counters: list[tuple[tuple[int, ...], tuple[int, ...], int, int]],
    key: list[list[int]],
    last: list[int],
    floor: int | None,
    node_budget: int | None,
    finish: Callable[[np.ndarray], MixedArray | DifferenceScheme | OrthogonalPartition],
    given: np.ndarray | None = None,
) -> SearchResult:
    """The canonical search; ``finish`` checks the found int64 rows and wraps them.

    Column j takes the symbols below ``hi[j]``.  A counter ``(columns, radix,
    size, lam)`` holds ``size`` tallies, each of which must end at exactly
    ``lam``.  Placing v in its last column adds one to the tally at
    ``last[v] + sum(key[v][row[c]] * m)`` over the other (head) columns c and
    their radix m.  ``floor`` bounds the distance between finished rows: the
    row being filled agrees with each on at most n - floor columns, and v in
    column j adds an agreement for just the finished rows holding v there.
    No cell rescans earlier rows: a row carries whether it still ties the
    previous one, and per-column flags, renewed as each row finishes, say
    which same-range neighbouring columns are still equal.

    ``given`` (no floor) fixes every row's cells in the leading columns; a
    row then ties the previous one only where those cells agree, no counter
    ends in them, and the searched columns hold labels, of which a row opens
    at most one that no earlier row used.  Row 0 is otherwise all zeros.

    More than ``OUTPUT_CELL_CAP`` cells (runs x columns) raise
    ``ParameterError`` before anything is allocated.
    """
    if runs * len(hi) > OUTPUT_CELL_CAP:
        raise ParameterError(
            f"{runs} runs x {len(hi)} columns exceed the cap of {OUTPUT_CELL_CAP} cells"
        )
    n = len(hi)
    limit = inf if node_budget is None else node_budget
    nodes = 0
    g = 0 if given is None else given.shape[1]
    fronts = [[]] * runs if given is None else given.tolist()
    cells = [front + [0] * (n - g) for front in fronts]
    by_last: list[list[tuple[list[tuple[int, int]], list[int]]]] = [[] for _ in range(n)]
    # at_risk[left]: the tallies that starve, with `left` rows still to come,
    # once a cell has more room than that (room: rows it takes until lam)
    at_risk: list[list[list[int]]] = [[] for _ in range(runs)]
    first = cells[0]
    for columns, radix, size, lam in counters:
        room = [lam] * size
        x = first[columns[-1]]
        room[last[x] + sum(key[x][first[c]] * m for c, m in zip(columns, radix))] -= 1
        by_last[columns[-1]].append((list(zip(columns[:-1], radix)), room))
        for left in range(min(lam, runs)):
            at_risk[left].append(room)
    holders = [[[] for _ in range(d)] for d in hi]  # finished rows by cell
    most = n - (floor or 0)  # agreements allowed with each finished row
    # kept per row: the equal-column flags, the agreements with each finished
    # row, the label bounds (one past the next new label), and per cell the
    # tie flag before it and the tally codes it added
    equal = [j > g and hi[j] == hi[j - 1] for j in range(n)]
    agree = [] if floor else None
    top = [0] * n if g else hi
    saved: list = [None] * runs
    i, j, row, left = 0, n, first, runs - 1
    while True:
        if j == n:  # row i is finished: stop after the last row, else start the next
            if not left:
                return SearchResult("found", finish(np.array(cells, dtype=np.int64)), nodes)
            # columns with the same symbol range stay lexicographically nondecreasing
            equal = [e and row[c - 1] == row[c] for c, e in enumerate(equal)]
            if agree is not None:
                for c, x in enumerate(row):
                    holders[c][x].append(i)
                agree = [0] * (i + 1)
            if g:
                top = [min(d, max(t, x + 2)) for d, t, x in zip(hi, top, row)]
            ties, added = [False] * n, [()] * n
            i, j, left, above, row = i + 1, g, left - 1, row, cells[i + 1]
            saved[i] = equal, agree, top, ties, added
            tied = row[:g] == above[:g]
            v = above[g] if tied else 0
        touched, holding = by_last[j], holders[j]
        for v in range(v, top[j]):
            nodes += 1
            if nodes > limit:
                return SearchResult("budget", nodes=nodes)
            row[j] = v
            kv = key[v]
            codes = []
            for head, room in touched:
                code = last[v]
                for c, m in head:
                    code += kv[row[c]] * m
                if not room[code]:
                    break
                room[code] -= 1
                codes.append(code)
            else:
                # no finished row that agrees on `most` columns agrees on v,
                # and a last cell leaves no tally needing more than `left` rows
                if (agree is None or most not in map(agree.__getitem__, holding[v])) and (
                    j + 1 < n or not any(max(room) > left for room in at_risk[left])
                ):
                    break
            for (_, room), code in zip(touched, codes):
                room[code] += 1
        else:  # no symbol left here: go back to the cell before and its next symbol
            if j == g:
                if i == 1:
                    return SearchResult("exhausted", nodes=nodes)
                i, j, left, row = i - 1, n, left + 1, above
                above = cells[i - 1]
                equal, agree, top, ties, added = saved[i]
                if agree is not None:
                    for c, x in enumerate(row):
                        holders[c][x].pop()
            j -= 1
            v = row[j]
            for (_, room), code in zip(by_last[j], added[j]):
                room[code] += 1
            if agree is not None:
                for p in holders[j][v]:
                    agree[p] -= 1
            tied = ties[j]
            v += 1
            continue
        ties[j], added[j] = tied, codes
        if agree is not None:
            for p in holding[v]:
                agree[p] += 1
        tied = tied and v == above[j]
        j += 1
        if j < n:
            lo = above[j] if tied else 0
            v = row[j - 1] if equal[j] and row[j - 1] > lo else lo


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
    counters = []
    if spec.strength:  # strength 0 counts nothing
        for columns in combinations(range(len(levels)), spec.strength):
            dims = [levels[c] for c in columns]
            radix = place_values(dims)[:-1]
            counters.append((columns, radix, prod(dims), spec.runs // prod(dims)))
    symbols = list(range(max(levels, default=0)))  # the tallies count raw tuples
    return _backtrack(
        spec.runs, levels, counters, [symbols] * len(symbols), symbols,
        spec.min_distance, spec.node_budget,
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
    counters = []
    for size in sorted({2, strength}):
        radix = place_values((order,) * (size - 1))
        for columns in combinations(range(cols), size):
            counters.append((columns, radix, order ** (size - 1), rows // order ** (size - 1)))
    symbols = np.arange(order)
    differences = group.sub(symbols[None, :], symbols[:, None]).tolist()  # [v][x] = x - v

    return _backtrack(
        rows, (1,) + (order,) * (cols - 1), counters, differences, [0] * order,
        None, node_budget, lambda matrix: DifferenceScheme(matrix, order, strength, group),
    )


def search_partition(array: MixedArray, block_count: int) -> OrthogonalPartition | None:
    """Find an orthogonal partition of strength 1 with the given block count.

    The engine labels each row with its block, the array's columns given:
    every (column, label) pair must hold each symbol size / level times, and
    a row opens at most one new block, which removes block-permutation
    symmetry.  The first partition in that deterministic order is returned,
    or None.
    """
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
    n, levels = array.ncols, array.levels + (block_count,)
    counters = [
        ((j, n), (block_count,), d * block_count, size // d) for j, d in enumerate(array.levels)
    ]
    symbols = list(range(max(levels)))  # the tallies count raw (symbol, label) pairs
    return _backtrack(
        r, levels, counters, [symbols] * len(symbols), symbols, None, None,
        lambda cells: OrthogonalPartition(
            array, tuple(np.flatnonzero(cells[:, n] == b) for b in range(block_count))
        ),
        array.cells,
    ).array


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
