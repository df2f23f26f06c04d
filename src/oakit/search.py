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
them, and every rule and counter becomes a Python-int bitset over them,
one per column, all packed into a single int, so one row costs a few
big-int operations instead of a Python step per node, and the nodes are
counted from the bitsets exactly.  The walk is one loop with an explicit
stack of rows, not recursion, so its stack depth does not grow with the
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
from itertools import accumulate, combinations
from math import inf, lcm, prod
from operator import or_
from typing import Callable, Iterable

import numpy as np

from .algebra import DifferenceScheme
from .arrays import MixedArray, _strength_and_spectrum, verify_strength
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
    prefixes is a bitset over the candidates.  The per-column sets are
    packed into one Python int, column j's bitset in slot j (from bit
    j * count), so a rule costs one big-int operation for all the columns
    at once.  When a row opens, T_j, the prefixes the cell order tries in
    column j, is R_j, what the canonical rules allow up to column j (at or
    after the row above, equal-range columns nondecreasing, labels below
    the next new one), within L_{j-1}, where L_j, the live set, holds the
    candidates that hit no full tally of a counter ending at or before j
    and agree with no earlier row on too many of columns 0..j.  R and L
    only shrink from column to column, so T is R & (L shifted up a slot),
    with no chain from column to column, and the row's candidates are
    T_{m-1} & L_{m-1}.  The j-blocks of T_j up to a candidate are the
    (cell, symbol) nodes the cell order visits before it, so node counts
    and budget cuts are exact.

    The state a row opens with is immutable ints: the live set; the
    tallies' free room, one field each; the equal-column flags and the
    rules R they make.  Taking a row subtracts its packed decrement from
    the room, and a tally whose field runs out takes its candidates out of
    its column's slot and every later one.  A counter with given heads
    tallies a packed index (its given symbols, then the candidate), so the
    live set keeps its tally ids in a slot of its own past the column
    slots, which each row reads shifted by its given symbols.  An open row
    keeps the state it opened with, so going back restores it with nothing
    to undo.

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
    holds = [[_bits(digits[:, j] == x) for x in range(d)] for j, d in enumerate(searched)]
    block = [prod(searched[j + 1 :]) for j in range(m)]
    # the packed layout: slot j holds column j's bitset, from bit j * count
    last = (m - 1) * count
    every = full * sum(1 << j * count for j in range(m))
    # shifts that copy slot j to every later slot, and past the last
    doubling = [count << k for k in range(max(m - 1, 0).bit_length())]

    def smear(x: int) -> int:
        """Each slot's bits ORed into every later slot."""
        for step in doubling:
            x |= x << step
        return x & every

    firsts = sum(_bits(np.arange(count) % size == 0) << j * count for j, size in enumerate(block))
    # equal-column flags, bit j for columns j - 1 and j: those of the same
    # range, and per candidate those it fills with the same symbol
    equal = sum(1 << j for j in range(1, m) if searched[j] == searched[j - 1])
    repeats = ((digits[:, 1:] == digits[:, :-1]) << np.arange(1, m)).sum(axis=1).tolist()
    rising = [_bits(digits[:, j] >= digits[:, j - 1]) if j else full for j in range(m)]
    # labels: the candidates below each symbol, per column
    below = [list(accumulate(sets, or_, initial=0)) for sets in holds] if g else []

    # All tallies in one list.  A full tally cuts, from every later row, the
    # candidates that would hit it: its hits leave the slot of the counter's
    # last column and every later one.  A counter with given heads has a slot
    # of its own past the column slots, as wide as its packed index space, at
    # ``place``: the tally ids it has left.
    #
    # A tally's free room is a field of ``width`` bits that holds 2^(width-1)
    # + room - 1, so its top bit is set until the tally is full, and taking a
    # row never borrows from the next field: a row naming a full tally is cut.
    fronts = np.zeros((runs, 0), dtype=np.int64) if given is None else given.astype(np.int64)
    labelled = any(c < g for columns, _, _ in counters for c in columns)
    sizes = [int(table.max()) + 1 for _, table, _ in counters]
    width = max((lam for _, _, lam in counters), default=0).bit_length() + 1
    rooms, total = 0, 0  # the fields, and the tallies so far
    hits: list[int] = []
    places: list[int] = []
    bases, tables, offsets = [], [], []  # with given heads: per counter
    # tally ids, in the narrowest type that holds them: they stay below 2^25,
    # since under the bound a counter has at most 2^12 tallies, and there are
    # at most 2^13 counters
    name = np.zeros((0 if labelled else count, len(counters)), np.min_scalar_type(sum(sizes)))
    shifted: list[list[tuple[int, list[int]]]] = [[] for _ in range(m)]
    end = m * count  # where the next given-head slot starts
    for k, (columns, table, lam) in enumerate(counters):
        heads = [c for c in columns if c < g]
        dims = [hi[c] for c in heads]
        combos = np.indices(dims).reshape(len(dims), prod(dims))
        index = tuple(
            combos[heads.index(c)][:, None] if c < g else digits[:, c - g][None, :]
            for c in columns
        )
        codes = np.broadcast_to(table[index], (combos.shape[1], count)).ravel()
        sets = [0] * sizes[k]
        for p, code in enumerate(codes.tolist()):
            sets[code] |= 1 << p
        place = (columns[-1] - g) * count
        if labelled:
            offset = (np.broadcast_to(encode(fronts[:, heads].T, dims), (runs,)) * count).tolist()
            if heads:
                shifted[columns[-1] - g].append((end, offset))
                place = end
                end += len(codes)
            bases.append(total)
            tables.append(codes.tolist())
            offsets.append(offset)
        else:
            name[:, k] = codes + total
        repunit = ((1 << sizes[k] * width) - 1) // ((1 << width) - 1)  # a 1 per field
        rooms |= ((1 << width - 1) + lam - 1) * repunit << total * width
        total += sizes[k]
        hits += sets
        places += [place] * sizes[k]
    offsets = list(zip(*offsets))

    def decrement(codes: Iterable[int]) -> tuple[int, int]:
        """A row's packed decrement and the top bits of the fields it takes."""
        step = sum(1 << c * width for c in codes)
        return step, step << width - 1

    # without given heads a candidate names the same tallies in every row, so
    # its decrement is packed once
    steps: list[tuple[int, int] | None] = [None] * count
    linked = [True] + (fronts[1:] == fronts[:-1]).all(axis=1).tolist()
    most = n - (floor or 0)  # agreements allowed with each earlier row
    planes: list[int | None] = [None] * count

    def apart(r: int) -> int:
        """Slot j: the candidates agreeing with row r on at most ``most`` of columns 0..j."""
        atleast = [full] + [0] * (most + 1)
        out = 0
        for j, x in enumerate(digits[r].tolist()):
            hit = holds[j][x]
            for a in range(min(j + 1, most + 1), 0, -1):
                atleast[a] |= atleast[a - 1] & hit
            out |= (full ^ atleast[most + 1]) << j * count
        return out

    def allowed(eq: int, tops: tuple[int, ...]) -> int:
        """Slot j: the candidates the equal-column order and the labels allow up to column j."""
        out, keep = 0, full
        for j in range(m):
            if eq >> j & 1:  # not below the equal column before
                keep &= rising[j]
            if tops:  # at most one new label
                keep &= below[j][tops[j]]
            out |= keep << j * count
        return out

    # At or after the row above: slot j keeps the candidates from start_j,
    # where the row above's j-block starts.  The candidates split at a column
    # boundary h into a prefix index q and a suffix index s, about the square
    # root of count values each, and the packed set is lows[q] | highs[s] <<
    # q * B.  lows[q] holds slots < h whole and, in the others, the prefixes
    # after q; highs[s] holds, in slot j >= h, the block of prefix q from
    # start_j on.  Both fill in as rows need them.
    tails = [prod(searched[h:]) for h in range(m + 1)]
    h = min(range(m + 1), key=lambda h: count // tails[h] + tails[h])
    B = tails[h]
    lows: list[int | None] = [None] * (count // B)
    highs: list[int | None] = [None] * B

    def low_part(q: int) -> int:
        starts = [q * B // block[j] * block[j] for j in range(h)] + [q * B + B] * (m - h)
        return sum(full >> start << start + j * count for j, start in enumerate(starts))

    def high_part(s: int) -> int:
        return sum((1 << B) - (1 << s - s % block[j]) << j * count for j in range(h, m))

    def visited(nodes: int, stack: list, tried: int) -> int:
        """The nodes the cell order has visited up to the candidates taken now."""
        tries = [frame[1] for frame in stack] + [tried]
        return nodes - sum(
            (t & (every ^ smear((2 << chosen[k]) - 1))).bit_count() for k, t in enumerate(tries)
        )

    limit = inf if node_budget is None else node_budget
    chosen = [0] * runs
    # row i is open: its candidates still to try, the nodes it tried (packed),
    # and the state it opened with; the rows above it wait on the stack
    nodes, i, rest, tried = 0, 0, 1, 0  # row 0 takes candidate 0, no node
    # live: per slot j the candidates no full tally or close row cuts by
    # column j, then the given-head slots' live tally ids
    live, eq, tops = (1 << end) - 1, equal, (0,) * m if g else ()
    rule = allowed(eq, tops)
    stack: list[tuple] = []
    while True:
        if not rest:  # row i has no candidate left: back to the row above
            if not stack:
                if nodes > limit:
                    return SearchResult("budget", nodes=int(limit) + 1)
                return SearchResult("exhausted", nodes=nodes)
            i -= 1
            rest, tried, live, rooms, eq, rule, tops = stack.pop()
            continue
        low = rest & -rest
        rest ^= low
        r = chosen[i] = low.bit_length() - 1
        if nodes > limit and visited(nodes, stack, tried) > limit:
            return SearchResult("budget", nodes=int(limit) + 1)
        if i == runs - 1:
            cells = np.hstack([fronts, digits[chosen]])
            return SearchResult("found", finish(cells), visited(nodes, stack, tried))
        # take candidate r as row i
        kept = live
        if floor:
            plane = planes[r]
            if plane is None:
                plane = planes[r] = apart(r)
            kept &= plane
        if labelled:
            step, marks = decrement([b + t[o + r] for b, t, o in zip(bases, tables, offsets[i])])
        else:
            pair = steps[r]
            if pair is None:
                pair = steps[r] = decrement(name[r].tolist())
            step, marks = pair
        left = rooms - step
        filled = marks ^ marks & left
        if filled:  # tallies this row fills
            fresh = 0
            while filled:  # from the top, which shortens ``filled`` as it goes
                top = filled.bit_length()
                filled ^= 1 << top - 1
                t = top // width - 1
                fresh |= hits[t] << places[t]
            kept ^= kept & (smear(fresh) | fresh)  # smear keeps only the column slots
        flags = eq & repeats[r]
        if g:
            up = tuple(min(d, max(t, x + 2)) for d, t, x in zip(searched, tops, digits[r].tolist()))
            ahead = allowed(flags, up)
        else:
            up = tops
            ahead = rule if flags == eq else allowed(flags, up)
        # open row i + 1
        above = r if linked[i + 1] else 0
        q, s = divmod(above, B)
        lo = lows[q]
        if lo is None:
            lo = lows[q] = low_part(q)
        hi_s = highs[s]
        if hi_s is None:
            hi_s = highs[s] = high_part(s)
        alive = kept
        if labelled:  # full tallies under row i + 1's given symbols
            extra = 0
            for j, slots in enumerate(shifted):
                for at, offset in slots:
                    extra |= (full ^ kept >> at + offset[i + 1] & full) << j * count
            alive ^= alive & smear(extra)
        opened = (lo | hi_s << above - s) & ahead & (alive << count | full)
        tries = opened & firsts
        nodes += tries.bit_count()
        after = (opened & alive) >> last
        if after:
            stack.append((rest, tried, live, rooms, eq, rule, tops))
            i += 1
            rest, tried, live, rooms, eq, rule, tops = after, tries, kept, left, flags, ahead, up
        elif nodes > limit and visited(nodes, stack, tried) > limit:  # a dead end, visited whole
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
    if spec.min_distance is None or array.runs == 1:  # no floor to check: no pair pass
        report, spectrum = verify_strength(array, spec.strength), None
    else:
        report, spectrum = _strength_and_spectrum(array, spec.strength)
    if not report.holds:
        raise VerificationError("search produced an array failing the strength oracle")
    if spectrum is not None and spectrum.min_distance < spec.min_distance:
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
