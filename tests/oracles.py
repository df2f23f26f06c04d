"""Independent brute-force oracles used to validate the library's kernels.

Everything here is deliberately naive counting: pure Python over explicit
tuples, or, for the per-subset strength report and uniformity test, numpy
counting one subset at a time.  The moa v1 reference reader matches one
row line at a time against a regular expression.  None of it shares code
with the package's kernels.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import numpy as np


def naive_strength(rows, levels, k) -> bool:
    """Direct definition: every k-tuple equally often in every k-subarray."""
    r = len(rows)
    if k == 0:
        return True
    for subset in combinations(range(len(levels)), k):
        dims = [levels[j] for j in subset]
        if r % prod(dims):
            return False
        lam = r // prod(dims)
        counts = Counter(tuple(row[j] for j in subset) for row in rows)
        for expected in product(*[range(d) for d in dims]):
            if counts.get(expected, 0) != lam:
                return False
    return True


def naive_min_distance(rows, ncols) -> int:
    r = len(rows)
    if r == 1:
        return ncols + 1
    best = ncols
    for i in range(r):
        for j in range(i + 1, r):
            d = sum(1 for a, b in zip(rows[i], rows[j]) if a != b)
            best = min(best, d)
    return best


def naive_distances(rows) -> set[int]:
    out = set()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            out.add(sum(1 for a, b in zip(rows[i], rows[j]) if a != b))
    return out


def naive_irredundant(rows, ncols, k) -> bool:
    """Direct definition: all rows of every (N-k)-column subarray distinct."""
    for keep in combinations(range(ncols), ncols - k):
        seen = set()
        for row in rows:
            projected = tuple(row[j] for j in keep)
            if projected in seen:
                return False
            seen.add(projected)
    return True


def naive_reduced_density(rows, levels, subset):
    """rho_S(a, b) = (1/r) #{(x, y) : x_S = a, y_S = b, x agrees with y off S}."""
    r = len(rows)
    comp = [j for j in range(len(levels)) if j not in subset]
    dims = [levels[j] for j in subset]
    index = {t: i for i, t in enumerate(product(*[range(d) for d in dims]))}
    dim = len(index)
    rho = [[Fraction(0)] * dim for _ in range(dim)]
    groups = defaultdict(list)
    for row in rows:
        groups[tuple(row[j] for j in comp)].append(tuple(row[j] for j in subset))
    for members in groups.values():
        for a in members:
            for b in members:
                rho[index[a]][index[b]] += Fraction(1, r)
    return rho


def naive_k_uniform(rows, levels, k) -> bool:
    """Every k-party reduction equals (1/D) I, straight from the densities."""
    n = len(levels)
    for subset in combinations(range(n), k):
        rho = naive_reduced_density(rows, levels, subset)
        dim = len(rho)
        target = Fraction(1, dim)
        for i in range(dim):
            for j in range(dim):
                if rho[i][j] != (target if i == j else 0):
                    return False
    return True


def _codes(cells, levels, columns):
    """Mixed-radix code of each row's projection, first column most significant."""
    codes = np.zeros(cells.shape[0], dtype=np.int64)
    for j in columns:
        codes = codes * levels[j] + cells[:, j]
    return codes


def strength_report_loop(cells, levels, k):
    """The full strength report, one subset at a time in lexicographic order.

    Returns (holds, index, witness) where index is the count common to every
    k-subset (None when the subsets' counts differ or a subset fails) and
    witness is None or (columns, symbols, count, expected) for the first
    failing subset: symbols and count are None when its level product does
    not divide the row count, else its first tuple, in lexicographic order,
    whose count is not the expected one.
    """
    r, n = cells.shape
    lambdas = set()
    for subset in combinations(range(n), k):
        dims = [levels[j] for j in subset]
        d_prod = prod(dims)
        if r % d_prod:
            return False, None, (subset, None, None, Fraction(r, d_prod))
        lam = r // d_prod
        counts = np.bincount(_codes(cells, levels, subset), minlength=d_prod)
        bad = np.flatnonzero(counts != lam)
        if bad.size:
            code = int(bad[0])
            symbols = tuple(code // prod(dims[i + 1 :]) % dims[i] for i in range(k))
            return False, None, (subset, symbols, int(counts[code]), Fraction(lam))
        lambdas.add(lam)
    return True, lambdas.pop() if len(lambdas) == 1 else None, None


def uniform_on_subset(cells, levels, subset) -> bool:
    """Exact test rho_S == (1/D_S) I for one subset, without building the matrix.

    Grouping rows by their complement projection, the reduction is maximally
    mixed iff every group is constant on S (off-diagonals vanish) and, for
    every value a of the S-projection, the sum over groups with value a of
    |group|^2 equals r / D_S (diagonal uniformity).
    """
    r, n = cells.shape
    comp = [j for j in range(n) if j not in subset]
    d_s = prod(levels[j] for j in subset)
    if r % d_s:
        return False
    target = r // d_s
    s_codes = _codes(cells, levels, subset)
    if sum(float(np.log2(levels[j])) for j in comp) < 62:
        comp_ids = _codes(cells, levels, comp)
    else:
        _, comp_ids = np.unique(cells[:, comp], axis=0, return_inverse=True)
        comp_ids = comp_ids.reshape(-1)
    order = np.argsort(comp_ids, kind="stable")
    sorted_ids = comp_ids[order]
    sorted_s = s_codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [r]])
    diag = np.zeros(d_s, dtype=np.int64)
    for lo, hi in zip(starts, ends):
        block = sorted_s[lo:hi]
        if (block != block[0]).any():
            return False  # off-diagonal mass
        diag[block[0]] += (hi - lo) ** 2
    return bool((diag == target).all())


def k_uniform_loop(cells, levels, k):
    """(holds, first failing subset, subsets checked, subsets total), one subset at a time."""
    n = cells.shape[1]
    checked = 0
    for subset in combinations(range(n), k):
        checked += 1
        if not uniform_on_subset(cells, levels, subset):
            return False, subset, checked, comb(n, k)
    return True, None, checked, comb(n, k)


def naive_spectrum(cells) -> dict[int, int]:
    """Pair count of every attained Hamming distance, one row pair at a time."""
    rows = [tuple(row) for row in cells.tolist()]
    out: dict[int, int] = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = sum(1 for a, b in zip(rows[i], rows[j]) if a != b)
            out[d] = out.get(d, 0) + 1
    return out


def krawtchouk(j, w, n, q):
    """K_j(w) of the Hamming scheme on n coordinates over q symbols."""
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * comb(w, s) * comb(n - w, j - s) for s in range(j + 1)
    )


def macwilliams_strength(weights, q):
    """Strength of a linear array over GF(q) from its weight distribution alone.

    ``weights[w]`` counts the rows of weight w.  The MacWilliams transform
    B_j = (1/r) sum_w A_w K_j(w) is the dual code's weight distribution, in
    exact rationals, and by Delsarte's theorem the array has strength t iff
    B_1 = ... = B_t = 0: its strength is the dual's minimal nonzero weight
    minus one (all n columns when the dual is {0}).
    """
    n = len(weights) - 1
    r = sum(weights)
    dual = [
        Fraction(sum(a * krawtchouk(j, w, n, q) for w, a in enumerate(weights)), r)
        for j in range(n + 1)
    ]
    if dual[0] != 1 or any(b < 0 or b.denominator != 1 for b in dual):
        raise AssertionError(f"not the weight distribution of a linear code: dual {dual}")
    return next((j - 1 for j in range(1, n + 1) if dual[j]), n)


def naive_codes(radices):
    """Every digit tuple under ``radices``, most significant first, in code order.

    ``itertools.product`` varies the last digit fastest, so its i-th tuple is
    the one whose mixed-radix code is i.  It is lazy: take a prefix of it
    when the product of the radices is large.
    """
    return product(*(range(d) for d in radices))


def naive_prime_power(q):
    """(p, m) with q = p^m and p prime, or None, by trial division up to sqrt(q)."""
    if q < 2:
        return None
    p = 2
    while p * p <= q and q % p:
        p += 1
    if p * p > q:
        return q, 1
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


# ---------------------------------------------------------------------------
# finite fields: polynomials over GF(p) as little-endian coefficient lists


def _naive_poly_mod(a, g, p):
    """Remainder of a modulo the monic polynomial g over GF(p)."""
    a = list(a)
    dg = len(g) - 1
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i] % p
        if c:
            for j, gj in enumerate(g):
                a[i - dg + j] = (a[i - dg + j] - c * gj) % p
    return [c % p for c in a[:dg]]


def _naive_monic(p, d):
    """Monic degree-d polynomials over GF(p), ordered by their integer value."""
    for tail in range(p**d):
        yield [tail // p**i % p for i in range(d)] + [1]


def naive_smallest_irreducible(p, m):
    """Smallest monic irreducible polynomial of degree m over GF(p), by trial division."""
    for f in _naive_monic(p, m):
        if all(
            any(_naive_poly_mod(f, g, p))
            for d in range(1, m // 2 + 1)
            for g in _naive_monic(p, d)
        ):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


def naive_gf_add(a, b, p, m):
    """Digit-wise sum of two base-p field labels."""
    return sum((a // p**i + b // p**i) % p * p**i for i in range(m))


def naive_gf_mul(a, b, p, modulus):
    """Schoolbook polynomial product of two field labels, reduced by the modulus."""
    m = len(modulus) - 1
    da = [a // p**i % p for i in range(m)]
    db = [b // p**i % p for i in range(m)]
    product_ = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            product_[i + j] += x * y
    return sum(c * p**i for i, c in enumerate(_naive_poly_mod(product_, modulus, p)))


def naive_gf_pow(a, e, p, modulus):
    """a^e by square-and-multiply over naive_gf_mul; 0^0 = 1."""
    out = 1
    while e:
        if e & 1:
            out = naive_gf_mul(out, a, p, modulus)
        a = naive_gf_mul(a, a, p, modulus)
        e >>= 1
    return out


def naive_partition(array, block_count):
    """First strength-1 partition of the rows into ``block_count`` equal blocks.

    Label vectors are tried in lexicographic order, among those whose labels
    first appear in increasing order (one vector per partition) and that use
    every label equally often.  Returns the blocks as row-index tuples, or None.
    """
    rows = array.row_tuples()
    r = len(rows)
    size = r // block_count

    def vectors(prefix):
        if len(prefix) == r:
            yield prefix
            return
        for label in range(min(max(prefix, default=-1) + 2, block_count)):
            if prefix.count(label) < size:
                yield from vectors(prefix + (label,))

    for labels in vectors(()):
        blocks = [[i for i in range(r) if labels[i] == b] for b in range(block_count)]
        if all(naive_strength([rows[i] for i in block], array.levels, 1) for block in blocks):
            return tuple(tuple(block) for block in blocks)
    return None


class _BudgetSpent(Exception):
    pass


def naive_canonical_search(levels, runs, counters, floor=None, budget=None, given=None):
    """The canonical search cell by cell, recounting everything at every cell.

    Rows are filled top-down, each left to right, and cell j takes symbols
    below ``levels[j]`` in ascending order; every (cell, symbol) tried is a
    node.  Row 0 is the first given row followed by zeros, and each later
    row starts from its given cells.  A symbol is tried when:

    - the row so far is not below the row above wherever they tie so far;
    - a searched column whose range equals the column before it, and that
      has equalled it in every earlier row, is not below it in this row;
    - with given cells, it is at most one past every symbol the column held
      in earlier rows (a row opens at most one new label).

    It is kept when, for every ``(columns, key, lam)`` counter ending at this
    column, at most ``lam`` rows so far share the row's key on ``columns``,
    and when the row so far agrees with no earlier row on more than
    n - ``floor`` columns.  Returns ``(status, nodes, rows)``: "found" with
    the rows, "exhausted", or "budget" after ``budget`` + 1 nodes.
    """
    n = len(levels)
    g = 0 if given is None else len(given[0])
    fronts = [list(row) for row in given] if given is not None else [[] for _ in range(runs)]
    rows = [fronts[0] + [0] * (n - g)]
    nodes = 0

    def keeps(i, j):
        row = rows[i]
        for columns, key, lam in counters:
            if columns[-1] == j:
                mine = key([row[c] for c in columns])
                if sum(key([other[c] for c in columns]) == mine for other in rows) > lam:
                    return False
        for other in rows[:i] if floor else ():
            if sum(a == b for a, b in zip(row[: j + 1], other)) > n - floor:
                return False
        return True

    def symbols(i, j):
        row, above = rows[i], rows[i - 1]
        low = above[j] if row[:j] == above[:j] else 0
        if j > g and levels[j] == levels[j - 1]:
            if all(other[j - 1] == other[j] for other in rows[:i]):
                low = max(low, row[j - 1])
        high = levels[j]
        if g:
            high = min(high, max(other[j] for other in rows[:i]) + 2)
        return range(low, high)

    def fill(i, j):
        nonlocal nodes
        if j == n:
            if i == runs - 1:
                return True
            rows.append(fronts[i + 1] + [0] * (n - g))
            if fill(i + 1, g):
                return True
            rows.pop()
            return False
        for v in symbols(i, j):
            nodes += 1
            if budget is not None and nodes > budget:
                raise _BudgetSpent
            rows[i][j] = v
            if keeps(i, j) and fill(i, j + 1):
                return True
        return False

    try:
        if fill(0, n):
            return "found", nodes, [tuple(row) for row in rows]
    except _BudgetSpent:
        return "budget", nodes, None
    return "exhausted", nodes, None


# ---------------------------------------------------------------------------
# moa v1, one line at a time

_LINE_INTS = re.compile(r"(?:0|-?[1-9][0-9]{0,18})(?: (?:0|-?[1-9][0-9]{0,18}))*")


def _line_ints(text, what):
    from oakit.errors import FormatError

    if not _LINE_INTS.fullmatch(text):
        raise FormatError(f"{what} must be canonical int64 decimals, got {text!r}")
    values = [int(x) for x in text.split(" ")]
    if any(not -(1 << 63) <= x < 1 << 63 for x in values):
        raise FormatError(f"{what} must be canonical int64 decimals, got {text!r}")
    return values


def line_parse_any(text):
    """The moa v1 reader as a per-line loop: every line is split out of the
    text, each row is matched against a regular expression, and the rows
    are joined and converted token by token.  It returns what ``parse_any``
    returns and raises the same exception with the same message.
    """
    from oakit.algebra import AdditiveGroup, DifferenceScheme, HadamardMatrix01
    from oakit.arrays import MixedArray
    from oakit.errors import FormatError

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos, header, seen_version = 0, {}, False
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
        if key not in ("kind", "runs", "levels", "strength"):
            raise FormatError(f"unknown header key {key!r}")
        if key in header:
            raise FormatError(f"header key {key!r} given twice")
        header[key] = value
    else:
        raise FormatError("missing rows: marker")
    row_lines = lines[pos:]
    if "runs" not in header or "levels" not in header:
        raise FormatError("missing runs or levels header")
    runs = _line_ints(header["runs"], "runs")
    levels = tuple(_line_ints(header["levels"], "levels"))
    if "strength" in header and len(_line_ints(header["strength"], "strength")) != 1:
        raise FormatError(f"strength must be one integer, got {header['strength']!r}")
    for line in row_lines:
        if line.startswith("#"):
            raise FormatError("comments are only allowed before rows:")
        if not _LINE_INTS.fullmatch(line) or line.count(" ") != len(levels) - 1:
            raise FormatError(f"malformed row {line!r}")
    if runs != [len(row_lines)]:
        raise FormatError(f"declared {header['runs']} rows, found {len(row_lines)}")
    values = [int(x) for x in " ".join(row_lines).split()]
    if any(not -(1 << 63) <= x < 1 << 63 for x in values):
        raise FormatError("symbol outside the int64 range")
    cells = np.array(values, dtype=np.int64).reshape(len(row_lines), len(levels))
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
        d, t = _line_ints(f"{parts[1]} {parts[2]}", "scheme order and strength")
        tag = parts[3] if len(parts) == 4 else "mod"
        if set(levels) != {d}:
            raise FormatError("difference scheme levels must all equal its order")
        return DifferenceScheme(cells, d, t, AdditiveGroup(d, tag), verify=True)
    raise FormatError(f"unknown kind {parts[0]!r}")
