"""Independent brute-force oracles used to validate the library's kernels.

Everything here is deliberately naive pure-Python counting over explicit
tuples; none of it shares code with the package's numpy paths.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import prod


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
