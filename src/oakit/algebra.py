"""Finite fields, Hadamard matrices, difference schemes.

Difference schemes live over a finite abelian group of order d written on
the symbols {0, ..., d-1}: either the cyclic group Z_d or, for prime powers
q = p^m, the additive group of GF(q) under the canonical base-p integer
encoding.  Both groups come from `oakit.groups`, whose group and
number-theory names this module re-exports.  A matrix D over such a group
is a difference scheme of strength t exactly when its expansion D (+) (d),
every row shifted by every group element, is an orthogonal array of
strength t; that operational predicate is the only acceptance test for
schemes, so generation without verification never happens here.

Hadamard matrices are kept in 0/1 form (x = (1 - h)/2 for a +-1 matrix h),
normalized so the first row and column are all zero; any two distinct rows
then disagree in exactly n/2 places.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arrays import (
    _TILE_CELLS,
    MixedArray,
    StrengthReport,
    StrengthWitness,
    cell_dtype,
    concat_columns,
    distance_spectrum,
    select_columns,
    verify_strength,
)
from .errors import ConstructionError, ParameterError, VerificationError
from .groups import (  # the group and number-theory names are re-exported
    FIELD_ORDER_CAP,
    AdditiveGroup,
    _prime_factors,
    _require_prime_power,
    add_digits,
    cyclic_group,
    decode,
    encode,
    gf_additive_group,
    is_prime,
    prime_power_decomposition,
    sub_digits,
)

__all__ = [
    "AdditiveGroup",
    "cyclic_group",
    "gf_additive_group",
    "FiniteField",
    "finite_field",
    "is_prime",
    "prime_power_decomposition",
    "HadamardMatrix01",
    "hadamard01",
    "DifferenceScheme",
    "is_difference_scheme",
    "ds_linear",
    "ds_poly3",
    "kronecker_sum",
    "expand",
    "juxtapose_scheme_raw",
    "repeat_rows_each",
    "product_construction",
    "column_vector",
]


# ---------------------------------------------------------------------------
# finite fields


# Polynomials over GF(p) are little-endian coefficient sequences; results have
# no trailing zeros, and the zero polynomial is [].


def _poly_rem(a: list[int], f: list[int], p: int) -> list[int]:
    a = a[:]
    df = len(f) - 1
    lead_inv = pow(f[-1], p - 2, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] * lead_inv % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    del a[df:]
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, f, p)


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    for bit in bin(e)[2:]:
        result = _poly_mulmod(result, result, f, p)
        if bit == "1":
            result = _poly_mulmod(result, a, f, p)
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic f of degree m >= 2 over GF(p).

    f is irreducible iff x^(p^m) = x mod f and gcd(x^(p^(m/r)) - x, f) = 1
    for every prime r dividing m.
    """
    m = len(f) - 1
    maximal = {m // r for r in _prime_factors(m)}
    frob = [0, 1]  # x^(p^d) mod f
    for d in range(1, m + 1):
        frob = _poly_powmod(frob, p, f, p)
        if d in maximal:
            diff = frob + [0] * (2 - len(frob))
            diff[1] = (diff[1] - 1) % p
            while diff and diff[-1] == 0:
                diff.pop()
            if len(_poly_gcd(f, diff, p)) > 1:
                return False
    return frob == [0, 1]


class FiniteField:
    """GF(p^m) for q = p^m <= 2^16, elements encoded as integers 0..q-1 in base p.

    Label a stands for the polynomial sum_i a_i x^i over GF(p), where a_i is
    the i-th base-p digit of a counted from the least significant, so
    addition and subtraction are digit-wise mod p under the radices
    ``(p,) * m``.  The modulus is the smallest monic irreducible polynomial of
    degree m over GF(p) when read as the integer p^m + c_{m-1} p^{m-1} + ...
    + c_0, found with Rabin's test in gcd form; this makes element labels
    reproducible across builds.  For m = 1 the modulus is x and arithmetic
    is plain mod p.

    Multiplication goes through the smallest primitive element g (by
    label): ``exp[i]`` is g^i, stored for i < 2(q - 1) so that a sum of two
    logs needs no reduction, and ``log[g^i]`` is i.  Both tables take O(q)
    memory; orders above 2^16 are refused.  Every operation works
    elementwise on Python ints and on numpy integer arrays alike (table
    lookups return numpy integers), and 0^0 = 1.
    """

    def __init__(self, q: int):
        if q > FIELD_ORDER_CAP:
            raise ParameterError(f"field order {q} exceeds 2^16")
        p, m = _require_prime_power(q)
        self.p, self.m, self.q = p, m, q
        self.radices = (p,) * m
        self.modulus = self._smallest_irreducible() if m > 1 else (0, 1)
        modulus = list(self.modulus)
        # a label's digits, reversed, are its polynomial's coefficients from x^0 up
        primitive = next(
            g
            for g in range(1, q)
            if all(
                _poly_powmod(decode(g, self.radices)[::-1], (q - 1) // r, modulus, p) != [1]
                for r in _prime_factors(q - 1)
            )
        )
        # label -> label * g, as the GF(p)-linear map on coefficient vectors
        g = decode(primitive, self.radices)[::-1]
        images = np.array(
            [
                (_poly_mulmod([0] * i + [1], g, modulus, p) + [0] * m)[:m]
                for i in range(m)
            ],
            dtype=np.int64,
        )
        coefficients = np.stack(decode(np.arange(q), self.radices)[::-1], axis=1)
        times_g = encode((coefficients @ images % p).T[::-1], self.radices).tolist()
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = times_g[exp[i - 1]]
        self._exp = np.array(exp * 2, dtype=np.int64)
        self._log = np.zeros(q, dtype=np.int64)
        self._log[self._exp[: q - 1]] = np.arange(q - 1)

    def _smallest_irreducible(self) -> tuple[int, ...]:
        # every degree has a monic irreducible polynomial over GF(p)
        moduli = ([*decode(tail, self.radices)[::-1], 1] for tail in range(self.p**self.m))
        return tuple(next(f for f in moduli if _is_irreducible(f, self.p)))

    # -- arithmetic ----------------------------------------------------------
    def add(self, a, b):
        return add_digits(a, b, self.radices)

    def sub(self, a, b):
        return sub_digits(a, b, self.radices)

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] * ((a != 0) & (b != 0))

    def inv(self, a):
        if not np.all(a):
            raise ParameterError("0 has no inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, e: int):
        n = self.q - 1
        return self._exp[self._log[a] * (e % n) % n] * (a != 0) + ((a == 0) & (e == 0))

    def quadratic_character(self, a):
        """+1 for nonzero squares, -1 for non-squares, 0 for 0.

        Euler's criterion for odd q; in characteristic 2 squaring is a
        bijection, so every nonzero element is a square.
        """
        if self.p == 2:
            return (a != 0) * 1
        return (2 * (self.pow(a, (self.q - 1) // 2) == 1) - 1) * (a != 0)


_FIELD_CACHE: dict[int, FiniteField] = {}


def finite_field(q: int) -> FiniteField:
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = FiniteField(q)
    return _FIELD_CACHE[q]


# ---------------------------------------------------------------------------
# Hadamard matrices (0/1 form)


@dataclass(frozen=True, eq=False)
class HadamardMatrix01:
    """0/1 Hadamard matrix, normalized: first row and column all zero."""

    order: int
    cells: np.ndarray
    _array: MixedArray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.order
        if np.shape(self.cells) != (n, n):
            raise ParameterError(f"expected {n}x{n} matrix")
        array = MixedArray((2,) * n, self.cells)
        cells = array.cells
        if n > 1:
            if cells[0].any() or cells[:, 0].any():
                raise VerificationError("matrix is not normalized")
            if distance_spectrum(array).distances != (n // 2,):
                raise VerificationError(f"rows at Hamming distance != {n // 2}: not Hadamard")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_array", array)

    def as_scheme(self, strength: int = 2) -> "DifferenceScheme":
        """The matrix as a strength-2 or strength-3 difference scheme over Z_2.

        The scheme is not re-checked, because the constructor's check already
        proves it.  In +-1 form, rows at Hamming distance n/2 make H H^T = nI,
        so H^T H = nI as well and any two columns are orthogonal.  The
        expansion [H; H + 1] is [H; -H] in +-1 form, which cancels every
        product of an odd number of columns; orthogonal columns cancel every
        product of two.  So every pair of expanded columns is balanced
        (strength 2), and so is every triple (strength 3), which exists from
        order 4 on.  Raises ``ParameterError`` for any other strength, or one
        above the order.
        """
        if strength not in (2, 3) or strength > self.order:
            raise ParameterError(
                f"a Hadamard matrix of order {self.order} gives no strength-{strength} scheme"
            )
        return DifferenceScheme(self.cells, 2, strength, cyclic_group(2), verify=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HadamardMatrix01):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.cells, other.cells)

    __hash__ = None  # type: ignore[assignment]


def _normalize_pm1(h: np.ndarray) -> np.ndarray:
    h = h.copy()
    h[:, h[0] == -1] *= -1
    h[h[:, 0] == -1] *= -1
    return h


def _pm1_to_01(h: np.ndarray) -> np.ndarray:
    return (1 - h) // 2


def _jacobsthal(q: int) -> np.ndarray:
    gf = finite_field(q)
    idx = np.arange(q)
    return gf.quadratic_character(gf.sub(idx[:, None], idx[None, :]))


def _paley1(q: int) -> np.ndarray:
    # q = prime power, q % 4 == 3; returns +-1 Hadamard of order q + 1
    n = q + 1
    s = np.zeros((n, n), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = -1
    s[1:, 1:] = _jacobsthal(q)
    return s + np.eye(n, dtype=np.int64)


def _paley2(q: int) -> np.ndarray:
    # q = prime power, q % 4 == 1; returns +-1 Hadamard of order 2(q + 1)
    n = q + 1
    c = np.zeros((n, n), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = 1
    c[1:, 1:] = _jacobsthal(q)
    on = np.array([[1, 1], [1, -1]], dtype=np.int64)
    off = np.array([[1, -1], [-1, -1]], dtype=np.int64)
    return np.kron(c, on) + np.kron(np.eye(n, dtype=np.int64), off)


def _paley1_order(n: int) -> int | None:
    q = n - 1
    pm = prime_power_decomposition(q)
    return q if pm is not None and q % 4 == 3 else None


def _paley2_order(n: int) -> int | None:
    if n % 2:
        return None
    q = n // 2 - 1
    pm = prime_power_decomposition(q)
    return q if pm is not None and q % 4 == 1 else None


def hadamard01(order: int) -> HadamardMatrix01:
    """Generate a normalized 0/1 Hadamard matrix of the given order.

    Generators are tried in the precedence Sylvester (n = 2^m, where
    (-1)^popcount(i & j) is entry (i, j) in +-1 form), Paley I
    (n = q + 1, q = 3 mod 4), Paley II (n = 2q + 2, q = 1 mod 4), then the
    Kronecker product H(a) x H(n/a) for the smallest basic order a dividing n
    whose cofactor also builds.  In 0/1 form that product is the Kronecker
    sum over Z_2, as a product of +-1 entries is a sum of 0/1 ones mod 2.
    Raises when no implemented generator covers the order.
    """
    n = order
    if n < 1:
        raise ParameterError(f"order must be >= 1, got {n}")
    if (n & (n - 1)) == 0:
        i = np.arange(n)
        return HadamardMatrix01(n, np.bitwise_count(i[:, None] & i) & 1)
    q = _paley1_order(n)
    if q is not None:
        return HadamardMatrix01(n, _pm1_to_01(_normalize_pm1(_paley1(q))))
    q = _paley2_order(n)
    if q is not None:
        return HadamardMatrix01(n, _pm1_to_01(_normalize_pm1(_paley2(q))))
    for a in range(2, n):
        if n % a == 0 and _basic_order(a):
            try:
                factors = [hadamard01(m)._array for m in (a, n // a)]
            except ParameterError:
                continue
            return HadamardMatrix01(n, kronecker_sum(*factors, cyclic_group(2)).cells)
    raise ParameterError(
        f"no generator for Hadamard order {n}; applicable methods: sylvester "
        "(2^m), paley1 (q+1, q = 3 mod 4), paley2 (2q+2, q = 1 mod 4), "
        "kronecker products thereof"
    )


def _basic_order(n: int) -> bool:
    return (
        n >= 2
        and ((n & (n - 1)) == 0 or _paley1_order(n) is not None or _paley2_order(n) is not None)
    )


# ---------------------------------------------------------------------------
# difference schemes


@dataclass(frozen=True, eq=False)
class DifferenceScheme:
    """r x c matrix over a group of order d whose expansion is an OA.

    ``strength`` is the declared tag t: the expansion D (+) (d) must pass the
    exact strength-t check.  Construction verifies that predicate unless
    ``verify=False`` is passed: for internal staging, and by
    `HadamardMatrix01.as_scheme`, whose matrix check already proves it.
    The cells obey `MixedArray`'s rules with d levels on every column.
    """

    cells: np.ndarray
    order: int
    strength: int
    group: AdditiveGroup
    verify: bool = True
    _array: MixedArray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        array = _single_level(self.order, self.cells)
        if self.group.order != self.order:
            raise ParameterError("group order does not match scheme order")
        if self.strength < 2:
            raise ParameterError("scheme strength tag must be >= 2")
        object.__setattr__(self, "cells", array.cells)
        object.__setattr__(self, "_array", array)
        if self.verify:
            report = _expansion_strength(array, self.strength, self.group)
            if not report.holds:
                raise VerificationError(
                    f"matrix is not a strength-{self.strength} difference scheme: "
                    f"witness {report.witness}"
                )

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    def select_columns(self, indices: Sequence[int]) -> "DifferenceScheme":
        """The scheme on the given columns, in order, under its tag and unchecked."""
        cells = select_columns(self._array, indices).cells
        return DifferenceScheme(cells, self.order, self.strength, self.group, verify=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferenceScheme):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.cells, other.cells)

    __hash__ = None  # type: ignore[assignment]


def _single_level(d: int, cells) -> MixedArray:
    """``cells`` as a MixedArray with d levels on every column."""
    shape = np.shape(cells)
    return MixedArray((d,) * (shape[1] if len(shape) == 2 else 0), cells)


def expand(scheme: DifferenceScheme) -> MixedArray:
    """D (+) (d): every scheme row shifted by every group element.

    Output row d*i + s is row i shifted by s, so the rows of one scheme row
    stay consecutive (the canonical strength-1 partition blocks).
    """
    return kronecker_sum(scheme._array, column_vector(scheme.order), scheme.group)


def is_difference_scheme(
    candidate: np.ndarray | Sequence[Sequence[int]],
    d: int,
    t: int,
    group: AdditiveGroup | None = None,
) -> StrengthReport:
    """Operational test: D is a strength-t scheme iff D (+) (d) has strength t.

    When d^(t-1) does not divide the row count, the expansion's divisibility
    witness on columns 0..t-1 is returned without expanding it.  The cells
    obey `MixedArray`'s rules with d levels on every column.
    """
    return _expansion_strength(_single_level(d, candidate), t, group or cyclic_group(d))


def _expansion_strength(array: MixedArray, t: int, group: AdditiveGroup) -> StrengthReport:
    """`is_difference_scheme` on a scheme matrix already wrapped as a MixedArray."""
    d = array.levels[0]
    rows, cols = array.cells.shape
    if t > cols:
        raise ParameterError(f"strength {t} exceeds column count {cols}")
    if t >= 1 and rows % d ** (t - 1):
        witness = StrengthWitness(tuple(range(t)), None, None, Fraction(rows * d, d**t))
        return StrengthReport(t, False, None, witness)
    return verify_strength(kronecker_sum(array, column_vector(d), group), t)


def ds_linear(d: int, n: int) -> DifferenceScheme:
    """D(d^n, d^n, d) for prime-power d: entry(x, y) = sum_i x_i y_i in GF(d).

    Rows and columns are indexed by GF(d)^n in big-endian digit order; the
    scheme's group is the additive group of GF(d).
    """
    return _linear_scheme(d, n, verify=True)


def _linear_scheme(d: int, n: int, verify: bool) -> DifferenceScheme:
    """`ds_linear`, checked only with ``verify`` (a caller's output check may cover it)."""
    _require_prime_power(d)
    if n < 1:
        raise ParameterError(f"extension count must be >= 1, got {n}")
    gf = finite_field(d)
    cells = 0
    for digit in decode(np.arange(d**n), (d,) * n):
        cells = gf.add(cells, gf.mul(digit[:, None], digit[None, :]))
    return DifferenceScheme(cells, d, 2, gf_additive_group(d), verify=verify)


def ds_poly3(d: int) -> DifferenceScheme:
    """A verified strength-3 scheme D_3(d^2, d, d) for odd prime powers d.

    Rows are pairs (a, b) in GF(d)^2, columns are field elements c, and the
    entry is a*c + b*c^2.  The strength-3 predicate is checked on
    construction; failure is a hard error, never a silent downgrade.
    """
    p, _ = _require_prime_power(d)
    if p == 2:
        raise ParameterError(f"order must be odd, got {d}")
    gf = finite_field(d)
    a, b = decode(np.arange(d * d)[:, None], (d, d))
    c = np.arange(d)[None, :]
    cells = gf.mul(c, gf.add(a, gf.mul(b, c)))  # c * (a + b*c)
    try:
        return DifferenceScheme(cells, d, 3, gf_additive_group(d), verify=True)
    except VerificationError as exc:
        raise ConstructionError(f"strength-3 scheme construction failed for d={d}") from exc


# ---------------------------------------------------------------------------
# Kronecker sums, row repetition and the symbol-pairing product


def kronecker_sum(a: MixedArray, b: MixedArray, group: AdditiveGroup) -> MixedArray:
    """Kronecker product with multiplication replaced by the group operation.

    Entry block (i, j) is a(i, j) + B elementwise, so the output has
    r_a * r_b rows and N_a * N_b columns.  Both inputs must be single-level
    arrays over the group's order.  The sums are taken for a block of a's
    rows at a time, each block at most 2^18 output cells (or one row of a),
    and written into the narrow output, so the group's int64 temporaries
    stay that small.
    """
    d = group.order
    if set(a.levels) != {d} or set(b.levels) != {d}:
        raise ParameterError(f"both operands must be over {d} levels")
    out = np.empty((a.runs, b.runs, a.ncols, b.ncols), dtype=cell_dtype((d,)))
    step = max(1, _TILE_CELLS // out[0].size)
    for lo in range(0, a.runs, step):
        rows = a.cells[lo : lo + step, None, :, None]
        out[lo : lo + step] = group.add(rows, b.cells[None, :, None, :])
    return MixedArray((d,) * (a.ncols * b.ncols), out.reshape(a.runs * b.runs, -1))


def repeat_rows_each(a: MixedArray, times: int) -> MixedArray:
    """A (x) 1_times: each row repeated ``times`` consecutively (= A (+) 0_d)."""
    if times < 1:
        raise ParameterError("repeat count must be >= 1")
    return MixedArray(a.levels, np.repeat(a.cells, times, axis=0))


def product_construction(a: MixedArray, b: MixedArray) -> MixedArray:
    """Symbol-pairing product on the first min(N_a, N_b) columns.

    Rows are indexed by (i, j) with i major; column c carries the pair
    a(i, c), b(j, c) encoded as the two digits under the radices (d_a(c),
    d_b(c)), that is a * d_b(c) + b.  Strength k of both inputs is
    preserved and MD(product) >= min(MD(a), MD(b)).  Codes are int64: a
    level product above 2^63 raises ``ParameterError``.
    """
    n = min(a.ncols, b.ncols)
    levels = tuple(a.levels[c] * b.levels[c] for c in range(n))
    for c, d in enumerate(levels):
        if d > 1 << 63:
            raise ParameterError(f"column {c} pairs to {d} levels, above the int64 range")
    radices = (np.asarray(a.levels[:n]), np.asarray(b.levels[:n]))
    out = encode((a.cells[:, None, :n], b.cells[None, :, :n]), radices)
    return MixedArray(levels, out.reshape(a.runs * b.runs, n))


def column_vector(d: int) -> MixedArray:
    """(d) = the single column 0, 1, ..., d-1."""
    return MixedArray((d,), np.arange(d, dtype=np.int64)[:, None])


def juxtapose_scheme_raw(host: MixedArray, scheme: DifferenceScheme) -> MixedArray:
    """[A (+) 0_d, D (+) (d)] without preconditions (plumbing shared by builders)."""
    if host.runs != scheme.rows:
        raise ParameterError(
            f"host has {host.runs} rows but scheme has {scheme.rows}"
        )
    return concat_columns(repeat_rows_each(host, scheme.order), expand(scheme))
