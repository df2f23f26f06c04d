"""Symbols as mixed-radix digits, and the additive groups that act on them.

A symbol over d levels is written as a tuple of digits under a tuple of
radices whose product is d, most significant digit first: the symbol is
sum_i x_i * place_i, where place_i is the product of the radices after i,
so code order equals lexicographic digit order.  The cyclic group Z_d is
the one radix (d,); the additive group of GF(p^m) on its base-p labels is
(p,) * m; and a product of such groups is the concatenation of their
radices.  Each group adds digit by digit, each digit mod its radix.

Every function here works elementwise on Python ints and on numpy integer
arrays alike.  Numpy integers narrower than 64 bits, digits and radices
alike, are widened to int64 first: `oakit.arrays.MixedArray` stores its
cells as narrow as their levels allow, and NumPy keeps that dtype through
``x * d + y`` and ``a + b``, which would wrap.  This module sits below
`oakit.arrays` and `oakit.algebra`: it imports nothing from oakit but the
errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "place_values",
    "encode",
    "decode",
    "add_digits",
    "sub_digits",
    "is_prime",
    "prime_power_decomposition",
    "AdditiveGroup",
    "cyclic_group",
    "gf_additive_group",
]

# Largest field order: finite fields keep O(q) log and antilog tables.
FIELD_ORDER_CAP = 1 << 16


# ---------------------------------------------------------------------------
# mixed-radix digits


def _wide(x):
    """``x`` as int64 if it is a numpy integer narrower than 64 bits, else ``x``."""
    if isinstance(x, (np.ndarray, np.generic)) and x.dtype.kind in "biu" and x.dtype.itemsize < 8:
        return x.astype(np.int64)
    return x


def place_values(radices: Sequence[int]) -> tuple[int, ...]:
    """Each digit's place value: the product of the radices after it."""
    radices = [_wide(d) for d in radices]
    return tuple(prod(radices[i + 1 :]) for i in range(len(radices)))


def encode(digits, radices: Sequence[int]):
    """The code of ``digits`` (most significant first) under ``radices``."""
    code = 0
    for x, d in zip(digits, radices, strict=True):
        code = code * _wide(d) + _wide(x)
    return code


def decode(code, radices: Sequence[int]) -> tuple:
    """The digits of ``code`` under ``radices``, most significant first."""
    code = _wide(code)
    return tuple(code // m % d for m, d in zip(place_values(radices), radices))


def add_digits(a, b, radices: Sequence[int]):
    """a + b digit by digit, each digit mod its radix (no carries)."""
    a, b = _wide(a), _wide(b)
    if len(radices) == 1:
        return (a + b) % radices[0]
    return sum((a // m + b // m) % d * m for m, d in zip(place_values(radices), radices))


def sub_digits(a, b, radices: Sequence[int]):
    """a - b digit by digit, each digit mod its radix (no borrows)."""
    a, b = _wide(a), _wide(b)
    if len(radices) == 1:
        return (a - b) % radices[0]
    return sum((a // m - b // m) % d * m for m, d in zip(place_values(radices), radices))


# ---------------------------------------------------------------------------
# primality


# The first 12 prime bases make the strong-probable-prime test exact below
# this bound (the smallest strong pseudoprime to all of them), which covers
# every order of at most 19 digits that moa v1 can declare.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n below 3.18 * 10^23."""
    if n >= _MILLER_RABIN_LIMIT:
        raise ParameterError(f"{n} is beyond the exact primality range (< 3.18e23)")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q: int, m: int) -> int:
    """floor(q^(1/m)) for m >= 2: a float estimate, corrected exactly."""
    x = int(round(q ** (1.0 / m)))
    while x**m > q:
        x -= 1
    while (x + 1) ** m <= q:
        x += 1
    return x


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p^m and p prime, or None (q below 3.18 * 10^23)."""
    if q < 2:
        return None
    if is_prime(q):
        return q, 1
    for m in range(2, q.bit_length()):
        p = _integer_root(q, m)
        if p < 2:
            break
        if p**m == q and is_prime(p):
            return p, m
    return None


def _require_prime_power(q: int) -> tuple[int, int]:
    pm = prime_power_decomposition(q)
    if pm is None:
        raise ParameterError(f"{q} is not a prime power")
    return pm


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class AdditiveGroup:
    """A finite abelian group on the symbols 0..order-1, computed, not tabulated.

    Tag "mod" is the cyclic group Z_order, the one radix (order,).  Tag "gf"
    is the additive group of GF(order), order a prime power p^m up to 2^16,
    on the field's base-p labels: the radices (p,) * m.  A prime order is
    cyclic either way, so there the tag becomes "mod".  ``add`` and ``sub``
    work elementwise on ints and numpy arrays.
    """

    order: int
    tag: str
    radices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tag not in ("mod", "gf"):
            raise ParameterError(f"unknown group tag {self.tag!r}")
        radices = (self.order,)
        if self.tag == "gf":
            p, m = _require_prime_power(self.order)
            if m == 1:
                object.__setattr__(self, "tag", "mod")
            elif self.order > FIELD_ORDER_CAP:
                raise ParameterError(f"field order {self.order} exceeds 2^16")
            radices = (p,) * m
        if self.order < 2:
            raise ParameterError(f"group order must be >= 2, got {self.order}")
        object.__setattr__(self, "radices", radices)

    def add(self, a, b):
        return add_digits(a, b, self.radices)

    def sub(self, a, b):
        return sub_digits(a, b, self.radices)


def cyclic_group(d: int) -> AdditiveGroup:
    return AdditiveGroup(d, "mod")


def gf_additive_group(q: int) -> AdditiveGroup:
    """Additive group of GF(q) on base-p integer labels (carry-free addition)."""
    return AdditiveGroup(q, "gf")
