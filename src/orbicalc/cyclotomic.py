"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

Values are stored as integer coordinate vectors over the power basis
1, zeta, ..., zeta^(phi(n)-1), i.e. reduced modulo the n-th cyclotomic
polynomial.  All operations are exact integer arithmetic; there is no
floating point anywhere in this module.  `reduce_rows` reduces many
coefficient vectors at once, for the character table's bulk work.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials, denominator monic.  Exact."""
    num = list(num)
    dd = len(den) - 1
    if dd == 0:
        return num, []
    quot = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in divisors(n):
        if d == n:
            continue
        quot, rem = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
        assert not rem, "cyclotomic division must be exact"
        num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_power_coords(order: int, raw: Iterable[int]) -> tuple[int, ...]:
    """Reduce a coefficient vector over 1..zeta^k (any k) mod Phi_order."""
    coeffs = list(raw)
    # Fold exponents >= order using zeta^order = 1 first, then reduce mod Phi.
    if len(coeffs) > order:
        folded = [0] * order
        for k, c in enumerate(coeffs):
            folded[k % order] += c
        coeffs = folded
    phi = list(cyclotomic_polynomial(order))
    _, rem = _poly_divmod_monic(coeffs, phi)
    deg = len(phi) - 1
    rem = rem + [0] * (deg - len(rem))
    return tuple(rem)


@lru_cache(maxsize=None)
def _reduction_matrix(n: int) -> np.ndarray:
    """Row k holds the reduced coordinates of zeta^k, k = 0..n-1."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows, cur = [], [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(cur)
        # zeta * cur, with zeta^deg = -(phi_0 + ... + phi_(deg-1) zeta^(deg-1)).
        top = cur[-1]
        cur = [c - top * f for c, f in zip([0] + cur[:-1], phi)]
    R = np.array(rows, dtype=object)
    R.flags.writeable = False
    return R


def reduce_rows(order: int, raw: np.ndarray) -> np.ndarray:
    """Reduce every coefficient vector over 1, zeta, ..., zeta^(order-1)
    (the last axis of an integer array) mod Phi_order, all at once, as one
    product with the matrix of the reduced powers of zeta; returns the
    reduced coordinates, as `CycInt` stores them.

    Exact: the product runs in int64 when no sum can leave its range, and
    on Python integers otherwise.
    """
    R = _reduction_matrix(order)
    largest = max(int(raw.max()), -int(raw.min()), 1) if raw.size else 1
    if largest * order * int(np.abs(R).max()) < 2**63:
        return raw.astype(np.int64, copy=False) @ R.astype(np.int64)
    return raw.astype(object) @ R


class CycInt:
    """A cyclotomic integer in Z[zeta_order], stored in reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...], _reduced: bool = False):
        self.order = order
        if _reduced:
            self.coeffs = coeffs
        else:
            self.coeffs = _reduce_power_coords(order, coeffs)

    @staticmethod
    def from_int(order: int, value: int) -> "CycInt":
        deg = _phi_degree(order)
        coeffs = (value,) + (0,) * (deg - 1)
        return CycInt(order, coeffs, _reduced=True)

    @staticmethod
    def root_of_unity(order: int, exponent: int) -> "CycInt":
        raw = [0] * order
        raw[exponent % order] = 1
        return CycInt(order, tuple(raw))

    @staticmethod
    def from_root_multiplicities(order: int, mults: Iterable[int]) -> "CycInt":
        """Sum of mults[k] copies of zeta^k for k = 0..order-1."""
        return CycInt(order, tuple(mults))

    def _check(self, other: "CycInt") -> None:
        if self.order != other.order:
            raise ValueError(
                f"cyclotomic orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            _reduced=True,
        )

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(
            self.order,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            _reduced=True,
        )

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, tuple(-a for a in self.coeffs), _reduced=True)

    def __mul__(self, other) -> "CycInt":
        if isinstance(other, int):
            return CycInt(
                self.order, tuple(a * other for a in self.coeffs), _reduced=True
            )
        self._check(other)
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        return CycInt(self.order, tuple(prod))

    __rmul__ = __mul__

    def conjugate(self) -> "CycInt":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(-1)

    def galois(self, j: int) -> "CycInt":
        """Galois twist zeta -> zeta^j (j coprime to order for a field map)."""
        raw = [0] * self.order
        # Expand the reduced form zeta^k -> zeta^(jk mod order).
        for k, c in enumerate(self.coeffs):
            raw[(j * k) % self.order] += c
        return CycInt(self.order, tuple(raw))

    def lift(self, new_order: int) -> "CycInt":
        """Reinterpret in Z[zeta_new_order] where order divides new_order."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValueError("can only lift to a multiple of the current order")
        step = new_order // self.order
        raw = [0] * new_order
        for k, c in enumerate(self.coeffs):
            raw[k * step] += c
        return CycInt(new_order, tuple(raw))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not a rational integer: {self}")
        return self.coeffs[0]

    def is_real(self) -> bool:
        return self == self.conjugate()

    def divide_exact(self, d: int) -> "CycInt":
        out = []
        for c in self.coeffs:
            q, r = divmod(c, d)
            if r != 0:
                raise ValueError(f"{self} is not divisible by {d}")
            out.append(q)
        return CycInt(self.order, tuple(out), _reduced=True)

    def sort_key(self) -> tuple:
        return self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.order != other.order:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __complex__(self) -> complex:
        import cmath

        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(c * z**k for k, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"CycInt({self.order}, {self.coeffs})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                base = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                if c == 1:
                    terms.append(base)
                elif c == -1:
                    terms.append(f"-{base}")
                else:
                    terms.append(f"{c}*{base}")
        out = terms[0]
        for t in terms[1:]:
            out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return out
