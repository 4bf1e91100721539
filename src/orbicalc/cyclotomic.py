"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

Values are stored as integer coordinate vectors over the power basis
1, zeta, ..., zeta^(phi(n)-1), i.e. reduced modulo the n-th cyclotomic
polynomial.  All operations are exact integer arithmetic; there is no
floating point anywhere in this module.

A vector is reduced mod Phi_n by the rows of reduced powers zeta^k,
k = 0..n-1 (exponents fold mod n): `CycInt` for one vector and
`power_sum` for a sum of powers of zeta.  The character table's batches
go through `reduce_blocks`, one synthetic division by Phi_n over whole
exponent columns.  Everything runs on Python integers.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub
from typing import Iterable, Sequence


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial:
    x^n - 1 divided by Phi_d for every proper divisor d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        den = cyclotomic_polynomial(d)
        k = len(den) - 1
        # Synthetic division by the monic den, top down: the quotient
        # overwrites num[k:] and the remainder is left in num[:k].
        for i in range(len(num) - 1, k - 1, -1):
            for j in range(k):
                num[i - k + j] -= num[i] * den[j]
        assert not any(num[:k]), "cyclotomic division must be exact"
        num = num[k:]
    return tuple(num)


@lru_cache(maxsize=None)
def _reduced_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k holds the reduced coordinates of zeta^k, k = 0..n-1."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows, cur = [], [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        # zeta * cur, with zeta^deg = -(phi_0 + ... + phi_(deg-1) zeta^(deg-1)).
        top = cur[-1]
        cur = [c - top * f for c, f in zip([0] + cur[:-1], phi)]
    return tuple(rows)


def _reduce(order: int, raw: Iterable[int]) -> tuple[int, ...]:
    """Reduce a coefficient vector over 1, zeta, zeta^2, ... (any length)
    mod Phi_order."""
    return power_sum(order, [(k % order, c) for k, c in enumerate(raw) if c]).coeffs


def power_sum(order: int, terms: Sequence[tuple[int, int]]) -> "CycInt":
    """sum m zeta^a over the (a, m) in terms, 0 <= a < order: the sum of
    the reduced powers of zeta, each times its multiplicity."""
    rows = _reduced_powers(order)
    if len(terms) == 1 and terms[0][1] == 1:
        return CycInt(order, rows[terms[0][0]], _reduced=True)
    out = [0] * len(rows[0])
    for a, m in terms:
        out = [x + m * y for x, y in zip(out, rows[a])]
    return CycInt(order, tuple(out), _reduced=True)


def reduce_blocks(order: int, flat: list[int]) -> list[int]:
    """Reduce mod Phi_order, in place, every block of `order` coefficients
    over 1, zeta, ..., zeta^(order-1) in a flat list, and return the list.
    One synthetic division serves every block: each exponent column from
    the top down is folded into the columns below it.  The first
    phi(order) slots of each block then hold its reduced coordinates, as
    `CycInt` stores them."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    for a in range(order - 1, deg - 1, -1):
        top = flat[a::order]
        multiples = {f: top if f == 1 else [f * c for c in top] for f in set(phi[:-1]) if f}
        # zeta^a = -zeta^(a - deg) (phi_0 + phi_1 zeta + ... + phi_(deg-1) zeta^(deg-1)).
        for b, f in enumerate(phi[:-1], a - deg):
            if f:
                flat[b::order] = map(sub, flat[b::order], multiples[f])
    return flat


class CycInt:
    """A cyclotomic integer in Z[zeta_order], stored in reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...], _reduced: bool = False):
        self.order = order
        if _reduced:
            self.coeffs = coeffs
        else:
            self.coeffs = _reduce(order, coeffs)

    @staticmethod
    def from_int(order: int, value: int) -> "CycInt":
        deg = len(cyclotomic_polynomial(order)) - 1
        coeffs = (value,) + (0,) * (deg - 1)
        return CycInt(order, coeffs, _reduced=True)

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
