"""Exact arithmetic in cyclotomic fields over the rationals.

Elements are stored in the canonical power basis 1, z, ..., z^(d-1) of
Q[x]/(Phi_m), where Phi_m is the m-th cyclotomic polynomial and d its degree,
so equality is coefficient comparison.  Integral coefficients are stored as
ints and the others as Fractions; no floating point anywhere.  An order below
1, or an order, exponent or coefficient of another type, raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .partitions import check_size, checked_cache


def _check_order(m) -> int:
    if check_size(m, "order") < 1:
        raise ValueError(f"order must be at least 1, got {m}")
    return m


@checked_cache(_check_order)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, constant term first, computed by dividing
    x^m - 1 by the product of Phi_d over proper divisors d of m."""
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _polydiv_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials by a monic divisor
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= q[i] * c
    if any(num):
        raise RuntimeError("division was not exact")
    return q


class Cyclotomic:
    """An element of the field generated by a primitive m-th root of unity."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        self.order = order
        d = len(cyclotomic_polynomial(order)) - 1  # checks the order
        vec = [c if type(c) is int else _exact(c) for c in coeffs]
        if len(vec) > d:
            vec = _reduce(vec, cyclotomic_polynomial(order))
        vec += [0] * (d - len(vec))
        self.coeffs = tuple(vec)

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        return cls(order, (value,))

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(
                    f"incompatible orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, Rational):
            return Cyclotomic.from_rational(self.order, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Rational):
            return Cyclotomic(self.order, [a * other for a in self.coeffs])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic(self.order, prod)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: sends the root of unity to its inverse."""
        m = self.order
        vec = [0] * m
        for j, c in enumerate(self.coeffs):
            vec[(-j) % m] += c
        return Cyclotomic(m, vec)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        """Exact rational value; raises ValueError if the element is irrational."""
        if not self.is_rational():
            raise ValueError(f"irrational cyclotomic element: {self!r}")
        return Fraction(self.coeffs[0])

    def __eq__(self, other):
        if isinstance(other, Rational):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        terms = [
            f"{c}*z{self.order}^{j}" if j else str(c)
            for j, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) if terms else "0"


def _exact(c) -> int | Fraction:
    # the int itself when the rational c is integral, else a Fraction
    if isinstance(c, bool) or not isinstance(c, Rational):
        raise ValueError(f"a coefficient must be an int or Rational, got {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _reduce(vec: list, phi: tuple[int, ...]) -> list:
    d = len(phi) - 1
    vec = list(vec)
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if c:
            for j in range(d + 1):
                vec[i - d + j] -= c * phi[j]
    return [c if type(c) is int else _exact(c) for c in vec[:d]]


def root_of_unity(m: int, k: int) -> Cyclotomic:
    """z_m^k in canonical form."""
    k = check_size(k, "exponent") % _check_order(m)
    return Cyclotomic(m, [0] * k + [1])

