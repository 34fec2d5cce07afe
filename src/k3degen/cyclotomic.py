"""Exact integer polynomial arithmetic and cyclotomic factorizations.

Polynomials are dense coefficient tuples over Python's arbitrary-precision
integers, lowest degree first, so ``IntPolynomial([-1, 0, 1])`` is x^2 - 1.
Everything here is exact: no floats, no modular shortcuts.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType

from ._record import Record


class NotCyclotomicProduct(ValueError):
    """Raised when a monic integer polynomial has a non-cyclotomic factor."""


class IntPolynomial(Record):
    """A polynomial with integer coefficients, lowest degree first.

    Trailing zero coefficients are trimmed on construction, so the leading
    coefficient of a nonzero polynomial is always nonzero.

    >>> IntPolynomial([-1, 0, 1]).degree()
    2
    >>> IntPolynomial([0, 0]).is_zero()
    True
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = tuple(int(c) for c in coefficients)
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        self._set(coeffs[:end])

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial('0')"
        parts = []
        for i, c in reversed(list(enumerate(self.coefficients))):
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) else "" if c > 0 else "-"
            term = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            coeff = f"{abs(c)}" if (abs(c) != 1 or i == 0) else ""
            parts.append(sign + coeff + term)
        return f"IntPolynomial('{''.join(parts)}')"


def _times(a, b) -> list[int]:
    """Schoolbook product of two coefficient sequences, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for j, c in enumerate(b):
        if c:
            for i, x in enumerate(a, j):
                out[i] += c * x
    return out


def _divide(a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder lists of a by the monic b, lowest degree first."""
    rem = list(a)
    d = len(b) - 1
    quotient = [0] * max(len(rem) - d, 0)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c:
            quotient[k - d] = c
            for j, x in enumerate(b, k - d):
                rem[j] -= c * x
    return quotient, rem[:d]


def _primes(n: int) -> list[int]:
    """The primes p <= n, by a sieve of Eratosthenes over a bytearray."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), flags))


def euler_phi(m: int) -> int:
    """Number of invertible residue classes modulo m, by prime factorization.

    >>> euler_phi(42)
    12
    """
    if m < 1:
        raise ValueError("euler_phi requires m >= 1")
    result = 1
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            result *= p - 1
            while rest % p == 0:
                rest //= p
                result *= p
        p += 1
    if rest > 1:
        result *= rest - 1
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, exact over Z.

    Computed as (x^m - 1) / prod of the cyclotomic polynomials of the
    proper divisors of m; every division is exact in Z[x].

    >>> cyclotomic_poly(12)
    IntPolynomial('x^4 - x^2 + 1')
    """
    if m < 1:
        raise ValueError("cyclotomic_poly requires m >= 1")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _divide(poly, cyclotomic_poly(d).coefficients)
            if any(rem):
                raise ValueError(f"x^{m} - 1 is not divisible by Phi_{d}")
    return IntPolynomial(poly)


def bounded_orders(bound: int) -> list[int]:
    """All m with euler_phi(m) <= bound, sorted ascending; bound <= 10**5.

    Every prime p | m has p - 1 <= euler_phi(m), and euler_phi is
    multiplicative, so the orders are built depth first as products of powers
    of the primes p <= bound + 1, pruned once the totient passes the bound.
    """
    if not 1 <= bound <= 10**5:
        raise ValueError(f"bounded_orders requires 1 <= bound <= 100000, got {bound}")
    # bound + 2 follows the last prime: its p - 1 passes the bound, so it never fits
    primes = _primes(bound + 1) + [bound + 2]
    orders = [1]

    def walk(m, phi, start):
        # append every m * q that fits, q a product of powers of primes[start:],
        # and walk on from m * q only while the next prime still fits
        for i in range(start, len(primes) - 1):
            p = primes[i]
            m_p, phi_p = m * p, phi * (p - 1)
            if phi_p > bound:
                break
            while phi_p <= bound:
                orders.append(m_p)
                if phi_p * (primes[i + 1] - 1) <= bound:
                    walk(m_p, phi_p, i + 1)
                m_p, phi_p = m_p * p, phi_p * p

    walk(1, 1, 0)
    orders.sort()
    return orders


class CycloFactorization(Record):
    """A multiset of cyclotomic factors, as a map m -> multiplicity.

    ``CycloFactorization({1: 10, 42: 1})`` stands for Phi_1^10 * Phi_42.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        cleaned = {}
        for m, mult in dict(factors).items():
            m, mult = int(m), int(mult)
            if m < 1:
                raise ValueError(f"cyclotomic index must be positive, got {m}")
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            cleaned[m] = mult
        self._set(MappingProxyType(cleaned))  # read-only, so the value and hash stay fixed

    def expand(self) -> IntPolynomial:
        """Multiply the factors back out to an integer polynomial."""
        product = [1]
        for m, mult in self.factors.items():
            factor = cyclotomic_poly(m).coefficients
            for _ in range(mult):
                product = _times(product, factor)
        return IntPolynomial(product)

    def total_degree(self) -> int:
        return sum(mult * euler_phi(m) for m, mult in self.factors.items())

    def __hash__(self):  # the field is a mapping, which Record cannot hash
        return hash(tuple(sorted(self.factors.items())))

    def __repr__(self):
        inner = ", ".join(f"{m}: {mult}" for m, mult in sorted(self.factors.items()))
        return f"CycloFactorization({{{inner}}})"


def factor_into_cyclotomics(poly: IntPolynomial) -> CycloFactorization:
    """Factor a monic integer polynomial into cyclotomic polynomials.

    Trial division over all candidate indices m with euler_phi(m) <= deg P.
    Because distinct cyclotomic polynomials are coprime irreducibles, greedy
    division in any candidate order finds the unique factorization without
    backtracking.

    Raises NotCyclotomicProduct if a non-cyclotomic factor remains.
    """
    if poly.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if not poly.is_monic():
        raise ValueError("factor_into_cyclotomics requires a monic polynomial")
    rest = list(poly.coefficients)
    factors: dict[int, int] = {}
    for m in bounded_orders(max(poly.degree(), 1)):
        if euler_phi(m) >= len(rest):
            continue
        divisor = cyclotomic_poly(m).coefficients
        while len(divisor) <= len(rest):
            quotient, rem = _divide(rest, divisor)
            if any(rem):
                break
            factors[m] = factors.get(m, 0) + 1
            rest = quotient
    if rest != [1]:
        remaining = IntPolynomial(rest)
        raise NotCyclotomicProduct(
            f"non-cyclotomic factor of degree {remaining.degree()} remains: {remaining!r}"
        )
    return CycloFactorization(factors)
