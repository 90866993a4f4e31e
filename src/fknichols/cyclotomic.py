"""Exact arithmetic on roots of unity and cyclotomic field elements.

Scalars produced by braidings are roots of unity and stay in the compact
(order, exponent) form as long as possible; ``CyclotomicNumber`` provides
the ring Z[zeta_N], with integer coefficients, once linear algebra needs
sums.  ``zeta_ring(N)`` (``_kernels_py.ZetaRing``) owns the ring's
tables: the power table of zeta, which ``integer_zeta_power`` reads, and
the conjugations behind ``ZetaRing.norm_cofactor``, which gives the
echelons an inverse up to a rational integer.  Every product goes through
the matrix of its fixed factor, applied by one kernel.  Nothing divides in
it: every elimination runs in the ``_linalg`` echelons on integer
coefficient tuples, and a ``ModularSpec`` maps Z[zeta_N] to a prime field.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from fknichols._kernels_py import ZetaRing, _cyc_mul
from fknichols._numtheory import divisors, euler_phi, is_prime, prime_factors


class ConductorMismatchError(ValueError):
    """A root's order does not divide the requested conductor."""


class BadModularSpecError(ValueError):
    """A ModularSpec fails its defining conditions or hits a bad prime."""


def _poly_divide(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[len(den) - 1 + k] // den[-1]
        out[k] = c
        if c:
            for j, d in enumerate(den):
                num[j + k] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    out = num
    for d in divisors(n):
        if d < n:
            out = _poly_divide(out, list(cyclotomic_polynomial(d)))
    return tuple(out)


@lru_cache(maxsize=None)
def zeta_ring(n: int) -> ZetaRing:
    """Z[zeta_n], its power table and its products: one ``ZetaRing`` per
    conductor, built on first use."""
    return ZetaRing(n, cyclotomic_polynomial(n))


def integer_zeta_power(n: int, k: int) -> tuple[int, ...]:
    """Integer coefficient tuple of zeta_n^k on the power basis mod Phi_n."""
    return zeta_ring(n).powers[k % n]


class RootOfUnity:
    """zeta_order ^ exponent, with the exponent stored reduced mod order."""

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.exponent = exponent % order

    def canonical(self) -> tuple[int, int]:
        """(primitive order, exponent) of the underlying complex number."""
        g = gcd(self.exponent, self.order)
        if self.exponent == 0:
            return (1, 0)
        return (self.order // g, self.exponent // g)

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    def multiplicative_order(self) -> int:
        return self.canonical()[0]

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return root_mul(self, other)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exponent * k)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exponent)

    def rescale(self, order: int) -> "RootOfUnity":
        """The same number written at a larger order."""
        if order % self.order:
            raise ConductorMismatchError(
                f"cannot rescale order {self.order} to {order}"
            )
        return RootOfUnity(order, self.exponent * (order // self.order))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RootOfUnity):
            return self.canonical() == other.canonical()
        if other == 1:
            return self.is_one
        if other == -1:
            return self.canonical() == (2, 1)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        if self.is_one:
            return "1"
        o, e = self.canonical()
        if o == 2:
            return "-1"
        return f"zeta{o}^{e}" if e != 1 else f"zeta{o}"

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.exponent / self.order)


def root_mul(a: RootOfUnity, b: RootOfUnity) -> RootOfUnity:
    """Product, written at the lcm of the two orders."""
    order = lcm(a.order, b.order)
    exp = a.exponent * (order // a.order) + b.exponent * (order // b.order)
    return RootOfUnity(order, exp)


class CyclotomicNumber:
    """Element of Z[zeta_n]: integer coefficients on 1, zeta, ..., zeta^(phi-1)."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        coeffs = tuple(operator.index(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {conductor}")
        self.conductor = conductor
        self.coeffs = coeffs

    @classmethod
    def zero(cls, conductor: int) -> "CyclotomicNumber":
        return cls(conductor, [0] * euler_phi(conductor))

    @classmethod
    def one(cls, conductor: int) -> "CyclotomicNumber":
        return cls.from_rational(conductor, 1)

    @classmethod
    def from_rational(cls, conductor: int, value) -> "CyclotomicNumber":
        coeffs = [0] * euler_phi(conductor)
        coeffs[0] = value
        return cls(conductor, coeffs)

    @classmethod
    def zeta_power(cls, conductor: int, k: int) -> "CyclotomicNumber":
        return cls(conductor, integer_zeta_power(conductor, k))

    def _check(self, other: "CyclotomicNumber") -> None:
        if self.conductor != other.conductor:
            raise ConductorMismatchError(
                f"conductors differ: {self.conductor} vs {other.conductor}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicNumber.from_rational(self.conductor, other)
        elif not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicNumber(self.conductor, [a * other for a in self.coeffs])
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        product = _cyc_mul(self.coeffs, (other.coeffs,), zeta_ring(self.conductor))
        return CyclotomicNumber(self.conductor, product[0])

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicNumber.from_rational(self.conductor, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __repr__(self):
        return f"Cyc({self.conductor}; {', '.join(str(c) for c in self.coeffs)})"

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(complex(c) * z**k for k, c in enumerate(self.coeffs))


def embed(root: RootOfUnity, conductor: int) -> CyclotomicNumber:
    """The field element of Q(zeta_conductor) equal to the given root."""
    order, exp = root.canonical()
    if conductor % order:
        raise ConductorMismatchError(
            f"order {order} does not divide conductor {conductor}"
        )
    return CyclotomicNumber.zeta_power(conductor, (conductor // order) * exp)


@dataclass(frozen=True)
class ModularSpec:
    """A prime q = 1 (mod order) with an image of zeta of exact order ``order``."""

    prime: int
    order: int
    zeta_image: int

    def __post_init__(self):
        if not is_prime(self.prime):
            raise BadModularSpecError(f"{self.prime} is not prime")
        if (self.prime - 1) % self.order:
            raise BadModularSpecError("prime is not 1 mod order")
        if pow(self.zeta_image, self.order, self.prime) != 1:
            raise BadModularSpecError("zeta image does not have the right order")
        for p in prime_factors(self.order):
            if pow(self.zeta_image, self.order // p, self.prime) == 1:
                raise BadModularSpecError("zeta image has a proper-divisor order")

    def zeta_powers(self) -> list[int]:
        out = [1]
        for _ in range(self.order - 1):
            out.append(out[-1] * self.zeta_image % self.prime)
        return out

    def reduce(self, x: CyclotomicNumber) -> int:
        """Image of x in F_prime."""
        if x.conductor != self.order:
            raise ConductorMismatchError(
                f"spec has order {self.order}, value conductor {x.conductor}"
            )
        q = self.prime
        acc = 0
        zpow = 1
        for c in x.coeffs:
            acc += c * zpow
            zpow = zpow * self.zeta_image % q
        return acc % q


def find_modular_spec(order: int, index: int = 0, min_prime: int = 3) -> ModularSpec:
    """Deterministically pick the (index+1)-th prime q = 1 mod order."""
    found = 0
    k = 1
    while True:
        q = k * order + 1
        if q >= min_prime and is_prime(q):
            if found == index:
                for g in range(2, q):
                    # z of order exactly ``order``; above order 1 this test
                    # rejects z = 1, and at order 1, z = 1 is the only image
                    z = pow(g, (q - 1) // order, q)
                    if all(pow(z, order // p, q) != 1 for p in prime_factors(order)):
                        return ModularSpec(q, order, z)
            found += 1
        k += 1
