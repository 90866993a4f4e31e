"""Small integer number-theory helpers (deterministic, stdlib-only)."""

from __future__ import annotations

from functools import lru_cache

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors, ascending."""
    out = []
    while n > 1:
        p = smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def divisors(n: int) -> list[int]:
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def units(n: int) -> list[int]:
    """Multiplicative units mod n."""
    from math import gcd

    return [k for k in range(1, n + 1) if gcd(k, n) == 1]
