"""Integer and modular arithmetic primitives.

Python ints are arbitrary precision, so the only work here is pinning
down conventions: every "mod n" result is normalized to [0, n), and the
extended gcd returns the least non-negative Bezout coefficient for its
first argument, which keeps downstream exponent formulas free of sign
fiddling.

Nothing in this module is constant-time; it is desk-scale lab code.
"""

import random
from typing import NamedTuple, Optional

from .errors import NotInvertible


class ExtGcdResult(NamedTuple):
    g: int
    s: int
    t: int


# Witnesses making Miller-Rabin deterministic for n < 3.3e24 (~2^81).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def ext_gcd(a: int, b: int) -> ExtGcdResult:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0.

    When b != 0, s is normalized to the least non-negative residue
    mod |b|/g, so e.g. ext_gcd(7, 5) = (1, 3, -4).
    """
    if a == 0 and b == 0:
        raise ValueError("ext_gcd(0, 0) is undefined")
    old_r, r = abs(a), abs(b)
    old_s, s = 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    g = old_r
    bez_s = old_s if a >= 0 else -old_s
    if b == 0:
        return ExtGcdResult(g, bez_s, 0)
    bez_s %= abs(b) // g
    bez_t = (g - bez_s * a) // b
    return ExtGcdResult(g, bez_s, bez_t)


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a mod n, in [1, n). Raises NotInvertible carrying the gcd."""
    if n <= 1:
        raise ValueError(f"modulus must exceed 1, got {n}")
    g, s, _ = ext_gcd(a % n, n)
    if g != 1:
        raise NotInvertible(a, n, g)
    return s % n


def is_probable_prime(n: int, rng: Optional[random.Random] = None, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    Below 47^2 trial division by the small primes decides. Otherwise
    runs the fixed witness set (deterministic below ~2^81) and adds
    `rounds` random witnesses when an rng is supplied.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _SMALL_PRIMES[-1] ** 2:
        # no factor up to 47 and below 47^2: prime. The random witnesses
        # are still drawn, because the draws fix seeded output.
        if rng is not None:
            for _ in range(rounds):
                rng.randrange(2, n - 1)
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness_passes(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return True
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    for a in _MR_BASES:
        if not witness_passes(a):
            return False
    if rng is not None:
        for _ in range(rounds):
            if not witness_passes(rng.randrange(2, n - 1)):
                return False
    return True


def gen_prime(bits: int, rng: random.Random) -> int:
    """Random probable prime of exactly `bits` bits (odd candidates only)."""
    if bits < 2:
        raise ValueError(f"need at least 2 bits, got {bits}")
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, rng=rng):
            return cand
