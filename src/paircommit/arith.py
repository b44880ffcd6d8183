"""Integer and modular arithmetic primitives.

Python ints are arbitrary precision, so the only work here is pinning
down conventions: every "mod n" result is normalized to [0, n), and the
extended gcd returns the least non-negative Bezout coefficient for its
first argument, which keeps downstream exponent formulas free of sign
fiddling.

Nothing in this module is constant-time; it is desk-scale lab code.
"""

import math
import random
from bisect import bisect_right
from collections import namedtuple

from .errors import NotInvertible

ExtGcdResult = namedtuple("ExtGcdResult", "g s t")

# Witnesses making Miller-Rabin deterministic below psi_13, and psi_k, the
# least odd composite that passes the first k of them (OEIS A014233): the
# first k decide every n < psi_k.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
RNG_WITNESSES = 40  # random witnesses an rng draws; the draws fix seeded output


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
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotInvertible(a, n, math.gcd(a, n)) from None


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable prime test of odd n > 47^2, with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1 and Q = (1 - D)/4. With base-2 Miller-Rabin it is Baillie-PSW."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False  # |d| < n shares a factor with n
        d = -d - 2 if d > 0 else -d + 2
    q, half = (1 - d) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = k * 2^s, k odd
    k = (n + 1) >> s
    # U_j, V_j and Q^j mod n for j the leading bits of k, from j = 1
    u, v, qj = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qj = u * v % n, (v * v - 2 * qj) % n, qj * qj % n
        if bit == "1":
            u, v = (u + v) * half % n, (d * u + v) * half % n
            qj = qj * q % n
    # n passes if U_k = 0 or V_(k*2^r) = 0 for some r < s
    for _ in range(s):
        if u == 0 or v == 0:
            return True
        v, qj = (v * v - 2 * qj) % n, qj * qj % n
    return False


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test, and Baillie-PSW from psi_13 up.

    Below 47^2 trial division by the small primes decides. Below psi_13
    (about 3.3e24) the first k fixed witnesses decide, for k the least
    with n < psi_k: at most 5 for a 32-bit n and 12 for a 72-bit one
    (Jaeschke, Math. Comp. 1993; Sorenson and Webster, Math. Comp. 2017).
    From psi_13 up, all 13 are tested, then an rng's RNG_WITNESSES random
    witnesses, and then a strong Lucas test. An rng draws its witnesses
    whenever nothing before them refused n, tested or not, because the
    draws fix seeded output.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    proven = n < _SMALL_PRIMES[-1] ** 2  # no factor up to 47, so prime
    if not proven:
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
        d = (n - 1) >> s

        def witness_passes(a: int) -> bool:
            x = pow(a, d, n)
            if x == 1 or x == n - 1:
                return True
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    return True
            return False

        if not all(map(witness_passes, _MR_BASES[:bisect_right(_PSI, n) + 1])):
            return False
        proven = n < _PSI[-1]
    if rng is not None:
        for _ in range(RNG_WITNESSES):
            a = rng.randrange(2, n - 1)
            if not proven and not witness_passes(a):
                return False
    return proven or _strong_lucas(n)


def gen_prime(bits: int, rng: random.Random) -> int:
    """Random probable prime of exactly `bits` bits (odd candidates only)."""
    if bits < 2:
        raise ValueError(f"need at least 2 bits, got {bits}")
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, rng=rng):
            return cand
