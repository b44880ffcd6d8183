"""Supersingular curve internals for the pairing backend.

The curve is E: y^2 = x^3 + x over F_fp with fp prime, fp = 3 (mod 4).
For such fp the curve is supersingular with #E(F_fp) = fp + 1, and
-1 is a non-residue, so F_fp2 = F_fp(i) with i^2 = -1.

The distortion map (x, y) -> (-x, i*y) sends E(F_fp) into a linearly
independent subgroup over F_fp2, which makes the modified Tate pairing
e(P, Q) = f_{n,P}(-x_Q, i*y_Q)^((fp^2-1)/n) symmetric and non-degenerate
on the order-n subgroup.

Points are affine (x, y) tuples of ints, with None for the point at
infinity. F_fp2 elements are (a, b) tuples meaning a + b*i. `ec_add`
is affine chord-and-tangent; `ec_mul` and the Miller loop work in
Jacobian coordinates (x, y) = (X/Z^2, Y/Z^3), Z = 0 at infinity, walk
the NAF digits of their exponent (a tabled `ec_mul` reads radix-32
digits, below), and pay one inversion each at the end. The Miller loop
makes one fused, denominator-free step per digit (see `tate_pairing`).
An order check, `mul_is_infinity`, is Montgomery's x-only ladder, with
no inversion at all.

A point used again and again can bring its precomputation, which the
caller owns and keeps: `window_table` gives the affine points d*32^i*P,
d = 1..16, with which `ec_mul` reads its exponent in signed radix-32
digits and makes one mixed addition per nonzero digit (fixed-base
windowing, Brickell, Gordon, McCurley and Wilson, EUROCRYPT '92), and
the list that `tate_pairing` fills with P's Miller lines, each divided
by its coefficient of i*y_Q, lets a later pairing with the same P replay
them at Q with no point arithmetic. Nothing is cached in this module.
"""

import random

from .arith import is_probable_prime
from .errors import DegeneratePairing

Point = tuple[int, int] | None
Fp2 = tuple[int, int]
# a recorded Miller line (A', B'): the line (A, B, C), whose value at
# (-x_Q, i*y_Q) is (A*x_Q + B) + i*C*y_Q, divided by C
Line = tuple[int, int]

F2_ONE: Fp2 = (1, 0)

COFACTOR_BOUND = 2 ** 20  # the largest cofactor find_curve_field tries


# ---------------------------------------------------------------------------
# quadratic extension F_fp(i), i^2 = -1

def f2_mul(fp: int, u: Fp2, v: Fp2) -> Fp2:
    a, b = u
    c, d = v
    return ((a * c - b * d) % fp, (a * d + b * c) % fp)


def f2_inv(fp: int, u: Fp2) -> Fp2:
    a, b = u
    norm = (a * a + b * b) % fp
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in F_fp2")
    ninv = pow(norm, -1, fp)
    return (a * ninv % fp, -b * ninv % fp)


def f2_pow(fp: int, u: Fp2, e: int) -> Fp2:
    if e < 0:
        u = f2_inv(fp, u)
        e = -e
    result = F2_ONE
    while e:
        if e & 1:
            result = f2_mul(fp, result, u)
        u = f2_mul(fp, u, u)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# curve group, affine chord-and-tangent

def is_on_curve(fp: int, pt: Point) -> bool:
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + x)) % fp == 0


def ec_neg(fp: int, pt: Point) -> Point:
    if pt is None:
        return None
    return (pt[0], -pt[1] % fp)


def ec_add(fp: int, a: Point, b: Point) -> Point:
    if a is None:
        return b
    if b is None:
        return a
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if (y1 + y2) % fp == 0:
            return None
        lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, fp) % fp
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, fp) % fp
    x3 = (lam * lam - x1 - x2) % fp
    y3 = (lam * (x1 - x3) - y1) % fp
    return (x3, y3)


def _jac_double(fp: int, x: int, y: int, z: int) -> tuple[int, int, int]:
    # 2T for T = (x : y : z); z = 0 (infinity) stays 0
    yy = y * y % fp
    zz = z * z % fp
    s = 4 * x * yy % fp
    m = (3 * x * x + zz * zz) % fp
    x3 = (m * m - 2 * s) % fp
    return x3, (m * (s - x3) - 8 * yy * yy) % fp, 2 * y * z % fp


def _add_affine(fp: int, x: int, y: int, z: int, px: int, py: int) -> tuple[int, int, int]:
    # T + P for Jacobian T and affine P, also when T is infinity, -P or P
    if z == 0:
        return px, py, 1
    zz = z * z % fp
    h = (px * zz - x) % fp
    r = (py * zz * z - y) % fp
    if h == 0:
        # T = P doubles; T = -P gives infinity, z = 0
        return _jac_double(fp, x, y, z) if r == 0 else (x, y, 0)
    hh = h * h % fp
    hhh = h * hh % fp
    v = x * hh % fp
    x3 = (r * r - hhh - 2 * v) % fp
    return x3, (r * (v - x3) - y * hhh) % fp, z * h % fp


def _affine(fp: int, x: int, y: int, z: int) -> Point:
    if z == 0:
        return None
    zinv = pow(z, -1, fp)
    zinv2 = zinv * zinv % fp
    return (x * zinv2 % fp, y * zinv2 * zinv % fp)


def _naf(k: int) -> tuple[int, int]:
    """The NAF (signed binary) digits of k as masks of its +1 and its -1
    digits: digit i is bit i + 1 of 3k minus bit i + 1 of k, also for k < 0."""
    xh = k >> 1
    x3 = k + xh
    c = xh ^ x3
    return x3 & c, xh & c


def _inverses(fp: int, values: list[int]) -> list[int]:
    """The inverse mod fp of each value, 0 for 0, with one inversion
    (Montgomery's trick: invert the product of the nonzero values)."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % fp if v else acc
    inv, out = pow(acc, -1, fp), [0] * len(values)
    for i in reversed(range(len(values))):
        if values[i]:
            out[i], inv = inv * prefix[i] % fp, inv * values[i] % fp
    return out


def ec_mul(fp: int, pt: Point, k: int, table: list[list[Point]] | None = None) -> Point:
    """k*pt, with one inversion at the end.

    Given table = window_table(fp, pt, bits) and |k| < 2^bits, the power
    reads the signed radix-32 digits of |k|, each in [-15, 16], and adds
    +-d*32^i*pt from row i of the table for each nonzero digit d: only
    mixed additions, no doublings. Otherwise it doubles once per NAF digit
    of |k| after the top one and adds +-pt at each nonzero digit, as the
    Miller loop walks n.
    """
    if pt is None or k == 0:
        return None
    negative, k = k < 0, abs(k)
    if table is not None and k.bit_length() < 5 * len(table):
        x, y, z = 0, 1, 0
        for row in table:
            d = ((k + 15) & 31) - 15  # the digit of k mod 32 in [-15, 16]
            k = (k - d) >> 5
            if d and (entry := row[abs(d) - 1]) is not None:
                # -entry for a digit of the opposite sign to the exponent
                ey = fp - entry[1] if (d < 0) != negative else entry[1]
                x, y, z = _add_affine(fp, x, y, z, entry[0], ey)
        return _affine(fp, x, y, z)
    if negative:
        pt = ec_neg(fp, pt)
    px, py = pt
    neg_py = -py % fp
    x, y, z = px, py, 1  # the top NAF digit, +1
    plus, minus = _naf(k)
    for digit, sign in zip(bin(plus | minus)[3:], bin(plus)[3:]):
        x, y, z = _jac_double(fp, x, y, z)
        if digit == "1":
            x, y, z = _add_affine(fp, x, y, z, px, py if sign == "1" else neg_py)
    return _affine(fp, x, y, z)


def window_table(fp: int, pt: Point, bits: int) -> list[list[Point]]:
    """The table with which ec_mul raises pt to any |k| < 2^bits by
    additions alone: bits // 5 + 1 rows, row i holding d*32^i*pt for
    d = 1..16, affine.

    Row i is a chain of mixed additions of its base 32^i*pt, which is twice
    the last entry of the row before, made affine by one inversion. One
    batched inversion (Montgomery's trick) then normalises every entry.
    Entries at infinity, met in groups of tiny order, are None.
    """
    jac = []
    base = pt
    for _ in range(bits // 5 + 1):
        if base is None:
            jac += [(0, 1, 0)] * 16
            continue
        bx, by = base
        x, y, z = bx, by, 1
        jac.append((x, y, z))
        for _ in range(15):
            x, y, z = _add_affine(fp, x, y, z, bx, by)
            jac.append((x, y, z))
        base = _affine(fp, *_jac_double(fp, x, y, z))
    zinvs = _inverses(fp, [z for _, _, z in jac])
    points = [(x * zinv * zinv % fp, y * zinv * zinv * zinv % fp) if zinv else None
              for (x, y, _), zinv in zip(jac, zinvs)]
    return [points[i:i + 16] for i in range(0, len(points), 16)]


def mul_is_infinity(fp: int, pt: Point, k: int) -> bool:
    """True iff k*pt is the point at infinity, for odd k > 0.

    y^2 = x^3 + x is the Montgomery curve with A = 0, so this is
    Montgomery's x-only ladder on x = X/Z, with no inversion. As
    A^2 - 4 = -4 is a non-residue mod fp, its formulas hold through
    infinity, Z = 0 (Bernstein, "Curve25519", 2006, appendix B). Only
    (0, 0), of order 2 and so left finite by odd k, has x = 0.
    """
    if pt is None or pt[0] == 0:
        return pt is None
    x = pt[0]
    # (xa : za) = j*P and (xb : zb) = (j + 1)*P for the bits of k read so far
    xa, za, xb, zb = 1, 0, x, 1
    for bit in bin(k)[2:]:
        if bit == "1":
            xa, za, xb, zb = xb, zb, xa, za
        # b becomes a + b, whose difference is P, and a becomes 2a
        s, d = xa + za, xa - za
        u, v = d * (xb + zb) % fp, s * (xb - zb) % fp
        xb, zb = (u + v) ** 2 % fp, x * (u - v) ** 2 % fp
        s, d = s * s % fp, d * d % fp
        xa, za = 2 * s * d % fp, (s - d) * (s + d) % fp
        if bit == "1":
            xa, za, xb, zb = xb, zb, xa, za
    return za == 0


def sqrt_mod(fp: int, a: int) -> int | None:
    """Square root mod fp for fp = 3 (mod 4); None if a is a non-residue."""
    a %= fp
    r = pow(a, (fp + 1) // 4, fp)
    if r * r % fp != a:
        return None
    return r


def random_point(fp: int, rng: random.Random) -> Point:
    """Uniformish random affine point with y != 0."""
    while True:
        x = rng.randrange(fp)
        rhs = (x * x * x + x) % fp
        if rhs == 0:
            continue
        y = sqrt_mod(fp, rhs)
        if y is None:
            continue
        return (x, y) if rng.getrandbits(1) else (x, -y % fp)


def find_curve_field(n: int, rng: random.Random) -> tuple[int, int]:
    """Smallest even cofactor c <= COFACTOR_BOUND with c*n - 1 prime and = 3 (mod 4).

    Returns (cofactor, field prime). fp must be odd, hence even cofactors only.
    """
    for cof in range(2, COFACTOR_BOUND + 1, 2):
        fp = cof * n - 1
        if fp % 4 == 3 and is_probable_prime(fp, rng=rng):
            return cof, fp
    raise ValueError(
        f"no suitable field prime with cofactor <= {COFACTOR_BOUND} for n={n}; "
        "try a different prime pair")


# ---------------------------------------------------------------------------
# modified Tate pairing

def tate_pairing(fp: int, n: int, p_pt: Point, q_pt: Point,
                 lines: list[Line | None] | None = None) -> Fp2:
    """Reduced modified Tate pairing of two points of order dividing n.

    Miller loop on P = p_pt, one fused step per NAF digit of n after the
    top one (Barreto, Kim, Lynn and Scott, CRYPTO 2002): square f, double
    T in Jacobian coordinates and multiply f by the tangent at T, then
    for a digit +-1 add S = +-P and multiply f by the chord. A line is
    (A, B, C), whose value at the distorted Q, (-x_Q, i*y_Q), is
    (A*x_Q + B) + i*C*y_Q: the line times an F_fp factor. Vertical lines
    (at T == -S, and the 1/v_P of a digit -1) lie in F_fp and are left
    out, as the final exponent (fp^2 - 1)/n = (fp - 1)*cofactor kills
    F_fp*; Frobenius is conjugation, so f^(fp-1) = conj(f)/f and only the
    cofactor power is left. The square of f is reduced only in its
    product with the line (lazy reduction, Aranha et al., EUROCRYPT 2011).

    `lines` is P's record: an empty list is filled by the same loop with
    None for each squaring of f and (A/C, B/C) for each line, normalised
    by one batched inversion. A filled one is replayed at Q with no point
    arithmetic: a line over C*y_Q is u + i, u = A/C*x_Q/y_Q + B/C/y_Q.

    The result lies in the order-n subgroup of F_fp2^*; the identity is
    (1, 0). Raises DegeneratePairing if a line vanishes at the distorted
    point, which needs y_Q = 0 (no point of odd order has it), and at
    every replay with y_Q = 0.
    """
    if p_pt is None or q_pt is None:
        return F2_ONE
    qx, qy = q_pt
    a, b = 1, 0
    if lines:
        if qy == 0:
            raise DegeneratePairing("a replay needs y_Q != 0")
        yinv = pow(qy, -1, fp)
        xq = qx * yinv % fp
        prev = ()
        for line in lines:
            if line is None:
                # a square is reduced in the next line's product, if any
                if prev is None:
                    a, b = a % fp, b % fp
                a, b = (a - b) * (a + b), 2 * a * b
            else:
                u = (line[0] * xq + line[1] * yinv) % fp
                a, b = (a * u - b) % fp, (a + b * u) % fp
            prev = line
        a, b = a % fp, b % fp
    else:
        record = lines is not None
        px, py = p_pt
        x, y, z = px, py, 1
        plus, minus = _naf(n)
        for digit, sign in zip(bin(plus | minus)[3:], bin(plus)[3:]):
            a, b = (a - b) * (a + b), 2 * a * b  # f^2, reduced in f*tangent
            if record:
                lines.append(None)
            if z == 0:
                a, b = a % fp, b % fp
            else:
                # T = 2T, and the tangent at T times 2*y*z^3:
                # (m*z^2*x_Q + m*x - 2*y^2) + i*(2*y*z^3*y_Q), m = 3x^2 + z^4
                yy, zz = y * y % fp, z * z % fp
                m, z = (3 * x * x + zz * zz) % fp, 2 * y * z % fp
                if record:
                    lines.append((m * zz, m * x - 2 * yy, z * zz))
                lr, li = (m * (zz * qx + x) - 2 * yy) % fp, z * zz * qy % fp
                s = 4 * x * yy
                x = (m * m - 2 * s) % fp
                y = (m * (s - x) - 8 * yy * yy) % fp
                a, b = (a * lr - b * li) % fp, (a * li + b * lr) % fp
            if digit == "0":
                continue
            sy = py if sign == "1" else -py % fp  # add S = (x_P, sy) = +-P
            if z == 0:
                x, y, z = px, sy, 1
                continue
            zz = z * z % fp
            h, r = (px * zz - x) % fp, (sy * zz * z - y) % fp
            if h:
                # T = T + S, and the chord through T and S times z3:
                # r*(x_Q + x_P) - sy*z3 + i*y_Q*z3, r = sy*z^3 - y
                hh = h * h % fp
                hhh, v = h * hh, x * hh
                z = z * h % fp
                la, lb, lc = r, r * px - sy * z, z
                x = (r * r - hhh - 2 * v) % fp
                y = (r * (v - x) - y * hhh) % fp
            elif r:  # T == -S: the line is vertical, dropped; T + S = infinity
                z = 0
                continue
            else:  # T == S: the tangent at S, and T = 2S
                m = 3 * px * px + 1
                la, lb, lc = m, m * px - 2 * sy * sy, 2 * sy
                x, y, z = _jac_double(fp, px, sy, 1)
            lr, li = (la * qx + lb) % fp, lc * qy % fp
            a, b = (a * lr - b * li) % fp, (a * li + b * lr) % fp
            if record:
                lines.append((la, lb, lc))
        if record:
            cinv = _inverses(fp, [line[2] if line else 0 for line in lines])
            lines[:] = [line and (line[0] * c % fp, line[1] * c % fp)
                        for line, c in zip(lines, cinv)]
    if a == 0 and b == 0:
        raise DegeneratePairing("line evaluation hit the distorted point")
    f = f2_mul(fp, (a, -b % fp), f2_inv(fp, (a, b)))
    return f2_pow(fp, f, (fp + 1) // n)
