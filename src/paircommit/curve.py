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
Jacobian coordinates (x, y) = (X/Z^2, Y/Z^3), Z = 0 at infinity, and
pay one inversion each at the end. The Miller loop keeps no
denominators: vertical lines and the F_fp factors of each line value
lie in F_fp*, which the final exponent (fp - 1)*cofactor sends to 1.

A point used again and again can bring its precomputation, which the
caller owns and keeps: `doubling_table` gives the affine points 2^i*P,
with which `ec_mul` makes only mixed additions, and the list that
`tate_pairing` fills with P's Miller lines lets a later pairing with
the same P replay them at Q without point arithmetic. Nothing is
cached in this module.
"""

import random
from typing import List, Optional, Tuple

from .arith import is_probable_prime
from .errors import DegeneratePairing

Point = Optional[Tuple[int, int]]
Fp2 = Tuple[int, int]
# a Miller line (A, B, C), whose value at (-x_Q, i*y_Q) is (A*x_Q + B) + i*C*y_Q
Line = Tuple[int, int, int]

F2_ONE: Fp2 = (1, 0)
F2_ZERO: Fp2 = (0, 0)


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


def _jac_double(fp: int, x: int, y: int, z: int) -> Tuple[int, ...]:
    # 2T for T = (x : y : z); also M = 3x^2 + z^4, y^2 and z^2, from which
    # the Miller loop builds the tangent at T. z = 0 (infinity) stays 0.
    yy = y * y % fp
    zz = z * z % fp
    s = 4 * x * yy % fp
    m = (3 * x * x + zz * zz) % fp
    x3 = (m * m - 2 * s) % fp
    return x3, (m * (s - x3) - 8 * yy * yy) % fp, 2 * y * z % fp, m, yy, zz


def _jac_add(fp: int, x: int, y: int, z: int, px: int, py: int) -> Tuple[int, ...]:
    # T + P for Jacobian T != infinity and affine P; also r = py*z^3 - y,
    # the chord's slope times z3. z3 = 0 means T = -P, or T = P if r = 0 too.
    zz = z * z % fp
    h = (px * zz - x) % fp
    r = (py * zz * z - y) % fp
    hh = h * h % fp
    hhh = h * hh % fp
    v = x * hh % fp
    x3 = (r * r - hhh - 2 * v) % fp
    return x3, (r * (v - x3) - y * hhh) % fp, z * h % fp, r


def _add_affine(fp: int, x: int, y: int, z: int, px: int, py: int) -> Tuple[int, int, int]:
    # T + P for Jacobian T and affine P, also when T is infinity, -P or P
    if z == 0:
        return px, py, 1
    x3, y3, z3, r = _jac_add(fp, x, y, z, px, py)
    if z3 or r:
        return x3, y3, z3
    return _jac_double(fp, x, y, z)[:3]


def _affine(fp: int, x: int, y: int, z: int) -> Point:
    if z == 0:
        return None
    zinv = pow(z, -1, fp)
    zinv2 = zinv * zinv % fp
    return (x * zinv2 % fp, y * zinv2 * zinv % fp)


def ec_mul(fp: int, pt: Point, k: int, table: Optional[List[Point]] = None) -> Point:
    """k*pt, with one inversion at the end.

    Given table = doubling_table(fp, pt, size) and |k| < 2^(size - 1), the
    NAF digits of k pick +-2^i*pt from the table, and the power is only
    mixed additions. Otherwise it is Jacobian double-and-add.
    """
    if pt is None or k == 0:
        return None
    if table is not None and k.bit_length() < len(table):
        x, y, z, i = 0, 1, 0, 0
        while k:
            if k & 1:
                digit = 2 - (k & 3)
                k -= digit
                if table[i] is not None:
                    px, py = table[i]
                    x, y, z = _add_affine(fp, x, y, z, px, py if digit == 1 else -py % fp)
            k >>= 1
            i += 1
        return _affine(fp, x, y, z)
    if k < 0:
        pt = ec_neg(fp, pt)
        k = -k
    px, py = pt
    x, y, z = px, py, 1
    for bit in bin(k)[3:]:
        x, y, z = _jac_double(fp, x, y, z)[:3]
        if bit == "1":
            x, y, z = _add_affine(fp, x, y, z, px, py)
    return _affine(fp, x, y, z)


def doubling_table(fp: int, pt: Point, size: int) -> List[Point]:
    """[2^i * pt for i in range(size)], affine, with one batched inversion.

    Entries past a point of order 2^i are None, the point at infinity.
    """
    x, y, z = (pt[0], pt[1], 1) if pt is not None else (0, 1, 0)
    jac = [(x, y, z)]
    while len(jac) < size:
        x, y, z = _jac_double(fp, x, y, z)[:3]
        jac.append((x, y, z))
    # Montgomery's trick: invert the product of the nonzero z once
    prefix, acc = [], 1
    for _, _, z in jac:
        prefix.append(acc)
        if z:
            acc = acc * z % fp
    inv = pow(acc, -1, fp)
    table: List[Point] = [None] * size
    for i in range(size - 1, -1, -1):
        x, y, z = jac[i]
        if z:
            zinv = inv * prefix[i] % fp
            inv = inv * z % fp
            zinv2 = zinv * zinv % fp
            table[i] = (x * zinv2 % fp, y * zinv2 * zinv % fp)
    return table


def sqrt_mod(fp: int, a: int) -> Optional[int]:
    """Square root mod fp for fp = 3 (mod 4); None if a is a non-residue."""
    a %= fp
    if a == 0:
        return 0
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


def find_curve_field(n: int, bound: int = 2 ** 20,
                     rng: Optional[random.Random] = None) -> Tuple[int, int]:
    """Smallest even cofactor c >= 2 with c*n - 1 prime and = 3 (mod 4).

    Returns (cofactor, field prime). fp must be odd, hence even cofactors only.
    """
    for cof in range(2, bound + 1, 2):
        fp = cof * n - 1
        if fp % 4 == 3 and is_probable_prime(fp, rng=rng):
            return cof, fp
    raise ValueError(
        f"no suitable field prime with cofactor <= {bound} for n={n}; "
        "try a different prime pair")


# ---------------------------------------------------------------------------
# modified Tate pairing

def _tangent(fp: int, x: int, y: int, z: int) -> Tuple[int, ...]:
    # 2T, then the tangent at T as (A, B, C), unreduced: its value at
    # (-x_Q, i*y_Q) times 2*y*z^3 is (A*x_Q + B) + i*C*y_Q
    x3, y3, z3, m, yy, zz = _jac_double(fp, x, y, z)
    return x3, y3, z3, m * zz, m * x - 2 * yy, z3 * zz


def tate_pairing(fp: int, n: int, p_pt: Point, q_pt: Point,
                 lines: Optional[List[Optional[Line]]] = None) -> Fp2:
    """Reduced modified Tate pairing of two points of order dividing n.

    Miller loop of length n over P = p_pt in Jacobian coordinates. Each
    tangent and chord is kept as coefficients (A, B, C) whose value at
    the distorted Q, (-x_Q, i*y_Q), is (A*x_Q + B) + i*C*y_Q: the line
    times an F_fp factor, e.g. the tangent at T as
    (M*Z^2*x_Q + M*X - 2*Y^2) + i*(2*Y*Z^3*y_Q); vertical lines are left
    out. The final exponent (fp^2 - 1)/n = (fp - 1)*cofactor kills all
    of F_fp*; since Frobenius is conjugation, f^(fp-1) = conj(f)/f and
    only the cofactor power is left.

    `lines` is P's record: an empty list is filled with the loop's
    coefficients, in order, with None for each squaring of the
    accumulator; a filled one is replayed at Q instead of walking the
    bits of n again, so no point arithmetic runs.

    The result lies in the order-n subgroup of F_fp2^*; the identity is
    (1, 0). Raises DegeneratePairing if a line vanishes at the distorted
    point, which needs y_Q = 0.
    """
    if p_pt is None or q_pt is None:
        return F2_ONE
    qx, qy = q_pt
    a, b = 1, 0
    if lines:
        for line in lines:
            if line is None:
                a, b = (a - b) * (a + b) % fp, 2 * a * b % fp
                continue
            la, lb, lc = line
            lr, li = (la * qx + lb) % fp, lc * qy % fp
            a, b = (a * lr - b * li) % fp, (a * li + b * lr) % fp
    else:
        record = lines is not None
        px, py = p_pt
        x, y, z = px, py, 1
        # a doubling step per bit of n after the first, and an addition
        # step after each doubling at a 1 bit
        for step in bin(n)[3:].replace("1", "DA").replace("0", "D"):
            if step == "D":
                a, b = (a - b) * (a + b) % fp, 2 * a * b % fp
                if record:
                    lines.append(None)
                if z == 0:
                    continue
                x, y, z, la, lb, lc = _tangent(fp, x, y, z)
            elif z == 0:
                x, y, z = px, py, 1
                continue
            else:
                # the chord times z3 is r*(x_Q + x_P) - y_P*z3 + i*y_Q*z3;
                # at T = -P it is a vertical line, dropped, and T = P needs
                # the tangent
                x3, y3, z3, r = _jac_add(fp, x, y, z, px, py)
                if z3:
                    x, y, z = x3, y3, z3
                    la, lb, lc = r, r * px - py * z3, z3
                elif r == 0:
                    x, y, z, la, lb, lc = _tangent(fp, x, y, z)
                else:
                    z = 0
                    continue
            lr, li = (la * qx + lb) % fp, lc * qy % fp
            a, b = (a * lr - b * li) % fp, (a * li + b * lr) % fp
            if record:
                lines.append((la % fp, lb % fp, lc % fp))
    if a == 0 and b == 0:
        raise DegeneratePairing("line evaluation hit the distorted point")
    f = f2_mul(fp, (a, -b % fp), f2_inv(fp, (a, b)))
    return f2_pow(fp, f, (fp + 1) // n)
