"""Jacobian curve arithmetic against the affine formulas it replaced.

`reference_tate_pairing` is the affine Miller loop with vertical lines
and a denominator accumulator, kept verbatim (with `distort`, `_vert`
and `_line`) as a test oracle, and
`reference_ec_mul` is affine double-and-add over `ec_add`. The
library's `tate_pairing` and `ec_mul` must return exactly their values,
also when a window table serves the power or recorded Miller lines
are replayed, and so must a context's powers and pairings of its fixed
bases.
"""

import random
from typing import Optional, Tuple

import pytest

from paircommit import (
    CurveContext,
    DegeneratePairing,
    binding_key_from_exponent,
    commit,
    pair,
    setup_curve,
    verify,
    wi_prove,
)
from paircommit import commitment, curve, groups
from paircommit.arith import gen_prime
from paircommit.curve import (
    F2_ONE,
    Fp2,
    Point,
    ec_add,
    ec_mul,
    ec_neg,
    f2_inv,
    f2_mul,
    f2_pow,
    mul_is_infinity,
    random_point,
    tate_pairing,
    window_table,
)
from paircommit.groups import TABLE_AT_POWER

_F2_ZERO: Fp2 = (0, 0)


# ---------------------------------------------------------------------------
# the oracle

def distort(fp: int, pt: Point) -> Optional[Tuple[Fp2, Fp2]]:
    """(x, y) -> (-x, i*y), raising the point into E(F_fp2)."""
    if pt is None:
        return None
    x, y = pt
    return ((-x % fp, 0), (0, y))


def _vert(fp: int, a: Point, s: Tuple[Fp2, Fp2]) -> Fp2:
    # vertical line through a, evaluated at s; through infinity it is 1
    if a is None:
        return F2_ONE
    sx = s[0]
    return ((sx[0] - a[0]) % fp, sx[1])


def _line(fp: int, a: Point, b: Point, s: Tuple[Fp2, Fp2]) -> Fp2:
    # chord through a and b (tangent if equal), evaluated at s
    if a is None:
        return _vert(fp, b, s)
    if b is None:
        return _vert(fp, a, s)
    x1, y1 = a
    x2, y2 = b
    if x1 == x2 and (y1 + y2) % fp == 0:
        return _vert(fp, a, s)
    if a == b:
        lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, fp) % fp
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, fp) % fp
    sx, sy = s
    return ((lam * (sx[0] - x1) - (sy[0] - y1)) % fp,
            (lam * sx[1] - sy[1]) % fp)


def reference_tate_pairing(fp: int, n: int, p_pt: Point, q_pt: Point) -> Fp2:
    """Reduced modified Tate pairing of two points of order dividing n.

    Miller loop of length n on (p_pt, distort(q_pt)), then final
    exponentiation to (fp^2 - 1)/n. Result lies in the order-n subgroup
    of F_fp2^*; the identity is (1, 0).
    """
    if p_pt is None or q_pt is None:
        return F2_ONE
    s = distort(fp, q_pt)
    assert s is not None
    num = F2_ONE
    den = F2_ONE
    r = p_pt
    for bit in bin(n)[3:]:
        lv = _line(fp, r, r, s)
        r = ec_add(fp, r, r)
        vv = _vert(fp, r, s)
        num = f2_mul(fp, f2_mul(fp, num, num), lv)
        den = f2_mul(fp, f2_mul(fp, den, den), vv)
        if bit == "1":
            lv = _line(fp, r, p_pt, s)
            r = ec_add(fp, r, p_pt)
            vv = _vert(fp, r, s)
            num = f2_mul(fp, num, lv)
            den = f2_mul(fp, den, vv)
    if num == _F2_ZERO or den == _F2_ZERO:
        raise DegeneratePairing("line evaluation hit the distorted point")
    f = f2_mul(fp, num, f2_inv(fp, den))
    return f2_pow(fp, f, (fp * fp - 1) // n)


def reference_ec_mul(fp: int, pt: Point, k: int) -> Point:
    """k*pt by affine right-to-left double-and-add."""
    if k < 0:
        pt, k = ec_neg(fp, pt), -k
    result: Point = None
    while k:
        if k & 1:
            result = ec_add(fp, result, pt)
        pt = ec_add(fp, pt, pt)
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# inputs

BITS = (3, 4, 8, 16, 32, 64)
# small n whose Miller loops meet the special cases (see _miller_events)
SMALL = {"n15": (3, 5), "n51": (3, 17)}


def _naf(n: int) -> list:
    """The NAF digits of n >= 0, most significant first: digit i is bit
    i + 1 of 3n minus bit i + 1 of n."""
    return [(3 * n >> i + 1 & 1) - (n >> i + 1 & 1)
            for i in range((3 * n).bit_length() - 2, -1, -1)]


def _miller_events(n: int, order: int) -> set:
    """What the Miller loop over the NAF digits of n meets on a point of
    this order before its last step: T at infinity, and at an addition of
    S = +-P, T == S (which takes the tangent) or T == -S (a vertical line)."""
    events, k = set(), 1
    digits = _naf(n)[1:]
    for i, digit in enumerate(digits):
        k = 2 * k % order
        if digit:
            if k == digit % order:
                events.add("T == S")
            elif k == -digit % order and i < len(digits) - 1:
                events.add("T == -S")
            k = (k + digit) % order
        if k == 0 and i < len(digits) - 1:
            events.add("infinity")
    return events


@pytest.fixture(scope="module", params=BITS + tuple(SMALL),
                ids=lambda b: f"{b}-bit" if isinstance(b, int) else b)
def case(request):
    """(context, points, scalars, rng) for one prime size, seeded by the size."""
    if request.param in SMALL:
        p, q = SMALL[request.param]
        rng = random.Random(p * q)
    else:
        bits = request.param
        rng = random.Random(1000 + bits)
        p = q = gen_prime(bits, rng)
        while q == p:
            q = gen_prime(bits, rng)
        p, q = min(p, q), max(p, q)
    ctx = setup_curve(p, q, rng)
    fp, n, g = ctx.field_prime, ctx.n, ctx.g.value
    order_p = ec_mul(fp, g, q * rng.randrange(1, p))
    order_q = ec_mul(fp, g, p * rng.randrange(1, q))
    points = [None, g, ec_neg(fp, g), order_p, order_q]
    points += [ec_mul(fp, g, rng.randrange(1, n)) for _ in range(10)]
    scalars = [0, -1, 1, 2, n, -n, 3 * n, n - 1, n + 1, p, q, -rng.randrange(n)]
    scalars += [rng.randrange(n) for _ in range(8)] + [rng.randrange(n, n ** 2) for _ in range(4)]
    return ctx, points, scalars, rng


# ---------------------------------------------------------------------------
# agreement with the oracle

def test_ec_mul_matches_reference(case):
    ctx, points, scalars, rng = case
    fp = ctx.field_prime
    # whole-curve points too: their orders include 2 and 4
    points = points + [random_point(fp, rng) for _ in range(5)]
    for pt in points:
        for k in scalars:
            assert ec_mul(fp, pt, k) == reference_ec_mul(fp, pt, k), (pt, k)


def test_naf_powers_match_reference_at_300_exponents(case):
    """An untabled power walks the NAF digits of its exponent: 300 random
    exponents of either sign agree with the oracle, on g and on a
    whole-curve point."""
    ctx = case[0]
    fp, n = ctx.field_prime, ctx.n
    rng = random.Random(n)
    for pt in (ctx.g.value, random_point(fp, rng)):
        for k in (rng.randrange(-n, n) for _ in range(300)):
            assert ec_mul(fp, pt, k) == reference_ec_mul(fp, pt, k), (pt, k)


def test_tate_pairing_matches_reference(case):
    ctx, points, _, rng = case
    fp, n = ctx.field_prime, ctx.n
    pairs = [(a, b) for a in points[:5] for b in points[:5]]
    pairs += [(rng.choice(points), rng.choice(points)) for _ in range(30)]
    for a, b in pairs:
        assert tate_pairing(fp, n, a, b) == reference_tate_pairing(fp, n, a, b), (a, b)


def test_small_orders_reach_the_special_cases():
    """At n = 15, 51 and the 3-bit n = 35, the points of order p and q
    above send the signed Miller loop through infinity, T == S and T == -S
    (at n = 51 on order 3, and at n = 35 on order 7)."""
    assert _naf(35) == [1, 0, 0, 1, 0, -1] and _naf(51) == [1, 0, -1, 0, 1, 0, -1]
    events = set()
    for p, q in list(SMALL.values()) + [(5, 7)]:
        events |= _miller_events(p * q, p) | _miller_events(p * q, q)
    assert events == {"infinity", "T == S", "T == -S"}


def test_line_vanishing_at_distorted_point_raises(c35):
    """With verticals gone, a line can vanish at (-x_Q, i*y_Q) only if
    y_Q = 0; pick x_Q so that the first tangent at g does."""
    fp, n = c35.field_prime, c35.n
    x1, y1 = c35.g.value
    lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, fp) % fp
    q_pt = ((y1 * pow(lam, -1, fp) - x1) % fp, 0)
    lines = []
    tate_pairing(fp, n, c35.g.value, c35.g.value, lines)
    for pairing in (tate_pairing, reference_tate_pairing,
                    lambda *args: tate_pairing(*args, lines)):
        with pytest.raises(DegeneratePairing):
            pairing(fp, n, c35.g.value, q_pt)
    # through a context, the pairing that would record g's lines raises and
    # leaves no record
    ctx = CurveContext(n, fp, c35.cofactor, c35.g.value, c35.p, c35.q)
    for _ in range(2):
        with pytest.raises(DegeneratePairing):
            pair(ctx.g, ctx.element(q_pt))
    assert ctx._fixed[ctx.g.value].lines is None


def test_ladder_order_check_matches_reference(case):
    """mul_is_infinity(P, k) is reference_ec_mul(P, k) is None for odd k,
    among them n, n/p and n/q, on the subgroup's points, on whole-curve
    points (of orders 2 and 4 among them) and on (0, 0)."""
    ctx, points, _, _ = case
    fp, n = ctx.field_prime, ctx.n
    rng = random.Random(fp)
    order4 = None
    while order4 is None or ec_add(fp, order4, order4) != (0, 0):
        order4 = ec_mul(fp, random_point(fp, rng), (fp + 1) // 4)
    whole = [random_point(fp, rng) for _ in range(8)]
    for pt in points + whole + [(0, 0), order4, ec_neg(fp, order4)]:
        for k in (n, n // ctx.p, n // ctx.q, 1, fp):
            assert mul_is_infinity(fp, pt, k) == (reference_ec_mul(fp, pt, k) is None), (pt, k)


# ---------------------------------------------------------------------------
# fixed arguments: window tables and recorded Miller lines

def test_table_powers_match_reference(case):
    """Row i of a window table holds d*32^i*P for d = 1..16, None where that
    is infinity (n15 and n51 have such entries), and a table power agrees
    with the oracle at the digits' edges, at random k in (-n, n) and, past
    the table's reach, at the case's scalars."""
    ctx, points, scalars, rng = case
    fp, n = ctx.field_prime, ctx.n
    ks = [0, 1, -1, 15, -15, 16, -16, 17, -17, n // 2, -(n // 2)]
    ks += [rng.randrange(-n, n) for _ in range(20)]
    bits = max(abs(k) for k in ks).bit_length()
    for pt in points:
        table = window_table(fp, pt, bits)
        if pt in points[:5]:
            assert table == [[reference_ec_mul(fp, pt, d * 32 ** i) for d in range(1, 17)]
                             for i in range(bits // 5 + 1)], pt
        for k in ks + scalars:
            assert ec_mul(fp, pt, k, table) == reference_ec_mul(fp, pt, k), (pt, k)
    # on the point of odd prime order p, d*32^i*P is infinity iff p divides d
    assert any(None in row for row in window_table(fp, points[3], bits)) == (ctx.p <= 16)


def test_products_match_reference(case):
    """ec_mul with two terms is the oracle's k*P + k2*Q, each term tabled or
    not: at exponents 0, +-1, +-n/2 (a table's reach) and random signed
    ones, past the reach too, with a term at infinity, and with Q = P and
    Q = -P, where P + Q or P - Q is infinity. In the tiny groups (n15, and
    the 3-bit case, n = 35) partial sums meet infinity too."""
    ctx, points, _, rng = case
    fp, n = ctx.field_prime, ctx.n
    ks = [0, 1, -1, n // 2, -(n // 2)] + [rng.randrange(-n, n) for _ in range(4)]
    bits = (n // 2).bit_length()
    g, other = points[1], points[5]
    pairs = [(g, other), (g, g), (g, points[2]), (None, g), (points[3], points[4])]
    for pt, pt2 in pairs:
        multiples = {(q_pt, k): reference_ec_mul(fp, q_pt, k) for q_pt in (pt, pt2) for k in ks}
        tables = (None, window_table(fp, pt, bits)), (None, window_table(fp, pt2, bits))
        for table in tables[0]:
            for table2 in tables[1]:
                for k in ks:
                    for k2 in ks:
                        want = ec_add(fp, multiples[pt, k], multiples[pt2, k2])
                        assert ec_mul(fp, pt, k, table, pt2, k2, table2) == want, \
                            (pt, k, table is None, pt2, k2, table2 is None)


def test_context_products_match_reference(case):
    """A context's products of g and a key's h agree with the oracle from
    the first, through the one that builds both window tables, on; and so
    do products of a fixed base with an element that has no table."""
    ctx, points, scalars, rng = case
    fp, n = ctx.field_prime, ctx.n
    ctx = CurveContext(n, fp, ctx.cofactor, ctx.g.value, ctx.p, ctx.q)
    ck, _ = binding_key_from_exponent(ctx, rng.randrange(1, ctx.q))
    g, h, other = ctx.g, ck.h, ctx.element(points[5])
    for i in range(2 * TABLE_AT_POWER):
        e, f = rng.randrange(-n, n), rng.randrange(-n, n)
        want = ec_add(fp, reference_ec_mul(fp, g.value, e), reference_ec_mul(fp, h.value, f))
        assert groups.mul_pow(g, e, h, f).value == want, (i, e, f)
        want = ec_add(fp, reference_ec_mul(fp, h.value, e), reference_ec_mul(fp, other.value, f))
        assert groups.mul_pow(h, e, other, f).value == want, (i, e, f)
    assert ctx._fixed[g.value].table is not None and ctx._fixed[h.value].table is not None
    assert other.value not in ctx._fixed


def test_replayed_pairings_match_reference(case):
    ctx, points, _, rng = case
    fp, n = ctx.field_prime, ctx.n
    for p_pt in points[:5] + [rng.choice(points) for _ in range(3)]:
        lines = []
        first = tate_pairing(fp, n, p_pt, ctx.g.value, lines)
        assert first == reference_tate_pairing(fp, n, p_pt, ctx.g.value)
        for q_pt in points:
            assert tate_pairing(fp, n, p_pt, q_pt, lines) == \
                reference_tate_pairing(fp, n, p_pt, q_pt), (p_pt, q_pt)


def test_context_serves_fixed_bases(case):
    """A context's powers and pairings of g, of a key's h and of points of
    order p and q marked fixed agree with the oracle, from the first use,
    through the table built at the eighth, on."""
    ctx, points, scalars, rng = case
    fp, n = ctx.field_prime, ctx.n
    ctx = CurveContext(n, fp, ctx.cofactor, ctx.g.value, ctx.p, ctx.q)
    ck, _ = binding_key_from_exponent(ctx, rng.randrange(1, ctx.q))
    bases = [ctx.g, ck.h, ctx.element(points[3]), ctx.element(points[4])]
    for base in bases[2:]:
        ctx.fix(base)
    for base in bases:
        for k in scalars:
            assert (base ** k).value == reference_ec_mul(fp, base.value, k), (base, k)
        assert ctx._fixed[base.value].table is not None
        for q_pt in points:
            assert pair(base, ctx.element(q_pt)).value == \
                reference_tate_pairing(fp, n, base.value, q_pt), (base, q_pt)
        assert ctx._fixed[base.value].lines


def test_two_contexts_never_share_a_cache(c35):
    fp, n = c35.field_prime, c35.n
    a, b = (CurveContext(n, fp, c35.cofactor, c35.g.value, c35.p, c35.q) for _ in range(2))
    (ck_a, _), (ck_b, _) = (binding_key_from_exponent(ctx, 3) for ctx in (a, b))
    assert ck_a.h == ck_b.h and a._fixed is not b._fixed
    # four rounds: g's and h's eighth powers build their window tables
    for r in (2, 4, 6, 8):
        assert verify(ck_a, commit(ck_a, 1, r), wi_prove(ck_a, 1, r))
    fixed_a, fixed_b = a._fixed[ck_a.h.value], b._fixed[ck_b.h.value]
    assert fixed_a.table and fixed_a.lines and a._fixed[a.g.value].table
    assert (fixed_b.table, fixed_b.lines, b._fixed[b.g.value].table) == (None, None, None)


def test_eighth_power_builds_the_window_table(monkeypatch, c35):
    """A key's h makes its first seven powers untabled (the key's own check,
    h^q, is the first); the eighth builds its window table, once, and the
    table serves that power and every later one."""
    fp = c35.field_prime
    ctx = CurveContext(c35.n, fp, c35.cofactor, c35.g.value, c35.p, c35.q)
    ck, _ = binding_key_from_exponent(ctx, 3)
    fixed = ctx._fixed[ck.h.value]
    assert (fixed.powers, fixed.table) == (1, None)
    builds = _count(monkeypatch, curve, "window_table")
    tabled = []
    mul = curve.ec_mul
    monkeypatch.setattr(curve, "ec_mul", lambda fp, pt, k, table=None:
                        tabled.append(table is not None) or mul(fp, pt, k, table))
    for k in range(2, 12):
        assert (ck.h ** k).value == reference_ec_mul(fp, ck.h.value, k)
        assert fixed.powers == k and len(builds) == (k >= TABLE_AT_POWER)
    assert TABLE_AT_POWER == 8 and tabled == [False] * 6 + [True] * 4


def test_context_build_pairs_nothing_until_gt_is_used(monkeypatch, c35):
    calls = _count(monkeypatch, curve, "tate_pairing")
    ctx = CurveContext(c35.n, c35.field_prime, c35.cofactor, c35.g.value, c35.p, c35.q)
    assert calls == []
    assert ctx.gt == c35.gt and ctx.gt is ctx.gt
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# exact op counts

def _count(monkeypatch, module, name, modules=()):
    """Count calls of module.name, also through the bindings in `modules`."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (module,) + tuple(modules):
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_pairing_makes_one_inversion_and_no_affine_steps(monkeypatch, c35):
    inv = _count(monkeypatch, curve, "f2_inv")
    add = _count(monkeypatch, curve, "ec_add")
    mul = _count(monkeypatch, curve, "ec_mul")
    tate_pairing(c35.field_prime, c35.n, c35.g.value, c35.g.value)
    assert (len(inv), len(add), len(mul)) == (1, 0, 0)


def test_pairing_adds_once_per_nonzero_naf_digit(case):
    """On a point of order n the Miller loop doubles once per NAF digit of
    n after the top one and adds once per nonzero digit after it. Its
    record, which the walk fills as it goes, shows each step: per digit a
    None and the tangent, then the chord of a nonzero digit, but the last,
    whose line is vertical."""
    ctx, points, _, _ = case
    steps = []
    for digit in _naf(ctx.n)[1:]:
        steps += ["square", "line"] + (["line"] if digit else [])
    lines = []
    tate_pairing(ctx.field_prime, ctx.n, ctx.g.value, points[5], lines)
    assert ["square" if line is None else "line" for line in lines] == steps[:-1]


def test_recorded_lines_have_two_coefficients(case):
    """A record holds None per doubling and (A/C, B/C) per line: one per
    doubling and one per addition but the last, whose line is vertical."""
    ctx, points, _, _ = case
    fp, digits = ctx.field_prime, _naf(ctx.n)
    lines = []
    tate_pairing(fp, ctx.n, ctx.g.value, points[5], lines)
    kept = [line for line in lines if line is not None]
    assert len(lines) - len(kept) == len(digits) - 1
    assert len(kept) == (len(digits) - 1) + (len(digits) - digits.count(0) - 1) - 1
    assert all(len(line) == 2 and all(0 <= c < fp for c in line) for line in kept)


def test_naf_masks_match_the_digits():
    """curve._naf(k) marks the +1 and -1 digits of k's NAF, and swaps
    them for -k."""
    rng = random.Random(130)
    for k in list(range(5000)) + [rng.getrandbits(130) for _ in range(2000)]:
        plus, minus = curve._naf(k)
        digits = _naf(k)[::-1]
        assert [(plus >> i & 1) - (minus >> i & 1) for i in range(len(digits))] == digits
        assert (plus | minus) >> len(digits) == 0 and curve._naf(-k) == (minus, plus)


def test_order_checks_walk_no_scalar_multiple(monkeypatch, c35):
    """Building a context checks g's order three times, and parsing a point
    checks it once, each by the x-only ladder: no ec_mul, no doubling."""
    walks = [_count(monkeypatch, curve, name) for name in ("ec_mul", "_jac_double")]
    ladders = _count(monkeypatch, curve, "mul_is_infinity")
    ctx = CurveContext(c35.n, c35.field_prime, c35.cofactor, c35.g.value, c35.p, c35.q)
    assert groups.element_from_text(c35.g.inverse().to_text(), ctx) == ctx.g.inverse()
    assert walks == [[], []] and len(ladders) == 4


def test_ec_mul_makes_no_affine_additions(monkeypatch, c35):
    add = _count(monkeypatch, curve, "ec_add")
    assert ec_mul(c35.field_prime, c35.g.value, 23) is not None
    assert add == []


def test_verify_makes_two_pairings(monkeypatch, c35):
    ck, _ = binding_key_from_exponent(c35, 3)
    com = commit(ck, 1, 2)
    proof = wi_prove(ck, 1, 2)
    calls = _count(monkeypatch, groups, "pair", (commitment,))
    assert verify(ck, com, proof)
    assert len(calls) == 2


def test_table_power_makes_no_doublings(monkeypatch, case):
    ctx, points, _, rng = case
    fp, n = ctx.field_prime, ctx.n
    table = window_table(fp, ctx.g.value, (n // 2).bit_length())
    doubles = _count(monkeypatch, curve, "_jac_double")
    for k in (1, -1, n // 2, -(n // 2), rng.randrange(-(n // 2), n // 2)):
        assert ec_mul(fp, ctx.g.value, k, table) == reference_ec_mul(fp, ctx.g.value, k)
    assert doubles == []


def test_replayed_pairing_makes_no_point_arithmetic(monkeypatch, case):
    """A replay reads the record alone: handed -g with g's record, it
    returns g's pairing, leaves the record as it was and inverts once."""
    ctx, points, _, _ = case
    fp, n = ctx.field_prime, ctx.n
    lines = []
    tate_pairing(fp, n, ctx.g.value, points[5], lines)
    record = list(lines)
    inv = _count(monkeypatch, curve, "f2_inv")
    assert tate_pairing(fp, n, ec_neg(fp, ctx.g.value), points[6], lines) == \
        reference_tate_pairing(fp, n, ctx.g.value, points[6])
    assert lines == record and len(inv) == 1


def test_signed_exponent_costs_no_doublings(monkeypatch, c35):
    ctx = CurveContext(c35.n, c35.field_prime, c35.cofactor, c35.g.value, c35.p, c35.q)
    doubles = _count(monkeypatch, curve, "_jac_double")
    minus_one = ctx.g ** (c35.n - 1)
    assert doubles == []
    assert minus_one == ctx.g.inverse() == ctx.g ** -1


# in a tiny group a table power can meet T = d*32^i*P, which takes a doubling
@pytest.mark.parametrize("case", [16, 32], indirect=True, ids=lambda b: f"{b}-bit")
def test_warm_key_protocol_op_counts(monkeypatch, case):
    """Once a key's tables and lines exist, commit and wi_prove make no
    doublings and verify walks the Miller loop only for pair(c, c*g^-1):
    pair(h, pi) replays h's record."""
    ctx, _, _, rng = case
    ck, _ = binding_key_from_exponent(ctx, rng.randrange(1, ctx.q))
    m, r = 1, rng.randrange(ctx.n)
    # four rounds: the fourth makes h's eighth power, and g's at the latest,
    # which build their window tables
    for _ in range(4):
        com, proof = commit(ck, m, r), wi_prove(ck, m, r)
        assert verify(ck, com, proof)
    doubles = _count(monkeypatch, curve, "_jac_double")
    assert commit(ck, m, r) == com and wi_prove(ck, m, r) == proof
    assert doubles == []
    # a pairing is a replay if it is handed a filled record, a walk if not
    pairings = []
    original = curve.tate_pairing

    def counted(fp, n, p_pt, q_pt, lines=None):
        pairings.append(("replay" if lines else "walk", p_pt))
        return original(fp, n, p_pt, q_pt, lines)

    monkeypatch.setattr(curve, "tate_pairing", counted)
    assert verify(ck, com, proof)
    assert pairings == [("walk", com.c.value), ("replay", ck.h.value)]


# ---------------------------------------------------------------------------
# F_fp2 and the point at infinity

def test_f2_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError, match="inverse of zero in F_fp2"):
        f2_inv(139, _F2_ZERO)


def test_f2_pow_of_a_negative_exponent_is_the_inverse_power(monkeypatch):
    """u^-e = (u^-1)^e. The loop halves e until it is 0, which a negative e
    never reaches, so f2_mul is capped to turn a hang into a failure."""
    fp, u, calls = 139, (3, 5), []

    def capped(*args):
        calls.append(args)
        if len(calls) > 1000:
            raise AssertionError("f2_pow did not stop")
        return f2_mul(*args)

    monkeypatch.setattr(curve, "f2_mul", capped)
    for e in (1, 2, 7, 138, 139 * 139 - 2):
        calls.clear()
        inverse_power = f2_pow(fp, u, -e)
        assert inverse_power == f2_inv(fp, f2_pow(fp, u, e))
        assert f2_mul(fp, inverse_power, f2_pow(fp, u, e)) == F2_ONE


def test_infinity_is_on_the_curve():
    assert curve.is_on_curve(139, None)
