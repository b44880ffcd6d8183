"""Exact F_fp reduction and inversion counts of the curve engine, one row
per operation.

A context whose field prime is a _CountingPrime sees every x % fp that
curve.py makes: x is an int and fp's type a subclass of int, so Python
asks fp.__rmod__ first. Inversions, pow(x, -1, fp), are not reductions;
a pow bound in curve's namespace while a row runs counts them (in
CPython one costs about 25 multiply-and-reduce steps). src/ is unchanged
by either. Unreduced products are not counted, so a row is a lower bound
on an operation's work, not its time.

The walk, the record and the replay are whole pairings of g, the final
exponentiation included. The warm rows run once a key's window tables
and h's Miller lines exist. A product of two powers is one ec_mul:
untabled bases share one doubling chain (Straus), and a warm commit,
g^m h^r, adds g's table entry into h's accumulator, one mixed addition
(9 reductions) where raising g and h apart would make g's affine
conversion and an ec_add (6 reductions and 2 inversions). A change that
raises a count fails here; a change that lowers one writes the new count
into COUNTS.
"""

import functools
import random

import pytest

from paircommit import (
    CurveContext,
    binding_key_from_exponent,
    commit,
    pair,
    setup_curve,
    verify,
    wi_prove,
)
from paircommit import curve
from paircommit.arith import gen_prime
from paircommit.curve import (
    ec_mul,
    f2_inv,
    f2_mul,
    f2_pow,
    mul_is_infinity,
    tate_pairing,
    window_table,
)
from paircommit.groups import TABLE_AT_POWER

SIZES = (16, 32, 64)
POWERS = 300  # exponents per ec_mul row, drawn from (-n/2, n/2] as a context reduces them

# operation: (reductions, inversions) at 16-, 32- and 64-bit primes
COUNTS = {
    "walk": ((464, 1), (883, 1), (1_821, 1)),
    "record": ((674, 2), (1_298, 2), (2_681, 2)),
    "replay": ((153, 2), (266, 2), (547, 2)),
    "final exponentiation": ((24, 1), (14, 1), (28, 1)),
    "warm verify": ((621, 4), (1_153, 4), (2_372, 4)),
    "warm commit": ((57, 1), (111, 1), (228, 1)),
    "warm prove": ((111, 1), (219, 1), (453, 1)),
    "window table build": ((1_582, 8), (2_938, 14), (5_876, 27)),
    "ec_mul with a table, 300 powers": ((15_345, 300), (31_986, 300), (66_078, 300)),
    "ec_mul without a table, 300 powers": ((87_276, 300), (183_186, 300), (377_947, 300)),
    # two untabled powers and their ec_add would make 900 inversions
    "product of two powers without tables, 300 products": (
        (110_267, 600), (225_865, 600), (457_988, 600)),
    "ladder over n": ((256, 0), (504, 0), (1_024, 0)),
}


class _CountingPrime(int):
    """A field prime that counts the reductions made modulo it."""

    reductions = 0

    def __rmod__(self, x):
        self.reductions += 1
        return int.__rmod__(self, x)


def _counted(fp: _CountingPrime, operation) -> tuple[int, int]:
    """The reductions and the inversions that operation makes."""
    inversions = 0

    def counting_pow(base, exp, mod=None):
        nonlocal inversions
        inversions += exp == -1
        return pow(base, exp, mod)

    fp.reductions = 0
    curve.pow = counting_pow
    try:
        operation()
    finally:
        del curve.pow
    return fp.reductions, inversions


def _final_exponentiation(fp: int, n: int, f):
    # tate_pairing's last step on a nonzero f: conj(f)/f, then the cofactor power
    return f2_pow(fp, f2_mul(fp, (f[0], -f[1] % fp), f2_inv(fp, f)), (fp + 1) // n)


@functools.cache
def measure(bits: int) -> dict[str, tuple[int, int]]:
    """The reductions and inversions of each operation in COUNTS, at one
    prime size."""
    r = random.Random(1)
    plain = setup_curve(*sorted((gen_prime(bits, r), gen_prime(bits, r))), r)
    fp = _CountingPrime(plain.field_prime)
    ctx = CurveContext(plain.n, fp, plain.cofactor, plain.g.value, plain.p, plain.q)
    n, g = ctx.n, ctx.g.value
    rng = random.Random(bits)
    ck, _ = binding_key_from_exponent(ctx, rng.randrange(1, ctx.q))
    m, t = 1, rng.randrange(n)
    # four rounds: g's eighth power (the key made its first) and h's are
    # in the fourth, and build their window tables; the second pairing
    # records h's lines
    for _ in range(4):
        com, proof = commit(ck, m, t), wi_prove(ck, m, t)
        assert verify(ck, com, proof)
    q_pt, h = proof.pi.value, ck.h.value
    lines = []
    table_bits = (n // 2).bit_length()  # as a context builds the table
    table = window_table(fp, g, table_bits)
    ks = [rng.randrange(-(n // 2), n // 2 + 1) for _ in range(POWERS)]
    k2s = [rng.randrange(-(n // 2), n // 2 + 1) for _ in range(POWERS)]
    f = tate_pairing(fp, n, g, q_pt)
    return {
        "walk": _counted(fp, lambda: tate_pairing(fp, n, g, q_pt)),
        "record": _counted(fp, lambda: tate_pairing(fp, n, g, q_pt, lines)),
        "replay": _counted(fp, lambda: tate_pairing(fp, n, g, com.c.value, lines)),
        "final exponentiation": _counted(fp, lambda: _final_exponentiation(fp, n, f)),
        "warm verify": _counted(fp, lambda: verify(ck, com, proof)),
        "warm commit": _counted(fp, lambda: commit(ck, m, t)),
        "warm prove": _counted(fp, lambda: wi_prove(ck, m, t)),
        "window table build": _counted(fp, lambda: window_table(fp, g, table_bits)),
        "ec_mul with a table, 300 powers": _counted(
            fp, lambda: [ec_mul(fp, g, k, table) for k in ks]),
        "ec_mul without a table, 300 powers": _counted(
            fp, lambda: [ec_mul(fp, g, k) for k in ks]),
        "product of two powers without tables, 300 products": _counted(
            fp, lambda: [ec_mul(fp, g, k, None, h, k2) for k, k2 in zip(ks, k2s)]),
        "ladder over n": _counted(fp, lambda: mul_is_infinity(fp, g, n)),
    }


@pytest.mark.parametrize("column", range(len(SIZES)), ids=[f"{b}-bit" for b in SIZES])
def test_reduction_counts(column):
    expected = {operation: row[column] for operation, row in COUNTS.items()}
    assert measure(SIZES[column]) == expected


@pytest.mark.parametrize("column", range(len(SIZES)), ids=[f"{b}-bit" for b in SIZES])
def test_table_costs_less_than_the_powers_before_it(column):
    """Ski rental: by the power that builds its window table, a base has
    spent more reductions on untabled powers than the table costs."""
    counts = measure(SIZES[column])
    mean_untabled = counts["ec_mul without a table, 300 powers"][0] / POWERS
    assert counts["window table build"][0] < (TABLE_AT_POWER - 1) * mean_untabled


def test_fixed_base_records_and_tables_when_the_policy_says():
    """A fixed base has no Miller lines after its first pairing and has
    them after its second; it has no window table after 7 powers and has
    one after 8. No result depends on when, only the cost does."""
    plain = setup_curve(5, 7, random.Random(7))
    ctx = CurveContext(plain.n, plain.field_prime, plain.cofactor, plain.g.value,
                       plain.p, plain.q)
    g, fixed = ctx.g, ctx._fixed[ctx.g.value]
    assert (fixed.pairings, fixed.powers) == (0, 0)
    pair(g, g)
    assert fixed.lines is None
    pair(g, g)
    assert fixed.lines is not None
    for _ in range(7):
        g ** 3
    assert fixed.table is None
    g ** 3
    assert fixed.table is not None
