"""Exact F_fp reduction counts of the curve engine, one row per operation.

A context whose field prime is a _CountingPrime sees every x % fp that
curve.py makes: x is an int and fp's type a subclass of int, so Python
asks fp.__rmod__ first. src/ is unchanged by it. Inversions,
pow(x, -1, fp), are not reductions and are not counted here; the call
counts in test_curve.py count them. Unreduced products are not counted
either, so a row is a lower bound on an operation's work, not its time.

The walk, the record and the replay are whole pairings of g, the final
exponentiation included. The warm rows run once a key's window tables
and h's Miller lines exist. A change that raises a count fails here; a
change that lowers one writes the new count into COUNTS.
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

# operation: reductions at 16-, 32- and 64-bit primes
COUNTS = {
    "walk": (464, 883, 1_821),
    "record": (674, 1_298, 2_681),
    "replay": (153, 266, 547),
    "final exponentiation": (24, 14, 28),
    "warm verify": (621, 1_153, 2_372),
    "warm commit": (54, 108, 225),
    "window table build": (1_582, 2_938, 5_876),
    "ec_mul with a table, 300 powers": (15_345, 31_986, 66_078),
    "ec_mul without a table, 300 powers": (87_276, 183_186, 377_947),
    "ladder over n": (256, 504, 1_024),
}


class _CountingPrime(int):
    """A field prime that counts the reductions made modulo it."""

    reductions = 0

    def __rmod__(self, x):
        self.reductions += 1
        return int.__rmod__(self, x)


def _counted(fp: _CountingPrime, operation) -> int:
    fp.reductions = 0
    operation()
    return fp.reductions


def _final_exponentiation(fp: int, n: int, f):
    # tate_pairing's last step on a nonzero f: conj(f)/f, then the cofactor power
    return f2_pow(fp, f2_mul(fp, (f[0], -f[1] % fp), f2_inv(fp, f)), (fp + 1) // n)


@functools.cache
def measure(bits: int) -> dict[str, int]:
    """The reductions of each operation in COUNTS, at one prime size."""
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
    q_pt = proof.pi.value
    lines = []
    table_bits = (n // 2).bit_length()  # as a context builds the table
    table = window_table(fp, g, table_bits)
    ks = [rng.randrange(-(n // 2), n // 2 + 1) for _ in range(POWERS)]
    f = tate_pairing(fp, n, g, q_pt)
    return {
        "walk": _counted(fp, lambda: tate_pairing(fp, n, g, q_pt)),
        "record": _counted(fp, lambda: tate_pairing(fp, n, g, q_pt, lines)),
        "replay": _counted(fp, lambda: tate_pairing(fp, n, g, com.c.value, lines)),
        "final exponentiation": _counted(fp, lambda: _final_exponentiation(fp, n, f)),
        "warm verify": _counted(fp, lambda: verify(ck, com, proof)),
        "warm commit": _counted(fp, lambda: commit(ck, m, t)),
        "window table build": _counted(fp, lambda: window_table(fp, g, table_bits)),
        "ec_mul with a table, 300 powers": _counted(
            fp, lambda: [ec_mul(fp, g, k, table) for k in ks]),
        "ec_mul without a table, 300 powers": _counted(
            fp, lambda: [ec_mul(fp, g, k) for k in ks]),
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
    mean_untabled = counts["ec_mul without a table, 300 powers"] / POWERS
    assert counts["window table build"] < (TABLE_AT_POWER - 1) * mean_untabled


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
