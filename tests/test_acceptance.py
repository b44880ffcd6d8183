"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with pytest -s or in captured
output). All checks are exact; the only tolerances are the stated
runtime budgets.
"""

import random
import time
from contextlib import contextmanager

import pytest

from paircommit import (
    COMMITS_TO_1,
    accepting_census,
    binding_key_from_exponent,
    claim_report,
    forge,
    gen_prime,
    is_in_subgroup_q,
    setup_curve,
    setup_transparent,
    verify,
)
from paircommit.selftest import (
    binding,
    completeness,
    correctness_identity,
    cross_check,
    equivocation,
    extraction,
    forgery_accepts,
    nondegeneracy,
    pairing_laws,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def _random_pair(rng, bits):
    p = gen_prime(bits, rng)
    q = gen_prime(bits, rng)
    while q == p:
        q = gen_prime(bits, rng)
    return min(p, q), max(p, q)


@pytest.fixture(scope="module")
def pair16():
    return _random_pair(random.Random(2026), 16)


@pytest.fixture(scope="module")
def contexts16(pair16):
    p, q = pair16
    return (setup_transparent(p, q), setup_curve(p, q, random.Random(16)))


def test_criterion_1_completeness(t35, c35, contexts16, rng):
    with criterion(1, "1000 honest triples verify on both backends, "
                      "both modes, (5,7) and a 16-bit pair, under 60 s"):
        start = time.time()
        for ctx in (t35, c35) + contexts16:
            completeness(ctx, rng, 1000)
        elapsed = time.time() - start
        assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_2_correctness_identity(t35, c35, contexts16, rng):
    with criterion(2, "verify accepts the unguarded proof exactly when "
                      "m(m-1) = 0 mod n, 200 random m per backend"):
        trials = {t35: 200, c35: 200, contexts16[0]: 200, contexts16[1]: 50}
        for ctx, count in trials.items():
            correctness_identity(ctx, rng, count)


def test_criterion_3_extraction(t35, c35, rng):
    with criterion(3, "extraction recovers every message: m < p at (5,7), "
                      "m < 2^10 at a 32-bit-q context, 100 r each"):
        for ctx in (t35, c35):
            extraction(ctx, rng, 100)
        # 1031 is the smallest prime above 2^10, so every m < 2^10 is a message
        extraction(setup_transparent(1031, gen_prime(32, rng)), rng, 100)


def test_criterion_4_trapdoor(t35, c35, rng):
    with criterion(4, "1000 equivocations re-open exactly and reverse "
                      "to the original randomizer"):
        for ctx in (t35, c35):
            equivocation(ctx, rng, 500)


def test_criterion_5_forgery_reproduction(t35, c35, rng):
    with criterion(5, "(5,7) forgery reproduces the worked record and 200 "
                      "random-context forgeries all pass verification"):
        for ctx in (t35, c35):
            ck, _ = binding_key_from_exponent(ctx, 3)
            rec = forge(ck, 5, 7, beta1=2)
            assert (rec.k_a, rec.ell) == (3, 4)
            assert (rec.alpha1, rec.alpha2, rec.beta2) == (21, 12, 4)
            assert rec.c.c == ctx.g ** 26
            assert rec.pi.pi == ctx.g ** 27
            assert verify(ck, rec.c, rec.pi)
            assert rec.alpha1 % 35 not in (0, 1)
            g_a1 = ctx.g ** rec.alpha1
            assert g_a1 ** 7 == ctx.g ** 7
            assert not (ctx.g ** 7).is_identity()
            assert not is_in_subgroup_q(g_a1, 7)
            report = claim_report(rec, ck, 5, 7)
            assert report.verification_passes
            assert not report.alpha1_is_bit
            assert not report.g_alpha1_in_gq
        for i in range(200):
            p, q = _random_pair(rng, rng.randrange(3, 9))
            ctx = setup_curve(p, q, rng) if i % 2 else setup_transparent(p, q)
            forgery_accepts(ctx, rng, 1)


def test_criterion_6_census_ground_truth(t15, t35, rng):
    with criterion(6, "census at (3,5) matches the audit exactly; the "
                      "(5,7) forged c's verdict is printed, under 5 s"):
        start = time.time()
        ck, _ = binding_key_from_exponent(t15, 1)
        result = accepting_census(t15, ck)
        accepting = result.accepting_exponents()
        assert accepting == {e for e in range(15) if e % 3 in (0, 1)}
        assert len(accepting) == 10
        assert all(row.accepting_pi_count == 3
                   for row in result.rows if row.c_exp in accepting)
        assert result.accepting_pairs == 30
        assert accepting == result.non_invalid_exponents()

        # the forged pair at (5,7): the construction claims invalidity via
        # g^alpha1 lying outside G_q; the audit classifies c itself
        ck35, _ = binding_key_from_exponent(t35, 3)
        rec = forge(ck35, 5, 7, beta1=2)
        report = claim_report(rec, ck35, 5, 7)
        assert not report.g_alpha1_in_gq
        # independent exponent oracle: c = g^26, 26*7 = 7 != 0 and
        # 25*7 = 0 (mod 35), hence CommitsTo1
        assert 26 * 7 % 35 != 0 and 25 * 7 % 35 == 0
        assert report.verdict.label == COMMITS_TO_1
        for line in report.lines():
            print(f"  {line}")
        elapsed = time.time() - start
        assert elapsed < 5, f"took {elapsed:.1f} s"


def test_criterion_7_backend_cross_check(contexts16, rng):
    with criterion(7, "100 transcripts agree across backends at 16-bit "
                      "primes; curve passes bilinearity and "
                      "non-degeneracy, under 120 s"):
        start = time.time()
        cctx = contexts16[1]
        cross_check(cctx, rng, 100)
        pairing_laws(cctx, rng, 100)
        nondegeneracy(cctx, rng, 1)
        elapsed = time.time() - start
        assert elapsed < 120, f"took {elapsed:.1f} s"


def test_criterion_8_binding_exhaustive(t15, rng):
    with criterion(8, "full enumeration at n=15 finds no element with two "
                      "distinct message openings"):
        binding(t15, rng, 1)
