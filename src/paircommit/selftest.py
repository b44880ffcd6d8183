"""Built-in property suite over small prime pairs.

Runs every module's core invariants at (p, q) = (5, 7) and (3, 5) on
both backends. Used by the `selftest` CLI command; the pytest suite
covers the same ground (and more) with frozen worked examples.
"""

import random
from typing import Callable, List, Tuple

from . import arith, commitment, forgery, groups

Result = Tuple[str, bool, str]


def run_selftest(seed: int = 1, trials: int = 100) -> List[Result]:
    rng = random.Random(seed)
    results: List[Result] = []

    def check(name: str, fn: Callable[[], None]) -> None:
        try:
            fn()
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, True, ""))

    check("algebra.ext_gcd", lambda: _ext_gcd_identity(rng, trials))
    check("algebra.mod_inverse", lambda: _mod_inverse_roundtrip(rng, trials))
    check("algebra.gen_prime", lambda: _gen_prime_is_prime(rng))

    for p, q in ((5, 7), (3, 5)):
        tctx = groups.setup_transparent(p, q)
        cctx = groups.setup_curve(p, q, rng)
        for ctx in (tctx, cctx):
            tag = f"(p={p},q={q},{ctx.backend})"
            check(f"groups.bilinearity {tag}", lambda c=ctx: _bilinearity(c, rng, 25))
            check(f"groups.symmetry {tag}", lambda c=ctx: _symmetry(c, rng, 25))
            check(f"groups.nondegeneracy {tag}", lambda c=ctx: _nondegeneracy(c))
            check(f"groups.roundtrip {tag}", lambda c=ctx: _element_roundtrip(c, rng))
            check(f"commitment.completeness {tag}",
                  lambda c=ctx: _completeness(c, rng, trials))
            check(f"commitment.identity {tag}",
                  lambda c=ctx: _correctness_identity(c, rng, 50))
            check(f"commitment.extraction {tag}", lambda c=ctx: _extraction(c, rng))
            check(f"commitment.trapdoor {tag}", lambda c=ctx: _trapdoor(c, rng, 50))
            check(f"forgery.accepts {tag}", lambda c=ctx: _forgery_accepts(c, rng, 25))
        check(f"forgery.audit-trichotomy (p={p},q={q})",
              lambda c=tctx: _audit_trichotomy(c, rng))
        check(f"forgery.census-consistency (p={p},q={q})",
              lambda c=tctx: _census_consistency(c, rng))
    check("groups.gq-census (p=5,q=7)", lambda: _gq_census())
    check("commitment.binding-exhaustive (n=15)", lambda: _binding_exhaustive())
    check("groups.backend-equivalence", lambda: _backend_equivalence(rng, 20))
    return results


def _ext_gcd_identity(rng, trials):
    for _ in range(trials):
        a = rng.randrange(-(2 ** 48), 2 ** 48)
        b = rng.randrange(-(2 ** 48), 2 ** 48)
        if a == 0 and b == 0:
            continue
        g, s, t = arith.ext_gcd(a, b)
        assert s * a + t * b == g and g >= 0
        if a and b:
            assert a % g == 0 and b % g == 0


def _mod_inverse_roundtrip(rng, trials):
    for _ in range(trials):
        n = rng.randrange(2, 2 ** 32)
        a = rng.randrange(1, n)
        if arith.ext_gcd(a, n).g != 1:
            continue
        inv = arith.mod_inverse(a, n)
        assert inv * a % n == 1 and 1 <= inv < n


def _gen_prime_is_prime(rng):
    for bits in (3, 8, 16):
        p = arith.gen_prime(bits, rng)
        assert p.bit_length() == bits
        for d in range(2, int(p ** 0.5) + 1):
            assert p % d != 0


def _bilinearity(ctx, rng, trials):
    for _ in range(trials):
        s = rng.randrange(ctx.n)
        t = rng.randrange(ctx.n)
        lhs = groups.pair(ctx.g ** s, ctx.g ** t)
        assert lhs == ctx.gt ** (s * t)


def _symmetry(ctx, rng, trials):
    for _ in range(trials):
        a = ctx.g ** rng.randrange(ctx.n)
        b = ctx.g ** rng.randrange(ctx.n)
        assert groups.pair(a, b) == groups.pair(b, a)


def _nondegeneracy(ctx):
    assert not (ctx.gt ** (ctx.n // ctx.p)).is_identity()
    assert not (ctx.gt ** (ctx.n // ctx.q)).is_identity()
    assert (ctx.gt ** ctx.n).is_identity()


def _element_roundtrip(ctx, rng):
    for _ in range(10):
        el = ctx.g ** rng.randrange(ctx.n)
        assert groups.element_from_text(el.to_text(), ctx) == el
    gt = ctx.gt ** rng.randrange(1, ctx.n)
    assert groups.gt_element_from_text(gt.to_text(), ctx) == gt


def _completeness(ctx, rng, trials):
    ck_b, _ = commitment.binding_keygen(ctx, rng)
    ck_h, _ = commitment.hiding_keygen(ctx, rng)
    for ck in (ck_b, ck_h):
        for _ in range(trials):
            m = rng.randrange(2)
            r = rng.randrange(ctx.n)
            c = commitment.commit(ck, m, r)
            pi = commitment.wi_prove(ck, m, r)
            assert commitment.verify(ck, c, pi)


def _correctness_identity(ctx, rng, trials):
    ck, _ = commitment.binding_keygen(ctx, rng)
    for _ in range(trials):
        m = rng.randrange(ctx.p)
        r = rng.randrange(ctx.n)
        c = commitment.commit(ck, m, r)
        pi = commitment._wi_prove_any_message(ck, m, r)
        ok = commitment.verify(ck, c, pi)
        assert ok == (m * (m - 1) % ctx.n == 0)


def _extraction(ctx, rng):
    ck, xk = commitment.binding_keygen(ctx, rng)
    for m in range(ctx.p):
        r = rng.randrange(ctx.n)
        assert commitment.extract(xk, commitment.commit(ck, m, r)) == m


def _trapdoor(ctx, rng, trials):
    ck, tk = commitment.hiding_keygen(ctx, rng)
    for _ in range(trials):
        m = rng.randrange(ctx.p)
        r = rng.randrange(ctx.n)
        c = commitment.commit(ck, m, r)
        m2 = rng.randrange(ctx.p)
        opened = commitment.trapdoor_open(tk, c, commitment.Opening(m, r), m2)
        assert commitment.commit(ck, opened.m, opened.r) == c
        back = commitment.trapdoor_open(tk, c, opened, m)
        assert back.r == r % ctx.n


def _forgery_accepts(ctx, rng, trials):
    ck, _ = commitment.binding_keygen(ctx, rng)
    for _ in range(trials):
        rec = forgery.forge(ck, ctx.p, ctx.q, rng=rng)
        report = forgery.claim_report(rec, ck, ctx.p, ctx.q)
        assert report.verification_passes
        assert not report.alpha1_is_bit
        assert not report.g_alpha1_in_gq


def _audit_trichotomy(ctx, rng):
    ck, _ = commitment.binding_keygen(ctx, rng)
    fp = commitment.key_fingerprint(ck)
    for e in range(ctx.n):
        v = forgery.audit(ctx.q, ck, commitment.Commitment(ctx.element(e), fp))
        assert v.label in (forgery.COMMITS_TO_0, forgery.COMMITS_TO_1, forgery.INVALID)
        assert v.c_in_gq == (v.label == forgery.COMMITS_TO_0)
    for m in (0, 1):
        c = commitment.commit(ck, m, rng.randrange(ctx.n))
        v = forgery.audit(ctx.q, ck, c)
        assert v.label == (forgery.COMMITS_TO_0 if m == 0 else forgery.COMMITS_TO_1)


def _census_consistency(ctx, rng):
    ck, _ = commitment.binding_keygen(ctx, rng)
    result = forgery.accepting_census(ctx, ck)
    assert result.accepting_exponents() == result.non_invalid_exponents()


def _gq_census():
    ctx = groups.setup_transparent(5, 7)
    members = {e for e in range(35) if groups.is_in_subgroup_q(ctx.element(e), 7)}
    assert members == {0, 5, 10, 15, 20, 25, 30}


def _binding_exhaustive():
    ctx = groups.setup_transparent(3, 5)
    for x in range(1, 5):
        ck, _ = commitment.binding_key_from_exponent(ctx, x)
        openings = {}
        for m in range(ctx.p):
            for r in range(ctx.n):
                c = commitment.commit(ck, m, r).c.value
                openings.setdefault(c, set()).add(m)
        assert all(len(ms) == 1 for ms in openings.values())


def _backend_equivalence(rng, trials):
    p, q = 5, 7
    tctx = groups.setup_transparent(p, q)
    cctx = groups.setup_curve(p, q, rng)
    for _ in range(trials):
        x = rng.randrange(1, q)
        m = rng.randrange(2)
        r = rng.randrange(p * q)
        outcomes = []
        for ctx in (tctx, cctx):
            ck, _ = commitment.binding_key_from_exponent(ctx, x)
            c = commitment.commit(ck, m, r)
            pi = commitment.wi_prove(ck, m, r)
            outcomes.append(commitment.verify(ck, c, pi))
        assert outcomes[0] == outcomes[1]
