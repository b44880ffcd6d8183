"""The lab's claims as one table, and the runner behind `paircommit selftest`.

Each row of CLAIMS names a claim (acceptance criteria 1-8 and the group
and arithmetic laws beneath them), its property function
fn(ctx, rng, trials), which raises AssertionError when the claim fails,
and the backends it runs on (none: ctx is None). The selftest runs each
row at (p, q) = (5, 7) and (3, 5) with few trials; the tests call the
same functions with their full counts. Rows reach the library through
its modules, so a patched function is the one checked.
"""

import random
import traceback

from . import arith, commitment, forgery, groups
from .commitment import Commitment, Opening, WIProof
from .forgery import COMMITS_TO_0, COMMITS_TO_1, INVALID
from .groups import CURVE, TRANSPARENT, pair


def arith_laws(ctx, rng, trials):
    for _ in range(trials):
        a, b = (rng.randrange(-(2 ** 48), 2 ** 48) for _ in range(2))
        if a or b:
            g, s, t = arith.ext_gcd(a, b)
            assert s * a + t * b == g > 0 and a % g == 0 and b % g == 0
        n = rng.randrange(2, 2 ** 32)
        a = rng.randrange(1, n)
        if arith.ext_gcd(a, n).g == 1:
            inv = arith.mod_inverse(a, n)
            assert inv * a % n == 1 and 1 <= inv < n
    for bits in (3, 8, 16):
        p = arith.gen_prime(bits, rng)
        assert p.bit_length() == bits and all(p % d for d in range(2, int(p ** 0.5) + 1))


def pairing_laws(ctx, rng, trials):
    g = ctx.g
    for _ in range(trials):
        a, b, c, d, s, t = (rng.randrange(ctx.n) for _ in range(6))
        base = pair(g ** a, g ** b)
        assert base == ctx.gt ** (a * b) == pair(g ** b, g ** a)
        assert pair(g ** (a * s), g ** (b * t)) == base ** (s * t)
        assert (base == pair(g ** c, g ** d)) == ((a * b - c * d) % ctx.n == 0)


def nondegeneracy(ctx, rng, trials):
    gt, n = ctx.gt, ctx.n
    assert not (gt ** (n // ctx.p)).is_identity() and not (gt ** (n // ctx.q)).is_identity()
    assert (gt ** n).is_identity()


def text_roundtrip(ctx, rng, trials):
    for _ in range(trials):
        el = ctx.g ** rng.randrange(ctx.n)
        assert groups.element_from_text(el.to_text(), ctx) == el


def gq_membership(ctx, rng, trials):
    members = {e for e in range(ctx.n) if groups.is_in_subgroup_q(ctx.g ** e, ctx.q)}
    assert members == set(range(0, ctx.n, ctx.p))


def completeness(ctx, rng, trials):
    for keygen in (commitment.binding_keygen, commitment.hiding_keygen):
        ck = keygen(ctx, rng)[0]
        for _ in range(trials):
            m, r = rng.randrange(2), rng.randrange(ctx.n)
            c, pi = commitment.commit(ck, m, r), commitment.wi_prove(ck, m, r)
            assert commitment.verify(ck, c, pi)


def correctness_identity(ctx, rng, trials):
    ck, _ = commitment.binding_keygen(ctx, rng)
    g_inv = ctx.g.inverse()
    for _ in range(trials):
        m, r = rng.randrange(ctx.p), rng.randrange(ctx.n)
        c = commitment.commit(ck, m, r)
        pi = commitment._wi_prove_any_message(ck, m, r)
        assert pair(c.c, c.c * g_inv) == ctx.gt ** (m * (m - 1)) * pair(ck.h, pi.pi)
        assert commitment.verify(ck, c, pi) == (m * (m - 1) % ctx.n == 0)


def extraction(ctx, rng, trials):
    ck, xk = commitment.binding_keygen(ctx, rng)
    for m in range(ctx.p):
        for _ in range(trials):
            c = commitment.commit(ck, m, rng.randrange(ctx.n))
            assert commitment.extract(xk, c) == m


def equivocation(ctx, rng, trials):
    ck, tk = commitment.hiding_keygen(ctx, rng)
    for _ in range(trials):
        m, r, m_new = rng.randrange(ctx.p), rng.randrange(ctx.n), rng.randrange(ctx.p)
        c = commitment.commit(ck, m, r)
        there = commitment.trapdoor_open(tk, c, Opening(m, r), m_new)
        assert there.m == m_new and commitment.commit(ck, there.m, there.r) == c
        assert commitment.trapdoor_open(tk, c, there, m) == Opening(m, r)


def forgery_accepts(ctx, rng, trials):
    ck, _ = commitment.binding_keygen(ctx, rng)
    for _ in range(trials):
        rec = forgery.forge(ck, ctx.p, ctx.q, rng=rng)
        report = forgery.claim_report(rec, ck, ctx.p, ctx.q)
        assert commitment.verify(ck, rec.c, rec.pi) and report.verification_passes
        assert rec.alpha1 % ctx.n not in (0, 1) and not report.alpha1_is_bit
        g_alpha1 = ctx.g ** rec.alpha1
        assert not groups.is_in_subgroup_q(g_alpha1, ctx.q) and not report.g_alpha1_in_gq


def census(ctx, rng, trials):
    ck, _ = commitment.binding_keygen(ctx, rng)
    result = forgery.accepting_census(ctx, ck)
    assert result.accepting_exponents() == result.non_invalid_exponents()
    # h = g^(p*x), q prime to x: c(c-1) = h*pi has p solutions iff p | c(c-1)
    for row in result.rows:
        assert row.accepting_pi_count == (ctx.p if row.c_exp % ctx.p in (0, 1) else 0)


def cross_check(ctx, rng, trials):
    twin = groups.setup_transparent(ctx.p, ctx.q)
    for _ in range(trials):
        x = rng.randrange(1, ctx.q)
        while x % ctx.p == 0:
            x = rng.randrange(1, ctx.q)
        m, r, beta1 = rng.randrange(2), rng.randrange(ctx.n), rng.randrange(1, ctx.n)
        curve, transparent = (_transcript(c, x, m, r, beta1) for c in (ctx, twin))
        assert curve == transparent
        # honest, tampered, forged and hiding-mode proofs; extracted m
        assert curve[:4] == (True, False, True, True) and curve[6] == m


def _transcript(ctx, x, m, r, beta1):
    ck, xk = commitment.binding_key_from_exponent(ctx, x)
    hk, _ = commitment.hiding_key_from_exponent(ctx, x)
    c, pi = commitment.commit(ck, m, r), commitment.wi_prove(ck, m, r)
    tampered = WIProof(pi.pi * ctx.g, pi.key_fp)
    rec = forgery.forge(ck, ctx.p, ctx.q, beta1=beta1)
    hc, hpi = commitment.commit(hk, m, r), commitment.wi_prove(hk, m, r)
    return (commitment.verify(ck, c, pi), commitment.verify(ck, c, tampered),
            commitment.verify(ck, rec.c, rec.pi), commitment.verify(hk, hc, hpi),
            forgery.audit(ctx.q, ck, c).label, forgery.audit(ctx.q, ck, rec.c).label,
            commitment.extract(xk, c, 2))


def binding(ctx, rng, trials):
    for x in range(1, ctx.q):
        ck, _ = commitment.binding_key_from_exponent(ctx, x)
        openings = {}
        for m in range(ctx.p):
            for r in range(ctx.n):
                openings.setdefault(commitment.commit(ck, m, r).c.value, set()).add(m)
        assert all(len(ms) == 1 for ms in openings.values())


def audit_labels(ctx, rng, trials):
    ck, _ = commitment.binding_keygen(ctx, rng)
    fp = commitment.key_fingerprint(ck)
    bit_label = {0: COMMITS_TO_0, 1: COMMITS_TO_1}
    for e in range(ctx.n):
        v = forgery.audit(ctx.q, ck, Commitment(ctx.g ** e, fp))
        assert v.label == bit_label.get(e % ctx.p, INVALID)
        assert v.c_in_gq == (v.label == COMMITS_TO_0)
    for _ in range(trials):
        m = rng.randrange(2)
        c = commitment.commit(ck, m, rng.randrange(ctx.n))
        assert forgery.audit(ctx.q, ck, c).label == bit_label[m]


BOTH = (TRANSPARENT, CURVE)

# (claim, property function, backends it runs on)
CLAIMS = (
    ("arith: ext_gcd, mod_inverse and gen_prime are right", arith_laws, ()),
    ("pair is bilinear and symmetric, and e(g^a, g^b) = e(g^c, g^d) iff ab = cd mod n",
     pairing_laws, BOTH),
    ("pair(g, g) has order n", nondegeneracy, BOTH),
    ("elements read back from their text", text_roundtrip, BOTH),
    ("g^e lies in G_q iff p divides e", gq_membership, BOTH),
    ("criterion 1: honest bit proofs verify, both key modes", completeness, BOTH),
    ("criterion 2: e(c, c/g) = e(g,g)^(m(m-1)) e(h, pi), so verify accepts iff "
     "m(m-1) = 0 mod n", correctness_identity, BOTH),
    ("criterion 3: the extraction key recovers every m < p", extraction, BOTH),
    ("criterion 4: the trapdoor re-opens to any m, and back", equivocation, BOTH),
    ("criterion 5: p and q forge accepting proofs, alpha1 no bit", forgery_accepts, BOTH),
    ("criterion 6: the census accepts the audit's bit commitments", census, (TRANSPARENT,)),
    ("criterion 7: backend transcripts agree, tampered proofs fail", cross_check, (CURVE,)),
    ("criterion 8: no binding commitment opens to two messages", binding, (TRANSPARENT,)),
    ("audit labels g^e by e mod p, honest commitments by their bit", audit_labels, BOTH),
)


def run_selftest(seed: int) -> list[tuple[str, bool, str]]:
    """(check, passed, detail) for every claim at (p, q) = (5, 7) and (3, 5),
    on each backend it names, with 10 trials."""
    if not __debug__:  # python -O strips the asserts that every row is made of
        raise ValueError("selftest checks nothing under python -O")
    rng = random.Random(seed)
    contexts = [ctx for p, q in ((5, 7), (3, 5))
                for ctx in (groups.setup_transparent(p, q), groups.setup_curve(p, q, rng))]
    results = []
    for claim, fn, backends in CLAIMS:
        runs = [(f"{claim} (p={c.p},q={c.q},{c.backend})", c)
                for c in contexts if c.backend in backends] or [(claim, None)]
        for name, ctx in runs:
            try:
                fn(ctx, rng, 10)
            except Exception as exc:
                # the innermost frame: which assert or call failed
                where = traceback.extract_tb(exc.__traceback__)[-1]
                results.append((name, False, f"{exc!r} in {where.name}: {where.line}"))
            else:
                results.append((name, True, ""))
    return results
