"""Forgery procedure, audit oracle, claim report, and the census."""

import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paircommit import (
    BINDING,
    COMMITS_TO_0,
    COMMITS_TO_1,
    Commitment,
    CommitmentKey,
    ContextMismatch,
    INVALID,
    KeyMismatch,
    TransparentContext,
    accepting_census,
    audit,
    binding_key_from_exponent,
    binding_keygen,
    claim_report,
    commit,
    forge,
    gen_prime,
    hiding_key_from_exponent,
    hiding_keygen,
    is_in_subgroup_q,
    is_probable_prime,
    key_fingerprint,
    setup_curve,
    setup_transparent,
    verify,
)
from paircommit.forgery import CENSUS_MAX_ORDER, CensusRow, _probe
from paircommit.selftest import audit_labels, census, forgery_accepts


@pytest.fixture
def binding35(t35):
    return binding_key_from_exponent(t35, 3)


class TestForge:
    def test_worked_example(self, binding35, t35):
        ck, _ = binding35
        rec = forge(ck, 5, 7, beta1=2)
        assert rec.k_a == 3 and rec.ell == 4
        assert rec.k_a * 7 - rec.ell * 5 == 1
        assert rec.alpha1 == 21
        # (2*21 - 1) = 41 = 6 mod 35, 6^-1 = 6, so alpha2 = 2*6 = 12
        assert 2 * 21 - 1 - 6 == 35 and 6 * 6 % 35 == 1
        assert rec.alpha2 == 12
        assert rec.beta2 == 144 % 35 == 4
        assert rec.c.c == t35.g ** 26   # 21 + 15*12 mod 35
        assert rec.pi.pi == t35.g ** 27  # 2 + 15*4 mod 35
        assert verify(ck, rec.c, rec.pi)

    def test_exponent_system_satisfied(self, binding35, rng):
        """The three congruences the construction solves, checked directly."""
        ck, _ = binding35
        for _ in range(30):
            rec = forge(ck, 5, 7, rng=rng)
            n = 35
            assert rec.alpha1 * (rec.alpha1 - 1) % n == 0
            assert (2 * rec.alpha1 * rec.alpha2 - rec.alpha2) % n == rec.beta1 % n
            assert rec.alpha2 ** 2 % n == rec.beta2

    def test_alpha1_never_a_bit(self, binding35, rng):
        ck, _ = binding35
        for _ in range(30):
            rec = forge(ck, 5, 7, rng=rng)
            assert rec.alpha1 % 35 not in (0, 1)

    def test_g_alpha1_outside_gq(self, binding35, t35):
        ck, _ = binding35
        rec = forge(ck, 5, 7, beta1=2)
        g_alpha1 = t35.g ** rec.alpha1
        # (g^a1)^q = g^q exactly, and g^q is not the identity
        assert g_alpha1 ** 7 == t35.g ** 7
        assert not (t35.g ** 7).is_identity()
        assert not is_in_subgroup_q(g_alpha1, 7)

    def test_zero_beta1_degenerate_case(self, binding35, t35):
        ck, _ = binding35
        rec = forge(ck, 5, 7, beta1=0)
        assert rec.alpha2 == 0 and rec.beta2 == 0
        assert rec.c.c == t35.g ** rec.alpha1
        assert rec.pi.pi.is_identity()
        assert verify(ck, rec.c, rec.pi)

    def test_beta1_out_of_range(self, binding35):
        ck, _ = binding35
        with pytest.raises(ValueError):
            forge(ck, 5, 7, beta1=35)

    def test_needs_beta1_or_rng(self, binding35):
        ck, _ = binding35
        with pytest.raises(ValueError):
            forge(ck, 5, 7)

    def test_wrong_factorization_rejected(self, binding35):
        ck, _ = binding35
        with pytest.raises(ValueError):
            forge(ck, 3, 7, beta1=2)
        with pytest.raises(ValueError):
            forge(ck, 7, 5, beta1=2)

    def test_hiding_key_needs_flag(self, t35, rng):
        ck, _ = hiding_key_from_exponent(t35, 3)
        with pytest.raises(ValueError):
            forge(ck, 5, 7, beta1=2)

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_always_accepts_random_contexts(self, backend, rng):
        """Every forgery passes verification on fresh desk-scale contexts."""
        for _ in range(25):
            p, q = _random_prime_pair(rng, backend)
            ctx = (setup_transparent(p, q) if backend == "transparent"
                   else setup_curve(p, q, rng))
            forgery_accepts(ctx, rng, 1)


class TestAudit:
    def test_worked_examples(self, binding35, t35):
        ck, _ = binding35
        fp = key_fingerprint(ck)
        v = audit(7, ck, Commitment(t35.g ** 15, fp))
        assert v.label == COMMITS_TO_0 and v.c_in_gq  # 15*7 = 0 mod 35
        v = audit(7, ck, Commitment(t35.g, fp))
        assert v.label == COMMITS_TO_1 and v.c_over_g_in_gq
        v = audit(7, ck, Commitment(t35.g ** 2, fp))
        assert v.label == INVALID  # 2*7 = 14, 1*7 = 7, neither 0 mod 35
        assert not v.c_in_gq and not v.c_over_g_in_gq

    def test_trichotomy_exhaustive(self, t35, c35, rng):
        for ctx in (t35, c35):
            audit_labels(ctx, rng, 1)

    def test_matches_honest_commitments(self, t35, rng):
        audit_labels(t35, rng, 40)

    def test_curve_backend_agrees(self, c35, rng):
        ck, _ = binding_key_from_exponent(c35, 3)
        for m in (0, 1):
            v = audit(7, ck, commit(ck, m, rng.randrange(35)))
            assert v.label == (COMMITS_TO_0 if m == 0 else COMMITS_TO_1)

    def test_commitment_from_another_context_rejected(self, t35, c35):
        """A c whose tag matches the key but whose element lives elsewhere
        is refused, though the probes run on payloads."""
        ck, _ = binding_key_from_exponent(c35, 3)
        with pytest.raises(ContextMismatch):
            audit(7, ck, Commitment(t35.g, key_fingerprint(ck)))

    def test_q_not_dividing_n_rejected(self, binding35):
        ck, _ = binding35
        with pytest.raises(ValueError, match="q=4 does not divide the group order 35"):
            audit(4, ck, commit(ck, 1, 2))

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_verdict_carries_its_probes(self, t35, c35, backend):
        ctx = t35 if backend == "transparent" else c35
        ck, _ = binding_key_from_exponent(ctx, 3)
        fp = key_fingerprint(ck)
        for e in range(35):
            c = ctx.g ** e
            v = audit(7, ck, Commitment(c, fp))
            assert v.c_pow_q == c ** 7 and v.c_over_g_pow_q == (c * ctx.g.inverse()) ** 7
            assert (v.c_in_gq, v.c_over_g_in_gq) == (e * 7 % 35 == 0, (e - 1) * 7 % 35 == 0)


class TestClaimReport:
    def test_worked_forgery_report(self, binding35):
        ck, _ = binding35
        rec = forge(ck, 5, 7, beta1=2)
        report = claim_report(rec, ck, 5, 7)
        assert report.verification_passes
        assert not report.alpha1_is_bit      # 21 is not 0 or 1
        assert not report.g_alpha1_in_gq     # 21*7 = 7 != 0 mod 35
        # the audit's independent probes for c = g^26:
        # 26*7 = 7 != 0 and 25*7 = 0 (mod 35), so the verdict is CommitsTo1
        assert 26 * 7 % 35 == 7 and 25 * 7 % 35 == 0
        assert report.verdict.label == COMMITS_TO_1
        assert not report.verdict.c_in_gq
        assert report.verdict.c_over_g_in_gq

    def test_zero_beta1_report_well_formed(self, binding35):
        ck, _ = binding35
        rec = forge(ck, 5, 7, beta1=0)
        report = claim_report(rec, ck, 5, 7)
        assert report.verification_passes
        assert not report.alpha1_is_bit
        assert report.verdict.label in (COMMITS_TO_0, COMMITS_TO_1, INVALID)

    def test_report_lines(self, binding35):
        ck, _ = binding35
        report = claim_report(forge(ck, 5, 7, beta1=2), ck, 5, 7)
        lines = report.lines()
        assert "verification_passes=true" in lines
        assert "alpha1_is_bit=false" in lines
        assert "g_alpha1_in_gq=false" in lines
        assert "audit_verdict=CommitsTo1" in lines


    def test_wrong_factorization_rejected(self, binding35):
        ck, _ = binding35
        rec = forge(ck, 5, 7, beta1=2)
        with pytest.raises(ValueError, match=r"3\*7 is not the group order 35"):
            claim_report(rec, ck, 3, 7)


class TestCensus:
    def test_needs_the_factorization(self):
        public = TransparentContext(35)
        ck = CommitmentKey(public, public.g ** 15, BINDING)
        with pytest.raises(ValueError, match="census needs a context that knows p and q"):
            accepting_census(public, ck)

    def test_key_from_another_context_rejected(self, t15, t35):
        ck, _ = binding_key_from_exponent(t15, 1)
        with pytest.raises(KeyMismatch, match="key does not live on the given context"):
            accepting_census(t35, ck)

    def test_worked_example_n15(self, t15):
        """Exhaustive 15x15 brute force at (3,5), h = g^3."""
        ck, _ = binding_key_from_exponent(t15, 1)
        assert ck.h.value == 3
        result = accepting_census(t15, ck)
        accepting = result.accepting_exponents()
        assert accepting == {e for e in range(15) if e % 3 in (0, 1)}
        assert len(accepting) == 10
        assert result.accepting_pairs == 30
        for row in result.rows:
            assert row.accepting_pi_count == (3 if row.c_exp % 3 in (0, 1) else 0)
        assert result.accepting_c_by_verdict[INVALID] == 0
        assert result.accepting_c_by_verdict[COMMITS_TO_0] == 5
        assert result.accepting_c_by_verdict[COMMITS_TO_1] == 5

    def test_worked_example_n6(self):
        """At (2,3) with h = g^2 every element has an accepting proof."""
        ctx = setup_transparent(2, 3)
        ck, _ = binding_key_from_exponent(ctx, 1)
        assert ck.h.value == 2
        result = accepting_census(ctx, ck)
        assert result.accepting_exponents() == set(range(6))
        assert result.accepting_c_by_verdict[INVALID] == 0

    def test_accepting_pairs_reverify(self, t15):
        """The n^2 oracle: each row counts the pi that verify accepts with its
        c, and verify agrees with the exponent equation c(c-1) = h*pi."""
        from paircommit import Commitment, WIProof
        ck, _ = binding_key_from_exponent(t15, 1)
        fp = key_fingerprint(ck)
        result = accepting_census(t15, ck)
        verified = 0
        for row in result.rows:
            c = Commitment(t15.g ** row.c_exp, fp)
            accepted = 0
            for pi_exp in range(15):
                expected = row.c_exp * (row.c_exp - 1) % 15 == 3 * pi_exp % 15
                ok = verify(ck, c, WIProof(t15.g ** pi_exp, fp))
                assert ok == expected
                accepted += ok
            assert row.accepting_pi_count == accepted
            verified += accepted
        assert verified == result.accepting_pairs

    @pytest.mark.parametrize("pq", [(3, 5), (5, 7), (11, 13), (61, 67)],
                             ids=["n15", "n35", "n143", "n4087"])
    def test_equals_the_join(self, pq, rng):
        """The factor tables give the rows and totals of the join over all
        of G, with binding and hiding keys."""
        ctx = setup_transparent(*pq)
        for keygen in (binding_keygen, hiding_keygen):
            ck, _ = keygen(ctx, rng)
            result = accepting_census(ctx, ck)
            assert (result.rows, result.accepting_pairs,
                    result.accepting_c_by_verdict) == _joined_census(ctx, ck)

    def test_curve_equals_the_join(self):
        """On the curve the census equals the curve's own join, and the
        transparent census of a key at the same x."""
        for p, q in ((3, 5), (5, 7), (41, 73)):
            ctx = setup_curve(p, q, random.Random(p * q))
            ck, _ = binding_key_from_exponent(ctx, 2)
            result = accepting_census(ctx, ck)
            assert (result.rows, result.accepting_pairs,
                    result.accepting_c_by_verdict) == _joined_census(ctx, ck)
            twin = setup_transparent(p, q)
            assert result == accepting_census(twin, binding_key_from_exponent(twin, 2)[0])

    def test_rows_carry_audit_verdict(self, t15, t35, rng):
        """Each row's label is what `audit` says of its c, under binding
        and hiding keys."""
        for ctx in (t15, t35):
            for keygen in (binding_keygen, hiding_keygen):
                ck, _ = keygen(ctx, rng)
                fp = key_fingerprint(ck)
                for row in accepting_census(ctx, ck).rows:
                    c = Commitment(ctx.g ** row.c_exp, fp)
                    assert row.verdict_label == audit(ctx.q, ck, c).label

    @staticmethod
    def _assert_closed_form(ctx, ck):
        # c(c-1) = h*pi (mod n) has d = gcd(h, n) solutions pi when d
        # divides c(c-1), and none otherwise
        d = gcd(ck.h.value, ctx.n)
        for row in accepting_census(ctx, ck).rows:
            e = row.c_exp
            assert row.accepting_pi_count == (d if e * (e - 1) % d == 0 else 0)
        return d

    @pytest.mark.parametrize("pq", [(3, 5), (5, 7), (11, 13), (61, 67)],
                             ids=["n15", "n35", "n143", "n4087"])
    def test_closed_form(self, pq, rng):
        """The count per row is gcd(h, n) or 0: p for a binding key, 1 for a
        hiding one."""
        ctx = setup_transparent(*pq)
        ck, _ = binding_keygen(ctx, rng)
        assert self._assert_closed_form(ctx, ck) == ctx.p
        ck, _ = hiding_keygen(ctx, rng)
        assert self._assert_closed_form(ctx, ck) == 1

    def test_closed_form_every_h(self, t15, t35):
        """The same count for every h of G, the identity (d = n) included,
        and the census equals the join over all of G at each."""
        for ctx in (t15, t35):
            for h_exp in range(ctx.n):
                ck = CommitmentKey(ctx, ctx.g ** h_exp, BINDING)
                self._assert_closed_form(ctx, ck)
                result = accepting_census(ctx, ck)
                assert (result.rows, result.accepting_pairs,
                        result.accepting_c_by_verdict) == _joined_census(ctx, ck)

    @pytest.mark.parametrize("pq", [(3, 5), (5, 7)], ids=["n15", "n35"])
    def test_every_forgery_commits_to_1(self, pq):
        """The forgery census: at every x and every beta1 the forged c audits
        as CommitsTo1, and the census accepts it with p proofs."""
        p, q = pq
        ctx = setup_transparent(p, q)
        for x in range(1, q):
            ck, _ = binding_key_from_exponent(ctx, x)
            result = accepting_census(ctx, ck)
            accepting = result.accepting_exponents()
            for beta1 in range(ctx.n):
                c = forge(ck, p, q, beta1=beta1).c
                assert audit(q, ck, c).label == COMMITS_TO_1
                row = result.rows[c.c.value]
                assert c.c.value in accepting
                assert (row.accepting_pi_count, row.verdict_label) == (p, COMMITS_TO_1)

    def test_consistency_with_audit(self, t35, t15, rng):
        """Accepting-c set equals the audit's non-Invalid set."""
        for ctx in (t15, t35, setup_transparent(7, 11), setup_transparent(13, 17)):
            census(ctx, rng, 1)

    def test_forged_c_is_inside_accepting_set(self, t35, rng):
        """The forged commitment lands in the accepting set the census finds."""
        ck, _ = binding_key_from_exponent(t35, 3)
        rec = forge(ck, 5, 7, beta1=2)
        result = accepting_census(t35, ck)
        assert rec.c.c.value in result.accepting_exponents()

    def test_above_the_cap_keeps_the_tables(self, rng):
        """Above CENSUS_MAX_ORDER the census has no rows, and the two set
        queries raise rather than answer from none; the totals and the
        factor tables stay."""
        p = gen_prime(7, rng)
        q = 4099  # prime, pushes n over 2^12
        ctx = setup_transparent(p, q)
        ck, _ = binding_keygen(ctx, rng)
        result = accepting_census(ctx, ck)
        assert result.rows is None
        for query in (result.accepting_exponents, result.non_invalid_exponents):
            with pytest.raises(ValueError):
                query()
        assert result.p_counts == [p, p] + [0] * (p - 2)
        assert result.q_counts == [1] * q
        assert result.p_labels == [COMMITS_TO_0, COMMITS_TO_1] + [INVALID] * (p - 2)
        assert result.accepting_pairs == 2 * ctx.n
        assert result.accepting_c_by_verdict == {COMMITS_TO_0: q, COMMITS_TO_1: q, INVALID: 0}


def _joined_census(ctx, ck):
    """The census as a join over all of G, 2n pairings: count pair(h, pi)
    over pi = g^f, f < n, then read each c = g^e's count off at
    pair(c, c*g^-1), labelled by audit's rule. (rows, accepting_pairs,
    accepting_c_by_verdict)."""
    n, q, mul, pair_payloads = ctx.n, ctx.q, ctx._el_mul, ctx._pair
    g, h = ctx.g.value, ck.h.value
    g_inv = ctx._el_inv(g)
    rhs_counts = {}
    pi = ctx._el_identity
    for _ in range(n):
        rhs = pair_payloads(h, pi)
        rhs_counts[rhs] = rhs_counts.get(rhs, 0) + 1
        pi = mul(pi, g)
    rows = []
    by_verdict = {COMMITS_TO_0: 0, COMMITS_TO_1: 0, INVALID: 0}
    c = ctx._el_identity
    for c_exp in range(n):
        count = rhs_counts.get(pair_payloads(c, mul(c, g_inv)), 0)
        label = _probe(ctx, q, c, g_inv)[0]
        rows.append(CensusRow(c_exp, count, label))
        if count:
            by_verdict[label] += 1
        c = mul(c, g)
    return rows, sum(row.accepting_pi_count for row in rows), by_verdict


_PRIMES = [k for k in range(2, 2 ** 12) if is_probable_prime(k)]
# a prime of 2 to 12 bits, the bit length drawn first, so small n come up often
_prime = st.integers(2, 12).flatmap(
    lambda bits: st.sampled_from([k for k in _PRIMES if k.bit_length() == bits]))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(p=_prime, q=_prime, x=st.integers(1))
def test_census_at_random_n(p, q, x):
    """At n up to 2^24: a binding key accepts 2n pairs and no Invalid c, a
    hiding key every c once, and below the cap the rows are the tables
    expanded."""
    assume(p != q)
    p, q = min(p, q), max(p, q)
    n, ctx = p * q, setup_transparent(p, q)
    x = 1 + x % (q - 1)
    binding = accepting_census(ctx, binding_key_from_exponent(ctx, x)[0])
    assert binding.accepting_pairs == 2 * n
    assert binding.accepting_c_by_verdict == {COMMITS_TO_0: q, COMMITS_TO_1: q, INVALID: 0}
    hiding = accepting_census(ctx, hiding_key_from_exponent(ctx, x if x % p else x - 1)[0])
    assert hiding.accepting_pairs == n
    assert hiding.accepting_c_by_verdict == {COMMITS_TO_0: q, COMMITS_TO_1: q,
                                             INVALID: n - 2 * q}
    for result in (binding, hiding):
        cp, cq, labels = result.p_counts, result.q_counts, result.p_labels
        assert (len(cp), len(cq), len(labels)) == (p, q, p)
        if n <= CENSUS_MAX_ORDER:
            assert result.rows == [CensusRow(e, cp[e % p] * cq[e % q], labels[e % p])
                                   for e in range(n)]
        else:
            assert result.rows is None


def _random_prime_pair(rng, backend):
    hi = 10 if backend == "curve" else 12
    while True:
        p = gen_prime(rng.randrange(3, hi), rng)
        q = gen_prime(rng.randrange(3, hi), rng)
        if p == q:
            continue
        p, q = min(p, q), max(p, q)
        if backend == "curve" and p == 2:
            continue
        return p, q
