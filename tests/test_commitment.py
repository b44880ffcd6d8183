"""Commitment scheme: worked traces, completeness, extraction, trapdoor, binding."""

import dataclasses
import hashlib

import pytest

from paircommit import (
    BINDING,
    CommitmentKey,
    ExtractionKey,
    HIDING,
    InvalidKey,
    KeyMismatch,
    NotExtractable,
    Opening,
    binding_key_from_exponent,
    binding_keygen,
    commit,
    extract,
    hiding_key_from_exponent,
    hiding_keygen,
    homomorphic_combine,
    is_in_subgroup_q,
    key_fingerprint,
    pair,
    setup_transparent,
    trapdoor_open,
    verify,
    wi_prove,
)
from paircommit.commitment import _wi_prove_any_message


@pytest.fixture
def binding35(t35):
    """Binding key over n=35 with x=3: h = g^15."""
    return binding_key_from_exponent(t35, 3)


@pytest.fixture
def hiding35(t35):
    """Hiding key over n=35 with x=3: h = g^3."""
    return hiding_key_from_exponent(t35, 3)


class TestKeygen:
    def test_binding_worked_example(self, binding35):
        ck, xk = binding35
        assert ck.h.value == 15  # p*x = 5*3
        assert ck.mode == BINDING
        assert xk.q == 7

    def test_binding_invariants(self, t35, c35, rng):
        for ctx in (t35, c35):
            for _ in range(20):
                ck, _ = binding_keygen(ctx, rng)
                assert (ck.h ** 7).is_identity()
                assert not ck.h.is_identity()

    def test_hiding_worked_example(self, hiding35):
        ck, tk = hiding35
        assert ck.h.value == 3
        assert ck.mode == HIDING
        assert tk.x == 3

    def test_hiding_full_order(self, t35, c35, rng):
        for ctx in (t35, c35):
            for _ in range(20):
                ck, tk = hiding_keygen(ctx, rng)
                assert not (ck.h ** 7).is_identity()
                assert not (ck.h ** 5).is_identity()
                assert tk.x % 5 != 0  # coprimality resample

    def test_hiding_rejects_shared_factor_x(self, t35):
        with pytest.raises(ValueError):
            hiding_key_from_exponent(t35, 5)

    def test_keygen_needs_factorization(self, rng):
        from paircommit import TransparentContext
        public = TransparentContext(35)
        with pytest.raises(ValueError):
            binding_keygen(public, rng)


class TestFingerprint:
    def test_worked_example(self, binding35):
        ck, _ = binding35
        want = hashlib.sha256(b"binding|transparent|35|G:1|G:15").hexdigest()[:16]
        assert key_fingerprint(ck) == want

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_equal_keys_built_apart(self, backend, t35, c35):
        ctx = t35 if backend == "transparent" else c35
        a, _ = binding_key_from_exponent(ctx, 3)
        b, _ = binding_key_from_exponent(ctx, 3)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert key_fingerprint(a) == key_fingerprint(b)

    def test_replace_recomputes_digest(self, binding35, t35):
        ck, _ = binding35
        other = dataclasses.replace(ck, h=t35.g ** 10)
        assert other != ck
        assert key_fingerprint(other) != key_fingerprint(ck)
        assert key_fingerprint(other) == key_fingerprint(CommitmentKey(t35, t35.g ** 10, BINDING))


class TestCommit:
    def test_worked_examples(self, binding35, hiding35):
        ck_b, _ = binding35
        assert commit(ck_b, 1, 2).c.value == 31  # 1 + 15*2 mod 35
        assert commit(ck_b, 0, 0).c.is_identity()
        ck_h, _ = hiding35
        assert commit(ck_h, 0, 4).c.value == 12  # 3*4

    def test_message_range(self, binding35):
        ck, _ = binding35
        with pytest.raises(ValueError):
            commit(ck, 5, 0)
        with pytest.raises(ValueError):
            commit(ck, -1, 0)

    def test_randomizer_reduced_mod_n(self, binding35):
        ck, _ = binding35
        assert commit(ck, 1, 37) == commit(ck, 1, 2)


class TestExtraction:
    def test_worked_example(self, binding35, t35):
        ck, xk = binding35
        c = commit(ck, 1, 2)
        # oracle: c^7 = g^(31*7 mod 35) = g^7 = (g^7)^1
        assert 31 * 7 % 35 == 7
        assert extract(xk, c, 16) == 1

    def test_identity_extracts_zero(self, binding35):
        ck, xk = binding35
        assert extract(xk, commit(ck, 0, 0)) == 0

    def test_g_squared(self, binding35, t35):
        from paircommit import Commitment, key_fingerprint
        ck, xk = binding35
        c = Commitment(t35.g ** 2, key_fingerprint(ck))
        assert 2 * 7 % 35 == 14 and 14 == (7 * 2) % 35  # c^7 = (g^7)^2
        assert extract(xk, c, 5) == 2

    def test_round_trip_all_messages(self, binding35, rng):
        ck, xk = binding35
        for m in range(5):
            for _ in range(10):
                assert extract(xk, commit(ck, m, rng.randrange(35))) == m

    def test_not_extractable(self, binding35, t35):
        from paircommit import Commitment, key_fingerprint
        ck, xk = binding35
        # g^3 is not of the form (g^7)^m times G_q: 3*7 = 21, and 21 is not
        # a multiple of 7*m mod 35 for m in {0, 1}
        c = Commitment(t35.g ** 3, key_fingerprint(ck))
        with pytest.raises(NotExtractable):
            extract(xk, c, 2)

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_key_needs_h_of_order_q(self, t35, c35, backend):
        ctx = t35 if backend == "transparent" else c35
        for h in (ctx.identity, ctx.g, ctx.g ** 7):
            with pytest.raises(InvalidKey):
                ExtractionKey(CommitmentKey(ctx, h, BINDING), 7)
        assert ExtractionKey(CommitmentKey(ctx, ctx.g ** 5, BINDING), 7)

    def test_hiding_key_rejected(self, hiding35):
        from paircommit import ExtractionKey
        ck, _ = hiding35
        bad = ExtractionKey(ck, 7)
        with pytest.raises(ValueError):
            extract(bad, commit(ck, 0, 1))


class TestTrapdoorOpening:
    def test_worked_example(self, hiding35):
        ck, tk = hiding35
        c = commit(ck, 0, 4)  # g^12
        opened = trapdoor_open(tk, c, Opening(0, 4), 1)
        assert opened == Opening(1, 27)  # 4 - 1*12 mod 35, with 3^-1 = 12
        assert commit(ck, 1, 27) == c

    def test_same_message_is_noop(self, hiding35):
        ck, tk = hiding35
        c = commit(ck, 1, 9)
        assert trapdoor_open(tk, c, Opening(1, 9), 1) == Opening(1, 9)

    def test_involution(self, hiding35, rng):
        ck, tk = hiding35
        for _ in range(50):
            m, r = rng.randrange(5), rng.randrange(35)
            c = commit(ck, m, r)
            m2 = rng.randrange(5)
            there = trapdoor_open(tk, c, Opening(m, r), m2)
            assert commit(ck, there.m, there.r) == c
            back = trapdoor_open(tk, c, there, m)
            assert back == Opening(m, r)

    def test_perfect_hiding_spot_check(self, hiding35):
        ck, tk = hiding35
        c = commit(ck, 0, 11)
        to_zero = trapdoor_open(tk, c, Opening(0, 11), 0)
        to_one = trapdoor_open(tk, c, Opening(0, 11), 1)
        assert commit(ck, 0, to_zero.r) == c
        assert commit(ck, 1, to_one.r) == c

    def test_wrong_opening_rejected(self, hiding35):
        ck, tk = hiding35
        c = commit(ck, 0, 4)
        with pytest.raises(ValueError):
            trapdoor_open(tk, c, Opening(0, 5), 1)

    def test_binding_key_rejected(self, binding35):
        from paircommit import TrapdoorKey
        ck, _ = binding35
        with pytest.raises(ValueError):
            trapdoor_open(TrapdoorKey(ck, 3), commit(ck, 0, 4), Opening(0, 4), 1)


class TestWIProof:
    def test_worked_examples(self, binding35):
        ck, _ = binding35
        assert wi_prove(ck, 1, 2).pi.value == 27  # (g^31)^2 = g^62 = g^27
        assert wi_prove(ck, 0, 2).pi.value == 23  # (g^29)^2 = g^58 = g^23
        assert wi_prove(ck, 0, 0).pi.is_identity()

    def test_non_bit_rejected(self, binding35):
        ck, _ = binding35
        with pytest.raises(ValueError):
            wi_prove(ck, 2, 3)


class TestVerify:
    def test_worked_accept(self, binding35):
        ck, _ = binding35
        c = commit(ck, 1, 2)
        pi = wi_prove(ck, 1, 2)
        # exponent oracle: 31*30 = 930 = 20 and 15*27 = 405 = 20 (mod 35)
        assert 31 * 30 % 35 == 20 and 15 * 27 % 35 == 20
        assert verify(ck, c, pi)

    def test_honest_one_with_zero_randomizer(self, binding35, t35):
        from paircommit import Commitment, WIProof, key_fingerprint
        ck, _ = binding35
        fp = key_fingerprint(ck)
        assert verify(ck, Commitment(t35.g, fp), WIProof(t35.identity, fp))

    def test_worked_reject(self, binding35, t35):
        from paircommit import Commitment, WIProof, key_fingerprint
        ck, _ = binding35
        fp = key_fingerprint(ck)
        assert 15 * 26 % 35 == 5  # != 20
        assert not verify(ck, Commitment(t35.g ** 31, fp), WIProof(t35.g ** 26, fp))

    @pytest.mark.parametrize("mode", [BINDING, HIDING])
    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_completeness(self, mode, backend, t35, c35, rng):
        """Honest bit commitments always verify, all modes, both backends."""
        ctx = t35 if backend == "transparent" else c35
        keygen = binding_keygen if mode == BINDING else hiding_keygen
        ck = keygen(ctx, rng)[0]
        for _ in range(100):
            m, r = rng.randrange(2), rng.randrange(35)
            assert verify(ck, commit(ck, m, r), wi_prove(ck, m, r))

    def test_cross_key_rejected(self, binding35, hiding35):
        ck_b, _ = binding35
        ck_h, _ = hiding35
        c = commit(ck_b, 1, 2)
        pi = wi_prove(ck_h, 1, 2)
        with pytest.raises(KeyMismatch):
            verify(ck_b, c, pi)


class TestCorrectnessIdentity:
    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_identity_for_all_messages(self, backend, t35, c35, rng):
        """e(c, c*g^-1) = e(g,g)^(m(m-1)) * e(h, pi) for every m, not only bits."""
        ctx = t35 if backend == "transparent" else c35
        ck, _ = binding_keygen(ctx, rng)
        for _ in range(60):
            m, r = rng.randrange(5), rng.randrange(35)
            c = commit(ck, m, r)
            pi = _wi_prove_any_message(ck, m, r)
            lhs = pair(c.c, c.c * ctx.g.inverse())
            rhs = ctx.gt ** (m * (m - 1)) * pair(ck.h, pi.pi)
            assert lhs == rhs
            assert verify(ck, c, pi) == (m * (m - 1) % 35 == 0)


class TestHomomorphicCombine:
    def test_opens_to_sum(self, binding35):
        ck, _ = binding35
        combined = homomorphic_combine(commit(ck, 1, 2), commit(ck, 2, 3))
        assert combined == commit(ck, 3, 5)

    def test_identity_element(self, binding35):
        ck, _ = binding35
        c = commit(ck, 1, 2)
        assert homomorphic_combine(c, commit(ck, 0, 0)) == c

    def test_worked_example(self, binding35, t35):
        ck, _ = binding35
        combined = homomorphic_combine(commit(ck, 1, 2), commit(ck, 0, 4))
        assert combined.c == t35.g ** 21  # g^31 * g^25
        assert combined == commit(ck, 1, 6)

    def test_cross_key_rejected(self, binding35, hiding35):
        ck_b, _ = binding35
        ck_h, _ = hiding35
        with pytest.raises(KeyMismatch):
            homomorphic_combine(commit(ck_b, 1, 2), commit(ck_h, 1, 2))

    def test_curve_backend(self, c35, rng):
        ck, _ = binding_key_from_exponent(c35, 3)
        assert homomorphic_combine(commit(ck, 1, 2), commit(ck, 0, 4)) == commit(ck, 1, 6)
        for _ in range(20):
            m1, r1 = rng.randrange(2), rng.randrange(35)
            m2, r2 = rng.randrange(2), rng.randrange(35)
            combined = homomorphic_combine(commit(ck, m1, r1), commit(ck, m2, r2))
            assert combined == commit(ck, m1 + m2, r1 + r2)


class TestBindingExhaustive:
    def test_no_double_openings_at_n15(self):
        """Full enumeration at n=15: no element opens to two distinct m < p."""
        ctx = setup_transparent(3, 5)
        for x in range(1, 5):
            ck, _ = binding_key_from_exponent(ctx, x)
            seen = {}
            for m in range(3):
                for r in range(15):
                    c = commit(ck, m, r).c.value
                    seen.setdefault(c, set()).add(m)
            assert all(len(ms) == 1 for ms in seen.values())


class TestSubgroupStructure:
    def test_binding_h_spans_gq(self, binding35):
        ck, _ = binding35
        assert is_in_subgroup_q(ck.h, 7)
