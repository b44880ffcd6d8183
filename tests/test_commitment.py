"""Commitment scheme: worked traces, completeness, extraction, trapdoor, binding."""

import hashlib
import pickle
import random
import sys

import pytest

from paircommit import (
    BINDING,
    Commitment,
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
    setup_curve,
    setup_transparent,
    trapdoor_open,
    verify,
    wi_prove,
)
from paircommit import commitment, fileio, forgery
from paircommit.selftest import (
    binding,
    correctness_identity,
    equivocation,
    extraction,
)


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

    @pytest.mark.parametrize("keygen", [binding_key_from_exponent, hiding_key_from_exponent],
                             ids=["binding", "hiding"])
    def test_pinned_x_outside_1_to_q(self, t35, keygen):
        with pytest.raises(ValueError, match=r"x must lie in \[1, 7\), got 8"):
            keygen(t35, 8)

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

    @pytest.mark.parametrize("backend, source", [
        ("transparent", "built"), ("curve", "built"),
        ("transparent", "loaded"), ("curve", "loaded"),
    ], ids=["transparent", "curve", "transparent-loaded", "curve-loaded"])
    def test_equal_keys_built_apart(self, backend, source, t35, c35, tmp_path):
        """A key loaded twice from one file used to be unequal to itself, and
        to the key it was saved from: their contexts compared by identity."""
        ctx = t35 if backend == "transparent" else c35
        a, _ = binding_key_from_exponent(ctx, 3)
        if source == "built":
            b, _ = binding_key_from_exponent(ctx, 3)
        else:
            path = tmp_path / "ck.txt"
            fileio.save_commitment_key(path, a)
            saved = a
            a, b = fileio.load_commitment_key(path), fileio.load_commitment_key(path)
            assert a == saved and hash(a) == hash(saved)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert key_fingerprint(a) == key_fingerprint(b)

    def test_replace_recomputes_digest(self, binding35, t35):
        """A key built with another h has that h's digest, fixed at
        construction."""
        ck, _ = binding35
        other = CommitmentKey(ck.context, t35.g ** 10, ck.mode)
        assert other != ck
        assert key_fingerprint(other) != key_fingerprint(ck)
        want = hashlib.sha256(b"binding|transparent|35|G:1|G:10").hexdigest()[:16]
        assert key_fingerprint(other) == want

    def test_fields_cannot_be_deleted(self, binding35):
        """A key's slots would let del empty a field under a fixed digest."""
        ck, _ = binding35
        h, fp = ck.h, key_fingerprint(ck)
        for name in ("h", "_digest"):
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(ck, name)
        assert ck.h is h and key_fingerprint(ck) == fp


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

    def test_round_trip_all_messages(self, t35, rng):
        extraction(t35, rng, 10)

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


def scan_extract(xk, c, bound):
    """The test oracle for extract: scan m upward from 0 until (g^q)^m
    matches c^q, in payload space; None when no m < bound fits."""
    ctx = xk.ck.context
    target = (c.c ** xk.q).value
    step = (ctx.g ** xk.q).value
    acc = ctx._el_identity
    for m in range(bound):
        if acc == target:
            return m
        acc = ctx._el_mul(acc, step)
    return None


def _bounds(p):
    return sorted({0, 1, 2, 3, 4, 15, 16, 17, p - 1, p, p + 1, 255, 256, 257, 2 ** 16})


def _wide(backend):
    """A context at (257, 263): p straddles the key's 256 baby steps."""
    if backend == "transparent":
        return setup_transparent(257, 263)
    return setup_curve(257, 263, random.Random(7))


class TestExtractionOracle:
    """Baby-step giant-step against the scan it replaced."""

    @pytest.mark.parametrize("wide", [False, True], ids=["p5", "p257"])
    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_matches_scan(self, backend, wide, t35, c35):
        ctx = _wide(backend) if wide else (t35 if backend == "transparent" else c35)
        ck, xk = binding_key_from_exponent(ctx, 3)
        fp, p = key_fingerprint(ck), ctx.p
        for bound in _bounds(p):
            # m >= p is no message; such a c is built directly
            for m in {bound - 1, bound, bound + 1} - {-1}:
                c = Commitment(ctx.g ** m * ck.h ** 5, fp)
                want = scan_extract(xk, c, bound)
                # the discrete log is unique mod p: the smallest m is m mod p
                assert want == (m % p if m % p < bound else None)
                if want is None:
                    with pytest.raises(NotExtractable):
                        extract(xk, c, bound)
                else:
                    assert extract(xk, c, bound) == want

    def test_outside_subgroup_never_extracts(self, c35):
        """(0, 0) is a curve point of order 2, outside the order-n group, so
        c^q is no power of g^q; every element of G has an m mod p."""
        ck, xk = binding_key_from_exponent(c35, 3)
        c = Commitment(c35.element((0, 0)), key_fingerprint(ck))
        for bound in _bounds(c35.p):
            assert scan_extract(xk, c, bound) is None
            with pytest.raises(NotExtractable):
                extract(xk, c, bound)

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_table_built_once(self, backend, monkeypatch):
        """The first extract under a key builds its 256 baby steps; a later
        one makes only its giant steps, at most ceil(bound/256) + 2 calls."""
        ctx = _wide(backend)
        ck, xk = binding_key_from_exponent(ctx, 3)
        assert xk._steps is None  # building a key builds no table
        c5, c256 = commit(ck, 5, 9), commit(ck, 256, 9)
        calls = []
        el_mul = ctx._el_mul

        def counted(a, b):
            calls.append(1)
            return el_mul(a, b)

        monkeypatch.setattr(ctx, "_el_mul", counted)

        def count(c, bound=2 ** 16):
            del calls[:]
            try:
                return extract(xk, c, bound), len(calls)
            except NotExtractable:
                return None, len(calls)

        assert count(c256) == (256, 256 + 1)  # the table, then one giant step
        steps = xk._steps
        assert count(c5) == (5, 0)
        assert count(c256) == (256, 1)
        assert count(c256, 256) == (None, 1)
        assert xk._steps is steps
        if backend == "curve":
            outside = Commitment(ctx.element((0, 0)), key_fingerprint(ck))
            assert count(outside) == (None, 2 ** 16 // 256)

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_fresh_key_matches_scan(self, backend):
        """A fresh key's table is made while extract looks for the target;
        it still answers the least m, for every m below a bound past two
        widths, and for a bound at, below and above that m."""
        ctx = _wide(backend)
        ck, _ = binding_key_from_exponent(ctx, 3)
        fp, bound = key_fingerprint(ck), 2 * 256 + 3
        for m in range(bound):
            c = Commitment(ctx.g ** m * ck.h ** 5, fp)
            want = scan_extract(ExtractionKey(ck, ctx.q), c, bound)
            assert want == m % ctx.p
            for b in (bound, m + 1, m, 1):
                xk = ExtractionKey(ck, ctx.q)
                try:
                    got = extract(xk, c, b)
                except NotExtractable:
                    got = None
                assert got == (want if want < b else None), (m, b)

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_part_made_table_matches_scan(self, backend):
        """Targets and bounds in a random order leave the table part made
        at every length; each extract still answers as the scan does."""
        ctx = _wide(backend)
        ck, xk = binding_key_from_exponent(ctx, 3)
        fp, rng = key_fingerprint(ck), random.Random(5)
        for _ in range(300):
            m = rng.randrange(2 * ctx.p)
            bound = rng.choice([0, 1, 2, m, m + 1, rng.randrange(600), 256, 257, 2 ** 16])
            c = Commitment(ctx.g ** m * ck.h ** rng.randrange(ctx.n), fp)
            want = scan_extract(xk, c, bound)
            try:
                got = extract(xk, c, bound)
            except NotExtractable:
                got = None
            assert got == want, (m, bound)

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_fresh_key_stops_at_the_target(self, backend, monkeypatch):
        """A fresh key's first extract of m < 256 makes m + 1 baby steps, not
        256; a bound b stops it after b."""
        ctx = _wide(backend)
        ck, _ = binding_key_from_exponent(ctx, 3)
        coms = {m: commit(ck, m, 9) for m in (0, 1, 7, 200)}
        keys = [ExtractionKey(ck, ctx.q) for _ in range(5)]
        calls = []
        el_mul = ctx._el_mul

        def counted(a, b):
            calls.append(1)
            return el_mul(a, b)

        monkeypatch.setattr(ctx, "_el_mul", counted)
        for xk, m in zip(keys, coms):
            assert extract(xk, coms[m]) == m
            assert len(calls) == m + 1
            del calls[:]
        with pytest.raises(NotExtractable):
            extract(keys[-1], coms[200], 3)
        assert len(calls) == 3

    def test_table_left_out_of_equality(self, t35):
        _, xk = binding_key_from_exponent(t35, 3)
        _, twin = binding_key_from_exponent(t35, 3)
        assert extract(xk, commit(xk.ck, 1, 2)) == 1
        assert xk._steps is not None and twin._steps is None
        assert xk == twin and hash(xk) == hash(twin) and repr(xk) == repr(twin)


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

    def test_involution(self, t35, rng):
        equivocation(t35, rng, 50)

    def test_perfect_hiding_spot_check(self, hiding35):
        ck, tk = hiding35
        c = commit(ck, 0, 11)
        to_zero = trapdoor_open(tk, c, Opening(0, 11), 0)
        to_one = trapdoor_open(tk, c, Opening(0, 11), 1)
        assert commit(ck, 0, to_zero.r) == c
        assert commit(ck, 1, to_one.r) == c

    def test_message_out_of_range_rejected(self, hiding35):
        ck, tk = hiding35
        with pytest.raises(ValueError, match=r"message 5 out of range \[0, 5\)"):
            trapdoor_open(tk, commit(ck, 1, 3), Opening(1, 3), 5)

    def test_wrong_opening_rejected(self, hiding35):
        ck, tk = hiding35
        c = commit(ck, 0, 4)
        with pytest.raises(ValueError):
            trapdoor_open(tk, c, Opening(0, 5), 1)

    @pytest.mark.parametrize("ctx_name", ["t35", "c35"])
    def test_wrong_inverse_is_caught_by_the_recommit(self, request, monkeypatch, ctx_name):
        from paircommit import arith, commitment
        ck, tk = hiding_key_from_exponent(request.getfixturevalue(ctx_name), 3)
        c = commit(ck, 0, 4)
        monkeypatch.setattr(commitment, "mod_inverse", lambda a, n: arith.mod_inverse(a, n) + 1)
        with pytest.raises(ValueError, match="does not open the commitment"):
            trapdoor_open(tk, c, Opening(0, 4), 1)

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
        ck = (binding_keygen if mode == BINDING else hiding_keygen)(ctx, rng)[0]
        for _ in range(100):
            m, r = rng.randrange(2), rng.randrange(ctx.n)
            assert verify(ck, commit(ck, m, r), wi_prove(ck, m, r))

    def test_cross_key_rejected(self, binding35, hiding35):
        ck_b, _ = binding35
        ck_h, _ = hiding35
        c = commit(ck_b, 1, 2)
        pi = wi_prove(ck_h, 1, 2)
        with pytest.raises(KeyMismatch):
            verify(ck_b, c, pi)

    def test_commitment_under_another_key_rejected(self, binding35, hiding35):
        ck_b, _ = binding35
        ck_h, _ = hiding35
        c = commit(ck_h, 1, 2)
        pi = wi_prove(ck_b, 1, 2)
        with pytest.raises(KeyMismatch, match="commitment was made under a different key"):
            verify(ck_b, c, pi)


class TestCorrectnessIdentity:
    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_identity_for_all_messages(self, backend, t35, c35, rng):
        """e(c, c*g^-1) = e(g,g)^(m(m-1)) * e(h, pi) for every m, not only bits."""
        correctness_identity(t35 if backend == "transparent" else c35, rng, 60)


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
    def test_no_double_openings_at_n15(self, t15, rng):
        """Full enumeration at n=15: no element opens to two distinct m < p."""
        binding(t15, rng, 1)


class TestSubgroupStructure:
    def test_binding_h_spans_gq(self, binding35):
        ck, _ = binding35
        assert is_in_subgroup_q(ck.h, 7)


@pytest.mark.parametrize("name", ["Commitment", "WIProof", "Opening", "TrapdoorKey", "Verdict",
                                  "ForgeryRecord", "ClaimReport", "CensusRow", "CensusResult"])
def test_record_type_is_found_in_its_module(name):
    """pickle finds a type by its module and name, so each record type names
    the module that defines it, not the one whose factory made it."""
    cls = getattr(commitment, name, None) or getattr(forgery, name)
    assert getattr(sys.modules[cls.__module__], name) is cls
    value = cls._make(range(len(cls._fields)))
    assert pickle.loads(pickle.dumps(value)) == value
