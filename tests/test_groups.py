"""Group backends: construction, operations, pairing laws, serialization."""

import random

import pytest

from paircommit import (
    ContextMismatch,
    MalformedText,
    OffCurvePoint,
    WrongOrderElement,
    audit,
    binding_key_from_exponent,
    commit,
    element_from_text,
    gt_element_from_text,
    is_in_subgroup_q,
    pair,
    setup_curve,
    setup_transparent,
    wi_prove,
)
from paircommit import groups
from paircommit.curve import ec_mul, is_on_curve, random_point


class TestTransparentSetup:
    def test_basic(self, t35):
        assert t35.n == 35
        assert t35.g.value == 1

    def test_order_fifteen(self, t15):
        assert t15.n == 15

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            setup_transparent(7, 5)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            setup_transparent(4, 7)
        with pytest.raises(ValueError):
            setup_transparent(5, 9)

    def test_even_small_pair_allowed(self):
        assert setup_transparent(2, 3).n == 6


class TestCurveSetup:
    def test_worked_cofactor_search(self, c35):
        # trial division oracle: 2*35-1 = 69 = 3*23 composite,
        # 4*35-1 = 139 prime and 139 = 3 (mod 4)
        assert any(69 % d == 0 for d in range(2, 69))
        assert all(139 % d for d in range(2, 139))
        assert 139 % 4 == 3
        assert c35.field_prime == 139
        assert c35.cofactor == 4

    def test_generator_has_exact_order(self, c35):
        assert (c35.g ** 35).is_identity()
        assert not (c35.g ** 7).is_identity()
        assert not (c35.g ** 5).is_identity()

    def test_even_order_rejected(self, rng):
        with pytest.raises(ValueError):
            setup_curve(2, 3, rng)

    def test_ordering_enforced(self, rng):
        with pytest.raises(ValueError):
            setup_curve(7, 5, rng)

    def test_cofactor_bound_exhaustion(self, rng):
        with pytest.raises(ValueError):
            setup_curve(5, 7, rng, cofactor_bound=2)


class TestOperations:
    def test_pow_zero_is_identity(self, t35):
        assert (t35.g ** 0).is_identity()

    def test_mul_wraps_mod_n(self, t35):
        assert t35.g ** 31 * t35.g ** 30 == t35.g ** 26

    def test_curve_pow_order_is_identity(self, c35):
        assert (c35.g ** 35).is_identity()

    def test_pow_reduces_exponent_first(self, t35, c35):
        for ctx in (t35, c35):
            assert ctx.g ** 36 == ctx.g
            assert ctx.g ** (-1) == ctx.g.inverse()

    def test_inverse(self, c35):
        el = c35.g ** 12
        assert (el * el.inverse()).is_identity()

    def test_cross_context_mul_rejected(self, t35, t15):
        with pytest.raises(ContextMismatch):
            t35.g * t15.g

    def test_cross_context_gt_mul_rejected(self, t35, t15, c35):
        for other in (t15, c35):
            with pytest.raises(ContextMismatch):
                t35.gt * other.gt

    def test_cross_context_pair_rejected(self, t35, c35):
        with pytest.raises(ContextMismatch):
            pair(t35.g, c35.g)

    def test_every_power_calls_g_pow(self, t35, monkeypatch):
        """The benchmark counts powers as calls of groups.g_pow; a ** e that
        skipped it would read 0 there and fail nothing else."""
        real, calls = groups.g_pow, []

        def counting(a, e):
            calls.append(e)
            return real(a, e)

        monkeypatch.setattr(groups, "g_pow", counting)
        ck, _ = binding_key_from_exponent(t35, 3)
        c = commit(ck, 1, 2)
        for op, count in ((lambda: commit(ck, 1, 2), 2), (lambda: wi_prove(ck, 1, 2), 2),
                          (lambda: audit(7, ck, c), 2), (lambda: t35.g ** 5, 1)):
            calls.clear()
            op()
            assert len(calls) == count


class TestPairing:
    def test_transparent_bilinearity_example(self, t35):
        assert pair(t35.g ** 2, t35.g ** 3) == t35.gt ** 6

    def test_identity_input(self, t35, c35):
        for ctx in (t35, c35):
            assert pair(ctx.identity, ctx.g ** 3).is_identity()
            assert pair(ctx.g ** 3, ctx.identity).is_identity()

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_bilinearity_random(self, backend, t35, c35, rng):
        ctx = t35 if backend == "transparent" else c35
        for _ in range(100):
            s, t = rng.randrange(35), rng.randrange(35)
            a, b = rng.randrange(35), rng.randrange(35)
            lhs = pair(ctx.g ** (a * s), ctx.g ** (b * t))
            rhs = pair(ctx.g ** a, ctx.g ** b) ** (s * t)
            assert lhs == rhs

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_symmetry(self, backend, t35, c35, rng):
        ctx = t35 if backend == "transparent" else c35
        for _ in range(50):
            a = ctx.g ** rng.randrange(35)
            b = ctx.g ** rng.randrange(35)
            assert pair(a, b) == pair(b, a)

    def test_nondegeneracy(self, t35, c35):
        for ctx in (t35, c35):
            assert not (ctx.gt ** 5).is_identity()
            assert not (ctx.gt ** 7).is_identity()
            assert (ctx.gt ** 35).is_identity()

    def test_curve_bilinearity_exhaustive_n15(self, c15):
        """All 225 exponent pairs at n=15.

        Deliberately covers first arguments of order 1, 3, 5, and 15; the
        binary prefix 0b11 of 15 is divisible by 3, so order-3 inputs walk
        the Miller loop through the point at infinity mid-run.
        """
        for s in range(15):
            for t in range(15):
                assert pair(c15.g ** s, c15.g ** t) == c15.gt ** (s * t)

    def test_backend_agreement_on_exponents(self, t35, c35, rng):
        """The same exponent-level pairing comparisons settle identically."""
        for _ in range(50):
            a, b, c, d = (rng.randrange(35) for _ in range(4))
            expected = (a * b - c * d) % 35 == 0
            for ctx in (t35, c35):
                got = pair(ctx.g ** a, ctx.g ** b) == pair(ctx.g ** c, ctx.g ** d)
                assert got == expected


class TestSubgroupMembership:
    def test_worked_examples(self, t35):
        assert not is_in_subgroup_q(t35.g ** 7, 7)  # 7*7 = 14 mod 35
        assert is_in_subgroup_q(t35.g ** 5, 7)      # 5*7 = 0 mod 35
        assert is_in_subgroup_q(t35.identity, 7)

    def test_census_of_order_q_subgroup(self, t35):
        members = {e for e in range(35) if is_in_subgroup_q(t35.g ** e, 7)}
        assert members == {0, 5, 10, 15, 20, 25, 30}

    def test_curve_agrees_with_transparent(self, t35, c35):
        for e in range(35):
            assert (is_in_subgroup_q(c35.g ** e, 7)
                    == is_in_subgroup_q(t35.g ** e, 7))

    def test_non_divisor_rejected(self, t35):
        with pytest.raises(ValueError):
            is_in_subgroup_q(t35.g, 4)


class TestSerialization:
    def test_transparent_roundtrip(self, t35):
        el = t35.g ** 15
        assert el.to_text() == "G:15"
        assert element_from_text("G:15", t35) == el

    def test_curve_roundtrip(self, c35, rng):
        for _ in range(20):
            el = c35.g ** rng.randrange(35)
            assert element_from_text(el.to_text(), c35) == el
        assert element_from_text("G:inf", c35).is_identity()

    def test_gt_roundtrip(self, t35, c35, rng):
        for ctx in (t35, c35):
            el = ctx.gt ** rng.randrange(1, 35)
            assert gt_element_from_text(el.to_text(), ctx) == el

    def test_malformed_text(self, t35, c35):
        for ctx, bad in [(t35, "G:x"), (t35, "H:3"), (t35, "G:99"),
                         (c35, "G:1"), (c35, "G:1,2,3"), (c35, "G:5,abc")]:
            with pytest.raises(MalformedText):
                element_from_text(bad, ctx)

    def test_off_curve_point(self, c35):
        # (1, 1): 1 != 1^3 + 1 = 2 mod 139
        assert not is_on_curve(139, (1, 1))
        with pytest.raises(OffCurvePoint):
            element_from_text("G:1,1", c35)

    def test_wrong_order_point(self, c35):
        # omit cofactor clearing: find a point whose order does not divide 35
        pt_rng = random.Random(3)
        while True:
            raw = random_point(139, pt_rng)
            if ec_mul(139, raw, 35) is not None:
                break
        text = f"G:{raw[0]},{raw[1]}"
        with pytest.raises(WrongOrderElement):
            element_from_text(text, c35)

    def test_wrong_order_gt(self, c35):
        # a random field element is almost never in the order-35 subgroup
        from paircommit.curve import f2_pow
        val = (2, 3)
        assert f2_pow(139, val, 35) != (1, 0)
        with pytest.raises(WrongOrderElement):
            gt_element_from_text("GT:2,3", c35)
