"""Group backends: construction, operations, pairing laws, serialization."""

import random

import pytest

from paircommit import (
    ContextMismatch,
    CurveContext,
    MalformedText,
    OffCurvePoint,
    TransparentContext,
    WrongOrderElement,
    audit,
    binding_key_from_exponent,
    commit,
    element_from_text,
    is_in_subgroup_q,
    pair,
    setup_curve,
    setup_transparent,
    wi_prove,
)
from paircommit import curve, groups
from paircommit.curve import ec_mul, is_on_curve, random_point
from paircommit.selftest import gq_membership, nondegeneracy, pairing_laws


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

    def test_cofactor_bound_exhaustion(self, rng, monkeypatch):
        monkeypatch.setattr(curve, "COFACTOR_BOUND", 2)
        with pytest.raises(ValueError, match="no suitable field prime with cofactor <= 2 "):
            setup_curve(5, 7, rng)


class TestConstructorChecks:
    """Each check of a context's constructor and of setup_curve refuses an
    input that no check before or after it would."""

    def test_order_below_two(self):
        with pytest.raises(ValueError, match="group order must exceed 1"):
            TransparentContext(1)

    def test_one_prime_without_the_other(self):
        with pytest.raises(ValueError, match="give both primes or neither"):
            TransparentContext(35, 5, None)

    def test_primes_whose_product_is_not_n(self):
        with pytest.raises(ValueError, match=r"n=35 is not 3\*7"):
            TransparentContext(35, 3, 7)

    def test_field_prime_not_3_mod_4(self):
        fp = 349  # prime, 10*35 - 1 and 1 mod 4
        g = next((x, y) for x in range(1, fp) for y in range(1, fp)
                 if (y * y - x ** 3 - x) % fp == 0)
        with pytest.raises(ValueError, match="is not 3 mod 4"):
            CurveContext(35, fp, 10, g)

    def test_generator_at_infinity(self, c35):
        with pytest.raises(ValueError, match="must not be the point at infinity"):
            CurveContext(c35.n, c35.field_prime, c35.cofactor, None)

    def test_generator_outside_the_order_n_subgroup(self, c35):
        fp, rng = c35.field_prime, random.Random(1)
        g = random_point(fp, rng)
        while curve.mul_is_infinity(fp, g, c35.n):
            g = random_point(fp, rng)
        with pytest.raises(WrongOrderElement, match="generator order does not divide"):
            CurveContext(c35.n, fp, c35.cofactor, g)

    @pytest.mark.parametrize("p, q", [(9, 11), (5, 9)], ids=["p", "q"])
    def test_composite_refused_before_the_field_search(self, p, q, monkeypatch):
        def searched(*args):
            raise AssertionError("the cofactor search ran")

        monkeypatch.setattr(curve, "find_curve_field", searched)
        with pytest.raises(ValueError, match="=9 is not prime"):
            setup_curve(p, q, random.Random(1))


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

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_g_and_gt_do_not_mix(self, backend, t35, c35):
        """G and G_T elements of one context used to combine silently: on the
        transparent backend t35.g * t35.gt was G:2."""
        ctx = t35 if backend == "transparent" else c35
        g, gt = ctx.g, ctx.gt
        for op in (lambda: g * gt, lambda: gt * g, lambda: pair(g, gt),
                   lambda: pair(gt, g), lambda: pair(gt, gt)):
            with pytest.raises(TypeError):
                op()

    def test_g_never_equals_gt(self, t35):
        """t35's g and gt both hold the payload 1, in one context."""
        g, gt = t35.g, t35.gt
        assert g.value == gt.value
        assert not g == gt and not gt == g and g != gt

    def test_cross_context_pair_rejected(self, t35, c35):
        with pytest.raises(ContextMismatch):
            pair(t35.g, c35.g)

    def test_every_power_calls_g_pow(self, t35, monkeypatch):
        """The benchmark counts powers as calls of groups.g_pow; a ** e that
        skipped it would read 0 there and fail nothing else. audit takes
        its probes on payloads, as the census does, so it raises no element."""
        real, calls = groups.g_pow, []

        def counting(a, e):
            calls.append(e)
            return real(a, e)

        monkeypatch.setattr(groups, "g_pow", counting)
        ck, _ = binding_key_from_exponent(t35, 3)
        c = commit(ck, 1, 2)
        for op, count in ((lambda: commit(ck, 1, 2), 2), (lambda: wi_prove(ck, 1, 2), 2),
                          (lambda: audit(7, ck, c), 0), (lambda: t35.g ** 5, 1)):
            calls.clear()
            op()
            assert len(calls) == count


class TestContextEquality:
    def test_equal_iff_same_group(self, t35, t15, c35, c15):
        twins = [(t35, setup_transparent(5, 7)), (t35, groups.TransparentContext(35)),
                 (c35, groups.CurveContext(35, 139, 4, c35.g.value))]
        for a, b in twins:
            assert a is not b
            assert a == b and hash(a) == hash(b)
        other_g = groups.CurveContext(35, 139, 4, (c35.g ** 2).value)
        for a, b in [(t35, t15), (t35, c35), (c35, c15), (c35, other_g)]:
            assert a != b and b != a


class TestPairing:
    def test_transparent_bilinearity_example(self, t35):
        assert pair(t35.g ** 2, t35.g ** 3) == t35.gt ** 6

    def test_identity_input(self, t35, c35):
        for ctx in (t35, c35):
            assert pair(ctx.g ** 0, ctx.g ** 3).is_identity()
            assert pair(ctx.g ** 3, ctx.g ** 0).is_identity()

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_bilinearity_random(self, backend, t35, c35, rng):
        pairing_laws(t35 if backend == "transparent" else c35, rng, 100)

    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_symmetry(self, backend, t35, c35, rng):
        pairing_laws(t35 if backend == "transparent" else c35, rng, 50)

    def test_nondegeneracy(self, t35, c35, rng):
        for ctx in (t35, c35):
            nondegeneracy(ctx, rng, 1)

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
        """Pairing comparisons settle as the exponents say, on both backends."""
        for ctx in (t35, c35):
            pairing_laws(ctx, rng, 50)


class TestSubgroupMembership:
    def test_worked_examples(self, t35):
        assert not is_in_subgroup_q(t35.g ** 7, 7)  # 7*7 = 14 mod 35
        assert is_in_subgroup_q(t35.g ** 5, 7)      # 5*7 = 0 mod 35
        assert is_in_subgroup_q(t35.g ** 0, 7)

    def test_census_of_order_q_subgroup(self, t35, rng):
        gq_membership(t35, rng, 1)  # {0, 5, 10, 15, 20, 25, 30}

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

    def test_gt_to_text(self, t35, c35):
        assert (t35.gt ** 3).to_text() == "GT:3"
        a, b = c35.gt.value
        assert c35.gt.to_text() == f"GT:{a},{b}"

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
