"""Integer primitive tests: worked values plus property checks."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paircommit import NotInvertible, ext_gcd, gen_prime, is_probable_prime, mod_inverse


class TestExtGcd:
    def test_worked_example(self):
        # 3*7 - 4*5 = 1, verified by direct multiplication
        g, s, t = ext_gcd(7, 5)
        assert (g, s, t) == (1, 3, -4)
        assert s * 7 + t * 5 == 1

    def test_zero_second_argument(self):
        assert ext_gcd(9, 0) == (9, 1, 0)

    def test_common_factor(self):
        g, s, t = ext_gcd(21, 14)
        assert g == 7
        assert s * 21 + t * 14 == 7

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            ext_gcd(0, 0)

    @given(st.integers(-(2 ** 64), 2 ** 64), st.integers(-(2 ** 64), 2 ** 64))
    def test_bezout_identity(self, a, b):
        if a == 0 and b == 0:
            return
        g, s, t = ext_gcd(a, b)
        assert s * a + t * b == g
        assert g >= 0
        assert (a == 0 or a % g == 0) and (b == 0 or b % g == 0)


class TestModInverse:
    def test_worked_example(self):
        assert mod_inverse(6, 35) == 6  # 36 = 1 mod 35

    def test_one(self):
        assert mod_inverse(1, 35) == 1

    def test_shared_factor_carries_gcd(self):
        with pytest.raises(NotInvertible) as info:
            mod_inverse(5, 35)
        assert info.value.gcd == 5

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            mod_inverse(3, 1)

    @given(st.integers(2, 2 ** 48), st.integers(1, 2 ** 48))
    def test_inverse_roundtrip(self, n, a):
        a %= n
        if a == 0 or ext_gcd(a, n).g != 1:
            return
        inv = mod_inverse(a, n)
        assert 1 <= inv < n
        assert inv * a % n == 1


class TestGenPrime:
    def test_three_bit_primes(self, rng):
        seen = {gen_prime(3, rng) for _ in range(40)}
        assert seen <= {5, 7}

    def test_sixteen_bit_prime_by_trial_division(self, rng):
        p = gen_prime(16, rng)
        assert p.bit_length() == 16
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))

    def test_one_bit_rejected(self, rng):
        with pytest.raises(ValueError):
            gen_prime(1, rng)

    def test_probable_prime_agrees_with_trial_division(self, rng):
        for n in range(2, 2000):
            by_trial = all(n % d for d in range(2, int(n ** 0.5) + 1))
            assert is_probable_prime(n, rng=rng, rounds=5) == by_trial

    @pytest.mark.parametrize("seeded", [False, True])
    def test_agrees_with_trial_division_below_20000(self, seeded):
        rng = random.Random(5) if seeded else None
        for n in range(20000):
            by_trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert is_probable_prime(n, rng=rng) == by_trial, n

    def test_small_prime_still_draws_its_witnesses(self):
        """Below 47^2 the answer needs no witness, but the rng must move as
        if `rounds` witnesses were drawn: the draws fix seeded output."""
        rng, expected = random.Random(9), random.Random(9)
        assert is_probable_prime(2203, rng=rng, rounds=7)
        for _ in range(7):
            expected.randrange(2, 2202)
        assert rng.getstate() == expected.getstate()
