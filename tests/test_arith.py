"""Integer primitive tests: worked values plus property checks."""

import math
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircommit import NotInvertible, arith, ext_gcd, gen_prime, is_probable_prime, mod_inverse
from paircommit.arith import RNG_WITNESSES, _MR_BASES, _PSI, _strong_lucas


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
            assert is_probable_prime(n, rng=rng) == by_trial

    @pytest.mark.parametrize("seeded", [False, True])
    def test_agrees_with_trial_division_below_20000(self, seeded):
        rng = random.Random(5) if seeded else None
        for n in range(20000):
            by_trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert is_probable_prime(n, rng=rng) == by_trial, n

    def test_small_prime_still_draws_its_witnesses(self):
        """Below 47^2 the answer needs no witness, but the rng must move as
        if RNG_WITNESSES witnesses were drawn: the draws fix seeded output."""
        rng, expected = random.Random(9), random.Random(9)
        assert is_probable_prime(2203, rng=rng)
        for _ in range(RNG_WITNESSES):
            expected.randrange(2, 2202)
        assert rng.getstate() == expected.getstate()

    def test_strong_pseudoprime_to_the_first_12_primes_is_composite(self):
        """psi_12 = 399165290221 * 798330580441 passes the witnesses 2..37;
        41 rejects it, with and without random witnesses."""
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not is_probable_prime(psi12)
        assert not is_probable_prime(psi12, rng=random.Random(1))


PSI13 = 3317044064679887385961981


def _primes(max_bits):
    return st.builds(gen_prime, st.integers(2, max_bits),
                     st.builds(random.Random, st.integers(0, 2 ** 32)))


class TestWitnessRule:
    """The 13 fixed witnesses decide below psi_13; an rng's witnesses are
    tested only from psi_13 up, but drawn wherever the fixed ones pass."""

    def test_psi13_is_refused_by_the_random_witnesses_alone(self):
        """psi_13 is a strong pseudoprime to the bases 2..41; from psi_13 up
        the strong Lucas test refuses it, with an rng or without."""
        assert PSI13 == 1287836182261 * 2575672364521
        assert not is_probable_prime(PSI13)
        assert not is_probable_prime(PSI13, rng=random.Random(0))

    def test_strong_lucas_errs_only_on_its_pseudoprimes(self):
        """With Selfridge's parameters the strong Lucas test, run alone on
        the odd n from 47^2 to 120000, calls exactly the strong Lucas
        pseudoprimes of that range (OEIS A217255) prime wrongly."""
        composite = bytearray(120000)
        for d in range(2, math.isqrt(len(composite)) + 1):
            composite[d * d::d] = b"\1" * len(range(d * d, len(composite), d))
        wrong = [n for n in range(47 ** 2 + 2, len(composite), 2)
                 if _strong_lucas(n) == bool(composite[n])]
        assert wrong == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                         40309, 58519, 75077, 97439, 100127, 113573, 115639]

    def test_strong_lucas_refuses_a_square_without_a_jacobi_symbol(self, monkeypatch):
        """No D has (D/P^2) = -1, so without its perfect-square check the
        search for D would make about P/2 Jacobi symbols, to D = +-P."""
        calls = []
        jacobi = arith._jacobi
        monkeypatch.setattr(arith, "_jacobi", lambda *args: calls.append(1) or jacobi(*args))
        assert not _strong_lucas(10007 ** 2)
        assert calls == []

    def test_primes_above_psi13_pass(self):
        """Mersenne primes above psi_13 pass, with and without an rng; a
        product of two of them does not."""
        for e in (89, 107, 127, 521):
            assert is_probable_prime(2 ** e - 1)
            assert is_probable_prime(2 ** e - 1, rng=random.Random(e))
        assert not is_probable_prime((2 ** 89 - 1) * (2 ** 107 - 1))

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(n=st.one_of(st.integers(0, 2 ** 64 - 1), _primes(64),
                       st.builds(mul, _primes(32), _primes(32))),
           seed=st.integers(0, 2 ** 32))
    def test_an_rng_changes_no_answer_below_2_64(self, n, seed):
        """Below 2^64 < psi_13 an rng changes no answer. It moves by
        RNG_WITNESSES draws for a prime above 47, the last small prime, and
        by none for a composite."""
        rng, expected = random.Random(seed), random.Random(seed)
        prime = is_probable_prime(n)
        assert is_probable_prime(n, rng=rng) == prime
        if prime and n > 47:
            for _ in range(RNG_WITNESSES):
                expected.randrange(2, n - 1)
        assert rng.getstate() == expected.getstate()


# psi_k (OEIS A014233) and its factors: each is composite by its factors
PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


def _strong(n, a):
    """n passes the strong (Miller-Rabin) test to the base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _all_13(n):
    """The test with every fixed base, a proof below psi_13."""
    if n < 2 or n in _MR_BASES:
        return n >= 2
    return n % 2 == 1 and all(_strong(n, a) for a in _MR_BASES)


def _bases_tested(monkeypatch, n):
    """The bases is_probable_prime(n) raises n - 1's odd part to."""
    bases = []

    def counted(a, e, m):
        bases.append(a)
        return pow(a, e, m)

    with monkeypatch.context() as patch:
        patch.setattr(arith, "pow", counted, raising=False)
        return is_probable_prime(n), bases


class TestWitnessTable:
    """The first k fixed bases decide every n < psi_k, so only those are
    tested; the answer and an rng's draws are those of all 13."""

    @pytest.mark.parametrize("k", range(1, 14))
    def test_psi_k_is_composite_and_passes_k_bases(self, k):
        psi = _PSI[k - 1]
        assert math.prod(PSI_FACTORS[psi]) == psi and min(PSI_FACTORS[psi]) > 1
        assert all(_strong(psi, a) for a in _MR_BASES[:k])
        if k < 13 and _PSI[k] != psi:
            assert not _strong(psi, _MR_BASES[k])
        assert not is_probable_prime(psi)

    @pytest.mark.parametrize("k", [k for k in range(2, 14) if k == 13 or _PSI[k] != _PSI[k - 1]])
    def test_bases_tested_below_and_at_psi_k(self, monkeypatch, k):
        """The largest prime below psi_k is decided by the bases of the
        least j with psi_j = psi_k; psi_k itself by one more, which refuses
        it (psi_13 by all 13, then the strong Lucas test). Trial division
        decides around psi_1 = 2047 < 47^2."""
        psi = _PSI[k - 1]
        below = psi - 2
        while not _all_13(below):
            below -= 2
        answer, bases = _bases_tested(monkeypatch, below)
        assert answer and bases == list(_MR_BASES[:_PSI.index(psi) + 1])
        answer, bases = _bases_tested(monkeypatch, psi)
        assert not answer and bases == list(_MR_BASES[:min(k + 1, 13)])

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(n=st.one_of(st.integers(0, PSI13 - 1), st.sampled_from(_PSI[:-1]),
                       st.sampled_from(_PSI).flatmap(
                           lambda psi: st.integers(psi - 2 ** 16, psi - 1)),
                       _primes(81), st.builds(mul, _primes(40), _primes(41))),
           seed=st.integers(0, 2 ** 32))
    def test_agrees_with_all_13_bases_below_psi13(self, n, seed):
        """Below psi_13 the answer is the 13-base test's, and an rng moves
        by RNG_WITNESSES draws for a prime above 47 and by none otherwise."""
        rng, expected = random.Random(seed), random.Random(seed)
        prime = _all_13(n)
        assert is_probable_prime(n) == prime
        assert is_probable_prime(n, rng=rng) == prime
        if prime and n > 47:
            for _ in range(RNG_WITNESSES):
                expected.randrange(2, n - 1)
        assert rng.getstate() == expected.getstate()
