import random

import pytest

from paircommit import arith, curve, groups, setup_curve, setup_transparent


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def t35():
    """Transparent context of order 35."""
    return setup_transparent(5, 7)


@pytest.fixture(scope="session")
def t15():
    """Transparent context of order 15."""
    return setup_transparent(3, 5)


@pytest.fixture(scope="session")
def c35():
    """Curve context of order 35 (field prime 139, cofactor 4)."""
    return setup_curve(5, 7, random.Random(7))


@pytest.fixture(scope="session")
def c15():
    """Curve context of order 15 (field prime 59, cofactor 4)."""
    return setup_curve(3, 5, random.Random(7))


@pytest.fixture
def refuse_arithmetic(monkeypatch):
    """A call that makes every later primality test or order ladder fail
    the test: what a loader checks before any arithmetic."""
    def refuse():
        def called(*args, **kwargs):
            raise AssertionError("a loader ran a primality or order test")

        for module in (arith, groups, curve):
            monkeypatch.setattr(module, "is_probable_prime", called)
        monkeypatch.setattr(curve, "mul_is_infinity", called)

    return refuse
