"""Backend differential property: random (p, q, x, m, r, beta1) give the
same protocol answers on the transparent and the curve backend.

Both backends run one key, one commitment, one proof and one forgery
from the same exponents, and must agree on verify's decision, audit's
label (also read off audit's payload rule directly), the claim report's
flags and the extracted message.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from paircommit import (
    audit,
    binding_key_from_exponent,
    claim_report,
    commit,
    extract,
    forge,
    setup_curve,
    setup_transparent,
    verify,
)
from paircommit.commitment import _wi_prove_any_message
from paircommit.forgery import _probe

# odd p < q, so that both backends take every pair
PAIRS = ((3, 5), (3, 7), (5, 7), (3, 11), (5, 11), (7, 13), (11, 17), (13, 31), (17, 23))

# the same examples on every run, so tier-1 stays deterministic and bounded
DIFFERENTIAL = settings(derandomize=True, deadline=None, database=None, max_examples=200)

_contexts = {}


def _twins(p, q):
    """The transparent and curve contexts of (p, q), built once per run."""
    if (p, q) not in _contexts:
        _contexts[p, q] = (setup_transparent(p, q),
                           setup_curve(p, q, random.Random(p * q)))
    return _contexts[p, q]


def _transcript(ctx, x, m, r, beta1):
    p, q = ctx.p, ctx.q
    ck, xk = binding_key_from_exponent(ctx, x)
    c = commit(ck, m, r)
    rec = forge(ck, p, q, beta1=beta1)
    report = claim_report(rec, ck, p, q)
    g_inv = ctx._el_inv(ctx.g.value)
    labels = [audit(q, ck, com).label for com in (c, rec.c)]
    assert labels == [_probe(ctx, q, com.c.value, g_inv)[0] for com in (c, rec.c)]
    return (verify(ck, c, _wi_prove_any_message(ck, m, r)),
            verify(ck, rec.c, rec.pi),
            labels,
            report.lines(),
            extract(xk, c))


@DIFFERENTIAL
@given(pq=st.sampled_from(PAIRS), x=st.integers(1), m=st.integers(0),
       r=st.integers(0), beta1=st.integers(0))
def test_backends_agree(pq, x, m, r, beta1):
    p, q = pq
    n = p * q
    x, m, r, beta1 = 1 + x % (q - 1), m % p, r % n, beta1 % n
    transparent, curve = (_transcript(ctx, x, m, r, beta1) for ctx in _twins(p, q))
    assert transparent == curve
    # the transparent backend against the closed forms: verify accepts iff
    # m(m-1) = 0 mod n, the forgery always, and extract finds m
    honest, forged, _, _, extracted = transparent
    assert honest == (m * (m - 1) % n == 0) and forged and extracted == m
