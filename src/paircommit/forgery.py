"""Forgery against the commitment scheme, and the oracles that judge it.

Whoever generates the group parameters knows the factorization n = p*q.
The forgery uses it: the verification equation reduces to the exponent
system

    a1*(a1 - 1) = 0          (mod n)
    2*a1*a2 - a2 = b1        (mod n)
    a2^2 = b2                (mod n)

for c = g^a1 h^a2, pi = g^b1 h^b2. k = q^-1 mod p and l = (k*q - 1)/p
give k*q - l*p = 1; then a1 = k*q solves the first congruence with a1
not a bit, and the rest follows by division. The resulting (c, pi)
always passes verification.

Whether that pair is actually a *false* claim is a separate question,
and this module refuses to answer it by fiat: `audit` classifies any
commitment using the order-q subgroup probes c^q and (c/g)^q, and
`accepting_census` counts the accepting pi of every c, factor by factor
of G = G_p x G_q (a pairing across the two is 1), so the set of provable
commitments is known exactly. `claim_report` lays the forgery's computed
properties next to the audit verdict and takes no position.

The rule that turns the two probes into a label has one owner, `_probe`,
which works on the backend's payloads: `audit` wraps its probes into the
Verdict's elements, and the census keeps only the label, of each g_u^a its
G_p table walks. Each result is a namedtuple, equal only to its own type.
"""

import random
from collections import Counter
from functools import partial
from itertools import accumulate, cycle, repeat
from operator import mul

from .arith import mod_inverse
from .commitment import (
    BINDING,
    Commitment,
    CommitmentKey,
    WIProof,
    _record,
    check_key,
    key_fingerprint,
    verify,
)
from .errors import KeyMismatch
from .groups import (
    GElement,
    GroupContext,
    _same_group,
    is_in_subgroup_q,
    mul_pow,
)

COMMITS_TO_0 = "CommitsTo0"
COMMITS_TO_1 = "CommitsTo1"
INVALID = "Invalid"

CENSUS_MAX_ORDER = 2 ** 12
# the largest p + q a census takes: it makes 2(p + q) pairings and keeps p + q powers
CENSUS_MAX_P_PLUS_Q = 2 ** 16


class Verdict(_record("Verdict", "label c_pow_q c_over_g_pow_q", __name__)):
    """Trapdoor-holder's classification of a commitment, with its probes
    c^q and (c/g)^q."""

    __slots__ = ()

    @property
    def c_in_gq(self) -> bool:
        return self.c_pow_q.is_identity()

    @property
    def c_over_g_in_gq(self) -> bool:
        return self.c_over_g_pow_q.is_identity()

    def lines(self) -> list[str]:
        return [f"c_in_gq={_b(self.c_in_gq)}",
                f"c_over_g_in_gq={_b(self.c_over_g_in_gq)}"]


ForgeryRecord = _record("ForgeryRecord", "k_a ell alpha1 alpha2 beta1 beta2 c pi", __name__,
                        "Full witness tuple of one forgery run.")


class ClaimReport(_record("ClaimReport", "verification_passes alpha1_is_bit "
                                         "g_alpha1_in_gq verdict", __name__)):
    """Computed properties of a forgery, never asserted ones."""

    __slots__ = ()

    def lines(self) -> list[str]:
        return [
            f"verification_passes={_b(self.verification_passes)}",
            f"alpha1_is_bit={_b(self.alpha1_is_bit)}",
            f"g_alpha1_in_gq={_b(self.g_alpha1_in_gq)}",
            f"audit_verdict={self.verdict.label}",
        ] + self.verdict.lines()


CensusRow = _record("CensusRow", "c_exp accepting_pi_count verdict_label", __name__)


class CensusResult(_record("CensusResult", "n rows accepting_pairs accepting_c_by_verdict "
                                           "p_counts q_counts p_labels", __name__)):
    """Totals and the factor tables: c = g^e's row is (e, p_counts[e % p] *
    q_counts[e % q], p_labels[e % p]); rows is None above CENSUS_MAX_ORDER."""

    __slots__ = ()

    def accepting_exponents(self) -> set:
        return {row.c_exp for row in self._rows() if row.accepting_pi_count > 0}

    def non_invalid_exponents(self) -> set:
        return {row.c_exp for row in self._rows() if row.verdict_label != INVALID}

    def _rows(self) -> list[CensusRow]:
        if self.rows is None:
            raise ValueError(f"census of n={self.n} > {CENSUS_MAX_ORDER} has no rows")
        return self.rows


def _b(flag: bool) -> str:
    return "true" if flag else "false"


def forge(ck: CommitmentKey, p: int, q: int, beta1: int | None = None,
          rng: random.Random | None = None) -> ForgeryRecord:
    """Build an accepting (c, pi) pair from the factorization of n.

    beta1 may be pinned for reproducible records (0 gives the degenerate
    c = g^a1 record) or left to be sampled from [1, n).

    The attack targets the binding (soundness) mode; a hiding key is
    refused.
    """
    ctx = ck.context
    n = ctx.n
    if ck.mode != BINDING:
        raise ValueError("the forgery targets binding-mode keys")
    if p * q != n:
        raise ValueError(f"{p}*{q} is not the group order {n}")
    if p >= q:
        raise ValueError(f"need p < q, got p={p}, q={q}")
    if beta1 is None:
        if rng is None:
            raise ValueError("give beta1 or an rng to sample it")
        beta1 = rng.randrange(1, n)
    elif not 0 <= beta1 < n:
        raise ValueError(f"beta1 must lie in [0, {n}), got {beta1}")

    k_a = pow(q, -1, p)  # least positive k with k*q = 1 (mod p)
    ell = (k_a * q - 1) // p
    assert k_a * q - ell * p == 1
    alpha1 = k_a * q % n
    # 2*k*q - 1 is coprime to both p and q, so this inverse always exists
    alpha2 = beta1 * mod_inverse(2 * k_a * q - 1, n) % n
    beta2 = alpha2 * alpha2 % n
    fp = key_fingerprint(ck)
    c = Commitment(mul_pow(ctx.g, alpha1, ck.h, alpha2), fp)
    pi = WIProof(mul_pow(ctx.g, beta1, ck.h, beta2), fp)
    return ForgeryRecord(k_a, ell, alpha1, alpha2, beta1, beta2, c, pi)


def audit(q: int, ck: CommitmentKey, c: Commitment) -> Verdict:
    """Classify c with the order-q subgroup probes.

    c in G_q means c = h^w for some w, a commitment to 0; c/g in G_q
    means a commitment to 1; neither means no bit opening exists.
    """
    check_key(ck, c)
    ctx = ck.context
    if ctx.n % q != 0:
        raise ValueError(f"q={q} does not divide the group order {ctx.n}")
    _same_group(c.c, ctx.g)  # payload operations check no context
    label, c_pow_q, shifted_pow_q = _probe(ctx, q, c.c.value, ctx._el_inv(ctx.g.value))
    return Verdict(label, GElement(ctx, c_pow_q), GElement(ctx, shifted_pow_q))


def _probe(ctx: GroupContext, q: int, c, g_inv) -> tuple[str, object, object]:
    """audit's rule on payloads, once the key and q are checked: the label
    of c, and the payloads of c^q and (c*g^-1)^q."""
    c_pow_q = ctx._el_pow(c, q)
    shifted_pow_q = ctx._el_pow(ctx._el_mul(c, g_inv), q)
    if c_pow_q == ctx._el_identity:
        label = COMMITS_TO_0
    elif shifted_pow_q == ctx._el_identity:
        label = COMMITS_TO_1
    else:
        label = INVALID
    return label, c_pow_q, shifted_pow_q


def claim_report(record: ForgeryRecord, ck: CommitmentKey, p: int, q: int) -> ClaimReport:
    """Compute every checkable property of a forgery record.

    The report records what the group operations say, including the
    audit verdict for the forged c; it does not interpret them.
    """
    n = ck.context.n
    if p * q != n:
        raise ValueError(f"{p}*{q} is not the group order {n}")
    passes = verify(ck, record.c, record.pi)
    alpha1_is_bit = record.alpha1 % n in (0, 1)
    g_alpha1 = ck.context.g ** record.alpha1
    return ClaimReport(
        verification_passes=passes,
        alpha1_is_bit=alpha1_is_bit,
        g_alpha1_in_gq=is_in_subgroup_q(g_alpha1, q),
        verdict=audit(q, ck, record.c),
    )


def accepting_census(ctx: GroupContext, ck: CommitmentKey) -> CensusResult:
    """Ground truth: how many pi verify with each c, joined with its audit
    verdict; the decisive check of whether an accepting proof exists for
    any c outside the set the audit calls valid.

    verify's pair(c, c*g^-1) = pair(h, pi) holds iff it holds on G_p and on
    G_q, as a pairing across the two is 1. So c = g^e accepts
    p_counts[e % p] * q_counts[e % q] proofs, and audit labels it by e mod
    p: 2(p + q) pairings, where a join over all of G makes 2n. The labels
    probe the p table's g_u^a as g^a, since (u - 1)*q = 0 mod n. Above
    p + q = CENSUS_MAX_P_PLUS_Q it raises ValueError before any pairing.
    """
    if not ctx.knows_factorization:
        raise ValueError("census needs a context that knows p and q")
    if ck.context != ctx:
        raise KeyMismatch("key does not live on the given context")
    n, p, q = ctx.n, ctx.p, ctx.q
    if p + q > CENSUS_MAX_P_PLUS_Q:
        raise ValueError(f"census refused: p + q = {p + q} is above {CENSUS_MAX_P_PLUS_Q}, "
                         f"and the census would make {2 * (p + q)} pairings")
    g, h = ctx.g.value, ck.h.value
    p_counts, p_powers = _factor_counts(ctx, g, h, q * mod_inverse(q, p), p)
    q_counts, _ = _factor_counts(ctx, g, h, p * mod_inverse(p, q), q)
    g_inv = ctx._el_inv(g)
    p_labels = [_probe(ctx, q, c, g_inv)[0] for c in p_powers]
    # CensusRow._make without its length check, which zip makes moot
    rows = None if n > CENSUS_MAX_ORDER else list(map(partial(tuple.__new__, CensusRow), zip(
        range(n), map(mul, cycle(p_counts), cycle(q_counts)), cycle(p_labels))))
    # by the remainder theorem, each residue a mod p meets every residue mod q
    q_accepting = sum(map(bool, q_counts))
    by_verdict: dict[str, int] = {COMMITS_TO_0: 0, COMMITS_TO_1: 0, INVALID: 0}
    for count, label in zip(p_counts, p_labels):
        by_verdict[label] += q_accepting if count else 0
    return CensusResult(n, rows, sum(p_counts) * sum(q_counts), by_verdict,
                        p_counts, q_counts, p_labels)


def _factor_counts(ctx: GroupContext, g, h, u: int, order: int) -> tuple[list[int], list]:
    """On the factor of G of the given prime order that x -> x^u projects
    onto (u = q*(q^-1 mod p) for G_p): for each a < order, the number of
    f < order with pair(h, g_u^f) = pair(g_u^a, g_u^(a-1)), g_u = g^u; and
    the walk g_u^a. A pairing with g_u^f sees only h's part on that factor."""
    # g_u^0, g_u^1, ...; accumulate's initial= would take the curve's identity, None, for none
    powers = [ctx._el_identity, *accumulate(repeat(ctx._el_pow(g, u), order - 1), ctx._el_mul)]
    rhs_counts = Counter(ctx._pair(h, pi) for pi in powers)
    # g_u^(a-1) is the power before g_u^a, cyclically
    return [rhs_counts[ctx._pair(c, c_over_g)]
            for c, c_over_g in zip(powers, powers[-1:] + powers[:-1])], powers
