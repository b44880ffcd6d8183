"""Forgery against the commitment scheme, and the oracles that judge it.

Whoever generates the group parameters knows the factorization n = p*q.
The forgery uses it: the verification equation reduces to the exponent
system

    a1*(a1 - 1) = 0          (mod n)
    2*a1*a2 - a2 = b1        (mod n)
    a2^2 = b2                (mod n)

for c = g^a1 h^a2, pi = g^b1 h^b2. Extended Euclid gives k, l with
k*q - l*p = 1; then a1 = k*q solves the first congruence with a1 not a
bit, and the rest follows by division. The resulting (c, pi) always
passes verification.

Whether that pair is actually a *false* claim is a separate question,
and this module refuses to answer it by fiat: `audit` classifies any
commitment using the order-q subgroup probes c^q and (c/g)^q, and
`accepting_census` brute-forces the full (c, pi) square on a
transparent context so the set of provable commitments is known
exactly. `claim_report` lays the forgery's computed properties next to
the audit verdict and takes no position.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from .arith import ext_gcd, mod_inverse
from .commitment import (
    BINDING,
    Commitment,
    CommitmentKey,
    WIProof,
    check_key,
    key_fingerprint,
    verify,
)
from .errors import KeyMismatch
from .groups import (
    GElement,
    GroupContext,
    TRANSPARENT,
    is_in_subgroup_q,
)

COMMITS_TO_0 = "CommitsTo0"
COMMITS_TO_1 = "CommitsTo1"
INVALID = "Invalid"

CENSUS_MAX_ORDER = 2 ** 12


@dataclass(frozen=True)
class Verdict:
    """Trapdoor-holder's classification of a commitment, with its probes
    c^q and (c/g)^q."""

    label: str
    c_pow_q: GElement
    c_over_g_pow_q: GElement

    @property
    def c_in_gq(self) -> bool:
        return self.c_pow_q.is_identity()

    @property
    def c_over_g_in_gq(self) -> bool:
        return self.c_over_g_pow_q.is_identity()


@dataclass(frozen=True)
class ForgeryRecord:
    """Full witness tuple of one forgery run."""

    k_a: int
    ell: int
    alpha1: int
    alpha2: int
    beta1: int
    beta2: int
    c: Commitment
    pi: WIProof


@dataclass(frozen=True)
class ClaimReport:
    """Computed properties of a forgery, never asserted ones."""

    verification_passes: bool
    alpha1_is_bit: bool
    g_alpha1_in_gq: bool
    verdict: Verdict

    def lines(self) -> List[str]:
        return [
            f"verification_passes={_b(self.verification_passes)}",
            f"alpha1_is_bit={_b(self.alpha1_is_bit)}",
            f"g_alpha1_in_gq={_b(self.g_alpha1_in_gq)}",
            f"audit_verdict={self.verdict.label}",
            f"c_in_gq={_b(self.verdict.c_in_gq)}",
            f"c_over_g_in_gq={_b(self.verdict.c_over_g_in_gq)}",
        ]


@dataclass(frozen=True)
class CensusRow:
    c_exp: int
    accepting_pi_count: int
    verdict_label: str


@dataclass(frozen=True)
class CensusResult:
    n: int
    rows: List[CensusRow]
    accepting_pairs: int
    accepting_c_by_verdict: Dict[str, int]

    def accepting_exponents(self) -> set:
        return {row.c_exp for row in self.rows if row.accepting_pi_count > 0}

    def non_invalid_exponents(self) -> set:
        return {row.c_exp for row in self.rows if row.verdict_label != INVALID}


def _b(flag: bool) -> str:
    return "true" if flag else "false"


def forge(ck: CommitmentKey, p: int, q: int, beta1: Optional[int] = None,
          rng: Optional[random.Random] = None,
          allow_hiding: bool = False) -> ForgeryRecord:
    """Build an accepting (c, pi) pair from the factorization of n.

    beta1 may be pinned for reproducible records (0 gives the degenerate
    c = g^a1 record) or left to be sampled from [1, n).

    The attack targets the binding (soundness) mode; pass allow_hiding
    to run it under a hiding key for comparison.
    """
    ctx = ck.context
    n = ctx.n
    if ck.mode != BINDING and not allow_hiding:
        raise ValueError("the forgery targets binding-mode keys "
                         "(allow_hiding overrides)")
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

    res = ext_gcd(q, p)
    k_a = res.s  # least positive k with k*q = 1 (mod p)
    ell = -res.t
    assert k_a * q - ell * p == 1
    alpha1 = k_a * q % n
    # 2*k*q - 1 is coprime to both p and q, so this inverse always exists
    alpha2 = beta1 * mod_inverse(2 * k_a * q - 1, n) % n
    beta2 = alpha2 * alpha2 % n
    fp = key_fingerprint(ck)
    c = Commitment(ctx.g ** alpha1 * ck.h ** alpha2, fp)
    pi = WIProof(ctx.g ** beta1 * ck.h ** beta2, fp)
    return ForgeryRecord(k_a, ell, alpha1, alpha2, beta1, beta2, c, pi)


def audit(q: int, ck: CommitmentKey, c: Commitment) -> Verdict:
    """Classify c with the order-q subgroup probes.

    c in G_q means c = h^w for some w, a commitment to 0; c/g in G_q
    means a commitment to 1; neither means no bit opening exists.
    """
    check_key(ck, c)
    n = ck.context.n
    if n % q != 0:
        raise ValueError(f"q={q} does not divide the group order {n}")
    c_pow_q = c.c ** q
    shifted_pow_q = (c.c * ck.context.g.inverse()) ** q
    if c_pow_q.is_identity():
        label = COMMITS_TO_0
    elif shifted_pow_q.is_identity():
        label = COMMITS_TO_1
    else:
        label = INVALID
    return Verdict(label, c_pow_q, shifted_pow_q)


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
    """Brute-force ground truth: which (c, pi) exponent pairs verify.

    Enumerates all n^2 pairs on a transparent context, counts accepting
    pi per c, and joins each c with its audit verdict. This is the
    decisive check of whether an accepting proof exists for any c
    outside the set the audit calls valid.
    """
    if ctx.backend != TRANSPARENT:
        raise ValueError("census needs the transparent backend")
    if not ctx.knows_factorization:
        raise ValueError("census needs a context that knows p and q")
    n = ctx.n
    if n > CENSUS_MAX_ORDER:
        raise ValueError(f"census is quadratic in n; refusing n={n} > {CENSUS_MAX_ORDER}")
    if not ck.context.same_group(ctx):
        raise KeyMismatch("key does not live on the given context")
    q = ctx.q
    h_exp = ck.h.value
    fp = key_fingerprint(ck)
    rows = []
    accepting_pairs = 0
    by_verdict: Dict[str, int] = {COMMITS_TO_0: 0, COMMITS_TO_1: 0, INVALID: 0}
    for c_exp in range(n):
        # verification on the transparent backend: c*(c-1) = h*pi in the
        # target exponent
        target = c_exp * (c_exp - 1) % n
        count = 0
        rhs = 0
        for _ in range(n):
            if rhs == target:
                count += 1
            rhs = (rhs + h_exp) % n
        verdict = audit(q, ck, Commitment(ctx.element(c_exp), fp))
        rows.append(CensusRow(c_exp, count, verdict.label))
        accepting_pairs += count
        if count:
            by_verdict[verdict.label] += 1
    return CensusResult(n, rows, accepting_pairs, by_verdict)
