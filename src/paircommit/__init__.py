"""Desk-scale lab for a composite-order pairing-based bit commitment scheme.

Three layers:

* groups: symmetric bilinear groups of order n = p*q with a transparent
  (known-discrete-log) backend and a supersingular-curve backend.
* commitment: the homomorphic bit commitment with binding and hiding key
  modes, extraction, trapdoor opening, and pairing-checked proofs.
* forgery: the parameter-holder forgery that always passes verification,
  plus the audit and census oracles that determine what it actually
  committed to.

Everything is deliberately small and non-cryptographic: the point is to
make every claim about the scheme mechanically checkable.
"""

from .arith import ExtGcdResult, ext_gcd, gen_prime, is_probable_prime, mod_inverse
from .commitment import (
    BINDING,
    Commitment,
    CommitmentKey,
    DEFAULT_EXTRACT_BOUND,
    ExtractionKey,
    HIDING,
    Opening,
    TrapdoorKey,
    WIProof,
    binding_key_from_exponent,
    binding_keygen,
    check_key,
    commit,
    extract,
    hiding_key_from_exponent,
    hiding_keygen,
    homomorphic_combine,
    key_fields,
    key_fingerprint,
    trapdoor_open,
    verify,
    wi_prove,
)
from .errors import (
    ContextMismatch,
    DegeneratePairing,
    DeserializeError,
    InvalidKey,
    KeyMismatch,
    MalformedText,
    NotExtractable,
    NotInvertible,
    OffCurvePoint,
    PairCommitError,
    SecretKeyMismatch,
    WrongOrderElement,
)
from .forgery import (
    COMMITS_TO_0,
    COMMITS_TO_1,
    CensusResult,
    ClaimReport,
    ForgeryRecord,
    INVALID,
    Verdict,
    accepting_census,
    audit,
    claim_report,
    forge,
)
from .groups import (
    CURVE,
    CurveContext,
    GElement,
    GroupContext,
    GTElement,
    TRANSPARENT,
    TransparentContext,
    element_from_text,
    is_in_subgroup_q,
    pair,
    point_from_text,
    setup_curve,
    setup_transparent,
)

__version__ = "0.1.0"
