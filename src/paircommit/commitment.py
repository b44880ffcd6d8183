"""Homomorphic bit-commitment scheme over a composite-order pairing group.

Public key ck = (n, G, G_T, e, g, h) with two modes for h:

* binding: h = g^(p*x) for x in Z_q^*, so h spans the order-q subgroup
  and the message in c = g^m h^r is information-theoretically fixed.
  Extraction key xk = (ck, q).
* hiding: h = g^x of full order n, so c is statistically independent of
  m and can be re-opened to anything with trapdoor key tk = (ck, x).

A commitment to a bit m comes with the witness-indistinguishable proof
pi = (g^(2m-1) h^r)^r, accepted iff e(c, c*g^-1) = e(h, pi).
"""

import hashlib
import random
from collections import namedtuple
from math import gcd

from .arith import mod_inverse
from .errors import InvalidKey, KeyMismatch, NotExtractable
from .groups import (
    CURVE,
    BabySteps,
    GElement,
    GroupContext,
    mul_pow,
    pair,
)

BINDING = "binding"
HIDING = "hiding"

DEFAULT_EXTRACT_BOUND = 2 ** 16
_EXTRACT_WIDTH = 256  # baby steps per key, ceil(sqrt(DEFAULT_EXTRACT_BOUND)); any bound works
# the most giant steps an extract makes; a search that may need more is refused
EXTRACT_MAX_GIANT_STEPS = 2 ** 20


def _record_eq(self, other) -> bool:
    # a record equals only a record of its own type, never a plain tuple
    return type(other) is type(self) and tuple.__eq__(self, other)


def _record(name: str, fields: str, module: str, doc: str | None = None) -> type:
    """A namedtuple type whose values are equal only to values of that same
    type; a record with methods subclasses it with __slots__ = ()."""
    cls = namedtuple(name, fields, module=module)
    cls.__eq__ = _record_eq
    cls.__ne__ = lambda self, other: not _record_eq(self, other)
    cls.__hash__ = tuple.__hash__
    if doc is not None:
        cls.__doc__ = doc
    return cls


class _Frozen:
    """A value with __slots__ whose fields are set once, in __init__: ==
    and hash over _fields within one type, and the repr of a dataclass."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CommitmentKey(_Frozen):
    __slots__ = ("context", "h", "mode", "_digest")
    _fields = ("context", "h", "mode")

    def __init__(self, context: GroupContext, h: GElement, mode: str):
        set_field = object.__setattr__
        set_field(self, "context", context)
        set_field(self, "h", h)
        set_field(self, "mode", mode)
        # digest of key_fields(self), fixed here; read it through key_fingerprint
        text = "|".join(value for _, value in key_fields(self))
        set_field(self, "_digest", hashlib.sha256(text.encode()).hexdigest()[:16])
        # every commit, proof and verify raises or pairs h
        h.group.fix(h)


class ExtractionKey(_Frozen):
    """ck with the larger prime q of n; for a binding ck, h must be a
    non-identity element of the order-q subgroup, else InvalidKey."""

    __slots__ = ("ck", "q", "_steps")
    _fields = ("ck", "q")

    def __init__(self, ck: CommitmentKey, q: int):
        h = ck.h
        if ck.mode == BINDING and (h.is_identity() or not (h ** q).is_identity()):
            raise InvalidKey(f"h={h.to_text()} is not a non-identity element of "
                             f"the order-q subgroup, q={q}")
        set_field = object.__setattr__
        set_field(self, "ck", ck)
        set_field(self, "q", q)
        # extract's baby steps to the base g^q, made as extracts need them
        set_field(self, "_steps", None)


TrapdoorKey = _record("TrapdoorKey", "ck x", __name__)
Commitment = _record("Commitment", "c key_fp", __name__)
WIProof = _record("WIProof", "pi key_fp", __name__)
Opening = _record("Opening", "m r", __name__)


def key_fields(ck: CommitmentKey) -> list[tuple[str, str]]:
    """The public key material, in the order key files list it."""
    ctx = ck.context
    fields = [("mode", ck.mode), ("backend", ctx.backend), ("n", str(ctx.n))]
    if ctx.backend == CURVE:
        fields += [("fprime", str(ctx.field_prime)), ("cofactor", str(ctx.cofactor))]
    fields += [("g", ctx.g.to_text()), ("h", ck.h.to_text())]
    return fields


def key_fingerprint(ck: CommitmentKey) -> str:
    """Short digest of the public key material, used as provenance tag."""
    return ck._digest


def check_key(ck: CommitmentKey, c: Commitment) -> None:
    """Raise KeyMismatch unless c was made under ck."""
    if c.key_fp != key_fingerprint(ck):
        raise KeyMismatch("commitment was made under a different key")


def _require_factorization(ctx: GroupContext) -> tuple[int, int]:
    if not ctx.knows_factorization:
        raise ValueError("key generation needs a context that knows p and q")
    return ctx.p, ctx.q


def binding_key_from_exponent(ctx: GroupContext, x: int) -> tuple[CommitmentKey, ExtractionKey]:
    """Binding key with pinned x: h = g^(p*x). For reproducible setups."""
    p, q = _require_factorization(ctx)
    if not 1 <= x < q:
        raise ValueError(f"x must lie in [1, {q}), got {x}")
    h = ctx.g ** (p * x)
    ck = CommitmentKey(ctx, h, BINDING)
    return ck, ExtractionKey(ck, q)


def hiding_key_from_exponent(ctx: GroupContext, x: int) -> tuple[CommitmentKey, TrapdoorKey]:
    """Hiding key with pinned x: h = g^x, gcd(x, n) = 1 so division by x works."""
    _, q = _require_factorization(ctx)
    if not 1 <= x < q:
        raise ValueError(f"x must lie in [1, {q}), got {x}")
    if gcd(x, ctx.n) != 1:
        raise ValueError(f"x={x} shares a factor with n={ctx.n}")
    h = ctx.g ** x
    ck = CommitmentKey(ctx, h, HIDING)
    return ck, TrapdoorKey(ck, x)


def binding_keygen(ctx: GroupContext, rng: random.Random) -> tuple[CommitmentKey, ExtractionKey]:
    """Sample x from Z_q^* and build the perfectly binding key."""
    _, q = _require_factorization(ctx)
    return binding_key_from_exponent(ctx, rng.randrange(1, q))


def hiding_keygen(ctx: GroupContext, rng: random.Random) -> tuple[CommitmentKey, TrapdoorKey]:
    """Sample x from Z_q^* (resampling until gcd(x, n) = 1) and build the
    perfectly hiding key.

    The coprimality resample is a deliberate strengthening: trapdoor
    opening divides by x mod n, which an x sharing a factor with p
    would break.
    """
    _, q = _require_factorization(ctx)
    while True:
        x = rng.randrange(1, q)
        if gcd(x, ctx.n) == 1:
            return hiding_key_from_exponent(ctx, x)


def _check_message_range(ck: CommitmentKey, m: int) -> None:
    # the real bound is p; against a public key (factorization unknown)
    # the best checkable bound is n
    ctx = ck.context
    bound = ctx.p if ctx.knows_factorization else ctx.n
    if not 0 <= m < bound:
        raise ValueError(f"message {m} out of range [0, {bound})")


def commit(ck: CommitmentKey, m: int, r: int) -> Commitment:
    """c = g^m * h^r, with r reduced mod n."""
    _check_message_range(ck, m)
    c = mul_pow(ck.context.g, m, ck.h, r)
    return Commitment(c, key_fingerprint(ck))


def extract(xk: ExtractionKey, c: Commitment, bound: int = DEFAULT_EXTRACT_BOUND) -> int:
    """Recover m from a binding-mode commitment: the smallest m < bound
    with (g^q)^m = c^q, else NotExtractable.

    c^q = (g^m h^r)^q = (g^q)^m kills the h component; m is its discrete
    log to the base g^q, by baby-step giant-step over the key's table.
    g^q has order p, so the search stops at min(bound, p); one that may
    need more than EXTRACT_MAX_GIANT_STEPS giant steps raises ValueError
    before the first.
    """
    ck = xk.ck
    if ck.mode != BINDING:
        raise ValueError("extraction needs a binding-mode key")
    check_key(ck, c)
    stop = min(bound, ck.context.n // xk.q)
    steps = -(-stop // _EXTRACT_WIDTH)
    if steps > EXTRACT_MAX_GIANT_STEPS:
        raise ValueError(f"extract refused: a search below min(bound, p) = {stop} needs "
                         f"{steps} giant steps, above {EXTRACT_MAX_GIANT_STEPS}; the largest "
                         f"bound that fits is {EXTRACT_MAX_GIANT_STEPS * _EXTRACT_WIDTH}")
    if xk._steps is None:
        object.__setattr__(xk, "_steps", BabySteps(ck.context.g ** xk.q, _EXTRACT_WIDTH))
    m = xk._steps.log(c.c ** xk.q, stop)
    if m is None:
        raise NotExtractable(f"no message below {bound} matches the commitment")
    return m


def trapdoor_open(tk: TrapdoorKey, c: Commitment, current: Opening, m_new: int) -> Opening:
    """Re-open a hiding-mode commitment to m_new.

    r' = r - (m_new - m)/x mod n, so that g^m_new h^r' = g^m h^r.
    The supplied opening must actually open c, and the new one is
    committed again before it is returned.
    """
    ck = tk.ck
    if ck.mode != HIDING:
        raise ValueError("trapdoor opening needs a hiding-mode key")
    if commit(ck, current.m, current.r) != c:
        raise ValueError("supplied opening does not match the commitment")
    _check_message_range(ck, m_new)
    n = ck.context.n
    x_inv = mod_inverse(tk.x, n)
    r_new = (current.r - (m_new - current.m) * x_inv) % n
    if commit(ck, m_new, r_new) != c:
        raise ValueError("the new opening does not open the commitment")
    return Opening(m_new, r_new)


def wi_prove(ck: CommitmentKey, m: int, r: int) -> WIProof:
    """Proof that a commitment opens to 0 or 1: pi = (g^(2m-1) h^r)^r.

    Only claimed for bits; anything else is rejected here.
    """
    if m not in (0, 1):
        raise ValueError(f"the proof formula is only valid for bits, got m={m}")
    return _wi_prove_any_message(ck, m, r)


def _wi_prove_any_message(ck: CommitmentKey, m: int, r: int) -> WIProof:
    # unguarded variant: exercises the proof formula for arbitrary m,
    # which the correctness-identity checks need. (g^(2m-1) h^r)^r is
    # computed as g^((2m-1)r) h^(r^2), so only the fixed bases are raised.
    pi = mul_pow(ck.context.g, (2 * m - 1) * r, ck.h, r * r)
    return WIProof(pi, key_fingerprint(ck))


def verify(ck: CommitmentKey, c: Commitment, pi: WIProof) -> bool:
    """Pairing check e(c, c*g^-1) = e(h, pi).

    c*g^-1 is recomputed here rather than accepted from the caller; one
    fewer malleable input.
    """
    check_key(ck, c)
    if pi.key_fp != key_fingerprint(ck):
        raise KeyMismatch("proof was made under a different key")
    shifted = c.c * ck.context.g.inverse()
    return pair(c.c, shifted) == pair(ck.h, pi.pi)


def homomorphic_combine(c1: Commitment, c2: Commitment) -> Commitment:
    """Product commitment; opens to (m1 + m2, r1 + r2)."""
    if c1.key_fp != c2.key_fp:
        raise KeyMismatch("commitments were made under different keys")
    return Commitment(c1.c * c2.c, c1.key_fp)
