"""Composite-order symmetric bilinear groups, in two interchangeable backends.

A GroupContext realizes cyclic groups G and G_T of order n = p*q (p < q
prime) with a symmetric bilinear map pair: G x G -> G_T.

* transparent backend: elements ARE their discrete logs. The group law
  is addition mod n and the pairing is multiplication mod n. Discrete
  logs being known by construction makes this the testing oracle; it has
  no cryptographic content whatsoever.
* curve backend: the order-n subgroup of a supersingular curve
  y^2 = x^3 + x over F_fp, fp = cofactor*n - 1 prime, with the
  distortion-map Tate pairing. A genuine pairing at desk scale.

Both backends expose the same operations, and any protocol decision
(accept/reject) must come out identically on both for the same
(p, q, exponent) inputs. The operations have one spelling: a * b,
a ** e and a.inverse() in G and G_T, and pair(a, b); mixing elements of
two contexts raises ContextMismatch. g_pow is the traced body of a ** e.

A context may know the factorization of n (built by setup_*) or not
(rebuilt from public key material); operations that need p or q take
them explicitly or demand a full context.

A curve context keeps what it can precompute for its fixed bases, on
itself and never in module globals, so two contexts share nothing:
pair(g, g) is computed at its first use, and g and every key's h (which
CommitmentKey marks with `fix`) get a doubling table at their second
power and recorded Miller lines at their second pairing as the first
argument, so that commit, wi_prove and forge raise them by additions
only and verify's pair(h, pi) replays h's lines. Exponents are reduced
to (-n/2, n/2] first, so g^-1 costs no doublings.
"""

import random
from typing import Dict, List, Optional

from . import curve
from .arith import is_probable_prime
from .errors import (
    ContextMismatch,
    DegeneratePairing,
    MalformedText,
    OffCurvePoint,
    WrongOrderElement,
)

TRANSPARENT = "transparent"
CURVE = "curve"


class GElement:
    """Element of G. Payload: exponent (transparent) or affine point (curve)."""

    __slots__ = ("group", "value")

    def __init__(self, group: "GroupContext", value):
        self.group = group
        self.value = value

    def __mul__(self, other: "GElement") -> "GElement":
        _same_group(self, other)
        return GElement(self.group, self.group._el_mul(self.value, other.value))

    def __pow__(self, e: int) -> "GElement":
        # looked up by name at each call, so a wrapper on groups.g_pow sees it
        return g_pow(self, e)

    def inverse(self) -> "GElement":
        return GElement(self.group, self.group._el_inv(self.value))

    def is_identity(self) -> bool:
        return self.value == self.group._el_identity()

    def to_text(self) -> str:
        return self.group._el_to_text(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GElement):
            return NotImplemented
        return self.group.same_group(other.group) and self.value == other.value

    def __hash__(self):
        return hash((self.group.backend, self.group.n, self.value))

    def __repr__(self):
        return f"<GElement {self.to_text()}>"


class GTElement:
    """Element of the target group G_T."""

    __slots__ = ("group", "value")

    def __init__(self, group: "GroupContext", value):
        self.group = group
        self.value = value

    def __mul__(self, other: "GTElement") -> "GTElement":
        _same_group(self, other)
        return GTElement(self.group, self.group._gt_mul(self.value, other.value))

    def __pow__(self, e: int) -> "GTElement":
        return GTElement(self.group, self.group._gt_pow(self.value, e))

    def inverse(self) -> "GTElement":
        return GTElement(self.group, self.group._gt_inv(self.value))

    def is_identity(self) -> bool:
        return self.value == self.group._gt_identity()

    def to_text(self) -> str:
        return self.group._gt_to_text(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GTElement):
            return NotImplemented
        return self.group.same_group(other.group) and self.value == other.value

    def __hash__(self):
        return hash((self.group.backend, self.group.n, "gt", self.value))

    def __repr__(self):
        return f"<GTElement {self.to_text()}>"


class GroupContext:
    """Common interface of both backends. Immutable once constructed,
    apart from the curve backend's caches, which change no value."""

    backend: str = ""
    gt: GTElement  # pair(g, g), set or computed by the subclass

    def __init__(self, n: int, p: Optional[int], q: Optional[int]):
        if n < 2:
            raise ValueError(f"group order must exceed 1, got {n}")
        if (p is None) != (q is None):
            raise ValueError("give both primes or neither")
        if p is not None and q is not None:
            if p * q != n:
                raise ValueError(f"n={n} is not {p}*{q}")
            if p >= q:
                raise ValueError(f"need p < q, got p={p}, q={q}")
            if not is_probable_prime(p):
                raise ValueError(f"p={p} is not prime")
            if not is_probable_prime(q):
                raise ValueError(f"q={q} is not prime")
        self.n = n
        self.p = p
        self.q = q
        self.g: GElement = None  # set by subclass

    @property
    def knows_factorization(self) -> bool:
        return self.p is not None

    @property
    def identity(self) -> GElement:
        return GElement(self, self._el_identity())

    @property
    def gt_identity(self) -> GTElement:
        return GTElement(self, self._gt_identity())

    def element(self, value) -> GElement:
        return GElement(self, value)

    def same_group(self, other: "GroupContext") -> bool:
        raise NotImplementedError

    def fix(self, el: GElement) -> None:
        """Mark el as a base that is raised or paired again and again, such
        as a key's h, so the context may keep precomputation for it."""

    # payload-level operations, implemented per backend
    def _el_identity(self):
        raise NotImplementedError

    def _el_mul(self, a, b):
        raise NotImplementedError

    def _el_inv(self, a):
        raise NotImplementedError

    def _el_pow(self, a, e: int):
        raise NotImplementedError

    def _gt_identity(self):
        raise NotImplementedError

    def _gt_mul(self, a, b):
        raise NotImplementedError

    def _gt_inv(self, a):
        raise NotImplementedError

    def _gt_pow(self, a, e: int):
        raise NotImplementedError

    def _pair(self, a, b):
        raise NotImplementedError

    def _el_to_text(self, a) -> str:
        raise NotImplementedError

    def _el_from_text(self, text: str):
        raise NotImplementedError

    def _gt_to_text(self, a) -> str:
        raise NotImplementedError

    def _gt_from_text(self, text: str):
        raise NotImplementedError


class TransparentContext(GroupContext):
    """Exponent-arithmetic model of the group; discrete logs are the payload."""

    backend = TRANSPARENT

    def __init__(self, n: int, p: Optional[int] = None, q: Optional[int] = None):
        super().__init__(n, p, q)
        self.g = GElement(self, 1 % n)
        self.gt = GTElement(self, 1 % n)

    def same_group(self, other: GroupContext) -> bool:
        return other.backend == TRANSPARENT and other.n == self.n

    def _el_identity(self):
        return 0

    def _el_mul(self, a, b):
        return (a + b) % self.n

    def _el_inv(self, a):
        return -a % self.n

    def _el_pow(self, a, e):
        return a * (e % self.n) % self.n

    _gt_identity = _el_identity
    _gt_mul = _el_mul
    _gt_inv = _el_inv
    _gt_pow = _el_pow

    def _pair(self, a, b):
        return a * b % self.n

    def _el_to_text(self, a) -> str:
        return f"G:{a}"

    def _el_from_text(self, text: str):
        body = _strip_prefix(text, "G:")
        e = _parse_int(body, text)
        if not 0 <= e < self.n:
            raise MalformedText(
                f"exponent {e} out of range [0, {self.n}) in {text!r}")
        return e

    def _gt_to_text(self, a) -> str:
        return f"GT:{a}"

    def _gt_from_text(self, text: str):
        body = _strip_prefix(text, "GT:")
        e = _parse_int(body, text)
        if not 0 <= e < self.n:
            raise MalformedText(
                f"exponent {e} out of range [0, {self.n}) in {text!r}")
        return e


class _FixedBase:
    """What a curve context keeps for one fixed base P: its doubling table
    (curve.doubling_table), built at P's second power, and its Miller lines
    (curve.tate_pairing's record), recorded by P's second pairing as the
    first argument. A base used once pays for neither."""

    __slots__ = ("powers", "pairings", "table", "lines")

    def __init__(self):
        self.powers = 0
        self.pairings = 0
        self.table: Optional[List[curve.Point]] = None
        self.lines: Optional[List[Optional[curve.Line]]] = None


class CurveContext(GroupContext):
    """Order-n subgroup of the supersingular curve y^2 = x^3 + x over F_fp."""

    backend = CURVE
    # F_fp2 is always F_fp[i]/(i^2 + 1); fp = 3 (mod 4) keeps it irreducible
    extension_poly = "i^2+1"

    def __init__(self, n: int, field_prime: int, cofactor: int,
                 g_point: curve.Point, p: Optional[int] = None,
                 q: Optional[int] = None):
        super().__init__(n, p, q)
        if n % 2 == 0:
            raise ValueError("curve backend needs odd n")
        if field_prime % 4 != 3:
            raise ValueError(f"field prime {field_prime} is not 3 mod 4")
        if not is_probable_prime(field_prime):
            raise ValueError(f"field prime {field_prime} is not prime")
        if cofactor % 2 != 0 or cofactor * n != field_prime + 1:
            raise ValueError(
                f"cofactor {cofactor} does not satisfy cofactor*n = fp + 1")
        if g_point is None:
            raise ValueError("generator must not be the point at infinity")
        if not curve.is_on_curve(field_prime, g_point):
            raise OffCurvePoint(f"generator {g_point} is not on the curve")
        if curve.ec_mul(field_prime, g_point, n) is not None:
            raise WrongOrderElement(
                f"generator order does not divide n={n}")
        self.field_prime = field_prime
        self.cofactor = cofactor
        if p is not None and q is not None:
            for prime in (p, q):
                if curve.ec_mul(field_prime, g_point, n // prime) is None:
                    raise WrongOrderElement(
                        f"generator has order dividing n/{prime}, not exactly n")
        self.g = GElement(self, g_point)
        self._gt: Optional[GTElement] = None
        self._fixed: Dict[curve.Point, _FixedBase] = {}
        self.fix(self.g)

    @property
    def gt(self) -> GTElement:
        """pair(g, g), computed on first use."""
        if self._gt is None:
            self._gt = GTElement(self, self._pair(self.g.value, self.g.value))
        return self._gt

    def fix(self, el: GElement) -> None:
        if el.value is not None:
            self._fixed.setdefault(el.value, _FixedBase())

    def same_group(self, other: GroupContext) -> bool:
        return (other.backend == CURVE and other.n == self.n
                and other.field_prime == self.field_prime
                and other.cofactor == self.cofactor
                and other.g.value == self.g.value)

    def _el_identity(self):
        return None

    def _el_mul(self, a, b):
        return curve.ec_add(self.field_prime, a, b)

    def _el_inv(self, a):
        return curve.ec_neg(self.field_prime, a)

    def _el_pow(self, a, e):
        fp, n = self.field_prime, self.n
        # the representative of e in (-n/2, n/2]: g^-1 costs no doublings
        e %= n
        if e > n // 2:
            e -= n
        fixed = self._fixed.get(a)
        if fixed is None:
            return curve.ec_mul(fp, a, e)
        fixed.powers += 1
        if fixed.powers == 2:
            fixed.table = curve.doubling_table(fp, a, n.bit_length())
        return curve.ec_mul(fp, a, e, fixed.table)

    def _gt_identity(self):
        return curve.F2_ONE

    def _gt_mul(self, a, b):
        return curve.f2_mul(self.field_prime, a, b)

    def _gt_inv(self, a):
        return curve.f2_inv(self.field_prime, a)

    def _gt_pow(self, a, e):
        return curve.f2_pow(self.field_prime, a, e % self.n)

    def _pair(self, a, b):
        fp, n = self.field_prime, self.n
        fixed = self._fixed.get(a)
        if fixed is None:
            return curve.tate_pairing(fp, n, a, b)
        if fixed.lines:
            return curve.tate_pairing(fp, n, a, b, fixed.lines)
        fixed.pairings += 1
        if fixed.pairings == 1:
            return curve.tate_pairing(fp, n, a, b)
        # record a's lines; a pairing that raises leaves no partial record
        lines = []
        value = curve.tate_pairing(fp, n, a, b, lines)
        fixed.lines = lines
        return value

    def _el_to_text(self, a) -> str:
        if a is None:
            return "G:inf"
        return f"G:{a[0]},{a[1]}"

    def _el_from_text(self, text: str):
        fp = self.field_prime
        pt = point_from_text(text, fp)
        if pt is None:
            return None
        if not curve.is_on_curve(fp, pt):
            raise OffCurvePoint(f"point {text!r} is not on the curve")
        if curve.ec_mul(fp, pt, self.n) is not None:
            raise WrongOrderElement(
                f"point {text!r} is not in the order-{self.n} subgroup")
        return pt

    def _gt_to_text(self, a) -> str:
        return f"GT:{a[0]},{a[1]}"

    def _gt_from_text(self, text: str):
        body = _strip_prefix(text, "GT:")
        parts = body.split(",")
        if len(parts) != 2:
            raise MalformedText(f"expected GT:<a>,<b>, got {text!r}")
        a = _parse_int(parts[0], text)
        b = _parse_int(parts[1], text)
        fp = self.field_prime
        if not (0 <= a < fp and 0 <= b < fp):
            raise MalformedText(f"coordinates out of field range in {text!r}")
        val = (a, b)
        if val == curve.F2_ZERO:
            raise MalformedText(f"zero is not a group element: {text!r}")
        if curve.f2_pow(fp, val, self.n) != curve.F2_ONE:
            raise WrongOrderElement(
                f"target-group element {text!r} is not of order dividing {self.n}")
        return val


def point_from_text(text: str, field_prime: int) -> Optional[curve.Point]:
    """Parse G:<x>,<y> or G:inf with both coordinates in [0, field_prime).

    Syntax and range only; curve membership and order are the caller's
    checks (the element parser and the context constructor make them).
    """
    body = _strip_prefix(text.strip(), "G:")
    if body == "inf":
        return None
    parts = body.split(",")
    if len(parts) != 2:
        raise MalformedText(f"expected G:<x>,<y> or G:inf, got {text!r}")
    x = _parse_int(parts[0], text)
    y = _parse_int(parts[1], text)
    if not (0 <= x < field_prime and 0 <= y < field_prime):
        raise MalformedText(f"coordinates out of field range in {text!r}")
    return (x, y)


def _strip_prefix(text: str, prefix: str) -> str:
    if not text.startswith(prefix):
        raise MalformedText(f"expected {prefix}... , got {text!r}")
    return text[len(prefix):]


def _parse_int(part: str, whole: str) -> int:
    try:
        return int(part, 10)
    except ValueError:
        raise MalformedText(f"non-decimal integer in {whole!r}") from None


# ---------------------------------------------------------------------------
# construction

def setup_transparent(p: int, q: int) -> TransparentContext:
    """Transparent group of order p*q; the context validates primality and p < q."""
    return TransparentContext(p * q, p, q)


def setup_curve(p: int, q: int, rng: random.Random,
                cofactor_bound: int = 2 ** 20) -> CurveContext:
    """Curve-backed group of order n = p*q.

    Searches the smallest even cofactor c with fp = c*n - 1 prime and
    fp = 3 (mod 4), then samples a generator by clearing the cofactor
    off random curve points until the order is exactly n.
    """
    _check_prime_pair(p, q, rng)
    n = p * q
    if n % 2 == 0:
        raise ValueError("curve backend needs p*q odd")
    cofactor, fp = curve.find_curve_field(n, cofactor_bound, rng=rng)
    g_point = _sample_generator(fp, cofactor, n, p, q, rng)
    try:
        ctx = CurveContext(n, fp, cofactor, g_point, p, q)
        gt = ctx.gt
    except DegeneratePairing:
        # one retry with a fresh generator, then give up
        g_point = _sample_generator(fp, cofactor, n, p, q, rng)
        ctx = CurveContext(n, fp, cofactor, g_point, p, q)
        gt = ctx.gt
    if (gt ** (n // p)).is_identity() or (gt ** (n // q)).is_identity():
        raise DegeneratePairing("pair(g, g) does not have order exactly n")
    return ctx


def _check_prime_pair(p: int, q: int, rng: random.Random) -> None:
    # the context re-checks without an rng; these rng draws are part of the
    # seeded output
    if not is_probable_prime(p, rng=rng):
        raise ValueError(f"p={p} is not prime")
    if not is_probable_prime(q, rng=rng):
        raise ValueError(f"q={q} is not prime")
    if p >= q:
        raise ValueError(f"need p < q, got p={p}, q={q}")


def _sample_generator(fp: int, cofactor: int, n: int, p: int, q: int,
                      rng: random.Random) -> curve.Point:
    while True:
        raw = curve.random_point(fp, rng)
        g_point = curve.ec_mul(fp, raw, cofactor)
        if g_point is None:
            continue
        if curve.ec_mul(fp, g_point, n // p) is None:
            continue
        if curve.ec_mul(fp, g_point, n // q) is None:
            continue
        return g_point


# ---------------------------------------------------------------------------
# operations

def _same_group(a, b) -> None:
    if not a.group.same_group(b.group):
        raise ContextMismatch(
            f"elements from different contexts: {a.group.backend}/n={a.group.n} "
            f"vs {b.group.backend}/n={b.group.n}")


def g_pow(a: GElement, e: int) -> GElement:
    """a ** e, the body of GElement.__pow__. Write a ** e; this stays a
    module function because the benchmark's tracer wraps only module
    functions and reports every power as groups.g_pow."""
    return GElement(a.group, a.group._el_pow(a.value, e))


def pair(a: GElement, b: GElement) -> GTElement:
    _same_group(a, b)
    return GTElement(a.group, a.group._pair(a.value, b.value))


def is_in_subgroup_q(a: GElement, q: int) -> bool:
    """True iff a^q is the identity, i.e. a lies in the order-q subgroup."""
    if a.group.n % q != 0:
        raise ValueError(f"q={q} does not divide the group order {a.group.n}")
    return (a ** q).is_identity()


def element_from_text(text: str, ctx: GroupContext) -> GElement:
    return GElement(ctx, ctx._el_from_text(text.strip()))


def gt_element_from_text(text: str, ctx: GroupContext) -> GTElement:
    return GTElement(ctx, ctx._gt_from_text(text.strip()))
