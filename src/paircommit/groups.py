"""Composite-order symmetric bilinear groups, in two interchangeable backends.

A context realizes cyclic groups G and G_T of order n = p*q (p < q
prime) with a symmetric bilinear map pair: G x G -> G_T.

* transparent backend: elements ARE their discrete logs. The group law
  is addition mod n and the pairing is multiplication mod n. Discrete
  logs being known by construction makes this the testing oracle; it has
  no cryptographic content whatsoever.
* curve backend: the order-n subgroup of a supersingular curve
  y^2 = x^3 + x over F_fp, fp = cofactor*n - 1 prime, with the
  distortion-map Tate pairing. A genuine pairing at desk scale.

Both backends define the same payload operations, and any protocol
decision (accept/reject) must come out identically on both for the same
(p, q, exponent) inputs. GElement and GTElement share one base. The
operations have one spelling: a * b and a ** e in G and G_T, a.inverse()
in G alone, and pair(a, b); g_pow is the traced body of a ** e. Contexts
compare with ==. Mixing two contexts raises ContextMismatch, and mixing
G with G_T raises TypeError.

A context may know the factorization of n (built by setup_*) or not
(rebuilt from public key material); operations that need p or q take
them explicitly or demand a full context.

A curve context keeps what it can precompute for its fixed bases, on
itself and never in module globals, so two contexts share nothing:
pair(g, g) is computed at its first use, and g and every key's h (which
CommitmentKey marks with `fix`) get a window table (curve.window_table)
at their TABLE_AT_POWER-th power and recorded Miller lines at their
second pairing as the first argument, so that commit, wi_prove and forge
raise them by additions only and verify's pair(h, pi) replays h's lines.
Exponents are reduced to (-n/2, n/2] first, so g^-1 costs no doublings.
Order checks of points (generators and parsed elements) use
curve.mul_is_infinity.
"""

import random

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

# A fixed base's window table is built at its eighth power. The table costs
# the F_fp reductions of 4.7 to 5.4 untabled powers (64- to 16-bit primes),
# so by then the base has spent more on untabled powers than the table costs
# (ski rental); and no CLI command builds one: a one-shot command makes at
# most three powers of one base, and the census raises g only twice.
TABLE_AT_POWER = 8


class _Element:
    """An element of its context's G or G_T, held as the backend's payload."""

    __slots__ = ("group", "value")

    def __init__(self, group: "GroupContext", value):
        self.group = group
        self.value = value

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.value == other.value and (
            self.group is other.group or self.group == other.group)

    def __hash__(self):
        return hash((self.group.backend, self.group.n, self.value))

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_text()}>"


class GElement(_Element):
    """Element of G. Payload: exponent (transparent) or affine point (curve)."""

    __slots__ = ()

    def __mul__(self, other: "GElement") -> "GElement":
        _same_group(self, other)
        return GElement(self.group, self.group._el_mul(self.value, other.value))

    def __pow__(self, e: int) -> "GElement":
        # looked up by name at each call, so a wrapper on groups.g_pow sees it
        return g_pow(self, e)

    def inverse(self) -> "GElement":
        return GElement(self.group, self.group._el_inv(self.value))

    def is_identity(self) -> bool:
        return self.value == self.group._el_identity

    def to_text(self) -> str:
        return self.group._el_to_text(self.value)


class GTElement(_Element):
    """Element of the target group G_T. Payload: exponent or F_fp2 value."""

    __slots__ = ()

    def __mul__(self, other: "GTElement") -> "GTElement":
        _same_group(self, other)
        return GTElement(self.group, self.group._gt_mul(self.value, other.value))

    def __pow__(self, e: int) -> "GTElement":
        return GTElement(self.group, self.group._gt_pow(self.value, e))

    def is_identity(self) -> bool:
        return self.value == self.group._gt_identity

    def to_text(self) -> str:
        return self.group._gt_to_text(self.value)


class GroupContext:
    """What both backends share. Immutable once constructed, apart from
    the curve backend's caches, which change no value.

    A backend sets g and gt, and defines __eq__ (true for the same group;
    __hash__ is set again beside it), the class constants _el_identity
    and _gt_identity, and the payload operations _el_mul, _el_inv,
    _el_pow, _gt_mul, _gt_pow, _pair, _el_to_text, _el_from_text and
    _gt_to_text.
    """

    backend: str = ""
    g: GElement  # set by the subclass
    gt: GTElement  # pair(g, g), set or computed by the subclass

    def __init__(self, n: int, p: int | None, q: int | None):
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

    def __hash__(self):
        return hash((self.backend, self.n))

    @property
    def knows_factorization(self) -> bool:
        return self.p is not None

    def element(self, value) -> GElement:
        return GElement(self, value)

    def fix(self, el: GElement) -> None:
        """Mark el as a base that is raised or paired again and again, such
        as a key's h, so the context may keep precomputation for it."""


class TransparentContext(GroupContext):
    """Exponent-arithmetic model of the group; discrete logs are the payload."""

    backend = TRANSPARENT
    _el_identity = _gt_identity = 0

    def __init__(self, n: int, p: int | None = None, q: int | None = None):
        super().__init__(n, p, q)
        self.g = GElement(self, 1 % n)
        self.gt = GTElement(self, 1 % n)

    def __eq__(self, other) -> bool:
        return isinstance(other, TransparentContext) and other.n == self.n

    __hash__ = GroupContext.__hash__

    def _el_mul(self, a, b):
        return (a + b) % self.n

    def _el_inv(self, a):
        return -a % self.n

    def _el_pow(self, a, e):
        return a * (e % self.n) % self.n

    _gt_mul, _gt_pow = _el_mul, _el_pow

    def _pair(self, a, b):
        return a * b % self.n

    def _el_to_text(self, a) -> str:
        return f"G:{a}"

    def _el_from_text(self, text: str):
        e = _parse_int(_strip_prefix(text, "G:"), text)
        if not 0 <= e < self.n:
            raise MalformedText(
                f"exponent {e} out of range [0, {self.n}) in {text!r}")
        return e

    def _gt_to_text(self, a) -> str:
        return f"GT:{a}"


class _FixedBase:
    """What a curve context keeps for one fixed base P: its window table
    (curve.window_table), built at P's TABLE_AT_POWER-th power, and its
    Miller lines (curve.tate_pairing's record), recorded by P's second
    pairing as the first argument. A base raised fewer than TABLE_AT_POWER
    times pays for no table, and one paired once for no lines."""

    __slots__ = ("powers", "pairings", "table", "lines")

    def __init__(self):
        self.powers = 0
        self.pairings = 0
        self.table: list[list[curve.Point]] | None = None
        self.lines: list[curve.Line | None] | None = None


class CurveContext(GroupContext):
    """Order-n subgroup of the supersingular curve y^2 = x^3 + x over F_fp."""

    backend = CURVE
    _el_identity = None  # the point at infinity
    _gt_identity = curve.F2_ONE

    def __init__(self, n: int, field_prime: int, cofactor: int,
                 g_point: curve.Point, p: int | None = None,
                 q: int | None = None):
        super().__init__(n, p, q)
        if n % 2 == 0:
            raise ValueError("curve backend needs odd n")
        if field_prime % 4 != 3:
            raise ValueError(f"field prime {field_prime} is not 3 mod 4")
        # before the primality test, so that fp is no larger than cofactor*n
        if cofactor % 2 != 0 or cofactor * n != field_prime + 1:
            raise ValueError(
                f"cofactor {cofactor} does not satisfy cofactor*n = fp + 1")
        if not is_probable_prime(field_prime):
            raise ValueError(f"field prime {field_prime} is not prime")
        if g_point is None:
            raise ValueError("generator must not be the point at infinity")
        if not curve.is_on_curve(field_prime, g_point):
            raise OffCurvePoint(f"generator {g_point} is not on the curve")
        if not curve.mul_is_infinity(field_prime, g_point, n):
            raise WrongOrderElement(f"generator order does not divide n={n}")
        self.field_prime = field_prime
        self.cofactor = cofactor
        if p is not None and q is not None:
            for prime in (p, q):
                if curve.mul_is_infinity(field_prime, g_point, n // prime):
                    raise WrongOrderElement(
                        f"generator has order dividing n/{prime}, not exactly n")
        self.g = GElement(self, g_point)
        self._gt: GTElement | None = None
        self._fixed: dict[curve.Point, _FixedBase] = {}
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

    def __eq__(self, other) -> bool:
        # the constructor fixes the cofactor as (field_prime + 1) / n
        return (isinstance(other, CurveContext) and other.n == self.n
                and other.field_prime == self.field_prime
                and other.g.value == self.g.value)

    __hash__ = GroupContext.__hash__

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
        if fixed.powers == TABLE_AT_POWER:
            fixed.table = curve.window_table(fp, a, (n // 2).bit_length())
        return curve.ec_mul(fp, a, e, fixed.table)

    def _gt_mul(self, a, b):
        return curve.f2_mul(self.field_prime, a, b)

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
        if not curve.mul_is_infinity(fp, pt, self.n):
            raise WrongOrderElement(
                f"point {text!r} is not in the order-{self.n} subgroup")
        return pt

    def _gt_to_text(self, a) -> str:
        return f"GT:{a[0]},{a[1]}"


def point_from_text(text: str, field_prime: int) -> curve.Point:
    """Parse G:<x>,<y> or G:inf with both coordinates in [0, field_prime).

    Syntax and range only; curve membership and order are the caller's
    checks (the element parser and the context constructor make them).
    """
    body = _strip_prefix(text, "G:")
    if body == "inf":
        return None
    parts = body.split(",")
    if len(parts) != 2:
        raise MalformedText(f"expected G:<x>,<y> or G:inf, got {text!r}")
    x, y = _parse_int(parts[0], text), _parse_int(parts[1], text)
    if not (0 <= x < field_prime and 0 <= y < field_prime):
        raise MalformedText(f"coordinates out of field range in {text!r}")
    return (x, y)


def _strip_prefix(text: str, prefix: str) -> str:
    if not text.startswith(prefix):
        raise MalformedText(f"expected {prefix}... , got {text!r}")
    return text[len(prefix):]


def _parse_int(part: str, whole: str) -> int:
    """The integer that part spells as str(int) does, and no other spelling:
    no sign but a leading '-', no leading zero, space or underscore."""
    try:
        value = int(part, 10)
    except ValueError:
        value = None
    if value is None or str(value) != part:
        raise MalformedText(f"non-canonical decimal integer in {whole!r}")
    return value


# ---------------------------------------------------------------------------
# construction

def setup_transparent(p: int, q: int) -> TransparentContext:
    """Transparent group of order p*q; the context validates primality and p < q."""
    return TransparentContext(p * q, p, q)


def setup_curve(p: int, q: int, rng: random.Random) -> CurveContext:
    """Curve-backed group of order n = p*q.

    Searches the smallest even cofactor c with fp = c*n - 1 prime and
    fp = 3 (mod 4), then samples a generator by clearing the cofactor
    off random curve points until the context accepts its order as
    exactly n. pair(g, g) cannot raise DegeneratePairing: no line of the
    Miller loop vanishes at a distorted point of odd order.
    """
    _check_prime_pair(p, q, rng)
    n = p * q
    if n % 2 == 0:
        raise ValueError("curve backend needs p*q odd")
    cofactor, fp = curve.find_curve_field(n, rng)
    while True:
        g_point = curve.ec_mul(fp, curve.random_point(fp, rng), cofactor)
        if g_point is None:
            continue
        try:
            ctx = CurveContext(n, fp, cofactor, g_point, p, q)
            break
        except WrongOrderElement:
            pass
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


# ---------------------------------------------------------------------------
# operations

def _same_group(a, b) -> None:
    if type(a) is not type(b):
        raise TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    if a.group is not b.group and a.group != b.group:
        raise ContextMismatch(
            f"elements from different contexts: {a.group.backend}/n={a.group.n} "
            f"vs {b.group.backend}/n={b.group.n}")


def g_pow(a: GElement, e: int) -> GElement:
    """a ** e, the body of GElement.__pow__. Write a ** e; this stays a
    module function because the benchmark's tracer wraps only module
    functions and reports every power as groups.g_pow."""
    return GElement(a.group, a.group._el_pow(a.value, e))


def pair(a: GElement, b: GElement) -> GTElement:
    if type(a) is not GElement:
        raise TypeError(f"pair takes elements of G, got {type(a).__name__}")
    _same_group(a, b)
    return GTElement(a.group, a.group._pair(a.value, b.value))


class BabySteps:
    """Baby-step giant-step (Shanks) to one base a: the payload of a^j for
    each j < width, keeping the first j per payload, and the giant step
    a^-width. Payload operations only, so both backends share it; whoever
    takes many logs to one base keeps its table.

    The table grows inside log, only as far as a target needs: each new
    baby step is compared with the target as it is made, so a log of
    j < width makes at most j + 1 steps and a bound b at most b. All width
    steps are made only for a target the table does not hold."""

    __slots__ = ("base", "width", "table", "giant", "_made", "_acc")

    def __init__(self, base: GElement, width: int):
        self.base, self.width, self.table = base, width, {}
        self._made, self._acc = 0, base.group._el_identity  # j and a^j of the next step
        self.giant = None  # a^-width, set once all width steps are made

    def _grow(self, y, stop: int) -> int | None:
        """Make the baby steps below stop (at most width), until one is y;
        the j of that step, or None."""
        ctx, a, table = self.base.group, self.base.value, self.table
        j, acc = self._made, self._acc
        found = None
        while j < stop and found is None:
            if acc == y:
                found = j
            table.setdefault(acc, j)
            j, acc = j + 1, ctx._el_mul(acc, a)
        self._made, self._acc = j, acc
        if j == self.width:
            self.giant = ctx._el_inv(acc)
        return found

    def log(self, target: GElement, bound: int) -> int | None:
        """The smallest m < bound with base^m == target, or None. Giant
        steps multiply target by base^-width until it meets the table; the
        first hit is the least m, as the table keeps the least j per
        payload."""
        _same_group(self.base, target)
        y = target.value
        if self.giant is None:
            # the table is still growing: the steps made, then new ones
            j = self.table.get(y)
            if j is None:
                j = self._grow(y, min(bound, self.width))
            if j is not None:
                return j if j < bound else None
            if self.giant is None:
                return None  # every step below bound is made, and none is y
        mul, table, giant = self.base.group._el_mul, self.table, self.giant
        for i in range(0, bound, self.width):
            j = table.get(y)
            if j is not None:
                return i + j if i + j < bound else None
            y = mul(y, giant)
        return None


def is_in_subgroup_q(a: GElement, q: int) -> bool:
    """True iff a^q is the identity, i.e. a lies in the order-q subgroup."""
    if a.group.n % q != 0:
        raise ValueError(f"q={q} does not divide the group order {a.group.n}")
    return (a ** q).is_identity()


def element_from_text(text: str, ctx: GroupContext) -> GElement:
    return GElement(ctx, ctx._el_from_text(text))

