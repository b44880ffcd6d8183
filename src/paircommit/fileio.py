"""Line-oriented key=value files for every artifact the lab produces.

All integers are decimal strings; group elements use the text encodings
from the groups module. Each file kind has one exact field list, in a
fixed order, so that seeded runs are byte-identical and a file loads only
as it was written: an unknown or out-of-order field is MalformedText.
Secret key files embed the public key they belong to (xk = (ck, q),
tk = (ck, x)); public key files never carry p, q, or any secret exponent.
A group's n has at most MAX_ORDER_BITS bits and a curve's cofactor lies in
(0, COFACTOR_BOUND], both checked before any arithmetic, so a load tests
the primality of no number above 276 bits (the field prime, cofactor*n - 1).
"""

import os
from contextlib import contextmanager
from math import gcd

from .commitment import (
    BINDING,
    Commitment,
    CommitmentKey,
    ExtractionKey,
    HIDING,
    Opening,
    TrapdoorKey,
    WIProof,
    key_fields,
    key_fingerprint,
)
from .curve import COFACTOR_BOUND
from .errors import DeserializeError, InvalidKey, MalformedText, SecretKeyMismatch
from .forgery import CensusResult, ForgeryRecord
from .groups import (
    CURVE,
    CurveContext,
    GElement,
    GroupContext,
    TRANSPARENT,
    TransparentContext,
    _parse_int,
    element_from_text,
    point_from_text,
)

PathLike = str | os.PathLike

# the largest group order a file may give, in bits; params makes at most
# 128 (two 64-bit primes)
MAX_ORDER_BITS = 256


def write_kv(path: PathLike, fields: list[tuple[str, str]]) -> None:
    data = "".join(f"{k}={v}\n" for k, v in fields).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def parse_kv(text: str, where: str = "input") -> dict[str, str]:
    """Fields of text as write_kv writes it: key=value lines, each ended
    by a newline; no blank line, and nothing stripped."""
    *lines, tail = text.split("\n")
    if tail:
        raise MalformedText(f"{where}: no newline at end of file")
    fields: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        if "=" not in line:
            raise MalformedText(f"{where}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        if key in fields:
            raise MalformedText(f"{where}:{lineno}: duplicate field {key!r}")
        fields[key] = value
    return fields


def read_kv(path: PathLike) -> dict[str, str]:
    try:
        # bytes, not text mode, which would turn \r\n into \n
        with open(path, "rb") as fh:
            text = fh.read().decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedText(f"{path}: byte {exc.start} is not ASCII") from None
    return parse_kv(text, where=str(path))


def _read(path: PathLike, kind: str) -> tuple[dict[str, str], str]:
    where = str(path)
    fields = read_kv(path)
    got = _take(fields, "kind", where)
    if got != kind:
        raise MalformedText(f"{where}: expected kind={kind!r}, got kind={got!r}")
    return fields, where


def _take(fields: dict[str, str], key: str, where: str) -> str:
    if key not in fields:
        raise MalformedText(f"{where}: missing field {key!r}")
    return fields[key]


def _check_layout(fields: dict[str, str], written: list[tuple[str, str]],
                  where: str) -> None:
    """Refuse fields that are not the names the writer gives, in its order:
    each loader checks a file against the writer of the object it built."""
    got, names = list(fields), [key for key, _ in written]
    if got == names:
        return
    for key in got:
        if key not in names:
            raise MalformedText(f"{where}: unknown field {key!r}")
    for key in names:
        if key not in fields:
            raise MalformedText(f"{where}: missing field {key!r}")
    key, want = next((a, b) for a, b in zip(got, names) if a != b)
    raise MalformedText(f"{where}: field {key!r} is out of order, expected {want!r}")


@contextmanager
def _naming(where: str, key: str):
    """Prefix a DeserializeError with the file and field it came from."""
    try:
        yield
    except DeserializeError as exc:
        raise type(exc)(f"{where}: field {key!r}: {exc}") from None


def _take_int(fields: dict[str, str], key: str, where: str) -> int:
    raw = _take(fields, key, where)
    with _naming(where, key):
        return _parse_int(raw, raw)


def _take_element(fields: dict[str, str], key: str, where: str,
                  ctx: GroupContext) -> GElement:
    text = _take(fields, key, where)
    with _naming(where, key):
        return element_from_text(text, ctx)


# ---------------------------------------------------------------------------
# group contexts

def context_fields(ctx: GroupContext) -> list[tuple[str, str]]:
    """Full (factorization-carrying) context description."""
    if not ctx.knows_factorization:
        raise ValueError("context file needs the factorization")
    fields = [("backend", ctx.backend), ("p", str(ctx.p)), ("q", str(ctx.q))]
    if ctx.backend == CURVE:
        fields += [
            ("fprime", str(ctx.field_prime)),
            ("cofactor", str(ctx.cofactor)),
            ("g", ctx.g.to_text()),
        ]
    return fields


def save_context(path: PathLike, ctx: GroupContext) -> None:
    write_kv(path, context_fields(ctx))


def load_context(path: PathLike) -> GroupContext:
    where = str(path)
    fields = read_kv(path)
    p = _take_int(fields, "p", where)
    q = _take_int(fields, "q", where)
    ctx = _context_from_fields(fields, where, p * q, p, q)
    _check_layout(fields, context_fields(ctx), where)
    return ctx


def _context_from_fields(fields: dict[str, str], where: str, n: int,
                         p: int | None = None,
                         q: int | None = None) -> GroupContext:
    """The context a context file (n = p*q) or key file (n as written)
    describes; a group the constructor refuses is a DeserializeError. n and
    a curve's cofactor are bounded before any arithmetic, which bounds p,
    q and the field prime too."""
    backend = _take(fields, "backend", where)
    if n.bit_length() > MAX_ORDER_BITS:
        named = "field 'n'" if "n" in fields else "fields 'p' and 'q': n = p*q"
        raise MalformedText(f"{where}: {named} has {n.bit_length()} bits, "
                            f"above the bound of {MAX_ORDER_BITS}")
    try:
        if backend == TRANSPARENT:
            return TransparentContext(n, p, q)
        if backend == CURVE:
            fprime = _take_int(fields, "fprime", where)
            cofactor = _take_int(fields, "cofactor", where)
            if not 0 < cofactor <= COFACTOR_BOUND:
                raise MalformedText(f"{where}: field 'cofactor' is outside "
                                    f"(0, {COFACTOR_BOUND}]")
            g_text = _take(fields, "g", where)
            with _naming(where, "g"):
                return CurveContext(n, fprime, cofactor, point_from_text(g_text, fprime), p, q)
    except ValueError as exc:
        raise DeserializeError(f"{where}: {exc}") from None
    raise MalformedText(f"{where}: unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# keys

def _key_from_fields(fields: dict[str, str], where: str,
                     p: int | None = None, q: int | None = None) -> CommitmentKey:
    """The public key a key file lists."""
    mode = _take(fields, "mode", where)
    if mode not in (BINDING, HIDING):
        raise MalformedText(f"{where}: unknown mode {mode!r}")
    ctx = _context_from_fields(fields, where, _take_int(fields, "n", where), p, q)
    if ctx.backend == TRANSPARENT:
        # the curve backend's g is the context's own generator, checked as such
        g = _take_element(fields, "g", where, ctx)
        if g != ctx.g:
            raise InvalidKey(f"{where}: field 'g': a transparent key's generator "
                             f"is {ctx.g.to_text()}, got {g.to_text()}")
    return CommitmentKey(ctx, _take_element(fields, "h", where, ctx), mode)


def _commitment_key_fields(ck: CommitmentKey) -> list[tuple[str, str]]:
    return [("kind", "commitment-key")] + key_fields(ck)


def save_commitment_key(path: PathLike, ck: CommitmentKey) -> None:
    write_kv(path, _commitment_key_fields(ck))


def load_commitment_key(path: PathLike,
                        same_as: CommitmentKey | None = None) -> CommitmentKey:
    """The key the file lists. A file that lists exactly the key same_as,
    which its caller has already checked, loads as same_as, and no second
    context is built for it."""
    fields, where = _read(path, "commitment-key")
    if same_as is not None and list(fields.items()) == _commitment_key_fields(same_as):
        return same_as
    ck = _key_from_fields(fields, where)
    _check_layout(fields, _commitment_key_fields(ck), where)
    return ck


def _extraction_key_fields(xk: ExtractionKey) -> list[tuple[str, str]]:
    return [("kind", "extraction-key")] + key_fields(xk.ck) + [("q", str(xk.q))]


def save_extraction_key(path: PathLike, xk: ExtractionKey) -> None:
    write_kv(path, _extraction_key_fields(xk))


def load_extraction_key(path: PathLike) -> ExtractionKey:
    fields, where = _read(path, "extraction-key")
    mode = _take(fields, "mode", where)
    if mode != BINDING:
        # extract refuses a hiding key, but audit and census would take one
        # and print verdicts that mean nothing
        raise InvalidKey(f"{where}: field 'mode': an extraction key is "
                         f"{BINDING}, got {mode!r}")
    n = _take_int(fields, "n", where)
    q = _take_int(fields, "q", where)
    if q <= 1 or n % q != 0:
        raise MalformedText(f"{where}: q={q} does not divide n={n}")
    p = n // q
    if p >= q:
        raise MalformedText(f"{where}: q={q} is not the larger prime factor")
    ck = _key_from_fields(fields, where, p=p, q=q)
    with _naming(where, "h"):
        xk = ExtractionKey(ck, q)
    _check_layout(fields, _extraction_key_fields(xk), where)
    return xk


def _trapdoor_key_fields(tk: TrapdoorKey) -> list[tuple[str, str]]:
    return [("kind", "trapdoor-key")] + key_fields(tk.ck) + [("x", str(tk.x))]


def save_trapdoor_key(path: PathLike, tk: TrapdoorKey) -> None:
    write_kv(path, _trapdoor_key_fields(tk))


def load_trapdoor_key(path: PathLike) -> TrapdoorKey:
    fields, where = _read(path, "trapdoor-key")
    x = _take_int(fields, "x", where)
    ck = _key_from_fields(fields, where)
    with _naming(where, "x"):
        if gcd(x, ck.context.n) != 1:
            raise SecretKeyMismatch(f"x={x} shares a factor with n={ck.context.n}")
        if ck.context.g ** x != ck.h:
            raise SecretKeyMismatch(f"g^{x} is not the key's h")
    tk = TrapdoorKey(ck, x)
    _check_layout(fields, _trapdoor_key_fields(tk), where)
    return tk


# ---------------------------------------------------------------------------
# protocol artifacts: a kind/n/key header, then the body

def _artifact(kind: str, ck: CommitmentKey, key_fp: str,
              body: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [("kind", kind), ("n", str(ck.context.n)), ("key", key_fp)] + body


def _read_artifact(path: PathLike, kind: str,
                   ck: CommitmentKey) -> tuple[dict[str, str], str]:
    """Fields of an artifact file whose header matches ck."""
    fields, where = _read(path, kind)
    n = _take_int(fields, "n", where)
    if n != ck.context.n:
        raise MalformedText(f"{where}: group order {n} does not match the key's {ck.context.n}")
    tag = _take(fields, "key", where)
    if tag != key_fingerprint(ck):
        raise MalformedText(f"{where}: key fingerprint {tag} does not match the supplied key")
    return fields, where


def _commitment_fields(com: Commitment, ck: CommitmentKey) -> list[tuple[str, str]]:
    return _artifact("commitment", ck, com.key_fp, [("c", com.c.to_text())])


def save_commitment(path: PathLike, com: Commitment, ck: CommitmentKey) -> None:
    write_kv(path, _commitment_fields(com, ck))


def load_commitment(path: PathLike, ck: CommitmentKey) -> Commitment:
    fields, where = _read_artifact(path, "commitment", ck)
    com = Commitment(_take_element(fields, "c", where, ck.context), fields["key"])
    _check_layout(fields, _commitment_fields(com, ck), where)
    return com


def _proof_fields(proof: WIProof, ck: CommitmentKey) -> list[tuple[str, str]]:
    return _artifact("proof", ck, proof.key_fp, [("pi", proof.pi.to_text())])


def save_proof(path: PathLike, proof: WIProof, ck: CommitmentKey) -> None:
    write_kv(path, _proof_fields(proof, ck))


def load_proof(path: PathLike, ck: CommitmentKey) -> WIProof:
    fields, where = _read_artifact(path, "proof", ck)
    proof = WIProof(_take_element(fields, "pi", where, ck.context), fields["key"])
    _check_layout(fields, _proof_fields(proof, ck), where)
    return proof


def _opening_fields(opening: Opening) -> list[tuple[str, str]]:
    return [("kind", "opening"), ("m", str(opening.m)), ("r", str(opening.r))]


def save_opening(path: PathLike, opening: Opening) -> None:
    write_kv(path, _opening_fields(opening))


def load_opening(path: PathLike) -> Opening:
    fields, where = _read(path, "opening")
    opening = Opening(_take_int(fields, "m", where), _take_int(fields, "r", where))
    _check_layout(fields, _opening_fields(opening), where)
    return opening


def _forgery_fields(rec: ForgeryRecord, ck: CommitmentKey) -> list[tuple[str, str]]:
    return _artifact("forgery", ck, rec.c.key_fp, [
        ("k_a", str(rec.k_a)),
        ("ell", str(rec.ell)),
        ("alpha1", str(rec.alpha1)),
        ("alpha2", str(rec.alpha2)),
        ("beta1", str(rec.beta1)),
        ("beta2", str(rec.beta2)),
        ("c", rec.c.c.to_text()),
        ("pi", rec.pi.pi.to_text()),
    ])


def save_forgery(path: PathLike, rec: ForgeryRecord, ck: CommitmentKey) -> None:
    write_kv(path, _forgery_fields(rec, ck))


def load_forgery(path: PathLike, ck: CommitmentKey) -> ForgeryRecord:
    fields, where = _read_artifact(path, "forgery", ck)
    c = _take_element(fields, "c", where, ck.context)
    pi = _take_element(fields, "pi", where, ck.context)
    tag = fields["key"]
    rec = ForgeryRecord(
        k_a=_take_int(fields, "k_a", where),
        ell=_take_int(fields, "ell", where),
        alpha1=_take_int(fields, "alpha1", where),
        alpha2=_take_int(fields, "alpha2", where),
        beta1=_take_int(fields, "beta1", where),
        beta2=_take_int(fields, "beta2", where),
        c=Commitment(c, tag),
        pi=WIProof(pi, tag),
    )
    _check_layout(fields, _forgery_fields(rec, ck), where)
    return rec


def census_lines(result: CensusResult) -> list[str]:
    """A row per c, or above CENSUS_MAX_ORDER a line per residue of c mod p
    and mod q: c = g^e accepts the product of its two residues' counts."""
    lines = [f"n={result.n}"]
    if result.rows is None:
        lines += [f"c_mod_p={a} accepting_pi_count_p={count} verdict={label}"
                  for a, (count, label) in enumerate(zip(result.p_counts, result.p_labels))]
        lines += [f"c_mod_q={b} accepting_pi_count_q={count}"
                  for b, count in enumerate(result.q_counts)]
    else:
        lines += [f"c={row.c_exp} accepting_pi_count={row.accepting_pi_count} "
                  f"verdict={row.verdict_label}" for row in result.rows]
    lines.append(f"accepting_pairs={result.accepting_pairs}")
    for label in ("CommitsTo0", "CommitsTo1", "Invalid"):
        lines.append(f"accepting_c_{label}={result.accepting_c_by_verdict[label]}")
    return lines
