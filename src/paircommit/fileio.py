"""Line-oriented key=value files for every artifact the lab produces.

All integers are decimal strings; group elements use the text encodings
from the groups module. Field order is fixed per file kind so that
seeded runs are byte-identical. Secret key files embed the public key
they belong to (xk = (ck, q), tk = (ck, x)); public key files never
carry p, q, or any secret exponent.
"""

from contextlib import contextmanager
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

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
from .errors import DeserializeError, InvalidKey, MalformedText, SecretKeyMismatch
from .forgery import CensusResult, ForgeryRecord, Verdict
from .groups import (
    CURVE,
    CurveContext,
    GElement,
    GroupContext,
    TRANSPARENT,
    TransparentContext,
    element_from_text,
    point_from_text,
)

PathLike = Union[str, Path]


def format_kv(fields: List[Tuple[str, str]]) -> str:
    return "".join(f"{k}={v}\n" for k, v in fields)


def write_kv(path: PathLike, fields: List[Tuple[str, str]]) -> None:
    Path(path).write_text(format_kv(fields), encoding="ascii")


def parse_kv(text: str, where: str = "input") -> Dict[str, str]:
    fields: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedText(f"{where}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        if key in fields:
            raise MalformedText(f"{where}:{lineno}: duplicate field {key!r}")
        fields[key] = value
    return fields


def read_kv(path: PathLike) -> Dict[str, str]:
    return parse_kv(Path(path).read_text(encoding="ascii"), where=str(path))


def _read(path: PathLike, kind: str) -> Tuple[Dict[str, str], str]:
    where = str(path)
    fields = read_kv(path)
    got = _take(fields, "kind", where)
    if got != kind:
        raise MalformedText(f"{where}: expected kind={kind}, got kind={got}")
    return fields, where


def _take(fields: Dict[str, str], key: str, where: str) -> str:
    if key not in fields:
        raise MalformedText(f"{where}: missing field {key!r}")
    return fields[key]


def _take_int(fields: Dict[str, str], key: str, where: str) -> int:
    raw = _take(fields, key, where)
    try:
        return int(raw, 10)
    except ValueError:
        raise MalformedText(f"{where}: field {key!r} is not a decimal integer") from None


@contextmanager
def _naming(where: str, key: str):
    """Prefix a DeserializeError with the file and field it came from."""
    try:
        yield
    except DeserializeError as exc:
        raise type(exc)(f"{where}: field {key!r}: {exc}") from None


def _take_element(fields: Dict[str, str], key: str, where: str,
                  ctx: GroupContext) -> GElement:
    text = _take(fields, key, where)
    with _naming(where, key):
        return element_from_text(text, ctx)


# ---------------------------------------------------------------------------
# group contexts

def context_fields(ctx: GroupContext) -> List[Tuple[str, str]]:
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
    return _context_from_fields(fields, where, p * q, p, q)


def _context_from_fields(fields: Dict[str, str], where: str, n: int,
                         p: Optional[int] = None,
                         q: Optional[int] = None) -> GroupContext:
    """The context a context file (n = p*q) or key file (n as written)
    describes; a group the constructor refuses is a DeserializeError."""
    backend = _take(fields, "backend", where)
    try:
        if backend == TRANSPARENT:
            return TransparentContext(n, p, q)
        if backend == CURVE:
            fprime = _take_int(fields, "fprime", where)
            cofactor = _take_int(fields, "cofactor", where)
            g_text = _take(fields, "g", where)
            with _naming(where, "g"):
                return CurveContext(n, fprime, cofactor, point_from_text(g_text, fprime), p, q)
    except ValueError as exc:
        raise DeserializeError(f"{where}: {exc}") from None
    raise MalformedText(f"{where}: unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# keys

def _key_from_fields(fields: Dict[str, str], where: str,
                     p: Optional[int] = None, q: Optional[int] = None) -> CommitmentKey:
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


def save_commitment_key(path: PathLike, ck: CommitmentKey) -> None:
    write_kv(path, [("kind", "commitment-key")] + key_fields(ck))


def load_commitment_key(path: PathLike) -> CommitmentKey:
    fields, where = _read(path, "commitment-key")
    return _key_from_fields(fields, where)


def save_extraction_key(path: PathLike, xk: ExtractionKey) -> None:
    write_kv(path, [("kind", "extraction-key")] + key_fields(xk.ck) + [("q", str(xk.q))])


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
        return ExtractionKey(ck, q)


def save_trapdoor_key(path: PathLike, tk: TrapdoorKey) -> None:
    write_kv(path, [("kind", "trapdoor-key")] + key_fields(tk.ck) + [("x", str(tk.x))])


def load_trapdoor_key(path: PathLike) -> TrapdoorKey:
    fields, where = _read(path, "trapdoor-key")
    x = _take_int(fields, "x", where)
    ck = _key_from_fields(fields, where)
    with _naming(where, "x"):
        if gcd(x, ck.context.n) != 1:
            raise SecretKeyMismatch(f"x={x} shares a factor with n={ck.context.n}")
        if ck.context.g ** x != ck.h:
            raise SecretKeyMismatch(f"g^{x} is not the key's h")
    return TrapdoorKey(ck, x)


# ---------------------------------------------------------------------------
# protocol artifacts: a kind/n/key header, then the body

def _artifact(kind: str, ck: CommitmentKey, key_fp: str,
              body: List[Tuple[str, str]]) -> List[Tuple[str, str]]:
    return [("kind", kind), ("n", str(ck.context.n)), ("key", key_fp)] + body


def _read_artifact(path: PathLike, kind: str,
                   ck: CommitmentKey) -> Tuple[Dict[str, str], str]:
    """Fields of an artifact file whose header matches ck."""
    fields, where = _read(path, kind)
    n = _take_int(fields, "n", where)
    if n != ck.context.n:
        raise MalformedText(f"{where}: group order {n} does not match the key's {ck.context.n}")
    tag = _take(fields, "key", where)
    if tag != key_fingerprint(ck):
        raise MalformedText(f"{where}: key fingerprint {tag} does not match the supplied key")
    return fields, where


def save_commitment(path: PathLike, com: Commitment, ck: CommitmentKey) -> None:
    write_kv(path, _artifact("commitment", ck, com.key_fp, [("c", com.c.to_text())]))


def load_commitment(path: PathLike, ck: CommitmentKey) -> Commitment:
    fields, where = _read_artifact(path, "commitment", ck)
    return Commitment(_take_element(fields, "c", where, ck.context), fields["key"])


def save_proof(path: PathLike, proof: WIProof, ck: CommitmentKey) -> None:
    write_kv(path, _artifact("proof", ck, proof.key_fp, [("pi", proof.pi.to_text())]))


def load_proof(path: PathLike, ck: CommitmentKey) -> WIProof:
    fields, where = _read_artifact(path, "proof", ck)
    return WIProof(_take_element(fields, "pi", where, ck.context), fields["key"])


def save_opening(path: PathLike, opening: Opening) -> None:
    write_kv(path, [
        ("kind", "opening"),
        ("m", str(opening.m)),
        ("r", str(opening.r)),
    ])


def load_opening(path: PathLike) -> Opening:
    fields, where = _read(path, "opening")
    return Opening(_take_int(fields, "m", where), _take_int(fields, "r", where))


def save_forgery(path: PathLike, rec: ForgeryRecord, ck: CommitmentKey) -> None:
    write_kv(path, _artifact("forgery", ck, rec.c.key_fp, [
        ("k_a", str(rec.k_a)),
        ("ell", str(rec.ell)),
        ("alpha1", str(rec.alpha1)),
        ("alpha2", str(rec.alpha2)),
        ("beta1", str(rec.beta1)),
        ("beta2", str(rec.beta2)),
        ("c", rec.c.c.to_text()),
        ("pi", rec.pi.pi.to_text()),
    ]))


def load_forgery(path: PathLike, ck: CommitmentKey) -> ForgeryRecord:
    fields, where = _read_artifact(path, "forgery", ck)
    c = _take_element(fields, "c", where, ck.context)
    pi = _take_element(fields, "pi", where, ck.context)
    tag = fields["key"]
    return ForgeryRecord(
        k_a=_take_int(fields, "k_a", where),
        ell=_take_int(fields, "ell", where),
        alpha1=_take_int(fields, "alpha1", where),
        alpha2=_take_int(fields, "alpha2", where),
        beta1=_take_int(fields, "beta1", where),
        beta2=_take_int(fields, "beta2", where),
        c=Commitment(c, tag),
        pi=WIProof(pi, tag),
    )


def verdict_fields(verdict: Verdict) -> List[Tuple[str, str]]:
    return [
        ("verdict", verdict.label),
        ("c_in_gq", "true" if verdict.c_in_gq else "false"),
        ("c_over_g_in_gq", "true" if verdict.c_over_g_in_gq else "false"),
    ]


def census_lines(result: CensusResult) -> List[str]:
    lines = [f"n={result.n}"]
    for row in result.rows:
        lines.append(
            f"c={row.c_exp} accepting_pi_count={row.accepting_pi_count} "
            f"verdict={row.verdict_label}")
    lines.append(f"accepting_pairs={result.accepting_pairs}")
    for label in ("CommitsTo0", "CommitsTo1", "Invalid"):
        lines.append(f"accepting_c_{label}={result.accepting_c_by_verdict[label]}")
    return lines
