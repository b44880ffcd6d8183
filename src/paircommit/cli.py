"""Command-line front end: file-based, reproducible workflows.

Every artifact (context, keys, commitments, proofs, forgery records,
census tables) is a line-oriented key=value text file, so runs are
inspectable and diffable. A --seed pins the Mersenne Twister rng
(random.Random) and makes outputs byte-identical across runs.

Exit codes: 0 success / proof accepted, 1 proof rejected or selftest
failure, 2 malformed input or usage error, 3 an unexpected error (a fault
of the program, never a reject).

A call that names a command parses the rest with build_parser(command),
that command's parser alone. With no command, or an argument the command
does not take, the full parser parses the call again, so help and usage
errors read byte for byte as from the parser with every command.
"""

import argparse
import random
import sys

from . import fileio
from .arith import gen_prime
from .commitment import (
    BINDING,
    DEFAULT_EXTRACT_BOUND,
    ExtractionKey,
    HIDING,
    Opening,
    binding_keygen,
    commit,
    extract,
    hiding_keygen,
    key_fingerprint,
    trapdoor_open,
    verify,
    wi_prove,
)
from .errors import PairCommitError
from .forgery import accepting_census, audit, claim_report, forge
from .groups import CURVE, TRANSPARENT, setup_curve, setup_transparent


def cmd_params(args) -> int:
    for name, bits in (("--bits-p", args.bits_p), ("--bits-q", args.bits_q)):
        if not 2 <= bits <= 64:
            raise ValueError(f"{name} must lie in [2, 64], got {bits}")
    if args.bits_p == args.bits_q == 2:
        raise ValueError("--bits-p and --bits-q cannot both be 2: p and q must differ, "
                         "and 3 is the only odd 2-bit prime")
    rng = random.Random(args.seed)
    p = gen_prime(args.bits_p, rng)
    q = gen_prime(args.bits_q, rng)
    while q == p:
        q = gen_prime(args.bits_q, rng)
    if p > q:
        p, q = q, p
    if args.backend == TRANSPARENT:
        ctx = setup_transparent(p, q)
    else:
        ctx = setup_curve(p, q, rng)
    fileio.save_context(args.out, ctx)
    print(f"backend={ctx.backend}")
    print(f"p={ctx.p}")
    print(f"q={ctx.q}")
    print(f"n={ctx.n}")
    if ctx.backend == CURVE:
        print(f"fprime={ctx.field_prime}")
        print(f"cofactor={ctx.cofactor}")
    return 0


def cmd_keygen(args) -> int:
    rng = random.Random(args.seed)
    ctx = fileio.load_context(args.context)
    if args.mode == BINDING:
        ck, xk = binding_keygen(ctx, rng)
        fileio.save_extraction_key(args.out_secret, xk)
    else:
        ck, tk = hiding_keygen(ctx, rng)
        fileio.save_trapdoor_key(args.out_secret, tk)
    fileio.save_commitment_key(args.out_ck, ck)
    print(f"mode={ck.mode}")
    print(f"key={key_fingerprint(ck)}")
    return 0


def cmd_commit(args) -> int:
    ck = fileio.load_commitment_key(args.ck)
    r = args.r if args.r is not None else random.Random(args.seed).randrange(ck.context.n)
    com = commit(ck, args.m, r)
    fileio.save_commitment(args.out, com, ck)
    if args.out_opening:
        fileio.save_opening(args.out_opening, Opening(args.m, r % ck.context.n))
    print(f"c={com.c.to_text()}")
    return 0


def cmd_prove(args) -> int:
    ck = fileio.load_commitment_key(args.ck)
    opening = fileio.load_opening(args.opening)
    proof = wi_prove(ck, opening.m, opening.r)
    fileio.save_proof(args.out, proof, ck)
    print(f"pi={proof.pi.to_text()}")
    return 0


def cmd_verify(args) -> int:
    ck = fileio.load_commitment_key(args.ck)
    com = fileio.load_commitment(args.commitment, ck)
    proof = fileio.load_proof(args.proof, ck)
    ok = verify(ck, com, proof)
    print("accept" if ok else "reject")
    return 0 if ok else 1


def cmd_extract(args) -> int:
    xk = fileio.load_extraction_key(args.secret)
    com = fileio.load_commitment(args.commitment, xk.ck)
    m = extract(xk, com, bound=args.bound)
    print(f"m={m}")
    return 0


def cmd_open(args) -> int:
    tk = fileio.load_trapdoor_key(args.secret)
    com = fileio.load_commitment(args.commitment, tk.ck)
    current = fileio.load_opening(args.opening)
    new_opening = trapdoor_open(tk, com, current, args.m_new)
    fileio.save_opening(args.out, new_opening)
    print(f"m={new_opening.m}")
    print(f"r={new_opening.r}")
    return 0


def _owned_extraction_key(args) -> ExtractionKey:
    """The --secret extraction key, checked to belong to the --ck public key.

    A --ck file that lists exactly the secret's public key loads as that
    key, already checked, so no second context is built for it. Any other
    file that loads lists other fields, since a loaded file re-saves to its
    own bytes, so it is another key.
    """
    xk = fileio.load_extraction_key(args.secret)
    if fileio.load_commitment_key(args.ck, same_as=xk.ck) is not xk.ck:
        raise PairCommitError("secret file does not belong to the public key")
    return xk


def cmd_forge(args) -> int:
    xk = _owned_extraction_key(args)
    ctx = xk.ck.context
    rec = forge(xk.ck, ctx.p, ctx.q, beta1=args.beta1, rng=random.Random(args.seed))
    fileio.save_forgery(args.out, rec, xk.ck)
    report = claim_report(rec, xk.ck, ctx.p, ctx.q)
    for line in report.lines():
        print(line)
    return 0


def cmd_audit(args) -> int:
    xk = _owned_extraction_key(args)
    com = fileio.load_commitment(args.commitment, xk.ck)
    verdict = audit(xk.q, xk.ck, com)
    print(f"verdict={verdict.label}")
    for line in verdict.lines():
        print(line)
    print(f"c_pow_q={verdict.c_pow_q.to_text()}")
    print(f"c_over_g_pow_q={verdict.c_over_g_pow_q.to_text()}")
    return 0


def cmd_census(args) -> int:
    xk = _owned_extraction_key(args)
    result = accepting_census(xk.ck.context, xk.ck)
    lines = fileio.census_lines(result)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # imported by this command alone
    results = run_selftest(seed=args.seed)
    for name, ok, detail in results:
        print(f"PASS {name}" if ok else f"FAIL {name}: {detail}")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


_REQUIRED = {"required": True}
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_KEY_FILE = {"required": True, "help": "extraction key file"}

# name -> (help line, command function, {flag: add_argument keywords})
_COMMANDS = {
    "params": ("generate group parameters", cmd_params, {
        "--bits-p": _REQUIRED_INT, "--bits-q": _REQUIRED_INT,
        "--backend": {"choices": (TRANSPARENT, CURVE), "required": True},
        "--seed": _INT,
        "--out": {"required": True, "help": "context file to write"}}),
    "keygen": ("generate a commitment key pair", cmd_keygen, {
        "--mode": {"choices": (BINDING, HIDING), "required": True},
        "--context": _REQUIRED, "--out-ck": _REQUIRED, "--out-secret": _REQUIRED,
        "--seed": _INT}),
    "commit": ("commit to a message", cmd_commit, {
        "--ck": _REQUIRED, "--m": _REQUIRED_INT,
        "--r": {"type": int, "help": "randomizer; sampled when omitted"},
        "--seed": _INT, "--out": _REQUIRED, "--out-opening": {}}),
    "prove": ("prove a commitment opens to 0 or 1", cmd_prove,
              {"--ck": _REQUIRED, "--opening": _REQUIRED, "--out": _REQUIRED}),
    "verify": ("check a proof (exit 0 accept, 1 reject)", cmd_verify,
               {"--ck": _REQUIRED, "--commitment": _REQUIRED, "--proof": _REQUIRED}),
    "extract": ("recover the message with the extraction key", cmd_extract, {
        "--secret": _KEY_FILE, "--commitment": _REQUIRED,
        "--bound": {"type": int, "default": DEFAULT_EXTRACT_BOUND}}),
    "open": ("re-open a hiding commitment via the trapdoor", cmd_open, {
        "--secret": {"required": True, "help": "trapdoor key file"},
        "--commitment": _REQUIRED, "--opening": _REQUIRED,
        "--m-new": _REQUIRED_INT, "--out": _REQUIRED}),
    "forge": ("build an accepting proof from the factorization", cmd_forge, {
        "--ck": _REQUIRED, "--secret": _KEY_FILE, "--beta1": _INT,
        "--seed": _INT, "--out": _REQUIRED}),
    "audit": ("classify a commitment with the subgroup probes", cmd_audit,
              {"--secret": _KEY_FILE, "--ck": _REQUIRED, "--commitment": _REQUIRED}),
    "census": ("count the accepting pi of every c, with its audit verdict", cmd_census,
               {"--ck": _REQUIRED, "--secret": _KEY_FILE, "--out": {}}),
    "selftest": ("check every claim of the lab at small primes", cmd_selftest,
                 {"--seed": {"type": int, "default": 1}}),
}


def _command_arguments(parser: argparse.ArgumentParser,
                       name: str) -> argparse.ArgumentParser:
    """parser, given command name's flags and defaults (func, command)."""
    _, func, arguments = _COMMANDS[name]
    for flag, keywords in arguments.items():
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=func, command=name)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of command's arguments, or with no command the full one.

    A command's parser is the sub-parser the full parser makes for it, on
    its own: prog "paircommit <command>", the arguments after the command
    name. Anything else (none, a wrong command) gets the full parser."""
    if command in _COMMANDS:
        return _command_arguments(argparse.ArgumentParser(prog=f"paircommit {command}"),
                                  command)
    parser = argparse.ArgumentParser(
        prog="paircommit",
        description="composite-order pairing commitment lab: honest protocol, "
                    "forgery, and audit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        named = bool(argv) and argv[0] in _COMMANDS
        if named:
            args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if not named or rest:
            # no command, or an argument the command does not take: the
            # full parser prints the help or error of paircommit itself
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (PairCommitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program must not read as exit 1, a reject
        print(f"error: {exc!r}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
