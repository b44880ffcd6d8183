"""The benchmark's three workloads.

Each workload is built from a seed by its constructor (the set-up the
benchmark times) and then runs identical rounds: ``round(rec, span)``
performs every operation of the workload once, checks each output
against a value fixed in set-up, and returns a ``RoundStats``. Library
calls go through module attributes (``pc.verify``, ``cli.main``), so
the tracer in ``spans`` sees them when it is installed.

Expected values come from the scheme's closed forms wherever one
exists: on a binding key over a transparent context the commitment to
exponent e is CommitsTo0 iff p | e and CommitsTo1 iff p | e - 1, a
census row accepts exactly p proofs when it is valid and none
otherwise, and the forgery's c always has exponent 1 mod p.
"""

import contextlib
import io
import os
import random
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

import paircommit as pc
from paircommit import cli, fileio

# scratch files of the CLI session live in the checkout, never outside it
WORK_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         ".bench_work")

# (full size, smoke size) of every workload
PROTOCOL_BITS = ((16, 32, 64), (8, 12))
# two keys per size average out how the cost varies with the primes drawn
PROTOCOL_KEYS_PER_SIZE = (2, 1)
PROTOCOL_MIX = {"honest": 3, "forged": 1, "tampered": 1}  # items per key
# share of protocol items whose decision is also taken on the transparent backend
CROSS_CHECK_SHARE = 1 / 3
CENSUS_BAND = ((4000, 4096), (200, 256))
AUDITS_PER_ROUND = (1000, 40)
# extraction contexts have p just below each of these
EXTRACT_TARGETS = ((2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15, 2 ** 16), (2 ** 6, 2 ** 8))
EXTRACTS_PER_TARGET = (20, 4)
CLI_BITS = (32, 12)
# messages committed for `extract` in the CLI session; the scan is linear in m
CLI_EXTRACT_M = ((200, 232), (20, 30))

MAX_REPORTED_FAILURES = 5


def _no_span(name):
    return contextlib.nullcontext()


def rate(count, seconds):
    return count / seconds if seconds else 0.0


@dataclass
class RoundStats:
    ops: int  # primary operations completed in the round
    ops_seconds: float  # time spent in them
    batch_seconds: float  # the workload's one big job (see README)
    latencies: List[float]  # seconds per latency-timed call
    named: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self):
        return rate(self.ops, self.ops_seconds)


class Recorder:
    """Checked outcomes of every round of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"mismatch: {what}", file=sys.stderr)

    def exception(self, what):
        self.attempted += 1
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"exception in {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def prime_pair(bits, rng):
    """Two distinct primes of the given size, smaller first."""
    p = pc.gen_prime(bits, rng)
    q = pc.gen_prime(bits, rng)
    while q == p:
        q = pc.gen_prime(bits, rng)
    return min(p, q), max(p, q)


def prime_in(lo, hi, rng):
    """A random prime in [lo, hi)."""
    while True:
        cand = rng.randrange(lo, hi) | 1
        if cand < hi and pc.is_probable_prime(cand):
            return cand


def audit_label(e, p):
    """Audit verdict of g^e under a binding key, from the exponent alone."""
    if e % p == 0:
        return pc.COMMITS_TO_0
    if e % p == 1:
        return pc.COMMITS_TO_1
    return pc.INVALID


# ---------------------------------------------------------------------------
# protocol-curve

@dataclass
class ProofItem:
    ck: pc.CommitmentKey
    p: int
    q: int
    kind: str
    m: int
    r: int
    beta1: int
    transparent: Optional[bool] = None  # decision on the transparent twin

    @property
    def expected(self):
        return self.kind != "tampered"


def prove_and_verify(item, ck):
    """Make the item's (c, pi) under ck and verify it: (decision, verify seconds)."""
    if item.kind == "forged":
        record = pc.forge(ck, item.p, item.q, beta1=item.beta1)
        c, proof = record.c, record.pi
    else:
        c = pc.commit(ck, item.m, item.r)
        proof = pc.wi_prove(ck, item.m, item.r)
        if item.kind == "tampered":
            proof = pc.WIProof(proof.pi * ck.context.g, proof.key_fp)
    start = perf_counter()
    decision = pc.verify(ck, c, proof)
    return decision, perf_counter() - start


class ProtocolCurve:
    """Honest, forged and tampered commit/prove/verify on the curve backend."""

    def __init__(self, seed, smoke=False):
        rng = random.Random(f"protocol-curve:{seed}")
        self.items = []
        for bits in PROTOCOL_BITS[smoke]:
            for _ in range(PROTOCOL_KEYS_PER_SIZE[smoke]):
                self._add_key(bits, rng)
        rng.shuffle(self.items)

    def _add_key(self, bits, rng):
        p, q = prime_pair(bits, rng)
        x = rng.randrange(1, q)
        ck, _ = pc.binding_key_from_exponent(pc.setup_curve(p, q, rng), x)
        twin, _ = pc.binding_key_from_exponent(pc.setup_transparent(p, q), x)
        n = p * q
        for kind, count in PROTOCOL_MIX.items():
            for _ in range(count):
                item = ProofItem(ck, p, q, kind, rng.randrange(2), rng.randrange(n),
                                 rng.randrange(1, n))
                if rng.random() < CROSS_CHECK_SHARE:
                    item.transparent = prove_and_verify(item, twin)[0]
                self.items.append(item)

    def round(self, rec, span=_no_span):
        round_start = perf_counter()
        busy, done, latencies = 0.0, 0, []
        for item in self.items:
            start = perf_counter()
            try:
                with span("bench.proof_item"):
                    decision, verify_s = prove_and_verify(item, item.ck)
            except Exception:
                rec.exception(f"{item.kind} item at n={item.p * item.q}")
                continue
            busy += perf_counter() - start
            done += 1
            latencies.append(verify_s)
            rec.check(decision == item.expected and item.transparent in (None, decision),
                      f"{item.kind} item at n={item.p * item.q}: curve={decision} "
                      f"transparent={item.transparent} expected={item.expected}")
        wall = perf_counter() - round_start
        return RoundStats(done, busy, wall, latencies)

    def close(self):
        pass

    @staticmethod
    def named(rounds, p50, tail):
        return [
            ("proofs_per_s", median(r.ops_per_s for r in rounds), "1/s"),
            ("verify_p50_ms", p50, "ms"),
            ("verify_tail_ms", tail, "ms"),
        ]


# ---------------------------------------------------------------------------
# audit-transparent

@dataclass
class ExtractItem:
    xk: pc.ExtractionKey
    c: pc.Commitment
    m: int


class AuditTransparent:
    """The parameter holder's side: forge/claim_report/audit, extract, census."""

    def __init__(self, seed, smoke=False):
        rng = random.Random(f"audit-transparent:{seed}")
        lo, hi = CENSUS_BAND[smoke]
        primes = [k for k in range(3, hi // 3 + 1) if pc.is_probable_prime(k)]
        pairs = [(p, q) for p in primes for q in primes if p < q and lo <= p * q <= hi]
        p, q = rng.choice(pairs)
        self.p, self.q, self.n = p, q, p * q
        self.ctx = pc.setup_transparent(p, q)
        self.ck, _ = pc.binding_keygen(self.ctx, rng)
        key_fp = pc.key_fingerprint(self.ck)
        self.audits = []
        for _ in range(AUDITS_PER_ROUND[smoke]):
            e = rng.randrange(self.n)
            probe = pc.Commitment(self.ctx.element(e), key_fp)
            self.audits.append((rng.randrange(1, self.n), probe, audit_label(e, p)))
        self.extracts = []
        per_target = EXTRACTS_PER_TARGET[smoke]
        for target in EXTRACT_TARGETS[smoke]:
            ep = prime_in(target - target // 16, target, rng)
            eq = pc.gen_prime(target.bit_length() + 1, rng)
            ectx = pc.setup_transparent(ep, eq)
            eck, exk = pc.binding_keygen(ectx, rng)
            for i in range(per_target):
                # stratified over [0, p) so every seed sees the same spread of m
                m = int(ep * (i + rng.random()) / per_target)
                c = pc.commit(eck, m, rng.randrange(ectx.n))
                self.extracts.append(ExtractItem(exk, c, m))
        rng.shuffle(self.extracts)

    def _census_ok(self, result):
        p, q, n = self.p, self.q, self.n
        if result.n != n or len(result.rows) != n:
            return False
        for e, row in enumerate(result.rows):
            label = audit_label(e, p)
            count = 0 if label == pc.INVALID else p
            if (row.c_exp, row.accepting_pi_count, row.verdict_label) != (e, count, label):
                return False
        return (result.accepting_pairs == 2 * n and result.accepting_c_by_verdict
                == {pc.COMMITS_TO_0: q, pc.COMMITS_TO_1: q, pc.INVALID: 0})

    def _audit_item(self, beta1, probe):
        p, q, ck = self.p, self.q, self.ck
        record = pc.forge(ck, p, q, beta1=beta1)
        report = pc.claim_report(record, ck, p, q)
        forged = pc.audit(q, ck, record.c)
        return report, forged, pc.audit(q, ck, probe)

    def round(self, rec, span=_no_span):
        start = perf_counter()
        try:
            with span("bench.census"):
                result = pc.accepting_census(self.ctx, self.ck)
            census_s = perf_counter() - start
            rec.check(self._census_ok(result), f"census at n={self.n}")
        except Exception:
            census_s = perf_counter() - start
            rec.exception(f"census at n={self.n}")

        audit_s, audits = 0.0, 0
        for beta1, probe, label in self.audits:
            start = perf_counter()
            try:
                with span("bench.audit_item"):
                    report, forged, probed = self._audit_item(beta1, probe)
            except Exception:
                rec.exception(f"audit item beta1={beta1}")
                continue
            audit_s += perf_counter() - start
            audits += 1
            rec.check(report.verification_passes and not report.alpha1_is_bit
                      and not report.g_alpha1_in_gq
                      and report.verdict.label == forged.label == pc.COMMITS_TO_1
                      and probed.label == label,
                      f"audit item beta1={beta1}: {report} {forged} {probed} want {label}")

        extract_s, extracts, latencies = 0.0, 0, []
        for item in self.extracts:
            start = perf_counter()
            try:
                with span("bench.extract"):
                    m = pc.extract(item.xk, item.c)
            except Exception:
                rec.exception(f"extract of m={item.m}")
                continue
            elapsed = perf_counter() - start
            extract_s += elapsed
            extracts += 1
            latencies.append(elapsed)
            rec.check(m == item.m, f"extract gave m={m}, committed m={item.m}")
        return RoundStats(audits, audit_s, census_s, latencies,
                          {"extracts": extracts, "extract_s": extract_s})

    def close(self):
        pass

    @staticmethod
    def named(rounds, p50, tail):
        return [
            ("audits_per_s", median(r.ops_per_s for r in rounds), "1/s"),
            ("extracts_per_s",
             median(rate(r.named["extracts"], r.named["extract_s"]) for r in rounds), "1/s"),
            ("extract_p50_ms", p50, "ms"),
            ("census_s", median([r.batch_seconds for r in rounds]), "s"),
        ]


# ---------------------------------------------------------------------------
# cli-session

@dataclass
class CliStep:
    argv: List[str]
    code: int
    lines: List[str]  # expected leading lines of stdout


class CliSession:
    """A scripted file-based session of in-process `cli.main` calls."""

    def __init__(self, seed, smoke=False):
        rng = random.Random(f"cli-session:{seed}")
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=WORK_ROOT)
        try:
            self.steps = self._script(rng, smoke)
        except BaseException:
            self.close()
            raise

    def _script(self, rng, smoke):
        def path(name):
            return os.path.join(self.dir, name)

        p, q = prime_pair(CLI_BITS[smoke], rng)
        ctx = pc.setup_curve(p, q, rng)
        n = ctx.n
        fileio.save_context(path("ctx.txt"), ctx)
        ck, xk = pc.binding_keygen(ctx, rng)
        fileio.save_commitment_key(path("ck.txt"), ck)
        fileio.save_extraction_key(path("xk.txt"), xk)

        bit, r1 = rng.randrange(2), rng.randrange(n)
        m_big, r2 = rng.randrange(*CLI_EXTRACT_M[smoke]), rng.randrange(n)
        forge_seed, hiding_seed, r3 = rng.randrange(2 ** 31), rng.randrange(2 ** 31), rng.randrange(n)

        c1 = pc.commit(ck, bit, r1)
        pi1 = pc.wi_prove(ck, bit, r1 % n)
        fileio.save_proof(path("pi_bad.txt"),
                          pc.WIProof(pi1.pi * ctx.g, pi1.key_fp), ck)
        fileio.write_kv(path("c_bad.txt"), [
            ("kind", "commitment"), ("n", str(n)), ("key", c1.key_fp), ("c", "G:12,x")])
        hck, tk = pc.hiding_keygen(ctx, random.Random(hiding_seed))
        r_open = (r3 - pow(tk.x, -1, n)) % n
        hc = pc.commit(hck, 0, r3)

        def s(*argv):
            return [a if not a.endswith(".txt") else path(a) for a in argv]

        return [
            CliStep(s("commit", "--ck", "ck.txt", "--m", str(bit), "--r", str(r1),
                      "--out", "c.txt", "--out-opening", "op.txt"),
                    0, [f"c={c1.c.to_text()}"]),
            CliStep(s("prove", "--ck", "ck.txt", "--opening", "op.txt", "--out", "pi.txt"),
                    0, [f"pi={pi1.pi.to_text()}"]),
            CliStep(s("verify", "--ck", "ck.txt", "--commitment", "c.txt", "--proof", "pi.txt"),
                    0, ["accept"]),
            CliStep(s("verify", "--ck", "ck.txt", "--commitment", "c.txt",
                      "--proof", "pi_bad.txt"),
                    1, ["reject"]),
            CliStep(s("commit", "--ck", "ck.txt", "--m", str(m_big), "--r", str(r2),
                      "--out", "c_big.txt"),
                    0, [f"c={pc.commit(ck, m_big, r2).c.to_text()}"]),
            CliStep(s("extract", "--secret", "xk.txt", "--commitment", "c_big.txt"),
                    0, [f"m={m_big}"]),
            CliStep(s("audit", "--secret", "xk.txt", "--ck", "ck.txt", "--commitment", "c.txt"),
                    0, [f"verdict=CommitsTo{bit}",
                        f"c_in_gq={'true' if bit == 0 else 'false'}",
                        f"c_over_g_in_gq={'true' if bit == 1 else 'false'}"]),
            CliStep(s("forge", "--ck", "ck.txt", "--secret", "xk.txt",
                      "--seed", str(forge_seed), "--out", "forgery.txt"),
                    0, ["verification_passes=true", "alpha1_is_bit=false",
                        "g_alpha1_in_gq=false", "audit_verdict=CommitsTo1",
                        "c_in_gq=false", "c_over_g_in_gq=true"]),
            CliStep(s("keygen", "--mode", "hiding", "--context", "ctx.txt",
                      "--out-ck", "hck.txt", "--out-secret", "tk.txt",
                      "--seed", str(hiding_seed)),
                    0, ["mode=hiding", f"key={pc.key_fingerprint(hck)}"]),
            CliStep(s("commit", "--ck", "hck.txt", "--m", "0", "--r", str(r3),
                      "--out", "hc.txt", "--out-opening", "hop.txt"),
                    0, [f"c={hc.c.to_text()}"]),
            CliStep(s("open", "--secret", "tk.txt", "--commitment", "hc.txt",
                      "--opening", "hop.txt", "--m-new", "1", "--out", "hop1.txt"),
                    0, ["m=1", f"r={r_open}"]),
            CliStep(s("prove", "--ck", "hck.txt", "--opening", "hop1.txt", "--out", "hpi.txt"),
                    0, [f"pi={pc.wi_prove(hck, 1, r_open).pi.to_text()}"]),
            CliStep(s("verify", "--ck", "hck.txt", "--commitment", "hc.txt",
                      "--proof", "hpi.txt"),
                    0, ["accept"]),
            CliStep(s("verify", "--ck", "ck.txt", "--commitment", "c_bad.txt",
                      "--proof", "pi.txt"),
                    2, []),
        ]

    def round(self, rec, span=_no_span):
        round_start = perf_counter()
        busy, done, latencies = 0.0, 0, []
        for step in self.steps:
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with span("bench.cli_call"), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(step.argv)
            except Exception:
                rec.exception(f"cli {step.argv[0]}")
                continue
            elapsed = perf_counter() - start
            busy += elapsed
            done += 1
            latencies.append(elapsed)
            lines = out.getvalue().splitlines()
            stderr_ok = err.getvalue().startswith("error: ") if code == 2 else not err.getvalue()
            rec.check(code == step.code and stderr_ok
                      and lines[:len(step.lines)] == step.lines,
                      f"cli {step.argv[0]}: exit {code} (want {step.code}), "
                      f"stdout {lines!r}, stderr {err.getvalue()!r}")
        wall = perf_counter() - round_start
        return RoundStats(done, busy, wall, latencies)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    @staticmethod
    def named(rounds, p50, tail):
        return [
            ("cli_calls_per_s", median(r.ops_per_s for r in rounds), "1/s"),
            ("cli_call_p50_ms", p50, "ms"),
            ("cli_call_tail_ms", tail, "ms"),
            ("session_s", median([r.batch_seconds for r in rounds]), "s"),
        ]


WORKLOADS = {
    "protocol-curve": ProtocolCurve,
    "audit-transparent": AuditTransparent,
    "cli-session": CliSession,
}
