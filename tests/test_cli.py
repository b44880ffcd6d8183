"""CLI workflows: pipelines, exit codes, seed determinism."""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paircommit
from paircommit import cli, commitment, curve, fileio, forgery, groups
from paircommit.cli import main
from paircommit.groups import CURVE, TRANSPARENT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# 14,000 bits, odd, with no prime factor up to 47: a primality test of it
# passes trial division and pays for a Miller-Rabin base
HUGE = 53 ** 2444


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def _make_params(capsys, workdir, backend="transparent", seed=1):
    ctx = workdir / "ctx.txt"
    code, out, _ = run(capsys, "params", "--bits-p", "3", "--bits-q", "3",
                       "--backend", backend, "--seed", str(seed),
                       "--out", str(ctx))
    assert code == 0
    return ctx, out


def _pipeline_transcript(capsys, home, backend, bits):
    """Run a seeded session in `home`; return every call's exit code, stdout
    and stderr, then every file written, as one text."""
    script = [
        ("params", "--bits-p", bits[0], "--bits-q", bits[1], "--backend", backend,
         "--seed", "11", "--out", "ctx.txt"),
        ("keygen", "--mode", "binding", "--context", "ctx.txt",
         "--out-ck", "ck.txt", "--out-secret", "xk.txt", "--seed", "12"),
        ("keygen", "--mode", "binding", "--context", "ctx.txt",
         "--out-ck", "ck2.txt", "--out-secret", "xk2.txt", "--seed", "13"),
        ("keygen", "--mode", "hiding", "--context", "ctx.txt",
         "--out-ck", "hck.txt", "--out-secret", "tk.txt", "--seed", "14"),
        ("commit", "--ck", "ck.txt", "--m", "1", "--seed", "15",
         "--out", "c.txt", "--out-opening", "op.txt"),
        ("prove", "--ck", "ck.txt", "--opening", "op.txt", "--out", "pi.txt"),
        ("verify", "--ck", "ck.txt", "--commitment", "c.txt", "--proof", "pi.txt"),
        ("commit", "--ck", "ck.txt", "--m", "0", "--seed", "16", "--out", "c0.txt"),
        ("verify", "--ck", "ck.txt", "--commitment", "c0.txt", "--proof", "pi.txt"),
        ("extract", "--secret", "xk.txt", "--commitment", "c.txt"),
        ("commit", "--ck", "hck.txt", "--m", "0", "--seed", "17",
         "--out", "hc.txt", "--out-opening", "hop.txt"),
        ("open", "--secret", "tk.txt", "--commitment", "hc.txt", "--opening", "hop.txt",
         "--m-new", "1", "--out", "hop1.txt"),
        ("forge", "--ck", "ck.txt", "--secret", "xk.txt", "--seed", "18",
         "--out", "forgery.txt"),
        ("audit", "--secret", "xk.txt", "--ck", "ck.txt", "--commitment", "c.txt"),
        ("census", "--ck", "ck.txt", "--secret", "xk.txt", "--out", "census.txt"),
        ("forge", "--ck", "ck.txt", "--secret", "xk2.txt", "--seed", "18",
         "--out", "forgery2.txt"),
    ]
    parts = []
    for argv in script:
        code, out, err = run(capsys, *(str(home / a) if a.endswith(".txt") else a
                                       for a in argv))
        parts.append(f"$ {' '.join(argv)}\nexit={code}\n{out}{err}")
    for path in sorted(home.iterdir()):
        parts.append(f"== {path.name}\n{path.read_text()}")
    return "".join(parts)


# recorded from the seeded session above; key= lines are the key fingerprints
PIPELINE_TRANSPARENT = """\
$ params --bits-p 2 --bits-q 3 --backend transparent --seed 11 --out ctx.txt
exit=0
backend=transparent
p=3
q=7
n=21
$ keygen --mode binding --context ctx.txt --out-ck ck.txt --out-secret xk.txt --seed 12
exit=0
mode=binding
key=5997a33fdc1f963e
$ keygen --mode binding --context ctx.txt --out-ck ck2.txt --out-secret xk2.txt --seed 13
exit=0
mode=binding
key=13413248fbe223fd
$ keygen --mode hiding --context ctx.txt --out-ck hck.txt --out-secret tk.txt --seed 14
exit=0
mode=hiding
key=684d2700e2f2d84f
$ commit --ck ck.txt --m 1 --seed 15 --out c.txt --out-opening op.txt
exit=0
c=G:10
$ prove --ck ck.txt --opening op.txt --out pi.txt
exit=0
pi=G:18
$ verify --ck ck.txt --commitment c.txt --proof pi.txt
exit=0
accept
$ commit --ck ck.txt --m 0 --seed 16 --out c0.txt
exit=0
c=G:6
$ verify --ck ck.txt --commitment c0.txt --proof pi.txt
exit=1
reject
$ extract --secret xk.txt --commitment c.txt
exit=0
m=1
$ commit --ck hck.txt --m 0 --seed 17 --out hc.txt --out-opening hop.txt
exit=0
c=G:16
$ open --secret tk.txt --commitment hc.txt --opening hop.txt --m-new 1 --out hop1.txt
exit=0
m=1
r=15
$ forge --ck ck.txt --secret xk.txt --seed 18 --out forgery.txt
exit=0
verification_passes=true
alpha1_is_bit=false
g_alpha1_in_gq=false
audit_verdict=CommitsTo1
c_in_gq=false
c_over_g_in_gq=true
$ audit --secret xk.txt --ck ck.txt --commitment c.txt
exit=0
verdict=CommitsTo1
c_in_gq=false
c_over_g_in_gq=true
c_pow_q=G:7
c_over_g_pow_q=G:0
$ census --ck ck.txt --secret xk.txt --out census.txt
exit=0
$ forge --ck ck.txt --secret xk2.txt --seed 18 --out forgery2.txt
exit=2
error: secret file does not belong to the public key
== c.txt
kind=commitment
n=21
key=5997a33fdc1f963e
c=G:10
== c0.txt
kind=commitment
n=21
key=5997a33fdc1f963e
c=G:6
== census.txt
n=21
c=0 accepting_pi_count=3 verdict=CommitsTo0
c=1 accepting_pi_count=3 verdict=CommitsTo1
c=2 accepting_pi_count=0 verdict=Invalid
c=3 accepting_pi_count=3 verdict=CommitsTo0
c=4 accepting_pi_count=3 verdict=CommitsTo1
c=5 accepting_pi_count=0 verdict=Invalid
c=6 accepting_pi_count=3 verdict=CommitsTo0
c=7 accepting_pi_count=3 verdict=CommitsTo1
c=8 accepting_pi_count=0 verdict=Invalid
c=9 accepting_pi_count=3 verdict=CommitsTo0
c=10 accepting_pi_count=3 verdict=CommitsTo1
c=11 accepting_pi_count=0 verdict=Invalid
c=12 accepting_pi_count=3 verdict=CommitsTo0
c=13 accepting_pi_count=3 verdict=CommitsTo1
c=14 accepting_pi_count=0 verdict=Invalid
c=15 accepting_pi_count=3 verdict=CommitsTo0
c=16 accepting_pi_count=3 verdict=CommitsTo1
c=17 accepting_pi_count=0 verdict=Invalid
c=18 accepting_pi_count=3 verdict=CommitsTo0
c=19 accepting_pi_count=3 verdict=CommitsTo1
c=20 accepting_pi_count=0 verdict=Invalid
accepting_pairs=42
accepting_c_CommitsTo0=7
accepting_c_CommitsTo1=7
accepting_c_Invalid=0
== ck.txt
kind=commitment-key
mode=binding
backend=transparent
n=21
g=G:1
h=G:12
== ck2.txt
kind=commitment-key
mode=binding
backend=transparent
n=21
g=G:1
h=G:9
== ctx.txt
backend=transparent
p=3
q=7
== forgery.txt
kind=forgery
n=21
key=5997a33fdc1f963e
k_a=1
ell=2
alpha1=7
alpha2=15
beta1=6
beta2=15
c=G:19
pi=G:18
== hc.txt
kind=commitment
n=21
key=684d2700e2f2d84f
c=G:16
== hck.txt
kind=commitment-key
mode=hiding
backend=transparent
n=21
g=G:1
h=G:1
== hop.txt
kind=opening
m=0
r=16
== hop1.txt
kind=opening
m=1
r=15
== op.txt
kind=opening
m=1
r=6
== pi.txt
kind=proof
n=21
key=5997a33fdc1f963e
pi=G:18
== tk.txt
kind=trapdoor-key
mode=hiding
backend=transparent
n=21
g=G:1
h=G:1
x=1
== xk.txt
kind=extraction-key
mode=binding
backend=transparent
n=21
g=G:1
h=G:12
q=7
== xk2.txt
kind=extraction-key
mode=binding
backend=transparent
n=21
g=G:1
h=G:9
q=7
"""

PIPELINE_CURVE_SHA256 = "4379ad1578f06a974789634898180ff60f7ed81fc9b1fc1bbd6434eae69dfe6a"


class TestParams:
    def test_three_bit_pair_is_5_7(self, capsys, workdir):
        ctx, out = _make_params(capsys, workdir)
        assert "p=5" in out and "q=7" in out and "n=35" in out
        text = ctx.read_text()
        assert "p=5" in text and "q=7" in text

    def test_curve_params_include_field(self, capsys, workdir):
        ctx, out = _make_params(capsys, workdir, backend="curve")
        assert "fprime=139" in out and "cofactor=4" in out

    def test_missing_out_is_usage_error(self, capsys, workdir):
        code, _, _ = run(capsys, "params", "--bits-p", "3", "--bits-q", "3",
                         "--backend", "transparent")
        assert code == 2

    def test_two_bit_pair_is_refused(self, capsys, workdir):
        """gen_prime(2) returns 3 alone, so p != q cannot be met: refused
        before any draw, where it used to loop forever."""
        ctx = workdir / "ctx.txt"
        code, out, err = run(capsys, "params", "--bits-p", "2", "--bits-q", "2",
                             "--backend", "transparent", "--seed", "1", "--out", str(ctx))
        assert (code, out) == (2, "") and not ctx.exists()
        assert err == ("error: --bits-p and --bits-q cannot both be 2: p and q must "
                       "differ, and 3 is the only odd 2-bit prime\n")

    def test_prime_above_64_bits_is_refused(self, capsys, workdir):
        ctx = workdir / "ctx.txt"
        code, out, err = run(capsys, "params", "--bits-p", "65", "--bits-q", "8",
                             "--backend", "transparent", "--seed", "1", "--out", str(ctx))
        assert (code, out) == (2, "") and not ctx.exists()
        assert err == "error: --bits-p must lie in [2, 64], got 65\n"

    # sha256 of the context file and of stdout of `params --backend curve
    # --bits-p B --bits-q B --seed 1`
    CURVE_PARAMS_SHA256 = {
        "32": ("e4d0dabc7a2f1b4c5388c4961fdb6e7c2f7777de15a200f1fc7eb31e0e34d135",
               "21387f2824aaa011e01c215af28b1d352b657d2cc0735a2f67d8651c6935f6f9"),
        "64": ("3d8a5651ac6013a7239f8fda8507e41462065a7a5b9b142ec4dd23e87cefabc6",
               "9220f0a2ede9ef3de2c99d6a6fa549a2b33522ab97fc5ff227685e9b8ecad8cf"),
    }

    @pytest.mark.parametrize("bits", sorted(CURVE_PARAMS_SHA256))
    def test_curve_params_bytes(self, capsys, workdir, bits):
        """The 64-bit field prime is above psi_13, so its search tests the
        rng's witnesses and then the strong Lucas test; below psi_13 they
        are drawn and not tested."""
        ctx = workdir / "ctx.txt"
        code, out, err = run(capsys, "params", "--bits-p", bits, "--bits-q", bits,
                             "--backend", "curve", "--seed", "1", "--out", str(ctx))
        assert (code, err) == (0, "")
        fprime = int(fileio.read_kv(ctx)["fprime"])
        assert (fprime > 3317044064679887385961981) == (bits == "64")
        assert (hashlib.sha256(ctx.read_bytes()).hexdigest(),
                hashlib.sha256(out.encode()).hexdigest()) == self.CURVE_PARAMS_SHA256[bits]

    def test_seed_determinism(self, capsys, workdir):
        a = workdir / "a.txt"
        b = workdir / "b.txt"
        for out in (a, b):
            code, _, _ = run(capsys, "params", "--bits-p", "16", "--bits-q", "16",
                             "--backend", "curve", "--seed", "99", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_full_pipeline_byte_determinism(self, capsys, workdir):
        """Seeded sessions reproduce the recorded exit codes, output and files."""
        for backend, bits, want in ((TRANSPARENT, ("2", "3"), PIPELINE_TRANSPARENT),
                                    (CURVE, ("8", "8"), PIPELINE_CURVE_SHA256)):
            home = workdir / backend
            home.mkdir()
            got = _pipeline_transcript(capsys, home, backend, bits)
            if backend == "transparent":
                assert got == want
            else:
                assert hashlib.sha256(got.encode()).hexdigest() == want


def test_no_command_builds_a_window_table(capsys, workdir, monkeypatch):
    """A one-shot command raises each fixed base at most three times, below
    the power at which a context builds the base's window table, and the
    census labels its residues on its count table's walk, not on powers of
    g. So none of the seeded curve session's calls, which run every command
    that reads or writes files, builds one."""
    commands, builds = [], []
    table, one_shot = curve.window_table, main
    monkeypatch.setattr(curve, "window_table",
                        lambda fp, pt, bits: builds.append((commands[-1], pt))
                        or table(fp, pt, bits))
    # run() calls this module's main, so each build is charged to its command
    monkeypatch.setitem(globals(), "main",
                        lambda argv: commands.append(argv[0]) or one_shot(argv))
    _pipeline_transcript(capsys, workdir, CURVE, ("8", "8"))
    assert sorted(set(commands)) == sorted(set(cli._COMMANDS) - {"selftest"})
    assert builds == []


class TestHonestPipeline:
    @pytest.mark.parametrize("backend", ["transparent", "curve"])
    def test_commit_prove_verify_extract(self, capsys, workdir, backend):
        ctx, _ = _make_params(capsys, workdir, backend=backend)
        ck = workdir / "ck.txt"
        xk = workdir / "xk.txt"
        code, _, _ = run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
                         "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        assert code == 0

        c = workdir / "c.txt"
        opening = workdir / "op.txt"
        code, _, _ = run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2",
                         "--out", str(c), "--out-opening", str(opening))
        assert code == 0

        pi = workdir / "pi.txt"
        code, _, _ = run(capsys, "prove", "--ck", str(ck), "--opening", str(opening),
                         "--out", str(pi))
        assert code == 0

        code, out, _ = run(capsys, "verify", "--ck", str(ck),
                           "--commitment", str(c), "--proof", str(pi))
        assert code == 0 and "accept" in out

        code, out, _ = run(capsys, "extract", "--secret", str(xk),
                           "--commitment", str(c))
        assert code == 0 and "m=1" in out

    def test_tampered_proof_rejected(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        c, opening, pi = workdir / "c.txt", workdir / "op.txt", workdir / "pi.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2",
            "--out", str(c), "--out-opening", str(opening))
        run(capsys, "prove", "--ck", str(ck), "--opening", str(opening),
            "--out", str(pi))

        # perturb the proof element to the next exponent mod 35
        text = pi.read_text()
        line = next(l for l in text.splitlines() if l.startswith("pi=G:"))
        exp = int(line.removeprefix("pi=G:"))
        pi.write_text(text.replace(line, f"pi=G:{(exp + 1) % 35}"))
        code, out, _ = run(capsys, "verify", "--ck", str(ck),
                           "--commitment", str(c), "--proof", str(pi))
        assert code == 1 and "reject" in out

    def test_garbage_proof_file_is_exit_2(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        c = workdir / "c.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2", "--out", str(c))
        pi = workdir / "pi.txt"
        pi.write_text("not a proof\n")
        code, _, err = run(capsys, "verify", "--ck", str(ck),
                           "--commitment", str(c), "--proof", str(pi))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("name, field, bad", [
        ("ctx.txt", "g", "G:1,x"),
        ("ck.txt", "g", "G:1,1"),
        ("c.txt", "c", "G:12,x"),
        ("pi.txt", "pi", "pi"),
        ("ck.txt", "n", "+35"),
    ])
    def test_malformed_element_is_exit_2(self, capsys, workdir, name, field, bad):
        ctx, _ = _make_params(capsys, workdir, backend=CURVE)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        c, opening, pi = workdir / "c.txt", workdir / "op.txt", workdir / "pi.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2",
            "--out", str(c), "--out-opening", str(opening))
        run(capsys, "prove", "--ck", str(ck), "--opening", str(opening), "--out", str(pi))
        bad_path = workdir / name
        bad_path.write_text("".join(f"{field}={bad}\n" if line.startswith(f"{field}=")
                                    else f"{line}\n"
                                    for line in bad_path.read_text().splitlines()))
        if name == "ctx.txt":
            argv = ("keygen", "--mode", "binding", "--context", str(ctx),
                    "--out-ck", str(workdir / "ck2.txt"), "--out-secret", str(xk))
        else:
            argv = ("verify", "--ck", str(ck), "--commitment", str(c), "--proof", str(pi))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad_path}: field '{field}':")

    def test_trapdoor_open_pipeline(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck, tk = workdir / "ck.txt", workdir / "tk.txt"
        run(capsys, "keygen", "--mode", "hiding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(tk), "--seed", "2")
        c, opening = workdir / "c.txt", workdir / "op.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "0", "--r", "4",
            "--out", str(c), "--out-opening", str(opening))
        new_opening = workdir / "op2.txt"
        code, out, _ = run(capsys, "open", "--secret", str(tk),
                           "--commitment", str(c), "--opening", str(opening),
                           "--m-new", "1", "--out", str(new_opening))
        assert code == 0 and "m=1" in out
        # the re-opened commitment matches: commit with the new opening
        c2 = workdir / "c2.txt"
        from paircommit import fileio
        op2 = fileio.load_opening(new_opening)
        code, out, _ = run(capsys, "commit", "--ck", str(ck), "--m", str(op2.m),
                           "--r", str(op2.r), "--out", str(c2))
        assert code == 0
        assert (workdir / "c.txt").read_text().splitlines()[-1] == \
               c2.read_text().splitlines()[-1]

    def test_trapdoor_open_out_of_range_is_exit_2(self, capsys, workdir):
        """A trapdoor key file carries no factorization, so the bound a
        re-opened message is checked against is n = 35, not p = 5."""
        ctx, _ = _make_params(capsys, workdir)
        ck, tk = workdir / "ck.txt", workdir / "tk.txt"
        run(capsys, "keygen", "--mode", "hiding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(tk), "--seed", "2")
        c, opening = workdir / "c.txt", workdir / "op.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "3",
            "--out", str(c), "--out-opening", str(opening))
        new_opening = workdir / "op2.txt"
        code, out, err = run(capsys, "open", "--secret", str(tk),
                             "--commitment", str(c), "--opening", str(opening),
                             "--m-new", "35", "--out", str(new_opening))
        assert (code, out) == (2, "") and not new_opening.exists()
        assert err == "error: message 35 out of range [0, 35)\n"

    @pytest.mark.parametrize("backend", [TRANSPARENT, CURVE])
    def test_trapdoor_key_with_wrong_x_is_exit_2(self, capsys, workdir, backend):
        ctx, _ = _make_params(capsys, workdir, backend=backend)
        ck, tk = workdir / "ck.txt", workdir / "tk.txt"
        run(capsys, "keygen", "--mode", "hiding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(tk), "--seed", "2")
        c, opening = workdir / "c.txt", workdir / "op.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "0", "--r", "4",
            "--out", str(c), "--out-opening", str(opening))
        lines = tk.read_text().splitlines()
        x = next(int(line[2:]) for line in lines if line.startswith("x="))
        tk.write_text("".join(f"x={x + 1}\n" if line.startswith("x=") else f"{line}\n"
                              for line in lines))
        new_opening = workdir / "op2.txt"
        code, out, err = run(capsys, "open", "--secret", str(tk),
                             "--commitment", str(c), "--opening", str(opening),
                             "--m-new", "1", "--out", str(new_opening))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {tk}: field 'x':")
        assert not new_opening.exists()


class TestKeyChecks:
    """An extraction key's h must be a non-identity element of the order-q
    subgroup, and a transparent key's g must be G:1; a CLI call given
    either kind of bad key exits 2 and writes nothing."""

    @pytest.mark.parametrize("backend", [TRANSPARENT, CURVE])
    def test_bad_extraction_key_is_exit_2(self, capsys, workdir, backend):
        ctx, _ = _make_params(capsys, workdir, backend=backend)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        c = workdir / "c.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2", "--out", str(c))
        g = _field(ck, "g")
        forgery = workdir / "forgery.txt"
        # the identity, and the generator, whose order is n, not q
        for bad in ("G:0" if backend == TRANSPARENT else "G:inf", g):
            _set_field(xk, "h", bad)
            for argv in (("extract", "--secret", str(xk), "--commitment", str(c)),
                         ("audit", "--secret", str(xk), "--ck", str(ck), "--commitment", str(c)),
                         ("forge", "--ck", str(ck), "--secret", str(xk), "--beta1", "2",
                          "--out", str(forgery))):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert err.startswith(f"error: {xk}: field 'h':"), err
        assert not forgery.exists()

    @pytest.mark.parametrize("backend", [TRANSPARENT, CURVE])
    def test_hiding_extraction_key_is_exit_2(self, capsys, workdir, backend):
        """At (5, 7), a hiding key file relabelled kind=extraction-key with
        q=7 in place of x=1 used to load: audit printed verdict=Invalid and
        census accepting_c_Invalid=21, both with exit 0."""
        ctx, _ = _make_params(capsys, workdir, backend=backend)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "hiding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        c = workdir / "c.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "0", "--r", "3", "--out", str(c))
        _set_field(xk, "kind", "extraction-key")
        xk.write_text(xk.read_text().replace(f"x={_field(xk, 'x')}\n", "q=7\n"))
        forgery, census = workdir / "forgery.txt", workdir / "census.txt"
        for argv in (("audit", "--secret", str(xk), "--ck", str(ck), "--commitment", str(c)),
                     ("census", "--ck", str(ck), "--secret", str(xk), "--out", str(census)),
                     ("forge", "--ck", str(ck), "--secret", str(xk), "--beta1", "2",
                      "--out", str(forgery)),
                     ("extract", "--secret", str(xk), "--commitment", str(c))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {xk}: field 'mode':"), err
        assert not forgery.exists() and not census.exists()

    def test_reported_silent_extraction(self, capsys, workdir):
        """At (5, 7), h=G:1 in the extraction key and g=G:3 in the public
        key used to load, and extract then printed m=3 with exit 0."""
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        c, c_bad = workdir / "c.txt", workdir / "c_bad.txt"
        run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2", "--out", str(c))
        _set_field(xk, "h", "G:1")
        _set_field(ck, "g", "G:3")
        code, out, err = run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2",
                             "--out", str(c_bad))
        assert (code, out) == (2, "") and not c_bad.exists()
        assert err.startswith(f"error: {ck}: field 'g':"), err
        code, out, err = run(capsys, "extract", "--secret", str(xk), "--commitment", str(c))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {xk}: field 'h':"), err

    def test_transparent_key_needs_its_generator(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        ck.write_text("".join(line + "\n" for line in ck.read_text().splitlines()
                              if not line.startswith("g=")))
        c = workdir / "c.txt"
        code, out, err = run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2",
                             "--out", str(c))
        assert (code, out) == (2, "") and not c.exists()
        assert "'g'" in err


def _field(path, name):
    return next((line.split("=", 1)[1] for line in path.read_text().splitlines()
                 if line.startswith(f"{name}=")), None)


def _set_field(path, name, value):
    lines = path.read_text().splitlines()
    assert any(line.startswith(f"{name}=") for line in lines)
    path.write_text("".join(f"{name}={value}\n" if line.startswith(f"{name}=") else f"{line}\n"
                            for line in lines))


def _two_key_argv(cmd, ck, xk, c, out):
    return {
        "audit": ("audit", "--secret", str(xk), "--ck", str(ck), "--commitment", str(c)),
        "forge": ("forge", "--ck", str(ck), "--secret", str(xk), "--beta1", "2",
                  "--out", str(out)),
        "census": ("census", "--ck", str(ck), "--secret", str(xk), "--out", str(out)),
    }[cmd]


def _split_forgery(record):
    """A commitment file and a proof file beside a forgery record: its c=
    and pi= lines, each under the record's kind/n/key header."""
    kv = fileio.read_kv(record)
    paths = record.parent / "fc.txt", record.parent / "fpi.txt"
    for path, kind, field in zip(paths, ("commitment", "proof"), ("c", "pi")):
        fileio.write_kv(path, [("kind", kind), ("n", kv["n"]), ("key", kv["key"]),
                               (field, kv[field])])
    return paths


class TestForgedPipeline:
    def test_forge_verify_audit(self, capsys, workdir):
        """Forged proof passes verify; audit reports the probe elements."""
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")

        forgery = workdir / "forgery.txt"
        code, out, _ = run(capsys, "forge", "--ck", str(ck), "--secret", str(xk),
                           "--beta1", "2", "--out", str(forgery))
        assert code == 0
        assert "verification_passes=true" in out
        assert "alpha1_is_bit=false" in out
        assert "g_alpha1_in_gq=false" in out
        assert "audit_verdict=" in out

        c, pi = _split_forgery(forgery)
        code, out, _ = run(capsys, "verify", "--ck", str(ck),
                           "--commitment", str(c), "--proof", str(pi))
        assert code == 0 and "accept" in out

        code, out, _ = run(capsys, "audit", "--secret", str(xk), "--ck", str(ck),
                           "--commitment", str(c))
        assert code == 0
        assert "verdict=" in out
        assert "c_pow_q=G:" in out and "c_over_g_pow_q=G:" in out

    def test_forge_seed_determinism(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        a, b = workdir / "fa.txt", workdir / "fb.txt"
        for out in (a, b):
            code, _, _ = run(capsys, "forge", "--ck", str(ck), "--secret", str(xk),
                             "--seed", "5", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worked_forged_pipeline_probe_values(self, capsys, workdir):
        """With h = g^15 over n=35 and beta1=2, the audit probes are g^7 and g^0."""
        from paircommit import binding_key_from_exponent, setup_transparent
        ctx = setup_transparent(5, 7)
        ck_obj, xk_obj = binding_key_from_exponent(ctx, 3)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        fileio.save_commitment_key(ck, ck_obj)
        fileio.save_extraction_key(xk, xk_obj)

        forgery = workdir / "forgery.txt"
        code, out, _ = run(capsys, "forge", "--ck", str(ck), "--secret", str(xk),
                           "--beta1", "2", "--out", str(forgery))
        assert code == 0
        text = forgery.read_text()
        for field in ("k_a=3", "ell=4", "alpha1=21", "alpha2=12",
                      "beta1=2", "beta2=4", "c=G:26", "pi=G:27"):
            assert field in text

        c, pi = _split_forgery(forgery)
        code, _, _ = run(capsys, "verify", "--ck", str(ck),
                         "--commitment", str(c), "--proof", str(pi))
        assert code == 0

        code, out, _ = run(capsys, "audit", "--secret", str(xk), "--ck", str(ck),
                           "--commitment", str(c))
        assert code == 0
        assert "verdict=CommitsTo1" in out
        assert "c_pow_q=G:7" in out
        assert "c_over_g_pow_q=G:0" in out

    def test_census_table(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        table = workdir / "census.txt"
        code, _, _ = run(capsys, "census", "--ck", str(ck), "--secret", str(xk),
                         "--out", str(table))
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "n=35"
        assert len([l for l in lines if l.startswith("c=")]) == 35
        assert any(l.startswith("accepting_pairs=") for l in lines)

    def test_census_without_out_prints_the_table(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        table = workdir / "census.txt"
        run(capsys, "census", "--ck", str(ck), "--secret", str(xk), "--out", str(table))
        code, out, _ = run(capsys, "census", "--ck", str(ck), "--secret", str(xk))
        assert (code, out) == (0, table.read_text())


class TestErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_file(self, capsys, workdir):
        code, _, err = run(capsys, "keygen", "--mode", "binding",
                           "--context", str(workdir / "nope.txt"),
                           "--out-ck", str(workdir / "ck.txt"),
                           "--out-secret", str(workdir / "xk.txt"))
        assert code == 2 and "error:" in err

    def test_strong_pseudoprime_context_is_exit_2(self, capsys, workdir):
        ctx = workdir / "ctx.txt"
        ctx.write_text("backend=transparent\np=318665857834031151167461\n"
                       "q=318665857834031151167483\n")
        code, out, err = run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
                             "--out-ck", str(workdir / "ck.txt"),
                             "--out-secret", str(workdir / "xk.txt"), "--seed", "1")
        assert (code, out) == (2, "") and not (workdir / "ck.txt").exists()
        assert err == f"error: {ctx}: p=318665857834031151167461 is not prime\n"

    def test_psi13_context_is_exit_2(self, capsys, workdir):
        """psi_13 passes all 13 fixed witnesses; the strong Lucas test that
        every load runs from psi_13 up refuses it."""
        ctx = workdir / "ctx.txt"
        ctx.write_text("backend=transparent\np=3317044064679887385961981\n"
                       "q=3317044064679887385962123\n")
        code, out, err = run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
                             "--out-ck", str(workdir / "ck.txt"),
                             "--out-secret", str(workdir / "xk.txt"), "--seed", "1")
        assert (code, out) == (2, "") and not (workdir / "ck.txt").exists()
        assert err == f"error: {ctx}: p=3317044064679887385961981 is not prime\n"

    def test_curve_cofactor_failure_message(self, capsys, workdir, monkeypatch):
        import paircommit.cli as cli_mod
        monkeypatch.setattr(cli_mod, "setup_curve",
                            lambda p, q, rng: (_ for _ in ()).throw(
                                ValueError("no suitable field prime")))
        code, _, err = run(capsys, "params", "--bits-p", "3", "--bits-q", "3",
                           "--backend", "curve", "--seed", "1",
                           "--out", str(workdir / "ctx.txt"))
        assert code == 2 and "field prime" in err

    def test_non_ascii_file_is_exit_2(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck, xk = workdir / "ck.txt", workdir / "xk.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        ck.write_bytes(ck.read_bytes().replace(b"binding", b"bind\xe9ng"))
        code, out, err = run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2",
                             "--out", str(workdir / "c.txt"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {ck}: byte ")

    def test_unexpected_exception_is_exit_3_not_a_reject(self, capsys, workdir, monkeypatch):
        """An exception no handler expects exits 3 with one error line that
        names its type; exit 1 would read as a rejected proof."""
        ctx, _ = _make_params(capsys, workdir)
        ck, xk, c, op, pi = (workdir / f"{name}.txt" for name in ("ck", "xk", "c", "op", "pi"))
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2",
            "--out", str(c), "--out-opening", str(op))
        run(capsys, "prove", "--ck", str(ck), "--opening", str(op), "--out", str(pi))

        def broken(*args):
            raise TypeError("a fault in verify")

        monkeypatch.setattr(paircommit.cli, "verify", broken)
        code, out, err = run(capsys, "verify", "--ck", str(ck),
                             "--commitment", str(c), "--proof", str(pi))
        assert (code, out) == (3, "")
        assert err == "error: TypeError('a fault in verify')\n"

    def test_census_above_the_cap_is_refused_before_any_pairing(self, capsys, workdir,
                                                                monkeypatch):
        """At p = 3,203,503 and q = 12,812,777 the census would make 2(p + q)
        pairings and keep p + q powers; it exits 2 before the first."""
        ctx, ck, xk, table = (workdir / f"{name}.txt" for name in ("ctx", "ck", "xk", "census"))
        code, out, _ = run(capsys, "params", "--backend", "transparent", "--bits-p", "22",
                           "--bits-q", "24", "--seed", "1", "--out", str(ctx))
        assert code == 0 and "p=3203503\nq=12812777\n" in out
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "1")

        def counted(*args):
            raise AssertionError("the census made a pairing")

        monkeypatch.setattr(forgery, "_factor_counts", counted)
        code, out, err = run(capsys, "census", "--ck", str(ck), "--secret", str(xk),
                             "--out", str(table))
        assert (code, out) == (2, "") and not table.exists()
        assert err == ("error: census refused: p + q = 16016280 is above 65536, "
                       "and the census would make 32032560 pairings\n")

    def test_extract_above_the_cap_is_refused_before_any_giant_step(self, capsys, workdir,
                                                                    monkeypatch):
        """At 40-bit primes a bound of 2^40 would make about 2.5 * 10^9 giant
        steps to the commitment's m; extract exits 2 before the first."""
        ctx, ck, xk, c = (workdir / f"{name}.txt" for name in ("ctx", "ck", "xk", "c"))
        run(capsys, "params", "--backend", "transparent", "--bits-p", "40", "--bits-q", "40",
            "--seed", "1", "--out", str(ctx))
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "1")
        run(capsys, "commit", "--ck", str(ck), "--m", "549755813000", "--r", "3",
            "--out", str(c))

        def searched(*args):
            raise AssertionError("extract began its search")

        monkeypatch.setattr(groups.BabySteps, "log", searched)
        code, out, err = run(capsys, "extract", "--secret", str(xk), "--commitment", str(c),
                             "--bound", str(2 ** 40))
        assert (code, out) == (2, "")
        assert err == ("error: extract refused: a search below min(bound, p) = 649522587953 "
                       "needs 2537197610 giant steps, above 1048576; the largest bound that "
                       "fits is 268435456\n")

    def test_huge_context_is_refused_before_any_arithmetic(self, capsys, workdir,
                                                           refuse_arithmetic):
        """q = 53^2444 has 14,000 bits and no factor the trial division
        tries, so one Miller-Rabin base would take seconds; n's bound
        refuses it first, and the error line does not print its digits."""
        ctx = workdir / "ctx.txt"
        ctx.write_text(f"backend=transparent\np=3\nq={HUGE}\n")
        refuse_arithmetic()
        code, out, err = run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
                             "--out-ck", str(workdir / "ck.txt"),
                             "--out-secret", str(workdir / "xk.txt"), "--seed", "1")
        assert (code, out) == (2, "") and not (workdir / "ck.txt").exists()
        assert err == (f"error: {ctx}: fields 'p' and 'q': n = p*q has 14001 bits, "
                       f"above the bound of 256\n")

    @pytest.mark.parametrize("field, value, message", [
        ("n", HUGE, "field 'n' has 14000 bits, above the bound of 256"),
        ("cofactor", 2 * HUGE, "field 'cofactor' is outside (0, 1048576]"),
        ("fprime", 4 * HUGE - 1, "cofactor {cofactor} does not satisfy cofactor*n = fp + 1"),
    ], ids=["n", "cofactor", "fprime"])
    def test_huge_curve_key_is_refused_before_any_arithmetic(self, capsys, workdir,
                                                             refuse_arithmetic, field, value,
                                                             message):
        """A curve key whose n, cofactor or field prime has 14,000 bits. fp
        needs no bound of its own: cofactor*n = fp + 1 is tested before
        fp's primality."""
        ctx, _ = _make_params(capsys, workdir, backend="curve")
        ck = workdir / "ck.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(workdir / "xk.txt"), "--seed", "2")
        kv = fileio.read_kv(ck)
        kv[field] = str(value)
        fileio.write_kv(ck, list(kv.items()))
        refuse_arithmetic()
        code, out, err = run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2",
                             "--out", str(workdir / "c.txt"))
        assert (code, out) == (2, "") and not (workdir / "c.txt").exists()
        assert err == f"error: {ck}: {message.format(**kv)}\n"

    @pytest.mark.parametrize("kind", ["context", "key"])
    def test_unknown_field_is_refused_before_any_arithmetic(self, capsys, workdir,
                                                            refuse_arithmetic, kind):
        """A curve context or key file with one unknown field used to pay
        every primality test and order ladder of its group before its field
        names were read."""
        ctx, _ = _make_params(capsys, workdir, backend="curve")
        ck, c = workdir / "ck.txt", workdir / "c.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(workdir / "xk.txt"), "--seed", "2")
        path = ctx if kind == "context" else ck
        path.write_text(path.read_text() + "extra=1\n")
        refuse_arithmetic()
        if kind == "context":
            argv = ["keygen", "--mode", "hiding", "--context", str(ctx), "--out-ck", str(c),
                    "--out-secret", str(workdir / "tk.txt")]
        else:
            argv = ["commit", "--ck", str(ck), "--m", "1", "--r", "2", "--out", str(c)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and not c.exists()
        assert err == f"error: {path}: unknown field 'extra'\n"

    def test_mismatched_secret_and_key(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck1, xk1 = workdir / "ck1.txt", workdir / "xk1.txt"
        ck2, xk2 = workdir / "ck2.txt", workdir / "xk2.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck1), "--out-secret", str(xk1), "--seed", "2")
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck2), "--out-secret", str(xk2), "--seed", "3")
        c, out_file = workdir / "c.txt", workdir / "out.txt"
        run(capsys, "commit", "--ck", str(ck1), "--m", "1", "--r", "2", "--out", str(c))
        for cmd in ("audit", "forge", "census"):
            code, out, err = run(capsys, *_two_key_argv(cmd, ck1, xk2, c, out_file))
            assert (code, out) == (2, "") and not out_file.exists()
            assert err == "error: secret file does not belong to the public key\n"


class TestParser:
    """main parses a named command's arguments with that command's parser
    alone; what it parses, prints and exits with is what the parser with
    every command gives."""

    VALID = {
        "params": ["--bits-p", "5", "--bits-q", "6", "--backend", "curve", "--out", "x",
                   "--seed", "3"],
        "keygen": ["--mode", "hiding", "--context", "c", "--out-ck", "a", "--out-secret", "b",
                   "--seed", "4"],
        "commit": ["--ck", "a", "--m", "1", "--out", "c", "--out-opening", "o", "--r", "2",
                   "--seed", "5"],
        "prove": ["--ck", "a", "--opening", "o", "--out", "p"],
        "verify": ["--ck", "a", "--commitment", "c", "--proof", "p"],
        "extract": ["--secret", "s", "--commitment", "c", "--bound", "9"],
        "open": ["--secret", "s", "--commitment", "c", "--opening", "o", "--m-new", "1",
                 "--out", "x"],
        "forge": ["--ck", "a", "--secret", "s", "--beta1", "2", "--out", "f", "--seed", "6"],
        "audit": ["--secret", "s", "--ck", "a", "--commitment", "c"],
        "census": ["--ck", "a", "--secret", "s"],
        "selftest": ["--seed", "1"],
    }

    INTEGERS = {"bits_p", "bits_q", "seed", "m", "r", "bound", "m_new", "beta1"}

    def test_one_command_parses_as_all(self):
        from paircommit.cli import _COMMANDS, build_parser
        assert sorted(self.VALID) == sorted(_COMMANDS)
        for name, rest in self.VALID.items():
            parsed = vars(build_parser(name).parse_args(rest))
            assert parsed == vars(build_parser().parse_args([name] + rest))
            assert parsed["command"] == name
            # every integer flag is given above, and parses as an int
            assert {k for k, v in parsed.items() if type(v) is int} == self.INTEGERS & set(parsed)
            other = "verify" if name == "selftest" else "selftest"
            with pytest.raises(SystemExit) as done:  # the parser is name's alone
                build_parser(name).parse_args([other])
            assert done.value.code == 2
        assert build_parser("selftest").parse_args([]).seed == 1

    def test_a_valid_call_makes_one_parser(self, capsys, workdir, monkeypatch):
        """A call whose arguments its command takes builds no parser but
        its command's: no top-level parser, no sub-parser action."""
        made = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, _, err = run(capsys, "params", "--bits-p", "3", "--bits-q", "4", "--backend",
                           "transparent", "--out", str(workdir / "ctx.txt"))
        assert (code, err) == (0, "")
        assert made == ["paircommit params"]

    # sha256 of `paircommit [<command>] --help` at 80 columns. Both sides of
    # the test above read the one command table, so a help= lost from it
    # shows only here. argparse's layout varies between Python
    # versions; these were recorded under 3.11.
    HELP_SHA256 = {
        None: "79af24141d04d7e307d5ac3cd0a81ee31c37478c2fe37f29c15e0eb876dfb665",
        "params": "d0135e5a49ded68bfa2b0a2cec88d3d14930b957c8e84d0c6ab2d0221ec735f3",
        "keygen": "eb8f8085e4494f1e3d13d64965fd29995b94cb60a66b39ff8642f8568b98101b",
        "commit": "9d9aa7a285813620869fb64b3e7610d4b7a3c25dce61833975de0976a1120176",
        "prove": "c0db51b7ab2cf267b5e02a78214fd05cc5f4a3be54f6898653e08ae24ee8e228",
        "verify": "09586a9f92c08eba7a8dd6928fea90df1e55d33d25823df5987c0117c84e3d40",
        "extract": "d74deb90a3767a8bf3744ef680ab503d3f8d01d41831a0d698bdd4a5b964beaa",
        "open": "38078f3a23ea73fd6e31606a0e34f85d0719fdb6172bb919a30a93c04d704f34",
        "forge": "4a0b75b30704aa2b09eaf64bbc98a62636bb68a189f3c1cfb23469554f3abe4c",
        "audit": "0ee634cca8a861793d9b9678c737e003bdf88687ee0feda3f94ef3420a0f6706",
        "census": "c941fe23cfe190f58195619864316548df743c6ad5b6febee81de248e61b7a0f",
        "selftest": "1dc0cbc34d5d26d8f6cc9a6572413e5b772356c593c7c035e05ae43165c67fda",
    }

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="help digests are recorded under Python 3.11")
    @pytest.mark.parametrize("command", HELP_SHA256)
    def test_help_bytes(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command is None else [command, "--help"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP_SHA256[command]

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h", "verify"], ["frobnicate"], ["--bogus", "verify"],
        ["verify", "--help"], ["census", "-h"], ["verify"], ["params", "--bits-p", "x"],
        ["params", "--backend", "quantum"], ["selftest", "--seed"],
        ["verify", "--ck", "a", "--commitment", "c", "--proof", "p", "--extra"],
        ["verify", "--ck", "a", "--commitment", "c", "--proof", "p", "stray"],
    ])
    def test_help_and_usage_errors_match_all(self, capsys, argv):
        from paircommit.cli import build_parser
        code, out, err = run(capsys, *argv)
        with pytest.raises(SystemExit) as done:
            build_parser().parse_args(argv)
        every = capsys.readouterr()
        assert (code, out, err) == (done.value.code, every.out, every.err)
        assert "usage: paircommit" in out + err


class TestTwoKeyCalls:
    """forge, audit and census read --ck and --secret, and build one
    context when both list the same public key."""

    def _keys(self, capsys, workdir, backend):
        ctx, _ = _make_params(capsys, workdir, backend=backend)
        ck, xk, c = workdir / "ck.txt", workdir / "xk.txt", workdir / "c.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck), "--out-secret", str(xk), "--seed", "2")
        run(capsys, "commit", "--ck", str(ck), "--m", "1", "--r", "2", "--out", str(c))
        return ck, xk, c

    @pytest.mark.parametrize("cmd, backend", [
        ("audit", TRANSPARENT), ("audit", CURVE), ("forge", TRANSPARENT), ("forge", CURVE),
        ("census", TRANSPARENT), ("census", CURVE)])
    def test_one_context(self, capsys, workdir, monkeypatch, backend, cmd):
        from paircommit.groups import GroupContext
        ck, xk, c = self._keys(capsys, workdir, backend)
        built = []
        init = GroupContext.__init__

        def counted(self, *args):
            built.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(GroupContext, "__init__", counted)
        code, out, err = run(capsys, *_two_key_argv(cmd, ck, xk, c, workdir / "out.txt"))
        assert (code, err) == (0, "")
        assert len(built) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("h=G:", "h=G:x"), "field 'h':"),
        (lambda text: text + "colour=blue\n", "unknown field 'colour'"),
        (lambda text: "".join(reversed(text.splitlines(keepends=True))),
         "field 'h' is out of order, expected 'kind'"),
    ], ids=["bad-element", "unknown-field", "reversed"])
    @pytest.mark.parametrize("cmd", ["audit", "forge", "census"])
    def test_malformed_ck_is_named(self, capsys, workdir, cmd, edit, message):
        ck, xk, c = self._keys(capsys, workdir, TRANSPARENT)
        ck.write_text(edit(ck.read_text()))
        out_file = workdir / "out.txt"
        code, out, err = run(capsys, *_two_key_argv(cmd, ck, xk, c, out_file))
        assert (code, out) == (2, "") and not out_file.exists()
        assert err.startswith(f"error: {ck}: {message}"), err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out
        for k in range(1, 9):
            assert f"PASS criterion {k}:" in out

    @pytest.mark.parametrize("name, fake, row", [
        ("verify", lambda ck, c, pi: True, "criterion 7"),
        ("extract", lambda xk, c, bound=0: 0, "criterion 3"),
    ], ids=["verify-accepts-tampered", "extract-returns-0"])
    def test_fails_on_a_broken_claim(self, capsys, monkeypatch, name, fake, row):
        monkeypatch.setattr(commitment, name, fake)
        code, out, _ = run(capsys, "selftest", "--seed", "1")
        assert code == 1
        assert f"FAIL {row}:" in out and "PASS criterion 1:" in out

    def test_other_commands_do_not_import_it(self):
        """`import paircommit.cli` used to import the claim table too."""
        done = _python("-c", "import sys, paircommit.cli; "
                             "print('paircommit.selftest' in sys.modules)")
        assert done.stdout == "False\n"

    def test_refused_under_python_dash_o(self):
        """With asserts stripped, every row used to pass having checked nothing."""
        done = _python("-O", "-m", "paircommit.cli", "selftest")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error: selftest checks nothing under python -O\n"


def _python(*args):
    """A fresh interpreter's run, on the paircommit these tests import."""
    env = {**os.environ, "PYTHONPATH": str(Path(paircommit.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
