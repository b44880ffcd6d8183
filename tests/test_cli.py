"""CLI workflows: pipelines, exit codes, seed determinism."""

import hashlib

import pytest

from paircommit.cli import main
from paircommit.groups import CURVE, TRANSPARENT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

PIPELINE_CURVE_SHA256 = "5b84bd1523851aeda30a94caf016fa74623f4663d3f923f6d47eaa44dcb658ee"


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

        # split the record into commitment and proof files and verify
        from paircommit import fileio
        loaded_ck = fileio.load_commitment_key(ck)
        rec = fileio.load_forgery(forgery, loaded_ck)
        c, pi = workdir / "fc.txt", workdir / "fpi.txt"
        fileio.save_commitment(c, rec.c, loaded_ck)
        fileio.save_proof(pi, rec.pi, loaded_ck)
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
        from paircommit import binding_key_from_exponent, fileio, setup_transparent
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

        rec = fileio.load_forgery(forgery, ck_obj)
        c, pi = workdir / "fc.txt", workdir / "fpi.txt"
        fileio.save_commitment(c, rec.c, ck_obj)
        fileio.save_proof(pi, rec.pi, ck_obj)
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

    def test_curve_cofactor_failure_message(self, capsys, workdir, monkeypatch):
        import paircommit.cli as cli_mod
        monkeypatch.setattr(cli_mod, "setup_curve",
                            lambda p, q, rng: (_ for _ in ()).throw(
                                ValueError("no suitable field prime")))
        code, _, err = run(capsys, "params", "--bits-p", "3", "--bits-q", "3",
                           "--backend", "curve", "--seed", "1",
                           "--out", str(workdir / "ctx.txt"))
        assert code == 2 and "field prime" in err

    def test_mismatched_secret_and_key(self, capsys, workdir):
        ctx, _ = _make_params(capsys, workdir)
        ck1, xk1 = workdir / "ck1.txt", workdir / "xk1.txt"
        ck2, xk2 = workdir / "ck2.txt", workdir / "xk2.txt"
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck1), "--out-secret", str(xk1), "--seed", "2")
        run(capsys, "keygen", "--mode", "binding", "--context", str(ctx),
            "--out-ck", str(ck2), "--out-secret", str(xk2), "--seed", "3")
        code, _, err = run(capsys, "forge", "--ck", str(ck1), "--secret", str(xk2),
                           "--beta1", "2", "--out", str(workdir / "f.txt"))
        assert code == 2 and "error:" in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out
