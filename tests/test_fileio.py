"""Round trips and error reporting for the key=value file formats."""

import pytest

from paircommit import (
    DeserializeError,
    InvalidKey,
    MalformedText,
    OffCurvePoint,
    Opening,
    SecretKeyMismatch,
    binding_key_from_exponent,
    binding_keygen,
    commit,
    forge,
    hiding_key_from_exponent,
    hiding_keygen,
    key_fingerprint,
    wi_prove,
)
from paircommit import fileio


class TestKv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "f.txt"
        fileio.write_kv(path, [("a", "1"), ("b", "G:2,3")])
        assert path.read_text() == "a=1\nb=G:2,3\n"
        assert fileio.read_kv(path) == {"a": "1", "b": "G:2,3"}

    def test_malformed_line(self):
        with pytest.raises(MalformedText):
            fileio.parse_kv("no separator here")

    def test_duplicate_field(self):
        with pytest.raises(MalformedText):
            fileio.parse_kv("a=1\na=2")


class TestContextFiles:
    def test_transparent_roundtrip(self, tmp_path, t35):
        path = tmp_path / "ctx.txt"
        fileio.save_context(path, t35)
        loaded = fileio.load_context(path)
        assert loaded.same_group(t35)
        assert (loaded.p, loaded.q) == (5, 7)

    def test_curve_roundtrip(self, tmp_path, c35):
        path = tmp_path / "ctx.txt"
        fileio.save_context(path, c35)
        loaded = fileio.load_context(path)
        assert loaded.same_group(c35)
        assert loaded.field_prime == 139
        assert loaded.g == c35.g

    def test_missing_field(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("backend=transparent\np=5\n")
        with pytest.raises(MalformedText):
            fileio.load_context(path)

    def test_unknown_backend(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("backend=quantum\np=5\nq=7\n")
        with pytest.raises(MalformedText):
            fileio.load_context(path)


@pytest.mark.parametrize("backend", ["transparent", "curve"])
class TestKeyFiles:
    def test_commitment_key_roundtrip(self, tmp_path, t35, c35, backend):
        ctx = t35 if backend == "transparent" else c35
        ck, _ = binding_key_from_exponent(ctx, 3)
        path = tmp_path / "ck.txt"
        fileio.save_commitment_key(path, ck)
        loaded = fileio.load_commitment_key(path)
        assert key_fingerprint(loaded) == key_fingerprint(ck)
        assert loaded.h == ck.h
        # the public file must not leak the factorization
        assert not loaded.context.knows_factorization
        text = path.read_text()
        assert "p=" not in text and "q=" not in text

    def test_extraction_key_roundtrip(self, tmp_path, t35, c35, backend):
        ctx = t35 if backend == "transparent" else c35
        ck, xk = binding_key_from_exponent(ctx, 2)
        path = tmp_path / "xk.txt"
        fileio.save_extraction_key(path, xk)
        loaded = fileio.load_extraction_key(path)
        assert loaded.q == 7
        # the secret file restores the full factorization (p = n/q)
        assert loaded.ck.context.p == 5
        assert key_fingerprint(loaded.ck) == key_fingerprint(ck)

    def test_trapdoor_key_roundtrip(self, tmp_path, t35, c35, backend):
        ctx = t35 if backend == "transparent" else c35
        ck, tk = hiding_key_from_exponent(ctx, 3)
        path = tmp_path / "tk.txt"
        fileio.save_trapdoor_key(path, tk)
        loaded = fileio.load_trapdoor_key(path)
        assert loaded.x == 3
        assert key_fingerprint(loaded.ck) == key_fingerprint(ck)

    def test_hiding_extraction_key_rejected(self, tmp_path, t35, c35, backend):
        """A hiding key relabelled as an extraction key used to load, and
        audit and census then printed verdicts for it with exit 0."""
        ctx = t35 if backend == "transparent" else c35
        _, tk = hiding_key_from_exponent(ctx, 1)
        path = tmp_path / "xk.txt"
        fileio.save_trapdoor_key(path, tk)
        path.write_text(path.read_text().replace("kind=trapdoor-key", "kind=extraction-key")
                        .replace("x=1\n", "q=7\n"))
        with pytest.raises(InvalidKey) as info:
            fileio.load_extraction_key(path)
        assert str(info.value).startswith(f"{path}: field 'mode':")

    @pytest.mark.parametrize("x, message", [(2, "g^2 is not the key's h"),
                                            (5, "x=5 shares a factor with n=35")],
                             ids=["not-log-of-h", "shares-factor"])
    def test_trapdoor_key_with_wrong_x_rejected(self, tmp_path, t35, c35, backend, x, message):
        """x=1 edited to x=2 used to load, and `open` then wrote an opening
        that does not open the commitment."""
        ctx = t35 if backend == "transparent" else c35
        _, tk = hiding_key_from_exponent(ctx, 1)
        path = tmp_path / "tk.txt"
        fileio.save_trapdoor_key(path, tk)
        _replace_field(path, "x", str(x))
        with pytest.raises(SecretKeyMismatch) as info:
            fileio.load_trapdoor_key(path)
        assert str(info.value) == f"{path}: field 'x': {message}"


class TestArtifactFiles:
    def test_commitment_roundtrip(self, tmp_path, t35):
        ck, _ = binding_key_from_exponent(t35, 3)
        com = commit(ck, 1, 2)
        path = tmp_path / "c.txt"
        fileio.save_commitment(path, com, ck)
        assert fileio.load_commitment(path, ck) == com

    def test_commitment_under_loaded_key(self, tmp_path, t35):
        """Write with the original key, read back with the deserialized one."""
        ck, _ = binding_key_from_exponent(t35, 3)
        ck_path = tmp_path / "ck.txt"
        fileio.save_commitment_key(ck_path, ck)
        loaded_ck = fileio.load_commitment_key(ck_path)
        com = commit(ck, 1, 2)
        c_path = tmp_path / "c.txt"
        fileio.save_commitment(c_path, com, ck)
        reloaded = fileio.load_commitment(c_path, loaded_ck)
        assert reloaded.c.value == com.c.value

    def test_proof_roundtrip(self, tmp_path, t35):
        ck, _ = binding_key_from_exponent(t35, 3)
        proof = wi_prove(ck, 0, 2)
        path = tmp_path / "pi.txt"
        fileio.save_proof(path, proof, ck)
        assert fileio.load_proof(path, ck) == proof

    def test_wrong_key_fingerprint_rejected(self, tmp_path, t35):
        ck, _ = binding_key_from_exponent(t35, 3)
        other, _ = binding_key_from_exponent(t35, 2)
        com = commit(ck, 1, 2)
        path = tmp_path / "c.txt"
        fileio.save_commitment(path, com, ck)
        with pytest.raises(MalformedText):
            fileio.load_commitment(path, other)

    def test_opening_roundtrip(self, tmp_path):
        path = tmp_path / "op.txt"
        fileio.save_opening(path, Opening(1, 27))
        assert fileio.load_opening(path) == Opening(1, 27)

    def test_forgery_roundtrip(self, tmp_path, t35):
        ck, _ = binding_key_from_exponent(t35, 3)
        rec = forge(ck, 5, 7, beta1=2)
        path = tmp_path / "forgery.txt"
        fileio.save_forgery(path, rec, ck)
        loaded = fileio.load_forgery(path, ck)
        assert loaded == rec

    def test_census_lines(self, t15):
        from paircommit import accepting_census
        ck, _ = binding_key_from_exponent(t15, 1)
        lines = fileio.census_lines(accepting_census(t15, ck))
        assert lines[0] == "n=15"
        assert "c=0 accepting_pi_count=3 verdict=CommitsTo0" in lines
        assert "c=2 accepting_pi_count=0 verdict=Invalid" in lines
        assert "accepting_pairs=30" in lines


def _replace_field(path, field, value):
    lines = path.read_text().splitlines()
    assert any(line.startswith(f"{field}=") for line in lines)
    path.write_text("".join(f"{field}={value}\n" if line.startswith(f"{field}=")
                            else f"{line}\n" for line in lines))


class TestMalformedFields:
    """A bad element in any file names the file and the field."""

    @pytest.mark.parametrize("kind, field, bad, error", [
        ("context", "g", "G:1,x", MalformedText),
        ("context", "g", "G:1,1", OffCurvePoint),
        ("key", "g", "G:12", MalformedText),
        ("key", "h", "G:1,1", OffCurvePoint),
        ("commitment", "c", "G:12,x", MalformedText),
        ("commitment", "c", "G:1,1", OffCurvePoint),
        ("proof", "pi", "H:1", MalformedText),
        ("forgery", "c", "G:139,0", MalformedText),
        # the group itself is invalid: the context's message, after the path
        ("context", "p", "4", DeserializeError),
        ("key", "n", "34", DeserializeError),
        ("extraction-key", "q", "35", DeserializeError),
    ])
    def test_curve(self, tmp_path, c35, kind, field, bad, error):
        ck, xk = binding_key_from_exponent(c35, 3)
        path = tmp_path / f"{kind}.txt"
        save, load = {
            "context": (lambda: fileio.save_context(path, c35), fileio.load_context),
            "key": (lambda: fileio.save_commitment_key(path, ck), fileio.load_commitment_key),
            "extraction-key": (lambda: fileio.save_extraction_key(path, xk),
                               fileio.load_extraction_key),
            "commitment": (lambda: fileio.save_commitment(path, commit(ck, 1, 2), ck),
                           lambda p: fileio.load_commitment(p, ck)),
            "proof": (lambda: fileio.save_proof(path, wi_prove(ck, 1, 2), ck),
                      lambda p: fileio.load_proof(p, ck)),
            "forgery": (lambda: fileio.save_forgery(path, forge(ck, 5, 7, beta1=2), ck),
                        lambda p: fileio.load_forgery(p, ck)),
        }[kind]
        save()
        _replace_field(path, field, bad)
        with pytest.raises(error) as info:
            load(path)
        assert type(info.value) is error
        named = f"{path}: field '{field}':" if error is not DeserializeError else f"{path}: "
        assert str(info.value).startswith(named)

    @pytest.mark.parametrize("field, bad", [("c", "G:35"), ("c", "G:-1"), ("h", "G:x")])
    def test_transparent(self, tmp_path, t35, field, bad):
        ck, _ = binding_key_from_exponent(t35, 3)
        ck_path, c_path = tmp_path / "ck.txt", tmp_path / "c.txt"
        fileio.save_commitment_key(ck_path, ck)
        fileio.save_commitment(c_path, commit(ck, 1, 2), ck)
        path = c_path if field == "c" else ck_path
        _replace_field(path, field, bad)
        with pytest.raises(MalformedText) as info:
            fileio.load_commitment(c_path, fileio.load_commitment_key(ck_path))
        assert str(info.value).startswith(f"{path}: field '{field}':")
