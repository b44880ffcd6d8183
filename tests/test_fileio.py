"""Round trips and error reporting for the key=value file formats."""

import pytest

from paircommit import (
    DeserializeError,
    InvalidKey,
    MalformedText,
    OffCurvePoint,
    Opening,
    SecretKeyMismatch,
    TransparentContext,
    binding_key_from_exponent,
    commit,
    hiding_key_from_exponent,
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
        with pytest.raises(MalformedText, match="expected key=value"):
            fileio.parse_kv("no separator here\n")

    def test_duplicate_field(self):
        with pytest.raises(MalformedText, match="duplicate field"):
            fileio.parse_kv("a=1\na=2\n")

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b"\nn=", b"\n n="),
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: data.replace(b"\nn=", b"\n\nn="),
        lambda data: data[:-1],
    ], ids=["space-before-key", "crlf", "blank-line", "no-final-newline"])
    def test_line_layout(self, tmp_path, t35, edit):
        """Each edit used to load, and the key re-saved to other bytes."""
        ck, _ = binding_key_from_exponent(t35, 3)
        path = tmp_path / "ck.txt"
        fileio.save_commitment_key(path, ck)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(MalformedText) as info:
            fileio.load_commitment_key(path)
        assert str(info.value).startswith(f"{path}")

    def test_non_ascii_byte(self, tmp_path, t35):
        """A non-ASCII byte used to escape as UnicodeDecodeError, which is no
        DeserializeError."""
        ck, _ = binding_key_from_exponent(t35, 3)
        path = tmp_path / "ck.txt"
        fileio.save_commitment_key(path, ck)
        data = path.read_bytes().replace(b"binding", b"bind\xe9ng")
        path.write_bytes(data)
        with pytest.raises(MalformedText) as info:
            fileio.load_commitment_key(path)
        assert str(info.value) == f"{path}: byte {data.index(0xE9)} is not ASCII"


    @pytest.mark.parametrize("kind", ["commitment-key\rX", "commit\x1b[2Jment"],
                             ids=["carriage-return", "escape-sequence"])
    def test_wrong_kind_quoted(self, tmp_path, t35, kind):
        """The kind used to go into the message raw, so a carriage return or
        a terminal escape sequence reached the reader's terminal."""
        ck, _ = binding_key_from_exponent(t35, 3)
        path = tmp_path / "ck.txt"
        fileio.save_commitment_key(path, ck)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"kind=commitment-key\n", f"kind={kind}\n".encode()))
        with pytest.raises(MalformedText) as info:
            fileio.load_commitment_key(path)
        assert str(info.value) == (f"{path}: expected kind='commitment-key', "
                                   f"got kind={kind!r}")
        assert "\r" not in str(info.value) and "\x1b" not in str(info.value)


class TestContextFiles:
    def test_transparent_roundtrip(self, tmp_path, t35):
        path = tmp_path / "ctx.txt"
        fileio.save_context(path, t35)
        loaded = fileio.load_context(path)
        assert loaded == t35
        assert (loaded.p, loaded.q) == (5, 7)

    def test_curve_roundtrip(self, tmp_path, c35):
        path = tmp_path / "ctx.txt"
        fileio.save_context(path, c35)
        loaded = fileio.load_context(path)
        assert loaded == c35
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

    def test_context_without_factorization_not_saved(self, tmp_path):
        path = tmp_path / "ctx.txt"
        with pytest.raises(ValueError, match="context file needs the factorization"):
            fileio.save_context(path, TransparentContext(35))
        assert not path.exists()

    def test_strong_pseudoprime_p_is_refused(self, tmp_path):
        # psi_12, a strong pseudoprime to the bases 2..37, and the next prime
        path = tmp_path / "ctx.txt"
        path.write_text("backend=transparent\np=318665857834031151167461\n"
                        "q=318665857834031151167483\n")
        with pytest.raises(DeserializeError, match="is not prime"):
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

    def test_commitment_of_another_order_rejected(self, tmp_path, t35):
        ck, _ = binding_key_from_exponent(t35, 3)
        path = tmp_path / "c.txt"
        fileio.save_commitment(path, commit(ck, 1, 2), ck)
        _replace_field(path, "n", "15")
        with pytest.raises(MalformedText, match="group order 15 does not match the key's 35"):
            fileio.load_commitment(path, ck)

    def test_extraction_key_naming_the_smaller_prime_rejected(self, tmp_path, t35):
        _, xk = binding_key_from_exponent(t35, 3)
        path = tmp_path / "xk.txt"
        fileio.save_extraction_key(path, xk)
        _replace_field(path, "q", "5")
        with pytest.raises(MalformedText, match="q=5 is not the larger prime factor"):
            fileio.load_extraction_key(path)

    def test_opening_roundtrip(self, tmp_path):
        path = tmp_path / "op.txt"
        fileio.save_opening(path, Opening(1, 27))
        assert fileio.load_opening(path) == Opening(1, 27)

    def test_census_lines(self, t15):
        from paircommit import accepting_census
        ck, _ = binding_key_from_exponent(t15, 1)
        lines = fileio.census_lines(accepting_census(t15, ck))
        assert lines[0] == "n=15"
        assert "c=0 accepting_pi_count=3 verdict=CommitsTo0" in lines
        assert "c=2 accepting_pi_count=0 verdict=Invalid" in lines
        assert "accepting_pairs=30" in lines

    def test_census_lines_above_the_cap(self):
        """Above CENSUS_MAX_ORDER, a line per residue of c mod p (with its
        verdict) and mod q, and the totals."""
        from paircommit import accepting_census, setup_transparent
        ctx = setup_transparent(3, 4099)
        ck, _ = binding_key_from_exponent(ctx, 1)
        assert fileio.census_lines(accepting_census(ctx, ck)) == [
            "n=12297",
            "c_mod_p=0 accepting_pi_count_p=3 verdict=CommitsTo0",
            "c_mod_p=1 accepting_pi_count_p=3 verdict=CommitsTo1",
            "c_mod_p=2 accepting_pi_count_p=0 verdict=Invalid",
        ] + [f"c_mod_q={b} accepting_pi_count_q=1" for b in range(4099)] + [
            "accepting_pairs=24594",
            "accepting_c_CommitsTo0=4099",
            "accepting_c_CommitsTo1=4099",
            "accepting_c_Invalid=0",
        ]


def _replace_field(path, field, value):
    lines = path.read_text().splitlines()
    assert any(line.startswith(f"{field}=") for line in lines)
    path.write_text("".join(f"{field}={value}\n" if line.startswith(f"{field}=")
                            else f"{line}\n" for line in lines))


def _file_kinds(ctx, path):
    """Kind name -> (save a file of that kind to path, its loader)."""
    ck, xk = binding_key_from_exponent(ctx, 3)
    _, tk = hiding_key_from_exponent(ctx, 3)
    return {
        "context": (lambda: fileio.save_context(path, ctx), fileio.load_context),
        "key": (lambda: fileio.save_commitment_key(path, ck), fileio.load_commitment_key),
        "extraction-key": (lambda: fileio.save_extraction_key(path, xk),
                           fileio.load_extraction_key),
        "trapdoor-key": (lambda: fileio.save_trapdoor_key(path, tk), fileio.load_trapdoor_key),
        "commitment": (lambda: fileio.save_commitment(path, commit(ck, 1, 2), ck),
                       lambda p: fileio.load_commitment(p, ck)),
        "proof": (lambda: fileio.save_proof(path, wi_prove(ck, 1, 2), ck),
                  lambda p: fileio.load_proof(p, ck)),
        "opening": (lambda: fileio.save_opening(path, Opening(1, 2)), fileio.load_opening),
    }


@pytest.mark.parametrize("backend", ["transparent", "curve"])
@pytest.mark.parametrize("kind", ["context", "key", "extraction-key", "trapdoor-key",
                                  "commitment", "proof", "opening"])
class TestFieldLists:
    """A file loads only with its kind's fields, in order. An unknown field
    and a reordered file used to load and re-save to other bytes."""

    def _saved(self, tmp_path, t35, c35, backend, kind):
        path = tmp_path / f"{kind}.txt"
        save, load = _file_kinds(t35 if backend == "transparent" else c35, path)[kind]
        save()
        return path, load, path.read_text().splitlines(keepends=True)

    def test_unknown_field(self, tmp_path, t35, c35, backend, kind, refuse_arithmetic):
        """Refused before any value is read: a curve commitment or proof
        used to pay its element's order ladder first."""
        path, load, lines = self._saved(tmp_path, t35, c35, backend, kind)
        path.write_text("".join(lines[:2] + ["colour=blue\n"] + lines[2:]))
        refuse_arithmetic()
        with pytest.raises(MalformedText) as info:
            load(path)
        assert str(info.value) == f"{path}: unknown field 'colour'"

    @pytest.mark.parametrize("order", ["reversed", "last-two-swapped"])
    def test_out_of_order(self, tmp_path, t35, c35, backend, kind, order):
        path, load, lines = self._saved(tmp_path, t35, c35, backend, kind)
        moved = lines[::-1] if order == "reversed" else lines[:-2] + lines[:-3:-1]
        path.write_text("".join(moved))
        with pytest.raises(MalformedText) as info:
            load(path)
        got, want = (line.partition("=")[0] for line in
                     next((a, b) for a, b in zip(moved, lines) if a != b))
        assert str(info.value) == f"{path}: field {got!r} is out of order, expected {want!r}"


@pytest.mark.parametrize("backend", ["transparent", "curve"])
@pytest.mark.parametrize("kind, field", [("commitment", "c"), ("proof", "pi"), ("opening", "r")])
def test_unknown_field_before_a_malformed_value(tmp_path, t35, c35, refuse_arithmetic,
                                                backend, kind, field):
    """An artifact file's field names are checked before any value is read:
    with an unknown field and a malformed value, the unknown field is named,
    and no order ladder or primality test runs. The malformed value used to
    be reported first, and a curve element's ladder run before either."""
    path = tmp_path / f"{kind}.txt"
    save, load = _file_kinds(t35 if backend == "transparent" else c35, path)[kind]
    save()
    _replace_field(path, field, "05")
    path.write_text(path.read_text() + "colour=blue\n")
    refuse_arithmetic()
    with pytest.raises(MalformedText) as info:
        load(path)
    assert str(info.value) == f"{path}: unknown field 'colour'"


@pytest.mark.parametrize("ctx_name", ["t35", "c35"])
def test_load_commitment_key_same_as(request, tmp_path, ctx_name):
    """A file listing exactly same_as loads as same_as itself; any other
    file loads in full and is checked as usual."""
    ctx = request.getfixturevalue(ctx_name)
    (ck3, _), (ck4, _) = (binding_key_from_exponent(ctx, e) for e in (3, 4))
    path = tmp_path / "ck.txt"
    fileio.save_commitment_key(path, ck3)
    assert fileio.load_commitment_key(path, same_as=ck3) is ck3
    other = fileio.load_commitment_key(path, same_as=ck4)
    assert other == ck3 and other is not ck3
    path.write_text(path.read_text() + "colour=blue\n")
    with pytest.raises(MalformedText, match="unknown field 'colour'"):
        fileio.load_commitment_key(path, same_as=ck3)


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
        # the group itself is invalid: the context's message, after the path
        ("context", "p", "4", DeserializeError),
        ("key", "n", "34", DeserializeError),
        ("extraction-key", "q", "35", DeserializeError),
        # an integer spelled other than str(int) does
        ("context", "p", "05", MalformedText),
        ("key", "fprime", "+139", MalformedText),
        ("commitment", "c", "G:+1,1", MalformedText),
    ])
    def test_curve(self, tmp_path, c35, kind, field, bad, error):
        path = tmp_path / f"{kind}.txt"
        save, load = _file_kinds(c35, path)[kind]
        save()
        _replace_field(path, field, bad)
        with pytest.raises(error) as info:
            load(path)
        assert type(info.value) is error
        named = f"{path}: field '{field}':" if error is not DeserializeError else f"{path}: "
        assert str(info.value).startswith(named)

    @pytest.mark.parametrize("field, bad", [
        ("c", "G:35"), ("c", "G:-1"), ("h", "G:x"),
        # non-canonical integers, which used to load and re-save differently
        ("n", "+35"), pytest.param("n", " 35", id="n-space35"), ("n", "3_5"), ("n", "035"),
        ("h", "G:+5"), ("h", "G:05"), ("h", "G:1_0"),
        # space around a value, which used to be stripped
        pytest.param("n", "35 ", id="n-35space"), pytest.param("h", " G:15", id="h-spaceG:15"),
        pytest.param("h", "G:15\t", id="h-G:15tab"),
    ])
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
