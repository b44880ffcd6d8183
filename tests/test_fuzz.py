"""Loader fuzz: mutations of real saved files, on both backends.

Every file kind that has a loader is saved once at (5, 7) transparent and
at an 8-bit curve context, then mutated: one bit flipped, two lines swapped, a line dropped
or duplicated, an integer moved by one or given a leading 0 or +, or one
field's value copied into another field. Most mutations keep the syntax and reach the meaning checks
(order, h^q, x matching h). A loader must return an object that re-saves
to the mutated bytes, or raise a DeserializeError; through cli.main, a
mutated file exits 0, 1 or 2 and prints no traceback.
"""

import random
import re
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paircommit import (
    DeserializeError,
    binding_keygen,
    commit,
    hiding_keygen,
    setup_curve,
    setup_transparent,
    wi_prove,
)
from paircommit import fileio
from paircommit.cli import main
from paircommit.commitment import Opening

# the same examples on every run, so tier-1 stays deterministic and bounded
FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


class _Seeds:
    """One saved file of each kind in home, and how to load and save it."""

    def __init__(self, ctx, home):
        rng = random.Random(1)
        ck, xk = binding_keygen(ctx, rng)
        hck, tk = hiding_keygen(ctx, rng)
        r, hr = rng.randrange(ctx.n), rng.randrange(ctx.n)
        # kind -> (file name, object, save(path, obj), load(path))
        self.kinds = {
            "context": ("ctx.txt", ctx, fileio.save_context, fileio.load_context),
            "commitment-key": ("ck.txt", ck, fileio.save_commitment_key,
                               fileio.load_commitment_key),
            "extraction-key": ("xk.txt", xk, fileio.save_extraction_key,
                               fileio.load_extraction_key),
            "trapdoor-key": ("tk.txt", tk, fileio.save_trapdoor_key,
                             fileio.load_trapdoor_key),
            "commitment": ("c.txt", commit(ck, 1, r), partial(fileio.save_commitment, ck=ck),
                           partial(fileio.load_commitment, ck=ck)),
            "proof": ("pi.txt", wi_prove(ck, 1, r), partial(fileio.save_proof, ck=ck),
                      partial(fileio.load_proof, ck=ck)),
            "opening": ("op.txt", Opening(1, r), fileio.save_opening, fileio.load_opening),
        }
        self.home = home
        for name, obj, save, _ in self.kinds.values():
            save(home / name, obj)
        fileio.save_commitment_key(home / "hck.txt", hck)
        fileio.save_commitment(home / "hc.txt", commit(hck, 0, hr), hck)
        fileio.save_opening(home / "hop.txt", Opening(0, hr))

    def text(self, kind):
        return (self.home / self.kinds[kind][0]).read_bytes()


@pytest.fixture(scope="module", params=["transparent", "curve"])
def seeds(request, tmp_path_factory):
    if request.param == "transparent":
        ctx = setup_transparent(5, 7)
    else:
        ctx = setup_curve(131, 251, random.Random(1))
    return _Seeds(ctx, tmp_path_factory.mktemp(request.param))


@st.composite
def mutations(draw, text):
    """text with one mutation; a swap or copy may pick the same line twice."""
    lines = text.split(b"\n")[:-1]  # every line ends with a newline
    index = st.integers(0, len(lines) - 1)
    how = draw(st.sampled_from(["flip", "swap", "drop", "dup", "int", "spell", "copy"]))
    if how == "flip":
        i, bit = draw(st.integers(0, len(text) - 1)), draw(st.integers(0, 7))
        return text[:i] + bytes([text[i] ^ 1 << bit]) + text[i + 1:]
    if how in ("int", "spell"):
        start, end = draw(st.sampled_from([m.span() for m in re.finditer(rb"\d+", text)]))
        if how == "spell":  # the same integer, spelled as str(int) never does
            return text[:start] + draw(st.sampled_from([b"0", b"+"])) + text[start:]
        moved = int(text[start:end]) + draw(st.sampled_from([-1, 1]))
        return text[:start] + str(moved).encode() + text[end:]
    i = draw(index)
    if how == "swap":
        j = draw(index)
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "drop":
        del lines[i]
    elif how == "dup":
        lines.insert(i, lines[i])
    else:
        j = draw(index)
        lines[j] = lines[j].partition(b"=")[0] + b"=" + lines[i].partition(b"=")[2]
    return b"".join(line + b"\n" for line in lines)


KINDS = ["context", "commitment-key", "extraction-key", "trapdoor-key",
         "commitment", "proof", "opening"]


@pytest.mark.parametrize("kind", KINDS)
def test_loader_accepts_only_what_it_resaves(seeds, kind, tmp_path_factory):
    _, _, save, load = seeds.kinds[kind]
    work = tmp_path_factory.mktemp("fuzz")
    mutated, resaved = work / "mutated.txt", work / "resaved.txt"

    @settings(FUZZ, max_examples=30)
    @given(mutations(seeds.text(kind)))
    def check(text):
        mutated.write_bytes(text)
        try:
            obj = load(mutated)
        except DeserializeError:
            return
        save(resaved, obj)
        assert resaved.read_bytes() == text

    check()


# kind -> the argv of a command that reads that file kind, with {} for it
_READERS = {
    "context": ["keygen", "--mode", "binding", "--context", "{}", "--out-ck", "out-ck.txt",
                "--out-secret", "out-xk.txt", "--seed", "1"],
    "commitment-key": ["verify", "--ck", "{}", "--commitment", "c.txt", "--proof", "pi.txt"],
    "extraction-key": ["audit", "--secret", "{}", "--ck", "ck.txt", "--commitment", "c.txt"],
    "trapdoor-key": ["open", "--secret", "{}", "--commitment", "hc.txt", "--opening",
                     "hop.txt", "--m-new", "1", "--out", "out-op.txt"],
    "commitment": ["extract", "--secret", "xk.txt", "--commitment", "{}"],
    "proof": ["verify", "--ck", "ck.txt", "--commitment", "c.txt", "--proof", "{}"],
    "opening": ["prove", "--ck", "ck.txt", "--opening", "{}", "--out", "out-pi.txt"],
}


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_cli_exits_cleanly_on_mutated_files(seeds, kind, capsys, monkeypatch):
    monkeypatch.chdir(seeds.home)
    argv = [arg.replace("{}", "mutated.txt") for arg in _READERS[kind]]

    @settings(FUZZ, max_examples=12)
    @given(mutations(seeds.text(kind)))
    def check(text):
        (seeds.home / "mutated.txt").write_bytes(text)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err

    check()
