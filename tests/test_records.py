"""The protocol's values as records: equality and hash within one type,
never with another type or a plain tuple, no assignment, and the repr
of a dataclass. The package imports no dataclasses."""

import os
import random
import subprocess
import sys
from collections import namedtuple

import pytest

import paircommit
from paircommit import (
    CensusResult,
    ClaimReport,
    Commitment,
    CommitmentKey,
    ExtractionKey,
    ForgeryRecord,
    Opening,
    TrapdoorKey,
    Verdict,
    WIProof,
    accepting_census,
    audit,
    binding_key_from_exponent,
    claim_report,
    commit,
    extract,
    forge,
    hiding_key_from_exponent,
    key_fingerprint,
    setup_curve,
    wi_prove,
)
from paircommit.forgery import CensusRow

# type -> the names of the fields ==, hash and repr read, in order
FIELDS = {
    Verdict: ("label", "c_pow_q", "c_over_g_pow_q"),
    ForgeryRecord: ("k_a", "ell", "alpha1", "alpha2", "beta1", "beta2", "c", "pi"),
    ClaimReport: ("verification_passes", "alpha1_is_bit", "g_alpha1_in_gq", "verdict"),
    CensusRow: ("c_exp", "accepting_pi_count", "verdict_label"),
    CensusResult: ("n", "rows", "accepting_pairs", "accepting_c_by_verdict",
                   "p_counts", "q_counts", "p_labels"),
    Commitment: ("c", "key_fp"),
    WIProof: ("pi", "key_fp"),
    Opening: ("m", "r"),
    TrapdoorKey: ("ck", "x"),
    CommitmentKey: ("context", "h", "mode"),
    ExtractionKey: ("ck", "q"),
}


def _values(ctx, x, e):
    """One value of every record type, built from scratch from (x, e): the
    same arguments give equal values that share no object but the context."""
    ck, xk = binding_key_from_exponent(ctx, x)
    _, tk = hiding_key_from_exponent(ctx, x)
    rec = forge(ck, ctx.p, ctx.q, beta1=e)
    report = claim_report(rec, ck, ctx.p, ctx.q)
    census = accepting_census(ctx, ck)
    return {
        Verdict: audit(ctx.q, ck, commit(ck, 1, e)),
        ForgeryRecord: rec,
        ClaimReport: report,
        CensusRow: census.rows[e],
        CensusResult: census,
        Commitment: commit(ck, 0, e),
        WIProof: wi_prove(ck, 0, e),
        Opening: Opening(1, e),
        TrapdoorKey: tk,
        CommitmentKey: ck,
        ExtractionKey: xk,
    }


RECORDS = list(FIELDS)
IDS = [cls.__name__ for cls in RECORDS]
UNHASHABLE = (CensusResult,)  # its rows are a list


@pytest.fixture(scope="module")
def built(t35, t15):
    return _values(t35, 3, 2), _values(t35, 3, 2), _values(t15, 2, 4)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_equal_within_the_type(self, built, cls):
        a, twin, other = (values[cls] for values in built)
        assert type(a) is cls and a is not twin
        assert a == twin and not a != twin
        assert a != other and not a == other
        if cls not in UNHASHABLE:
            assert hash(a) == hash(twin)
            assert len({a, twin, other}) == 2

    def test_never_equal_to_another_type_or_a_tuple(self, built, cls):
        a = built[0][cls]
        fields = tuple(getattr(a, name) for name in FIELDS[cls])
        # the plain tuple, and every other record type that holds as many fields
        strangers = [fields] + [other._make(fields) for other in RECORDS
                                if other is not cls and issubclass(other, tuple)
                                and len(FIELDS[other]) == len(fields)]
        for stranger in strangers:
            assert a != stranger and stranger != a
            assert not a == stranger and not stranger == a
        # a tuple type of another library compares as a tuple from its own
        # side only; a record never calls it equal
        impostor = namedtuple("Impostor", FIELDS[cls])(*fields)
        assert a != impostor and not a == impostor

    def test_fields_cannot_be_assigned(self, built, cls):
        a = built[0][cls]
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_repr_lists_the_fields(self, built, cls):
        a = built[0][cls]
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in FIELDS[cls])
        assert repr(a) == f"{cls.__name__}({fields})"


def test_same_fields_in_two_types_are_unequal(t35):
    ck, _ = binding_key_from_exponent(t35, 3)
    fp = key_fingerprint(ck)
    assert Commitment(t35.g, fp) != WIProof(t35.g, fp)
    assert WIProof(t35.g, fp) != Commitment(t35.g, fp)
    assert CensusRow(0, 5, "CommitsTo0") != (0, 5, "CommitsTo0")
    assert Opening(1, 2) != (1, 2) and (1, 2) != Opening(1, 2)


def test_pinned_reprs(t35):
    ck, _ = binding_key_from_exponent(t35, 3)
    fp = key_fingerprint(ck)
    assert repr(Opening(1, 2)) == "Opening(m=1, r=2)"
    assert repr(Commitment(t35.g, fp)) == f"Commitment(c=<GElement G:1>, key_fp='{fp}')"
    assert repr(CensusRow(3, 5, "Invalid")) == (
        "CensusRow(c_exp=3, accepting_pi_count=5, verdict_label='Invalid')")


def test_extraction_table_is_outside_eq_hash_and_repr(t35):
    ck, xk = binding_key_from_exponent(t35, 3)
    _, twin = binding_key_from_exponent(t35, 3)
    assert extract(xk, commit(ck, 1, 2)) == 1
    assert xk._steps is not None and twin._steps is None
    assert xk == twin and hash(xk) == hash(twin) and repr(xk) == repr(twin)
    assert "_steps" not in repr(xk)


def test_key_digest_fixed_at_construction(t35):
    ck, _ = binding_key_from_exponent(t35, 3)
    assert key_fingerprint(ck) == ck._digest
    with pytest.raises(AttributeError):
        ck._digest = "0" * 16
    assert "_digest" not in repr(ck)
    # on the curve, building a key marks its h as a fixed base
    ctx = setup_curve(5, 7, random.Random(7))
    h = ctx.g ** 10
    assert h.value not in ctx._fixed
    CommitmentKey(ctx, h, "binding")
    assert h.value in ctx._fixed


def test_cli_import_loads_no_dataclasses():
    """Nor typing or pathlib, which a clean interpreter would import for it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(paircommit.__file__)))
    code = ("import sys, paircommit.cli; "
            "print([m for m in ('dataclasses', 'typing', 'pathlib') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
