"""The immutable result types: Record's construction, equality, hash,
repr, replace and pickling, and an import that generates no code."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from brimlab.corpus import ENTRIES, by_name
from brimlab.dsl import ProblemSpec, parse
from brimlab.homology import EulerTable, HomologyPresentation
from brimlab.multiplicity import ChiRow, SpreadSample
from brimlab.rings import ParameterVerdict
from brimlab.verify import Violation

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_fields_cannot_be_assigned_or_deleted():
    row = ChiRow(1, (2, 0), (2, 0))
    with pytest.raises(AttributeError):
        row.t = 2
    with pytest.raises(AttributeError):
        del row.chis
    with pytest.raises(AttributeError):
        row.extra = 0  # no __dict__ to fall back on
    assert row == ChiRow(1, (2, 0), (2, 0))


def test_equality_is_by_value_within_one_type():
    row = ChiRow(1, (2, 0), (2, 0))
    assert row == ChiRow(t=1, h_lengths=(2, 0), chis=(2, 0)) and hash(row) == hash(ChiRow(1, (2, 0), (2, 0)))
    assert row != ChiRow(1, (2, 0), (2, 1))
    # the same field values in another record type, or in a plain tuple, are never equal
    assert SpreadSample("x", 1, 2) != Violation("x", 1, 2)
    assert Violation("x", 1, 2) != SpreadSample("x", 1, 2)
    assert row != (1, (2, 0), (2, 0)) and (1, (2, 0), (2, 0)) != row
    assert EulerTable((1,), (1,)) != ChiRow((1,), (1,), 0)
    assert len({SpreadSample("x", 1, 2), Violation("x", 1, 2), SpreadSample("x", 1, 2)}) == 2


def test_corpus_entry_hashes_without_its_homology_dict():
    entry = by_name("E1")
    assert isinstance(entry.h_by_t, dict)
    assert len(set(ENTRIES)) == len(ENTRIES)
    other = entry.replace(h_by_t={})
    assert hash(other) == hash(entry) and other != entry


def test_presentation_repr_omits_complex_basis_and_hilbert_function():
    pres = HomologyPresentation(1, (), 3, "CX", "BASIS", {0: 3})
    assert repr(pres) == "HomologyPresentation(p=1, cycles=(), length=3)"
    assert repr(ChiRow(0, (1,), (1,))) == "ChiRow(t=0, h_lengths=(1,), chis=(1,))"
    bare = HomologyPresentation(1, (), 3, cx="CX")
    assert bare.basis is None and bare.hilbert_function is None


def test_each_problem_spec_gets_a_fresh_options_dict():
    a = ProblemSpec(2, ("x",), (), 1, ())
    b = ProblemSpec(p=2, variables=("x",), ideal=(), rank=1, matrix=())
    assert a.options == {} and b.options == {} and a.options is not b.options
    a.options["budget_pairs"] = 1
    assert b.options == {} and ProblemSpec(2, ("x",), (), 1, ()).options == {}


@pytest.mark.parametrize("args, kwargs, says", [
    ((1, 2), {}, "missing"),                                  # chis missing
    ((), {"t": 1, "h_lengths": ()}, "missing"),
    ((1, 2, 3), {"colour": 4}, "by position and colour by name"),  # unknown
    ((1, 2), {"t": 1, "chis": ()}, "2 by position and t, chis"),   # t by position and by name
    ((1, 2, 3, 4), {}, "got 4 by position"),                       # too many positional
])
def test_wrong_fields_raise_type_error(args, kwargs, says):
    with pytest.raises(TypeError, match=says):
        ChiRow(*args, **kwargs)


def test_replace_builds_a_copy_and_leaves_the_original():
    verdict = ParameterVerdict(True, True, True, 6, 2)
    changed = verdict.replace(colength=7, mu=3)
    assert changed == ParameterVerdict(True, True, True, 7, 3)
    assert verdict == ParameterVerdict(True, True, True, 6, 2) and verdict.colength == 6
    assert verdict.replace() == verdict and verdict.replace() is not verdict
    with pytest.raises(TypeError):
        verdict.replace(colour=1)


@pytest.mark.parametrize("value", [
    by_name("E3"),
    parse(by_name("E2").text),
    ParameterVerdict(False, True, False, float("inf"), None),
    EulerTable((6, 0, 0), (6, 0, 0)),
])
def test_pickle_and_copy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value


def test_importing_brimlab_loads_no_code_generator():
    """A frozen dataclass compiles its methods with exec when its module is
    imported, and dataclasses brings in inspect; brimlab needs neither."""
    code = ("import sys; before = set(sys.modules); import brimlab, brimlab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
