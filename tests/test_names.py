"""Names that code outside the package reaches by string: the benchmark's
traced functions and the package's __all__."""

import functools
import importlib
import importlib.util
import pathlib

import brimlab

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # the standard library only
    assert spans.TRACED
    for module, attr in spans.TRACED:
        mod = importlib.import_module("brimlab." + module)
        assert callable(functools.reduce(getattr, attr.split("."), mod)), (module, attr)


def test_every_exported_name_resolves():
    missing = [name for name in brimlab.__all__ if not hasattr(brimlab, name)]
    assert missing == []
