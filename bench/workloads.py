"""Seeded inputs and timed operations of the three benchmark workloads.

Every input is drawn here from random.Random("<workload seed>:<case
seed>"); each case has its own frozen integer seed, so adding a case
shifts no other case, and string seeds hash with SHA-512, not hash(), so
PYTHONHASHSEED changes nothing.  The program receives only the finished
matrices (or, for `battery`, problem files).

setup() imports brimlab afresh each time it is called, so that every
timed set-up includes the import.
"""

import importlib
import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

P = 101

# name -> (variables, ideal generators as {exponents: coefficient})
RINGS = {
    "P1": ("x",),
    "P2": ("x", "y"),
    "P3": ("x", "y", "z"),
    "P4": ("x", "y", "z", "w"),
    "cone": ("x", "y", "z"),
    "ncm": ("x", "y", "z"),
}
IDEALS = {
    "cone": ({(1, 1, 0): 1, (0, 0, 2): P - 1},),   # x*y - z^2
    "ncm": ({(2, 0, 0): 1}, {(1, 1, 0): 1}),         # x^2, x*y
}
# Rings whose every parameter module has e0 = l(F/N) (Buchsbaum-Rim 1964)
COHEN_MACAULAY = frozenset(("P1", "P2", "P3", "P4", "cone"))


class Case(NamedTuple):
    name: str
    seed: int
    ring: str
    r: int
    n: int          # columns; 0 means dim A + r - 1, a parameter module
    degree: int     # degree of every entry
    ts: tuple = ()  # homology-wide: the shifts t to run


# Two modules of each kind, and a third P3 one: the cost of one table
# moves with the drawn coefficients (a P4 table with the same S-pair
# count took 2.3 s on one seed and 3.1 s on another), which a second draw
# of each kind evens out in wall_s.  With nine tables the median one is
# a P3 table, whose cost varies least between seeds, not the mean of the
# P3 and P4 tables on either side of the middle.
LAMBDA_TOWER = (
    Case("P4-r1-d1-a", 11, "P4", 1, 0, 1),
    Case("P3-r1-d2-a", 12, "P3", 1, 0, 2),
    Case("P2-r2-d2-a", 13, "P2", 2, 0, 2),
    Case("cone-r2-d1-a", 14, "cone", 2, 0, 1),
    Case("P4-r1-d1-b", 16, "P4", 1, 0, 1),
    Case("P3-r1-d2-b", 17, "P3", 1, 0, 2),
    Case("P2-r2-d2-b", 18, "P2", 2, 0, 2),
    Case("cone-r2-d1-b", 19, "cone", 2, 0, 1),
    Case("P3-r1-d2-c", 20, "P3", 1, 0, 2),
)

# 44 s at the parent of the benchmark: kept out of the timed set, run by hand
LAMBDA_REFERENCE = (Case("P3-r2-d1", 15, "P3", 2, 0, 1),)


def _battery_kind(prefix, base, ring, r, degree, count=6):
    return tuple(Case("%s-%d" % (prefix, i), base + i, ring, r, 0, degree) for i in range(count))


BATTERY = (
    _battery_kind("P3-r1-d1", 2100, "P3", 1, 1)
    + _battery_kind("cone-r1-d1", 2200, "cone", 1, 1)
    + _battery_kind("cone-r1-d2", 2300, "cone", 1, 2)
    + _battery_kind("ncm-r1-d1", 2400, "ncm", 1, 1)
    + _battery_kind("ncm-r1-d2", 2500, "ncm", 1, 2)
    + _battery_kind("P2-r2-d1", 2600, "P2", 2, 1)
    + _battery_kind("P1-r3-d1", 2700, "P1", 3, 1)
    + _battery_kind("P2-r1-d3", 2800, "P2", 1, 3)
)

# The rank-2 quotient-ring matrices run t = 0..n-r only: their t = -1 and
# t = n-r+1 complexes take 9-11 s each, longer than a third of a run.
HOMOLOGY_WIDE = (
    Case("P2-r2-n5-d1", 31, "P2", 2, 5, 1, tuple(range(-1, 5))),
    Case("cone-r2-n4-d1", 32, "cone", 2, 4, 1, (0, 1, 2)),
    Case("ncm-r2-n4-d1", 33, "ncm", 2, 4, 1, (0, 1, 2)),
    Case("P3-r1-n4-d2", 34, "P3", 1, 4, 2, tuple(range(-1, 5))),
    Case("P3-r1-n5-d1", 35, "P3", 1, 5, 1, tuple(range(-1, 6))),
)

CASES = {
    "lambda-tower": LAMBDA_TOWER,
    "battery": BATTERY,
    "homology-wide": HOMOLOGY_WIDE,
    "lambda-reference": LAMBDA_REFERENCE,
}
WORKLOADS = ("lambda-tower", "battery", "homology-wide")

MODULES = ("poly", "groebner", "rings", "koszul", "homology", "multiplicity",
           "dsl", "report", "corpus", "verify", "cli")


class SetupError(Exception):
    """The inputs could not be built (brimlab missing, or no sample found)."""


class Op(NamedTuple):
    name: str
    run: object     # callable taking no arguments, returning a summary
    item: object    # what the checks need: (case, ring, matrix[, t]) or a corpus entry


class Inputs(NamedTuple):
    mods: dict
    ops: tuple


def forget_brimlab():
    for name in [m for m in sys.modules if m == "brimlab" or m.startswith("brimlab.")]:
        del sys.modules[name]


def import_brimlab(src):
    """Import brimlab from src afresh and return its modules by short name."""
    forget_brimlab()
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        importlib.import_module("brimlab")
        return {m: importlib.import_module("brimlab." + m) for m in MODULES}
    except ImportError as exc:
        raise SetupError("cannot import brimlab from %s: %s" % (src, exc)) from exc


def _monomials(nvars, d):
    if nvars == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1) for rest in _monomials(nvars - 1, d - e)]


def _make_ring(mods, key):
    poly = mods["poly"]
    names = RINGS[key]
    ctx = poly.PolyContext(P, names)
    ideal = tuple(poly.Polynomial(ctx, dict(g)) for g in IDEALS.get(key, ()))
    return mods["rings"].make_ring(P, names, ideal, mods["groebner"].Budget())


def _draw_matrix(mods, ring, case, seed, attempts=200):
    """First random matrix of the case's shape that is a parameter module
    (n = 0) or has finite colength (wide matrices)."""
    poly, rings = mods["poly"], mods["rings"]
    rng = random.Random("%d:%d" % (seed, case.seed))
    ctx = ring.ctx
    monos = _monomials(ctx.nvars, case.degree)
    n = case.n or ring.dimension + case.r - 1
    for _ in range(attempts):
        rows = []
        for _i in range(case.r):
            row = []
            for _j in range(n):
                terms = {}
                for m in monos:
                    c = rng.randrange(P)
                    if c:
                        terms[m] = c
                row.append(ring.element(poly.Polynomial(ctx, terms)))
            rows.append(row)
        mat = mods["koszul"].ModuleMatrix(ring, rows)
        budget = mods["groebner"].Budget()
        if case.n == 0:
            if rings.is_parameter_module(ring, mat.submodule(), budget).ok:
                return mat
        elif rings.submodule_colength(ring, mat.submodule(), budget) != poly.INFINITE:
            return mat
    raise SetupError("case %s: no suitable matrix in %d draws" % (case.name, attempts))


def setup(workload, seed, src, out_dir, tracer=None):
    """Import brimlab, build the rings and draw every input of a workload.

    With a tracer, the fresh modules are wrapped before any input is
    drawn, so set-up work shows in the trace under operation "setup".
    """
    mods = import_brimlab(src)
    if tracer is not None:
        tracer.install(mods)
        tracer.set_op("setup")
    rings = {}
    drawn = []
    for case in CASES[workload]:
        if case.ring not in rings:
            rings[case.ring] = _make_ring(mods, case.ring)
        ring = rings[case.ring]
        drawn.append((case, ring, _draw_matrix(mods, ring, case, seed)))
    if workload == "battery":
        groups = _battery_ops(mods, drawn, seed, out_dir)
    elif workload == "homology-wide":
        groups = [[Op("%s/t=%d" % (case.name, t), _homology_op(mods, mat, t), (case, ring, mat, t))
                   for t in case.ts]
                  for case, ring, mat in drawn]
    else:
        groups = [[Op(case.name, _lambda_op(mods, ring, mat), (case, ring, mat))]
                  for case, ring, mat in drawn]
    return Inputs(mods, _round_robin(groups))


def _round_robin(groups):
    """One operation from each group in turn.  Operations of one kind
    cost about the same; spreading them over the round keeps a slow
    spell of the host from landing on all of them at once."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return tuple(out)


def _lambda_op(mods, ring, mat):
    def run():
        table = mods["multiplicity"].br_function_table(mat, ring.dimension, mods["groebner"].Budget())
        return {"values": table.values, "e0": table.e0, "coefficients": table.coefficients}
    return run


def _homology_op(mods, mat, t):
    koszul, homology = mods["koszul"], mods["homology"]

    def run():
        budget = mods["groebner"].Budget()
        cx = koszul.build_koszul(mat, t)
        pres = homology.all_homology(cx, budget)
        table = homology.euler_characteristics(cx, budget, pres)
        bad = homology.annihilation_check(cx, koszul.fitting_ideal(mat), pres, budget)
        return {
            "ranks": tuple(cx.rank(p) for p in range(cx.length + 1)),
            "lengths": table.lengths,
            "chis": table.chis,
            "violations": tuple(bad),
        }
    return run


def _battery_ops(mods, drawn, seed, out_dir):
    """Write one problem file per input; an operation analyzes one file.
    Returns the operations grouped by kind, the corpus as one group."""
    folder = os.path.join(out_dir, "battery-%d" % seed)
    os.makedirs(folder, exist_ok=True)
    groups = {"corpus": []}

    def add(group, name, text, item):
        path = os.path.join(folder, name + ".brim")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        groups.setdefault(group, []).append(Op(name, _analyze_op(mods, path), item))

    for entry in mods["corpus"].ENTRIES:
        add("corpus", entry.name, entry.text, entry)
    for case, ring, mat in drawn:
        kind = case.name.rpartition("-")[0]
        add(kind, case.name, mods["dsl"].spec_of(ring, mat).serialize(), (case, ring, mat))
    return list(groups.values())


def _analyze_op(mods, path):
    cli = mods["cli"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["analyze", path, "--format", "json"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return run
