"""Acceptance gate: ten criteria, one printed pass/fail line each.

Everything here is exact integer arithmetic; there are no tolerances.
Each criterion records its verdict with conftest.record, which the
terminal-summary hook prints after the run, then asserts.
"""

import dataclasses
import random
import sys
import time

import pytest

from conftest import record

import brimlab.corpus as corpus_mod
from brimlab.cli import main
from brimlab.corpus import ENTRIES, by_name
from brimlab.dsl import build
from brimlab.koszul import ModuleMatrix, build_koszul, expected_rank, verify_complex
from brimlab.multiplicity import random_parameter_matrix, theorem_check
from brimlab.poly import INFINITE, Polynomial, PolyContext
from brimlab.rings import ideal_colength, make_ring, submodule_colength
from brimlab.koszul import fitting_ideal

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
import oracles


def stamp(num, label, ok):
    record(num, label, ok)
    assert ok, "acceptance criterion %d (%s) failed" % (num, label)


@pytest.fixture(scope="session")
def corpus_pairs():
    return {e.name: build(e.spec()) for e in ENTRIES}


@pytest.fixture(scope="session")
def corpus_reports(corpus_pairs):
    return {name: theorem_check(mat) for name, (ring, mat) in corpus_pairs.items()}


@pytest.fixture(scope="session")
def sample_rings():
    ctx = PolyContext(101, ("x", "y"))
    quot = make_ring(101, ["x", "y"], [
        Polynomial.from_terms(ctx, [((2, 0), 1)]),
        Polynomial.from_terms(ctx, [((1, 1), 1)]),
    ])
    return (
        ("F101[x,y] rank 1", make_ring(101, ["x", "y"]), 1),
        ("F101[x] rank 2", make_ring(101, ["x"]), 2),
        ("F101[x,y]/(x^2,xy) rank 1", quot, 1),
    )


@pytest.fixture(scope="session")
def random_modules(sample_rings):
    """17 seeded parameter modules per ring: 51 across 3 rings."""
    out = []
    rng = random.Random(987654321)
    for label, ring, r in sample_rings:
        for _ in range(17):
            out.append((label, ring, random_parameter_matrix(ring, r, rng)))
    return out


@pytest.fixture(scope="session")
def sample_reports(random_modules):
    picked = random_modules[::8]  # a spread of 7 across the rings
    return [theorem_check(mat) for _, _, mat in picked]


def test_criterion_01_complex_correctness(corpus_pairs):
    ok = True
    worst = 0.0
    jobs = [mat for _, mat in corpus_pairs.values()]
    rng = random.Random(13131313)
    ring3 = make_ring(101, ["x", "y", "z"])
    ctx = ring3.ctx
    for i in range(30):
        r = (i % 3) + 1
        n = rng.randint(r, 5)
        rows = []
        for _ in range(r):
            row = []
            for _ in range(n):
                poly = ctx.zero()
                for v in range(ctx.nvars):
                    c = rng.randrange(101)
                    if c:
                        exps = tuple(1 if k == v else 0 for k in range(ctx.nvars))
                        poly = poly + ctx.monomial(exps, c)
                row.append(ring3.element(poly))
            rows.append(row)
        jobs.append(ModuleMatrix(ring3, rows))
    for mat in jobs:
        for t in range(-1, mat.n - mat.r + 2):
            t0 = time.monotonic()
            cx = build_koszul(mat, t, check=False)
            bad = verify_complex(cx)
            dt = time.monotonic() - t0
            worst = max(worst, dt)
            if bad:
                ok = False
            for p in range(cx.length + 1):
                if cx.rank(p) != expected_rank(mat.r, mat.n, t, p):
                    ok = False
        if mat.r == 1:
            gens = [dict(e.rep.terms) for e in mat.entries[0]]
            want = oracles.ordinary_koszul(gens, 101, mat.ring.ctx.nvars, mat.n)
            cx = build_koszul(mat, 1)
            got = {q: [[dict(e.rep.terms) for e in row] for row in cx.differential(q)]
                   for q in range(1, cx.length + 1)}
            if got != want:
                ok = False
    if worst >= 1.0:
        ok = False
    stamp(1, "complex correctness", ok)


def test_criterion_02_chi_nonnegative(corpus_reports, sample_reports):
    ok = True
    for rep in list(corpus_reports.values()) + sample_reports:
        for row in rep.chi_rows:
            if any(c < 0 for c in row.chis):
                ok = False
    stamp(2, "chi_q >= 0", ok)


def test_criterion_03_chi0(corpus_reports):
    ok = True
    for name, rep in corpus_reports.items():
        chi0s = {row.chis[0] for row in rep.chi_rows}
        if len(chi0s) != 1:
            ok = False
        entry = by_name(name)
        d, r, n = entry.dim, rep.matrix.r, rep.matrix.n
        want = rep.e0 if n == d + r - 1 else 0
        if chi0s != {want}:
            ok = False
    if {row.chis[0] for row in corpus_reports["E6"].chi_rows} != {0}:
        ok = False
    stamp(3, "chi_0 rigidity", ok)


def test_criterion_04_length_bounds(corpus_reports, random_modules):
    ok = True
    for name in ("E1", "E2", "E3", "E4", "E5"):
        rep = corpus_reports[name]
        if not (rep.len_f_mod_n >= rep.e0 and rep.len_a_mod_in >= rep.e0):
            ok = False
    if len(random_modules) < 50 or len({lbl for lbl, _, _ in random_modules}) < 3:
        ok = False
    from brimlab.multiplicity import br_function_table

    for _, ring, mat in random_modules:
        lf = submodule_colength(ring, mat.submodule())
        li = ideal_colength(ring, fitting_ideal(mat))
        e0 = br_function_table(mat, ring.dimension).e0
        if lf is INFINITE or li is INFINITE or lf < e0 or li < e0:
            ok = False
    stamp(4, "length >= e0", ok)


def test_criterion_05_corpus_fixtures(corpus_reports):
    want = {
        "E1": (6, 6, 6),
        "E3": (2, 2, 2),
        "E5": (3, 3, 3),
        "E2": (2, 2, 1),
        "E4": (4, 3, 2),
    }
    ok = True
    for name, (lf, li, e0) in want.items():
        rep = corpus_reports[name]
        if (rep.len_f_mod_n, rep.len_a_mod_in, rep.e0) != (lf, li, e0):
            ok = False
    # strictness where the fixtures say strict
    r2 = corpus_reports["E2"]
    r4 = corpus_reports["E4"]
    if not (r2.len_f_mod_n > r2.e0 and r2.len_a_mod_in > r2.e0):
        ok = False
    if not (r4.len_f_mod_n > r4.e0 and r4.len_a_mod_in > r4.e0):
        ok = False
    stamp(5, "corpus length fixtures", ok)


def test_criterion_06_h0_bounds(corpus_reports):
    ok = True
    for name in ("E1", "E2", "E3", "E4", "E5"):
        rep = corpus_reports[name]
        d = rep.ring.dimension
        h0 = {row.t: row.h_lengths[0] for row in rep.chi_rows}
        if set(h0) != set(range(-1, d + 1)):
            ok = False
        if any(v < rep.e0 for v in h0.values()):
            ok = False
        if h0[1] != rep.len_f_mod_n or h0[0] != rep.len_a_mod_in:
            ok = False
    stamp(6, "H_0 bounds and identities", ok)


def test_criterion_07_annihilation_acyclicity(corpus_reports):
    ok = all(rep.annihilation_ok for rep in corpus_reports.values())
    for name in ("E1", "E3", "E5"):
        for row in corpus_reports[name].chi_rows:
            if any(v != 0 for v in row.h_lengths[1:]):
                ok = False
    h1 = {row.t: row.h_lengths[1] for row in corpus_reports["E2"].chi_rows}
    if h1[1] != 1:
        ok = False
    h1 = {row.t: row.h_lengths[1] for row in corpus_reports["E4"].chi_rows}
    if h1[1] != 2:
        ok = False
    stamp(7, "annihilation + acyclicity", ok)


def test_criterion_08_coefficients(corpus_reports):
    want = {"E1": (6, 0, 0), "E2": (1, -1), "E4": (2, -1, 1)}
    ok = True
    for name, coeffs in want.items():
        if corpus_reports[name].coefficients != coeffs:
            ok = False
    for rep in corpus_reports.values():
        table = rep.table
        for k in range(table.stable_from, len(table.values) + 1):
            if table.polynomial_value(k) != table.values[k - 1]:
                ok = False
    stamp(8, "coefficient extraction", ok)


def test_criterion_09_mutation_sensitivity(tmp_path, monkeypatch, capsys):
    f = tmp_path / "instance.brim"
    f.write_text(by_name("E1").text)
    code_flip = main(["verify", str(f), "--flip-sign", "2,0,0"])
    out = capsys.readouterr().out
    ok = code_flip == 1 and "square_zero" in out

    entry = by_name("E3")
    tampered = dataclasses.replace(entry, len_f=entry.len_f + 1)
    fixed = tuple(tampered if e.name == "E3" else e for e in ENTRIES)
    monkeypatch.setattr(corpus_mod, "ENTRIES", fixed)
    code_corpus = main(["corpus"])
    capsys.readouterr()
    ok = ok and code_corpus == 1
    stamp(9, "mutation sensitivity", ok)


def test_criterion_10_runtime_and_budgets(tmp_path, capsys):
    t0 = time.monotonic()
    code_v = main(["verify", "--corpus"])
    code_c = main(["corpus"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    ok = code_v == 0 and code_c == 0 and elapsed < 300.0

    f = tmp_path / "instance.brim"
    f.write_text(by_name("E1").text)
    code_budget = main(["analyze", str(f), "--budget-pairs", "1"])
    capsys.readouterr()
    ok = ok and code_budget == 3
    stamp(10, "runtime and budgets", ok)
