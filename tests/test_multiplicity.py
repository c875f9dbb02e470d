"""Buchsbaum-Rim functions, multiplicities, theorem verdicts, spread."""

import importlib
import pathlib
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from brimlab.corpus import ENTRIES, by_name
from brimlab.dsl import build, parse
from brimlab.multiplicity import (
    BRFunctionTable,
    SamplingError,
    THEOREM_VERDICTS,
    VERDICTS,
    br_function_table,
    buchsbaum_spread,
    lambda_value,
    random_parameter_matrix,
    rees_power_generators,
    theorem_check,
)
from brimlab.groebner import Budget, buchberger
from brimlab.koszul import ModuleMatrix, sym_basis
from brimlab.poly import (
    INFINITE,
    AlgebraError,
    BudgetExceededError,
    ContractError,
    PolyContext,
    Polynomial,
    VectorPolynomial,
)
from brimlab.rings import make_ring, quotient_basis, submodule_colength

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import oracles


def corpus_pair(name):
    return build(by_name(name).spec())


def dict_columns(matrix):
    cols = matrix.columns()
    return [[dict(e.rep.terms) for e in col] for col in cols]


def test_lambda_values_against_oracle():
    for name in ("E2", "E4"):
        entry = by_name(name)
        ring, mat = corpus_pair(name)
        ideal_d = [dict(g.terms) for g in ring.ideal_gens]
        cols = dict_columns(mat)
        for k in range(1, 4):
            got = lambda_value(mat, k)
            want = oracles.lambda_oracle(101, ring.ctx.nvars, cols, ideal_d, k)
            assert got == want == entry.lam[k - 1]


def test_lambda_zero_is_zero():
    _, mat = corpus_pair("E1")
    assert lambda_value(mat, 0) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lambda_infinite(k):
    # lambda(k) reads R_0..R_k of the Rees run: R_1 is infinite here
    ring, mat = build(parse(
        "ring { p = 101 vars = [x, y] }\nmodule { rank = 1 matrix = [[x]] }\n"))
    assert lambda_value(mat, k) is INFINITE


def _random_form(draw, ctx, degree):
    """A homogeneous form of the given degree with drawn coefficients."""
    items = [(e, draw(st.integers(0, ctx.p - 1)))
             for e in oracles.monomials_of_degree(ctx.nvars, degree)]
    return Polynomial.from_terms(ctx, items)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lambda_matches_brute_force_oracle(data):
    # Each column has one degree d_j and each row one shift e_i, so every
    # product of k columns is homogeneous; fewer ideal generators than
    # variables keep the dimension positive.  Rank-2 matrices may have
    # their rows one degree apart (e = (0, 1) or (0, -1)), as may the
    # columns' degrees.
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 5, 101]), label="p")
    names = ["x", "y", "z"][:draw(st.sampled_from([2, 3]), label="nvars")]
    ctx = PolyContext(p, names)
    ideal = [_random_form(draw, ctx, draw(st.integers(1, 2)))
             for _ in range(draw(st.integers(0, len(names) - 1), label="ideal generators"))]
    ring = make_ring(p, names, ideal)
    r = draw(st.integers(1, 2), label="rank")
    apart = draw(st.sampled_from([0, 1, -1]), label="second row shift") if r == 2 else 0
    n = draw(st.integers(r, r + (1 if apart else 2)), label="columns")
    top = 3 if apart else 2
    degrees = draw(st.lists(st.integers(1, top), min_size=n, max_size=n), label="column degrees")
    shifts = (0, apart)[:r]
    entries = [[ring.element(_random_form(draw, ctx, degrees[j] - shifts[i]))
                if degrees[j] > shifts[i] else ring.zero() for j in range(n)] for i in range(r)]
    mat = ModuleMatrix(ring, entries)
    cols = dict_columns(mat)
    ideal_d = [dict(g.terms) for g in ring.ideal_gens]
    for k in range(1, 4 - (apart != 0)):
        got = lambda_value(mat, k)
        # S_k(F)/R_k(N) is generated in the degrees of its labels: its top
        # degree is below its length plus the largest of them
        cap = (12 if len(names) == 2 else 7) if got is INFINITE else got + 2 + k * abs(apart)
        want = oracles.lambda_oracle(p, len(names), cols, ideal_d, k, max_degree=cap,
                                     row_shifts=mat.row_shifts)
        assert want == (oracles.INF if got is INFINITE else got)


def per_k_lambda(mat, k):
    """lambda(k) by the route brimlab took before gr_J(B): one Groebner
    run on the k-fold column products plus I * S_k(F)."""
    labels, gens = rees_power_generators(mat, k)
    lifted = [VectorPolynomial(tuple(e.rep for e in g)) for g in gens]
    return quotient_basis(mat.ring, lifted, len(labels)).colength()


def _diff_ring(name, p):
    """A ring of the differential test; the ideals are those of the
    benchmark's non-CM ring (x^2, xy) and cone xy - z^2."""
    names = {"P1": ["x"], "P2": ["x", "y"]}.get(name, ["x", "y", "z"])
    ctx = PolyContext(p, names)
    ideal = []
    if name == "ncm":
        ideal = [ctx.monomial((2, 0, 0)), ctx.monomial((1, 1, 0))]
    elif name == "cone":
        ideal = [ctx.monomial((1, 1, 0)) + ctx.monomial((0, 0, 2), -1)]
    return make_ring(p, names, ideal)


def refit(D, n0, window):
    """Exact solve of P(n0+j) = window[j], j = 0..D, in the binomial basis
    of BRFunctionTable.polynomial_value; None unless the solution is
    integral."""
    rows = [[Fraction((-1) ** i * comb(n0 + j + D - 1 - i, D - i)) for i in range(D + 1)]
            + [Fraction(window[j])] for j in range(D + 1)]
    for col in range(D + 1):
        piv = next((r for r in range(col, D + 1) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(D + 1):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    sol = [row[D + 1] for row in rows]
    if any(v.denominator != 1 for v in sol):
        return None
    return tuple(int(v) for v in sol)


def window_rule(D, values):
    """The stopping rule brimlab used before the series certificate, on
    values = lambda(1..K): the first start n0 where the D-th difference is
    constant at n0, n0+1 and n0+2 and the refit on lambda(n0..n0+D) is
    integral and reproduces every value from n0 on.  (n0, coefficients),
    or None when no window passes yet."""
    diffs = list(values)
    for _ in range(D):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # diffs[i] is the D-th difference at argument i+1
    for i in range(len(diffs) - 2):
        n0 = i + 1
        if not diffs[i] == diffs[i + 1] == diffs[i + 2] or n0 + D > len(values):
            continue
        coeffs = refit(D, n0, values[n0 - 1:n0 + D])
        if coeffs is None:
            continue
        P = BRFunctionTable(D, (), n0, coeffs[0], coeffs).polynomial_value
        if all(P(k) == values[k - 1] for k in range(n0, len(values) + 1)):
            return n0, coeffs
    return None


def check_table(table, values):
    """The table against values = lambda_value(1..K), K >= 2 len(table.values):
    its values and its certificate (lambda equals the polynomial from
    stable_from on, and not at stable_from - 1), and the window rule stops
    where the table does, with the same start and coefficients."""
    n = len(table.values)
    assert len(values) >= 2 * n
    assert table.values == tuple(values[:n])
    s = table.stable_from
    for k in range(s, len(values) + 1):
        assert values[k - 1] == table.polynomial_value(k)
    if s > 1:
        assert values[s - 2] != table.polynomial_value(s - 1)
    stop = next((K for K in range(1, len(values) + 1) if window_rule(table.degree, values[:K])), None)
    assert stop == n
    assert window_rule(table.degree, values[:stop]) == (s, table.coefficients)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_lambda_matches_per_k_route(data):
    # The per-k reference takes seconds to minutes per table past
    # dim A + r = 3; at dim A + r = 4 the shapes stay at n = dim A + r - 1
    # columns, linear ones unless dim A = 1.
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 5, 101]), label="p")
    ring = _diff_ring(draw(st.sampled_from(["P1", "P2", "P3", "ncm", "cone"]), label="ring"), p)
    d = ring.dimension
    r = draw(st.integers(1, 4 - d), label="rank")
    heavy = d + r == 4
    n = draw(st.integers(r, d + r - heavy), label="columns")
    top = 1 if heavy and d > 1 else 2
    degrees = draw(st.lists(st.integers(1, top), min_size=n, max_size=n), label="column degrees")
    entries = [[ring.element(_random_form(draw, ring.ctx, degrees[j])) for j in range(n)]
               for _ in range(r)]
    mat = ModuleMatrix(ring, entries)
    try:
        table = br_function_table(mat, d)
        n = len(table.values)
    except AlgebraError:  # lambda is infinite
        table, n = None, 1
    values = [lambda_value(mat, k) for k in range(1, 2 * n + 3)]
    for k in range(1, n + 3):
        assert values[k - 1] == per_k_lambda(mat, k)
    if table is not None:
        check_table(table, values)


def test_expansion_cap(monkeypatch):
    _, mat = corpus_pair("E5")  # n = 3, so S_2 needs C(4,2) = 6 generators
    monkeypatch.setattr(importlib.import_module("brimlab.multiplicity"), "MAX_POWER_GENERATORS", 5)
    with pytest.raises(BudgetExceededError) as exc:
        rees_power_generators(mat, 2)
    assert exc.value.kind == "expansion"


def test_function_table_refit():
    entry = by_name("E1")
    _, mat = corpus_pair("E1")
    table = br_function_table(mat, 2)
    assert table.degree == 2
    assert table.values == entry.lam
    assert table.e0 == 6 and table.coefficients == (6, 0, 0)
    for k in range(table.stable_from, len(table.values) + 1):
        assert table.polynomial_value(k) == table.values[k - 1]


def test_coefficients_per_corpus():
    for entry in ENTRIES:
        _, mat = corpus_pair(entry.name)
        table = br_function_table(mat, entry.dim)
        assert table.coefficients == entry.coefficients
        assert table.e0 == entry.e0
        check_table(table, [lambda_value(mat, k) for k in range(1, 2 * len(table.values) + 1)])


# lambda reaches its polynomial only at k = 3 (LATE) and at k = 5 (LATER);
# LATE_BOUND checks the polynomial well past the printed table
LATE = ("ring { p = 101 vars = [x, y] }\n"
        "module { rank = 1 matrix = [[x^5, x^4*y, x*y^4, y^5]] }\n")
LATE_BOUND = 17
LATER = ("ring { p = 101 vars = [x, y] }\n"
         "module { rank = 1 matrix = [[x^7, x^6*y, x*y^6, y^7]] }\n")


def test_late_start_table():
    _, mat = build(parse(LATE))
    table = br_function_table(mat, 2)
    assert table.stable_from == 3
    assert table.values == (18, 57, 120, 210, 325, 465, 630)
    assert table.coefficients == (25, 10, 0)
    cols = dict_columns(mat)
    for k in range(1, 4):
        assert table.values[k - 1] == oracles.lambda_oracle(101, 2, cols, [], k)
    values = [lambda_value(mat, k) for k in range(1, LATE_BOUND + 1)]
    for k in range(3, LATE_BOUND + 1):
        assert values[k - 1] == table.polynomial_value(k)
    assert values[1] != table.polynomial_value(2)
    check_table(table, values)


def test_later_start_table():
    _, mat = build(parse(LATER))
    table = br_function_table(mat, 2)
    assert table.stable_from == 5
    assert table.values == (38, 117, 240, 410, 630, 903, 1225, 1596, 2016)
    assert table.coefficients == (49, 21, 0)
    cols = dict_columns(mat)
    for k in range(1, 3):
        assert table.values[k - 1] == oracles.lambda_oracle(101, 2, cols, [], k)
    check_table(table, [lambda_value(mat, k) for k in range(1, 2 * len(table.values) + 1)])


# Column degrees far apart: the elimination input of the earlier route,
# (I, y_j - u l_j), was not homogeneous, and these two ran past the
# default degree cap and for minutes
SPREAD_COLUMNS = ("ring { p = 101 vars = [x, y] }\n"
                  "module { rank = 1 matrix = [[x^9, x*y^8, y^7, y^2]] }\n")
ROWS_APART = ("ring { p = 101 vars = [x, y, z] }\n"
              "module { rank = 2 matrix = [[20*z, 8*x^3 + 4*x*y^2 + 85*y^3 + 30*x^2*z + 76*y*z^2 + 97*z^3, "
              "39*x^2 + 89*x*y + 23*y^2, 34*x + 92*y, "
              "63*x^3 + 21*x^2*y + 36*x*y^2 + 17*x^2*z + 13*y^2*z + 62*y*z^2], "
              "[0, 72*x^2 + 58*y^2 + 32*x*z + 64*y*z + 85*z^2, 46*y + 7*z, 0, 96*x^2 + 76*y*z + 40*z^2]] }\n")


def test_spread_column_degrees_under_the_default_budget():
    _, mat = build(parse(SPREAD_COLUMNS))
    table = br_function_table(mat, 2, Budget())
    assert table.values == (18, 54, 108, 180, 270)
    assert table.e0 == 18


def test_rows_one_degree_apart_under_the_default_budget():
    ring, mat = build(parse(ROWS_APART))
    assert mat.row_shifts == (0, 1) and mat.col_degrees == (1, 3, 2, 1, 3)
    table = br_function_table(mat, 3, Budget())
    assert table.e0 == 10
    cols = dict_columns(mat)
    for k in (1, 2):
        want = oracles.lambda_oracle(101, 3, cols, [], k, row_shifts=mat.row_shifts)
        assert table.values[k - 1] == want == (8, 41)[k - 1]


def test_wrong_ring_dim_is_contract_error():
    _, mat = corpus_pair("E1")
    with pytest.raises(ContractError):
        br_function_table(mat, 3)


def test_theorem_check_e4():
    _, mat = corpus_pair("E4")
    rep = theorem_check(mat)
    assert rep.ok
    assert rep.e0 == 2
    assert rep.len_f_mod_n == 4 and rep.len_a_mod_in == 3
    # the two colengths differ here, which the theory permits, and neither
    # equals e0, so there is no Cohen-Macaulay witness; both verdicts are
    # descriptive and leave ok untouched
    assert rep.verdicts["lengths_equal"] is False
    assert rep.verdicts["cm_witness"] is False
    for key in THEOREM_VERDICTS:
        assert rep.verdicts[key] is not False


def test_theorem_check_e6_rank_case():
    _, mat = corpus_pair("E6")
    rep = theorem_check(mat)
    assert rep.ok
    assert rep.verdicts["parameter_module"] is False
    assert rep.verdicts["colength_ge_e0"] is None
    assert rep.verdicts["chi0_rank_case"] is True
    assert all(row.chis[0] == 0 for row in rep.chi_rows)


def test_theorem_check_infinite_case():
    _, mat = build(parse(
        "ring { p = 101 vars = [x, y] }\nmodule { rank = 1 matrix = [[x]] }\n"))
    rep = theorem_check(mat)
    assert rep.len_f_mod_n is INFINITE
    assert rep.e0 is None and rep.table is None
    assert rep.verdicts["finite_colength"] is False
    assert rep.verdicts["chi_nonnegative"] is None
    assert rep.ok  # no theorem is violated, the input just is not finite


def test_mutation_marks_square_zero_without_crashing():
    _, mat = corpus_pair("E1")

    def flip(cx):
        cx.flip_sign(2, 0, 0)

    rep = theorem_check(mat, mutate=flip)
    assert rep.verdicts["square_zero"] is False
    assert not rep.ok
    assert "square_zero" in rep.failures


def test_spread_deterministic_and_constant_on_hypersurface():
    # A = F[x,y]/(y^2): every parameter module of rank 1 there has
    # length - e0 equal to 0 for degree-1 entries
    ring, _ = build(parse(
        "ring { p = 101 vars = [x, y] ideal = [y^2] }\n"
        "module { rank = 1 matrix = [[x]] }\n"))
    a = buchsbaum_spread(ring, 1, 4, seed=7)
    b = buchsbaum_spread(ring, 1, 4, seed=7)
    assert a == b
    assert len(a.samples) == 4
    assert all(s.colength >= s.e0 for s in a.samples)


def test_spread_runs_one_rings_groebner_basis_per_sample(monkeypatch):
    # the parameter test accepting a sample is its only rings-level run;
    # l(F/N) is lambda(1) of the sample's lambda table
    rings_mod = importlib.import_module("brimlab.rings")
    ring = make_ring(101, ["x", "y", "z"])
    runs = []

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    real = rings_mod.buchberger
    monkeypatch.setattr(rings_mod, "buchberger", counted)
    result = buchsbaum_spread(ring, 2, 5, seed=1)
    assert len(result.samples) == 5 and len(runs) == 5


def test_random_parameter_matrix_seeded():
    ring, _ = corpus_pair("E1")
    rng = random.Random(11)
    mat = random_parameter_matrix(ring, 2, rng)
    assert (mat.r, mat.n) == (2, 3)
    rep = theorem_check(mat)
    assert rep.verdicts["parameter_module"] is True


class _ZeroRng:
    """Stands in for random.Random; draws nothing but zero coefficients."""

    def randrange(self, n):
        return 0


def test_sampling_error_when_nothing_fits():
    # all-zero draws never present a parameter module, so every attempt
    # is burned and the sampler must give up cleanly
    ring, _ = corpus_pair("E1")
    with pytest.raises(SamplingError) as exc:
        random_parameter_matrix(ring, 1, _ZeroRng(), attempts=5)
    assert "5 attempts" in str(exc.value)


@pytest.mark.parametrize("name", ["E1", "E4"])
def test_theorem_check_runs_homology_once_per_distinct_complex(monkeypatch, name):
    multiplicity_mod = importlib.import_module("brimlab.multiplicity")
    _, mat = corpus_pair(name)
    calls, builds = [], []
    real, real_build = multiplicity_mod.all_homology, multiplicity_mod.build_koszul

    def counted(cx, budget=None):
        calls.append(cx.t)
        return real(cx, budget)

    def counted_build(matrix, t, check=True):
        builds.append(t)
        return real_build(matrix, t, check)

    monkeypatch.setattr(multiplicity_mod, "all_homology", counted)
    monkeypatch.setattr(multiplicity_mod, "build_koszul", counted_build)
    ts = [row.t for row in theorem_check(mat).chi_rows]
    assert ts == list(range(-1, min(mat.ring.dimension, mat.n - mat.r + 1) + 1))
    # every t of a rank-1 module has the same complex, built once, and
    # still its own row; rank 2 builds one per t
    assert calls == builds == (ts[:1] if mat.r == 1 else ts)


@pytest.mark.parametrize("name", ["E4", "E6"])
def test_verdicts_come_in_table_order(name):
    _, mat = corpus_pair(name)
    rep = theorem_check(mat)
    assert rep.verdicts["parameter_module"] is (name == "E4")
    assert list(rep.verdicts) == list(VERDICTS)


def test_theorem_verdicts_are_the_ten_theorem_keys():
    assert THEOREM_VERDICTS == {
        "square_zero", "annihilation", "chi_nonnegative", "chi0_t_independent",
        "chi0_rank_case", "colength_ge_e0", "fitting_colength_ge_e0", "h0_ge_e0_all_t",
        "h0_t1_equals_colength", "h0_t0_equals_fitting_colength",
    }
    assert all(VERDICTS[k] for k in THEOREM_VERDICTS)


@pytest.mark.parametrize("name", ["E1", "E4", "E5"])
def test_lambda_table_runs_one_groebner_basis_per_matrix(monkeypatch, name):
    multiplicity_mod = importlib.import_module("brimlab.multiplicity")
    entry = by_name(name)
    _, mat = corpus_pair(name)
    calls = []
    real = multiplicity_mod.buchberger

    def counted(gens, budget=None, eliminate=0, **kwargs):
        calls.append(eliminate)
        return real(gens, budget, eliminate, **kwargs)

    monkeypatch.setattr(multiplicity_mod, "buchberger", counted)
    for _ in range(2):
        assert br_function_table(mat, entry.dim).values == entry.lam
    # R(N) by eliminating T_1..T_r, again on the second call: nothing is
    # cached between calls
    assert calls == [mat.r, mat.r]


def test_lambda_memo_with_alternating_matrices():
    names = ("E2", "E4")
    mats = {name: corpus_pair(name)[1] for name in names}
    for k in range(1, 5):
        for name in names + names[::-1]:
            assert lambda_value(mats[name], k) == by_name(name).lam[k - 1]


def test_symmetric_power_arguments_are_contract_errors():
    _, mat = corpus_pair("E2")
    with pytest.raises(ContractError):
        lambda_value(mat, -1)
    with pytest.raises(ContractError):
        rees_power_generators(mat, 0)


def test_random_parameter_matrix_does_not_retry_real_errors(monkeypatch):
    koszul_mod = importlib.import_module("brimlab.koszul")
    ring, _ = corpus_pair("E1")

    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(koszul_mod, "ModuleMatrix", broken)
    with pytest.raises(RuntimeError):
        random_parameter_matrix(ring, 1, random.Random(3))


def test_lambda_one_must_equal_the_colength(monkeypatch):
    # S_1(F)/R_1(N) = F/N, so a Rees run whose lambda(1) differs from the
    # parameter test's l(F/N) is a program fault, not a verdict
    multiplicity_mod = importlib.import_module("brimlab.multiplicity")
    real = multiplicity_mod.br_function_table

    def off_by_one(*args, **kwargs):
        table = real(*args, **kwargs)
        return BRFunctionTable(table.degree, (table.values[0] + 1,) + table.values[1:],
                               table.stable_from, table.e0, table.coefficients)

    _, mat = corpus_pair("E4")
    rep = theorem_check(mat)
    assert rep.table.values[0] == rep.len_f_mod_n == 4
    monkeypatch.setattr(multiplicity_mod, "br_function_table", off_by_one)
    with pytest.raises(RuntimeError, match="lambda"):
        theorem_check(mat)


# Rees runs with and without the Hilbert count.

def rows_apart(seed):
    """A rank-2 matrix over F_101[x, y, z], five columns, rows one degree
    apart: column j of degree d_j in 1..3, row 2 of degree d_j - 1 (zero
    for d_j = 1), redrawn until l(F/N) is finite."""
    ring = make_ring(101, ["x", "y", "z"])
    rng = random.Random(seed)

    def form(d):
        return ring.element(Polynomial.from_terms(
            ring.ctx, [(s.multidegree, rng.randrange(101)) for s in sym_basis(3, d)]))

    while True:
        degs = [rng.randint(1, 3) for _ in range(5)]
        rows = [[form(d) for d in degs], [form(d - 1) if d > 1 else ring.zero() for d in degs]]
        try:
            mat = ModuleMatrix(ring, rows)
        except ContractError:
            continue
        if submodule_colength(ring, mat.submodule()) is not INFINITE:
            return mat


def rees_call(mat, counted=True):
    """(gens, keyword arguments, basis, table) of the one buchberger call of
    mat's table; with counted=False the call runs without its hilbert=
    count, so it reduces every pair."""
    multiplicity_mod = importlib.import_module("brimlab.multiplicity")
    calls = []

    def record(gens, budget=None, **kwargs):
        run = {k: v for k, v in kwargs.items() if counted or k != "hilbert"}
        calls.append((list(gens), kwargs, buchberger(gens, budget, **run)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiplicity_mod, "buchberger", record)
        table = br_function_table(mat, mat.ring.dimension)
    (call,) = calls
    return call + (table,)


def same_rees_run(mat):
    """Assert that the Hilbert count changes nothing but the reduced
    pairs; return (pairs with it, pairs without)."""
    _, _, counted, table = rees_call(mat)
    _, _, plain, plain_table = rees_call(mat, counted=False)
    assert counted.lead_terms == plain.lead_terms
    assert counted.generators == plain.generators
    assert counted.fresh == plain.fresh
    assert table == plain_table
    assert counted.pairs_used <= plain.pairs_used
    return counted.pairs_used, plain.pairs_used


# name -> (variables, ideal generators as [(exponents, coefficient)])
RING_KINDS = {"P2": ("xy", []), "P3": ("xyz", []), "P4": ("xyzw", []),
              "cone": ("xyz", [[((1, 1, 0), 1), ((0, 0, 2), -1)]]),
              "ncm": ("xyz", [[((2, 0, 0), 1)], [((1, 1, 0), 1)]])}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_hilbert_count_skips_only_zero_reductions(data):
    # random weighted Rees runs: every column of one degree, the rows of a
    # rank-2 matrix up to one degree apart, so the y and T weights differ
    draw = data.draw
    kind = draw(st.sampled_from(sorted(RING_KINDS)), label="ring")
    names, ideal = RING_KINDS[kind]
    ctx = PolyContext(101, list(names))
    ring = make_ring(101, list(names), [Polynomial.from_terms(ctx, g) for g in ideal])
    r = draw(st.integers(1, 2), label="rank")
    apart = draw(st.sampled_from([0, 1, -1]), label="second row shift") if r == 2 else 0
    n = ring.dimension + r - 1 + (r == 1 and draw(st.integers(0, 1), label="extra column"))
    # degree-2 columns of a rank-2 matrix take seconds a run over the cone
    # and ncm, so theirs stay linear; over P3 they stay in, although one
    # such draw (--hypothesis-seed=20: rows 0 apart, four quadric columns)
    # runs for more than 15 minutes, the slowest input known (ROADMAP items 1 and 7)
    top = 1 if kind == "P4" or (r == 2 and kind in ("cone", "ncm")) else 2
    degrees = draw(st.lists(st.integers(max(apart, 0) + 1, top + max(apart, 0)), min_size=n, max_size=n),
                   label="column degrees")
    shifts = (0, apart)[:r]
    entries = [[ring.element(_random_form(draw, ctx, degrees[j] - shifts[i]))
                if degrees[j] > shifts[i] else ring.zero() for j in range(n)] for i in range(r)]
    try:
        mat = ModuleMatrix(ring, entries)
    except ContractError:
        assume(False)
    assume(submodule_colength(ring, mat.submodule()) is not INFINITE)
    same_rees_run(mat)


@pytest.mark.parametrize("seed", [8, 19])
def test_hilbert_count_on_rows_apart(seed):
    mat = rows_apart(seed)
    assert mat.row_shifts == (0, 1)
    counted, plain = same_rees_run(mat)
    assert counted < plain


def skipping_rees_run():
    """(gens, keyword arguments with and without hilbert=) of a P2 rank-2
    Rees run that skips 10 of its 32 pairs."""
    mat = random_parameter_matrix(make_ring(101, ["x", "y"]), 2, random.Random(1), 2)
    gens, kwargs, _, _ = rees_call(mat)
    return gens, kwargs, {k: v for k, v in kwargs.items() if k != "hilbert"}


def test_skipped_pairs_keep_the_degree_budget():
    # a skipped pair past the degree cap raises as a reduced one does, and
    # counts in max_degree_seen
    gens, kwargs, plain_kwargs = skipping_rees_run()
    for cap in range(1, 13):
        outcomes = []
        for kw in (kwargs, plain_kwargs):
            budget = Budget(max_degree=cap)
            try:
                buchberger(gens, budget, **kw)
                outcomes.append(("done", budget.max_degree_seen))
            except BudgetExceededError as err:
                outcomes.append((str(err), budget.max_degree_seen))
        assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("done", 11)


def test_skipped_pairs_are_not_charged():
    gens, kwargs, plain_kwargs = skipping_rees_run()
    budget = Budget()
    counted = buchberger(gens, budget, **kwargs)
    plain = buchberger(gens, **plain_kwargs)
    assert budget.pairs_used == counted.pairs_used == 22 and plain.pairs_used == 32
    assert buchberger(gens, Budget(max_pairs=22), **kwargs).lead_terms == plain.lead_terms
    with pytest.raises(BudgetExceededError) as err:
        buchberger(gens, Budget(max_pairs=22), **plain_kwargs)
    assert err.value.kind == "pairs"


def test_a_wrong_hilbert_numerator_is_a_program_fault():
    # s^11 more in the numerator claims one standard monomial more in
    # degree 11, where the run has found every lead term before it starts
    gens, kwargs, _ = skipping_rees_run()
    q = dict(kwargs["hilbert"])
    q[11] = q.get(11, 0) + 1
    with pytest.raises(RuntimeError, match="Hilbert"):
        buchberger(gens, **dict(kwargs, hilbert=q))
