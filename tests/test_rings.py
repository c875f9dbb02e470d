"""Quotient rings, colengths, parameter-module verdicts."""

import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from brimlab.corpus import ENTRIES
from brimlab.dsl import build
from brimlab.poly import INFINITE, ContractError, PolyContext, Polynomial, VectorPolynomial
from brimlab.rings import (
    SubmoduleOfFree,
    ideal_colength,
    is_parameter_module,
    make_ring,
    min_generators,
    quotient_basis,
    submodule_colength,
)

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import oracles
from conftest import random_form

CTX = PolyContext(101, ["x", "y"])
X = CTX.variable(0)
Y = CTX.variable(1)


def test_make_ring_rejects_bad_input():
    with pytest.raises(ContractError):
        make_ring(100, ["x"])  # composite characteristic
    with pytest.raises(ContractError):
        make_ring(101, ["x"], [PolyContext(101, ["x"]).one()])  # unit ideal
    with pytest.raises(ContractError):
        make_ring(101, ["x", "y"], [X + CTX.one()])  # inhomogeneous
    with pytest.raises(ContractError):
        make_ring(101, ["x"], [PolyContext(101, ["x"]).variable(0)])  # dimension 0


def test_elements_of_different_rings_do_not_mix():
    # checked without assert: under python -O, x * x across these two
    # rings used to return x^2 and x + x to return 2x
    plain = make_ring(101, ["x", "y"])
    quotient = make_ring(101, ["x", "y"], [X * X])
    x, xq = plain.variable(0), quotient.variable(0)
    for a, b in ((x, xq), (xq, x)):
        with pytest.raises(ContractError):
            a * b
        with pytest.raises(ContractError):
            a + b
        with pytest.raises(ContractError):
            a - b
    with pytest.raises(ContractError):
        x + 1


def test_dimension():
    assert make_ring(101, ["x", "y"]).dimension == 2
    assert make_ring(101, ["x", "y"], [X * X, X * Y]).dimension == 1
    assert make_ring(101, ["x"]).dimension == 1
    # the rings of the corpus and of the benchmark workloads
    for entry in ENTRIES:
        assert build(entry.spec())[0].dimension == entry.dim
    for names in (["x"], ["x", "y"], ["x", "y", "z"], ["x", "y", "z", "w"]):  # P1-P4
        assert make_ring(101, names).dimension == len(names)
    x, y, z = (PolyContext(101, ["x", "y", "z"]).variable(i) for i in range(3))
    assert make_ring(101, ["x", "y", "z"], [x * y - z * z]).dimension == 2  # cone
    assert make_ring(101, ["x", "y", "z"], [x * x, x * y]).dimension == 2  # ncm


@pytest.mark.parametrize("n", [31, 40])
def test_coprime_pair_is_skipped_before_the_degree_budget(n):
    # the S-pair of x^n and y^n has lcm degree 2n, past the default cap of 60:
    # Buchberger's coprime criterion drops it before the degree check
    x, y = (PolyContext(101, ["x", "y", "z"]).variable(i) for i in range(2))
    assert make_ring(101, ["x", "y", "z"], [x ** n, y ** n]).dimension == 1


def test_ring_elements_are_normal_forms():
    ring = make_ring(101, ["x", "y"], [X * X, X * Y])
    x = ring.variable(0)
    y = ring.variable(1)
    assert (x * x).is_zero()
    assert (x * y).is_zero()
    assert not (y * y).is_zero()
    assert x + x == ring.constant(2) * x
    # sums of normal forms stay reduced, products get re-reduced
    assert str((x + y) * (x + y)) == "y^2"


def test_ideal_colength_against_oracle():
    ring = make_ring(101, ["x", "y"])
    x = ring.variable(0)
    y = ring.variable(1)
    cases = [
        [x * x, y * y * y],
        [x * x + y * y, x * y * y],
    ]
    for gens in cases:
        got = ideal_colength(ring, gens)
        want = oracles.ideal_length(101, 2, [dict(g.rep.terms) for g in gens], [])
        assert got == want


def test_ideal_colength_inhomogeneous():
    # lead terms of (x^3 - y^2, x*y) are x^3 and x*y; the S-pair adds y^3,
    # leaving standard monomials 1, x, x^2, y, y^2
    ring = make_ring(101, ["x", "y"])
    x = ring.variable(0)
    y = ring.variable(1)
    assert ideal_colength(ring, [x * x * x - y * y, x * y]) == 5


def test_ideal_colength_infinite():
    ring = make_ring(101, ["x", "y"])
    assert ideal_colength(ring, [ring.variable(0)]) is INFINITE
    assert ideal_colength(ring, []) is INFINITE


def test_submodule_colength_against_oracle():
    ring = make_ring(101, ["x", "y"], [X * X, X * Y])
    y = ring.variable(1)
    zero = ring.zero()
    gens = [(y, zero), (zero, y)]
    sub = SubmoduleOfFree(ring, 2, gens)
    got = submodule_colength(ring, sub)
    want = oracles.module_length(
        101, 2, 2,
        [[dict(c.rep.terms) for c in g] for g in gens],
        [{(2, 0): 1}, {(1, 1): 1}],
    )
    assert got == want == 4


def test_min_generators_counts_socle_drop():
    ring = make_ring(101, ["x", "y"])
    x = ring.variable(0)
    y = ring.variable(1)
    sub = SubmoduleOfFree(ring, 1, [(x * x,), (y * y * y,), (x * x * y,)])
    # the third generator is redundant: x^2*y is inside (x^2)
    assert min_generators(ring, sub) == 2


def test_full_module_needs_one_generator():
    ring = make_ring(101, ["x", "y"])
    one = ring.one()
    sub = SubmoduleOfFree(ring, 1, [(one,), (ring.variable(0),)])
    # N = A itself: one generator by Nakayama, the x is redundant
    assert min_generators(ring, sub) == 1


def test_parameter_module_verdict_fields():
    ring = make_ring(101, ["x", "y"])
    x = ring.variable(0)
    y = ring.variable(1)
    zero = ring.zero()

    good = SubmoduleOfFree(ring, 2, [(x, zero), (y, x), (zero, y)])
    v = is_parameter_module(ring, good)
    assert v.ok and v.finite_colength and v.inside_max_ideal and v.generators_match
    assert v.colength == 3 and v.mu == 3  # dim + rank - 1

    overfull = SubmoduleOfFree(ring, 1, [(x * x,), (x * y,), (y * y,)])
    v = is_parameter_module(ring, overfull)
    assert not v.ok and v.finite_colength and not v.generators_match
    assert v.mu == 3  # need exactly 2

    thin = SubmoduleOfFree(ring, 1, [(x,)])
    v = is_parameter_module(ring, thin)
    assert not v.ok and not v.finite_colength
    assert v.colength is INFINITE and v.mu is None
    assert min_generators(ring, thin) == 1  # read off the same run, finite colength or not


RINGS = {  # name -> (variables, ideal generators as {exponents: coefficient})
    "P1": ("x", []),
    "P2": ("xy", []),
    "P3": ("xyz", []),
    "cone": ("xyz", [{(1, 1, 0): 1, (0, 0, 2): -1}]),
    "ncm": ("xyz", [{(2, 0, 0): 1}, {(1, 1, 0): 1}]),
}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_mu_from_the_colength_run_matches_the_dense_oracle(data):
    # mu(N) = l(F/mN) - l(F/N), both counted degree by degree.  The
    # columns are homogeneous under unequal row shifts and of mixed
    # degrees; a column of the lowest degree has a unit in a row of the
    # largest shift, and the redundant columns are sums of multiples of
    # the others, so over a quotient ring they are redundant only modulo
    # I F.
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 101]), label="p")
    names, ideal = RINGS[draw(st.sampled_from(sorted(RINGS)), label="ring")]
    ctx = PolyContext(p, list(names))
    ring = make_ring(p, list(names), [Polynomial(ctx, g) for g in ideal])
    rank = draw(st.integers(1, 3 if ctx.nvars < 3 else 2), label="rank")
    shifts = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank), label="shifts")
    low = max(shifts)
    cols = []  # (degree, column)
    for _ in range(draw(st.integers(rank + ring.dimension - 1, rank + ring.dimension), label="columns")):
        d = draw(st.integers(low, low + (2 if ctx.nvars < 3 else 1)), label="degree")
        cols.append((d, [ring.element(random_form(draw, ring.ctx, d - s)) for s in shifts]))
    for _ in range(draw(st.integers(0, 2), label="redundant columns")):
        d = draw(st.integers(low + 1, low + 2), label="degree")
        acc = [ring.zero()] * rank
        for dj, col in draw(st.lists(st.sampled_from(cols), min_size=1, max_size=3), label="multiplied"):
            if dj <= d:
                g = ring.element(random_form(draw, ring.ctx, d - dj))
                acc = [a + g * c for a, c in zip(acc, col)]
        cols.append((d, acc))
    gens = [cols[k][1] for k in draw(st.permutations(range(len(cols))), label="order")]
    sub = SubmoduleOfFree(ring, rank, gens)
    v = is_parameter_module(ring, sub)
    vectors = [[dict(c.rep.terms) for c in g] for g in gens]
    ideal_polys = [dict(g.terms) for g in ring.ideal_gens]
    if v.colength is INFINITE:
        assert v.mu is None and not v.finite_colength
        assert oracles.module_length(p, ctx.nvars, rank, vectors, ideal_polys, low + 8, shifts) == oracles.INF
        return
    mn = [[{tuple(a + (k == i) for k, a in enumerate(e)): c for e, c in comp.items()} for comp in vec]
          for vec in vectors for i in range(ctx.nvars)]
    cap = low + 4 + v.colength + v.mu
    ln = oracles.module_length(p, ctx.nvars, rank, vectors, ideal_polys, cap, shifts)
    lmn = oracles.module_length(p, ctx.nvars, rank, mn, ideal_polys, cap, shifts)
    assert (ln, lmn - ln) == (v.colength, v.mu)
    assert min_generators(ring, sub) == v.mu


def test_generator_redundant_only_modulo_the_ideal():
    # Over F_101[x,y,z]/(x^2, xy), xz = x(x + z) - x^2 lies in mN + I but
    # not in mN: it is redundant only once the column x^2 of degree 2
    # has gone in.
    ring = make_ring(101, ["x", "y", "z"], [Polynomial(PolyContext(101, ["x", "y", "z"]), g)
                                            for g in RINGS["ncm"][1]])
    x, z = ring.variable(0), ring.variable(2)
    assert min_generators(ring, SubmoduleOfFree(ring, 1, [(x + z,), (x * z,)])) == 1


def test_run_may_stop_while_higher_inputs_wait(monkeypatch):
    # The unit fills every degree from 1 up, so the run stops at degree 1
    # with x, given first, still waiting; x is not counted.
    import brimlab.groebner as groebner_mod

    ring = make_ring(101, ["x", "y"])
    sub = SubmoduleOfFree(ring, 1, [(ring.variable(0),), (ring.one(),)])
    reduced = []
    real = groebner_mod._normal_form_dict

    def counted(vec, *args):
        reduced.append(dict(vec))
        return real(vec, *args)

    monkeypatch.setattr(groebner_mod, "_normal_form_dict", counted)
    v = is_parameter_module(ring, sub)
    assert (v.colength, v.mu) == (0, 1)
    assert len(reduced) == 1  # only the unit went in


def test_parameter_test_runs_each_groebner_basis_once(monkeypatch):
    # one run of N + I F gives both l(F/N) and mu(N)
    import brimlab.rings as rings_mod

    calls = []
    real = rings_mod.buchberger

    def counted(gens, budget=None, **kwargs):
        calls.append(len(gens))
        return real(gens, budget, **kwargs)

    monkeypatch.setattr(rings_mod, "buchberger", counted)
    for ideal, ideal_columns in (([], 0), ([X * X, X * Y], 4)):
        ring = make_ring(101, ["x", "y"], ideal)
        x = ring.variable(0)
        y = ring.variable(1)
        zero = ring.zero()
        sub = SubmoduleOfFree(ring, 2, [(x, zero), (y, x), (zero, y)])
        calls.clear()
        is_parameter_module(ring, sub)
        assert calls == [ideal_columns + 3]


def test_submodule_needs_a_grading():
    ring = make_ring(101, ["x", "y"])
    x, y = ring.variable(0), ring.variable(1)
    # (x, y) and (x, y^2) ask the second row for shifts 0 and 1 at once
    with pytest.raises(ContractError, match="breaks the grading"):
        SubmoduleOfFree(ring, 2, [(x, y), (x, y * y)])
    assert SubmoduleOfFree(ring, 2, [(x, y * y), (y, x * y)]).shifts == (0, -1)


def test_parameter_rejects_unit_components():
    ring = make_ring(101, ["x", "y"])
    one = ring.one()
    zero = ring.zero()
    sub = SubmoduleOfFree(ring, 2, [(one, zero), (zero, one)])
    v = is_parameter_module(ring, sub)
    assert not v.inside_max_ideal and not v.ok


def test_quotient_basis_of_nothing_is_empty_and_infinite():
    ring = make_ring(101, ["x", "y"])
    zero = VectorPolynomial((CTX.zero(), CTX.zero()))
    for vectors in ([], [zero]):
        gb = quotient_basis(ring, vectors, 2)
        assert gb.rank == 2 and gb.lead_terms == ()
        assert gb.colength() is INFINITE
        assert not gb.contains(VectorPolynomial((X, CTX.zero())))


def test_submodule_contract_errors():
    ring = make_ring(101, ["x", "y"])
    other = make_ring(7, ["x", "y"])
    with pytest.raises(ContractError):
        SubmoduleOfFree(ring, 0, [])
    with pytest.raises(ContractError):
        SubmoduleOfFree(ring, 1, [(X,)])  # a raw polynomial, not a ring element
    with pytest.raises(ContractError):
        SubmoduleOfFree(ring, 1, [(other.variable(0),)])
