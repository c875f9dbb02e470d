"""Quotient rings, colengths, parameter-module verdicts."""

import pathlib
import sys
from types import SimpleNamespace

import pytest

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
    assert v.colength is INFINITE


def test_infinite_colength_of_mn_is_a_program_fault(monkeypatch):
    # l(F/mN) is finite whenever l(F/N) is; an infinite one must not
    # become mu = inf and a quiet "not a parameter module", with or
    # without python -O
    import brimlab.rings as rings_mod

    ring = make_ring(101, ["x", "y"])
    sub = SubmoduleOfFree(ring, 1, [(ring.variable(0),), (ring.variable(1),)])
    real = rings_mod.quotient_basis
    calls = []

    def second_unbounded(*args):
        calls.append(args)
        return real(*args) if len(calls) == 1 else SimpleNamespace(colength=lambda: INFINITE)

    monkeypatch.setattr(rings_mod, "quotient_basis", second_unbounded)
    with pytest.raises(RuntimeError):
        is_parameter_module(ring, sub)
    assert len(calls) == 2


def test_parameter_test_runs_each_groebner_basis_once(monkeypatch):
    import brimlab.rings as rings_mod

    ring = make_ring(101, ["x", "y"])
    x = ring.variable(0)
    y = ring.variable(1)
    zero = ring.zero()
    sub = SubmoduleOfFree(ring, 2, [(x, zero), (y, x), (zero, y)])
    calls = []
    real = rings_mod.buchberger

    def counted(gens, budget=None):
        calls.append(len(gens))
        return real(gens, budget)

    monkeypatch.setattr(rings_mod, "buchberger", counted)
    assert is_parameter_module(ring, sub).ok
    # one run for l(F/N), one for l(F/mN)
    assert calls == [3, 6]


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
