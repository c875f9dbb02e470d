"""Arithmetic laws for exact polynomials over F_p."""

from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from brimlab.poly import (
    ContextMismatchError,
    ContractError,
    PolyContext,
    Polynomial,
    VectorPolynomial,
    degrevlex_key,
    is_prime,
)

CTX = PolyContext(101, ["x", "y", "z"])


def poly_strategy(ctx=CTX, max_terms=6, max_exp=4):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(ctx.nvars)))
    term = st.tuples(exps, st.integers(0, ctx.p - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda items: Polynomial.from_terms(ctx, items)
    )


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=150, deadline=None)
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + CTX.zero() == f
    assert f * CTX.one() == f
    assert f - f == CTX.zero()
    assert f + (-f) == CTX.zero()


@given(poly_strategy(), poly_strategy())
@settings(max_examples=100, deadline=None)
def test_no_zero_coefficients_stored(f, g):
    h = f * g + f
    assert all(c % 101 != 0 for c in h.terms.values())


@given(poly_strategy())
@settings(max_examples=100, deadline=None)
def test_str_parses_back(f):
    from brimlab.dsl import parse

    text = "ring { p = 101 vars = [x, y, z] ideal = [] } module { rank = 1 matrix = [[x]] }"
    spec = parse(text.replace("[[x]]", "[[%s]]" % f)) if not f.is_zero() else None
    if spec is not None:
        assert spec.matrix[0][0] == f


def test_zero_degree_and_lead():
    z = CTX.zero()
    assert z.is_zero() and z.degree() is None
    with pytest.raises(Exception):
        z.lead_term()
    one = CTX.one()
    assert one.degree() == 0 and one.lead_term() == ((0, 0, 0), 1)


def test_degree_and_homogeneous():
    x, y = CTX.variable(0), CTX.variable(1)
    f = x * x + x * y
    assert f.degree() == 2 and f.is_homogeneous()
    g = f + x
    assert not g.is_homogeneous()
    # cancellation drops the degree exactly
    assert (f - x * y).degree() == 2
    assert (f - f).degree() is None


def test_degrevlex_order():
    # canonical degree-2 chain in three variables:
    # x^2 > x*y > y^2 > x*z > y*z > z^2
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [degrevlex_key(e) for e in chain]
    assert keys == sorted(keys, reverse=True)
    assert degrevlex_key((0, 0, 3)) > degrevlex_key((1, 1, 0))  # higher degree wins


def test_canonical_str():
    x, y = CTX.variable(0), CTX.variable(1)
    f = x * x * y * CTX.constant(3) + y * y * y * CTX.constant(100)
    # terms print in descending degrevlex order
    assert str(f) == "3*x^2*y + 100*y^3"
    assert str(x + y * y * y) == "y^3 + x"
    assert str(CTX.zero()) == "0"
    assert str(CTX.one()) == "1"
    assert str(x * y) == "x*y"


def test_pow_matches_repeated_product():
    x, y = CTX.variable(0), CTX.variable(1)
    for f in (x + y, x * x * CTX.constant(3) - y + CTX.one(), CTX.constant(2), x, CTX.zero()):
        want = CTX.one()
        for k in range(11):
            assert f ** k == want
            want = want * f


def test_negative_power_is_contract_error():
    # checked without assert, so it holds under python -O too
    with pytest.raises(ContractError):
        CTX.variable(0) ** -1


def test_monic():
    x = CTX.variable(0)
    f = x * CTX.constant(17)
    assert f.monic() == x
    assert CTX.zero().monic() == CTX.zero()


def test_context_mismatch_raises():
    other = PolyContext(101, ["u"])
    with pytest.raises(ContextMismatchError):
        CTX.one() + other.one()


def test_context_rejects_bad_input():
    with pytest.raises(ContractError):
        PolyContext(100, ["x"])  # not prime
    with pytest.raises(ContractError):
        PolyContext(101, ["x", "x"])  # duplicate name
    with pytest.raises(ContractError):
        PolyContext(101, [])


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)
    assert all(is_prime(n) == (n > 1 and all(n % f for f in range(2, isqrt(n) + 1))) for n in range(10 ** 4))
    assert not is_prime(3825123056546413051)  # a strong pseudoprime to every base up to 23
    assert is_prime(2 ** 61 - 1) and is_prime(1000000000000000003)
    assert PolyContext(2 ** 61 - 1, ["x"]).p == 2 ** 61 - 1
    with pytest.raises(ContractError):
        PolyContext(2 ** 64 + 13, ["x"])  # prime, but past the largest modulus


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=80, deadline=None)
def test_vector_laws(a, b, c):
    u = VectorPolynomial((a, b))
    v = VectorPolynomial((b, c))
    w = VectorPolynomial((c, a))
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u - u).is_zero()
    assert u.scale(CTX.one()) == u
    assert u.scale(c) + v.scale(c) == (u + v).scale(c)


def test_vector_rank_mismatch():
    u = VectorPolynomial((CTX.one(),))
    v = VectorPolynomial((CTX.one(), CTX.zero()))
    with pytest.raises(ContractError):
        u + v
