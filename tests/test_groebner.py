"""Groebner engine: reduced bases, normal forms, budgets, determinism."""

import ast
import importlib
import pathlib
import sys
from itertools import accumulate, islice
from math import comb
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from brimlab.groebner import (
    MAX_DEGREE,
    TOP,
    Budget,
    buchberger,
    combine,
    dimension_and_length,
    hilbert_numerator,
    in_components,
    pack_polynomial,
    syzygy_basis,
    term_component,
    unpack_vector,
    _Layout,
    _dict_to_vec,
    _layout,
    _vec_to_dict,
)
from brimlab.homology import all_homology
from brimlab.koszul import ModuleMatrix, build_koszul
from brimlab.poly import (
    INFINITE,
    BudgetExceededError,
    ContractError,
    PolyContext,
    Polynomial,
    VectorPolynomial,
)
from brimlab.rings import make_ring

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import oracles

CTX = PolyContext(101, ["x", "y"])
X = CTX.variable(0)
Y = CTX.variable(1)


def vec(*polys):
    return VectorPolynomial(tuple(polys))


def ideal_basis(*polys):
    return buchberger([vec(f) for f in polys])


def test_principal_ideal_basis_is_monic_generator():
    gb = buchberger([vec(X * X * CTX.constant(7))])
    assert len(gb.generators) == 1
    assert gb.generators[0] == vec(X * X)


def test_two_variable_example():
    # (x^2 - y, x*y) forces y^2 in any Groebner basis
    gb = ideal_basis(X * X - Y, X * Y)
    lead_exps = sorted(t[1:] for t in gb.lead_terms)
    assert lead_exps == [(0, 2), (1, 1), (2, 0)]
    assert gb.contains(vec(Y * Y))
    assert not gb.contains(vec(Y))


def test_normal_form_is_idempotent_and_linear():
    gb = ideal_basis(X * X - Y, X * Y)
    f = vec((X + Y) ** 3)
    nf = gb.normal_form(f)
    assert gb.normal_form(nf) == nf
    g = vec(X * Y * Y + X)
    assert gb.normal_form(f + g) == gb.normal_form(nf + gb.normal_form(g))
    # remainder has no term divisible by a lead term
    for comp_poly in nf.components:
        for exps in comp_poly.terms:
            for lt in gb.lead_terms:
                assert not all(a >= b for a, b in zip(exps, lt[1:]))


def test_membership_after_combination():
    gb = ideal_basis(X * X - Y, X * Y)
    combo = vec((X * X - Y) * (X + Y) + (X * Y) * Y * Y)
    assert gb.contains(combo)


def test_all_spairs_reduce_to_zero():
    # the defining property of a Groebner basis, checked directly
    gens = [X ** 3 - Y, X * Y - X, Y ** 3 - X * X, X * X * Y - Y * Y]
    gb = buchberger([vec(f) for f in gens])
    rows = gb.generators
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            fi, fj = rows[i].components[0], rows[j].components[0]
            ei, ci = fi.lead_term()
            ej, cj = fj.lead_term()
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            mi = CTX.monomial(tuple(l - a for l, a in zip(lcm, ei)), pow(ci, -1, 101))
            mj = CTX.monomial(tuple(l - a for l, a in zip(lcm, ej)), pow(cj, -1, 101))
            s = fi * mi - fj * mj
            assert gb.normal_form(vec(s)).is_zero()


def test_module_basis_position_over_term():
    # component 0 dominates: (0, y) has lead term in component 1
    gb = buchberger([vec(X, Y), vec(CTX.zero(), Y)])
    assert gb.normal_form(vec(CTX.zero(), Y)).is_zero()
    assert not gb.contains(vec(CTX.zero(), X))


def test_determinism_under_generator_order():
    gens = [X * X - Y, X * Y, Y ** 4]
    import itertools

    bases = []
    for perm in itertools.permutations(gens):
        gb = buchberger([vec(f) for f in perm])
        bases.append(tuple(str(g) for g in gb.generators))
    assert len(set(bases)) == 1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 100)),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_normal_form_zero_iff_member(data):
    gens = [vec(CTX.monomial((a, b), c) - CTX.one()) for a, b, c in data]
    gb = buchberger(gens)
    for g in gens:
        assert gb.normal_form(g).is_zero()


def test_pair_budget_raises():
    gens = [vec(X ** 3 - Y ** 2), vec(X * X * Y - Y * X), vec(Y ** 4 - X)]
    with pytest.raises(BudgetExceededError) as err:
        buchberger(gens, Budget(max_pairs=1))
    assert err.value.kind == "pairs"


def test_degree_budget_raises():
    # leads x^2*y and x*y^2 share variables, so their S-pair survives the
    # coprime prune and its lcm degree 4 breaches the cap
    gens = [vec(X * X * Y - Y * Y), vec(X * Y * Y - X)]
    with pytest.raises(BudgetExceededError) as err:
        buchberger(gens, Budget(max_degree=3))
    assert err.value.kind == "degree"


def test_hilbert_count_needs_homogeneous_rank_one_input():
    # the count of missing lead terms holds degree by degree for
    # homogeneous ideals only; (1 - s)^2 is the numerator of (x^2, y^2)
    q = {0: 1, 2: -2, 4: 1}
    assert buchberger([vec(X * X), vec(Y * Y)], hilbert=q).lead_terms == ((0, 0, 2), (0, 2, 0))
    with pytest.raises(ContractError):
        buchberger([vec(X * X - Y), vec(Y * Y)], hilbert=q)
    with pytest.raises(ContractError):
        buchberger([vec(X * X, Y * Y)], hilbert=q)


def test_budget_tally_reports_usage():
    budget = Budget()
    buchberger([vec(X * X - Y), vec(X * Y)], budget)
    assert budget.pairs_used > 0
    assert budget.max_degree_seen >= 2


def test_pairs_used_counts_its_own_run():
    budget = Budget()
    gens = [vec(X * X - Y), vec(X * Y)]
    first = buchberger(gens, budget)
    second = buchberger(gens, budget)
    assert first.pairs_used == second.pairs_used > 0
    assert budget.pairs_used == first.pairs_used + second.pairs_used


@pytest.mark.parametrize("caps", [{"max_pairs": 0}, {"max_pairs": -1},
                                  {"max_degree": 0}, {"max_degree": -1}])
def test_budget_rejects_nonpositive_caps(caps):
    with pytest.raises(ContractError):
        Budget(**caps)


def _random_form(draw, ctx, degree):
    """A homogeneous form of the given degree with drawn coefficients."""
    items = [(e, draw(st.integers(0, ctx.p - 1)))
             for e in oracles.monomials_of_degree(ctx.nvars, degree)]
    return Polynomial.from_terms(ctx, items)


def _drawn_module(draw, ctx, shifts, columns):
    """Columns homogeneous under the basis shifts, then the ideal generators.

    A column of degree d has a form of degree d - shifts[c] in component
    c, so with shifts that differ its entries differ in degree.
    """
    rank = len(shifts)
    low = max(shifts)
    cols = []
    for _ in range(columns):
        degree = draw(st.integers(max(low, 1), low + 2 if ctx.nvars == 3 else low + 3))
        cols.append(VectorPolynomial(tuple(_random_form(draw, ctx, degree - s) for s in shifts)))
    top = 2 if ctx.nvars == 3 else 3
    ideal = [_random_form(draw, ctx, draw(st.integers(1, top)))
             for _ in range(draw(st.integers(0, 2), label="ideal generators"))]
    zero = ctx.zero()
    gens = cols + [VectorPolynomial(tuple(g if c == k else zero for k in range(rank)))
                   for g in ideal for c in range(rank)]
    return cols, ideal, gens


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_colength_matches_degreewise_oracle(data):
    # Shifts all 0 make every vector homogeneous under the unshifted
    # grading, so the run may stop at the vanishing degree; other shifts
    # give vectors of mixed degree, which must run to the end.
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 5, 101]), label="p")
    nvars = draw(st.sampled_from([2, 3]), label="nvars")
    ctx = PolyContext(p, ["x", "y", "z"][:nvars])
    rank = draw(st.integers(1, 3 if nvars == 2 else 2), label="rank")
    shifts = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank), label="shifts")
    columns = draw(st.integers(rank, rank + 2), label="columns")
    cols, ideal, gens = _drawn_module(draw, ctx, shifts, columns)
    got = buchberger(gens).colength()
    shifted = buchberger(gens, shifts=shifts)
    assert shifted.colength() == got  # by degree, with the stop
    # F/N is generated in degrees <= 1, so its top degree is at most its length
    cap = (12 if nvars == 2 else 7) if got is INFINITE else got + 2
    args = (p, nvars, rank, [[c.terms for c in v.components] for v in cols], [g.terms for g in ideal])
    want = oracles.module_length(*args, max_degree=cap, shifts=shifts)
    assert want == (oracles.INF if got is INFINITE else got)
    # numerator(shifts) / (1 - s)^m is the Hilbert series, degree by degree
    # up to two degrees past its last nonzero one
    num = shifted.numerator(shifts)
    series = [num.get(t, 0) for t in range(cap + 1)]
    for _ in range(nvars):
        series = list(accumulate(series))
    top = min(cap, max((t for t, h in enumerate(series) if h), default=0) + 2)
    assert series[:top + 1] == list(islice(oracles.module_hilbert_function(*args, shifts=shifts), top + 1))


def _coefficients(packed=(), vectors=()):
    """Every coefficient of the packed vectors and VectorPolynomials."""
    return ([c for d in packed for c in d.values()]
            + [c for v in vectors for f in v.components for c in f.terms.values()])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_engine_hands_out_coefficients_reduced_mod_p(data):
    # S-polynomials and reduction steps add coefficients up unreduced; a
    # normal form reduces each one when its term is popped and drops a 0.
    # Small p cancels often; 2^61 - 1 makes the unreduced sums big ints.
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 101, 2 ** 61 - 1]), label="p")
    nvars = draw(st.sampled_from([2, 3]), label="nvars")
    ctx = PolyContext(p, ["x", "y", "z"][:nvars])
    rank = draw(st.integers(1, 2), label="rank")
    shifts = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank), label="shifts")
    cols, ideal, gens = _drawn_module(draw, ctx, shifts, draw(st.integers(rank, rank + 2), label="columns"))
    gb = buchberger(gens)
    syz, image = syzygy_basis(gens)
    assert all(0 < c < p for c in _coefficients(syz, gb.generators + image.generators))
    # a combination of the generators of one degree d, and that plus a
    # drawn vector of degree d, against the degree-d oracle
    d = draw(st.integers(max(shifts), max(shifts) + 3), label="d")
    degree = lambda v: next(f.degree() + s for f, s in zip(v.components, shifts) if f.terms)
    inside = VectorPolynomial((ctx.zero(),) * rank)
    for g in gens:
        if not g.is_zero() and degree(g) <= d:
            inside = inside + g.scale(_random_form(draw, ctx, d - degree(g)))
    drawn = VectorPolynomial(tuple(_random_form(draw, ctx, d - s) if d >= s else ctx.zero() for s in shifts))
    terms = lambda vs: [[f.terms for f in v.components] for v in vs]
    args = (p, nvars, rank)
    before = next(islice(oracles.module_hilbert_function(*args, terms(gens), [], shifts=shifts), d, None))
    for v in (inside, inside + drawn):
        after = next(islice(oracles.module_hilbert_function(*args, terms(gens + [v]), [], shifts=shifts), d, None))
        packed = gb.reduce_terms(in_components(ctx, [(pack_polynomial(f), c) for c, f in enumerate(v.components)]))
        nf = gb.normal_form(v)
        assert all(0 < c < p for c in _coefficients([packed], [nf]))
        assert gb.contains(v) == (after == before) == (not packed) == nf.is_zero()
        assert gb.contains(v - nf)
    assert gb.contains(inside)
    got = gb.colength()
    cap = (12 if nvars == 2 else 7) if got is INFINITE else got + 2
    want = oracles.module_length(*args, terms(cols), [g.terms for g in ideal], max_degree=cap, shifts=shifts)
    assert want == (oracles.INF if got is INFINITE else got)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_reduced_basis_is_order_free_on_homogeneous_input(data):
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 101]), label="p")
    ctx = PolyContext(p, ["x", "y", "z"])
    rank = draw(st.integers(1, 2), label="rank")
    _, _, gens = _drawn_module(draw, ctx, [0] * rank, draw(st.integers(rank, rank + 2)))
    order = draw(st.permutations(range(len(gens))), label="order")
    gb = buchberger(gens)
    again = buchberger([gens[i] for i in order])
    assert again.lead_terms == gb.lead_terms
    assert again.generators == gb.generators
    for g in gens:
        assert gb.contains(g)


def test_homogeneous_run_stops_at_the_vanishing_degree():
    # every quadric is a lead term from the start, so no S-pair is needed
    gb = ideal_basis(X * X, X * Y, Y * Y)
    assert gb.pairs_used == 0 and gb.colength() == 3


def test_mixed_degree_run_does_not_stop_early():
    # Both components hold every quadric from the start, but the S-pair
    # of the first two vectors, of degree 2, gives (0, y - 2x) of degree 1.
    zero, one = CTX.zero(), CTX.one()
    cols = [vec(X, one), vec(Y, one.scale(2))]
    gens = cols + [vec(zero, m) for m in (X * X, X * Y, Y * Y)]
    gb = buchberger(gens)
    assert gb.contains(vec(zero, Y - X.scale(2)))
    want = oracles.module_length(101, 2, 2, [[c.terms for c in v.components] for v in gens],
                                 [], shifts=[0, 1])
    assert gb.colength() == want == 3
    # under the shifts (0, 1) the same vectors are homogeneous of degree 1
    assert buchberger(gens, shifts=(0, 1)).generators == gb.generators


def test_shifted_pairs_go_before_inputs_of_their_degree():
    # Under the shifts (0, -1), S((0, x^2 + y^2), (0, xy)) = (0, y^3) has
    # degree 2, the degree of the fourth input: that pair must run first,
    # so the fourth input is not fresh.
    zero = CTX.zero()
    gens = [vec(X, Y * Y), vec(zero, X * X + Y * Y), vec(zero, X * Y), vec(zero, Y * Y * Y)]
    gb = buchberger(gens, shifts=(0, -1))
    assert sorted(gb.fresh) == [0, 1, 2]


def test_shifted_component_is_filled_at_its_own_degree():
    # Under the shifts (0, 1) component 1 holds x^3 and y^3 from degree 4:
    # they cover every monomial of degree 5 but not x^2 y^2, which the
    # last input brings at shifted degree 5.  The run must not stop there.
    zero = CTX.zero()
    gens = [vec(X, zero), vec(Y ** 4, zero), vec(Y ** 4, X ** 3), vec(zero, Y ** 3), vec(zero, X * X * Y * Y)]
    gb = buchberger(gens, shifts=(0, 1))
    assert sorted(gb.fresh) == [0, 1, 2, 3, 4]
    assert gb.colength() == 4 + 8 == buchberger(gens).colength()
    # Under (0, 3) component 1 has no monomial of degree 1 or 2: it is not
    # filled there, and its inputs, of degree 4, still go in.
    gens = [vec(X, zero), vec(Y, zero), vec(zero, X), vec(zero, Y)]
    gb = buchberger(gens, shifts=(0, 3))
    assert sorted(gb.fresh) == [0, 1, 2, 3] and gb.colength() == 2


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_inhomogeneous_basis_is_order_free(data):
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 5, 101]), label="p")
    ctx = PolyContext(p, ["x", "y"])
    rank = draw(st.integers(1, 2), label="rank")
    term = st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, p - 1))
    entry = st.lists(term, max_size=3).map(lambda items: Polynomial.from_terms(ctx, items))
    gens = draw(st.lists(st.tuples(*[entry] * rank).map(VectorPolynomial),
                         min_size=1, max_size=4), label="generators")
    order = draw(st.permutations(range(len(gens))), label="order")
    gb = buchberger(gens)
    again = buchberger([gens[i] for i in order])
    assert again.generators == gb.generators
    for g in gens:
        assert gb.normal_form(g).is_zero()


def _rows(gb):
    """The unreduced rows of a basis: lead term and tail of each."""
    return [(r.lt, r.tail) for r in gb._rows]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_inhomogeneous_runs_take_inputs_smallest_lead_term_first(data):
    # With distinct lead terms the input order of a run that is not
    # homogeneous changes nothing: not the rows, their unreduced tails nor
    # the S-pairs.  syzygy_basis numbers its tags by input position, and the
    # tag that leads a syzygy row decides how the row is scaled and what
    # later rows reduce against it: the syzygies, their tags put back,
    # generate the same module, and the image basis is the same.
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 101]), label="p")
    ctx = PolyContext(p, ["x", "y", "z"][:draw(st.integers(2, 3), label="nvars")])
    rank = draw(st.integers(1, 3), label="rank")
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ctx.nvars), st.integers(1, p - 1))
    entry = st.lists(term, max_size=3).map(lambda items: Polynomial.from_terms(ctx, items))
    gens = draw(st.lists(st.tuples(*[entry] * rank).map(VectorPolynomial), min_size=2, max_size=4),
                label="generators")
    leads = [min(_vec_to_dict(g, _Layout(ctx.nvars)), default=None) for g in gens]
    assume(None not in leads and len(set(leads)) == len(gens))
    assume(any(len({sum(e) for f in g.components for e in f.terms}) > 1 for g in gens))
    order = draw(st.permutations(range(len(gens))), label="order")
    k, zero, one = len(gens), ctx.zero(), ctx.one()
    tagged = [VectorPolynomial(g.components + tuple(one if j == i else zero for j in range(k)))
              for i, g in enumerate(gens)]
    for vectors, tags in ((gens, 0), (tagged, k)):
        gb = buchberger(vectors, tags=tags)
        again = buchberger([vectors[i] for i in order], tags=tags)
        assert _rows(again) == _rows(gb) and again.pairs_used == gb.pairs_used
    syz, image = syzygy_basis(gens)
    syz_again, image_again = syzygy_basis([gens[i] for i in order])
    back = [0] * k
    for j, i in enumerate(order):
        back[i] = j  # tag j of the permuted run is gens[order[j]]
    assert _module(VectorPolynomial(tuple(v.components[back[i]] for i in range(k)))
                   for v in (unpack_vector(ctx, k, d) for d in syz_again)) == _module(
        unpack_vector(ctx, k, d) for d in syz)
    assert _rows(image_again) == _rows(image) and image_again.pairs_used == image.pairs_used


def test_waiting_input_outlives_the_chain_criterion():
    # x + 1 goes in before x^2 + y, its lead term a multiple of x: the pair
    # update after x + 1 must keep the waiting input, or the basis would
    # miss y + 1.
    one = CTX.one()
    for gens in ([vec(X * X + Y), vec(X + one)], [vec(X * X + Y, X), vec(X + one, Y)]):
        gb = buchberger(gens)
        assert sorted(gb.fresh) == [0, 1]
        assert all(gb.contains(g) for g in gens)
    assert buchberger([vec(X * X + Y), vec(X + one)]).colength() == 1


def syzygies(gens, **kwargs):
    """syzygy_basis's syzygies as VectorPolynomials."""
    return [unpack_vector(gens[0].ctx, len(gens), d) for d in syzygy_basis(gens, **kwargs)[0]]


def test_syzygy_substitution_property():
    gens = [vec(X * X), vec(X * Y), vec(Y * Y)]
    syz = syzygies(gens)
    assert syz  # the Koszul relations exist
    for s in syz:
        acc = vec(CTX.zero())
        for coeff, gen in zip(s.components, gens):
            acc = acc + gen.scale(coeff)
        assert acc.is_zero()


def test_syzygy_of_free_generators_is_empty():
    gens = [vec(CTX.one(), CTX.zero()), vec(CTX.zero(), CTX.one())]
    assert syzygies(gens) == []


def test_syzygies_of_no_generators_are_a_contract_error():
    for kwargs in ({}, {"modulo": [vec(X * X)]}):
        with pytest.raises(ContractError):
            syzygy_basis([], **kwargs)


def tagged_reference(gens, budget=None, modulo=()):
    """syzygy_basis by the route the S-pair trace replaced, kept as its
    reference: every vector tagged, the modulo ones too, the full reduced
    Groebner basis of the tagged module, and its rows that vanish in the
    original components, cut to the tags of gens (zero cuts dropped).
    The image basis is a second run, outside the budget, over the other
    rows cut to the original components (None when there are none).
    Returns them as syzygy_basis does."""
    ctx, rank, k = gens[0].ctx, gens[0].rank, len(gens)
    vectors = list(gens) + list(modulo)
    zero, one, n = ctx.zero(), ctx.one(), len(vectors)
    gb = buchberger([VectorPolynomial(v.components + tuple(one if j == i else zero for j in range(n)))
                     for i, v in enumerate(vectors)], budget)
    syz, image_rows = [], []
    for v in gb.generators:
        head, tags = VectorPolynomial(v.components[:rank]), VectorPolynomial(v.components[rank:rank + k])
        if not head.is_zero():
            image_rows.append(head)
        elif not tags.is_zero():
            syz.append(tags)
    lay = _Layout(ctx.nvars)
    return [_vec_to_dict(s, lay) for s in syz], buchberger(image_rows) if image_rows else None


def _module(vectors):
    """Reduced Groebner basis of the nonzero vectors: equal for equal modules."""
    vectors = [v for v in vectors if not v.is_zero()]
    return buchberger(vectors).generators if vectors else ()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_trace_syzygies_generate_the_reference_module(data):
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 101]), label="p")
    nvars = draw(st.sampled_from([2, 3]), label="nvars")
    ctx = PolyContext(p, ["x", "y", "z"][:nvars])
    rank = draw(st.integers(1, 3 if nvars == 2 else 2), label="rank")
    shifts = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank), label="shifts")
    cols, _, gens = _drawn_module(draw, ctx, shifts, draw(st.integers(rank, rank + 2)))
    modulo = gens[len(cols):] if draw(st.booleans(), label="modulo") else []
    packed, basis = syzygy_basis(cols, modulo=modulo)
    syz = [unpack_vector(ctx, len(cols), d) for d in packed]
    assert syz == syzygies(cols, modulo=modulo)
    want = [unpack_vector(ctx, len(cols), d) for d in tagged_reference(cols, modulo=modulo)[0]]
    assert _module(syz) == _module(want)
    assert basis.generators == _module(cols + modulo)
    inside = buchberger(modulo) if any(not v.is_zero() for v in modulo) else None
    for s in syz:
        acc = VectorPolynomial((ctx.zero(),) * rank)
        for coeff, col in zip(s.components, cols):
            acc = acc + col.scale(coeff)
        assert acc.is_zero() or (inside is not None and inside.contains(acc))


def test_kernel_runs_need_fewer_pairs_than_the_tagged_reference(monkeypatch):
    # Every corpus complex runs as many S-pairs on either route, so the
    # complex is K(a; -1) of a wider matrix over E4's ring
    # F_101[x, y]/(x^2, xy).
    ring = make_ring(101, ["x", "y"], [X * X, X * Y])
    x, y, zero = ring.variable(0), ring.variable(1), ring.zero()
    cx = build_koszul(ModuleMatrix(ring, [[x, y, zero], [zero, x, y]]), -1)
    homology_mod = importlib.import_module("brimlab.homology")  # brimlab.homology is the function
    runs = []
    for route in (syzygy_basis, tagged_reference):
        monkeypatch.setattr(homology_mod, "syzygy_basis", route)
        budget = Budget()
        pres = all_homology(cx, budget)
        runs.append((budget.pairs_used, [pres[p].length for p in sorted(pres)]))
    (pairs, lengths), (ref_pairs, ref_lengths) = runs
    assert pairs < ref_pairs
    assert lengths == ref_lengths == [3, 6, 3]


def staircase(exps, nvars):
    """(dimension, standard monomial count) of F_p[x]/(monomials exps)."""
    return dimension_and_length(hilbert_numerator(exps), nvars)


def test_count_standard_monomials():
    assert staircase([(2, 0), (0, 3)], 2)[1] == 6
    assert staircase([(1, 1)], 2)[1] is INFINITE
    assert staircase([], 2)[1] is INFINITE
    assert staircase([(0, 0)], 2)[1] == 0  # unit ideal


def test_colength_splits_components():
    # component 0 modulo (x, y), component 1 modulo (x^2, y)
    gb = buchberger([
        vec(X, CTX.zero()), vec(Y, CTX.zero()),
        vec(CTX.zero(), X * X), vec(CTX.zero(), Y),
    ])
    assert gb.colength() == 1 + 2


def test_one_infinite_component_makes_the_colength_infinite():
    # component 0 modulo (x, y), finite; component 1 modulo (x), not.  In
    # degrees (0, 1) the numerators 1 - 2s + s^2 and s - s^2 sum to 1 - s:
    # the s^2 terms cancel and leave no zero coefficient behind.
    gb = buchberger([vec(X, CTX.zero()), vec(Y, CTX.zero()), vec(CTX.zero(), X)])
    assert gb.colength() is INFINITE
    assert gb.numerator() == {0: 2, 1: -3, 2: 1}
    num = gb.numerator((0, 1))
    assert num == {0: 1, 1: -1}
    num[0] = 5  # a new dict each call
    assert gb.numerator((0, 1)) == {0: 1, 1: -1}
    with pytest.raises(ContractError):
        gb.numerator((0,))


def test_standard_monomials_against_enumeration():
    cases = [
        [(3, 0), (0, 2)],
        [(2, 1), (1, 2), (4, 0), (0, 4)],
        [(1, 0), (0, 5)],
    ]
    for exps in cases:
        got = staircase(exps, 2)[1]
        want = oracles.standard_monomial_count(exps, 2)
        assert got == want


def test_monomial_ideal_dimension():
    assert staircase([], 2)[0] == 2
    assert staircase([(2, 0), (1, 1)], 2)[0] == 1  # E2 staircase
    assert staircase([(1, 0), (0, 1)], 2)[0] == 0
    assert staircase([(0, 0)], 2)[0] == -1  # unit ideal


def test_degree_limit_of_inputs_and_budgets():
    x = PolyContext(101, ["x"]).variable(0)
    assert buchberger([vec(x ** MAX_DEGREE)]).colength() == MAX_DEGREE
    with pytest.raises(BudgetExceededError) as err:
        buchberger([vec(x ** (MAX_DEGREE + 1))])
    assert err.value.kind == "degree"
    assert Budget(max_degree=MAX_DEGREE).max_degree == MAX_DEGREE
    with pytest.raises(ContractError):
        Budget(max_degree=MAX_DEGREE + 1)


def test_degree_limit_inside_normal_forms():
    zero = CTX.zero()
    # the S-polynomial of (x, y^k) and (y, 0) is (0, y^(k+1))
    gb = buchberger([vec(X, Y ** (MAX_DEGREE - 1)), vec(Y, zero)])
    assert gb.contains(vec(zero, Y ** MAX_DEGREE))
    with pytest.raises(BudgetExceededError) as err:
        buchberger([vec(X, Y ** MAX_DEGREE), vec(Y, zero)])
    assert err.value.kind == "degree"
    # reducing x^2 by (x, y^k) leaves the term x*y^k in component 1
    gb = buchberger([vec(X, Y ** (MAX_DEGREE - 1))])
    assert not gb.contains(vec(X * X, zero))
    gb = buchberger([vec(X, Y ** MAX_DEGREE)])
    with pytest.raises(BudgetExceededError) as err:
        gb.contains(vec(X * X, zero))
    assert err.value.kind == "degree"


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_packed_vectors_round_trip(data):
    # pack, move to component j and unpack agree with VectorPolynomial,
    # and each term reads back its component, exponents and coefficient
    nvars = data.draw(st.integers(1, 4), label="nvars")
    ctx = PolyContext(101, ["x", "y", "z", "w"][:nvars])
    exps = st.tuples(*[st.integers(0, 6)] * nvars)
    f = Polynomial(ctx, data.draw(st.dictionaries(exps, st.integers(1, 100), max_size=6), label="f"))
    g = Polynomial(ctx, data.draw(st.dictionaries(exps, st.integers(1, 100), max_size=3), label="g"))
    j = data.draw(st.integers(0, 3), label="j")
    moved = in_components(ctx, [(pack_polynomial(f), j)])
    zeros = (ctx.zero(),) * j
    assert unpack_vector(ctx, j + 1, moved) == VectorPolynomial(zeros + (f,))
    for u, c in moved.items():
        assert term_component(ctx, u) == j
        (e, a), = unpack_vector(ctx, j + 1, {u: c}).components[j].terms.items()
        assert a == f.terms[e]
    assert unpack_vector(ctx, j + 1, combine(ctx, [moved], pack_polynomial(g))) == VectorPolynomial(zeros + (g * f,))


def test_only_groebner_imports_its_private_names():
    # the packed term format is groebner's alone: other modules reach it
    # through its public functions
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "brimlab"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "groebner.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "groebner":
                offenders += ["%s: %s" % (path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_packed_terms_order_components_first():
    # a smaller packed int is a larger term
    pack = _Layout(2).pack
    # position over term: any component-0 term beats any component-1 term
    assert pack((0, 1, 0)) < pack((1, 5, 5))
    # within a component, degrevlex: degree first, then x^2 > x*y > y^2
    assert pack((0, 0, 3)) < pack((0, 2, 0))
    assert pack((0, 2, 0)) < pack((0, 1, 1)) < pack((0, 0, 2))


def test_elimination_layout_orders_the_block_first():
    plain = _Layout(2)
    # no block: component, TOP - degree, then e_2, e_1, 16 bits each
    assert plain.pack((1, 2, 3)) == (1 << 48) | ((TOP - 5) << 32) | (3 << 16) | 2
    lay = _Layout(3, 1)  # the last variable, u, is eliminated
    pack = lay.pack
    assert pack((0, 0, 0, 1)) < pack((0, 5, 5, 0))  # any u beats none
    assert pack((0, 0, 0, 2)) < pack((0, 4, 0, 1))  # u-degree, then degree
    assert pack((1, 0, 0, 3)) > pack((0, 1, 0, 0))  # components still come first
    for t in ((0, 1, 2, 3), (2, 0, 7, 0)):
        assert lay.unpack(pack(t)) == t
        assert lay.degree(pack(t)) == sum(t[1:])
    assert lay.lcm(pack((0, 3, 0, 1)), pack((0, 1, 2, 2))) == pack((0, 3, 2, 2))


def free_of_block(gb, count):
    """The reduced basis vectors of gb led free of the last count variables."""
    return [g for t, g in zip(gb.lead_terms, gb.generators) if not any(t[-count:])]


@pytest.mark.parametrize("weights", [None, (2, 3, 1)])
def test_elimination_of_a_parametrized_curve(weights):
    ctx = PolyContext(101, ["x", "y", "u"])
    x, y, u = (ctx.variable(i) for i in range(3))
    cusp = buchberger([vec(x * x * x - y * y)])
    # x = u^2, y = u^3 leaves the cusp x^3 - y^2; the weights make both
    # inputs homogeneous
    gb = buchberger([vec(x - u * u), vec(y - u * u * u)], eliminate=1, weights=weights)
    gens = free_of_block(gb, 1)
    assert len(gens) == 1 and cusp.contains(gens[0]) and buchberger(gens).contains(cusp.generators[0])
    if weights is None:
        assert gens == list(cusp.generators)
    # nothing free of u: the elimination ideal is zero
    assert free_of_block(buchberger([vec(x - u), vec(y - u)], eliminate=2, weights=weights), 2) == []


def test_all_ones_weights_change_no_packed_term():
    for m, block in ((2, 0), (3, 1)):
        plain, ones = _Layout(m, block), _Layout(m, block, (1,) * m)
        for t in ((0, 1, 2, 3)[:m + 1], (2,) + (7,) * m):
            assert ones.pack(t) == plain.pack(t)
        a, b = ones.pack((0,) + (4,) * m), ones.pack((0, 9) + (0,) * (m - 1))
        assert ones.lcm(a, b) == plain.lcm(a, b) == plain.pack((0, 9) + (4,) * (m - 1))
    gens = [vec(X * X - Y * Y), vec(X * Y * Y), vec(X ** 3 + Y ** 3)]
    plain_run, ones_run = (buchberger(gens, weights=w) for w in (None, (1, 1)))
    assert (ones_run.lead_terms, ones_run.pairs_used, ones_run.generators) == (
        plain_run.lead_terms, plain_run.pairs_used, plain_run.generators)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_weighted_layout_degrees_and_lcms(data):
    draw = data.draw
    m = draw(st.integers(1, 4), label="m")
    block = draw(st.integers(0, m), label="block")
    weights = tuple(draw(st.lists(st.integers(1, 9), min_size=m, max_size=m), label="weights"))
    lay = _Layout(m, block, weights)
    plain = _Layout(m, block)
    # any terms the engine holds: a light variable's high exponent times a
    # heavy weight must not carry into the sum
    term = st.tuples(*[st.integers(0, MAX_DEGREE // (w * m)) for w in weights])
    a, b = draw(term, label="a"), draw(term, label="b")
    for t in (a, b):
        u = lay.pack((0,) + t)
        assert lay.unpack(u) == (0,) + t
        assert lay.degree(u) == sum(w * e for w, e in zip(weights, t))
        # only the degree field differs from the unweighted packing
        assert u & lay.exp_mask == plain.pack((0,) + t) & plain.exp_mask
    lcm = tuple(map(max, a, b))
    assert lay.lcm(lay.pack((0,) + a), lay.pack((0,) + b)) == lay.pack((0,) + lcm)


def test_weighted_lcm_of_a_light_variable_does_not_carry():
    # x^16383 times a weight-9 field would carry from one field to the next
    lay = _Layout(2, 1, (1, 9))
    top = MAX_DEGREE // 9
    lcm = lay.lcm(lay.pack((0, MAX_DEGREE, 0)), lay.pack((0, 0, top)))
    assert lay.unpack(lcm) == (0, MAX_DEGREE, top)
    assert lay.degree(lcm) == MAX_DEGREE + 9 * top
    assert (lcm >> lay.elim_shift) & 0xFFFF == TOP - 9 * top  # the block's weighted degree


def reference_pack(t, block, weights):
    """The packed term t = (component, e1..em), written field by field."""
    e = t[1:]
    fields = [t[0]]
    if block:
        fields.append(TOP - sum(map(mul, weights[-block:], e[-block:])))
    fields.append(TOP - sum(map(mul, weights, e)))
    x = 0
    for f in fields + list(reversed(e)):
        x = (x << 16) | f
    return x


def test_each_layout_keeps_its_own_monomial_memo():
    # one exponent tuple packs differently under each layout: a memo shared
    # between layouts, or keyed without the block or the weights, would hand
    # a term packed by one layout to another
    ctx = PolyContext(101, ["x", "y", "u"])
    exps = [(0, 0, 0), (1, 0, 0), (0, 2, 1), (3, 1, 4), (0, 0, 2)]
    v = VectorPolynomial((Polynomial(ctx, {e: 7 for e in exps}), Polynomial(ctx, {exps[3]: 1, exps[4]: 2})))
    for order in (1, -1):
        kinds = [(0, (1, 1, 1)), (1, (1, 1, 1)), (0, (2, 1, 3)), (1, (2, 1, 3))][::order]
        # the unweighted layouts are the ones every run shares
        layouts = [_layout(3, block) if w == (1, 1, 1) else _Layout(3, block, w) for block, w in kinds]
        packed = {}
        for lay, (block, w) in zip(layouts, kinds):
            for e in exps:
                for c in (0, 2):
                    u = lay.pack((c,) + e)
                    assert u == reference_pack((c,) + e, block, w)
                    assert lay.unpack(u) == (c,) + e
                packed[block, w, e] = lay.packed[e]
            assert _dict_to_vec(ctx, 2, _vec_to_dict(v, lay).items(), lay) == v
        # x has weight 2 and lies outside the block: four layouts, four ints
        assert len({packed[b, w, (1, 0, 0)] for b, w in kinds}) == 4


def test_weighted_run_spans_the_same_ideal():
    # x of degree 3 makes x - y^3 homogeneous and x its lead term, where
    # the plain order leads with y^3
    gens = [vec(X - Y ** 3), vec(Y ** 5)]
    weighted = buchberger(gens, weights=(3, 1))
    plain = buchberger(gens)
    assert (0, 1, 0) in weighted.lead_terms and (0, 1, 0) not in plain.lead_terms
    assert all(plain.contains(g) for g in weighted.generators)
    assert all(weighted.contains(g) for g in plain.generators)
    assert weighted.colength() == plain.colength() == 5


@pytest.mark.parametrize("weights", [(1,), (1, 0), (1, -2)])
def test_weights_must_be_positive_one_per_variable(weights):
    with pytest.raises(ContractError):
        buchberger([vec(X)], weights=weights)


def test_degree_limit_inside_elimination_runs():
    ctx = PolyContext(101, ["y", "u"])
    y, u = ctx.variable(0), ctx.variable(1)
    zero = ctx.zero()
    # test_degree_limit_inside_normal_forms with u in the eliminated block
    gb = buchberger([vec(u, y ** (MAX_DEGREE - 1)), vec(y, zero)], eliminate=1)
    assert gb.contains(vec(zero, y ** MAX_DEGREE))
    with pytest.raises(BudgetExceededError) as err:
        buchberger([vec(u, y ** MAX_DEGREE), vec(y, zero)], eliminate=1)
    assert err.value.kind == "degree"
    gb = buchberger([vec(u, y ** MAX_DEGREE)], eliminate=1)
    with pytest.raises(BudgetExceededError) as err:
        gb.contains(vec(u * u, zero))
    assert err.value.kind == "degree"


def brute_force_counts(gens, nvars, top):
    """Standard monomials of each degree 0..top, by enumeration."""
    return [sum(1 for m in oracles.monomials_of_degree(nvars, d)
                if not any(all(a <= b for a, b in zip(g, m)) for g in gens))
            for d in range(top + 1)]


def series_coefficients(num, nvars, top):
    """Coefficients of N(s) / (1 - s)^nvars in degrees 0..top."""
    return [sum(c * comb(d - k + nvars - 1, nvars - 1) for k, c in num.items() if k <= d)
            for d in range(top + 1)]


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.tuples(*[st.integers(0, 4)] * m), max_size=6))))
@settings(max_examples=200, deadline=None)
def test_hilbert_numerator_against_enumeration(case):
    nvars, gens = case
    num = hilbert_numerator(gens)
    assert series_coefficients(num, nvars, 12) == brute_force_counts(gens, nvars, 12)
    d, n = dimension_and_length(num, nvars)
    assert d == oracles.monomial_ideal_dimension(gens, nvars)
    assert n == oracles.standard_monomial_count(gens, nvars)
    if n is not INFINITE:
        assert sum(series_coefficients(num, nvars, sum(max(g[i] for g in gens) for i in range(nvars)))) == n
    assert hilbert_numerator(gens, (1,) * nvars) == num
    # bigraded: the first mx variables mark s, the others z = s^Z
    for mx in range(1, nvars):
        mz = nvars - mx
        Z = 1 + sum(max((g[i] for g in gens), default=0) for i in range(mx))
        bi = {divmod(key, Z)[::-1]: c for key, c in hilbert_numerator(gens, (1,) * mx + (Z,) * mz).items()}
        got = {(a, b): sum(c * comb(a - i + mx - 1, mx - 1) * comb(b - j + mz - 1, mz - 1)
                           for (i, j), c in bi.items() if i <= a and j <= b)
               for a in range(7) for b in range(7)}
        assert got == oracles.bigraded_standard_counts(gens, mx, mz, 6)


def test_hilbert_numerator_edge_ideals():
    assert hilbert_numerator([(0, 0)]) == {}      # unit ideal: S/J = 0
    assert hilbert_numerator([]) == {0: 1}        # zero ideal: S itself
    assert hilbert_numerator([(0, 0, 0)], (1, 4, 4)) == {}
    assert hilbert_numerator([], (1, 4, 4)) == {0: 1}
    # (x, z^2) with x of degree 1 and z of degree 3: (1 - s)(1 - s^6)
    assert hilbert_numerator([(1, 0), (0, 2)], (1, 3)) == {0: 1, 1: -1, 6: -1, 7: 1}
    assert hilbert_numerator([(2, 0), (0, 3)]) == {0: 1, 2: -1, 3: -1, 5: 1}
    assert dimension_and_length({0: 1}, 2) == (2, INFINITE)               # zero ideal
    assert dimension_and_length({0: 1, 2: -1}, 2) == (1, INFINITE)        # (x^2), not Artinian
    assert dimension_and_length({0: 1, 2: -1, 3: -1, 5: 1}, 2) == (0, 6)  # (x^2, y^3)
    # H_p = 0: the shifted numerators cancel, leaving zero coefficients
    assert dimension_and_length({}, 2) == (-1, 0)
    assert dimension_and_length({-1: 0, 0: 0, 4: 0}, 2) == (-1, 0)
    # negative label shifts: (1 - s)^2 s^-2 is S/(x, y) in degree -2
    assert dimension_and_length({-2: 1, -1: -2, 0: 1}, 2) == (0, 1)
    assert dimension_and_length({-3: 1, -2: -1}, 2) == (1, INFINITE)


def test_contains_products_matches_contains_of_the_product():
    zero = CTX.zero()
    gb = buchberger([vec(X * X, Y), vec(zero, X * Y), vec(Y ** 3, zero)])
    gens = [X, Y, X + Y, X * Y, zero, Y * Y - X * X, X ** 3]
    for v in (vec(X, Y * Y), vec(Y, zero), vec(X * Y, X), vec(zero, zero)):
        w = gb.normal_form(v)
        want = [gb.contains(v.scale(g)) for g in gens]
        assert gb.contains_products(gens, w) == want
        assert gb.contains_products(gens, v) == want
    assert not all(gb.contains_products(gens, gb.normal_form(vec(X, Y * Y))))
    # x^2 * 1 lies in (x^2, y^2), so x^3 * 1 must too, with no reduction of its own
    square = buchberger([vec(X * X), vec(Y * Y)])
    assert square.contains_products([X ** 3, X * X * Y + X, X * Y, zero], vec(CTX.one())) == [
        True, False, False, True]
    # the product keeps to the engine's degree limit
    w = buchberger([vec(X * X, zero)]).normal_form(vec(Y ** MAX_DEGREE, zero))
    with pytest.raises(BudgetExceededError) as err:
        buchberger([vec(X * X, zero)]).contains_products([Y], w)
    assert err.value.kind == "degree"
    with pytest.raises(ContractError):
        gb.contains_products([PolyContext(7, ["x", "y"]).variable(0)], w)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_chained_products_match_contains_of_each_product(data):
    # contains_products builds NF(x^e * w) from NF(x^(e - e_i) * w); the
    # reference reduces each g*w from scratch.  The multipliers share
    # monomials (g_0 + g_1 and the repeats), and one is zero.
    draw = data.draw
    p = draw(st.sampled_from([2, 3, 101]), label="p")
    nvars = draw(st.sampled_from([2, 3]), label="nvars")
    ctx = PolyContext(p, ["x", "y", "z"][:nvars])
    rank = draw(st.integers(1, 3), label="rank")
    shifts = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank), label="shifts")
    gb = buchberger(_drawn_module(draw, ctx, shifts, draw(st.integers(1, rank + 1)))[2])
    monomials = [e for d in range(4) for e in oracles.monomials_of_degree(nvars, d)]
    term = st.tuples(st.sampled_from(monomials), st.integers(0, p - 1))
    gs = [Polynomial.from_terms(ctx, draw(st.lists(term, min_size=1, max_size=4), label="g"))
          for _ in range(draw(st.integers(1, 4)))]
    gs += [gs[0] + gs[-1], gs[0], ctx.zero()]
    low = [e for e in monomials if sum(e) <= 2]
    entry = st.lists(st.tuples(st.sampled_from(low), st.integers(0, p - 1)), max_size=3)
    vs = [VectorPolynomial(tuple(Polynomial.from_terms(ctx, draw(entry, label="w")) for _ in range(rank)))
          for _ in range(2)]
    # a monomial w: some x^e * w lies in the module sooner, so chains meet zero parents
    c, e = draw(st.integers(0, rank - 1), label="component"), draw(st.sampled_from(low), label="monomial")
    vs.append(VectorPolynomial(tuple(Polynomial.from_terms(ctx, [(e, 1)] if k == c else []) for k in range(rank))))
    for v in vs:
        assert gb.contains_products(gs, v) == [gb.contains(v.scale(g)) for g in gs]
