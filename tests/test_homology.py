"""Homology presentations, Euler characteristics, annihilation."""

import dataclasses
import importlib
import itertools
import pathlib
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brimlab.corpus import by_name
from brimlab.dsl import build, parse
from brimlab.homology import (
    InfiniteLengthError,
    all_homology,
    annihilation_check,
    euler_characteristics,
    homology,
    kernel_generators,
)
from brimlab.groebner import buchberger, in_components, pack_polynomial, syzygy_basis, unpack_vector
from brimlab.koszul import ModuleMatrix, build_koszul, fitting_ideal, sym_basis
from brimlab.poly import INFINITE, ContractError, PolyContext, VectorPolynomial
from brimlab.rings import RingElement, make_ring, quotient_basis

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import oracles


def corpus_complex(name, t):
    ring, mat = build(by_name(name).spec())
    return ring, build_koszul(mat, t)


def test_kernel_of_injective_map_is_empty():
    ring = make_ring(101, ["x"])
    x = ring.element(ring.ctx.variable(0))
    assert kernel_generators(ring, [[x]]) == []


def test_kernel_of_empty_matrix_is_contract_error():
    ring = make_ring(101, ["x"])
    for matrix in ([], [[]]):
        with pytest.raises(ContractError):
            kernel_generators(ring, matrix)


@pytest.mark.parametrize("widths", [(1, 2), (2, 1), (2, 2, 1)])
def test_kernel_of_ragged_matrix_is_contract_error(widths):
    ring = make_ring(101, ["x"])
    x = ring.element(ring.ctx.variable(0))
    with pytest.raises(ContractError, match="matrix row %d has" % len(widths)):
        kernel_generators(ring, [[x] * w for w in widths])


def test_kernel_over_quotient_ring():
    # over A = F[x,y]/(x^2, xy) the kernel of y is the principal module (x)
    ring, _ = corpus_complex("E2", 1)
    y = ring.variable(1)
    gens = kernel_generators(ring, [[y]])
    assert [[str(c) for c in v] for v in gens] == [["x"]]
    for v in gens:
        assert (y * v[0]).is_zero()


def test_h0_is_plain_cokernel():
    ring, cx = corpus_complex("E2", 1)
    pres = homology(cx, 0)
    assert pres.length == 2
    assert len(pres.kernel_gens) == cx.rank(0)


def test_corpus_h1_lengths():
    _, cx = corpus_complex("E2", 1)
    assert homology(cx, 1).length == 1
    _, cx4 = corpus_complex("E4", 1)
    assert homology(cx4, 1).length == 2


def test_euler_table_recurrence():
    _, cx = corpus_complex("E4", 0)
    table = euler_characteristics(cx)
    assert table.lengths == (3, 1)
    top = len(table.lengths) - 1
    for q in range(top + 1):
        want = sum((-1) ** (p - q) * table.lengths[p] for p in range(q, top + 1))
        assert table.chis[q] == want
    assert table.chi == 2


def test_euler_infinite_raises():
    ring = make_ring(101, ["x", "y"])
    x = ring.element(ring.ctx.variable(0))
    mat = ModuleMatrix(ring, [[x]])
    cx = build_koszul(mat, 1)
    with pytest.raises(InfiniteLengthError) as exc:
        euler_characteristics(cx)
    assert exc.value.p == 0


def test_annihilation_clean_on_corpus():
    for name in ("E1", "E2", "E4", "E5"):
        _, cx = corpus_complex(name, 1)
        assert annihilation_check(cx) == []


def test_annihilation_flags_fake_minor():
    # 1 never annihilates the nonzero class in H_1 of the E2 complex
    ring, cx = corpus_complex("E2", 1)
    bad = annihilation_check(cx, minors=[ring.one()])
    assert (1, 0, 0) in bad


def test_acyclicity_split():
    # positive-degree homology lengths: zero for E1 at t = 1, H_1 of length 1 for E2
    for name, want in (("E1", {1: 0, 2: 0}), ("E2", {1: 1})):
        _, cx = corpus_complex(name, 1)
        pres = all_homology(cx)
        assert {p: pres[p].length for p in range(1, cx.length + 1)} == want


def test_homology_matches_dense_oracle():
    # a non-corpus instance: A = F[x,y]/(x^2), matrix [[y, x]]
    ctx_p, nv = 101, 2
    ring, mat = build(parse(
        "ring { p = 101 vars = [x, y] ideal = [x^2] }\n"
        "module { rank = 1 matrix = [[y, x]] }\n"))
    for t in (-1, 0, 1, 2):
        cx = build_koszul(mat, t)
        pres = all_homology(cx)
        ranks = {q: cx.rank(q) for q in range(cx.length + 1)}
        diffs = {q: [[dict(el.rep.terms) for el in row] for row in cx.differential(q)]
                 for q in range(1, cx.length + 1)}
        want = oracles.complex_homology_lengths(ctx_p, nv, [{(2, 0): 1}], diffs, ranks)
        got = {q: pres[q].length for q in pres}
        assert got == want


def test_all_homology_covers_every_degree():
    _, cx = corpus_complex("E5", 1)
    pres = all_homology(cx)
    assert sorted(pres) == list(range(cx.length + 1))
    assert [pres[q].length for q in sorted(pres)] == [3, 0, 0]


def direct_annihilation(cx, minors):
    """The membership test annihilation_check replaces, kept as a
    reference: g*u in im d_(p+1) + I K_p by its own Groebner basis."""
    ring = cx.ring
    pres = all_homology(cx)
    bad = []
    for p in range(cx.length + 1):
        kernel = pres[p].kernel_gens
        rank_p = cx.rank(p)
        d_in = cx.differential(p + 1) or []
        cols = [VectorPolynomial(tuple(d_in[i][j].rep for i in range(rank_p)))
                for j in range(len(d_in[0]) if d_in else 0)]
        cols = [v for v in cols if not v.is_zero()] + ring.lifted_ideal_columns(rank_p)
        gb = buchberger(cols) if cols else None
        for mi, g in enumerate(minors):
            if g.is_zero():
                continue
            for ki, u in enumerate(kernel):
                scaled = VectorPolynomial(tuple((g * v).rep for v in u))
                if not scaled.is_zero() and (gb is None or not gb.contains(scaled)):
                    bad.append((p, mi, ki))
    return bad


def random_form(ring, rng, degree):
    poly = ring.ctx.zero()
    for s in sym_basis(ring.ctx.nvars, degree):
        c = rng.randrange(ring.p)
        if c:
            poly = poly + ring.ctx.monomial(s.multidegree, c)
    return ring.element(poly)


def test_annihilation_matches_direct_membership():
    rng = random.Random(5)
    cases = []
    for name in ("E1", "E2", "E3", "E4", "E5", "E6"):
        ring, mat = build(by_name(name).spec())
        for t in range(-1, mat.n - mat.r + 2):
            cases.append((ring, mat, t))
    x7 = PolyContext(7, ["x", "y"]).variable(0)
    rings = [make_ring(7, ["x", "y"]), make_ring(5, ["x", "y", "z"]),
             make_ring(7, ["x", "y"], [x7 * x7])]
    for _ in range(12):
        ring = rng.choice(rings)
        r = rng.randint(1, 2)
        n = rng.randint(r, r + 1)
        degrees = [rng.randint(1, 2) for _ in range(n)]  # one per column: a graded map
        mat = ModuleMatrix(ring, [[random_form(ring, rng, d) for d in degrees] for _ in range(r)])
        cases.append((ring, mat, rng.randint(-1, n - r + 1)))
    flagged = 0
    for ring, mat, t in cases:
        cx = build_koszul(mat, t)
        variables = [ring.variable(i) for i in range(ring.ctx.nvars)]
        for minors in (fitting_ideal(mat), variables, [random_form(ring, rng, 1)]):
            want = direct_annihilation(cx, minors)
            assert annihilation_check(cx, minors) == want
            flagged += bool(want)
    assert flagged >= 10  # the comparison covers violations, not only clean runs


def test_annihilation_runs_no_groebner_basis(monkeypatch):
    groebner_mod = importlib.import_module("brimlab.groebner")
    homology_mod = importlib.import_module("brimlab.homology")  # brimlab.homology is the function
    rings_mod = importlib.import_module("brimlab.rings")

    ring, cx = corpus_complex("E2", 1)
    pres = all_homology(cx)
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("no Groebner run expected")

    for mod, name in ((groebner_mod, "buchberger"), (rings_mod, "buchberger"),
                      (groebner_mod, "syzygy_basis"), (homology_mod, "syzygy_basis")):
        monkeypatch.setattr(mod, name, refuse)
    assert annihilation_check(cx, presentations=pres) == []
    assert annihilation_check(cx, minors=[ring.one()], presentations=pres) == [(0, 0, 0), (1, 0, 0)]
    assert calls == []


def test_presentation_keeps_its_basis_out_of_equality():
    ring, cx = corpus_complex("E2", 1)
    for q, pres in all_homology(cx).items():
        # the basis spans im d_(q+1) + I K_q: the columns of d_(q+1) lie in it
        d_in = cx.differential(q + 1)
        cols = (lifted_columns(d_in) if d_in else []) + ring.lifted_ideal_columns(cx.rank(q))
        assert pres.basis.rank == cx.rank(q) and cols
        assert all(pres.basis.contains(v) for v in cols)
    pres = homology(cx, 1)
    assert pres == dataclasses.replace(pres, basis=None)
    assert "basis" not in repr(pres)


def test_presentations_compare_and_hash_by_degree_kernel_and_length():
    # kernel_gens is built from the packed cycles on each read; equality
    # and hash still go by (p, kernel_gens, length), as the dataclass
    # fields they were
    ring, cx = corpus_complex("E4", 1)
    pres = all_homology(cx)
    again = all_homology(build_koszul(cx.matrix, 1))
    one, zero = ring.one(), ring.zero()
    assert pres[0].kernel_gens == tuple(tuple(one if i == j else zero for i in range(cx.rank(0)))
                                        for j in range(cx.rank(0)))
    for p, pr in pres.items():
        gens = pr.kernel_gens
        assert type(gens) is tuple and len(gens) == len(pr.cycles)
        assert all(type(u) is tuple and len(u) == cx.rank(p) for u in gens)
        assert all(isinstance(c, RingElement) and c.ring == ring for u in gens for c in u)
        assert pr == again[p] and hash(pr) == hash(again[p]) == hash((p, gens, pr.length))
        assert pr == dataclasses.replace(pr, basis=None)
        assert pr != dataclasses.replace(pr, length=pr.length + 1)
    assert pres[1].cycles and pres[1] != dataclasses.replace(pres[1], cycles=pres[1].cycles[1:])
    assert len(set(pres.values()) | set(again.values())) == len(pres)


def test_homology_degree_out_of_range_is_contract_error():
    _, cx = corpus_complex("E2", 1)
    for p in (-1, cx.length + 1):
        with pytest.raises(ContractError):
            homology(cx, p)


def lifted_columns(matrix):
    rows = len(matrix)
    return [VectorPolynomial(tuple(matrix[i][j].rep for i in range(rows)))
            for j in range(len(matrix[0]))]


def syzygy_route_lengths(cx):
    """Homology lengths by presenting each H_p, kept as a reference.

    H_0 is coker d_1.  For p >= 1 a second syzygy run over the kernel
    generators u_1..u_k, the columns of d_(p+1) and I * K_p gives the
    relations c of H_p (sum c_j u_j a boundary mod I), and the length is
    the colength of those relations plus I * F_p[x]^k.
    """
    ring = cx.ring
    out = {}
    for p in range(cx.length + 1):
        rank_p = cx.rank(p)
        d_in = cx.differential(p + 1)
        w = lifted_columns(d_in) if d_in else []
        if p == 0:
            out[p] = quotient_basis(ring, w, rank_p).colength()
            continue
        kernel = kernel_generators(ring, cx.differential(p))
        if not kernel:
            out[p] = 0
            continue
        k = len(kernel)
        lifted = [VectorPolynomial(tuple(v.rep for v in vec)) for vec in kernel]
        gens = lifted + w + ring.lifted_ideal_columns(rank_p)
        syz = [unpack_vector(ring.ctx, len(gens), d) for d in syzygy_basis(gens)[0]]
        rels = [VectorPolynomial(s.components[:k]) for s in syz]
        out[p] = quotient_basis(ring, [v for v in rels if not v.is_zero()], k).colength()
    return out


def oracle_lengths(cx):
    ring = cx.ring
    ranks = {q: cx.rank(q) for q in range(cx.length + 1)}
    diffs = {q: [[dict(el.rep.terms) for el in row] for row in cx.differential(q)]
             for q in range(1, cx.length + 1)}
    ideal = [dict(g.terms) for g in ring.ideal_gens]
    return oracles.complex_homology_lengths(ring.p, ring.ctx.nvars, ideal, diffs, ranks)


def assert_routes_agree(cx):
    want = syzygy_route_lengths(cx)
    every = all_homology(cx)
    assert {p: every[p].length for p in every} == want
    assert {p: homology(cx, p).length for p in want} == want
    return want


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5", "E6"])
def test_homology_lengths_match_syzygy_route_on_corpus(name):
    ring, mat = build(by_name(name).spec())
    for t in range(-1, mat.n - mat.r + 2):
        assert_routes_agree(build_koszul(mat, t))


def differential_rings():
    x7 = PolyContext(7, ["x", "y"]).variable(0)
    c3 = PolyContext(7, ["x", "y", "z"])
    x, y, z = (c3.variable(i) for i in range(3))
    return [
        make_ring(7, ["x", "y"]),
        make_ring(5, ["x", "y", "z"]),
        make_ring(7, ["x", "y"], [x7 * x7]),
        make_ring(7, ["x", "y", "z"], [x * y - z * z]),
        make_ring(7, ["x", "y", "z"], [x * x, x * y]),
    ]


def random_graded_matrix(rng, rings):
    """A graded r x n matrix: row shifts e_i in {0, 1}, column degrees
    d_j in {1, 2}, entry (i, j) a random form of degree d_j - e_i (zero
    when that is below 1 and, at random, otherwise), and in about a
    quarter of the draws one zero column."""
    ring = rng.choice(rings)
    r = rng.randint(1, 2)
    n = rng.randint(r + 1, r + 2)
    shifts = [rng.randint(0, 1) for _ in range(r)]
    degrees = [rng.randint(1, 2) for _ in range(n)]
    zero_col = rng.randrange(n) if rng.random() < 0.25 else None
    rows = []
    for i in range(r):
        row = []
        for j in range(n):
            d = degrees[j] - shifts[i]
            if j == zero_col or d < 1 or rng.random() < 0.1:
                row.append(ring.zero())
            else:
                row.append(random_form(ring, rng, d))
        rows.append(row)
    return ModuleMatrix(ring, rows)


def kernel_by_components(ring, matrix_over_a):
    """kernel_generators with each syzygy component reduced mod I on its
    own by ring.element: the route the packed reduction replaced, kept
    as its reference."""
    rows, cols = len(matrix_over_a), len(matrix_over_a[0])
    out, seen = [], set()
    gens = lifted_columns(matrix_over_a) + ring.lifted_ideal_columns(rows)
    for s in (unpack_vector(ring.ctx, len(gens), d) for d in syzygy_basis(gens)[0]):
        vec = tuple(ring.element(c) for c in s.components[:cols])
        key = tuple(frozenset(v.rep.terms.items()) for v in vec)
        if all(v.is_zero() for v in vec) or key in seen:
            continue
        seen.add(key)
        out.append(vec)
    return out


def test_kernel_generators_match_per_component_reduction():
    cxs = []
    for name in ("E1", "E2", "E3", "E4", "E5", "E6"):
        _, mat = build(by_name(name).spec())
        cxs += [build_koszul(mat, t) for t in range(-1, mat.n - mat.r + 2)]
    rng = random.Random(23)
    rings = differential_rings()
    for _ in range(30):
        mat = random_graded_matrix(rng, rings)
        cxs.append(build_koszul(mat, rng.randint(-1, mat.n - mat.r + 1)))
    reduced = 0
    for cx in cxs:
        pres = all_homology(cx)
        for p in range(1, cx.length + 1):
            want = kernel_by_components(cx.ring, cx.differential(p))
            assert kernel_generators(cx.ring, cx.differential(p)) == want
            assert list(pres[p].kernel_gens) == want
            reduced += bool(want) and bool(cx.ring.ideal_gens)
    assert reduced >= 10  # kernels over quotient rings, where mod I matters


def test_homology_lengths_match_syzygy_route_on_random_graded_matrices():
    rng = random.Random(11)
    rings = differential_rings()
    infinite = checked_by_oracle = 0
    for _ in range(100):
        mat = random_graded_matrix(rng, rings)
        cx = build_koszul(mat, rng.randint(-1, mat.n - mat.r + 1))
        want = assert_routes_agree(cx)
        if any(v == float("inf") for v in want.values()):
            infinite += 1
        elif mat.ring.ctx.nvars == 2 and mat.r == 1:
            # the oracle reads INF in every degree once one is infinite
            assert oracle_lengths(cx) == want
            checked_by_oracle += 1
    assert infinite >= 10 and checked_by_oracle >= 4


ANNIHILATION_RINGS = differential_rings()  # P2, P3, F_7[x,y]/(x^2), the cone and ncm


@settings(max_examples=100, deadline=None)
@example(ring_index=1, r=1, shifts=[0, 0], degrees=[1, 1], seed=0)  # over P3: H_0 has infinite length
@given(ring_index=st.integers(0, len(ANNIHILATION_RINGS) - 1), r=st.integers(1, 2),
       shifts=st.lists(st.integers(0, 1), min_size=2, max_size=2),
       degrees=st.lists(st.integers(1, 2), min_size=1, max_size=3), seed=st.integers(0, 2 ** 32))
def test_annihilation_check_skips_only_boundaries(ring_index, r, shifts, degrees, seed):
    # annihilation_check tests only the products x^e * u in degrees where H_p
    # is nonzero; direct membership of the whole g * u must agree, also for
    # minors that are no minors: 1, and the inhomogeneous 1 + x
    assume(len(degrees) >= r)
    ring = ANNIHILATION_RINGS[ring_index]
    rng = random.Random(seed)
    # entry (i, j) of degree d_j - e_i: mixed column degrees, a graded map
    mat = ModuleMatrix(ring, [[random_form(ring, rng, d - e) if d > e else ring.zero() for d in degrees]
                              for e in shifts[:r]])
    variables = [ring.variable(i) for i in range(ring.ctx.nvars)]
    infinite = False
    for t in range(-1, mat.n - mat.r + 2):
        cx = build_koszul(mat, t)
        pres = all_homology(cx)
        fitting = fitting_ideal(mat)
        minors = list(fitting) + variables
        minors += [random_form(ring, rng, 1), ring.one(), ring.one() + variables[0]]
        want = direct_annihilation(cx, minors)
        assert annihilation_check(cx, minors, pres) == want
        assert annihilation_check(cx, None, pres) == [b for b in want if b[1] < len(fitting)]
        # each degree p on its own below: the other degrees without cycles
        bare = {q: dataclasses.replace(pr, cycles=()) for q, pr in pres.items()}
        for p, pr in pres.items():
            hf = pr.hilbert_function
            assert pr.length == (INFINITE if hf is None else sum(hf.values()))
            assert hf is None or min(hf.values(), default=1) > 0
            infinite |= hf is None
            # a cycle of two degrees, u + v*u, is tested whole, as every cycle was before
            for u, v in itertools.product(pr.kernel_gens, variables):
                parts = [(pack_polynomial((a + v * a).rep), j) for j, a in enumerate(u)]
                w = in_components(ring.ctx, [(d, j) for d, j in parts if d])
                kept = pr.basis.contains_products_of_terms([g.rep for g in minors], w)
                got = annihilation_check(cx, minors, {**bare, p: dataclasses.replace(pr, cycles=(w,))})
                assert got == [(p, mi, 0) for mi, ok in enumerate(kept) if not ok]
    if (ring_index, r, degrees, seed) == (1, 1, [1, 1], 0):
        assert infinite
