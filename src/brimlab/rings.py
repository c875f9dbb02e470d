"""Graded quotient rings A = F_p[x1..xm]/I and finite-colength bookkeeping.

I is generated by homogeneous polynomials of positive degree, so A is
graded.  The colengths computed here are global; they agree with the
local ones at the irrelevant maximal ideal when the data are graded: a
submodule of A^r generated by vectors that are homogeneous for some
shifts of the rows, as the columns of a ModuleMatrix (a graded map) are.
Homogeneous entries alone do not suffice.  Ring elements are stored as
normal forms against the reduced Groebner basis of I, which makes
equality a dict comparison.
"""

from __future__ import annotations

from .poly import (
    INFINITE,
    ContractError,
    PolyContext,
    Polynomial,
    Record,
    VectorPolynomial,
)
from .groebner import buchberger, dimension_and_length, ideal_module_basis


class GradedRing:
    """F_p[x1..xm]/I with I homogeneous; carries the reduced basis of I and
    the numerator N_A of its Hilbert series N_A(s) / (1 - s)^m."""

    __slots__ = ("ctx", "ideal_gens", "ideal_basis", "numerator", "dimension")

    def __init__(self, ctx, ideal_gens, ideal_basis, numerator, dimension):
        self.ctx = ctx
        self.ideal_gens = ideal_gens
        self.ideal_basis = ideal_basis  # GroebnerBasis of rank 1, or None for I = 0
        self.numerator = numerator      # {degree: coefficient}
        self.dimension = dimension

    def reduce(self, poly):
        """Normal form of a raw polynomial against the ideal basis."""
        if self.ideal_basis is None:
            return poly
        return self.ideal_basis.normal_form(VectorPolynomial((poly,))).components[0]

    def element(self, poly):
        return RingElement(self, self.reduce(poly))

    def zero(self):
        return RingElement(self, self.ctx.zero())

    def one(self):
        return RingElement(self, self.reduce(self.ctx.one()))

    def constant(self, c):
        return self.element(self.ctx.constant(c))

    def variable(self, i):
        return self.element(self.ctx.variable(i))

    def lifted_ideal_columns(self, rank):
        """The vectors g*e_j for ideal generators g, used to work over A
        by lifting module questions to the free polynomial ring."""
        zero = self.ctx.zero()
        return [VectorPolynomial(tuple(g if k == j else zero for k in range(rank)))
                for g in self.ideal_gens for j in range(rank)]

    def __eq__(self, other):
        return (
            isinstance(other, GradedRing)
            and self.ctx == other.ctx
            and self.ideal_gens == other.ideal_gens
        )

    def __hash__(self):
        return hash((self.ctx, self.ideal_gens))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal_gens)
        return "GradedRing(p=%d, vars=%s, ideal=[%s])" % (self.ctx.p, list(self.ctx.names), gens)


class RingElement:
    """Element of a GradedRing, stored as the normal form of a representative."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring, rep):
        # rep must already be reduced; use ring.element for raw polynomials
        self.ring = ring
        self.rep = rep

    def is_zero(self):
        return self.rep.is_zero()

    def degree(self):
        return self.rep.degree()

    def is_homogeneous(self):
        return self.rep.is_homogeneous()

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __add__(self, other):
        self._check_ring(other)
        # normal forms are spanned by standard monomials, so sums stay reduced
        return RingElement(self.ring, self.rep + other.rep)

    def __neg__(self):
        return RingElement(self.ring, -self.rep)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.ring, self.rep.scale(other))
        self._check_ring(other)
        return RingElement(self.ring, self.ring.reduce(self.rep * other.rep))

    __rmul__ = __mul__

    def _check_ring(self, other):
        if not (isinstance(other, RingElement) and other.ring == self.ring):
            raise ContractError("%r and %r are not elements of one ring" % (self, other))

    def scale(self, c):
        return RingElement(self.ring, self.rep.scale(c))

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return "RingElement(%s)" % self.rep


def make_ring(p, variables, ideal_gens=(), budget=None):
    """Build F_p[variables]/(ideal_gens) and check it has positive dimension.

    ideal_gens: Polynomials over PolyContext(p, variables), each nonzero,
    homogeneous and of positive degree.  Rejects a p that is not a prime
    below 2^64, duplicate or malformed names, inhomogeneous generators
    and dimension zero.
    """
    ctx = PolyContext(p, variables)
    gens = []
    for i, g in enumerate(ideal_gens):
        if not isinstance(g, Polynomial) or g.ctx != ctx:
            raise ContractError("ideal generator %d is not over F_%d[%s]" % (i, p, ", ".join(ctx.names)))
        if g.is_zero():
            continue
        if not g.is_homogeneous():
            raise ContractError("ideal generator %d (%s) is not homogeneous" % (i, g))
        if g.degree() == 0:
            raise ContractError("ideal generator %d is a unit" % i)
        gens.append(g)
    gens = tuple(gens)
    basis = buchberger([VectorPolynomial((g,)) for g in gens], budget) if gens else None
    num = basis.numerator() if gens else {0: 1}
    d = dimension_and_length(num, ctx.nvars)[0]
    if d <= 0:
        raise ContractError("quotient ring has dimension %d; positive dimension required" % d)
    return GradedRing(ctx, gens, basis, num, d)


class SubmoduleOfFree:
    """Submodule N of A^rank given by a finite list of generating vectors.

    Generators are tuples of RingElement, homogeneous under the row
    shifts kept as shifts (see grading); degree zero entries are allowed
    here, parameter-module checks reject them separately.
    """

    __slots__ = ("ring", "rank", "generators", "shifts")

    def __init__(self, ring, rank, generators):
        if rank < 1:
            raise ContractError("rank must be at least 1, got %d" % rank)
        gens = []
        for gi, vec in enumerate(generators):
            vec = tuple(vec)
            if len(vec) != rank:
                raise ContractError("generator %d has %d entries, expected %d" % (gi, len(vec), rank))
            for ei, ent in enumerate(vec):
                if not (isinstance(ent, RingElement) and ent.ring == ring):
                    raise ContractError("generator %d entry %d is not an element of %r" % (gi, ei, ring))
                if not ent.is_homogeneous():
                    raise ContractError("generator %d entry %d (%s) is not homogeneous" % (gi, ei, ent))
            gens.append(vec)
        self.ring = ring
        self.rank = rank
        self.generators = tuple(gens)
        self.shifts = grading(rank, gens)[0]

    def lifted_generators(self):
        return [VectorPolynomial(tuple(e.rep for e in vec)) for vec in self.generators]


def grading(rank, columns):
    """Row shifts e_i and column degrees d_j with deg a_ij = d_j - e_i for
    every nonzero entry a_ij = columns[j][i], as two tuples, or
    ContractError when there are none: one walk over the bipartite graph
    of nonzero entries, each component's first row at 0 and a column with
    no entry at 0."""
    r, n = rank, len(columns)
    level = {}  # e_i at node i, d_j at node r + j
    for root in range(r):
        if root in level:
            continue
        level[root] = 0
        todo = [root]
        while todo:
            v = todo.pop()
            for i, j in [(v, j) for j in range(n)] if v < r else [(i, v - r) for i in range(r)]:
                ent = columns[j][i]
                if ent.is_zero():
                    continue
                w, want = (r + j, level[i] + ent.degree()) if v < r else (i, level[v] - ent.degree())
                if w not in level:
                    level[w] = want
                    todo.append(w)
                elif level[w] != want:
                    raise ContractError("entry (%d,%d) (%s) breaks the grading: no row shifts and "
                                        "column degrees make the matrix a graded map" % (i + 1, j + 1, ent))
    return tuple(level[i] for i in range(r)), tuple(level.get(r + j, 0) for j in range(n))


def quotient_basis(ring, lifted_vectors, rank, budget=None, shifts=None):
    """GroebnerBasis of the submodule whose quotient is A^rank / (vectors):
    I * F_p[x]^rank and the nonzero lifted vectors, given to buchberger in
    that order with the row shifts.  Without a nonzero vector it is built
    from the ring's own basis with no Groebner run (for I = 0, empty)."""
    cols = [v for v in lifted_vectors if not v.is_zero()]
    if not cols:
        return ideal_module_basis(ring.ctx, ring.ideal_basis, rank)
    return buchberger(ring.lifted_ideal_columns(rank) + cols, budget, shifts=shifts)


def ideal_colength(ring, gens, budget=None):
    """Length of A/(gens), INFINITE when the ideal is not primary to the
    irrelevant maximal ideal."""
    lifted = [VectorPolynomial((g.rep,)) for g in gens]
    return quotient_basis(ring, lifted, 1, budget).colength()


def _colength_run(ring, sub, budget):
    """The Groebner run of N + I A^rank, and mu(N) read off it."""
    basis = quotient_basis(ring, sub.lifted_generators(), sub.rank, budget, sub.shifts)
    return basis, sum(k >= len(ring.ideal_gens) * sub.rank for k in basis.fresh)


def submodule_colength(ring, sub, budget=None):
    """Length of A^rank / N for a SubmoduleOfFree N, or INFINITE."""
    return _colength_run(ring, sub, budget)[0].colength()


def min_generators(ring, sub, budget=None):
    """Minimal number of generators of N, dim N / (x1..xm)N by graded
    Nakayama: the generators of N that are fresh in the run of
    N + I A^rank, which takes its inputs by degree, the columns of
    I A^rank of a degree before the generators of N (see buchberger)."""
    return _colength_run(ring, sub, budget)[1]


class ParameterVerdict(Record):
    """Outcome of the parameter-module test for N inside A^rank."""

    __slots__ = {"finite_colength": None, "inside_max_ideal": None,
                 "generators_match": "minimal generators == dim A + rank - 1",
                 "colength": "int or INFINITE", "mu": "int, or None when the colength is infinite"}

    @property
    def ok(self):
        return self.finite_colength and self.inside_max_ideal and self.generators_match


def is_parameter_module(ring, sub, budget=None):
    """Check the three defining conditions for a parameter module:
    finite colength, containment in (x1..xm)A^rank, and exactly
    dim A + rank - 1 minimal generators.  One Groebner run of
    N + I A^rank gives both the colength and, when it is finite, the
    generator count (see min_generators)."""
    inside = all(ent.is_zero() or ent.degree() >= 1 for vec in sub.generators for ent in vec)
    basis, mu = _colength_run(ring, sub, budget)
    ln = basis.colength()
    if ln is INFINITE:
        return ParameterVerdict(False, inside, False, INFINITE, None)
    target = ring.dimension + sub.rank - 1
    return ParameterVerdict(True, inside, mu == target, ln, mu)
