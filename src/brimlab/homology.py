"""Homology of free complexes over A = F_p[x1..xm]/I, with exact lengths.

The complexes are graded: each basis label of K_p has a degree
(FreeComplex.degrees) and every differential keeps degrees.  So is every
H_p, and its Hilbert series is

    HS(H_p) = HS(coker d_(p+1)) + HS(coker d_p) - HS(K_(p-1)),

with coker d_0 = K_(-1) = 0 and, at the top degree L, coker d_(L+1) =
K_L / I K_L.  Everything is computed by lifting the sparse columns of
each d_p (FreeComplex.lifted_columns) to the free polynomial ring.  One
Groebner run per differential, over those columns, tagged, and I times
each basis vector of K_(p-1), untagged (groebner.syzygy_basis), gives
ker d_p (the syzygies its S-pair trace leaves, by Schreyer's theorem,
one normal form modulo I each) and a Groebner basis of im d_p +
I K_(p-1), whose GroebnerBasis.numerator, each basis vector in its
label's degree, is the numerator of HS(coker d_p); HS(K_(p-1)) has the
ring's numerator N_A shifted to each label's degree.  The numerators
sum to Q(s) with HS(H_p) = Q(s) / (1 - s)^m, and
groebner.hilbert_function, which reads every length and dimension in
brimlab, reads off Q the Hilbert function of H_p, Q / (1 - s)^m, and
its length: INFINITE exactly when (1 - s)^m does not divide Q.

Each presentation keeps the basis of im d_(p+1) + I K_p and its cycles
as the engine's packed vectors (kernel_gens converts them when read), so
the annihilation check makes no Groebner run: it tests packed products
against that basis, in degrees where H_p is nonzero.  Lengths may be
INFINITE; the Euler characteristic refuses to sum those and raises a
structured error naming the offending degree instead.
"""

from __future__ import annotations

from collections import Counter

from .poly import INFINITE, AlgebraError, ContractError, Polynomial, Record, VectorPolynomial
from .groebner import (hilbert_function, ideal_module_basis, in_components, pack_polynomial,
                       syzygy_basis, term_degrees, unpack_vector)
from .koszul import fitting_ideal
from .rings import RingElement, quotient_basis


class InfiniteLengthError(AlgebraError):
    """Some homology module has infinite length; .p says which degree."""

    def __init__(self, p):
        super().__init__("homology in degree %d has infinite length" % p)
        self.p = p


def kernel_generators(ring, matrix_over_a, budget=None):
    """Generators of ker(A^a -> A^b) for a b x a matrix of RingElements.

    The syzygies of the lifted columns modulo I times each target basis
    vector (which goes in untagged), reduced mod I, generate the kernel
    over A.
    """
    rows = len(matrix_over_a)
    cols = len(matrix_over_a[0]) if rows else 0
    if not (rows and cols):
        raise ContractError("kernel of a %d x %d matrix: need at least one row and column" % (rows, cols))
    for i, row in enumerate(matrix_over_a):
        if len(row) != cols:
            raise ContractError("matrix row %d has %d entries, row 1 has %d" % (i + 1, len(row), cols))
    lifted = [VectorPolynomial(tuple(matrix_over_a[i][j].rep for i in range(rows))) for j in range(cols)]
    return [tuple(RingElement(ring, c) for c in unpack_vector(ring.ctx, cols, w).components)
            for w in _kernel(ring, lifted, rows, budget)[0]]


def _kernel(ring, lifted, rows, budget):
    """(cycles, basis of the image plus I * F_p[x]^rows) of the map whose
    lifted columns are given: one Groebner run, I * F_p[x]^rows untagged,
    and one normal form modulo I * F_p[x]^cols per syzygy.  The cycles are
    distinct nonzero packed vectors {term: coefficient} of the basis."""
    syz, basis = syzygy_basis(lifted, budget, modulo=ring.lifted_ideal_columns(rows))
    if ring.ideal_basis is not None:
        syz = map(ideal_module_basis(ring.ctx, ring.ideal_basis, len(lifted)).reduce_terms, syz)
    return list({frozenset(w.items()): w for w in syz if w}.values()), basis  # in syzygy order


class HomologyPresentation(Record):
    """H_p = ker d_p / im d_(p+1) of the complex cx, with its length.

    cycles: packed vectors {term: coefficient}, reduced mod I, spanning
    ker d_p (for p = 0 the basis vectors of K_0); kernel_gens: the same as
    tuples of RingElement, built on each read; length: int or INFINITE;
    basis: GroebnerBasis of im d_(p+1) + I K_p in F_p[x]^rank_p, so the class
    of a cycle u vanishes exactly when u lies in it; hilbert_function: {d:
    dim (H_p)_d} where that is nonzero, or None when the length is
    INFINITE.  Equality and hash go by p, kernel_gens and length."""

    __slots__ = ("p", "cycles", "length", "cx", "basis", "hilbert_function")
    _defaults = {"basis": None, "hilbert_function": None}
    _unshown = ("cx", "basis", "hilbert_function")

    @property
    def kernel_gens(self):
        ring, rank = self.cx.ring, self.cx.rank(self.p)
        return tuple(tuple(RingElement(ring, c) for c in unpack_vector(ring.ctx, rank, w).components)
                     for w in self.cycles)

    def _key(self):
        return self.p, self.kernel_gens, self.length

    def __eq__(self, other):
        return isinstance(other, HomologyPresentation) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def homology(cx, p, budget=None):
    """HomologyPresentation of the complex at degree 0 <= p <= length;
    runs d_p and d_(p+1) only."""
    if not 0 <= p <= cx.length:
        raise ContractError("homology degree %d outside 0..%d" % (p, cx.length))
    return _presentations(cx, (p,), budget)[p]


def all_homology(cx, budget=None):
    """HomologyPresentations for every degree of the complex, running
    each differential once."""
    return _presentations(cx, range(cx.length + 1), budget)


def _presentations(cx, degrees, budget):
    """HomologyPresentations for the given degrees, each differential
    they need run once."""
    ring = cx.ring
    runs = {}  # q -> (ker d_q, basis of im d_q + I K_(q-1))

    def run(q):
        if q not in runs:
            if q > cx.length:  # coker d_(L+1) = K_L / I K_L
                runs[q] = None, quotient_basis(ring, [], cx.rank(q - 1))
            else:
                runs[q] = _kernel(ring, cx.lifted_columns(q), cx.rank(q - 1), budget)
        return runs[q]

    out = {}
    for p in degrees:
        boundaries = run(p + 1)[1]
        num = Counter(boundaries.numerator(cx.degrees[p]))  # degree -> coefficient of Q
        if p == 0:
            one = pack_polynomial(ring.ctx.one())
            kernel = [in_components(ring.ctx, [(one, j)]) for j in range(cx.rank(0))]
        else:
            kernel, cycles_out = run(p)
            num.update(cycles_out.numerator(cx.degrees[p - 1]))
            for d in cx.degrees[p - 1]:  # HS(K_(p-1)): N_A(s) s^d per label
                num.subtract({k + d: c for k, c in ring.numerator.items()})
        hf = hilbert_function(num, ring.ctx.nvars)[1]
        length = INFINITE if hf is None else sum(hf.values())
        out[p] = HomologyPresentation(p, tuple(kernel), length, cx, boundaries, hf)
    return out


class EulerTable(Record):
    """Lengths of all homology modules of K(a; t) and the partial alternating sums

        chi_q = sum_(p >= q) (-1)^(p-q) length H_p.
    """

    __slots__ = {"t": None, "lengths": "lengths[p] for p = 0..top", "chis": "chis[q] for q = 0..top"}


def euler_characteristics(cx, budget=None, presentations=None):
    """EulerTable of the complex; InfiniteLengthError if any H_p is infinite."""
    if presentations is None:
        presentations = all_homology(cx, budget)
    lengths = []
    for p in range(cx.length + 1):
        ln = presentations[p].length
        if ln is INFINITE:
            raise InfiniteLengthError(p)
        lengths.append(ln)
    top = cx.length
    chis = [0] * (top + 1)
    acc = 0
    for p in range(top, -1, -1):
        acc = lengths[p] - acc
        chis[p] = acc
    return EulerTable(cx.t, tuple(lengths), tuple(chis))


def annihilation_check(cx, minors=None, presentations=None, budget=None):
    """Verify that every maximal minor kills every homology class.

    For each degree p, each cycle u_i and each minor g, g*u_i must lie in
    im d_(p+1) + I K_p, the module the presentation's basis spans.
    GroebnerBasis.contains_products_of_terms tests the packed cycles as
    they are, one normal form per product.  Where H_p
    has finite length and u_i one degree delta, x^e*u_i is a cycle of
    degree delta + |e|, a boundary where H_p is 0: for any g, only the
    terms c*x^e of g with (H_p)_(delta + |e|) nonzero are tested.
    Returns the list of violations as (p, minor_index, kernel_index)
    triples; empty means the containment holds everywhere.
    """
    if minors is None:
        minors = fitting_ideal(cx.matrix)
    if presentations is None:
        presentations = all_homology(cx, budget)
    ctx, reps = cx.ring.ctx, [g.rep for g in minors]
    bad = []
    for p in range(cx.length + 1):
        pres, cut = presentations[p], {None: reps}  # cut[delta]: the minors cut for cycles of degree delta
        live = pres.hilbert_function
        passes = []  # passes[ki][mi]: minor mi kills the class of u_ki
        for w in pres.cycles:
            degrees = term_degrees(ctx, w, cx.degrees[p])
            delta = degrees.pop() if live is not None and len(degrees) == 1 else None
            if delta not in cut:
                cut[delta] = [Polynomial(ctx, {e: c for e, c in g.terms.items() if delta + sum(e) in live})
                              for g in reps]
            passes.append(pres.basis.contains_products_of_terms(cut[delta], w))
        bad += [(p, mi, ki) for mi in range(len(minors)) for ki in range(len(passes))
                if not passes[ki][mi]]
    return bad
