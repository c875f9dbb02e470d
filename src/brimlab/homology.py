"""Homology of free complexes over A = F_p[x1..xm]/I, with exact lengths.

The complexes are graded: each basis label of K_p has a degree
(FreeComplex.degrees) and every differential keeps degrees.  So is every
H_p, and its Hilbert series is

    HS(H_p) = HS(coker d_(p+1)) + HS(coker d_p) - HS(K_(p-1)),

with coker d_0 = K_(-1) = 0 and, at the top degree L, coker d_(L+1) =
K_L / I K_L.  Everything is computed by lifting the sparse columns of
each d_p (FreeComplex.lifted_columns) to the free polynomial ring.  One
tagged Groebner run per differential, over those columns plus I times
each basis vector of K_(p-1) (groebner.syzygy_basis), gives both ker d_p
(the syzygies, projected to the columns, one normal form modulo I each)
and a Groebner basis of im d_p + I K_(p-1), whose lead terms give the
numerator of HS(coker d_p), each component shifted by its label's
degree (groebner.hilbert_numerator).  The numerators sum to Q(s) with
HS(H_p) = Q(s) / (1 - s)^m, and groebner.dimension_and_length, which
reads every length and dimension in brimlab, reads the length off Q:
INFINITE exactly when (1 - s)^m does not divide Q, and otherwise that
quotient at s = 1.

Each presentation keeps the basis of im d_(p+1) + I K_p, so the
annihilation check is a set of packed membership tests against it and
makes no Groebner run of its own.  Lengths may be INFINITE; the Euler
characteristic refuses to sum those and raises a structured error naming
the offending degree instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import INFINITE, AlgebraError, ContractError, VectorPolynomial
from .groebner import dimension_and_length, hilbert_numerator, ideal_module_basis, syzygy_basis
from .rings import RingElement, quotient_basis


class InfiniteLengthError(AlgebraError):
    """Some homology module has infinite length; .p says which degree."""

    def __init__(self, p):
        super().__init__("homology in degree %d has infinite length" % p)
        self.p = p


def kernel_generators(ring, matrix_over_a, budget=None):
    """Generators of ker(A^a -> A^b) for a b x a matrix of RingElements.

    Augment the lifted columns with I times each target basis vector;
    syzygies of the augmented list, projected to the first a coordinates
    and reduced mod I, generate the kernel over A.
    """
    rows = len(matrix_over_a)
    cols = len(matrix_over_a[0]) if rows else 0
    if not (rows and cols):
        raise ContractError("kernel of a %d x %d matrix: need at least one row and column" % (rows, cols))
    lifted = [VectorPolynomial(tuple(matrix_over_a[i][j].rep for i in range(rows))) for j in range(cols)]
    return _kernel(ring, lifted, rows, budget)[0]


def _kernel(ring, lifted, rows, budget):
    """(kernel generators, basis of the image plus I * F_p[x]^rows) of the
    map whose lifted columns are given: one tagged Groebner run, and one
    normal form modulo I * F_p[x]^cols per syzygy."""
    cols = len(lifted)
    syz, basis = syzygy_basis(lifted + ring.lifted_ideal_columns(rows), budget, image=True)
    ideal = ideal_module_basis(ring.ctx, ring.ideal_basis, cols) if ring.ideal_basis is not None else None
    out = []
    seen = set()
    for s in syz:
        w = VectorPolynomial(s.components[:cols])
        if ideal is not None:
            w = ideal.normal_form(w)
        key = tuple(frozenset(c.terms.items()) for c in w.components)
        if w.is_zero() or key in seen:
            continue
        seen.add(key)
        out.append(tuple(RingElement(ring, c) for c in w.components))
    return out, basis


@dataclass(frozen=True)
class HomologyPresentation:
    """H_p = ker d_p / im d_(p+1) with its length.

    kernel_gens: vectors u_1..u_k in K_p (tuples of RingElement) spanning
    ker d_p (for p = 0 the basis vectors of K_0);
    length: int or INFINITE;
    basis: GroebnerBasis of im d_(p+1) + I K_p in F_p[x]^rank_p, so the
    class of a cycle u vanishes exactly when its lift lies in it.
    """

    p: int
    kernel_gens: tuple
    length: object
    basis: object = field(default=None, compare=False, repr=False)


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
    ideal = hilbert_numerator([t[1:] for t in ring.ideal_basis.lead_terms]
                              if ring.ideal_basis is not None else [])
    runs = {}  # q -> (ker d_q, basis of im d_q + I K_(q-1))
    nums = {}  # lead exponents of one component -> their numerator

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
        num = {}  # degree -> coefficient of Q
        _add_coker_numerator(num, boundaries, cx.degrees[p], nums)
        if p == 0:
            one = ring.one()
            kernel = [tuple(one if i == j else ring.zero() for i in range(cx.rank(0)))
                      for j in range(cx.rank(0))]
        else:
            kernel, cycles_out = run(p)
            _add_coker_numerator(num, cycles_out, cx.degrees[p - 1], nums)
            for d in cx.degrees[p - 1]:
                _add_shifted(num, -1, ideal, d)
        length = dimension_and_length(num, ring.ctx.nvars)[1]
        out[p] = HomologyPresentation(p, tuple(kernel), length, boundaries)
    return out


def _add_coker_numerator(num, basis, degrees, nums):
    """Add the Hilbert series numerator of F_p[x]^rank / basis, basis
    vector c in degree degrees[c], into num; nums caches
    hilbert_numerator by its input."""
    per_comp = [[] for _ in degrees]
    for t in basis.lead_terms:
        per_comp[t[0]].append(t[1:])
    for d, exps in zip(degrees, per_comp):
        key = tuple(exps)
        if key not in nums:
            nums[key] = hilbert_numerator(exps)
        _add_shifted(num, 1, nums[key], d)


def _add_shifted(num, sign, part, shift):
    for k, c in part.items():
        num[k + shift] = num.get(k + shift, 0) + sign * c


@dataclass(frozen=True)
class EulerTable:
    """Lengths of all homology modules and the partial alternating sums

        chi_q = sum_(p >= q) (-1)^(p-q) length H_p.
    """

    lengths: tuple  # lengths[p] for p = 0..top
    chis: tuple     # chis[q] for q = 0..top

    @property
    def chi(self):
        return self.chis[0]


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
    return EulerTable(tuple(lengths), tuple(chis))


def annihilation_check(cx, minors=None, presentations=None, budget=None):
    """Verify that every maximal minor kills every homology class.

    For each degree p, each kernel generator u_i and each minor g, g*u_i
    must lie in im d_(p+1) + I K_p, the module the presentation's basis
    spans.  GroebnerBasis.contains_products reduces each u_i against it
    once and multiplies the remainder by every g on packed terms.
    Returns the list of violations as (p, minor_index, kernel_index)
    triples; empty means the containment holds everywhere.
    """
    from .koszul import fitting_ideal

    if minors is None:
        minors = fitting_ideal(cx.matrix)
    if presentations is None:
        presentations = all_homology(cx, budget)
    reps = [g.rep for g in minors]
    bad = []
    for p in range(cx.length + 1):
        pres = presentations[p]
        # passes[ki][mi]: minor mi kills the class of u_ki
        passes = [pres.basis.contains_products(reps, VectorPolynomial(tuple(v.rep for v in u)))
                  for u in pres.kernel_gens]
        bad += [(p, mi, ki) for mi in range(len(minors)) for ki in range(len(passes))
                if not passes[ki][mi]]
    return bad


@dataclass(frozen=True)
class AcyclicityReport:
    """Lengths of the positive-degree homology and whether all vanish."""

    lengths: dict
    acyclic: bool


def acyclicity_report(cx, budget=None, presentations=None):
    if presentations is None:
        presentations = all_homology(cx, budget)
    lengths = {p: presentations[p].length for p in range(1, cx.length + 1)}
    return AcyclicityReport(lengths, all(v == 0 for v in lengths.values()))
