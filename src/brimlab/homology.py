"""Homology of free complexes over A = F_p[x1..xm]/I, with exact lengths.

Everything is computed by lifting to the free polynomial ring: a kernel
over A is the projection of a syzygy computation against the matrix
columns augmented with I times the target basis, and a subquotient
length is the colength of a lifted presentation.  Each presentation
keeps the Groebner basis its length came from, so the annihilation
check is a set of membership tests against it and makes no Groebner run
of its own.  Lengths may be INFINITE; the Euler characteristic refuses
to sum those and raises a structured error naming the offending degree
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import INFINITE, AlgebraError, ContractError, VectorPolynomial
from .groebner import syzygy_basis
from .rings import quotient_basis


class InfiniteLengthError(AlgebraError):
    """Some homology module has infinite length; .p says which degree."""

    def __init__(self, p):
        super().__init__("homology in degree %d has infinite length" % p)
        self.p = p


def _lift_columns(ring, matrix_over_a):
    """Columns of a RingElement matrix as VectorPolynomials over F_p[x]."""
    if not matrix_over_a or not matrix_over_a[0]:
        return []
    rows = len(matrix_over_a)
    cols = len(matrix_over_a[0])
    out = []
    for j in range(cols):
        out.append(VectorPolynomial(tuple(matrix_over_a[i][j].rep for i in range(rows))))
    return out


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
    lifted = _lift_columns(ring, matrix_over_a)
    aug = lifted + ring.lifted_ideal_columns(rows)
    syz = syzygy_basis(aug, budget)
    out = []
    seen = set()
    for s in syz:
        vec = tuple(ring.element(c) for c in s.components[:cols])
        if all(v.is_zero() for v in vec):
            continue
        key = tuple(frozenset(v.rep.terms.items()) for v in vec)
        if key in seen:
            continue
        seen.add(key)
        out.append(vec)
    return out


@dataclass(frozen=True)
class HomologyPresentation:
    """H_p as a quotient of A^k, k the number of kernel generators.

    kernel_gens: vectors u_1..u_k in K_p (tuples of RingElement) spanning
    ker d_p;
    length: int or INFINITE;
    basis: GroebnerBasis over F_p[x] of the relations of H_p plus
    I * F_p[x]^k, so c lies in it exactly when sum c_j u_j lies in
    im d_(p+1) + I K_p (None when ker d_p = 0).
    """

    p: int
    kernel_gens: tuple
    length: object
    basis: object = field(default=None, compare=False, repr=False)


def homology(cx, p, budget=None):
    """HomologyPresentation of the complex at degree 0 <= p <= length."""
    ring = cx.ring
    if not 0 <= p <= cx.length:
        raise ContractError("homology degree %d outside 0..%d" % (p, cx.length))
    rank_p = cx.rank(p)
    d_in = cx.differential(p + 1)
    if p == 0:
        # H_0 is the plain cokernel of d_1: relations are its columns
        units = []
        for i in range(rank_p):
            vec = [ring.zero()] * rank_p
            vec[i] = ring.one()
            units.append(tuple(vec))
        rels = _lift_columns(ring, d_in) if d_in else []
        basis = quotient_basis(ring, rels, rank_p, budget)
        return HomologyPresentation(0, tuple(units), basis.colength(), basis)
    kernel = kernel_generators(ring, cx.differential(p), budget)
    if not kernel:
        return HomologyPresentation(p, (), 0)
    k = len(kernel)
    lifted_kernel = [VectorPolynomial(tuple(v.rep for v in vec)) for vec in kernel]
    w = _lift_columns(ring, d_in) if d_in else []
    aug = lifted_kernel + w + ring.lifted_ideal_columns(rank_p)
    syz = syzygy_basis(aug, budget)
    rels = []
    for s in syz:
        head = VectorPolynomial(s.components[:k])
        if not head.is_zero():
            rels.append(head)
    # the length lives over A: quotient_basis rejoins I * F_p[x]^k
    basis = quotient_basis(ring, rels, k, budget)
    return HomologyPresentation(p, tuple(kernel), basis.colength(), basis)


def all_homology(cx, budget=None):
    """HomologyPresentations for every degree of the complex."""
    return {p: homology(cx, p, budget) for p in range(cx.length + 1)}


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
    must lie in im d_(p+1) + I K_p.  The relations of H_p are the c with
    sum c_j u_j in that module, so the test is whether g*e_i lies in the
    presentation's basis.  Returns the list of violations as
    (p, minor_index, kernel_index) triples; empty means the containment
    holds everywhere.
    """
    from .koszul import fitting_ideal

    if minors is None:
        minors = fitting_ideal(cx.matrix)
    if presentations is None:
        presentations = all_homology(cx, budget)
    zero = cx.ring.ctx.zero()
    bad = []
    for p in range(cx.length + 1):
        pres = presentations[p]
        k = len(pres.kernel_gens)
        for mi, g in enumerate(minors):
            if g.is_zero():
                continue
            for ki in range(k):
                comps = [zero] * k
                comps[ki] = g.rep
                if not pres.basis.contains(VectorPolynomial(tuple(comps))):
                    bad.append((p, mi, ki))
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
