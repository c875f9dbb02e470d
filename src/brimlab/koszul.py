"""Generalized Koszul complexes K(a; t) of an r x n matrix over a graded ring.

For a matrix a with columns a_1..a_n viewed as a map G = A^n -> F = A^r,
the complex K(a; t) has terms

    K_p = Wedge^(r+p-1) G (x) S_(p-t-1) F   for p >= t+1,
    K_p = Wedge^p G (x) S_(t-p) F           for p <= t,

and differentials assembled from two basic operators: the contraction
against row i of the matrix,

    delta_i(e_j1 ^ ... ^ e_jq) = sum_k (-1)^(k-1) a_(i,jk) e_j1 ^ ...k^ ... e_jq,

and the multiplication f_i (raise the i-th symmetric exponent) with its
one-sided inverse (lower it, or kill the term when the exponent is zero).
The map into degree p is

    sum_i delta_i (x) f_i-inverse   above the splice (p > t),
    delta_r o ... o delta_1 (x) 1   at the splice (p = t): signed maximal minors,
    sum_i delta_i (x) f_i           below the splice (p < t).

Supported shifts are -1 <= t <= n-r+1; the complex is nonzero exactly in
degrees 0..n-r+1.  Row and column indices are 0-based throughout.

The matrix is a graded map G -> F (ModuleMatrix: row shifts e_i, column
degrees d_j), so every K_p is graded and every differential keeps
degrees.  The label (J, alpha) of K_p has degree

    sum_(j in J) d_j + sum_i alpha_i e_i                  for p <= t,
    sum_(j in J) d_j - sum_i alpha_i e_i - sum_i e_i      for p >= t+1,

and each nonzero entry of d_p has degree deg(column) - deg(row).

Each d_p is kept as sparse columns of the Groebner engine's packed vectors
(Monagan and Pearce), each a_ij and minor packed once and handled only
through groebner's packed-vector functions; build_koszul checks every
entry's degree, verify_complex d o d = 0 modulo I on those vectors.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb
from typing import NamedTuple

from .groebner import (combine, ideal_module_basis, in_components, pack_polynomial, term_component,
                       unpack_vector)
from .poly import BudgetExceededError, ContractError
from .rings import RingElement, SubmoduleOfFree, grading

MAX_LABELS = 10_000  # basis labels of one complex: 2^13 for a 1 x 13 matrix, refused from 1 x 14 up


class ExteriorIndex(NamedTuple):
    """Basis label of Wedge^q G: a strictly increasing tuple of columns."""

    subset: tuple


class SymIndex(NamedTuple):
    """Basis label of S_l F: a multidegree over the r ambient rows."""

    multidegree: tuple


def exterior_basis(n, q):
    """All size-q subsets of range(n), lexicographically sorted."""
    return tuple(ExteriorIndex(s) for s in combinations(range(n), q))


def sym_basis(r, total):
    """All multidegrees of the given total over r rows, first row heaviest
    first (sorted by the reversed tuple)."""
    if total < 0:
        return ()
    monos = (tuple(c.count(i) for i in range(r)) for c in combinations_with_replacement(range(r), total))
    return tuple(SymIndex(m) for m in sorted(monos, key=lambda m: m[::-1]))


class ModuleMatrix:
    """r x n matrix over a GradedRing presenting F/M, with r <= n.

    Entries are RingElements, each zero or homogeneous of positive degree,
    and the matrix is a graded map: some row shifts e_i and column degrees
    d_j give deg a_ij = d_j - e_i for every nonzero entry.  They are kept
    as row_shifts and col_degrees (a zero column takes degree 0; the
    first row of each connected block of entries takes shift 0).
    Columns generate the submodule M of F = A^r.  fitting_ideal keeps
    the maximal minors in _minors the first time it is asked.
    """

    __slots__ = ("ring", "r", "n", "entries", "row_shifts", "col_degrees", "_minors")

    def __init__(self, ring, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ContractError("matrix must have at least one row and column")
        r = len(rows)
        n = len(rows[0])
        for ri, row in enumerate(rows):
            if len(row) != n:
                raise ContractError("row %d has %d entries, expected %d" % (ri, len(row), n))
            for ci, ent in enumerate(row):
                if not (isinstance(ent, RingElement) and ent.ring == ring):
                    raise ContractError("entry (%d,%d) is not an element of %r" % (ri + 1, ci + 1, ring))
                if not ent.is_zero() and (not ent.is_homogeneous() or ent.degree() < 1):
                    raise ContractError(
                        "entry (%d,%d) (%s) is not homogeneous of positive degree" % (ri + 1, ci + 1, ent)
                    )
        if n < r:
            raise ContractError("matrix is %d x %d; need at least as many columns as rows" % (r, n))
        self.row_shifts, self.col_degrees = grading(r, list(zip(*rows)))
        self.ring = ring
        self.r = r
        self.n = n
        self.entries = rows
        self._minors = None

    def columns(self):
        return [tuple(row[j] for row in self.entries) for j in range(self.n)]

    def submodule(self):
        return SubmoduleOfFree(self.ring, self.r, self.columns())

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"


def contraction(matrix, i, idx):
    """delta_i applied to one exterior basis label.

    Returns the signed combination as a list of (coefficient, ExteriorIndex)
    pairs; the empty list is the zero result (in particular on the empty
    wedge).  0 <= i < r.
    """
    if not 0 <= i < matrix.r:
        raise ContractError("row index %d outside 0..%d" % (i, matrix.r - 1))
    row = matrix.entries[i]
    return [(-row[col] if odd else row[col], face)
            for col, odd, face in _faces([not e.is_zero() for e in row], idx)]


def _faces(nonzero, idx):
    """The terms of delta_i on idx, for row i given by nonzero[j] (true
    when a_ij is nonzero): (column j, k odd, idx without its k-th column
    j), the coefficient being (-1)^k a_ij."""
    s = idx.subset
    return [(col, k % 2, ExteriorIndex(s[:k] + s[k + 1:])) for k, col in enumerate(s) if nonzero[col]]


def multiplication_map(i, mu):
    """f_i: raise the i-th exponent of a SymIndex by one."""
    m = mu.multidegree
    if not 0 <= i < len(m):
        raise ContractError("exponent index %d outside 0..%d" % (i, len(m) - 1))
    return SymIndex(m[:i] + (m[i] + 1,) + m[i + 1:])


def division_map(i, mu):
    """f_i-inverse: lower the i-th exponent, or None when it is zero."""
    m = mu.multidegree
    if not 0 <= i < len(m):
        raise ContractError("exponent index %d outside 0..%d" % (i, len(m) - 1))
    if m[i] == 0:
        return None
    return SymIndex(m[:i] + (m[i] - 1,) + m[i + 1:])


class FreeComplex:
    """A bounded complex of free A-modules with labelled bases.

    labels[p] is the basis of K_p as (ExteriorIndex, SymIndex) pairs and
    degrees[p] their degrees.  d_p : K_p -> K_(p-1) (1 <= p <= length)
    is stored column by column: columns[p][k], the image of labels[p][k],
    is one of the Groebner engine's packed vectors whose component is the
    row, an index into labels[p-1]; its entries are normal forms modulo
    I, and a zero entry has no term.  differential(p) builds the dense
    matrix of RingElements on each call.  flip_sign is the one way to
    change an entry; treat instances as frozen otherwise.
    """

    __slots__ = ("ring", "matrix", "t", "length", "labels", "degrees", "columns")

    def __init__(self, ring, matrix, t, length, labels, degrees, columns):
        self.ring = ring
        self.matrix = matrix
        self.t = t
        self.length = length
        self.labels = labels
        self.degrees = degrees
        self.columns = columns

    def rank(self, p):
        return len(self.labels.get(p, ()))

    def lifted_columns(self, p):
        """Columns of d_p as VectorPolynomials over F_p[x]."""
        return [unpack_vector(self.ring.ctx, self.rank(p - 1), col) for col in self.columns[p]]

    def differential(self, p):
        """Matrix of d_p as RingElements, rows indexed by labels[p-1] and
        columns by labels[p], or None outside 1..length."""
        if p not in self.columns:
            return None
        cols = self.lifted_columns(p)
        return [[RingElement(self.ring, v.components[i]) for v in cols] for i in range(self.rank(p - 1))]

    def flip_sign(self, p, row, col):
        """Negate entry (row, col) of d_p in place: a test hook for verify_complex."""
        if not (1 <= p <= self.length and 0 <= row < self.rank(p - 1) and 0 <= col < self.rank(p)):
            raise ContractError("d_%d has no entry (%d, %d)" % (p, row, col))
        ctx = self.ring.ctx
        self.columns[p][col] = {u: ctx.p - c if term_component(ctx, u) == row else c
                                for u, c in self.columns[p][col].items()}


def term_labels(r, n, t, p):
    """Basis labels of K_p, in exterior-major, symmetric-minor order."""
    if p >= t + 1:
        ext = exterior_basis(n, r + p - 1)
        sym = sym_basis(r, p - t - 1)
    else:
        ext = exterior_basis(n, p)
        sym = sym_basis(r, t - p)
    return tuple((e, s) for e in ext for s in sym)


def label_degree(matrix, t, p, ext, sym):
    """Degree of the basis label (ext, sym) of K_p (see the module text)."""
    d = sum(matrix.col_degrees[j] for j in ext.subset)
    e = sum(a * s for a, s in zip(sym.multidegree, matrix.row_shifts))
    if p <= t:
        return d + e
    return d - e - sum(matrix.row_shifts)


def expected_rank(r, n, t, p):
    """Binomial rank of K_p from the two regime formulas."""
    if p >= t + 1:
        return comb(n, r + p - 1) * comb(p - t - 1 + r - 1, r - 1)
    return comb(n, p) * comb(t - p + r - 1, r - 1)


def build_koszul(matrix, t, check=True):
    """Construct K(a; t) for -1 <= t <= n-r+1 and verify d o d = 0.

    Raises RuntimeError when d o d != 0 or a term of some entry of d_p
    does not have degree deg(column) - deg(row); either is a fault in
    this module, not in the input.  check=False skips the square-zero
    verification (used by tests that deliberately corrupt a differential
    first).  An entry past the engine's degree limit, or a complex of
    more than MAX_LABELS basis labels in all, raises BudgetExceededError.
    """
    r, n = matrix.r, matrix.n
    length = n - r + 1
    if not -1 <= t <= length:
        raise ContractError("shift t=%d outside supported range [-1, %d]" % (t, length))
    if (size := sum(expected_rank(r, n, t, p) for p in range(length + 1))) > MAX_LABELS:
        raise BudgetExceededError("expansion", "K(a; %d) of a %d x %d matrix has %d basis labels, more than %d"
                                  % (t, r, n, size, MAX_LABELS))
    ring = matrix.ring
    labels = {p: term_labels(r, n, t, p) for p in range(length + 1)}
    degrees = {p: tuple(label_degree(matrix, t, p, ext, sym) for ext, sym in labels[p])
               for p in labels}
    # each distinct entry packed once: a_ij below and above the splice,
    # the maximal minors at it, when the splice d_(t+1) is one of d_1..d_length
    ent = [[_signed(e) for e in row] for row in matrix.entries]
    minors = (dict(zip(combinations(range(n), r), map(_signed, fitting_ideal(matrix))))
              if 0 <= t < length else None)
    columns = {}
    for p in range(1, length + 1):
        pos = {lab: i for i, lab in enumerate(labels[p - 1])}
        cols = []
        for col, (ext, sym) in enumerate(labels[p]):
            parts = []
            for (f, deg, signed), odd, lab in _image(ent, minors, t, p, ext, sym):
                row = pos[lab]
                want = degrees[p][col] - degrees[p - 1][row]
                if deg != want:
                    raise RuntimeError("d_%d entry (%d,%d) (%s) is not of degree %d"
                                       % (p, row, col, -f if odd else f, want))
                parts.append((signed[odd], row))
            cols.append(in_components(ring.ctx, parts))
        columns[p] = cols
    cx = FreeComplex(ring, matrix, t, length, labels, degrees, columns)
    if check:
        bad = verify_complex(cx)
        if bad:
            raise RuntimeError("square-zero failure at %r" % (bad[:3],))
    return cx


def _signed(f):
    """(f, its degree or None when f is not homogeneous, (f, -f) as packed
    vectors of component 0) for a RingElement f, or None for f = 0."""
    d = pack_polynomial(f.rep)
    if not d:
        return None
    degs = {sum(e) for e in f.rep.terms}
    return f, degs.pop() if len(degs) == 1 else None, (d, {u: f.ring.p - c for u, c in d.items()})


def _image(ent, minors, t, p, ext, sym):
    """d_p applied to one basis label of K_p, as (entry, sign, label)
    triples with distinct labels, the sign 1 for a negated entry; ent[i][j]
    and minors[S] are the _signed forms of a_ij and of the minor on the
    columns S."""
    if p - 1 == t:
        # delta_r o ... o delta_1 (x) identity on S_0 takes ext to the sum,
        # over the r of its columns S at positions ks, of the minor on S,
        # signed by the shuffle that moves S to the front, times ext - S
        s = ext.subset
        r = len(ent)
        out = []
        for ks in combinations(range(len(s)), r):
            cols = tuple(s[k] for k in ks)
            if minors[cols]:
                face = ExteriorIndex(tuple(j for j in s if j not in cols))
                out.append((minors[cols], (sum(ks) - r * (r - 1) // 2) % 2, (face, sym)))
        return out
    # sum_i delta_i (x) f_i-inverse above the splice, delta_i (x) f_i below
    out = []
    for i, row in enumerate(ent):
        moved = division_map(i, sym) if p - 1 > t else multiplication_map(i, sym)
        if moved is not None:
            out += [(row[col], odd, (face, moved)) for col, odd, face in _faces(row, ext)]
    return out


def verify_complex(cx):
    """All (p, row, col) positions where d_p o d_(p+1) is nonzero, sorted.

    Column k of the product is sum_j b_jk (column j of d_p), formed on
    packed vectors (groebner.combine), and reduced once modulo I * K_(p-1).
    """
    bad = []
    ctx = cx.ring.ctx
    for p in range(1, cx.length):
        ideal = ideal_module_basis(ctx, cx.ring.ideal_basis, cx.rank(p - 1))
        for k, col in enumerate(cx.columns[p + 1]):
            rem = ideal.reduce_terms(combine(ctx, cx.columns[p], col))
            bad += [(p, i, k) for i in {term_component(ctx, u) for u in rem}]
    return sorted(bad)


def fitting_ideal(matrix):
    """All maximal minors of the matrix (the r x r ones), by cofactor
    expansion, in lexicographic column-subset order; computed once per
    matrix."""
    if matrix._minors is None:
        r = matrix.r
        matrix._minors = tuple(_det([[matrix.entries[i][j] for j in subset] for i in range(r)], matrix.ring)
                               for subset in combinations(range(matrix.n), r))
    return matrix._minors


def _det(rows, ring):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ring.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * _det(minor, ring)
        acc = acc + (-term if j % 2 else term)
    return acc

