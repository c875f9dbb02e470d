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
    delta_r o ... o delta_1 (x) 1   at the splice (p = t),
    sum_i delta_i (x) f_i           below the splice (p < t).

Supported shifts are -1 <= t <= n-r+1; the complex is nonzero exactly in
degrees 0..n-r+1.  Row and column indices are 0-based throughout.

The matrix is a graded map G -> F (ModuleMatrix: row shifts e_i, column
degrees d_j), so every K_p is graded and every differential keeps
degrees.  The label (J, alpha) of K_p has degree

    sum_(j in J) d_j + sum_i alpha_i e_i                  for p <= t,
    sum_(j in J) d_j - sum_i alpha_i e_i - sum_i e_i      for p >= t+1,

and each nonzero entry of d_p has degree deg(column) - deg(row).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .poly import ContractError
from .rings import RingElement, SubmoduleOfFree


class ExteriorIndex(NamedTuple):
    """Basis label of Wedge^q G: a strictly increasing tuple of columns."""

    subset: tuple

    @property
    def size(self):
        return len(self.subset)


class SymIndex(NamedTuple):
    """Basis label of S_l F: a multidegree over the r ambient rows."""

    multidegree: tuple

    @property
    def total(self):
        return sum(self.multidegree)


def exterior_basis(n, q):
    """All size-q subsets of range(n), lexicographically sorted."""
    return tuple(ExteriorIndex(s) for s in combinations(range(n), q))


def sym_basis(r, total):
    """All multidegrees of the given total over r rows, first row heaviest
    first (sorted by the reversed tuple)."""
    if total < 0:
        return ()
    out = []

    def rec(prefix, rest, left):
        if rest == 1:
            out.append(tuple(prefix) + (left,))
            return
        for e in range(left + 1):
            rec(prefix + [e], rest - 1, left - e)

    rec([], r, total)
    out.sort(key=lambda m: tuple(reversed(m)))
    return tuple(SymIndex(m) for m in out)


class ModuleMatrix:
    """r x n matrix over a GradedRing presenting F/M, with r <= n.

    Entries are RingElements, each zero or homogeneous of positive degree,
    and the matrix is a graded map: some row shifts e_i and column degrees
    d_j give deg a_ij = d_j - e_i for every nonzero entry.  They are kept
    as row_shifts and col_degrees (a zero column takes degree 0; the
    first row of each connected block of entries takes shift 0).
    Columns generate the submodule M of F = A^r.
    """

    __slots__ = ("ring", "r", "n", "entries", "row_shifts", "col_degrees")

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
        self.row_shifts, self.col_degrees = _check_graded(rows)
        self.ring = ring
        self.r = r
        self.n = n
        self.entries = rows

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.r))

    def columns(self):
        return [self.column(j) for j in range(self.n)]

    def submodule(self):
        return SubmoduleOfFree(self.ring, self.r, self.columns())

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"


def _check_graded(rows):
    """Row shifts e_i and column degrees d_j with deg a_ij = d_j - e_i for
    every nonzero entry, as two tuples, or ContractError when there are
    none: one walk over the bipartite graph of nonzero entries, each
    component's first row at 0 and a column with no entry at 0."""
    r, n = len(rows), len(rows[0])
    level = {}  # e_i at node i, d_j at node r + j
    for root in range(r):
        if root in level:
            continue
        level[root] = 0
        todo = [root]
        while todo:
            v = todo.pop()
            for i, j in [(v, j) for j in range(n)] if v < r else [(i, v - r) for i in range(r)]:
                ent = rows[i][j]
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


def contraction(matrix, i, idx):
    """delta_i applied to one exterior basis label.

    Returns the signed combination as a list of (coefficient, ExteriorIndex)
    pairs; the empty list is the zero result (in particular on the empty
    wedge).  0 <= i < r.
    """
    if not 0 <= i < matrix.r:
        raise ContractError("row index %d outside 0..%d" % (i, matrix.r - 1))
    subset = idx.subset
    out = []
    for k, col in enumerate(subset):
        coeff = matrix.entries[i][col]
        if coeff.is_zero():
            continue
        if k % 2 == 1:
            coeff = -coeff
        out.append((coeff, ExteriorIndex(subset[:k] + subset[k + 1:])))
    return out


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
    degrees[p] their degrees; differentials[p] (1 <= p <= length) is the
    matrix of K_p -> K_(p-1), rows indexed by labels[p-1], columns by
    labels[p].  Treat instances as frozen once built.
    """

    __slots__ = ("ring", "matrix", "t", "length", "labels", "degrees", "differentials")

    def __init__(self, ring, matrix, t, length, labels, degrees, differentials):
        self.ring = ring
        self.matrix = matrix
        self.t = t
        self.length = length
        self.labels = labels
        self.degrees = degrees
        self.differentials = differentials

    def rank(self, p):
        if 0 <= p <= self.length:
            return len(self.labels[p])
        return 0

    def differential(self, p):
        """Matrix of d_p, or None outside 1..length."""
        return self.differentials.get(p)


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

    Raises RuntimeError when d o d != 0 or a nonzero entry of some d_p
    does not have degree deg(column) - deg(row); either is a fault in
    this module, not in the input.  check=False skips the square-zero
    verification (used by tests that deliberately corrupt a differential
    first).
    """
    r, n = matrix.r, matrix.n
    length = n - r + 1
    if not -1 <= t <= length:
        raise ContractError("shift t=%d outside supported range [-1, %d]" % (t, length))
    ring = matrix.ring
    labels = {p: term_labels(r, n, t, p) for p in range(length + 1)}
    degrees = {p: tuple(label_degree(matrix, t, p, ext, sym) for ext, sym in labels[p])
               for p in labels}
    diffs = {}
    for p in range(1, length + 1):
        src = labels[p]
        dst = labels[p - 1]
        pos = {lab: i for i, lab in enumerate(dst)}
        mat = [[ring.zero() for _ in src] for _ in dst]
        for col, (ext, sym) in enumerate(src):
            for coeff, lab in _image_of_basis_vector(matrix, t, p, ext, sym):
                row = pos[lab]
                mat[row][col] = mat[row][col] + coeff
        for row, ents in enumerate(mat):
            for col, ent in enumerate(ents):
                want = degrees[p][col] - degrees[p - 1][row]
                if not ent.is_zero() and not (ent.is_homogeneous() and ent.degree() == want):
                    raise RuntimeError("d_%d entry (%d,%d) (%s) is not of degree %d" % (p, row, col, ent, want))
        diffs[p] = mat
    cx = FreeComplex(ring, matrix, t, length, labels, degrees, diffs)
    if check:
        bad = verify_complex(cx)
        if bad:
            raise RuntimeError("square-zero failure at %r" % (bad[:3],))
    return cx


def _image_of_basis_vector(matrix, t, p, ext, sym):
    """d_p applied to one basis label of K_p, as (coeff, label) pairs."""
    r = matrix.r
    if p - 1 > t:
        # sum_i delta_i (x) f_i-inverse
        for i in range(r):
            lowered = division_map(i, sym)
            if lowered is None:
                continue
            for coeff, e in contraction(matrix, i, ext):
                yield coeff, (e, lowered)
    elif p - 1 == t:
        # delta_r o ... o delta_1 (x) identity on S_0
        current = [(matrix.ring.one(), ext)]
        for i in range(r):
            nxt = []
            for c, e in current:
                for coeff, e2 in contraction(matrix, i, e):
                    nxt.append((c * coeff, e2))
            current = nxt
        for c, e in current:
            if not c.is_zero():
                yield c, (e, sym)
    else:
        # sum_i delta_i (x) f_i
        for i in range(r):
            raised = multiplication_map(i, sym)
            for coeff, e in contraction(matrix, i, ext):
                yield coeff, (e, raised)


def verify_complex(cx):
    """All (p, row, col) positions where d_p o d_(p+1) is nonzero.

    Each entry of the product sums the raw products of the nonzero
    entries it pairs and is reduced modulo I once.
    """
    bad = []
    ring = cx.ring
    for p in range(1, cx.length):
        a = cx.differentials[p]
        b = cx.differentials[p + 1]
        cols = [[(j, row[k].rep) for j, row in enumerate(b) if not row[k].is_zero()]
                for k in range(len(b[0]) if b else 0)]
        for i, row in enumerate(a):
            for k, col in enumerate(cols):
                acc = None
                for j, f in col:
                    e = row[j].rep
                    if not e.is_zero():
                        acc = e * f if acc is None else acc + e * f
                if acc is not None and not ring.reduce(acc).is_zero():
                    bad.append((p, i, k))
    return bad


def fitting_ideal(matrix):
    """All maximal minors of the matrix (the r x r ones), by cofactor
    expansion, in lexicographic column-subset order."""
    r = matrix.r
    out = []
    for subset in combinations(range(matrix.n), r):
        rows = [[matrix.entries[i][j] for j in subset] for i in range(r)]
        out.append(_det(rows, matrix.ring))
    return tuple(out)


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


def export_triplets(cx):
    """Differentials as portable sparse triplets, one per line:

        p <tab> row <tab> col <tab> entry

    p runs over 1..length, indices are 0-based, entries are canonical
    polynomial strings without spaces.  Lines are sorted by (p, row, col).
    """
    lines = []
    for p in range(1, cx.length + 1):
        mat = cx.differentials[p]
        for i, row in enumerate(mat):
            for j, ent in enumerate(row):
                if not ent.is_zero():
                    lines.append("%d\t%d\t%d\t%s" % (p, i, j, str(ent).replace(" ", "")))
    return "\n".join(lines) + ("\n" if lines else "")
