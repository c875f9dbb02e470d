"""Independent slow-path oracles for cross-checking the main engine.

Nothing here touches the Groebner machinery: lengths are computed degree
by degree with dense linear algebra over F_p, determinants by permutation
expansion, symmetric powers by brute-force expansion over index tuples.
Expected values frozen in the test suite were produced by these routes.
"""

from itertools import combinations_with_replacement, count, permutations, product

INF = float("inf")


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, deterministic order."""
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in monomials_of_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return out


def rank_mod_p(rows, p):
    """Rank of a dense matrix over F_p, via Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def module_hilbert_function(p, nvars, rank, gen_vectors, ideal_polys, shifts=None):
    """Yield dim (F_p[x]^rank / (gen_vectors + ideal_polys * basis))_t for
    t = 0, 1, 2, ..., each by the rank of one dense matrix over F_p.

    gen_vectors: list of vectors, each a list of rank term-dicts
    (exponent tuple -> coefficient).  shifts: the degree of each basis
    vector (default all 0), so a term x^e in component c has degree
    |e| + shifts[c]; every vector must be homogeneous of one degree
    across its nonzero entries.  ideal_polys: list of homogeneous
    term-dicts.
    """
    shifts = list(shifts) if shifts is not None else [0] * rank

    def vec_degree(vec):
        degs = {sum(e) + shifts[c] for c, comp in enumerate(vec) for e in comp}
        assert len(degs) == 1, "oracle needs per-vector uniform degree"
        return degs.pop()

    gens = [(vec, vec_degree(vec)) for vec in gen_vectors if any(vec)]
    ideal = []
    for g in ideal_polys:
        if g:
            degs = {sum(e) for e in g}
            assert len(degs) == 1
            ideal.append((g, degs.pop()))
    for t in count():
        pos = {}
        for c in range(rank):
            if t >= shifts[c]:
                for m in monomials_of_degree(nvars, t - shifts[c]):
                    pos[(c, m)] = len(pos)
        rows = []
        for vec, d in gens:
            if d > t:
                continue
            for shift in monomials_of_degree(nvars, t - d):
                row = [0] * len(pos)
                for c, comp in enumerate(vec):
                    for e, k in comp.items():
                        row[pos[(c, tuple(a + b for a, b in zip(e, shift)))]] = k % p
                rows.append(row)
        for g, d in ideal:
            for c in range(rank):
                if d + shifts[c] > t:
                    continue
                for shift in monomials_of_degree(nvars, t - d - shifts[c]):
                    row = [0] * len(pos)
                    for e, k in g.items():
                        row[pos[(c, tuple(a + b for a, b in zip(e, shift)))]] = k % p
                    rows.append(row)
        yield len(pos) - rank_mod_p(rows, p)


def module_length(p, nvars, rank, gen_vectors, ideal_polys, max_degree=60, shifts=None):
    """Length of F_p[x]^rank / (gen_vectors + ideal_polys * basis), the
    sum of module_hilbert_function (same arguments) until it vanishes;
    INF past max_degree."""
    top = max(shifts or [0])
    total = 0
    zeros = 0
    hf = module_hilbert_function(p, nvars, rank, gen_vectors, ideal_polys, shifts)
    for t, h in zip(range(max_degree + 1), hf):
        total += h
        # F/N is generated in degrees <= max(shifts): past them, two zero
        # degrees in a row mean all later ones vanish too
        zeros = zeros + 1 if h == 0 and t >= top else 0
        if zeros >= 2:
            return total
    return INF


def ideal_length(p, nvars, gen_polys, ideal_polys, max_degree=60):
    """Length of (F_p[x]/ideal) / (gens), by the same degreewise count."""
    vecs = [[g] for g in gen_polys]
    return module_length(p, nvars, 1, vecs, ideal_polys, max_degree)


def standard_monomial_count(gen_exps, nvars, degree_cap=200):
    """Monomials divisible by no generator, by plain enumeration.

    Sound for monomial ideals containing a pure power of every variable:
    all standard monomials then fit under sum(bound_i - 1).
    """
    bounds = []
    for i in range(nvars):
        pures = [g[i] for g in gen_exps if all(e == 0 for k, e in enumerate(g) if k != i)]
        if not pures:
            return INF
        bounds.append(min(pures))
    top = sum(b - 1 for b in bounds)
    assert top <= degree_cap
    count = 0
    for t in range(top + 1):
        for m in monomials_of_degree(nvars, t):
            if not any(all(x <= y for x, y in zip(g, m)) for g in gen_exps):
                count += 1
    return count


def bigraded_standard_counts(gen_exps, mx, mz, cap):
    """Standard monomials of the monomial ideal in mx + mz >= 2 variables,
    by plain enumeration, per bidegree (degree in the first mx variables,
    degree in the last mz), both up to cap: {(a, b): count}."""
    return {(a, b): sum(1 for x in monomials_of_degree(mx, a) for z in monomials_of_degree(mz, b)
                        if not any(all(e <= f for e, f in zip(g, x + z)) for g in gen_exps))
            for a in range(cap + 1) for b in range(cap + 1)}


def monomial_ideal_dimension(gen_exps, nvars):
    """Krull dimension of F_p[x1..xm] modulo the monomial ideal, by a
    search over every variable subset: the largest size of one that
    supports no generator; -1 when a unit generator makes the ring zero."""
    from itertools import combinations

    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gen_exps]
    for size in range(nvars, -1, -1):
        for S in combinations(range(nvars), size):
            if not any(sup <= frozenset(S) for sup in supports):
                return size
    return -1


def leibniz_det_terms(entries, p, nvars):
    """Determinant of a square matrix of term-dicts by permutation sum."""
    n = len(entries)
    out = {}
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        acc = {(0,) * nvars: sign % p}
        for i in range(n):
            cell = entries[i][perm[i]]
            nxt = {}
            for e1, c1 in acc.items():
                for e2, c2 in cell.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    v = (nxt.get(e, 0) + c1 * c2) % p
                    if v:
                        nxt[e] = v
                    else:
                        nxt.pop(e, None)
            acc = nxt
        for e, c in acc.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def sym_power_products(columns, k, p, nvars):
    """Products of k columns expanded over index tuples, brute force.

    columns: list of columns, each a list of r term-dicts.  Returns the
    basis (sorted index multisets of size k over range(r)) and one vector
    of term-dicts per multiset of columns.
    """
    r = len(columns[0])
    basis = sorted(combinations_with_replacement(range(r), k))
    pos = {b: i for i, b in enumerate(basis)}
    vectors = []
    for choice in combinations_with_replacement(range(len(columns)), k):
        vec = [dict() for _ in basis]
        for rows in product(range(r), repeat=k):
            acc = {(0,) * nvars: 1}
            dead = False
            for col, row in zip(choice, rows):
                cell = columns[col][row]
                if not cell:
                    dead = True
                    break
                nxt = {}
                for e1, c1 in acc.items():
                    for e2, c2 in cell.items():
                        e = tuple(a + b for a, b in zip(e1, e2))
                        v = (nxt.get(e, 0) + c1 * c2) % p
                        if v:
                            nxt[e] = v
                        else:
                            nxt.pop(e, None)
                acc = nxt
            if dead:
                continue
            slot = vec[pos[tuple(sorted(rows))]]
            for e, c in acc.items():
                v = (slot.get(e, 0) + c) % p
                if v:
                    slot[e] = v
                else:
                    slot.pop(e, None)
        vectors.append(vec)
    return basis, vectors


def lambda_oracle(p, nvars, columns, ideal_polys, k, max_degree=60, row_shifts=None):
    """length of S_k(F)/R_k by brute-force expansion + degreewise count.

    row_shifts: the degree e_i of each basis vector of F (default all 0);
    the label b of S_k(F) then has degree sum_(i in b) e_i, all of them
    raised by one constant so that none is negative.
    """
    basis, vectors = sym_power_products(columns, k, p, nvars)
    shifts = None
    if row_shifts is not None:
        low = min(row_shifts)
        shifts = [sum(row_shifts[i] - low for i in b) for b in basis]
    return module_length(p, nvars, len(vectors[0]), vectors, ideal_polys, max_degree, shifts)


def ordinary_koszul(gen_exp_coeff_dicts, p, nvars, n):
    """Differentials of the classical Koszul complex on n ring elements.

    Basis of degree p: size-p subsets of range(n) in lexicographic order.
    Entry convention matches a contraction against the single row:
    d(e_S) = sum_k (-1)^k a_(S[k]) e_(S without S[k]).
    Returns dict p -> dense matrix of term-dicts.
    """
    from itertools import combinations

    gens = gen_exp_coeff_dicts
    out = {}
    for deg in range(1, n + 1):
        src = list(combinations(range(n), deg))
        dst = list(combinations(range(n), deg - 1))
        pos = {s: i for i, s in enumerate(dst)}
        mat = [[dict() for _ in src] for _ in dst]
        for j, S in enumerate(src):
            for k, col in enumerate(S):
                target = S[:k] + S[k + 1:]
                sign = 1 if k % 2 == 0 else p - 1
                cell = mat[pos[target]][j]
                for e, c in gens[col].items():
                    v = (cell.get(e, 0) + sign * c) % p
                    if v:
                        cell[e] = v
                    else:
                        cell.pop(e, None)
        out[deg] = mat
    return out


def matmul_dicts(A, B, p, nvars):
    """Product of two matrices of term-dicts over F_p[x]."""
    out = [[dict() for _ in B[0]] for _ in A]
    for i in range(len(A)):
        for j in range(len(B[0])):
            cell = out[i][j]
            for k in range(len(B)):
                for e1, c1 in A[i][k].items():
                    for e2, c2 in B[k][j].items():
                        e = tuple(a + b for a, b in zip(e1, e2))
                        v = (cell.get(e, 0) + c1 * c2) % p
                        if v:
                            cell[e] = v
                        else:
                            cell.pop(e, None)
    return out


def complex_homology_lengths(p, nvars, ideal_polys, diffs, ranks, cap=30):
    """Homology lengths of a free graded complex over F_p[x]/ideal.

    diffs: dict q -> matrix of term-dicts for d_q: K_q -> K_{q-1} (rows
    indexed by K_{q-1}); ranks: dict q -> rank of K_q.  Every entry must
    be homogeneous.  Degree shifts of the basis vectors are inferred by
    walking the nonzero entries; the complex splits into connected
    components of that graph and each one is sliced degree by degree
    with dense row reduction.  INF when homology persists past cap.
    """
    positions = sorted(ranks)
    nodes = [(q, i) for q in positions for i in range(ranks[q])]
    adj = {nd: [] for nd in nodes}
    for q, mat in diffs.items():
        for i, row in enumerate(mat):
            for j, cell in enumerate(row):
                if not cell:
                    continue
                degs = {sum(e) for e in cell}
                assert len(degs) == 1, "oracle needs homogeneous entries"
                d = degs.pop()
                adj[(q - 1, i)].append(((q, j), d))
                adj[(q, j)].append(((q - 1, i), -d))
    components = []
    seen = {}
    for start in nodes:
        if start in seen:
            continue
        comp = {start: 0}
        queue = [start]
        while queue:
            nd = queue.pop()
            for other, delta in adj[nd]:
                s = comp[nd] + delta
                if other in comp:
                    assert comp[other] == s, "inconsistent grading"
                else:
                    comp[other] = s
                    queue.append(other)
        seen.update(comp)
        components.append(comp)

    ideal = []
    for g in ideal_polys:
        if g:
            degs = {sum(e) for e in g}
            assert len(degs) == 1
            ideal.append((g, degs.pop()))

    totals = {q: 0 for q in positions}
    for comp in components:
        base = min(comp.values())
        shifts = {nd: s - base for nd, s in comp.items()}
        trailing = 0
        for t in range(cap + 1):
            pos = {}
            for nd in sorted(shifts):
                s = shifts[nd]
                if t < s:
                    continue
                for m in monomials_of_degree(nvars, t - s):
                    pos[(nd, m)] = len(pos)
            jvecs = {q: [] for q in positions}
            for nd in sorted(shifts):
                q, _ = nd
                s = shifts[nd]
                for g, dg in ideal:
                    if t - s - dg < 0:
                        continue
                    for mm in monomials_of_degree(nvars, t - s - dg):
                        vec = [0] * len(pos)
                        for e, c in g.items():
                            key = (nd, tuple(a + b for a, b in zip(e, mm)))
                            vec[pos[key]] = c % p
                        jvecs[q].append(vec)
            dim_a = {}
            jrank = {}
            for q in positions:
                block = [k for k in pos if k[0][0] == q]
                jrank[q] = rank_mod_p(jvecs[q], p) if jvecs[q] else 0
                dim_a[q] = len(block) - jrank[q]
            rank_d = {q: 0 for q in positions}
            rank_d[positions[-1] + 1] = 0
            for q in positions[1:]:
                cols = list(jvecs[q - 1])
                mat = diffs.get(q, [])
                for nd in sorted(shifts):
                    if nd[0] != q:
                        continue
                    s = shifts[nd]
                    if t < s:
                        continue
                    for m in monomials_of_degree(nvars, t - s):
                        vec = [0] * len(pos)
                        hit = False
                        for i in range(ranks[q - 1]):
                            if (q - 1, i) not in shifts:
                                continue
                            cell = mat[i][nd[1]]
                            for e, c in cell.items():
                                key = ((q - 1, i), tuple(a + b for a, b in zip(e, m)))
                                vec[pos[key]] = (vec[pos[key]] + c) % p
                                hit = True
                        if hit:
                            cols.append(vec)
                rank_d[q] = (rank_mod_p(cols, p) if cols else 0) - jrank[q - 1]
            slice_total = 0
            for q in positions:
                h = dim_a[q] - rank_d[q] - rank_d.get(q + 1, 0)
                assert h >= 0
                totals[q] += h
                slice_total += h
            trailing = trailing + 1 if slice_total == 0 else 0
        if trailing < 3:
            return {q: INF for q in positions}
    return totals


def solve_binomial_fit(values, n0, D):
    """Cramer-rule solve of the binomial-basis fit on D+1 values.

    Independent of the engine's Gaussian elimination; returns a tuple of
    Fractions (e_0..e_D) or None when the system is singular.
    """
    from fractions import Fraction
    from math import comb

    m = D + 1
    A = [[(-1) ** i * comb(n0 + j + D - 1 - i, D - i) for i in range(m)] for j in range(m)]
    b = [values[j] for j in range(m)]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        acc = 0
        for j in range(len(mat)):
            if mat[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            acc += -term if j % 2 else term
        return acc

    d0 = det(A)
    if d0 == 0:
        return None
    sols = []
    for i in range(m):
        Ai = [[A[r][c] if c != i else b[r] for c in range(m)] for r in range(m)]
        sols.append(Fraction(det(Ai), d0))
    return tuple(sols)
