"""Buchberger engine for submodules of free modules over F_p[x1..xm].

Inside the engine a vector is a dict from flat terms to coefficients,
where a flat term is (component, e1, ..., em).  The module order is
position-over-term: component 0 dominates all of component 1 and so on,
with ties broken by graded reverse lex on the monomial part.  That single
order serves membership, colength counting and, through tag components
appended behind the original ones, syzygies and kernels by elimination.

Normal forms pop leading terms from a heap (Monagan and Pearce, CASC
2007).  S-pairs leave a heap by least sugar, then largest lcm (Giovini et
al., ISSAC 1991); sugar is the lcm degree on homogeneous input.

Pair handling follows the Gebauer-Moeller update.  The coprime-lead-term
shortcut is only sound for vectors concentrated in a single component
(the classical one-variable-at-a-time proof multiplies the two inputs,
which has no meaning for genuine vectors), so it is applied exactly then.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .poly import (
    INFINITE,
    AlgebraError,
    BudgetExceededError,
    ContractError,
    Polynomial,
    VectorPolynomial,
)

DEFAULT_MAX_PAIRS = 200_000
DEFAULT_MAX_DEGREE = 60


class Budget:
    """Caps on the total work of every run given it, plus a tally of that work.

    The tally fields are the one deliberately mutable spot in the library;
    concurrent computations must use distinct Budget instances.
    """

    __slots__ = ("max_pairs", "max_degree", "pairs_used", "max_degree_seen")

    def __init__(self, max_pairs=DEFAULT_MAX_PAIRS, max_degree=DEFAULT_MAX_DEGREE):
        if not (max_pairs > 0 and max_degree > 0):
            raise ContractError("budget caps must be positive: %r, %r" % (max_pairs, max_degree))
        self.max_pairs = max_pairs
        self.max_degree = max_degree
        self.pairs_used = 0
        self.max_degree_seen = 0


def term_key(t):
    """Sort key for flat terms: larger key = larger term (component 0 wins)."""
    return (-t[0], sum(t[1:]), tuple(-e for e in t[:0:-1]))


def _neg_key(t):
    """term_key(t) with every entry negated: smaller key = larger term."""
    return (t[0], -sum(t[1:]), t[:0:-1])


def _divides(a, b):
    """Does flat term a divide flat term b (same component, exps <=)."""
    if a[0] != b[0]:
        return False
    for x, y in zip(a[1:], b[1:]):
        if x > y:
            return False
    return True


def _lcm(a, b):
    assert a[0] == b[0]
    return (a[0],) + tuple(x if x >= y else y for x, y in zip(a[1:], b[1:]))


def _vec_to_dict(v):
    out = {}
    for comp, poly in enumerate(v.components):
        for exps, c in poly.terms.items():
            out[(comp,) + exps] = c
    return out


def _dict_to_vec(ctx, rank, d):
    polys = [{} for _ in range(rank)]
    for t, c in d.items():
        polys[t[0]][t[1:]] = c
    return VectorPolynomial(tuple(Polynomial(ctx, terms) for terms in polys))


class _Row:
    __slots__ = ("vec", "lt", "single", "sugar")

    def __init__(self, vec, lt, single, sugar):
        self.vec = vec          # dict, monic at lt
        self.lt = lt
        self.single = single    # all terms share lt's component
        self.sugar = sugar      # degree the row would have if kept homogeneous


def _make_row(d, p, sugar):
    lt = max(d, key=term_key)
    inv = pow(d[lt], -1, p)
    if inv != 1:
        d = {t: (c * inv) % p for t, c in d.items()}
    comp = lt[0]
    single = all(t[0] == comp for t in d)
    return _Row(d, lt, single, sugar)


def _normal_form_dict(vec, by_comp, p):
    """Full normal form of a dict-vector against rows grouped by component.

    Terms wait in a max-heap; one popped after leaving work is skipped.
    """
    work = dict(vec)
    heap = [(_neg_key(t), t) for t in work]
    heapify(heap)
    rem = {}
    while heap:
        t = heappop(heap)[1]
        c = work.get(t)
        if c is None:
            continue
        row = None
        tail = t[1:]
        for r in by_comp.get(t[0], ()):
            le = r.lt
            ok = True
            for x, y in zip(le[1:], tail):
                if x > y:
                    ok = False
                    break
            if ok:
                row = r
                break
        if row is None:
            rem[t] = c
            del work[t]
            continue
        shift = tuple(y - x for x, y in zip(row.lt[1:], tail))
        # work -= c * x^shift * row  (cancels t because row is monic)
        for u, a in row.vec.items():
            nt = (u[0],) + tuple(e + s for e, s in zip(u[1:], shift))
            b = work.get(nt)
            if b is None:
                work[nt] = (-a * c) % p
                heappush(heap, (_neg_key(nt), nt))
            elif b := (b - a * c) % p:
                work[nt] = b
            else:
                del work[nt]
    return rem


def _spoly(f, g, lcm_t, p):
    out = {}
    sf = tuple(y - x for x, y in zip(f.lt[1:], lcm_t[1:]))
    for u, a in f.vec.items():
        nt = (u[0],) + tuple(e + s for e, s in zip(u[1:], sf))
        out[nt] = a
    sg = tuple(y - x for x, y in zip(g.lt[1:], lcm_t[1:]))
    for u, a in g.vec.items():
        nt = (u[0],) + tuple(e + s for e, s in zip(u[1:], sg))
        b = (out.get(nt, 0) - a) % p
        if b:
            out[nt] = b
        else:
            out.pop(nt, None)
    return out


def _update_pairs(G, P, new_idx):
    """Gebauer-Moeller pair update after appending G[new_idx]; returns a heap."""
    f = G[new_idx]
    ltf = f.lt
    comp = ltf[0]
    f_excess = f.sugar - sum(ltf[1:])
    kept = []
    for rec in P:
        _, i, j, lcm_t = rec
        if (
            lcm_t[0] == comp
            and _divides(ltf, lcm_t)
            and lcm_t != _lcm(G[i].lt, ltf)
            and lcm_t != _lcm(G[j].lt, ltf)
        ):
            continue  # chain criterion: the new lead term covers this pair
        kept.append(rec)
    groups = {}
    for i in range(new_idx):
        lti = G[i].lt
        if lti[0] != comp:
            continue
        groups.setdefault(_lcm(lti, ltf), []).append(i)
    minimal = []
    for L in sorted(groups, key=term_key):
        if not any(_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        idxs = groups[L]
        skip = False
        for i in idxs:
            if (
                G[i].single
                and f.single
                and all(x == 0 or y == 0 for x, y in zip(G[i].lt[1:], ltf[1:]))
            ):
                skip = True  # coprime shortcut, sound for one-component rows
                break
        if skip:
            continue
        i = min(idxs)
        sugar = max(G[i].sugar - sum(G[i].lt[1:]), f_excess) + sum(L[1:])
        kept.append(((sugar, _neg_key(L)), i, new_idx, L))
    heapify(kept)
    return kept


def _autoreduce(G, p):
    """Minimalize lead terms, then fully reduce tails (reduced basis).

    One pass suffices: no lead term changes after minimalization.
    """
    rows = sorted(G, key=lambda r: term_key(r.lt))
    keep = []
    for i, r in enumerate(rows):
        covered = False
        for j, s in enumerate(rows):
            if i != j and _divides(s.lt, r.lt) and not (s.lt == r.lt and j > i):
                covered = True
                break
        if not covered:
            keep.append(r)
    for i in range(len(keep)):
        others = {}
        for j, s in enumerate(keep):
            if j != i:
                others.setdefault(s.lt[0], []).append(s)
        nf = _normal_form_dict(keep[i].vec, others, p)
        if nf != keep[i].vec:
            keep[i] = _make_row(nf, p, keep[i].sugar)
    return sorted(keep, key=lambda r: term_key(r.lt))


class GroebnerBasis:
    """Reduced Groebner basis of a submodule of F_p[x]^rank.

    Immutable after construction.  generators are monic, fully reduced
    against one another, and sorted by lead term, so equal submodules
    produce identical objects under the fixed order.  pairs_used counts
    the S-pairs of this run alone.
    """

    __slots__ = ("ctx", "rank", "generators", "lead_terms", "pairs_used", "_by_comp")

    def __init__(self, ctx, rank, rows, pairs_used):
        self.ctx = ctx
        self.rank = rank
        self.generators = tuple(_dict_to_vec(ctx, rank, r.vec) for r in rows)
        self.lead_terms = tuple(r.lt for r in rows)
        self.pairs_used = pairs_used
        by_comp = {}
        for r in rows:
            by_comp.setdefault(r.lt[0], []).append(r)
        self._by_comp = by_comp

    def normal_form(self, v):
        """Canonical remainder of v: no term divisible by a basis lead term."""
        assert v.rank == self.rank
        return _dict_to_vec(self.ctx, self.rank, _normal_form_dict(_vec_to_dict(v), self._by_comp, self.ctx.p))

    def normal_form_poly(self, poly):
        assert self.rank == 1
        return self.normal_form(VectorPolynomial((poly,))).components[0]

    def contains(self, v):
        return not _normal_form_dict(_vec_to_dict(v), self._by_comp, self.ctx.p)

    def colength(self):
        """Number of standard monomials of the lead term module, or INFINITE."""
        per_comp = {c: [] for c in range(self.rank)}
        for t in self.lead_terms:
            per_comp[t[0]].append(t[1:])
        total = 0
        for c in range(self.rank):
            n = count_standard_monomials(per_comp[c], self.ctx.nvars)
            if n is INFINITE:
                return INFINITE
            total += n
        return total


def buchberger(gens, budget=None):
    """Reduced Groebner basis of the submodule generated by gens.

    gens: nonempty sequence of VectorPolynomial of one common rank.
    Zero generators are skipped.  Raises BudgetExceededError when the
    pair count or lcm degree cap is hit.
    """
    gens = list(gens)
    if not gens:
        raise AlgebraError("buchberger needs at least one generator to fix the rank")
    ctx = gens[0].ctx
    rank = gens[0].rank
    for g in gens:
        assert g.ctx == ctx and g.rank == rank
    if budget is None:
        budget = Budget()
    p = ctx.p
    G = []
    by_comp = {}
    P = []
    start = budget.pairs_used

    def add(d, sugar):
        row = _make_row(d, p, sugar)
        G.append(row)
        by_comp.setdefault(row.lt[0], []).append(row)
        return _update_pairs(G, P, len(G) - 1)

    for g in gens:
        d = _normal_form_dict(_vec_to_dict(g), by_comp, p)
        if d:
            P = add(d, max(sum(t[1:]) for t in d))
    while P:
        (sugar, _), i, j, lcm_t = heappop(P)
        deg = sum(lcm_t[1:])
        if deg > budget.max_degree:
            raise BudgetExceededError(
                "degree",
                "degree budget exceeded: S-pair lcm degree %d > %d" % (deg, budget.max_degree),
            )
        if deg > budget.max_degree_seen:
            budget.max_degree_seen = deg
        budget.pairs_used += 1
        if budget.pairs_used > budget.max_pairs:
            raise BudgetExceededError(
                "pairs",
                "pair budget exceeded: more than %d S-pairs" % budget.max_pairs,
            )
        h = _normal_form_dict(_spoly(G[i], G[j], lcm_t, p), by_comp, p)
        if h:
            P = add(h, sugar)
    rows = _autoreduce(G, p)
    return GroebnerBasis(ctx, rank, rows, budget.pairs_used - start)


def syzygy_basis(gens, budget=None):
    """Generators of the syzygy module of gens in F_p[x]^len(gens).

    Each generator g_i is tagged with a fresh component behind the
    original ones; basis elements of the tagged module whose original
    components vanish are exactly the syzygies.
    """
    gens = list(gens)
    if not gens:
        return []
    ctx = gens[0].ctx
    rank = gens[0].rank
    k = len(gens)
    zero = ctx.zero()
    ext = []
    for i, g in enumerate(gens):
        assert g.ctx == ctx and g.rank == rank
        tags = [zero] * k
        tags[i] = ctx.one()
        ext.append(VectorPolynomial(g.components + tuple(tags)))
    gb = buchberger(ext, budget)
    out = []
    for v in gb.generators:
        if all(c.is_zero() for c in v.components[:rank]):
            out.append(VectorPolynomial(v.components[rank:]))
    return out


def count_standard_monomials(exp_vectors, nvars):
    """Monomials of F_p[x1..xm] outside the monomial ideal, or INFINITE.

    exp_vectors: exponent tuples of the generators.  Counted by recursion
    on the last variable: the level-e slice of the staircase projects to
    the same question in one variable fewer.
    """
    gens = _minimal_exps(exp_vectors)
    if any(not any(g) for g in gens):
        return 0  # a unit generator kills everything
    if not gens:
        return 1 if nvars == 0 else INFINITE
    assert nvars >= 1
    bound = None
    for g in gens:
        if all(e == 0 for e in g[:-1]):
            b = g[-1]
            if bound is None or b < bound:
                bound = b
    for i in range(nvars - 1):
        if not any(all(e == 0 for k, e in enumerate(g) if k != i) for g in gens):
            return INFINITE
    if bound is None:
        return INFINITE
    total = 0
    for e in range(bound):
        level = [g[:-1] for g in gens if g[-1] <= e]
        n = count_standard_monomials(level, nvars - 1)
        assert n is not INFINITE
        total += n
    return total


def _minimal_exps(exp_vectors):
    uniq = sorted(set(tuple(g) for g in exp_vectors), key=lambda g: (sum(g), g))
    out = []
    for g in uniq:
        if not any(all(x <= y for x, y in zip(h, g)) for h in out):
            out.append(g)
    return out


def monomial_ideal_dimension(exp_vectors, nvars):
    """Krull dimension of F_p[x1..xm] modulo the monomial ideal.

    Largest size of a variable subset S such that no generator is
    supported inside S; -1 when a unit generator makes the ring zero.
    """
    from itertools import combinations

    gens = _minimal_exps(exp_vectors)
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    for size in range(nvars, -1, -1):
        for S in combinations(range(nvars), size):
            s = frozenset(S)
            if not any(sup <= s for sup in supports):
                return size
    return -1
