"""Buchberger engine for submodules of free modules over F_p[x1..xm].

The module order is position-over-term: component 0 dominates all of
component 1 and so on, with ties broken by graded reverse lex on the
monomial part.  That single order serves membership, colength counting
and, through tag components appended behind the original ones, syzygies
and kernels, read off the S-pair trace by Schreyer's theorem.

Inside the engine a term (component, e1, ..., em) is one int (Monagan and
Pearce, CASC 2007).  From the top down it holds the component, then
TOP - (total degree), then e_m, ..., e_1.  Every field below the
component is _W = 16 bits wide, and its top bit is a guard that a stored
term leaves 0.  A smaller int is a larger term, so a heap of ints pops
the leading term first.  Multiplying u by the monomial t / lt is the
addition u + (t - lt), and lt divides t (same component) exactly when
t - lt borrows from no exponent field, that is when
(t - lt) & guard == 0.  Terms of basis rows and normal forms stay at
degree <= MAX_DEGREE, half of TOP, so the lcm of any two of them still
fits; a term that would pass MAX_DEGREE raises BudgetExceededError
("degree") instead of wrapping.  Vectors are packed where they enter the
engine and unpacked where they leave it; each layout converts a monomial
once and keeps it, in a memo that grows with the distinct monomials.  A
monomial ideal is a list of packed exponent fields (t & exp_mask): its
lcms and colons are field-wise int operations, and the Hilbert numerators
and the stop test below recurse on those ints.

A run that eliminates the last variables of the context puts one more
field, TOP - (degree in those variables), between the component and the
degree.  Within a component the order then compares that degree
first: a block order, under which the basis rows free of the block
generate the elimination module.  A run may also give x_i the degree
w_i > 0; both degree fields then hold sums sum_i w_i e_i, MAX_DEGREE and
the degree budget bound that weighted degree, and the order is the
weighted one.

Normal forms pop leading terms from a heap.  S-polynomials and the
reduction steps leave coefficients unreduced; a normal form reduces each
one mod p once, when its term is popped, and drops it if that gives 0.
S-pairs leave a heap by least sugar (Giovini, Mora, Niesi, Robbiano and
Traverso, ISSAC 1991); sugar is the (shifted) degree on homogeneous input.
Of equal sugar, a homogeneous run takes the largest lcm first (smallest
first about doubles the work of the lambda table's Rees runs), any other
run, such as a tagged syzygy run, the smallest first, as the standard
sugar strategy does.  Pair handling follows the Gebauer-Moeller update.
The coprime-lead-term shortcut is only sound for vectors concentrated in
a single component (the classical one-variable-at-a-time proof multiplies
the two inputs, which has no meaning for genuine vectors), so it is
applied exactly then.

A run may shift the degree of each component c by s_c.  When every
input vector is homogeneous under the shifted degrees, so are
S-polynomials and normal forms; a row's sugar is its degree (deg(lcm) +
s_c for a pair led in component c), and each input waits in the pair
heap under its degree, to go in after every pair of that degree and
below (inputs of one degree in the given order).  The run records the
fresh inputs, whose normal form is nonzero when they go in: those
outside the span of the inputs of their degree before them and the
multiples of the lower-degree ones.  With the generators of I F of each
degree first, the fresh generators of N minimally generate N modulo I F
(Kreuzer and Robbiano, CCA 2, Ch. 4; Singular's mstd).  If at the start
of degree d the lead terms of each component c generate every monomial
of degree d - s_c, all remaining pairs and inputs reduce to zero term by
term, so the run stops there; a run told its quotient's Hilbert series
drops the rest of each degree once it has all its lead terms (Traverso,
J. Symb. Comp. 22, 1996; Bigatti, JPAA 1997).  Other runs take every
input before any pair, smallest lead term first (equal ones in order),
and run to the end: only a row with a smaller lead term can divide a tail
term, so these orders leave fewer tail terms unreduced.

buchberger returns the minimal basis.  Normal forms, membership and
colengths need nothing more, since the full normal form against any
Groebner basis is the same; GroebnerBasis.generators reduces the tails
the first time it is read.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import mul

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

_W = 16                         # bits per packed field, guard bit included
_FIELD = (1 << _W) - 1
TOP = (1 << (_W - 1)) - 1       # largest value a field holds below its guard
MAX_DEGREE = TOP // 2           # largest total degree of a term in a row


def _too_high(what):
    return BudgetExceededError(
        "degree", "degree budget exceeded: %s passes the engine limit %d" % (what, MAX_DEGREE))


def check_term_degree(deg):
    """Refuse an input term of total degree deg past MAX_DEGREE."""
    if deg > MAX_DEGREE:
        raise _too_high("input term of degree %d" % deg)


class Budget:
    """Caps on the total work of every run given it, plus a tally of that work.

    max_degree may not exceed MAX_DEGREE; in a weighted run it bounds the
    weighted degree (see buchberger).  The tally fields are the one
    deliberately mutable spot in the library; concurrent computations
    must use distinct Budget instances.
    """

    __slots__ = ("max_pairs", "max_degree", "pairs_used", "max_degree_seen")

    def __init__(self, max_pairs=DEFAULT_MAX_PAIRS, max_degree=DEFAULT_MAX_DEGREE):
        if not (max_pairs > 0 and max_degree > 0):
            raise ContractError("budget caps must be positive: %r, %r" % (max_pairs, max_degree))
        if max_degree > MAX_DEGREE:
            raise ContractError("degree cap %r is above the engine limit %d" % (max_degree, MAX_DEGREE))
        self.max_pairs = max_pairs
        self.max_degree = max_degree
        self.pairs_used = 0
        self.max_degree_seen = 0


class _Memo(dict):
    """A dict that fills a missing key k with f(k)."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __missing__(self, k):
        v = self[k] = self.f(k)
        return v


class _Layout:
    """Packing of flat terms (component, e1..em) into ints for m variables,
    the last `block` of them eliminated (block 0: no elimination field),
    x_i of degree weights[i] (None: every degree 1).  packed maps an
    exponent tuple to its packed term of component 0, exps the exponent
    fields of a term back to the tuple; each is filled on first use."""

    __slots__ = ("m", "block", "weights", "groups", "deg_shift", "elim_shift", "comp_shift", "ones",
                 "guard", "exp_mask", "block_mask", "elim_bits", "packed", "exps")

    def __init__(self, m, block=0, weights=None):
        self.m = m
        self.block = block
        self.weights = weights = tuple(weights or (1,) * m)
        self.groups = tuple(  # (w, the fields of weight w) per distinct weight
            (w, sum(_FIELD << (i * _W) for i, v in enumerate(weights) if v == w))
            for w in sorted(set(weights)))
        self.deg_shift = m * _W
        self.elim_shift = (m + 1) * _W
        self.comp_shift = (m + 1 + (block > 0)) * _W
        self.ones = sum(1 << (i * _W) for i in range(m))
        self.guard = self.ones << (_W - 1)
        self.exp_mask = (1 << self.deg_shift) - 1
        self.block_mask = sum(_FIELD << (i * _W) for i in range(m - block, m))
        # every bit of the elimination field, or 0 without one: a floor
        # test ORs them into the term so that it compares degrees alone
        self.elim_bits = _FIELD << self.elim_shift if block else 0
        self.packed = _Memo(self._pack)
        self.exps = _Memo(lambda x: tuple(x >> (i * _W) & _FIELD for i in range(m)))

    def _pack(self, e):
        deg = sum(map(mul, self.weights, e))
        check_term_degree(deg)
        x = 0
        if self.block:
            x = TOP - sum(map(mul, self.weights[-self.block:], e[-self.block:]))
        x = (x << _W) | (TOP - deg)
        for a in reversed(e):
            x = (x << _W) | a
        return x

    def pack(self, t):
        return self.packed[t[1:]] + (t[0] << self.comp_shift)

    def unpack(self, x):
        return (x >> self.comp_shift,) + self.exps[x & self.exp_mask]

    def degree(self, x):
        return TOP - ((x >> self.deg_shift) & _FIELD)

    def lcm(self, a, b):
        """lcm of two terms of one component."""
        e = (b & self.exp_mask) + _monus(a & self.exp_mask, b & self.exp_mask, self.guard)
        cs = self.comp_shift
        x = ((a >> cs) << cs) | ((TOP - self.degree_of(e)) << self.deg_shift) | e
        if self.block:
            x |= (TOP - self.degree_of(e & self.block_mask)) << self.elim_shift
        return x

    def degree_of(self, e):
        """sum_i w_i e_i for the packed exponents e."""
        low = self.deg_shift - _W  # the sum of the fields of e lands here in e * ones
        d = 0
        for w, fields in self.groups:  # one sum per weight: its partial sums stay below it
            d += w * (((e & fields) * self.ones >> low) & _FIELD)
        return d


def _monus(a, b, guard):
    """The packed exponents max(a_i - b_i, 0) of packed exponents a, b."""
    t = (a | guard) - b  # each field 2^15 + a_i - b_i: guard set where a_i >= b_i
    sel = t & guard
    return t & (sel - (sel >> (_W - 1)))  # a_i - b_i there, 0 elsewhere


def _minimal(exps, guard):
    """Minimal generators of the monomial ideal of the packed exponents exps,
    smallest first: a divisor is a smaller int than its multiples."""
    out = []
    for e in sorted(set(exps)):
        if all((e - f) & guard for f in out):
            out.append(e)
    return out


def _vec_to_dict(v, lay):
    return {lay.packed[exps] + (comp << lay.comp_shift): c for comp, poly in enumerate(v.components)
            for exps, c in poly.terms.items()}


def _dict_to_vec(ctx, rank, items, lay):
    polys = [{} for _ in range(rank)]
    for x, c in items:
        polys[x >> lay.comp_shift][lay.exps[x & lay.exp_mask]] = c
    return VectorPolynomial(tuple(Polynomial(ctx, terms) for terms in polys))


_layout = cache(_Layout)  # one unweighted layout per (m, block)


# Packed vectors {term: coefficient} over a PolyContext ctx, with no
# elimination block: other modules handle them only through these.

def pack_polynomial(f):
    """The Polynomial f as a packed vector of component 0."""
    lay = _layout(f.ctx.nvars, 0)
    return {lay.packed[e]: c for e, c in f.terms.items()}


def in_components(ctx, parts):
    """The packed vector that holds, for each (d, j) in parts, the packed
    vector d of component 0 moved into component j; the j are distinct."""
    cs = _layout(ctx.nvars, 0).comp_shift
    return {u + (j << cs): c for d, j in parts for u, c in d.items()}


def term_component(ctx, u):
    """Component of the packed term u."""
    return u >> _layout(ctx.nvars, 0).comp_shift


def term_degrees(ctx, d, shifts):
    """The degrees of the terms of the packed vector d, component c shifted by shifts[c]."""
    lay = _layout(ctx.nvars, 0)
    return {shifts[u >> lay.comp_shift] + TOP - (u >> lay.deg_shift & _FIELD) for u in d}


def unpack_vector(ctx, rank, d):
    """The packed vector d as a VectorPolynomial of the given rank."""
    return _dict_to_vec(ctx, rank, d.items(), _layout(ctx.nvars, 0))


def combine(ctx, columns, w, lay=None):
    """sum_v c_v x^mono(v) columns[comp(v)] over the terms c_v v of the
    packed vector w, each columns[j] a packed vector of the layout lay (by
    default the plain one of ctx): a matrix with those columns applied to
    w.  One addition per monomial product."""
    lay = lay or _layout(ctx.nvars, 0)
    cs = lay.comp_shift
    one = lay.packed[(0,) * lay.m]  # the term 1 of component 0
    acc = {}
    for v, b in w.items():
        j = v >> cs
        s = v - (j << cs) - one  # the monomial of v as an offset
        for u, c in columns[j].items():
            acc[u + s] = acc.get(u + s, 0) + c * b
    return {u: c % ctx.p for u, c in acc.items() if c % ctx.p}


class _Row:
    __slots__ = ("lt", "tail", "single", "sugar", "deg", "floor")

    def __init__(self, lt, tail, single, sugar, deg, floor):
        self.lt = lt            # the row is monic at lt
        self.tail = tail        # [(term, coefficient)] below lt
        self.single = single    # all terms share lt's component
        self.sugar = sugar      # degree the row would have if kept homogeneous
        self.deg = deg          # total degree of lt
        self.floor = floor      # t | elim_bits >= floor: the row times t / lt stays packable


def _make_row(d, p, sugar, lay):
    lt = min(d)
    inv = pow(d[lt], -1, p)
    tail = [(u, c * inv % p) for u, c in d.items() if u != lt]
    cs = lay.comp_shift
    comp = lt >> cs
    single = max(d) >> cs == comp  # the component sits above every other field
    deg = lay.degree(lt)
    top = TOP - min((u >> lay.deg_shift) & _FIELD for u in d)  # the largest term degree
    # t * row keeps every term within MAX_DEGREE iff TOP - deg(t) >= this
    excess = TOP - MAX_DEGREE + top - deg
    return _Row(lt, tail, single, sugar, deg,
                (comp << cs) | lay.elim_bits | (excess << lay.deg_shift))


def _normal_form_dict(vec, by_comp, p, lay):
    """Full normal form of a dict-vector against rows grouped by component.

    Terms wait in a min-heap of ints (the largest term first).  Each
    term's coefficient adds up unreduced in work and is reduced mod p once,
    when the term is popped; a term that is then 0 is dropped.
    """
    work = dict(vec)
    heap = list(work)
    heapify(heap)
    rem = {}
    guard = lay.guard
    cs = lay.comp_shift
    elim_bits = lay.elim_bits
    while heap:
        t = heappop(heap)
        c = work.pop(t) % p
        if not c:
            continue
        for r in by_comp.get(t >> cs, ()):
            if not (t - r.lt) & guard:
                break
        else:
            rem[t] = c
            continue
        if t | elim_bits < r.floor:
            raise _too_high("a reduction step")
        s = t - r.lt
        c = p - c
        # work -= c * x^s * row; its lead term cancels t, already removed
        for u, a in r.tail:
            nt = u + s
            b = work.get(nt)
            if b is None:
                work[nt] = a * c
                heappush(heap, nt)
            else:
                work[nt] = b + a * c
    return rem


def _spoly(f, g, lcm_t, lay):
    t = lcm_t | lay.elim_bits
    if t < f.floor or t < g.floor:
        raise _too_high("an S-polynomial")
    sf = lcm_t - f.lt
    out = {u + sf: a for u, a in f.tail}
    sg = lcm_t - g.lt
    for u, a in g.tail:
        out[u + sg] = out.get(u + sg, 0) - a
    return out


def _update_pairs(G, P, new_idx, lay, sign):
    """Gebauer-Moeller pair update after appending G[new_idx]; returns a heap
    of (sugar, sign * lcm, i, j) that keeps the waiting inputs (i = -1).  The
    criteria compare packed exponents; only a new pair gets its full lcm."""
    f = G[new_idx]
    ltf = f.lt
    cs, guard, mask = lay.comp_shift, lay.guard, lay.exp_mask
    comp, a = ltf >> cs, ltf & mask
    groups = {}  # the exponents of lcm(lt_i, lt_f) -> the rows i of f's component
    for i in range(new_idx):
        e = G[i].lt
        if e >> cs == comp:
            e &= mask
            groups.setdefault(e + _monus(a, e, guard), []).append(i)
    kept = []
    for rec in P:
        L = abs(rec[1])  # a pair's lcm: its key is sign * lcm, and terms are positive
        if L >> cs == comp and not (L - ltf) & guard and rec[2] >= 0:  # a waiting input is no pair
            e, b, c = L & mask, G[rec[2]].lt & mask, G[rec[3]].lt & mask
            if e != b + _monus(a, b, guard) and e != c + _monus(a, c, guard):
                continue  # chain criterion: the new lead term covers this pair
        kept.append(rec)
    f_excess = f.sugar - f.deg
    for e in _minimal(groups, guard):
        idxs = groups[e]  # in index order
        if f.single and any(G[i].single and (G[i].lt & mask) + a == e for i in idxs):
            continue  # coprime shortcut, sound for one-component rows
        i = idxs[0]
        L = lay.lcm(G[i].lt, ltf)
        kept.append((max(G[i].sugar - G[i].deg, f_excess) + lay.degree(L), sign * L, i, new_idx))
    heapify(kept)
    return kept


def _minimal_rows(by_comp, lay, tag_from):
    """Rows whose lead term no other row's divides, and every row led in
    a component >= tag_from, largest lead term last.  by_comp groups the
    rows by the component of their lead term, the only rows that can
    divide it.

    Lead terms are distinct: each row is a normal form against the rows
    before it.
    """
    guard = lay.guard
    keep = [r for comp, rows in by_comp.items() for r in rows
            if comp >= tag_from or not any(s is not r and not (r.lt - s.lt) & guard for s in rows)]
    keep.sort(key=lambda r: r.lt, reverse=True)
    return keep


def _reduce_tails(rows, p, lay):
    """The reduced basis of a minimal one, in the same order.

    Only a row with a smaller lead term can divide a tail term, so going
    up from the smallest lead term, each row reduces against rows already
    reduced.
    """
    by_comp = {}
    out = []
    cs = lay.comp_shift
    for r in rows:
        tail = _normal_form_dict(dict(r.tail), by_comp, p, lay)
        tail[r.lt] = 1
        row = _make_row(tail, p, r.sugar, lay)
        by_comp.setdefault(r.lt >> cs, []).append(row)
        out.append(row)
    return out


class _Deficit:
    """HF_J(d) - HF_Q(d), the lead terms a homogeneous rank-1 run still misses
    in degree d: J the ideal of its lead terms so far, Q the numerator of its
    quotient over prod_i (1 - s^w_i).  num is N(J) - Q; a new lead term u
    takes N(J) to N(J) - s^deg(u) N(J : u) (Bigatti, JPAA 1997)."""

    __slots__ = ("lay", "num", "folded")

    def __init__(self, q, lay):
        self.lay, self.folded = lay, 0
        self.num = _poly_add({0: 1}, {a: -b for a, b in q.items()})

    def at(self, d, G, P, vecs):
        """The count at the start of degree d; None while the work waiting there
        (each pair's tails, each input) is under 8 times the lead terms to fold."""
        if sum(len(vecs[j]) if i < 0 else len(G[i].tail) + len(G[j].tail)
               for s, _, i, j in P if s == d) < 8 * (len(G) - self.folded + 1):
            return None
        lay, mask, guard = self.lay, self.lay.exp_mask, self.lay.guard
        for k in range(self.folded, len(G)):
            u = G[k].lt & mask  # J : u is generated by lcm(g, u) / u over the lead terms g before u
            colon = _numerator(_minimal([_monus(r.lt & mask, u, guard) for r in G[:k]], guard), lay)
            deg = lay.degree(G[k].lt)
            self.num = _poly_add(self.num, {a + deg: -c for a, c in colon.items()})
        self.folded = len(G)
        hf = [self.num.get(a, 0) for a in range(d + 1)]  # num / prod_i (1 - s^w_i) up to degree d
        for w in lay.weights:
            for k in range(w, d + 1):
                hf[k] += hf[k - w]
        if hf[d] < 0:
            raise RuntimeError("degree %d has more lead terms than the Hilbert series allows" % d)
        return hf[d]


def _fills_degree(gens, m, d):
    """Does the monomial ideal of gens, packed exponents of m variables as in
    a term of degree <= MAX_DEGREE, hold every monomial of degree d?
    Recursion on the last field: the monomials of degree d with exponent e
    in it are covered when the generators with at most e of it cover degree
    d - e in the lower fields; exponents at or past its pure power are
    covered outright."""
    if m == 1:
        return any(g <= d for g in gens)
    shift = (m - 1) * _W
    low = (1 << shift) - 1
    pure = min((g >> shift for g in gens if not g & low), default=d + 1)
    for e in range(min(pure, d + 1)):
        level = [g & low for g in gens if g >> shift <= e]
        if not level or not _fills_degree(level, m - 1, d - e):
            return False
    return True


class GroebnerBasis:
    """Groebner basis of a submodule of F_p[x]^rank.

    Read-only.  lead_terms are the flat tuples (component, e1..em) of the
    minimal basis, sorted from the smallest term up, unpacked on first
    read; generators is the reduced basis in that order, monic and
    computed on first read, so equal submodules give equal generators.
    pairs_used counts the S-pairs of this run alone; fresh lists the
    positions in the run's input of the vectors whose normal form was
    nonzero when they went in.
    """

    __slots__ = ("ctx", "rank", "pairs_used", "fresh", "_lay", "_rows", "_by_comp", "_lead_terms",
                 "_generators", "_numerators")

    def __init__(self, ctx, rank, rows, pairs_used, lay, fresh=()):
        self.ctx = ctx
        self.rank = rank
        self.pairs_used = pairs_used
        self.fresh = fresh
        self._lay = lay
        self._rows = rows
        by_comp = {}
        for r in rows:
            by_comp.setdefault(r.lt >> lay.comp_shift, []).append(r)
        self._by_comp = by_comp
        self._lead_terms = self._generators = self._numerators = None

    @property
    def lead_terms(self):
        if self._lead_terms is None:
            self._lead_terms = tuple(self._lay.unpack(r.lt) for r in self._rows)
        return self._lead_terms

    @property
    def generators(self):
        if self._generators is None:
            lay = self._lay
            self._generators = tuple(_dict_to_vec(self.ctx, self.rank, [(r.lt, 1)] + r.tail, lay)
                                     for r in _reduce_tails(self._rows, self.ctx.p, lay))
        return self._generators

    def _packed(self, v):
        if v.ctx != self.ctx or v.rank != self.rank:
            raise ContractError("vector of rank %d over %r against a basis of rank %d over %r"
                                % (v.rank, v.ctx, self.rank, self.ctx))
        return _vec_to_dict(v, self._lay)

    def reduce_terms(self, d):
        """Normal form of a packed vector (a basis with no elimination
        block), as a packed vector."""
        return _normal_form_dict(d, self._by_comp, self.ctx.p, self._lay)

    def normal_form(self, v):
        """Canonical remainder of v: no term divisible by a basis lead term."""
        return _dict_to_vec(self.ctx, self.rank, self.reduce_terms(self._packed(v)).items(), self._lay)

    def contains(self, v):
        return not self.reduce_terms(self._packed(v))

    def contains_products(self, gs, w):
        """[g*w lies in the submodule, for each Polynomial g in gs]."""
        if any(g.ctx != self.ctx for g in gs):
            raise ContractError("a multiplier is not over the basis's %r" % (self.ctx,))
        return self.contains_products_of_terms(gs, self._packed(w))

    def contains_products_of_terms(self, gs, d):
        """contains_products of w given as a packed vector: NF(g*w) =
        NF(g * NF(w)), so w is reduced once, then each g * NF(w) is built
        and reduced once, as every membership test is."""
        lay = self._lay
        vec = any(g.terms for g in gs) and self.reduce_terms(d)
        if not vec:  # every product is zero or in the submodule
            return [True] * len(gs)
        ws = [{lay.packed[e]: c for e, c in g.terms.items()} for g in gs]  # each g in component 0
        if max(map(lay.degree, vec)) + max(lay.degree(u) for w in ws for u in w) > MAX_DEGREE:
            raise _too_high("a product with a normal form")
        return [not self.reduce_terms(combine(self.ctx, [vec], w, lay)) for w in ws]

    def numerator(self, degrees=None):
        """Q with HS(F_p[x]^rank / submodule) = Q(s) / (1 - s)^m for a
        submodule homogeneous with basis vector c in degree degrees[c] (all
        0 by default) and an unweighted run, as a new dict with no zero
        coefficient: one hilbert_numerator per distinct component lead set,
        found once per basis, shifted and summed."""
        degrees = (0,) * self.rank if degrees is None else tuple(degrees)
        if len(degrees) != self.rank:
            raise ContractError("%d degrees for rank %d" % (len(degrees), self.rank))
        if self._numerators is None:
            lay = self._lay
            leads = [tuple(_minimal([r.lt & lay.exp_mask for r in self._by_comp.get(c, ())], lay.guard))
                     for c in range(self.rank)]
            nums = {exps: _numerator(exps, _layout(lay.m, 0)) for exps in set(leads)}
            self._numerators = tuple(nums[exps] for exps in leads)
        out = {}
        for d, num in zip(degrees, self._numerators):
            for k, c in num.items():
                out[k + d] = out.get(k + d, 0) + c
        return {k: c for k, c in out.items() if c}

    def colength(self):
        """Length of F_p[x]^rank / submodule, or INFINITE, off numerator().  Exact: each
        component's Hilbert function is nonnegative, so their sum has the largest
        component dimension and finite length exactly when every component has."""
        return dimension_and_length(self.numerator(), self.ctx.nvars)[1]


def buchberger(gens, budget=None, eliminate=0, tags=0, shifts=None, weights=None, hilbert=None):
    """Groebner basis of the submodule generated by gens.

    gens: nonempty sequence of VectorPolynomial of one common rank.
    Zero generators are skipped.  Raises BudgetExceededError when the
    pair count or lcm degree cap is hit, or a term would pass MAX_DEGREE.
    eliminate > 0 orders the terms of a component by their degree in the
    last `eliminate` variables first; the basis rows whose lead term is
    free of them, all their terms free of them, are a Groebner basis of
    the elimination module.  Rows led in the last `tags` components form
    no S-pairs and are all kept.  A term x^e of component c has degree
    shifts[c] (all 0 by default) plus sum_i weights[i] e_i (all weights 1
    by default); see the module text for homogeneous input and for the
    order of inputs and pairs, which follows from it.  Weighted
    runs do not stop early.  hilbert, the numerator of the quotient's
    Hilbert series over prod_i (1 - s^weights[i]) for homogeneous rank-1
    input (else ContractError), drops the rest of a degree once all its
    lead terms are found (Traverso 1996; Bigatti 1997): the same rows,
    fewer pairs charged, RuntimeError if the run finds more.
    """
    gens = list(gens)
    if not gens:
        raise AlgebraError("buchberger needs at least one generator to fix the rank")
    ctx = gens[0].ctx
    rank = gens[0].rank
    for g in gens:
        if g.ctx != ctx or g.rank != rank:
            raise ContractError("generators of rank %d over %r and rank %d over %r mixed"
                                % (rank, ctx, g.rank, g.ctx))
    shifts = (0,) * rank if shifts is None else tuple(shifts)
    if len(shifts) != rank:
        raise ContractError("%d degree shifts for rank %d" % (len(shifts), rank))
    if budget is None:
        budget = Budget()
    p = ctx.p
    m = ctx.nvars
    if not (0 <= eliminate <= m and 0 <= tags <= rank):
        raise ContractError("eliminate=%r and tags=%r for %d variables and rank %d: need 0 <= eliminate <= %d"
                            " and 0 <= tags <= %d" % (eliminate, tags, m, rank, m, rank))
    if weights is not None and (len(weights) != m or min(weights, default=1) < 1):
        raise ContractError("weights %r for %d variables: need one positive weight each" % (weights, m))
    weighted = weights is not None and any(w != 1 for w in weights)
    lay = _Layout(m, eliminate, weights) if weighted else _layout(m, eliminate)
    cs = lay.comp_shift
    ds = lay.deg_shift
    vecs = [_vec_to_dict(g, lay) for g in gens]
    # TOP - degree + shift is one number across each homogeneous vector
    homogeneous = all(len({(u >> ds & _FIELD) - shifts[u >> cs] for u in d}) <= 1 for d in vecs)
    if hilbert is not None and (rank > 1 or not homogeneous):
        raise ContractError("a Hilbert numerator drives homogeneous runs of rank 1 only")
    count = None if hilbert is None else _Deficit(hilbert, lay)
    sign = 1 if homogeneous else -1  # key sign * lcm: equal sugar pops largest lcm first, smallest at -1
    fresh = []
    G = []
    by_comp = {}
    start = budget.pairs_used
    tag_from = rank - tags

    def add(d, sugar):
        row = _make_row(d, p, sugar, lay)
        G.append(row)
        by_comp.setdefault(row.lt >> cs, []).append(row)
        return P if row.lt >> cs >= tag_from else _update_pairs(G, P, len(G) - 1, lay, sign)

    # input k waits under its degree, behind the pairs of that degree (its
    # lcm slot passes every term), in input order; inputs that are not
    # homogeneous go before every pair, smallest lead term first
    P = [(lay.degree(min(d)) + shifts[min(d) >> cs], (rank << cs) + k, -1, k) if homogeneous
         else (-1, -min(d), -1, k) for k, d in enumerate(vecs) if d]
    heapify(P)
    open_comps = range(rank)
    deg_done, deficit = 0, None  # deficit: lead terms still missing in degree deg_done, when counted
    while P:
        sugar, key, i, j = P[0]
        if homogeneous and sugar > deg_done:
            # every pair and input below this degree is done: stop if
            # nothing is left to find from here up, component c being
            # filled at degree sugar - shifts[c] (unweighted runs only)
            deg_done = sugar
            open_comps = [c for c in open_comps if weighted or sugar < shifts[c] or not _fills_degree(
                [r.lt & lay.exp_mask for r in by_comp.get(c, ())], m, sugar - shifts[c])]
            if not open_comps:
                break
            deficit = count and count.at(sugar, G, P, vecs)
        heappop(P)
        if i < 0:  # input j goes in, unless every lead term of its degree is found
            h = deficit != 0 and _normal_form_dict(vecs[j], by_comp, p, lay)
            if h:
                fresh.append(j)
                P = add(h, max(lay.degree(t) + shifts[t >> cs] for t in h))
                deficit = deficit and deficit - 1
            continue
        lcm_t = abs(key)
        deg = lay.degree(lcm_t)
        if deg > budget.max_degree:
            raise BudgetExceededError("degree", "degree budget exceeded: S-pair lcm degree %d > %d"
                                      % (deg, budget.max_degree))
        budget.max_degree_seen = max(budget.max_degree_seen, deg)
        if deficit == 0:
            continue  # every lead term of this degree is found: the rest reduces to zero
        budget.pairs_used += 1
        if budget.pairs_used > budget.max_pairs:
            raise BudgetExceededError("pairs", "pair budget exceeded: more than %d S-pairs" % budget.max_pairs)
        h = _normal_form_dict(_spoly(G[i], G[j], lcm_t, lay), by_comp, p, lay)
        if h:
            P = add(h, sugar)
            deficit = deficit and deficit - 1
    return GroebnerBasis(ctx, rank, _minimal_rows(by_comp, lay, tag_from), budget.pairs_used - start, lay,
                         tuple(fresh))


def syzygy_basis(gens, budget=None, modulo=()):
    """(syzygies, basis): generators of {a : sum a_i g_i in <modulo>} in
    F_p[x]^len(gens), each a packed vector (component i for gens[i]; see
    unpack_vector), and a GroebnerBasis of the submodule gens and modulo
    generate.

    Each g_i is tagged with a fresh component behind the original ones,
    the modulo vectors go in untagged, and buchberger pairs no two rows
    led in a tag component.  Such rows vanish in the original components,
    and by Schreyer's theorem (Schreyer 1980; Moeller, Mora and Traverso,
    ISSAC 1992) they generate the syzygies: the generators from the
    S-pair trace, unreduced, in basis order.
    """
    gens = list(gens)
    if not gens:
        raise ContractError("syzygies of no generators: the rank is unknown")
    ctx = gens[0].ctx
    rank = gens[0].rank
    k = len(gens)
    zero, one = ctx.zero(), ctx.one()
    ext = [VectorPolynomial(g.components + (zero,) * i + (one,) + (zero,) * (k - 1 - i))
           for i, g in enumerate(gens)]
    ext += [VectorPolynomial(v.components + (zero,) * k) for v in modulo]
    gb = buchberger(ext, budget, tags=k)
    lay = gb._lay
    cs = lay.comp_shift
    off = rank << cs  # u - off is the term u with its component shifted by -rank
    syz = [dict([(r.lt - off, 1)] + [(u - off, a) for u, a in r.tail])
           for r in gb._rows if r.lt >> cs >= rank]
    # The other rows, cut to the original components, lie in the image
    # and keep their lead terms, and every lead term of the image is a
    # multiple of one of them: they are a Groebner basis of the image.
    rows = [_make_row({u: a for u, a in [(r.lt, 1)] + r.tail if u >> cs < rank}, ctx.p, r.sugar, lay)
            for r in gb._rows if r.lt >> cs < rank]
    return syz, GroebnerBasis(ctx, rank, rows, gb.pairs_used, lay)


def ideal_module_basis(ctx, ideal_basis, rank):
    """GroebnerBasis of J * F_p[x]^rank, with no Groebner run: the rank-1
    basis of the ideal J (None for J = 0) copied into every component,
    since no S-pair joins two components."""
    lay = _layout(ctx.nvars, 0)
    rows = []
    if ideal_basis is not None:
        for c in range(rank):
            off = c << lay.comp_shift
            rows += [_Row(r.lt + off, [(u + off, a) for u, a in r.tail], r.single, r.sugar, r.deg,
                          r.floor + off) for r in ideal_basis._rows]
    rows.sort(key=lambda r: r.lt, reverse=True)
    return GroebnerBasis(ctx, rank, rows, 0, lay)


def hilbert_numerator(exp_vectors, weights=None):
    """Numerator N(s) of the Hilbert series of F_p[x1..xm] modulo the
    monomial ideal J that exp_vectors generate: HS(s) = N(s) / (1 - s)^m,
    as {degree: coefficient} with no zero coefficient.  N does not depend
    on m.  The unit ideal gives {}, the zero ideal {0: 1}.

    weights gives x_i the degree weights[i] (all 1 by default), and then
    HS = N(s) / prod_i (1 - s^weights[i]).  Weights 1 and Z for two sets
    of variables key the bidegree (a, b) as a + Z b, which is one to one
    while Z exceeds every a: the degree of the lcm of the first set's
    parts of the generators.

    Each generator is packed once into the engine's exponent fields, and
    one of total degree past MAX_DEGREE raises BudgetExceededError
    ("degree").  On them runs Bigatti's pivot recursion (JPAA 1997): for a
    monomial P outside J, N(J) = N(J + (P)) + s^deg(P) N(J : P).  A
    generator that shares no variable with any other one splits off as a
    factor 1 - s^deg.
    """
    gens = [tuple(g) for g in exp_vectors]
    m = len(weights) if weights is not None else len(gens[0]) if gens else 0
    for g in gens:
        if len(g) != m or min(g, default=0) < 0:
            raise ContractError("exponent vector %r: need %d nonnegative entries" % (g, m))
    lay = _Layout(m, 0, weights)
    pack = _layout(m, 0)._pack  # checks the total degree; no memo, as these are no terms of a run
    return _numerator(_minimal([pack(g) & lay.exp_mask for g in gens], lay.guard), lay)


def dimension_and_length(num, m):
    """(Krull dimension, length) of the module of hilbert_function: the
    sum of its Hilbert function, INFINITE past dimension 0."""
    dim, hf = hilbert_function(num, m)
    return dim, INFINITE if hf is None else sum(hf.values())


def hilbert_function(num, m):
    """(Krull dimension, Hilbert function) of a graded module with Hilbert
    series Q(s) / (1 - s)^m, for the Laurent polynomial Q = num given as
    {degree: coefficient}: a hilbert_numerator, or a signed sum of them
    shifted by degrees.  The function is {degree: value} over the degrees
    where it is nonzero, and None past dimension 0.

    Q = (1 - s) R exactly when the coefficients of Q sum to 0, and then
    R's coefficients are the partial sums of Q's.  The dimension is m
    less the number of divisions made before the sum is nonzero.  Q = 0,
    the zero module, gives dimension -1 and the function {}.
    """
    low = min(num, default=0)
    coeffs = [num.get(d, 0) for d in range(low, max(num) + 1)] if num else []
    if not any(coeffs):
        return -1, {}
    for d in range(m, 0, -1):
        partial = list(accumulate(coeffs))
        if partial[-1]:
            return d, None
        coeffs = partial[:-1]
    return 0, {low + k: c for k, c in enumerate(coeffs) if c}


def _numerator(gens, lay):
    """hilbert_numerator of the minimal generators gens, packed exponent
    fields of lay, under its weights."""
    if 0 in gens:
        return {}
    guard = lay.guard
    supports = [((g | guard) - lay.ones) & guard for g in gens]  # the guard bits of g's nonzero fields
    seen = shared = uses = 0
    for s in supports:
        shared |= seen & s
        seen |= s
        uses += s >> (_W - 1)  # per field, the number of generators using it
    out = {0: 1}
    for g, s in zip(gens, supports):
        if not s & shared:  # no variable in common with another generator: a factor 1 - s^deg
            d = lay.degree_of(g)
            out = _poly_add(out, {k + d: -c for k, c in out.items()})
    rest = [g for g, s in zip(gens, supports) if s & shared]
    if not rest:
        return out
    # pivot x_v^e: v in the most generators, e the median exponent of the
    # generators other than a pure power of v, so that x_v^e lies outside J
    # and divides exactly the generators with at least e of x_v
    v = max(range(lay.m), key=lambda i: (uses >> i * _W & _FIELD, -i))
    f = _FIELD << (v * _W)
    exps = sorted(g & f for g in rest if g & f and g & ~f)
    pivot = exps[len(exps) // 2]
    e = pivot >> v * _W
    added = _numerator([g for g in rest if g & f < pivot] + [pivot], lay)
    colon = _numerator(_minimal([_monus(g, pivot, guard) for g in rest], guard), lay)
    inner = _poly_add(added, {k + e * lay.weights[v]: c for k, c in colon.items()})
    prod = {}
    for a, x in out.items():
        prod = _poly_add(prod, {a + b: x * y for b, y in inner.items()})
    return prod


def _poly_add(a, b):
    out = dict(a)
    for k, c in b.items():
        c += out.get(k, 0)
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out
