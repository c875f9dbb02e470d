"""Buchsbaum-Rim multiplicity of a parameter module and theorem reports.

For N inside F = A^r presented by an r x n matrix, the length function

    lambda(k) = length of S_k(F) / R_k(N)

(R_k = image of the k-fold products of the columns inside the k-th
symmetric power) eventually agrees with a polynomial of degree
D = dim A + r - 1 written in the binomial basis

    P(k) = sum_(i=0..D) (-1)^i e_i binom(k + D - 1 - i, D - i),

and e_0 is the multiplicity.

lambda is counted in the associated graded ring of J = (l_1..l_n) inside
B = S(F) = A[T_1..T_r], l_j = sum_i a_ij T_i.  R_k(N) = (J^k)_k, so
lambda(k) = sum_(i<k) dim (J^i/J^(i+1))_k.  Two Groebner runs per matrix
give gr_J(B) = F_p[x, T, y]/(K' + J), with the Rees ideal K' found by
eliminating u from (I, y_j - u l_j) (Vasconcelos, Computational Methods
in Commutative Algebra and Algebraic Geometry, 1998; Eisenbud, Huneke
and Ulrich, Proc. AMS 2003), and lambda(k) is the number of its standard
monomials x^a T^b y^c with |b| + |c| = k and |c| < k.  e_0 is read off as
the stabilized D-th finite difference of lambda; the full coefficient
vector comes from an exact solve on a stable window, cross-checked by
re-evaluating P against every stable value.  Where the window starts is
a heuristic; that it is found is not: lambda equals P from the sum of
the lead terms' (T, y) caps on, which bounds how many values are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .groebner import buchberger, dimension_and_length, elimination_basis, hilbert_numerator
from .poly import (
    INFINITE,
    AlgebraError,
    BudgetExceededError,
    ContractError,
    PolyContext,
    Polynomial,
    VectorPolynomial,
)
from .rings import ideal_colength, is_parameter_module, submodule_colength
from .koszul import build_koszul, fitting_ideal, sym_basis, verify_complex
from .homology import all_homology, annihilation_check, euler_characteristics

MAX_POWER_GENERATORS = 50_000


class SamplingError(AlgebraError):
    """Random search could not produce enough parameter modules."""


def rees_power_generators(matrix, k):
    """Generators of R_k(N) in the S_k basis, one per multiset of k columns.

    Returns (labels, gens): labels are the multidegrees of S_k(A^r), first
    row heaviest first, and gens lists the products of the multisets in
    the order of combinations_with_replacement, each a tuple of
    RingElements indexed like labels.  The products are built level by
    level inside Sym(F): the product of a multiset with last column c,
    times column j >= c, gives the product of the multiset with j added.
    Raises BudgetExceededError past MAX_POWER_GENERATORS generators.
    lambda_value does not build these; they present R_k(N) itself.
    """
    if k < 1:
        raise ContractError("symmetric power k must be at least 1, got %d" % k)
    r, n = matrix.r, matrix.n
    ring = matrix.ring
    count = comb(k + n - 1, k)
    if count > MAX_POWER_GENERATORS:
        raise BudgetExceededError(
            "expansion",
            "symmetric power needs %d generators, cap is %d" % (count, MAX_POWER_GENERATORS),
        )
    cols = [[(i, e) for i, e in enumerate(col) if not e.is_zero()] for col in matrix.columns()]
    # (last column, product as {multidegree: coefficient}) per multiset
    level = [(0, {(0,) * r: ring.one()})]
    for _ in range(k):
        nxt = []
        for last, acc in level:
            for j in range(last, n):
                prod = {}
                for mono, c in acc.items():
                    for i, ent in cols[j]:
                        m2 = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                        cur = prod.get(m2)
                        prod[m2] = ent * c if cur is None else cur + ent * c
                nxt.append((j, prod))
        level = nxt
    labels = tuple(s.multidegree for s in sym_basis(r, k))
    index = {m: i for i, m in enumerate(labels)}
    zero = ring.zero()
    gens = []
    for _, acc in level:
        vec = [zero] * len(labels)
        for mono, c in acc.items():
            vec[index[mono]] = c
        gens.append(tuple(vec))
    return labels, gens


def _gr_lead_terms(matrix, budget):
    """Lead terms of a Groebner basis of gr_J(B), split into x- and (T, y)-parts.

    B = A[T_1..T_r], J = (l_1..l_n)B with l_j = sum_i a_ij T_i, and
    gr_J(B) = F_p[x, T, y]/(K' + J), where the Rees ideal K' is the part
    of (I, y_j - u l_j) free of u.  Two Groebner runs: the elimination,
    then K' + J.  Returns [(x exponents, T and y exponents)].
    """
    ring = matrix.ring
    ctx = ring.ctx
    m, r, n = ctx.nvars, matrix.r, matrix.n
    # fresh names, longer than every ring variable's
    pad = "_" * (1 + max(len(nm) for nm in ctx.names))
    big = PolyContext(ctx.p, ctx.names + tuple(pad + "T%d" % i for i in range(r))
                      + tuple(pad + "y%d" % j for j in range(n)) + (pad + "u",))
    u = r + n  # the index of u among the new variables

    def times(f, *vs):
        """{exponents: coefficient} of f over A times the new variables vs"""
        mono = tuple(vs.count(v) for v in range(u + 1))
        return {e + mono: c for e, c in f.terms.items()}

    def vector(*parts):
        terms = {}
        for part in parts:
            terms.update(part)  # the parts share no monomial
        return VectorPolynomial((Polynomial(big, terms),))

    cols = matrix.columns()
    graph = [vector(times(g)) for g in ring.ideal_gens]
    graph += [vector(times(ctx.one(), r + j), *(times(-a.rep, i, u) for i, a in enumerate(col)))
              for j, col in enumerate(cols)]  # y_j - u l_j
    lin = [vector(*(times(a.rep, i) for i, a in enumerate(col))) for col in cols]
    gb = buchberger(elimination_basis(graph, 1, budget) + lin, budget)
    return [(t[1:m + 1], t[m + 1:m + 1 + u]) for t in gb.lead_terms]


def _patterns(caps, k):
    """Exponent vectors g with |g| = k grouped by min(g, caps): the pairs
    (min(g, caps), number of such g)."""
    out = []
    q = len(caps)

    def rec(v, left, key, free):
        if v == q:
            # the `free` capped coordinates share what is left
            if free:
                out.append((key, comb(left + free - 1, free - 1)))
            elif not left:
                out.append((key, 1))
            return
        cap = caps[v]
        for e in range(min(cap, left + 1)):
            rec(v + 1, left - e, key + (e,), free)
        if left >= cap:
            rec(v + 1, left - cap, key + (cap,), free + 1)

    rec(0, k, (), 0)
    return out


def _gr_lambda(matrix, budget):
    """(lambda for k >= 1, sum of the caps) from the lead terms of gr_J(B).

    The caps are the largest T and y exponents among the lead terms, a T cap
    raised to 1 to keep the patterns with b = 0 apart.  lambda keeps the
    x-part count of each capped pattern for its later k."""
    leads = _gr_lead_terms(matrix, budget)
    r, nvars = matrix.r, matrix.ring.ctx.nvars
    caps = [max((ty[v] for _, ty in leads), default=0) for v in range(r + matrix.n)]
    caps = [max(c, 1) for c in caps[:r]] + caps[r:]
    counts = {}

    def lam(k):
        total = 0
        for key, mult in _patterns(caps, k):
            if not any(key[:r]):
                continue
            n = counts.get(key)
            if n is None:
                n = counts[key] = dimension_and_length(hilbert_numerator(
                    [x for x, ty in leads if all(e <= g for e, g in zip(ty, key))]), nvars)[1]
            if n is INFINITE:
                return INFINITE
            total += n * mult
        return total

    return lam, sum(caps)


def lambda_value(matrix, k, budget=None):
    """length of S_k(F)/R_k(N); k = 0 gives 0.  INFINITE when not finite.

    lambda(k) = sum_(i<k) dim (J^i/J^(i+1))_k counts the standard
    monomials x^a T^b y^c of gr_J(B) with |b| + |c| = k and |c| < k, that
    is b != 0.  The x-part of a (b, c) pattern counts the monomials
    outside the x-parts of the lead terms whose (T, y)-part divides
    T^b y^c, which depends only on the pattern capped at the largest T
    and y exponents among the lead terms.  Every call runs both Groebner
    runs and charges them to budget; br_function_table runs them once
    for the whole table.
    """
    if k < 0:
        raise ContractError("symmetric power k must be at least 0, got %d" % k)
    if k == 0:
        return 0
    return _gr_lambda(matrix, budget)[0](k)


@dataclass(frozen=True)
class BRFunctionTable:
    """Computed lambda values and the finite-difference analysis.

    values[i] = lambda(i+1); stable_from is the first argument where the
    D-th difference is constant over a window of three and the full
    binomial refit reproduces every later value.
    """

    degree: int      # D = dim A + r - 1
    values: tuple
    stable_from: int
    e0: int
    coefficients: tuple

    def polynomial_value(self, k):
        D = self.degree
        acc = 0
        for i, e in enumerate(self.coefficients):
            acc += (-1) ** i * e * comb(k + D - 1 - i, D - i)
        return acc


def _differences(values):
    return tuple(b - a for a, b in zip(values, values[1:]))


def _solve_coefficients(D, n0, window):
    """Exact solve of P(n0+j) = window[j], j = 0..D, in the binomial basis."""
    rows = []
    for j in range(D + 1):
        k = n0 + j
        rows.append([Fraction((-1) ** i * comb(k + D - 1 - i, D - i)) for i in range(D + 1)]
                    + [Fraction(window[j])])
    m = D + 1
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    sol = [rows[i][m] for i in range(m)]
    if any(v.denominator != 1 for v in sol):
        return None
    return tuple(int(v) for v in sol)


def br_function_table(matrix, ring_dim, budget=None):
    """Count lambda(k) for k = 1, 2, ... until a window of values fits a polynomial.

    Stop at the first argument where some window start n0 satisfies: the
    D-th difference is constant over n0, n0+1, n0+2 (the (D+1)-th vanishes
    twice), the exact refit on lambda(n0..n0+D) has integer coefficients,
    and the refit reproduces every computed value from n0 on.  This window
    rule is a heuristic for the start index: it does not prove that lambda
    has reached its polynomial at n0.  The loop does end: each capped
    (T, y) pattern adds a binomial in k, so lambda equals its polynomial
    for every k >= S, the sum of the caps, and the window at the true
    start passes by k = S + D + 2.  Past that bound the code is at fault
    and RuntimeError is raised.  ring_dim must be the ring's dimension.
    """
    if ring_dim != matrix.ring.dimension:
        raise ContractError("ring_dim %d differs from the ring's dimension %d"
                            % (ring_dim, matrix.ring.dimension))
    D = ring_dim + matrix.r - 1
    lam, cap_sum = _gr_lambda(matrix, budget)
    values = []
    for k in range(1, cap_sum + D + 3):
        v = lam(k)
        if v is INFINITE:
            raise AlgebraError("lambda(%d) is infinite; the module has no finite colength" % k)
        values.append(v)
        found = _find_stable(D, values)
        if found is not None:
            n0, e0, coeffs = found
            return BRFunctionTable(D, tuple(values), n0, e0, coeffs)
    raise RuntimeError("no stable window in lambda(1..%d), past the proven bound" % len(values))


def _find_stable(D, values):
    if len(values) < D + 3:
        return None
    diffs = list(values)
    for _ in range(D):
        diffs = list(_differences(diffs))
    # diffs[i] is the D-th difference at argument i+1
    for i in range(len(diffs) - 2):
        if not diffs[i] == diffs[i + 1] == diffs[i + 2]:
            continue
        n0 = i + 1
        if n0 + D > len(values):
            continue
        coeffs = _solve_coefficients(D, n0, values[n0 - 1:n0 + D])
        if coeffs is None:
            continue
        table = BRFunctionTable(D, tuple(values), n0, coeffs[0], coeffs)
        if all(table.polynomial_value(k) == values[k - 1] for k in range(n0, len(values) + 1)):
            return n0, coeffs[0], coeffs
    return None


@dataclass(frozen=True)
class ChiRow:
    """Homology lengths and partial Euler characteristics of K(a; t)."""

    t: int
    h_lengths: tuple
    chis: tuple


# Verdict keys that state theorems, so False means a genuine violation.
# The remaining keys (parameter_module, lengths_equal, cm_witness, ...)
# describe the instance and may legitimately be False.
THEOREM_VERDICTS = frozenset(
    (
        "square_zero",
        "annihilation",
        "chi_nonnegative",
        "chi0_t_independent",
        "chi0_rank_case",
        "colength_ge_e0",
        "fitting_colength_ge_e0",
        "h0_ge_e0_all_t",
        "h0_t1_equals_colength",
        "h0_t0_equals_fitting_colength",
    )
)


@dataclass(frozen=True)
class BRReport:
    """Everything the theorem suite knows about one ring/matrix instance."""

    ring: object
    matrix: object
    parameter: object            # ParameterVerdict
    len_f_mod_n: object          # int or INFINITE
    len_a_mod_in: object         # int or INFINITE
    table: object                # BRFunctionTable or None
    e0: object                   # int or None
    coefficients: object         # tuple or None
    chi_rows: tuple              # ChiRow per t, empty when lengths are infinite
    square_zero_ok: bool
    annihilation_ok: bool
    verdicts: dict

    @property
    def ok(self):
        """No theorem-backed verdict failed (descriptive ones may be False)."""
        return not self.failures

    @property
    def failures(self):
        return tuple(
            k for k, v in self.verdicts.items() if v is False and k in THEOREM_VERDICTS
        )


def theorem_check(matrix, trange=None, budget=None, mutate=None):
    """Build the complexes, compute all invariants and judge the claims.

    trange defaults to [-1, min(dim A, n-r+1)].  mutate, when given, is
    applied to each complex after construction (test hook).  Verdict
    values: True/False for statements the theory forces on this input,
    None for ones that do not apply (non-parameter modules, infinite
    colengths).
    """
    ring = matrix.ring
    d = ring.dimension
    r, n = matrix.r, matrix.n
    top = n - r + 1
    if trange is None:
        trange = (-1, min(d, top))
    tmin, tmax = trange
    if not (-1 <= tmin <= tmax <= top):
        raise AlgebraError("t range [%d, %d] outside supported [-1, %d]" % (tmin, tmax, top))
    sub = matrix.submodule()
    verdict = is_parameter_module(ring, sub, budget)
    len_f = verdict.colength
    minors = fitting_ideal(matrix)
    # for r = 1 the maximal minors are the entries, so I(N) = N
    len_i = len_f if r == 1 else ideal_colength(ring, minors, budget)

    square_zero_ok = True
    annihilation_ok = True
    chi_rows = []
    complexes = {}
    for t in range(tmin, tmax + 1):
        cx = build_koszul(matrix, t, check=False)
        if mutate is not None:
            mutate(cx)
        if verify_complex(cx):
            square_zero_ok = False  # homology of a non-complex means nothing
        else:
            complexes[t] = cx

    finite = len_f is not INFINITE
    table = None
    e0 = None
    coefficients = None
    if finite:
        table = br_function_table(matrix, d, budget)
        e0 = table.e0
        coefficients = table.coefficients
    # equal differentials give equal homology: for r = 1 every t does
    seen = {}
    for t, cx in complexes.items():
        key = tuple(tuple(map(tuple, cx.differentials[p])) for p in range(1, cx.length + 1))
        if key not in seen:
            pres = all_homology(cx, budget)
            bad = annihilation_check(cx, minors, pres, budget)
            seen[key] = bad, euler_characteristics(cx, budget, pres) if finite else None
        bad, tab = seen[key]
        if bad:
            annihilation_ok = False
        if finite:
            chi_rows.append(ChiRow(t, tab.lengths, tab.chis))

    verdicts = {
        "square_zero": square_zero_ok,
        "annihilation": annihilation_ok,
        "finite_colength": finite,
        "inside_max_ideal": verdict.inside_max_ideal,
        "parameter_module": verdict.ok,
    }
    if finite:
        chi0s = [row.chis[0] for row in chi_rows]
        verdicts["chi_nonnegative"] = all(c >= 0 for row in chi_rows for c in row.chis)
        verdicts["chi0_t_independent"] = len(set(chi0s)) <= 1
        if n == d + r - 1:
            verdicts["chi0_rank_case"] = all(c == e0 for c in chi0s)
        else:
            verdicts["chi0_rank_case"] = all(c == 0 for c in chi0s)
        verdicts["lengths_equal"] = len_f == len_i
    else:
        verdicts["chi_nonnegative"] = None
        verdicts["chi0_t_independent"] = None
        verdicts["chi0_rank_case"] = None
        verdicts["lengths_equal"] = None
    if verdict.ok:
        verdicts["colength_ge_e0"] = len_f >= e0
        verdicts["fitting_colength_ge_e0"] = len_i >= e0
        h0 = {row.t: row.h_lengths[0] for row in chi_rows}
        verdicts["h0_ge_e0_all_t"] = all(v >= e0 for v in h0.values())
        verdicts["h0_t1_equals_colength"] = h0[1] == len_f if 1 in h0 else None
        verdicts["h0_t0_equals_fitting_colength"] = h0[0] == len_i if 0 in h0 else None
        verdicts["cm_witness"] = len_f == e0 or len_i == e0
    else:
        for key in (
            "colength_ge_e0",
            "fitting_colength_ge_e0",
            "h0_ge_e0_all_t",
            "h0_t1_equals_colength",
            "h0_t0_equals_fitting_colength",
            "cm_witness",
        ):
            verdicts[key] = None
    return BRReport(
        ring=ring,
        matrix=matrix,
        parameter=verdict,
        len_f_mod_n=len_f,
        len_a_mod_in=len_i,
        table=table,
        e0=e0,
        coefficients=coefficients,
        chi_rows=tuple(chi_rows),
        square_zero_ok=square_zero_ok,
        annihilation_ok=annihilation_ok,
        verdicts=verdicts,
    )


@dataclass(frozen=True)
class SpreadSample:
    matrix_text: str
    colength: int
    e0: int

    @property
    def difference(self):
        return self.colength - self.e0


@dataclass(frozen=True)
class SpreadResult:
    """Observed values of length(F/N) - e(F/N) over random parameter modules.

    For rings where that difference is independent of N the multiset is
    constant; the report only states what was seen.
    """

    seed: int
    entry_degree: int
    samples: tuple
    differences: tuple


def random_parameter_matrix(ring, r, rng, entry_degree=1, attempts=200, budget=None):
    """Draw r x (dim A + r - 1) matrices with random homogeneous entries
    until one presents a parameter module."""
    from .koszul import ModuleMatrix

    ctx = ring.ctx
    n = ring.dimension + r - 1
    monos = sorted(s.multidegree for s in sym_basis(ctx.nvars, entry_degree))
    for _ in range(attempts):
        entries = []
        for _i in range(r):
            row = []
            for _j in range(n):
                poly = ctx.zero()
                for m in monos:
                    c = rng.randrange(ctx.p)
                    if c:
                        poly = poly + ctx.monomial(m, c)
                row.append(ring.element(poly))
            entries.append(row)
        try:
            mat = ModuleMatrix(ring, entries)
        except ContractError:
            continue
        if is_parameter_module(ring, mat.submodule(), budget).ok:
            return mat
    raise SamplingError("no parameter module found in %d attempts" % attempts)


def buchsbaum_spread(ring, r, samples, seed, entry_degree=1, budget=None):
    """Sample random parameter modules and report length - multiplicity.

    Exploratory: the output is data, not a verdict.  Deterministic for a
    fixed seed.
    """
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        mat = random_parameter_matrix(ring, r, rng, entry_degree, budget=budget)
        ln = submodule_colength(ring, mat.submodule(), budget)
        e0 = br_function_table(mat, ring.dimension, budget).e0
        out.append(SpreadSample(str(mat), ln, e0))
    return SpreadResult(
        seed=seed,
        entry_degree=entry_degree,
        samples=tuple(out),
        differences=tuple(s.difference for s in out),
    )
