"""Buchsbaum-Rim multiplicity of a parameter module and theorem reports.

For N inside F = A^r presented by an r x n matrix, the length function

    lambda(k) = length of S_k(F) / R_k(N)

(R_k = image of the k-fold products of the columns inside the k-th
symmetric power) eventually agrees with a polynomial of degree
D = dim A + r - 1 written in the binomial basis

    P(k) = sum_(i=0..D) (-1)^i e_i binom(k + D - 1 - i, D - i),

and e_0 is the multiplicity.

lambda is counted in the Rees algebra R(N) = A[l_1..l_n] inside
S(F) = A[T_1..T_r], l_j = sum_i a_ij T_i, whose degree-k part is R_k(N):
lambda(k) = dim S_k(F) - dim R_k(N), degree by degree.  One weighted
Groebner run per matrix gives R(N) = F_p[x, y]/E, E the part of
(I, y_j - l_j) free of T (Simis, Ulrich and Vasconcelos, Proc. LMS 2003;
Buchsbaum and Rim, Trans. AMS 1964); the weights make every input
homogeneous.  One Hilbert series of the lead terms of E (Bigatti, JPAA
1997), graded by degree and by k, against that of S(F) gives every
lambda(k) at once: its generating function in k is R(z) / (1 - z)^(D + 1)
for an integer polynomial R, which yields the exact polynomial P, its
coefficients and a proven index from which lambda equals P.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .groebner import buchberger, dimension_and_length, hilbert_numerator
from .poly import (
    INFINITE,
    AlgebraError,
    BudgetExceededError,
    ContractError,
    PolyContext,
    Polynomial,
    Record,
    VectorPolynomial,
)
from .rings import ideal_colength, is_parameter_module
from .koszul import ModuleMatrix, build_koszul, fitting_ideal, sym_basis, verify_complex
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
    labels = sym_basis(r, k)
    index = {m: i for i, m in enumerate(labels)}
    zero = ring.zero()
    gens = []
    for _, acc in level:
        vec = [zero] * len(labels)
        for mono, c in acc.items():
            vec[index[mono]] = c
        gens.append(tuple(vec))
    return labels, gens


def _rees_lengths(matrix, budget):
    """[R_0, R_1, ...], R_j the length (int or INFINITE) of Q_j(s) / (1 - s)^m:

        sum_k H_k(s) z^k = sum_j Q_j(s) z^j / ((1 - s)^m prod_w (1 - s^w z)),

    H_k the Hilbert series of S_k(F)/R_k(N), w over the degrees of T and y.
    lambda_value and br_function_table read the Rees run only through these.

    R(N) = F_p[x, y]/E, E the part of (I, y_j - l_j) free of T: one
    buchberger run eliminates T, with x of degree 1, T_i of degree e_i + c
    and y_j of degree d_j + c (row shifts e, column degrees d, c = 1 - min
    e), which make every input homogeneous.  The rows led free of T give
    in(E), whose numerator N_E(s, z) is over prod_j (1 - s^(d_j + c) z);
    S(F) has the ring's N_A(s), the z^0 part of N_E as E meets F_p[x] in
    I, over prod_i (1 - s^(e_i + c) z), and the run's quotient is A[T].
    Shifting every e_i and d_j by c multiplies H_k by s^(ck) and changes
    no length.
    """
    ctx = matrix.ring.ctx
    m, r, n = ctx.nvars, matrix.r, matrix.n
    c = 1 - min(matrix.row_shifts)
    t_deg = tuple(e + c for e in matrix.row_shifts)
    y_deg = tuple(d + c for d in matrix.col_degrees)
    pad = "_" * (1 + max(len(nm) for nm in ctx.names))  # longer than every ring variable's name
    big = PolyContext(ctx.p, ctx.names + tuple("%sy%d" % (pad, j) for j in range(n))
                      + tuple("%sT%d" % (pad, i) for i in range(r)))

    def vector(*parts):  # sum of f * (new variable v, or 1) over (f, v), no monomial shared
        return VectorPolynomial((Polynomial(big, {e + tuple(int(i == v) for i in range(n + r)): a
                                                  for f, v in parts for e, a in f.terms.items()}),))

    gens = [vector((g, None)) for g in matrix.ring.ideal_gens]
    gens += [vector((ctx.one(), j), *((-a.rep, n + i) for i, a in enumerate(col)))
             for j, col in enumerate(matrix.columns())]  # y_j - l_j

    def over(num, degrees):  # num, keyed (z-degree, degree), times prod_w (1 - s^w z)
        for w in degrees:
            out = dict(num)
            for (j, a), b in num.items():
                out[j + 1, a + w] = out.get((j + 1, a + w), 0) - b
            num = out
        return num

    s_f = over({(0, a): b for a, b in matrix.ring.numerator.items()}, y_deg)
    q = {}  # s_f at z = 1: A[T] = F_p[x, y, T]/(I, y_j - l_j) over every variable's 1 - s^w
    for (_, a), b in s_f.items():
        q[a] = q.get(a, 0) + b
    gb = buchberger(gens, budget, eliminate=r, weights=(1,) * m + y_deg + t_deg, hilbert=q)
    leads = [t[1:m + n + 1] for t in gb.lead_terms if not any(t[m + n + 1:])]
    # z is s^Z, with Z above the degree of the lcm of the lead terms
    Z = 1 + sum(max((t[i] for t in leads), default=0) * w for i, w in enumerate((1,) * m + y_deg))
    n_e = {divmod(key, Z): a for key, a in hilbert_numerator(leads, (1,) * m + tuple(w + Z for w in y_deg)).items()}

    series = [{} for _ in range(1 + max(j for j, _ in n_e) + r + n)]
    for sign, num in ((1, s_f), (-1, over(n_e, t_deg))):
        for (j, a), b in num.items():
            series[j][a] = series[j].get(a, 0) + sign * b
    return [dimension_and_length(num, m)[1] for num in series]


def lambda_value(matrix, k, budget=None):
    """length of S_k(F)/R_k(N); k = 0 gives 0.  INFINITE when not finite.

    lambda(k) = sum_(j<=k) binom(k - j + r + n - 1, r + n - 1) R_j over the
    R_j of _rees_lengths: the length of H_k(s) with each 1 - s^w z made
    1 - z, which adds only terms (1 - s) h(s) H_t(s), t < k, and so changes
    no finite length.  INFINITE exactly when one of R_0..R_k is: R_0 = 0,
    R_1 = l(F/N), and each Q_j / (1 - s)^m is a signed sum of s^a H_t(s),
    t <= j, all finite when l(F/N) is.  Every call makes the Groebner run
    and charges it to budget; br_function_table makes it once for the table.
    """
    if k < 0:
        raise ContractError("symmetric power k must be at least 0, got %d" % k)
    if k == 0:
        return 0
    R = _rees_lengths(matrix, budget)[:k + 1]
    if INFINITE in R:
        return INFINITE
    q = matrix.r + matrix.n
    return sum(comb(k - j + q - 1, q - 1) * c for j, c in enumerate(R))


class BRFunctionTable(Record):
    """Computed lambda values and the polynomial lambda agrees with.

    values[i] = lambda(i+1) for i < stable_from + D + 2 (D = degree =
    dim A + r - 1); stable_from is proven: lambda(k) = polynomial_value(k)
    for every k >= stable_from, and not at stable_from - 1.
    """

    __slots__ = ("degree", "values", "stable_from", "e0", "coefficients")

    def polynomial_value(self, k):
        D = self.degree
        acc = 0
        for i, e in enumerate(self.coefficients):
            acc += (-1) ** i * e * comb(k + D - 1 - i, D - i)
        return acc


def br_function_table(matrix, ring_dim, budget=None):
    """lambda, its polynomial and where the two start to agree, from one
    bigraded Hilbert series of R(N).

    With R_j of _rees_lengths, sum_k lambda(k) z^k is
    R(z) / (1 - z)^(r + n).  Dividing R by (1 - z) while R(1) = 0 leaves
    R'(z) / (1 - z)^(D + 1), so
    lambda(k) = sum_(j<=k) R'_j binom(k - j + D, D).  P(k), the same sum
    over every j with each binomial a polynomial in k, equals lambda for
    every k >= deg R' - D, since binom(t, D) vanishes at t = 0..D-1 as a
    polynomial, and differs by (-1)^D R'_(deg R') at k = deg R' - D - 1:
    stable_from is max(1, deg R' - D).  e_i = sum_j binom(j, i) R'_(j+1)
    (R'_0 = lambda(0) = 0).  values runs to stable_from + D + 2.  A pole
    order other than D + 1, or an infinite R_j past R_1, is a program
    fault (RuntimeError).  ring_dim must be the ring's dimension.
    """
    if ring_dim != matrix.ring.dimension:
        raise ContractError("ring_dim %d differs from the ring's dimension %d"
                            % (ring_dim, matrix.ring.dimension))
    D = ring_dim + matrix.r - 1
    R = _rees_lengths(matrix, budget)
    if INFINITE in R[:2]:
        raise AlgebraError("lambda(1) is infinite; the module has no finite colength")
    if INFINITE in R:
        raise RuntimeError("a z-degree of the lambda series has infinite length")
    pole = matrix.r + matrix.n
    while R and not sum(R):
        R = list(accumulate(R))[:-1]
        pole -= 1
    if not R or pole != D + 1:
        raise RuntimeError("the lambda series R(z) / (1 - z)^%d is not of pole order D + 1 = %d"
                           % (pole, D + 1))
    while not R[-1]:
        R.pop()
    coefficients = tuple(sum(comb(j, i) * c for j, c in enumerate(R[1:])) for i in range(D + 1))
    s = max(1, len(R) - 1 - D)
    values = tuple(sum(c * comb(k - j + D, D) for j, c in enumerate(R[:k + 1]))
                   for k in range(1, s + D + 3))
    return BRFunctionTable(D, values, s, coefficients[0], coefficients)


# Every verdict key, in report order, with the text of its violation, or
# None for a key that describes the instance and may well be False.
VERDICTS = {
    "square_zero": "consecutive differentials do not compose to zero",
    "annihilation": "a maximal minor fails to annihilate some homology class",
    "finite_colength": None,
    "inside_max_ideal": None,
    "parameter_module": None,
    "chi_nonnegative": "a partial Euler characteristic is negative",
    "chi0_t_independent": "chi_0 depends on t",
    "chi0_rank_case": "chi_0 disagrees with the multiplicity / zero dichotomy",
    "lengths_equal": None,
    "colength_ge_e0": "l(F/N) < e_0",
    "fitting_colength_ge_e0": "l(A/I(N)) < e_0",
    "h0_ge_e0_all_t": "l(H_0) < e_0 for some t",
    "h0_t1_equals_colength": "l(H_0) at t = 1 differs from l(F/N)",
    "h0_t0_equals_fitting_colength": "l(H_0) at t = 0 differs from l(A/I(N))",
    "cm_witness": None,
}

# Verdict keys that state theorems, so False means a genuine violation.
THEOREM_VERDICTS = frozenset(k for k, text in VERDICTS.items() if text is not None)


class BRReport(Record):
    """Everything the theorem suite knows about one ring/matrix instance."""

    __slots__ = {"matrix": "its ring is matrix.ring", "parameter": "ParameterVerdict; l(F/N) is its colength",
                 "len_a_mod_in": "int or INFINITE", "table": "BRFunctionTable, or None when l(F/N) is infinite",
                 "chi_rows": "EulerTable per t, empty when lengths are infinite", "verdicts": None}

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
    applied to each complex after construction (test hook).  Verdicts
    come in VERDICTS order: True/False for statements the theory forces
    on this input, None for ones that do not apply (non-parameter
    modules, infinite colengths).  For r = 1, K(a; t) and its label
    degrees do not depend on t (Buchsbaum and Rim, Trans. AMS 1964), so
    that complex is built, checked and presented once.
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
    verdict = is_parameter_module(ring, matrix.submodule(), budget)
    len_f = verdict.colength
    minors = fitting_ideal(matrix)
    # for r = 1 the maximal minors are the entries, so I(N) = N
    len_i = len_f if r == 1 else ideal_colength(ring, minors, budget)
    finite = len_f is not INFINITE
    table = br_function_table(matrix, d, budget) if finite else None
    if finite and table.values[0] != len_f:  # S_1(F)/R_1(N) = F/N: two runs must agree
        raise RuntimeError("lambda(1) = %d differs from l(F/N) = %d" % (table.values[0], len_f))
    e0 = table.e0 if finite else None
    verdicts = dict.fromkeys(VERDICTS)
    verdicts.update(square_zero=True, annihilation=True, finite_colength=finite,
                    inside_max_ideal=verdict.inside_max_ideal, parameter_module=verdict.ok)

    chi_rows = []
    for t in range(tmin, tmax + 1):
        if r > 1 or t == tmin:
            cx = build_koszul(matrix, t, check=False)
            if mutate is not None:
                mutate(cx)
            tab = None
            if verify_complex(cx):
                verdicts["square_zero"] = False  # homology of a non-complex means nothing
            else:
                pres = all_homology(cx, budget)
                if annihilation_check(cx, minors, pres, budget):
                    verdicts["annihilation"] = False
                if finite:
                    tab = euler_characteristics(cx, budget, pres)
        if tab is not None:
            chi_rows.append(tab.replace(t=t))  # for r = 1 one table serves every t

    if finite:
        chi0s = [row.chis[0] for row in chi_rows]
        verdicts["chi_nonnegative"] = all(c >= 0 for row in chi_rows for c in row.chis)
        verdicts["chi0_t_independent"] = len(set(chi0s)) <= 1
        verdicts["chi0_rank_case"] = all(c == (e0 if n == d + r - 1 else 0) for c in chi0s)
        verdicts["lengths_equal"] = len_f == len_i
    if verdict.ok:
        verdicts["colength_ge_e0"] = len_f >= e0
        verdicts["fitting_colength_ge_e0"] = len_i >= e0
        h0 = {row.t: row.lengths[0] for row in chi_rows}
        verdicts["h0_ge_e0_all_t"] = all(v >= e0 for v in h0.values())
        if 1 in h0:
            verdicts["h0_t1_equals_colength"] = h0[1] == len_f
        if 0 in h0:
            verdicts["h0_t0_equals_fitting_colength"] = h0[0] == len_i
        verdicts["cm_witness"] = len_f == e0 or len_i == e0
    return BRReport(matrix, verdict, len_i, table, tuple(chi_rows), verdicts)


class SpreadSample(Record):
    __slots__ = ("matrix_text", "colength", "e0")

    @property
    def difference(self):
        return self.colength - self.e0


class SpreadResult(Record):
    """Observed values of length(F/N) - e(F/N) over random parameter modules.

    For rings where that difference is independent of N the multiset is
    constant; the report only states what was seen.
    """

    __slots__ = ("seed", "entry_degree", "samples", "differences")


def random_parameter_matrix(ring, r, rng, entry_degree=1, attempts=200, budget=None):
    """Draw r x (dim A + r - 1) matrices with random homogeneous entries
    until one presents a parameter module."""
    ctx = ring.ctx
    n = ring.dimension + r - 1
    monos = sorted(sym_basis(ctx.nvars, entry_degree))
    for _ in range(attempts):
        entries = [[ring.element(Polynomial(ctx, {m: c for m in monos if (c := rng.randrange(ctx.p))}))
                    for _j in range(n)] for _i in range(r)]
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
        table = br_function_table(mat, ring.dimension, budget)
        out.append(SpreadSample(str(mat), table.values[0], table.e0))  # lambda(1) = l(F/N)
    return SpreadResult(seed, entry_degree, tuple(out), tuple(s.difference for s in out))
