"""Correctness checks of every benchmark answer, run outside the timed part.

Answers are compared with tests/oracles.py, which counts lengths with
dense degreewise linear algebra and never touches the Groebner code, and
with properties the mathematics forces.  No check compares with a saved
copy of the program's output.  Each check function returns a list of
problems; an empty list means the answer is right.
"""

import json
from itertools import combinations
from math import comb

from workloads import COHEN_MACAULAY, P


def _columns(mat):
    return [[dict(e.rep.terms) for e in col] for col in mat.columns()]


def _ideal(ring):
    return [dict(g.terms) for g in ring.ideal_gens]


def _minors(oracles, mat):
    nv = mat.ring.ctx.nvars
    out = []
    for cols in combinations(range(mat.n), mat.r):
        cells = [[dict(mat.entries[i][j].rep.terms) for j in cols] for i in range(mat.r)]
        out.append(oracles.leibniz_det_terms(cells, P, nv))
    return out


def _module_length(oracles, ring, mat):
    return oracles.module_length(P, ring.ctx.nvars, mat.r, _columns(mat), _ideal(ring))


def _fitting_length(oracles, ring, mat):
    return oracles.ideal_length(P, ring.ctx.nvars, _minors(oracles, mat), _ideal(ring))


def check_lambda(oracles, item, res):
    """lambda(k) for k <= 3 and l(F/N) by the dense oracles; e0 = l(F/N)
    because every ring of the workload is Cohen-Macaulay."""
    case, ring, mat = item
    bad = []
    values = res["values"]
    for k in range(1, 4):
        want = oracles.lambda_oracle(P, ring.ctx.nvars, _columns(mat), _ideal(ring), k)
        if values[k - 1] != want:
            bad.append("lambda(%d) = %s, oracle %s" % (k, values[k - 1], want))
    length = _module_length(oracles, ring, mat)
    if values[0] != length:
        bad.append("lambda(1) = %s, oracle l(F/N) = %s" % (values[0], length))
    if case.ring in COHEN_MACAULAY and res["e0"] != length:
        bad.append("e0 = %s differs from l(F/N) = %s on a Cohen-Macaulay ring" % (res["e0"], length))
    return bad


def _analyze_doc(res):
    if res["code"] != 0:
        return None, ["exit code %d: %s" % (res["code"], res["stderr"].strip()[:200])]
    try:
        return json.loads(res["stdout"]), []
    except ValueError as exc:
        return None, ["output is not JSON: %s" % exc]


def _theorem_failures(doc, theorem_keys):
    return ["verdict %s is False" % k for k, v in doc["verdicts"].items()
            if v is False and k in theorem_keys]


def check_battery(oracles, item, res, theorem_keys):
    doc, bad = _analyze_doc(res)
    if doc is None:
        return bad
    if not isinstance(item, tuple):
        return _check_corpus_entry(item, doc, theorem_keys)
    case, ring, mat = item
    bad = _theorem_failures(doc, theorem_keys)
    if doc["verdicts"].get("parameter_module") is not True:
        bad.append("parameter_module is not true")
    lengths = doc["lengths"]
    mult = doc["multiplicity"] or {}
    len_f = _module_length(oracles, ring, mat)
    if lengths["F_mod_N"] != len_f:
        bad.append("F_mod_N = %s, oracle %s" % (lengths["F_mod_N"], len_f))
    table = mult.get("lambda_table") or [None]
    if table[0] != lengths["F_mod_N"]:
        bad.append("lambda_table[0] = %s differs from F_mod_N" % table[0])
    len_i = _fitting_length(oracles, ring, mat)
    if lengths["A_mod_IN"] != len_i:
        bad.append("A_mod_IN = %s, oracle %s" % (lengths["A_mod_IN"], len_i))
    e0 = mult.get("e0")
    if case.ring in COHEN_MACAULAY:
        if e0 != len_f:
            bad.append("e0 = %s differs from l(F/N) = %s on a Cohen-Macaulay ring" % (e0, len_f))
    elif e0 is None or e0 > len_f:
        bad.append("e0 = %s exceeds l(F/N) = %s" % (e0, len_f))
    return bad


def _check_corpus_entry(entry, doc, theorem_keys):
    """Corpus entries: the values frozen in corpus.py, which the dense
    oracles derived."""
    bad = _theorem_failures(doc, theorem_keys)
    mult = doc["multiplicity"] or {}
    chi = doc["chi"] or {"per_t": []}
    got = {
        "dim": doc["ring"]["dim"],
        "lambda": tuple(mult.get("lambda_table", ())),
        "coefficients": tuple(mult.get("coefficients", ())),
        "len_f": doc["lengths"]["F_mod_N"],
        "len_i": doc["lengths"]["A_mod_IN"],
        "parameter": doc["verdicts"].get("parameter_module"),
        "h_by_t": {row["t"]: tuple(row["H_lengths"]) for row in chi["per_t"]},
    }
    want = {
        "dim": entry.dim,
        "lambda": tuple(entry.lam),
        "coefficients": tuple(entry.coefficients),
        "len_f": entry.len_f,
        "len_i": entry.len_i,
        "parameter": entry.parameter,
        "h_by_t": dict(entry.h_by_t),
    }
    for key in want:
        if got[key] != want[key]:
            bad.append("%s %s = %s, frozen %s" % (entry.name, key, got[key], want[key]))
    return bad


def _expected_rank(r, n, t, p):
    if p >= t + 1:
        return comb(n, r + p - 1) * comb(p - t - 1 + r - 1, r - 1)
    return comb(n, p) * comb(t - p + r - 1, r - 1)


def _in_ideal(oracles, f, ideal, nvars):
    """Is the homogeneous polynomial f in the ideal?  Dense rank test in
    the degree of f."""
    if not f:
        return True
    degs = {sum(e) for e in f}
    if len(degs) != 1:
        return False
    d = degs.pop()
    monos = oracles.monomials_of_degree(nvars, d)
    pos = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal:
        dg = sum(next(iter(g)))
        if dg > d:
            continue
        for shift in oracles.monomials_of_degree(nvars, d - dg):
            row = [0] * len(monos)
            for e, c in g.items():
                row[pos[tuple(a + b for a, b in zip(e, shift))]] = c % P
            rows.append(row)
    target = [0] * len(monos)
    for e, c in f.items():
        target[pos[e]] = c % P
    return oracles.rank_mod_p(rows + [target], P) == oracles.rank_mod_p(rows, P)


def check_homology(oracles, koszul, item, res):
    """Properties of one (matrix, t) answer; the dense homology oracle is
    far too slow for these complexes, so lengths are pinned where the
    theory identifies them."""
    case, ring, mat, t = item
    bad = []
    if res["violations"]:
        bad.append("annihilation violations %s" % (res["violations"][:3],))
    chis = res["chis"]
    if any(c < 0 for c in chis):
        bad.append("negative chi_q in %s" % (chis,))
    if chis[0] != 0:
        bad.append("chi_0 = %s, but n > d + r - 1 forces 0" % chis[0])
    if t == 1:
        want = _module_length(oracles, ring, mat)
        if res["lengths"][0] != want:
            bad.append("H_0 at t=1 is %s, oracle l(F/N) = %s" % (res["lengths"][0], want))
    if t == 0:
        want = _fitting_length(oracles, ring, mat)
        if res["lengths"][0] != want:
            bad.append("H_0 at t=0 is %s, oracle l(A/I(N)) = %s" % (res["lengths"][0], want))
    ranks = tuple(_expected_rank(mat.r, mat.n, t, p) for p in range(mat.n - mat.r + 2))
    if res["ranks"] != ranks:
        bad.append("ranks %s, binomial formula %s" % (res["ranks"], ranks))
    cx = koszul.build_koszul(mat, t, check=False)
    nv, ideal = ring.ctx.nvars, _ideal(ring)
    for p in range(1, cx.length):
        a = [[dict(e.rep.terms) for e in row] for row in cx.differential(p)]
        b = [[dict(e.rep.terms) for e in row] for row in cx.differential(p + 1)]
        prod = oracles.matmul_dicts(a, b, P, nv)
        if not all(_in_ideal(oracles, cell, ideal, nv) for row in prod for cell in row):
            bad.append("d_%d o d_%d is not zero" % (p, p + 1))
    return bad


def t_dependent_rank_one(items, results):
    """Names of rank-1 cases whose lengths differ between two t: for
    r = 1 every t gives the ordinary Koszul complex."""
    by_case = {}
    for item, res in zip(items, results):
        case = item[0]
        if case.r == 1 and res is not None:
            by_case.setdefault(case.name, set()).add(tuple(res["lengths"]))
    return {name for name, seen in by_case.items() if len(seen) > 1}
