"""Invariant verification and corpus diffing.

Every check run here is a proved statement about the objects involved,
so a reported violation demonstrates an implementation bug, not a
property of the input.  Violations carry a reproduction: the serialized
problem text for the instance that failed.
"""

from .corpus import ENTRIES
from .dsl import build, spec_of
from .multiplicity import VERDICTS, theorem_check
from .poly import Record


class Violation(Record):
    __slots__ = {"kind": None, "detail": None, "repro": "problem text reproducing the failure"}

    def __str__(self):
        return "violation [%s]: %s\nreproduce with:\n%s" % (self.kind, self.detail, self.repro)


def verify_instance(ring, matrix, budget=None, trange=None, mutate=None):
    """Run the full theorem suite on one instance; list what failed."""
    rep = theorem_check(matrix, trange=trange, budget=budget, mutate=mutate)
    repro = spec_of(ring, matrix).serialize()
    return rep, [Violation(key, VERDICTS[key], repro) for key in rep.failures]


def _expect(name, field, expected, got, text, out):
    if expected != got:
        out.append(Violation(
            "corpus_mismatch",
            "%s %s: expected %s, got %s" % (name, field, expected, got),
            text,
        ))


def check_corpus(entries=None, budget=None):
    """Analyze every corpus entry and diff against its frozen record.

    Returns (rows, violations) where rows are table tuples
    (name, d, r, n, len_F, len_I, e0, cm_witness, status), the witness
    as computed: yes, no or - for none (not a parameter module).
    """
    rows = []
    violations = []
    for entry in entries if entries is not None else ENTRIES:
        spec = entry.spec()
        ring, matrix = build(spec, budget)
        before = len(violations)
        rep, bad = verify_instance(ring, matrix, budget)
        violations.extend(bad)
        text = entry.text
        _expect(entry.name, "dim", entry.dim, ring.dimension, text, violations)
        _expect(entry.name, "lambda", tuple(entry.lam), tuple(rep.table.values), text, violations)
        _expect(entry.name, "coefficients", tuple(entry.coefficients),
                tuple(rep.table.coefficients), text, violations)
        _expect(entry.name, "e0", entry.e0, rep.e0, text, violations)
        _expect(entry.name, "len_F", entry.len_f, rep.len_f_mod_n, text, violations)
        _expect(entry.name, "len_I", entry.len_i, rep.len_a_mod_in, text, violations)
        _expect(entry.name, "mu", entry.mu, rep.parameter.mu, text, violations)
        _expect(entry.name, "parameter", entry.parameter, rep.parameter.ok, text, violations)
        cm_expected = (entry.len_f == entry.e0 or entry.len_i == entry.e0) if entry.parameter else None
        _expect(entry.name, "cm_witness", cm_expected,
                rep.verdicts["cm_witness"], text, violations)
        got_h = {row.t: tuple(row.h_lengths) for row in rep.chi_rows}
        _expect(entry.name, "homology lengths", entry.h_by_t, got_h, text, violations)
        got_chi = {row.t: tuple(row.chis) for row in rep.chi_rows}
        _expect(entry.name, "chi table", entry.chi_by_t(), got_chi, text, violations)
        status = "ok" if len(violations) == before else "MISMATCH"
        rows.append((entry.name, ring.dimension, matrix.r, matrix.n,
                     rep.len_f_mod_n, rep.len_a_mod_in, rep.e0,
                     {True: "yes", False: "no", None: "-"}[rep.verdicts["cm_witness"]], status))
    return rows, violations


def corpus_table(rows):
    header = ("name", "d", "r", "n", "l(F/N)", "l(A/I(N))", "e0", "witness", "status")
    all_rows = [header] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(r[i]) for r in all_rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(all_rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
