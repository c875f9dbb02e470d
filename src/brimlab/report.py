"""Report assembly and serialization (text, json, csv).

The json form is the machine format: json.loads(to_json(r)) == r.  The
csv form is a fixed-order flat projection: a CSV_COLUMNS header line and
one row of values, which csv.reader reads back.  Infinite lengths serialize
as the string "INFINITE" in both machine formats.
"""

import csv
import io
import json
from collections import Counter

from .poly import INFINITE

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "type": "object",
    "required": ["ring", "module", "lengths", "multiplicity", "chi", "verdicts", "telemetry"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "ring": {
            "type": "object",
            "required": ["p", "vars", "ideal", "dim"],
            "additionalProperties": False,
            "properties": {
                "p": {"type": "integer"},
                "vars": {"type": "array", "items": {"type": "string"}},
                "ideal": {"type": "array", "items": {"type": "string"}},
                "dim": {"type": "integer"},
            },
        },
        "module": {
            "type": "object",
            "required": ["r", "n", "matrix"],
            "additionalProperties": False,
            "properties": {
                "r": {"type": "integer"},
                "n": {"type": "integer"},
                "matrix": {"type": "array", "items": {"type": "array", "items": {"type": "string"}}},
            },
        },
        "lengths": {
            "type": "object",
            "required": ["F_mod_N", "A_mod_IN"],
            "additionalProperties": False,
            "properties": {
                "F_mod_N": {"oneOf": [{"type": "integer"}, {"const": "INFINITE"}]},
                "A_mod_IN": {"oneOf": [{"type": "integer"}, {"const": "INFINITE"}]},
            },
        },
        "multiplicity": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["e0", "coefficients", "lambda_table"],
                    "additionalProperties": False,
                    "properties": {
                        "e0": {"type": "integer"},
                        "coefficients": {"type": "array", "items": {"type": "integer"}},
                        # lambda_table[i] = length for symmetric power i+1
                        "lambda_table": {"type": "array", "items": {"type": "integer"}},
                    },
                },
            ]
        },
        "chi": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["per_t"],
                    "additionalProperties": False,
                    "properties": {
                        "per_t": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["t", "H_lengths", "chi_q"],
                                "additionalProperties": False,
                                "properties": {
                                    "t": {"type": "integer"},
                                    "H_lengths": {"type": "array", "items": {"type": "integer"}},
                                    "chi_q": {"type": "array", "items": {"type": "integer"}},
                                },
                            },
                        }
                    },
                },
            ]
        },
        "verdicts": {
            "type": "object",
            "additionalProperties": {"type": ["boolean", "null"]},
        },
        "telemetry": {
            "type": "object",
            "required": ["elapsed_ms", "gb_pairs"],
            "additionalProperties": False,
            "properties": {
                "elapsed_ms": {"type": "integer"},
                "gb_pairs": {"type": "integer"},
            },
        },
    },
}


def _len_json(v):
    return "INFINITE" if v is INFINITE else v


def ring_json(ring):
    """The "ring" part of a report: p, vars, ideal generators and dimension."""
    return {
        "p": ring.p,
        "vars": list(ring.names),
        "ideal": [str(g) for g in ring.ideal_gens],
        "dim": ring.dimension,
    }


def ring_text(doc):
    """F_p[vars] / (ideal) for the ring part of a report."""
    quot = " / (%s)" % ", ".join(doc["ideal"]) if doc["ideal"] else ""
    return "F_%d[%s]%s" % (doc["p"], ", ".join(doc["vars"]), quot)


def build_report(rep, elapsed_ms, gb_pairs):
    """Plain-data report dict for one analyzed instance."""
    mat = rep.matrix
    body = {
        "schema": SCHEMA_VERSION,
        "ring": ring_json(rep.ring),
        "module": {
            "r": mat.r,
            "n": mat.n,
            "matrix": [[str(e) for e in row] for row in mat.entries],
        },
        "lengths": {
            "F_mod_N": _len_json(rep.len_f_mod_n),
            "A_mod_IN": _len_json(rep.len_a_mod_in),
        },
        "multiplicity": None,
        "chi": None,
        "verdicts": dict(rep.verdicts),
        "telemetry": {"elapsed_ms": int(elapsed_ms), "gb_pairs": int(gb_pairs)},
    }
    if rep.table is not None:
        body["multiplicity"] = {
            "e0": rep.table.e0,
            "coefficients": list(rep.table.coefficients),
            "lambda_table": list(rep.table.values),
        }
    if rep.chi_rows:
        body["chi"] = {
            "per_t": [
                {"t": row.t, "H_lengths": list(row.h_lengths), "chi_q": list(row.chis)}
                for row in rep.chi_rows
            ]
        }
    return body


def to_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report):
    lines = []
    lines.append("ring        %s   dim %d" % (ring_text(report["ring"]), report["ring"]["dim"]))
    mod = report["module"]
    lines.append("module      rank %d, %d columns" % (mod["r"], mod["n"]))
    lines.append("matrix      %s" % "; ".join("[" + ", ".join(row) + "]" for row in mod["matrix"]))
    lens = report["lengths"]
    lines.append("lengths     l(F/N) = %s   l(A/I(N)) = %s" % (lens["F_mod_N"], lens["A_mod_IN"]))
    mult = report["multiplicity"]
    if mult is None:
        lines.append("e-vector    (none: infinite colength)")
    else:
        lines.append("lambda      %s" % " ".join(str(v) for v in mult["lambda_table"]))
        lines.append("e-vector    (%s)   e_0 = %d" % (", ".join(str(c) for c in mult["coefficients"]), mult["e0"]))
    if report["chi"] is not None:
        for i, row in enumerate(report["chi"]["per_t"]):
            head = "chi         " if i == 0 else "            "
            lines.append("%st=%d: H = (%s)  chi = (%s)" % (
                head, row["t"],
                ", ".join(str(v) for v in row["H_lengths"]),
                ", ".join(str(v) for v in row["chi_q"]),
            ))
    verd = report["verdicts"]
    shown = []
    for key in sorted(verd):
        val = verd[key]
        shown.append("%s=%s" % (key, "yes" if val is True else "NO" if val is False else "n/a"))
    lines.append("verdicts    " + " ".join(shown))
    tele = report["telemetry"]
    lines.append("telemetry   %d ms, %d pairs" % (tele["elapsed_ms"], tele["gb_pairs"]))
    return "\n".join(lines) + "\n"


CSV_COLUMNS = (
    "p", "vars", "ideal", "dim", "r", "n", "matrix",
    "len_F_mod_N", "len_A_mod_IN", "e0", "coefficients", "lambda",
    "chi0", "parameter", "elapsed_ms", "gb_pairs",
)


def to_csv(report):
    """Header line plus one fixed-order row for this report."""
    mult = report["multiplicity"]
    chi = report["chi"]
    chi0 = ""
    if chi is not None and chi["per_t"]:
        chi0s = {row["chi_q"][0] for row in chi["per_t"]}
        chi0 = str(min(chi0s)) if len(chi0s) == 1 else "ambiguous"
    param = report["verdicts"].get("parameter_module")
    row = (
        str(report["ring"]["p"]),
        " ".join(report["ring"]["vars"]),
        "; ".join(report["ring"]["ideal"]),
        str(report["ring"]["dim"]),
        str(report["module"]["r"]),
        str(report["module"]["n"]),
        "; ".join(", ".join(r) for r in report["module"]["matrix"]),
        str(report["lengths"]["F_mod_N"]),
        str(report["lengths"]["A_mod_IN"]),
        "" if mult is None else str(mult["e0"]),
        "" if mult is None else " ".join(str(c) for c in mult["coefficients"]),
        "" if mult is None else " ".join(str(v) for v in mult["lambda_table"]),
        chi0,
        "" if param is None else str(bool(param)).lower(),
        str(report["telemetry"]["elapsed_ms"]),
        str(report["telemetry"]["gb_pairs"]),
    )
    if len(row) != len(CSV_COLUMNS):
        raise RuntimeError("CSV row has %d cells for %d columns" % (len(row), len(CSV_COLUMNS)))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows((CSV_COLUMNS, row))
    return out.getvalue()


def render_spread_text(result, ring_line):
    lines = ["ring        %s" % ring_line,
             "seed        %d" % result.seed,
             "samples     %d" % len(result.samples),
             "differences %s" % " ".join(str(d) for d in result.differences)]
    hist = Counter(result.differences)
    for d in sorted(hist):
        lines.append("  diff %d: %s (%d)" % (d, "#" * hist[d], hist[d]))
    for s in result.samples:
        lines.append("  %s  colength %d  e0 %d" % (s.matrix_text, s.colength, s.e0))
    return "\n".join(lines) + "\n"


def spread_json(result, ring_report):
    return {
        "schema": SCHEMA_VERSION,
        "ring": ring_report,
        "seed": result.seed,
        "entry_degree": result.entry_degree,
        "differences": list(result.differences),
        "histogram": {str(d): n for d, n in Counter(result.differences).items()},
        "samples": [
            {"matrix": s.matrix_text, "colength": s.colength, "e0": s.e0}
            for s in result.samples
        ],
    }
