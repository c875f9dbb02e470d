"""Command line front end.

    brimlab analyze <file> [--format text|json|csv] [--t-range a..b]
    brimlab verify [<file> | --corpus]
    brimlab corpus [name ...]
    brimlab spread <file> --samples N --seed S

Exit codes: 0 success, 1 invariant or expectation violation, 2 input
error, 3 budget exhausted, 4 internal error (an exception the program
did not expect, which is a bug; its traceback follows on stderr).
Budgets apply per command via --budget-pairs / --budget-degree.
"""

import argparse
import functools
import json
import sys
import time
import traceback

from . import corpus as corpus_mod
from . import report as report_mod
from .dsl import ParseError, build, parse
from .groebner import MAX_DEGREE, Budget
from .multiplicity import SamplingError, buchsbaum_spread, theorem_check
from .poly import AlgebraError, BudgetExceededError, ContractError
from .verify import check_corpus, corpus_table, verify_instance

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_trange(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError("t range must look like a..b, e.g. -1..2")
    return int(lo), int(hi)


def _merged_options(args, file_options=()):
    """File options with command line flags taking precedence."""
    opts = dict(file_options)
    if getattr(args, "t_range", None) is not None:
        opts["tmin"], opts["tmax"] = _parse_trange(args.t_range)
    for flag, key in (("budget_pairs", "pairs"), ("budget_degree", "degree"),
                      ("format", "format"), ("samples", "samples"), ("seed", "seed")):
        value = getattr(args, flag, None)
        if value is not None:
            opts[key] = value
    if opts.get("samples", 1) < 1:
        raise ContractError("samples must be at least 1, got %d" % opts["samples"])
    return opts


def _budget(opts):
    return Budget(
        max_pairs=opts.get("pairs", Budget().max_pairs),
        max_degree=opts.get("degree", Budget().max_degree),
    )


def _trange(opts):
    if "tmin" in opts or "tmax" in opts:
        if not ("tmin" in opts and "tmax" in opts):
            raise ContractError("tmin and tmax must be given together")
        return opts["tmin"], opts["tmax"]
    return None


def cmd_analyze(args):
    spec = parse(_read_text(args.file))
    opts = _merged_options(args, spec.options)
    budget = _budget(opts)
    ring, matrix = build(spec, budget)
    started = time.monotonic()
    rep = theorem_check(matrix, trange=_trange(opts), budget=budget)
    elapsed = int((time.monotonic() - started) * 1000)
    doc = report_mod.build_report(rep, elapsed, budget.pairs_used)
    fmt = opts.get("format", "text")
    if fmt == "json":
        sys.stdout.write(report_mod.to_json(doc))
    elif fmt == "csv":
        sys.stdout.write(report_mod.to_csv(doc))
    else:
        sys.stdout.write(report_mod.render_text(doc))
    return EXIT_OK


def _mutator(flip):
    p, row, col = (int(v) for v in flip.split(","))

    def mutate(cx):
        try:
            cx.flip_sign(p, row, col)
        except ContractError:
            raise ContractError("--flip-sign %s: the complex at t = %d has no such entry" % (flip, cx.t)) from None

    return mutate


def cmd_verify(args):
    if args.corpus:
        for given, what in ((args.file, "problem file"), (args.t_range, "--t-range"),
                            (args.flip_sign, "--flip-sign")):
            if given is not None:
                raise ContractError("verify --corpus takes no %s" % what)
        rows, violations = check_corpus(budget=_budget(_merged_options(args)))
        sys.stdout.write(corpus_table(rows))
    else:
        if not args.file:
            raise ContractError("verify needs a problem file or --corpus")
        spec = parse(_read_text(args.file))
        opts = _merged_options(args, spec.options)
        budget = _budget(opts)
        ring, matrix = build(spec, budget)
        mutate = _mutator(args.flip_sign) if args.flip_sign else None
        rep, violations = verify_instance(ring, matrix, budget,
                                          trange=_trange(opts), mutate=mutate)
        checked = sum(1 for v in rep.verdicts.values() if v is not None)
        sys.stdout.write("checked %d verdicts, %d violation(s)\n" % (checked, len(violations)))
    for v in violations:
        sys.stdout.write(str(v) + "\n")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_corpus(args):
    entries = corpus_mod.ENTRIES
    if args.names:
        wanted = set(args.names)
        unknown = wanted - {e.name for e in entries}
        if unknown:
            raise ContractError("unknown corpus entries: %s" % ", ".join(sorted(unknown)))
        entries = tuple(e for e in entries if e.name in wanted)
    rows, violations = check_corpus(entries, budget=_budget(_merged_options(args)))
    sys.stdout.write(corpus_table(rows))
    for v in violations:
        sys.stdout.write(str(v) + "\n")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_spread(args):
    spec = parse(_read_text(args.file))
    opts = _merged_options(args, spec.options)
    samples = opts.get("samples")
    if samples is None:
        raise ContractError("spread needs --samples (or a samples option)")
    seed = opts.get("seed", 0)
    fmt = opts.get("format", "text")
    if fmt not in ("text", "json"):
        raise ContractError("spread writes text or json, not %s" % fmt)
    budget = _budget(opts)
    ring, matrix = build(spec, budget)
    result = buchsbaum_spread(ring, matrix.r, samples, seed, budget=budget)
    if fmt == "json":
        ring_doc = {
            "p": ring.p,
            "vars": list(ring.names),
            "ideal": [str(g) for g in ring.ideal_gens],
            "dim": ring.dimension,
        }
        doc = report_mod.spread_json(result, ring_doc)
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        quot = " / (%s)" % ", ".join(str(g) for g in ring.ideal_gens) if ring.ideal_gens else ""
        line = "F_%d[%s]%s, rank %d" % (ring.p, ", ".join(ring.names), quot, matrix.r)
        sys.stdout.write(report_mod.render_spread_text(result, line))
    return EXIT_OK


def _add_budget_flags(sub):
    sub.add_argument("--budget-pairs", type=int, metavar="N",
                     help="abort Groebner runs after N S-pairs (default %d)" % Budget().max_pairs)
    sub.add_argument("--budget-degree", type=int, metavar="N",
                     help="abort Groebner runs past degree N (default %d, at most %d)"
                     % (Budget().max_degree, MAX_DEGREE))


@functools.cache  # built once per process; parse_args keeps no state between calls
def make_parser():
    ap = argparse.ArgumentParser(
        prog="brimlab",
        description="Buchsbaum-Rim multiplicities and generalized Koszul complexes "
                    "over graded quotient rings, exactly.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    a = sp.add_parser("analyze", help="full report for one problem file")
    a.add_argument("file", help="problem file, or - for stdin")
    a.add_argument("--format", choices=("text", "json", "csv"))
    a.add_argument("--t-range", metavar="a..b", help="complex family range, e.g. -1..2")
    _add_budget_flags(a)
    a.set_defaults(func=cmd_analyze)

    v = sp.add_parser("verify", help="assert every theorem-backed invariant")
    v.add_argument("file", nargs="?", help="problem file, or - for stdin")
    v.add_argument("--corpus", action="store_true", help="verify the built-in corpus instead")
    v.add_argument("--t-range", metavar="a..b")
    v.add_argument("--flip-sign", metavar="p,row,col", help=argparse.SUPPRESS)
    _add_budget_flags(v)
    v.set_defaults(func=cmd_verify)

    c = sp.add_parser("corpus", help="analyze the built-in corpus and diff expected values")
    c.add_argument("names", nargs="*", help="restrict to these entries (default: all)")
    _add_budget_flags(c)
    c.set_defaults(func=cmd_corpus)

    s = sp.add_parser("spread", help="sample random parameter modules and report colength - e0")
    s.add_argument("file", help="problem file giving the ring and rank")
    s.add_argument("--samples", type=int, metavar="N")
    s.add_argument("--seed", type=int, metavar="S")
    s.add_argument("--format", choices=("text", "json"))
    _add_budget_flags(s)
    s.set_defaults(func=cmd_spread)
    return ap


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, SamplingError) as exc:
        sys.stderr.write("budget exhausted: %s\n" % exc)
        return EXIT_BUDGET
    except (ParseError, ValueError, AlgebraError, OSError) as exc:  # ContractError is an AlgebraError
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
