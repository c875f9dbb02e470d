"""End-to-end command behavior: formats, exit codes, determinism."""

import contextlib
import csv
import importlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import brimlab.corpus as corpus_mod
from brimlab.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_VIOLATION, main
from brimlab.groebner import MAX_DEGREE
from brimlab.report import CSV_COLUMNS, REPORT_SCHEMA

GOOD = corpus_mod.by_name("E4").text
INFINITE_CASE = (
    "ring { p = 101 vars = [x, y] }\n"
    "module { rank = 1 matrix = [[x]] }\n"
)


@pytest.fixture
def problem(tmp_path):
    def write(text, name="problem.brim"):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text(problem, capsys):
    code, out, _ = run(capsys, ["analyze", problem(GOOD)])
    assert code == EXIT_OK
    assert "e_0 = 2" in out and "verdicts" in out
    assert "l(F/N) = 4" in out and "l(A/I(N)) = 3" in out


def test_analyze_json_validates(problem, capsys):
    code, out, _ = run(capsys, ["analyze", problem(GOOD), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["multiplicity"]["e0"] == 2
    assert doc["lengths"] == {"F_mod_N": 4, "A_mod_IN": 3}
    assert doc["ring"]["dim"] == 1
    assert [row["t"] for row in doc["chi"]["per_t"]] == [-1, 0, 1]


def test_analyze_csv_round_trip(problem, capsys):
    code, out, _ = run(capsys, ["analyze", problem(GOOD), "--format", "csv"])
    assert code == EXIT_OK
    header, values = csv.reader(io.StringIO(out))
    assert tuple(header) == CSV_COLUMNS
    row = dict(zip(header, values))
    assert row["e0"] == "2" and row["len_F_mod_N"] == "4"
    assert row["lambda"] == "4 9 16 25 36" and row["parameter"] == "true"


def test_analyze_infinite_is_reported_not_fatal(problem, capsys):
    code, out, _ = run(capsys, ["analyze", problem(INFINITE_CASE)])
    assert code == EXIT_OK
    assert "INFINITE" in out
    code, out, _ = run(capsys, ["analyze", problem(INFINITE_CASE), "--format", "json"])
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["lengths"]["F_mod_N"] == "INFINITE"
    assert doc["multiplicity"] is None


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/nope.brim"])
    assert code == EXIT_INPUT and "input error" in err


def test_analyze_stdin(problem, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(GOOD))
    code, out, _ = run(capsys, ["analyze", "-"])
    assert code == EXIT_OK and "e0" in out


def test_analyze_dimension_zero(problem, capsys):
    bad = ("ring { p = 101 vars = [x] ideal = [x^3] }\n"
           "module { rank = 1 matrix = [[x]] }\n")
    code, _, err = run(capsys, ["analyze", problem(bad)])
    assert code == EXIT_INPUT and "dimension" in err


def test_deeply_nested_entry_is_input_error(problem, capsys):
    # 400 parentheses once ran the parser out of stack (exit 4)
    text = "ring { p = 101 vars = [x, y] }\nmodule { rank = 1 matrix = [[%sx%s, y]] }\n"
    code, out, err = run(capsys, ["analyze", problem(text % ("(" * 400, ")" * 400))])
    assert code == EXIT_INPUT and out == ""
    assert "line 2, column" in err and "nested deeper" in err and "Traceback" not in err


def test_verify_clean(problem, capsys):
    code, out, _ = run(capsys, ["verify", problem(GOOD)])
    assert code == EXIT_OK
    assert "0 violation(s)" in out


def test_verify_flip_sign_violation(problem, capsys):
    # needs a complex of length >= 2 so a composite exists to break
    long_case = corpus_mod.by_name("E1").text
    code, out, _ = run(capsys, ["verify", problem(long_case), "--flip-sign", "2,0,0"])
    assert code == EXIT_VIOLATION
    assert "square_zero" in out and "reproduce with" in out


def test_verify_flip_sign_out_of_range_is_input_error(problem, capsys):
    long_case = corpus_mod.by_name("E1").text
    code, out, err = run(capsys, ["verify", problem(long_case), "--flip-sign", "9,9,9"])
    assert code == EXIT_INPUT and "input error" in err and "--flip-sign" in err


def test_unexpected_exception_is_internal_error(problem, capsys, monkeypatch):
    cli_mod = importlib.import_module("brimlab.cli")

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "theorem_check", crash)
    code, out, err = run(capsys, ["analyze", problem(GOOD)])
    assert code == EXIT_INTERNAL == 4
    assert err.startswith("internal error: RuntimeError: boom\n") and out == ""
    assert "Traceback" in err


def test_csv_row_width_mismatch_is_internal_error(problem, capsys, monkeypatch):
    # a row that no longer matches the header is a program fault, also
    # under python -O
    monkeypatch.setattr("brimlab.report.CSV_COLUMNS", CSV_COLUMNS + ("extra",))
    code, out, err = run(capsys, ["analyze", problem(GOOD), "--format", "csv"])
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: RuntimeError: ") and out == ""


def test_verify_needs_input(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == EXIT_INPUT and "problem file or --corpus" in err


@pytest.mark.parametrize("extra, what", [
    (["FILE"], "problem file"),
    (["--t-range", "0..1"], "--t-range"),
    (["--flip-sign", "1,0,0"], "--flip-sign"),
])
def test_verify_corpus_refuses_what_it_would_ignore(problem, capsys, extra, what):
    argv = ["verify", "--corpus"] + [problem(GOOD) if a == "FILE" else a for a in extra]
    code, out, err = run(capsys, argv)
    assert code == EXIT_INPUT and "verify --corpus takes no %s" % what in err and out == ""


def test_verify_corpus_table(capsys):
    code, out, _ = run(capsys, ["verify", "--corpus"])
    assert code == EXIT_OK
    for name in ("E1", "E2", "E3", "E4", "E5", "E6"):
        assert name in out
    assert "MISMATCH" not in out
    # the computed cm_witness, not the frozen flag: E6 is no parameter module
    rows = {line.split()[0]: line.split() for line in out.splitlines()[2:]}
    assert out.split()[7] == "witness"
    assert [rows[name][7] for name in ("E1", "E2", "E3", "E4", "E5", "E6")] == \
        ["yes", "no", "yes", "no", "yes", "-"]


def test_corpus_filter(capsys):
    code, out, _ = run(capsys, ["corpus", "E2", "E5"])
    assert code == EXIT_OK
    assert "E2" in out and "E5" in out and "E1" not in out


def test_corpus_unknown_name(capsys):
    code, _, err = run(capsys, ["corpus", "E9"])
    assert code == EXIT_INPUT and "unknown corpus entries: E9" in err


def test_corpus_catches_tampered_expectation(capsys, monkeypatch):
    entry = corpus_mod.by_name("E3")
    tampered = entry.replace(lam=(2, 6, 12, 20, 31))
    fixed = tuple(tampered if e.name == "E3" else e for e in corpus_mod.ENTRIES)
    monkeypatch.setattr(corpus_mod, "ENTRIES", fixed)
    code, out, _ = run(capsys, ["corpus"])
    assert code == EXIT_VIOLATION
    assert "E3" in out and "lambda" in out


def test_budget_exhaustion_exits_3(problem, capsys):
    code, _, err = run(capsys, ["analyze", problem(GOOD), "--budget-pairs", "1"])
    assert code == EXIT_BUDGET and "budget" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["analyze", "{file}", "--budget-pairs"],
    ["analyze", "{file}", "--budget-degree"],
    ["verify", "{file}", "--budget-pairs"],
    ["corpus", "E2", "--budget-pairs"],
    ["spread", "{file}", "--samples"],
])
def test_nonpositive_flags_are_input_errors(problem, capsys, argv, value):
    path = problem(GOOD)
    code, out, err = run(capsys, [a.format(file=path) for a in argv] + [value])
    assert code == EXIT_INPUT and "input error" in err
    assert out == ""


@pytest.mark.parametrize("value", ["\u0663", "1_000", " 3", "+3", "2\u00b2", ""])
@pytest.mark.parametrize("argv", [
    ["analyze", "{file}", "--budget-pairs", "{value}"],
    ["analyze", "{file}", "--budget-degree", "{value}"],
    ["spread", "{file}", "--samples", "{value}"],
    ["spread", "{file}", "--samples", "1", "--seed", "{value}"],
    ["analyze", "{file}", "--t-range", "{value}..1"],
    ["analyze", "{file}", "--t-range", "-1..{value}"],
    ["verify", "{file}", "--flip-sign", "{value},0,0"],
    ["verify", "{file}", "--flip-sign", "2,{value},0"],
    ["verify", "{file}", "--flip-sign", "2,0,{value}"],
])
def test_integer_flags_read_ascii_digits_only(problem, capsys, argv, value):
    # int() alone also reads other Unicode digits (the Arabic-Indic 3 here),
    # "_" between digits, spaces and a sign; a problem file refuses them too
    path = problem(GOOD)
    try:
        code = main([a.format(file=path, value=value) for a in argv])
    except SystemExit as exc:  # argparse refuses the value of a typed flag
        code = exc.code
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT and out == ""
    assert "invalid integer value: %r" % value in err or "not an integer: %r" % value in err


def test_budget_degree_engine_limit(problem, capsys):
    path = problem(GOOD)
    code, _, _ = run(capsys, ["analyze", path, "--budget-degree", str(MAX_DEGREE)])
    assert code == EXIT_OK
    code, out, err = run(capsys, ["analyze", path, "--budget-degree", str(MAX_DEGREE + 1)])
    assert code == EXIT_INPUT and "input error" in err and out == ""


def test_exponent_past_engine_limit_is_budget_error(problem, capsys):
    text = GOOD.replace("[y, 0]", "[y^%d, 0]" % (MAX_DEGREE + 1))
    assert text != GOOD
    code, _, err = run(capsys, ["analyze", problem(text)])
    assert code == EXIT_BUDGET and "engine limit" in err


def test_huge_exponent_is_refused_before_expanding(problem, capsys):
    # deg(base) * n is checked first; expanding y^3000000 took seconds
    text = GOOD.replace("[y, 0]", "[y^3000000, 0]")
    assert text != GOOD
    started = time.monotonic()
    code, out, err = run(capsys, ["analyze", problem(text)])
    assert time.monotonic() - started < 1.0
    assert code == EXIT_BUDGET and out == ""
    assert "input term of degree 3000000 passes the engine limit %d" % MAX_DEGREE in err


def test_huge_constant_power_is_squared_not_expanded(problem, capsys):
    text = "ring { p = 101 vars = [x, y] }\nmodule { rank = 1 matrix = [[%s*x, y]] }\n"
    started = time.monotonic()
    code, out, _ = run(capsys, ["analyze", problem(text % "2^1000000")])
    assert time.monotonic() - started < 1.0
    want_code, want, _ = run(capsys, ["analyze", problem(text % pow(2, 1000000, 101), "reduced.brim")])
    mask = lambda s: s.split("telemetry")[0]
    assert code == want_code == EXIT_OK and mask(out) == mask(want)


def run_process(flags, argv):
    """(exit code, stderr, seconds) of python <flags> -m brimlab <argv> in a
    new process, asserts on (flags ["-O"]) or off."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(corpus_mod.__file__).resolve().parents[1]))
    started = time.monotonic()
    done = subprocess.run([sys.executable, *flags, "-m", "brimlab", *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    return done.returncode, done.stderr, time.monotonic() - started


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_large_expansions_exhaust_the_budget_at_once(problem, flags):
    # (x+y+z)^200 took 47 s inside the parser; 1 x 16 and 1 x 18 matrices
    # built a complex of 2^n labels and died of MemoryError (exit 4)
    text = "ring {\n  p = 101\n  vars = [x, y, z]\n}\nmodule {\n  rank = 1\n  matrix = [[(x+y+z)^200]]\n}\n"
    code, err, seconds = run_process(flags, ["analyze", problem(text)])
    assert code == EXIT_BUDGET and seconds < 2.0
    assert "line 7, column 21: this power may expand to more than 1000 terms" in err
    for n in (16, 18):
        text = "ring { p = 101 vars = [x, y] }\nmodule { rank = 1 matrix = [[%s]] }\n" % ", ".join(["x, y"] * (n // 2))
        code, err, seconds = run_process(flags, ["analyze", problem(text, "wide%d.brim" % n)])
        assert code == EXIT_BUDGET and seconds < 5.0
        assert "1 x %d matrix has %d basis labels" % (n, 2 ** n) in err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_t_range_with_a_negative_lower_end_after_a_space(problem, capsys, command):
    # argparse alone reads "-1..0" as an option and exits 2
    path = problem(GOOD)
    code, out, err = run(capsys, [command, path, "--t-range", "-1..0"])
    want_code, want, _ = run(capsys, [command, path, "--t-range=-1..0"])
    mask = lambda s: s.split("telemetry")[0]
    assert code == want_code == EXIT_OK and mask(out) == mask(want), err
    if command == "analyze":
        assert "t=-1:" in out and "t=1:" not in out


def test_nonpositive_file_option_is_input_error(problem, capsys):
    code, _, err = run(capsys, ["spread", problem(GOOD + "options { samples = 0 }\n")])
    assert code == EXIT_INPUT and "samples" in err


@pytest.mark.parametrize("command", ["analyze", "verify", "spread"])
def test_removed_nmax_flag_is_input_error(problem, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, problem(GOOD), "--nmax", "3"])
    assert exc.value.code == EXIT_INPUT and "--nmax" in capsys.readouterr().err


def test_removed_nmax_option_is_input_error(problem, capsys):
    code, out, err = run(capsys, ["analyze", problem(GOOD + "options { nmax = 3 }\n")])
    assert code == EXIT_INPUT and "unknown option 'nmax'" in err and out == ""


def test_non_graded_matrix_is_input_error(problem, capsys):
    # deg a_ij = d_j - e_i has no solution; l(F/N) = 4 is a global length
    # (det = x^2 (1 - x^2)), the local one at (x) is 2
    text = "ring { p = 101 vars = [x] }\nmodule { rank = 2 matrix = [[x, x^2], [x^2, x]] }\n"
    code, out, err = run(capsys, ["analyze", problem(text)])
    assert code == EXIT_INPUT and "graded map" in err and out == ""


def test_spread_deterministic(problem, capsys):
    argv = ["spread", problem(GOOD), "--samples", "3", "--seed", "5"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "difference" in out1


def test_spread_json_deterministic(problem, capsys):
    argv = ["spread", problem(GOOD), "--samples", "2", "--seed", "5",
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 5 and len(doc["samples"]) == 2
    assert "elapsed_ms" not in json.dumps(doc)


def test_spread_refuses_csv_format(problem, capsys):
    path = problem(GOOD + "options { format = csv }\n")
    code, out, err = run(capsys, ["spread", path, "--samples", "1"])
    assert code == EXIT_INPUT and "spread writes text or json, not csv" in err and out == ""


def test_spread_needs_samples(problem, capsys):
    code, _, err = run(capsys, ["spread", problem(GOOD)])
    assert code == EXIT_INPUT and "--samples" in err


def test_options_block_feeds_defaults(problem, capsys):
    text = GOOD + "options { format = json }\n"
    code, out, _ = run(capsys, ["analyze", problem(text)])
    assert code == EXIT_OK
    jsonschema.validate(json.loads(out), REPORT_SCHEMA)
    # a flag still overrides the file
    code, out, _ = run(capsys, ["analyze", problem(text), "--format", "csv"])
    assert code == EXIT_OK and out.startswith("p,")


def test_consecutive_calls_share_no_state(problem, capsys):
    # the parser is built once per process, so flags must not carry over
    path = problem(GOOD)
    code, text, _ = run(capsys, ["analyze", path])
    assert code == EXIT_OK and text.startswith("ring ")
    code, out, _ = run(capsys, ["analyze", path, "--format", "json", "--t-range", "0..1"])
    assert code == EXIT_OK and json.loads(out)["chi"]["per_t"][0]["t"] == 0
    code, out, _ = run(capsys, ["verify", problem(corpus_mod.by_name("E1").text, "e1.brim"),
                                "--flip-sign", "1,0,0"])
    assert code == EXIT_VIOLATION and "square_zero" in out
    code, out, _ = run(capsys, ["analyze", path])
    mask = lambda s: s.split("telemetry")[0]
    assert code == EXIT_OK and mask(out) == mask(text)
    code, out, _ = run(capsys, ["verify", path])
    assert code == EXIT_OK and out == "checked 15 verdicts, 0 violation(s)\n"


# small random problem files: rings over P1-P3 with or without an ideal,
# rank 1-2 matrices of random forms (one degree per column, one shift per row)
_IDEALS = {1: ["", "x^3"], 2: ["", "x^2, x*y", "x*y", "y^2"], 3: ["", "x*y - z^2", "x^2, x*y", "x*y, y*z"]}
_TIGHT = ["--budget-pairs", "2000", "--budget-degree", "20"]


@st.composite
def _form(draw, names, degree, p):
    monos = list(itertools.combinations_with_replacement(names, degree))
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return " + ".join("%d*%s" % (draw(st.integers(1, p - 1)), "*".join(m)) for m in picked)


@st.composite
def _small_problem(draw):
    p = draw(st.sampled_from([2, 3, 7, 101]), label="p")
    names = "xyz"[:draw(st.integers(1, 3), label="variables")]
    ideal = draw(st.sampled_from(_IDEALS[len(names)]), label="ideal")
    r = draw(st.integers(1, 2), label="rank")
    shifts = (0, draw(st.integers(-1, 1), label="second row shift"))[:r]
    degrees = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4), label="column degrees")
    rows = [[draw(_form(names, d - e, p)) if d > e else "0" for d in degrees] for e in shifts]
    return "ring { p = %d vars = [%s] ideal = [%s] }\nmodule { rank = %d matrix = [%s] }\n" % (
        p, ", ".join(names), ideal, r, ", ".join("[%s]" % ", ".join(row) for row in rows))


_WIDE = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 14, 16]).map(  # from n = 14 on, 2^n labels pass the cap
    lambda n: "ring { p = 101 vars = [x, y] }\nmodule { rank = 1 matrix = [[%s]] }\n"
              % ", ".join("xy"[j % 2] for j in range(n)))
_POWER = st.tuples(st.integers(1, 200), st.sampled_from(["", ", y^2", ", y, z"])).map(
    lambda kc: "ring { p = 101 vars = [x, y, z] }\nmodule { rank = 1 matrix = [[(x+y+z)^%d%s]] }\n" % kc)


@given(st.one_of(_small_problem(), _WIDE, _POWER))
@settings(max_examples=100, deadline=None)
def test_small_problem_files_never_exit_4(tmp_path_factory, text):
    # exit 4 is a program fault on any input; verify's exit 1 on a file
    # would be a violated theorem, since nothing here mutates the complex
    path = tmp_path_factory.mktemp("problem") / "problem.brim"
    path.write_text(text)
    for command, refused in (("analyze", (EXIT_INTERNAL,)), ("verify", (EXIT_INTERNAL, EXIT_VIOLATION))):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *_TIGHT])
        assert code not in refused, "%s exited %d on\n%s\n%s%s" % (command, code, text, out.getvalue(), err.getvalue())
