"""Shared pytest wiring for the acceptance suite's verdict lines, and the
form drawer the hypothesis tests share.

Captured stdout never reaches the terminal for passing tests, so the
acceptance criteria report through the terminal-summary hook instead:
one pass/fail line per criterion, printed after the test counts.
"""

import re

from hypothesis import strategies as st

from brimlab.poly import Polynomial

import oracles

acceptance_lines = {}


def random_form(draw, ctx, degree):
    """A homogeneous form of the given degree with drawn coefficients."""
    items = [(e, draw(st.integers(0, ctx.p - 1)))
             for e in oracles.monomials_of_degree(ctx.nvars, degree)]
    return Polynomial.from_terms(ctx, items)


def record(num, label, ok):
    acceptance_lines[num] = "criterion %2d  %-28s %s" % (num, label, "PASS" if ok else "FAIL")


def pytest_runtest_logreport(report):
    # a criterion that dies before stamping still owes its line
    if report.when != "call" or not report.failed:
        return
    m = re.search(r"test_criterion_(\d+)_(\w+)", report.nodeid)
    if m:
        num = int(m.group(1))
        if num not in acceptance_lines:
            record(num, m.group(2).replace("_", " "), False)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(acceptance_lines):
            terminalreporter.write_line(acceptance_lines[num])
