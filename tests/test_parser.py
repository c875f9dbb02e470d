"""Problem file syntax: round trips, expressions, error positions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from brimlab import dsl
from brimlab.corpus import ENTRIES
from brimlab.dsl import (FORMATS, MAX_DIGITS, MAX_NESTING, MAX_TERMS, OPTION_KEYS, ParseError, ProblemSpec, build,
                         parse, spec_of)
from brimlab.multiplicity import random_parameter_matrix
from brimlab.poly import BudgetExceededError


def err(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    return exc.value


def test_corpus_round_trips():
    for entry in ENTRIES:
        spec = parse(entry.text)
        assert parse(spec.serialize()) == spec


def test_round_trip_with_options():
    text = (
        "ring { p = 7 vars = [x, y, z] ideal = [x^2 + y*z] }\n"
        "module { rank = 2 matrix = [[x, y, z], [z, x, y]] }\n"
        "options { tmin = -1 tmax = 2 seed = 3 format = csv }\n"
    )
    spec = parse(text)
    assert spec.p == 7
    assert spec.options == {"tmin": -1, "tmax": 2, "seed": 3, "format": "csv"}
    again = parse(spec.serialize())
    assert again == spec and again.serialize() == spec.serialize()


def test_expression_grammar():
    def entry(src):
        spec = parse("ring { p = 101 vars = [x, y] }\n"
                     "module { rank = 1 matrix = [[%s]] }\n" % src)
        return spec.matrix[0][0]

    assert entry("x^2*y + 3") == entry("3 + y*x^2")
    assert entry("-x") == entry("100*x")
    assert entry("(x + y)^2") == entry("x^2 + 2*x*y + y^2")
    assert entry("x - y - y") == entry("x - 2*y")  # left associative
    assert entry("2^3") == entry("8")
    # precedence: ^ binds over *, * over +
    assert entry("2*x^2") == entry("x^2 + x^2")


def test_nesting_cap_and_long_chains():
    def entry(src):
        return parse("ring { p = 101 vars = [x, y] }\n"
                     "module { rank = 1 matrix = [[%s]] }\n" % src).matrix[0][0]

    assert entry("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == entry("x")
    e = err("ring { p = 101 vars = [x, y] }\n"
            "module { rank = 1 matrix = [[%sx%s]] }\n" % ("(" * 400, ")" * 400))
    # the first parenthesis past the cap
    assert (e.line, e.col) == (2, 30 + MAX_NESTING) and "nested deeper" in e.reason
    # a sum or product is one node however long, so it needs no cap
    assert entry(" + ".join(["x"] * 5000)) == entry("%d*x" % (5000 % 101))
    assert entry("*".join(["2"] * 5000) + "*y") == entry("%d*y" % pow(2, 5000, 101))


def test_no_implicit_multiplication():
    e = err("ring { p = 101 vars = [x, y] }\n"
            "module { rank = 1 matrix = [[x y]] }\n")
    assert e.line == 2


def test_comments_and_whitespace():
    spec = parse(
        "# a problem\n"
        "ring {\n  p = 101  # the field\n  vars = [x]\n}\n"
        "module { rank = 1 matrix = [[x]] }\n")
    assert spec.p == 101 and spec.variables == ("x",)


def test_error_positions():
    e = err("ring { p = 101 vars = [x] q = 3 }\nmodule { rank = 1 matrix = [[x]] }")
    assert "unknown ring setting" in e.reason and (e.line, e.col) == (1, 27)

    e = err("ring { p = 101\nvars = [x]\np = 7 }\nmodule { rank = 1 matrix = [[x]] }")
    assert "duplicate setting 'p'" in e.reason and e.line == 3

    e = err("ring { p = 101 vars = [x] }\nmodule { rank = 1 matrix = [[w]] }")
    assert "unknown variable 'w'" in e.reason and e.line == 2

    e = err("ring { p = 101 vars = [x] }")
    assert "module" in e.reason

    e = err("ring { vars = [x] }\nmodule { rank = 1 matrix = [[x]] }")
    assert "missing 'p'" in e.reason

    e = err("ring { p = 101 vars = [x, y] }\n"
            "module { rank = 1 matrix = [[x, y], [y, x]] }")
    assert "matrix has 2 rows but rank is 1" in e.reason

    e = err("ring { p = 101 vars = [x, y] }\n"
            "module { rank = 2 matrix = [[x, y], [y]] }")
    assert "row 2 has 1 entries, row 1 has 2" in e.reason

    e = err("ring { p = 101 vars = [x] }\nmodule { rank = 1 matrix = [[x]] }\n"
            "options { volume = 11 }")
    assert "unknown option 'volume'" in e.reason

    e = err("ring { p = 101 vars = [x] }\nmodule { rank = 1 matrix = [[x]] }\n"
            "options { format = yaml }")
    assert "format must be one of" in e.reason

    e = err("ring { p = 101 vars = [x] } $")
    assert "unexpected character" in e.reason and e.line == 1

    e = err("ring { p = 101 vars = [x] }\nmodule { rank = 0 matrix = [[x]] }")
    assert "rank must be at least 1" in e.reason

    e = err("ring { p = 101 vars = [x] }\nmodule { rank = 1 matrix = [] }")
    assert "starting a matrix row" in e.reason


_RING = "ring { p = 101 vars = [x, y] }\n"
_MODULE = "module { rank = 1 matrix = [[x, y]] }\n"


@pytest.mark.parametrize("text, fragment, line, col", [
    (_RING + _MODULE + "options { seed = 1\nseed = 2 }", "duplicate option 'seed'", 4, 1),
    ("ring { p = 101 vars = [x]\nvars = [y] }\n" + _MODULE, "duplicate setting 'vars'", 2, 1),
    ("ring { p = 101 vars = [x, y] ideal = []\nideal = [x] }\n" + _MODULE, "duplicate setting 'ideal'", 2, 1),
    (_RING + "module { rank = 1\nrank = 1 matrix = [[x, y]] }", "duplicate setting 'rank'", 3, 1),
    (_RING + "module { rank = 1 matrix = [[x, y]]\nmatrix = [[x, y]] }", "duplicate setting 'matrix'", 3, 1),
    (_RING + "module { rank = 1 cols = 2 }", "unknown module setting 'cols'", 2, 19),
    ("ring { p = 101 }\n" + _MODULE, "missing 'vars'", 1, 16),
    (_RING + "module { matrix = [[x, y]] }", "missing 'rank'", 2, 28),
    (_RING + "module { rank = 1 }", "missing 'matrix'", 2, 19),
    (_RING + _MODULE + "settings { seed = 1 }", "expected an 'options' block or end of input", 3, 1),
    (_RING + "module { rank = 1 matrix = [[x, y] }", "']' closing the matrix", 2, 36),
    (_RING + "modul { rank = 1 matrix = [[x, y]] }", "expected a 'module' block, found 'modul'", 2, 1),
    ("ring { p = 101 vars = [] }\n" + _MODULE, "expected a variable name, found ']'", 1, 24),
    (_RING + _MODULE + "options { seed = x }", "expected an integer, found 'x'", 3, 18),
    (_RING + _MODULE + "options { seed = 1 } options { }", "expected end of input, found 'options'", 3, 22),
    # digits are ASCII only: a superscript two or an Arabic-Indic zero is no digit
    (_RING + "module { rank = 1 matrix = [[x^\u00b2, y]] }", "unexpected character '\u00b2'", 2, 32),
    ("ring { p = 1\u06601 vars = [x, y] }\n" + _MODULE, "unexpected character '\u0660'", 1, 13),
    # a no-break space is no separator; a tab and a carriage return are one column each
    (_RING + "module {\xa0rank = 1 matrix = [[x, y]] }", "unexpected character '\\xa0'", 2, 9),
    ("ring {\tp = 101 vars = [x, y] q = 1 }\n" + _MODULE, "unknown ring setting 'q'", 1, 30),
    ("ring { p = 101 vars = [x, y] }\r\nmodule { rank = 1 cols = 2 }\r\n", "unknown module setting 'cols'", 2, 19),
    # end of input after a trailing comment sits at the comment's '#'
    (_RING + "module { rank = 1 # no matrix", "found 'end of input'", 2, 19),
    # a name goes on with any letter or digit, a number with ASCII digits only
    (_RING + "module { rank = 1 matrix = [[x\u00e9\u00b2, y]] }", "unknown variable 'x\u00e9\u00b2'", 2, 30),
    ("ring { p = 0000101 vars = [x, y] }\nmodule { rank = 0000101 matrix = [[x, y]] }",
     "matrix has 1 rows but rank is 101", 2, 34),
    # past MAX_DIGITS digits, whether or not int() caps digit strings here
    pytest.param(_RING + "module { rank = 1 matrix = [[x^" + "1" * 5000 + ", y]] }",
                 "integer of 5000 digits", 2, 32, id="exponent-of-5000-digits"),
    pytest.param(_RING + "module { rank = 1 matrix = [[x, y]] }\noptions { seed = 1" + "0" * MAX_DIGITS + " }",
                 "integer of %d digits" % (MAX_DIGITS + 1), 3, 18, id="seed-past-max-digits"),
])
def test_error_messages_and_positions(text, fragment, line, col):
    e = err(text)
    assert fragment in e.reason and (e.line, e.col) == (line, col)


def test_integer_of_max_digits_parses():
    spec = parse(_RING + "module { rank = 1 matrix = [[x, y]] }\noptions { seed = " + "9" * MAX_DIGITS + " }")
    assert spec.options["seed"] == 10 ** MAX_DIGITS - 1


def test_parse_error_str_carries_position():
    e = err("ring { p = 101 vars = [x] }\nmodule { rank = 1 matrix = [[w]] }")
    s = str(e)
    assert s.startswith("line 2, column") and "unknown variable" in s


def test_build_rejects_bad_semantics():
    from brimlab.poly import ContractError

    # a composite modulus dies as soon as coefficients need evaluating
    with pytest.raises(ContractError):
        parse("ring { p = 6 vars = [x] }\nmodule { rank = 1 matrix = [[x]] }")
    # dimension zero quotient
    spec = parse("ring { p = 101 vars = [x] ideal = [x^2] }\n"
                 "module { rank = 1 matrix = [[x]] }")
    with pytest.raises(ContractError):
        build(spec)


def test_option_tables_are_exposed():
    assert "format" in OPTION_KEYS and set(FORMATS) == {"text", "json", "csv"}


def test_spec_is_frozen():
    spec = parse("ring { p = 101 vars = [x] }\nmodule { rank = 1 matrix = [[x]] }")
    with pytest.raises(AttributeError):
        spec.p = 7
    assert spec.ncols == 1
    assert isinstance(spec, ProblemSpec)


def _entry(src, names="x, y, z"):
    return parse("ring { p = 101 vars = [%s] }\nmodule { rank = 1 matrix = [[%s]] }\n" % (names, src)).matrix[0][0]


def test_products_and_powers_are_bounded_before_expanding():
    assert len(_entry("(x+y+z)^43").terms) == 990 <= MAX_TERMS  # degree 43 has 990 monomials
    for src, what, col in (("(x+y+z)^44", "power", 37), ("x + (x+y+z)^22*(x+y+z)^22", "product", 34),
                           ("(1+x)^1000", "power", 35), ("(x+y+z)^22*(x+y+z)^21*x", "product", 30)):
        with pytest.raises(BudgetExceededError) as exc:
            _entry(src, "x" if "1+x" in src else "x, y, z")
        # the line and column of a refused power's ^, or where a refused product starts
        assert exc.value.kind == "expansion" and str(exc.value).startswith("line 2, column %d: " % col)
        assert "this %s may expand to more than %d terms" % (what, MAX_TERMS) in str(exc.value)
    # the bound is the smaller of the term counts' product and the monomials of the degree range
    assert len(_entry("(x+y+z)^21*(x+y+z)^21*x").terms) == 946  # 231 * 231 * 1 terms, 990 monomials of degree 43
    assert len(_entry("(x^20 + 1)^9 * (y^20 + 1)").terms) == 20
    assert _entry("(1+x)^999", "x").degree() == 999  # at most 1000 terms (910: some binomials are 0 mod 101)
    assert _entry("2^1000000*x^16383") == _entry("%d*x^16383" % pow(2, 1000000, 101))
    written = "(%s)" % " + ".join("x^%d" % i for i in range(1001))  # as written, not an expansion
    assert len(_entry(written, "x").terms) == len(_entry(written + "^1", "x").terms) == 1001
    assert _entry("(x+y)^0*z") == _entry("z") and _entry("0^0") == _entry("1") and _entry("(x-x)^5") == _entry("0")


def test_corpus_and_battery_files_parse_within_the_bound():
    # what the benchmark's battery writes: spec_of(...).serialize() of random parameter modules
    texts = [entry.text for entry in ENTRIES]
    rng = random.Random(1)
    for variables, ideal, r, degree in ((["x", "y", "z"], [], 1, 1), (["x", "y", "z"], ["x*y - z^2"], 1, 2),
                                        (["x", "y"], [], 2, 1), (["x", "y"], [], 1, 3), (["x"], [], 3, 1)):
        ring, _ = build(parse("ring { p = 101 vars = [%s] ideal = [%s] }\nmodule { rank = 1 matrix = [[x]] }"
                              % (", ".join(variables), ", ".join(ideal))))
        texts.append(spec_of(ring, random_parameter_matrix(ring, r, rng, degree)).serialize())
    for text in texts:
        spec = parse(text)
        assert parse(spec.serialize()) == spec


_FACTOR = st.sampled_from(["x", "y", "1", "(x+y)", "(x+1)", "(x^3+y^2+1)", "(x*y+2*y+3)", "(x-x)"])


@given(st.lists(st.tuples(_FACTOR, st.integers(1, 12)), min_size=1, max_size=4), st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_a_parsed_product_never_has_more_terms_than_the_cap(factors, cap):
    src = "*".join("%s^%d" % f for f in factors)
    old = dsl.MAX_TERMS
    try:
        dsl.MAX_TERMS = cap
        f = _entry(src, "x, y")
    except BudgetExceededError:
        return
    finally:
        dsl.MAX_TERMS = old
    if sum(n for _, n in factors) > 1:  # one factor to the first power is as written
        assert len(f.terms) <= cap
