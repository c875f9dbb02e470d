"""Problem description language for rings and parameter matrices.

A problem text has a ring block, a module block and an optional options
block:

    ring {
      p = 101
      vars = [x, y]
      ideal = [x^2, x*y]
    }
    module {
      rank = 2
      matrix = [[y, 0], [0, y]]
    }
    options {
      tmax = 1
    }

A token is an integer of ASCII digits, a name (a Unicode letter or _, then
letters, digits or _) or one of { } [ ] = , + - * ^ ( ); spaces, tabs,
carriage returns, newlines and comments (# to end of line) separate them,
and each character but a comment's is one column.  Polynomials use +, -,
*, ^ and parentheses with explicit multiplication only, nested at most
MAX_NESTING deep, and an integer has at most MAX_DIGITS digits.  Parse
errors carry the line and column of the offending token, as does the
BudgetExceededError of a product or power that may expand past MAX_TERMS terms.
"""

import re
from dataclasses import dataclass, field
from functools import reduce
from math import comb, prod
from operator import mul
from typing import NamedTuple

from .groebner import check_term_degree
from .poly import BudgetExceededError, PolyContext, Polynomial


OPTION_KEYS = ("tmin", "tmax", "seed", "samples", "pairs", "degree", "format")
FORMATS = ("text", "json", "csv")

MAX_NESTING = 64  # parentheses inside one another; each level costs a few stack frames
MAX_DIGITS = 640  # digits of an integer: the lowest cap int() may be given on a digit string
MAX_TERMS = 1000  # terms a product or power may expand to; (x+y+z)^43 has 990


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.reason = message


class Token(NamedTuple):
    kind: str  # "ident", "int", a symbol, "eof"
    value: object
    line: int
    col: int


# a name's first character must also pass str.isalpha() or be "_": [^\W\d] admits
# digits that are not decimal, such as a superscript two
_TOKEN = re.compile(r"(?P<newline>\n)|[ \t\r]+|(?P<comment>#)[^\n]*|(?P<int>[0-9]+)|(?P<ident>[^\W\d]\w*)"
                    r"|(?P<symbol>[{}\[\]=,+\-*^()])|(?P<other>.)", re.S)


def _lex(text):
    tokens = []
    line, start, col = 1, 0, 1  # start: offset of the line's first character
    for m in _TOKEN.finditer(text):
        kind, at = m.lastgroup, m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "int":
            if len(m[kind]) > MAX_DIGITS:
                raise ParseError("integer of %d digits, more than %d" % (len(m[kind]), MAX_DIGITS), line, at)
            tokens.append(Token(kind, int(m[kind]), line, at))
        elif kind == "ident" and (m[kind][0].isalpha() or m[kind][0] == "_"):
            tokens.append(Token(kind, m[kind], line, at))
        elif kind == "symbol":
            tokens.append(Token(m[kind], m[kind], line, at))
        elif kind in ("ident", "other"):
            raise ParseError("unexpected character %r" % m[kind][0], line, at)
        col = at if kind == "comment" else m.end() - start + 1  # a comment does not advance the column
    tokens.append(Token("eof", None, line, col))
    return tokens


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem: a coefficient ring and a matrix over it."""

    p: int
    variables: tuple
    ideal: tuple  # of Polynomial
    rank: int
    matrix: tuple  # of tuples of Polynomial
    options: dict = field(default_factory=dict)

    @property
    def ncols(self):
        return len(self.matrix[0])

    def serialize(self):
        lines = ["ring {", "  p = %d" % self.p,
                 "  vars = [%s]" % ", ".join(self.variables),
                 "  ideal = [%s]" % ", ".join(str(g) for g in self.ideal),
                 "}", "", "module {", "  rank = %d" % self.rank,
                 "  matrix = ["]
        for i, row in enumerate(self.matrix):
            tail = "," if i + 1 < len(self.matrix) else ""
            lines.append("    [%s]%s" % (", ".join(str(e) for e in row), tail))
        lines.append("  ]")
        lines.append("}")
        if self.options:
            lines.append("")
            lines.append("options {")
            for k in OPTION_KEYS:
                if k in self.options:
                    lines.append("  %s = %s" % (k, self.options[k]))
            lines.append("}")
        return "\n".join(lines) + "\n"


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open around the current token

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, what=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            shown = tok.value if tok.kind != "eof" else "end of input"
            raise ParseError("expected %s, found %r" % (what or kind, shown), tok.line, tok.col)
        self.pos += 1
        return tok

    def at(self, kind):
        return self.tokens[self.pos].kind == kind

    # polynomial expressions, parsed to small tuple trees first: a sum or
    # product is one flat node, so only parentheses make a tree deeper
    def expr(self):
        neg = self.at("-")
        if neg:
            self.take()
        terms = [(neg, self.term())]
        while self.at("+") or self.at("-"):
            terms.append((self.take().kind == "-", self.term()))
        return ("+", terms)

    def term(self):
        first = self.peek()
        factors = [self.factor()]
        while self.at("*"):
            self.take()
            factors.append(self.factor())
        return ("*", factors, first.line, first.col)

    def factor(self):
        node = self.base()
        if self.at("^"):
            caret = self.take()
            tok = self.take("int", "an integer exponent")
            node = ("^", node, tok.value, caret.line, caret.col)
        return node

    def base(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return ("int", tok.value)
        if tok.kind == "ident":
            self.take()
            return ("var", tok.value, tok.line, tok.col)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, tok.line, tok.col)
            self.take()
            self.depth += 1
            node = self.expr()
            self.take(")", "a closing parenthesis")
            self.depth -= 1
            return node
        shown = tok.value if tok.kind != "eof" else "end of input"
        raise ParseError("expected a polynomial, found %r" % shown, tok.line, tok.col)


def _eval_poly(node, ctx):
    kind = node[0]
    if kind == "int":
        return ctx.constant(node[1])
    if kind == "var":
        name = node[1]
        if name not in ctx.names:
            raise ParseError("unknown variable %r" % name, node[2], node[3])
        return ctx.variable(ctx.names.index(name))
    if kind == "^":
        base, n = _eval_poly(node[1], ctx), node[2]
        check_term_degree((base.degree() or 0) * n)  # the degree of base^n, known before expanding it
        return _expand(node, [base], n, ctx.nvars)
    if kind == "*":  # bounded as a whole, which bounds each partial product
        return _expand(node, [_eval_poly(f, ctx) for f in node[1]], 1, ctx.nvars)
    return sum((-_eval_poly(t, ctx) if neg else _eval_poly(t, ctx) for neg, t in node[1]), ctx.zero())


def _expand(node, factors, n, m):
    """prod(factors)^n, refused before it is expanded when it may have more than MAX_TERMS
    terms: at most the product of the term counts to the n (an n past MAX_TERMS' bit length
    takes a count of 2 past it), and at most the monomials in m variables of its degrees."""
    count = prod(len(f.terms) for f in factors) ** min(n, MAX_TERMS.bit_length())
    if count > MAX_TERMS and len(factors) * n > 1:  # one factor to the first power is as written
        low, high = (n * sum(k(map(sum, f.terms)) for f in factors) for k in (min, max))
        monomials = comb(high + m, m) - (comb(low + m - 1, m) if low else 0)
        if monomials > MAX_TERMS:
            raise BudgetExceededError("expansion", "line %d, column %d: this %s may expand to more than %d terms"
                                      % (*node[-2:], "power" if node[0] == "^" else "product", MAX_TERMS))
    f = reduce(mul, factors)
    return f if n == 1 else f ** n


def _open(ps, name, what):
    """Take the `name {` header of a block."""
    tok = ps.take("ident", what)
    if tok.value != name:
        raise ParseError("expected %s, found %r" % (what, tok.value), tok.line, tok.col)
    ps.take("{", "'{'")


def _settings(ps, what, noun, read):
    """Read `key = value` lines up to '}': ({key: read(ps, key token)}, the '}' token)."""
    values = {}
    while not ps.at("}"):
        key = ps.take("ident", what)
        ps.take("=", "'='")
        if key.value in values:
            raise ParseError("duplicate %s %r" % (noun, key.value), key.line, key.col)
        values[key.value] = read(ps, key)
    return values, ps.take("}", "'}'")


def _require(block, values, keys, close):
    for key in keys:
        if key not in values:
            raise ParseError("%s block is missing %r" % (block, key), close.line, close.col)


def _items(ps, item, opening="'['", closing="']'", empty=False):
    """A bracketed comma list: (its '[' token, [item() for each entry])."""
    first = ps.take("[", opening)
    items = []
    if not (empty and ps.at("]")):
        items.append(item())
        while ps.at(","):
            ps.take()
            items.append(item())
    ps.take("]", closing)
    return first, items


def _ring_value(ps, key):
    if key.value == "p":
        return ps.take("int", "a prime").value
    if key.value == "vars":
        return tuple(_items(ps, lambda: ps.take("ident", "a variable name").value)[1])
    if key.value == "ideal":
        return _items(ps, ps.expr, empty=True)[1]
    raise ParseError("unknown ring setting %r" % key.value, key.line, key.col)


def _module_value(ps, key):
    if key.value == "rank":
        return ps.take("int", "a positive integer").value
    if key.value == "matrix":  # the opening '[' token, kept for error positions, and the rows
        return _items(ps, lambda: _items(ps, ps.expr, "'[' starting a matrix row")[1],
                      closing="']' closing the matrix")
    raise ParseError("unknown module setting %r" % key.value, key.line, key.col)


def _option_value(ps, key):
    if key.value not in OPTION_KEYS:
        raise ParseError("unknown option %r (known: %s)" % (key.value, ", ".join(OPTION_KEYS)),
                         key.line, key.col)
    if key.value == "format":
        val = ps.take("ident", "one of %s" % ", ".join(FORMATS))
        if val.value not in FORMATS:
            raise ParseError("format must be one of %s" % ", ".join(FORMATS), val.line, val.col)
        return val.value
    neg = ps.at("-")
    if neg:
        ps.take()
    val = ps.take("int", "an integer").value
    return -val if neg else val


def parse(text):
    """Parse a problem text into a ProblemSpec."""
    ps = _Parser(_lex(text))
    _open(ps, "ring", "a 'ring' block")
    ring, close = _settings(ps, "a ring setting (p, vars, ideal)", "setting", _ring_value)
    _require("ring", ring, ("p", "vars"), close)
    ctx = PolyContext(ring["p"], ring["vars"])
    ideal = tuple(_eval_poly(nd, ctx) for nd in ring.get("ideal", ()))

    _open(ps, "module", "a 'module' block")
    module, close = _settings(ps, "a module setting (rank, matrix)", "setting", _module_value)
    _require("module", module, ("rank", "matrix"), close)
    rank, (first_row_tok, rows) = module["rank"], module["matrix"]
    if rank < 1:
        raise ParseError("rank must be at least 1", close.line, close.col)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError("matrix row %d has %d entries, row 1 has %d" % (i + 1, len(row), width),
                             first_row_tok.line, first_row_tok.col)
    if len(rows) != rank:
        raise ParseError("matrix has %d rows but rank is %d" % (len(rows), rank),
                         first_row_tok.line, first_row_tok.col)
    matrix = tuple(tuple(_eval_poly(nd, ctx) for nd in row) for row in rows)

    options = {}
    if ps.at("ident"):
        _open(ps, "options", "an 'options' block or end of input")
        options, _ = _settings(ps, "an option name", "option", _option_value)
    ps.take("eof", "end of input")
    return ProblemSpec(ring["p"], ring["vars"], ideal, rank, matrix, options)


def build(spec, budget=None):
    """Turn a ProblemSpec into a (GradedRing, ModuleMatrix) pair.

    Raises ContractError for semantic problems the grammar cannot see
    (composite p, inhomogeneous entries, dimension zero and so on).
    """
    from .koszul import ModuleMatrix
    from .rings import make_ring

    ring = make_ring(spec.p, spec.variables, spec.ideal, budget)
    entries = [[ring.element(e) for e in row] for row in spec.matrix]
    return ring, ModuleMatrix(ring, entries)


def spec_of(ring, matrix, options=None):
    """ProblemSpec describing an existing ring and matrix."""
    rows = tuple(tuple(e.rep for e in row) for row in matrix.entries)
    return ProblemSpec(ring.p, ring.names, tuple(ring.ideal_gens),
                       matrix.r, rows, dict(options or {}))
