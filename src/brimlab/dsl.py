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

Comments run from # to end of line.  Polynomials use +, -, *, ^ and
parentheses with explicit multiplication only.  Parse errors carry the
line and column of the offending token.
"""

from dataclasses import dataclass, field

from .groebner import check_term_degree
from .poly import PolyContext, Polynomial


OPTION_KEYS = ("tmin", "tmax", "seed", "samples", "pairs", "degree", "format")
FORMATS = ("text", "json", "csv")

_SYMBOLS = "{}[]=,+-*^()"


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.reason = message


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", one of _SYMBOLS, "eof"
    value: object
    line: int
    col: int


def _lex(text):
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch.isdigit():
            start = i
            c0 = col
            while i < len(text) and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("int", int(text[start:i]), line, c0))
        elif ch.isalpha() or ch == "_":
            start = i
            c0 = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("ident", text[start:i], line, c0))
        elif ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
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

    # polynomial expressions, parsed to small tuple trees first
    def expr(self):
        if self.at("-"):
            self.take()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self.at("+") or self.at("-"):
            op = self.take().kind
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.at("*"):
            self.take()
            node = ("*", node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.at("^"):
            self.take()
            tok = self.take("int", "an integer exponent")
            node = ("^", node, tok.value)
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
            self.take()
            node = self.expr()
            self.take(")", "a closing parenthesis")
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
    if kind == "neg":
        return -_eval_poly(node[1], ctx)
    if kind == "^":
        base, n = _eval_poly(node[1], ctx), node[2]
        check_term_degree((base.degree() or 0) * n)  # the degree of base^n, known before expanding it
        return base ** n
    a = _eval_poly(node[1], ctx)
    b = _eval_poly(node[2], ctx)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def parse(text):
    """Parse a problem text into a ProblemSpec."""
    ps = _Parser(_lex(text))
    tok = ps.take("ident", "a 'ring' block")
    if tok.value != "ring":
        raise ParseError("expected a 'ring' block, found %r" % tok.value, tok.line, tok.col)
    ps.take("{", "'{'")
    p = None
    variables = None
    ideal_nodes = None
    while not ps.at("}"):
        key = ps.take("ident", "a ring setting (p, vars, ideal)")
        ps.take("=", "'='")
        if key.value == "p":
            if p is not None:
                raise ParseError("duplicate setting 'p'", key.line, key.col)
            p = ps.take("int", "a prime").value
        elif key.value == "vars":
            if variables is not None:
                raise ParseError("duplicate setting 'vars'", key.line, key.col)
            ps.take("[", "'['")
            names = [ps.take("ident", "a variable name").value]
            while ps.at(","):
                ps.take()
                names.append(ps.take("ident", "a variable name").value)
            ps.take("]", "']'")
            variables = tuple(names)
        elif key.value == "ideal":
            if ideal_nodes is not None:
                raise ParseError("duplicate setting 'ideal'", key.line, key.col)
            ps.take("[", "'['")
            ideal_nodes = []
            if not ps.at("]"):
                ideal_nodes.append(ps.expr())
                while ps.at(","):
                    ps.take()
                    ideal_nodes.append(ps.expr())
            ps.take("]", "']'")
        else:
            raise ParseError("unknown ring setting %r" % key.value, key.line, key.col)
    close = ps.take("}", "'}'")
    if p is None:
        raise ParseError("ring block is missing 'p'", close.line, close.col)
    if variables is None:
        raise ParseError("ring block is missing 'vars'", close.line, close.col)
    ctx = PolyContext(p, variables)
    ideal = tuple(_eval_poly(nd, ctx) for nd in ideal_nodes or ())

    tok = ps.take("ident", "a 'module' block")
    if tok.value != "module":
        raise ParseError("expected a 'module' block, found %r" % tok.value, tok.line, tok.col)
    ps.take("{", "'{'")
    rank = None
    rows = None
    first_row_tok = None
    while not ps.at("}"):
        key = ps.take("ident", "a module setting (rank, matrix)")
        ps.take("=", "'='")
        if key.value == "rank":
            if rank is not None:
                raise ParseError("duplicate setting 'rank'", key.line, key.col)
            rank = ps.take("int", "a positive integer").value
        elif key.value == "matrix":
            if rows is not None:
                raise ParseError("duplicate setting 'matrix'", key.line, key.col)
            first_row_tok = ps.take("[", "'['")
            rows = []
            while True:
                ps.take("[", "'[' starting a matrix row")
                row = [ps.expr()]
                while ps.at(","):
                    ps.take()
                    row.append(ps.expr())
                ps.take("]", "']'")
                rows.append(row)
                if ps.at(","):
                    ps.take()
                    continue
                break
            ps.take("]", "']' closing the matrix")
        else:
            raise ParseError("unknown module setting %r" % key.value, key.line, key.col)
    close = ps.take("}", "'}'")
    if rank is None:
        raise ParseError("module block is missing 'rank'", close.line, close.col)
    if rows is None:
        raise ParseError("module block is missing 'matrix'", close.line, close.col)
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
        tok = ps.take("ident")
        if tok.value != "options":
            raise ParseError("expected an 'options' block or end of input, found %r" % tok.value,
                             tok.line, tok.col)
        ps.take("{", "'{'")
        while not ps.at("}"):
            key = ps.take("ident", "an option name")
            ps.take("=", "'='")
            if key.value not in OPTION_KEYS:
                raise ParseError("unknown option %r (known: %s)" % (key.value, ", ".join(OPTION_KEYS)),
                                 key.line, key.col)
            if key.value in options:
                raise ParseError("duplicate option %r" % key.value, key.line, key.col)
            if key.value == "format":
                val = ps.take("ident", "one of %s" % ", ".join(FORMATS))
                if val.value not in FORMATS:
                    raise ParseError("format must be one of %s" % ", ".join(FORMATS), val.line, val.col)
                options[key.value] = val.value
            else:
                neg = False
                if ps.at("-"):
                    ps.take()
                    neg = True
                val = ps.take("int", "an integer")
                options[key.value] = -val.value if neg else val.value
        ps.take("}", "'}'")
    ps.take("eof", "end of input")
    return ProblemSpec(p, variables, ideal, rank, matrix, options)


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
