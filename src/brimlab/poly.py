"""Exact multivariate polynomial arithmetic over a prime field F_p.

All values are immutable once built.  A PolyContext pins the modulus and
the ordered variable names; every Polynomial and VectorPolynomial carries
its context and refuses to mix with values from another one.  Coefficients
are plain ints in [1, p); exponent vectors are tuples of naturals.
"""

from __future__ import annotations


class Record:
    """Immutable value with the fields its class names in __slots__ (a dict
    there documents each), given by position or name; _defaults maps a field
    to its default, called per instance when callable.  Records of one type
    with equal fields are equal; hash and repr skip _unhashed and _unshown."""

    __slots__ = ()
    _defaults = {}
    _unhashed = _unshown = ()

    def __init_subclass__(cls):  # a slot's own setter is the cheapest way to fill it
        cls._setters = tuple(getattr(cls, key).__set__ for key in cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._arguments(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def _arguments(self, args, kwargs):
        fields = self.__slots__
        given = dict(zip(fields, args))
        if len(args) > len(fields) or any(key in given or key not in fields for key in kwargs):
            raise TypeError("%s takes the fields %s; got %d by position and %s by name"
                            % (type(self).__name__, ", ".join(fields), len(args), ", ".join(kwargs) or "none"))
        given.update(kwargs)
        given.update((key, d() if callable(d) else d) for key, d in self._defaults.items() if key not in given)
        missing = [key for key in fields if key not in given]
        if missing:
            raise TypeError("%s is missing the fields %s" % (type(self).__name__, ", ".join(missing)))
        return [given[key] for key in fields]

    def __setattr__(self, key, value=None):
        raise AttributeError("%s is immutable; use replace() for a changed copy" % type(self).__name__)

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, key) for key in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, key) for key in self.__slots__ if key not in self._unhashed))

    def __repr__(self):
        shown = ("%s=%r" % (key, getattr(self, key)) for key in self.__slots__ if key not in self._unshown)
        return "%s(%s)" % (type(self).__qualname__, ", ".join(shown))

    def replace(self, **changes):
        """A copy of this record with the named fields changed."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __reduce__(self):
        return type(self), self._values()


class AlgebraError(Exception):
    """Base class for algebra-layer failures."""


class ContextMismatchError(AlgebraError):
    """Operands live over different variable contexts or moduli."""


class ContractError(AlgebraError):
    """Input violates a documented precondition (bad ring data, bad matrix)."""


class BudgetExceededError(AlgebraError):
    """A computation hit its pair, degree or expansion cap."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


# Colengths and homology lengths may be infinite; that is a value at this
# layer, not an error.  Finite lengths stay exact ints, so no float
# arithmetic ever touches a finite count.
INFINITE = float("inf")


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin on the primes up to 37, exact for
    n < 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 2017)."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n < 37 * 37:  # no prime factor up to its square root
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    # a passes when a^odd = 1 or a^(odd * 2^i) = -1 for some i < s
    return all(pow(a, (n - 1) >> s, n) == 1 or any(pow(a, (n - 1) >> j, n) == n - 1 for j in range(1, s + 1))
               for a in _WITNESSES)


def degrevlex_key(exps):
    """Sort key for exponent tuples: larger key = larger monomial.

    Graded order first; ties broken so that the monomial whose trailing
    exponent difference is negative wins (reverse lexicographic).
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


class PolyContext:
    """Prime modulus below 2^64 and ordered variable names shared by one computation."""

    __slots__ = ("p", "names", "nvars")

    def __init__(self, p, names):
        names = tuple(names)
        if not isinstance(p, int) or p >= 2 ** 64:
            raise ContractError("modulus %r is not an int below 2^64" % (p,))
        if not is_prime(p):
            raise ContractError("modulus %r is not prime" % (p,))
        if not names:
            raise ContractError("at least one variable is required")
        if len(set(names)) != len(names):
            raise ContractError("duplicate variable names in %r" % (names,))
        for nm in names:
            if not isinstance(nm, str) or not nm.isidentifier():
                raise ContractError("bad variable name %r" % (nm,))
        self.p = p
        self.names = names
        self.nvars = len(names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyContext)
            and self.p == other.p
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.p, self.names))

    def __repr__(self):
        return "PolyContext(p=%d, names=%r)" % (self.p, self.names)

    def zero_exps(self):
        return (0,) * self.nvars

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c %= self.p
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {self.zero_exps(): c})

    def variable(self, i):
        if not 0 <= i < self.nvars:
            raise ContractError("variable index %d out of range" % i)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ContractError("bad exponent vector %r" % (exps,))
        coeff %= self.p
        if coeff == 0:
            return Polynomial(self, {})
        return Polynomial(self, {exps: coeff})

    def monomial_str(self, exps):
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)


def _check_ctx(a, b):
    if a.ctx != b.ctx:
        raise ContextMismatchError("mixed contexts %r / %r" % (a.ctx, b.ctx))


class Polynomial:
    """Sparse polynomial: dict from exponent tuple to coefficient in [1, p).

    The dict is canonical (no zero coefficients), so equality is plain
    dict equality.  The zero polynomial has an empty dict and degree None;
    that sentinel is never compared numerically.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        # terms must already be canonical; use from_terms for raw input
        self.ctx = ctx
        self.terms = terms

    @classmethod
    def from_terms(cls, ctx, items):
        terms = {}
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != ctx.nvars or any(e < 0 for e in exps):
                raise ContractError("bad exponent vector %r" % (exps,))
            c = (terms.get(exps, 0) + c) % ctx.p
            if c:
                terms[exps] = c
            else:
                terms.pop(exps, None)
        return cls(ctx, terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def lead_term(self):
        """(exponents, coefficient) of the degrevlex-largest term."""
        if not self.terms:
            raise AlgebraError("zero polynomial has no lead term")
        exps = max(self.terms, key=degrevlex_key)
        return exps, self.terms[exps]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __add__(self, other):
        _check_ctx(self, other)
        p = self.ctx.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = (out.get(exps, 0) + c) % p
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return Polynomial(self.ctx, out)

    def __neg__(self):
        p = self.ctx.p
        return Polynomial(self.ctx, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        _check_ctx(self, other)
        p = self.ctx.p
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, c):
        c %= self.ctx.p
        if c == 0:
            return Polynomial(self.ctx, {})
        p = self.ctx.p
        return Polynomial(self.ctx, {e: (k * c) % p for e, k in self.terms.items()})

    def __pow__(self, n):
        if not (isinstance(n, int) and n >= 0):
            raise ContractError("exponent must be a nonnegative int, not %r" % (n,))
        out = self.ctx.one()
        for bit in bin(n)[2:]:  # square and multiply, from the top bit down
            out = out * out * self if bit == "1" else out * out
        return out

    def monic(self):
        if not self.terms:
            return self
        _, c = self.lead_term()
        return self.scale(pow(c, -1, self.ctx.p))

    def sorted_terms(self):
        """Terms in descending degrevlex order."""
        return sorted(self.terms.items(), key=lambda kv: degrevlex_key(kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = self.ctx.monomial_str(exps)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append("%d*%s" % (c, mono))
        return " + ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % self


class VectorPolynomial:
    """Element of a free module F_p[x]^s: a tuple of s polynomials."""

    __slots__ = ("ctx", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ContractError("vector needs at least one component")
        ctx = components[0].ctx
        for c in components[1:]:
            if c.ctx is not ctx and c.ctx != ctx:
                raise ContextMismatchError("mixed contexts inside vector")
        self.ctx = ctx
        self.components = components

    @property
    def rank(self):
        return len(self.components)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, VectorPolynomial):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __add__(self, other):
        if self.rank != other.rank:
            raise ContractError("cannot add vectors of rank %d and %d" % (self.rank, other.rank))
        return VectorPolynomial(tuple(a + b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return VectorPolynomial(tuple(-a for a in self.components))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly):
        """Multiply every component by a Polynomial or int."""
        if isinstance(poly, int):
            return VectorPolynomial(tuple(c.scale(poly) for c in self.components))
        return VectorPolynomial(tuple(poly * c for c in self.components))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return "VectorPolynomial(%s)" % self
