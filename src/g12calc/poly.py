"""Exact sparse multivariate polynomials over the rationals.

A polynomial is stored as a map from exponent tuples to nonzero exact
coefficients, together with an ordered tuple of variable names.  A
coefficient is an `int` whenever it is integral and a `Fraction`
otherwise, so polynomials over Z (the common case) run on machine-speed
integer arithmetic.  `float` is rejected at construction: no inexact
value can enter.  The scalar accessors `constant_value()` and `eval()`
always return a `Fraction`.

The representation is canonical: variables that appear in no term are
dropped, zero coefficients are never stored, integral coefficients are
`int`, and the variable order is the fixed global one (form variables
x1, y1, x2, y2 first, then parameter names sorted).  Two polynomials are
equal iff their canonical forms are equal, so identity testing is a dict
comparison.

The zero polynomial has no variables and no terms.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add, sub as _sub
from typing import Iterable, Mapping, Union

Scalar = Fraction

# Form variables come first in every merged context, in this order.
_FORM_VARS = ("x1", "y1", "x2", "y2")
_FORM_INDEX = {v: i for i, v in enumerate(_FORM_VARS)}


def _var_key(name: str):
    if name in _FORM_INDEX:
        return (0, _FORM_INDEX[name], "")
    return (1, 0, name)


def _exact(c):
    """Canonical stored coefficient: `int` when integral, else `Fraction`."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        return _exact(Fraction(c))
    raise TypeError(f"not an exact scalar: {c!r}")


def _as_fraction(c) -> Fraction:
    return Fraction(_exact(c))


def _div(a, b):
    """Exact quotient of two stored coefficients, canonical."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, Scalar] = None):
        vs = tuple(vars)
        tm = {}
        if terms:
            for e, c in terms.items():
                c = _exact(c)
                if c:
                    tm[e] = c
        # drop unused variables and sort the rest into the global order
        if vs:
            used = [i for i in range(len(vs)) if any(e[i] for e in tm)]
            order = sorted(used, key=lambda i: _var_key(vs[i]))
            if order != list(range(len(vs))):
                vs = tuple(vs[i] for i in order)
                tm = {tuple(e[i] for i in order): c for e, c in tm.items()}
        _set_vars(self, vs)
        _set_terms(self, tm)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        c = _exact(c)
        if c == 0:
            return Poly()
        return _trusted((), {(): c})

    @staticmethod
    def var(name: str, power: int = 1, coeff=1) -> "Poly":
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return Poly.const(coeff)
        return Poly((name,), {(power,): coeff})

    @staticmethod
    def monomial(assignment: Mapping[str, int], coeff=1) -> "Poly":
        names = tuple(assignment)
        exps = tuple(assignment[n] for n in names)
        return Poly(names, {exps: coeff})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Scalar:
        if not self.terms:
            return Fraction(0)
        if self.vars:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.terms[()])

    def degree(self, var: str = None) -> int:
        """Total degree, or degree in one variable; zero poly has degree 0."""
        if not self.terms:
            return 0
        if var is None:
            return max(sum(e) for e in self.terms)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "Poly"):
        """Common variable tuple and re-keyed term dicts for self, other."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = sorted(set(self.vars) | set(other.vars), key=_var_key)
        merged = tuple(merged)

        def remap(p: "Poly"):
            pos = [merged.index(v) for v in p.vars]
            out = {}
            for e, c in p.terms.items():
                ne = [0] * len(merged)
                for i, x in zip(pos, e):
                    ne[i] = x
                out[tuple(ne)] = c
            return out

        return merged, remap(self), remap(other)

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        vs, a, b = self._aligned(other)
        out = dict(a)
        cancelled = False
        for e, c in b.items():
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s += c
            if not s:
                del out[e]
                cancelled = True
            elif type(s) is int or s.denominator != 1:
                out[e] = s
            else:
                out[e] = s.numerator
        # a cancelled term may take the last occurrence of a variable
        return Poly(vs, out) if cancelled else _trusted(vs, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            if c == 0:
                return Poly()
            out = {}
            for e, k in self.terms.items():
                v = k * c
                out[e] = v if type(v) is int or v.denominator != 1 \
                    else v.numerator
            return _trusted(self.vars, out)
        other = _coerce(other)
        if not self.terms or not other.terms:
            return Poly()
        vs, a, b = self._aligned(other)
        out = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(_add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        # over an integral domain every variable of either factor stays
        # in the product; only coefficients can cancel
        return _trusted(vs, {
            e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / c)
        return divexact(self, _coerce(other))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus ------------------------------------------------------

    def diff(self, var: str, order: int = 1) -> "Poly":
        """Iterated formal partial derivative."""
        if order < 0:
            raise ValueError("negative order")
        p = self
        for _ in range(order):
            if var not in p.vars:
                return Poly()
            i = p.vars.index(var)
            out = {}
            for e, c in p.terms.items():
                if e[i] == 0:
                    continue
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[ne] = c * e[i]
            p = Poly(p.vars, out)
        return p

    def subs(self, assignment: Mapping[str, Union["Poly", Scalar, int]]) -> "Poly":
        """Simultaneous substitution; unassigned variables stay.

        Scalar and constant-Poly values are folded into the coefficients
        in one pass over the terms, keyed by the exponents that remain;
        the fold runs on integer numerators and denominators and makes one
        canonical coefficient per key.  Only non-constant Poly values are
        expanded through their powers.
        """
        vs = self.vars
        scalars = []  # (position in vs, numerator, denominator)
        polys = {}    # position in vs -> non-constant Poly value
        keep = []     # positions of unassigned variables
        for i, v in enumerate(vs):
            if v not in assignment:
                keep.append(i)
                continue
            val = assignment[v]
            if isinstance(val, Poly):
                if val.vars:
                    polys[i] = val
                    continue
                val = val.terms.get((), 0)
            else:
                val = _exact(val)
            scalars.append((i, val.numerator, val.denominator))
        if len(keep) == len(vs):
            return self
        ppos = list(polys)
        groups = {}  # exponents of the Poly-valued vars -> {kept exps: [n, d]}
        for e, c in self.terms.items():
            n, d = c.numerator, c.denominator
            for i, xn, xd in scalars:
                k = e[i]
                if k == 1:
                    n *= xn
                    d *= xd
                elif k:
                    n *= xn ** k
                    d *= xd ** k
            if not n:
                continue
            part = groups.setdefault(tuple([e[i] for i in ppos]), {})
            ke = tuple([e[i] for i in keep])
            acc = part.get(ke)
            if acc is None:
                part[ke] = [n, d]
            elif acc[1] == d:
                acc[0] += n
            else:
                acc[0] = acc[0] * d + n * acc[1]
                acc[1] *= d
        kept_vars = tuple([vs[i] for i in keep])
        total = None
        pows = {}
        for pe, part in groups.items():
            term = Poly(kept_vars, {ke: Fraction(n, d) if d != 1 else n
                                    for ke, (n, d) in part.items()})
            for i, k in zip(ppos, pe):
                if k:
                    f = pows.get((i, k))
                    if f is None:
                        f = pows[(i, k)] = polys[i] ** k
                    term = term * f
            total = term if total is None else total + term
        return Poly() if total is None else total

    def eval(self, assignment: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at a full rational point."""
        missing = [v for v in self.vars if v not in assignment]
        if missing:
            raise ValueError(f"unassigned variables: {missing}")
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for v, k in zip(self.vars, e):
                if k:
                    val *= _as_fraction(assignment[v]) ** k
            total += val
        return total

    def coefficients_in(self, vars: Iterable[str]) -> dict:
        """Collect by exponents of the given variables.

        Returns {exponent tuple over `vars`: Poly in the remaining
        variables}.
        """
        vs = tuple(vars)
        pos = {v: i for i, v in enumerate(vs)}
        rest = [v for v in self.vars if v not in pos]
        out = {}
        for e, c in self.terms.items():
            key = [0] * len(vs)
            rexp = []
            for v, k in zip(self.vars, e):
                if v in pos:
                    key[pos[v]] = k
                else:
                    rexp.append(k)
            key = tuple(key)
            part = out.setdefault(key, {})
            re = tuple(rexp)
            part[re] = part.get(re, 0) + c
        return {k: Poly(rest, tm) for k, tm in out.items()}

    # -- presentation ---------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e) if k
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        terms = [
            {"coeff": f"{c.numerator}/{c.denominator}", "exps": list(e)}
            for e, c in sorted(self.terms.items())
        ]
        return {"vars": list(self.vars), "terms": terms}

    @staticmethod
    def from_json(data: dict) -> "Poly":
        """Inverse of to_json.  A coefficient is an int or a "p/q"
        string; the constructor's exactness guard rejects a float."""
        vs = tuple(data["vars"])
        tm = {tuple(t["exps"]): t["coeff"] for t in data["terms"]}
        return Poly(vs, tm)


_set_vars = Poly.vars.__set__
_set_terms = Poly.terms.__set__


def _trusted(vs: tuple, tm: dict) -> Poly:
    """Wrap data that is already canonical, without checking it: every
    variable of `vs` occurs, in the global order, and every value of `tm`
    is a nonzero canonical coefficient."""
    p = object.__new__(Poly)
    _set_vars(p, vs)
    _set_terms(p, tm)
    return p


def _coerce(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {x!r} to Poly")


def divexact(p: Poly, q: Poly) -> Poly:
    """Exact polynomial division; raises if q does not divide p.

    Leading-term elimination in lexicographic order.  Used by the
    fraction-free determinant, where divisibility is guaranteed; with
    integer coefficients on both sides each step is an exact `//`.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return Poly()
    if not q.vars:
        qc = q.terms[()]
        if qc == 1:
            return p
        return _trusted(p.vars, {e: _div(c, qc) for e, c in p.terms.items()})
    vs, a, b = p._aligned(q)
    qlead = max(b)
    qc = b[qlead]
    qrest = [(eb, cb) for eb, cb in b.items() if eb != qlead]
    quot = {}
    rem = dict(a)
    while rem:
        lead = max(rem)
        e = tuple(map(_sub, lead, qlead))
        if any(x < 0 for x in e):
            raise ValueError("inexact polynomial division")
        c = _div(rem.pop(lead), qc)
        quot[e] = c
        for eb, cb in qrest:
            key = tuple(map(_add, e, eb))
            s = rem.get(key, 0) - c * cb
            if not s:
                rem.pop(key, None)
            elif type(s) is int or s.denominator != 1:
                rem[key] = s
            else:
                rem[key] = s.numerator
    return Poly(vs, quot)


# -- parsing of polynomial literals -------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Parser:
    """Recursive-descent parser for literals like `3/2*x1^2*y2 - x2*y2`."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Poly:
        p = self._expr()
        self._skip()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)
        return p

    def _expr(self) -> Poly:
        sign = 1
        while self._peek() and self._peek() in "+-":
            if self._peek() == "-":
                sign = -sign
            self.pos += 1
        total = self._term() * sign
        while self._peek() and self._peek() in "+-":
            op = self._peek()
            self.pos += 1
            t = self._term()
            total = total + t if op == "+" else total - t
        return total

    def _term(self) -> Poly:
        p = self._power()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                p = p * self._power()
            elif ch == "/":
                self.pos += 1
                d = self._power()
                if not d.is_constant():
                    raise ParseError("can only divide by constants", self.pos)
                p = p / d.constant_value()
            elif ch == "(" or ch.isalpha():
                p = p * self._power()  # implicit multiplication
            else:
                return p

    def _power(self) -> Poly:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            return base ** self._int()
        if self.text[self.pos:self.pos + 2] == "**":
            self.pos += 2
            return base ** self._int()
        return base

    def _int(self) -> int:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected integer", self.pos)
        return int(self.text[start:self.pos])

    def _atom(self) -> Poly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            p = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return p
        if ch == "-":
            self.pos += 1
            return -self._atom()
        if ch.isdigit():
            return Poly.const(self._int())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return Poly.var(self.text[start:self.pos])
        raise ParseError("unexpected character", self.pos)


def parse_poly(text: str) -> Poly:
    return _Parser(text).parse()
