"""Exact sparse multivariate polynomials over the rationals, in one ring.

Every variable name is interned once per process in a registry that
gives it a fixed index; the form variables x1, y1, x2, y2 are interned
first and hold indices 0-3.  A monomial is one packed `int` key with a
fixed field of _FIELD = 8 bits per variable index: the exponent of
variable i sits at bit i * _FIELD.  So the key of a product is the sum of
the keys (Monagan and Pearce, "POLY: a new polynomial data structure for
Maple 17", 2013), and no operation aligns the variables of its operands.

The top bit of each field is a guard bit.  An exponent is at most
_MAX_EXP = 127, so the sum of two valid fields never carries into the
next field; a product, a power or a constructed term whose exponent
would exceed _MAX_EXP raises OverflowError instead of wrapping.

A key is as long as the index of its highest variable, so the names that
live for the whole process are declared first: `integrals` calls
`declare` once, at import, with the curvature ring (the 12 curvature
coordinates and `c`) and the jmatrix parameters `t` and `tp`, which then
hold indices 4-18.  Every key of the curvature Jacobian and of the first
integrals fits in 19 fields (152 bits), however many names later work
interns.  Transient names (unknown coefficients such as `k_*` and `u_*`,
the Spencer and torsion coordinates) stay interned on demand, after the
prefix.  Fields are kept narrow for the same reason.

A polynomial stores `packed`, a dict from key to nonzero exact
coefficient: an `int` whenever it is integral and a `Fraction` otherwise,
so polynomials over Z (the common case) run on machine-speed integer
arithmetic.  `float` is rejected at construction: no inexact value can
enter.  The scalar accessor of a constant polynomial, `constant_value()`,
always returns a `Fraction`.  Polynomials are evaluated at a point that
gives every variable a scalar by `Substitution(point).values(polys)`,
which returns canonical `int`/`Fraction` values; `subs(point)` is the
substitution that may leave a polynomial.

The representation is canonical: zero coefficients are never stored and
integral coefficients are `int`.  Two polynomials are equal iff their
dicts are equal, so identity testing is a dict comparison.  `.vars` (the
variables that occur, form variables first, then the other names sorted)
and `.terms` ({exponent tuple over .vars: coefficient}) are read-only
views derived from the keys; they and every result, term order included,
are independent of the order in which names were interned.  Term order is
dict insertion order: the order in which an operation first produced each
monomial.

There is one product loop, `add_product(acc, p, q)`: acc += p * q in
place on a packed dict.  `Poly.__mul__` runs it into a fresh dict, and
`excalc` runs it into one dict per exterior monomial, so a sum of many
products builds no intermediate Poly.  Its term order is that of
`Poly(acc) + p * q`: the product's terms in loop order (a product with
at least two terms on both sides summed first, zero sums dropped), each
then added as `__add__` adds it, a new or a cancelled-and-returning key
last.

There is one substitution loop, `Substitution.apply(polys)`: one pass
over the terms of each polynomial folds every scalar-valued variable
into the coefficient, on an integer numerator over a running lcm
denominator, each monomial's value computed once per Substitution, and
keeps the other monomials in order of first appearance.  Non-constant
Poly values are expanded through their cached powers afterwards, only
when the point has some.  `Poly.subs` is one `apply`, `PolyMatrix.subs`
one `apply` over all its entries, and `Substitution.values` reads the
constant coefficient of each result.

A sum of products is `dot(pairs)`, the sum of p * q over (p, q) pairs of
Polys or exact scalars: every product goes into one accumulator through
`add_product`, and a pair with a zero factor is skipped.  Its value and
term order are those of `Poly.zero() + p1 * q1 + p2 * q2 + ...`.

The zero polynomial has no variables and no terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, perm
from operator import or_
from typing import Iterable, Mapping, Union

Scalar = Fraction

# Form variables come first in the canonical order, in this order.
_FORM_VARS = ("x1", "y1", "x2", "y2")
_FORM_INDEX = {v: i for i, v in enumerate(_FORM_VARS)}

_FIELD = 8                            # bits per variable, guard bit included
_MAX_EXP = (1 << (_FIELD - 1)) - 1    # largest exponent a field holds
_MASK = (1 << _FIELD) - 1


def _var_key(name: str):
    """Sort key of the canonical variable order."""
    if name in _FORM_INDEX:
        return (0, _FORM_INDEX[name], "")
    return (1, 0, name)


# The registry: index -> name, name -> index, index -> canonical sort key,
# and the guard bits of every interned field.  It only grows.
_NAMES: list = []
_INDEX: dict = {}
_ORDER: list = []
_GUARD = 0


def _intern(name: str) -> int:
    i = _INDEX.get(name)
    if i is None:
        if type(name) is not str:
            raise TypeError(f"not a variable name: {name!r}")
        global _GUARD
        i = len(_NAMES)
        _NAMES.append(name)
        _ORDER.append(_var_key(name))
        _INDEX[name] = i
        _GUARD |= 1 << (i * _FIELD + _FIELD - 1)
    return i


for _v in _FORM_VARS:
    _intern(_v)


def declare(names: Iterable[str]) -> None:
    """Intern `names` in order; a name already interned keeps its index.
    Called at import, before any other name is seen, it fixes the prefix
    of the registry after the form variables."""
    for name in names:
        _intern(name)


def _overflow() -> OverflowError:
    return OverflowError(f"exponent exceeds {_MAX_EXP}")


def _indices(support: int) -> list:
    """Indices of the nonzero fields of a key, ascending."""
    out = []
    while support:
        i = ((support & -support).bit_length() - 1) // _FIELD
        out.append(i)
        support &= ~(_MASK << (i * _FIELD))
    return out


def _canonical_indices(support: int) -> list:
    return sorted(_indices(support), key=_ORDER.__getitem__)


def var_key(name: str) -> int:
    """The key of the monomial `name`^1."""
    return 1 << (_intern(name) * _FIELD)


def fields_mask(names: Iterable[str]) -> int:
    """The bits of the fields of the named variables."""
    return reduce(or_, (_MASK << (_intern(v) * _FIELD) for v in names), 0)


# The form variables hold the four lowest fields.
_FORM_BITS = 4 * _FIELD
_F1, _F2, _F3 = _FIELD, 2 * _FIELD, 3 * _FIELD


def form_key(e_x1: int, e_y1: int, e_x2: int, e_y2: int) -> int:
    """The key of x1^e_x1 y1^e_y1 x2^e_x2 y2^e_y2, nonnegative exponents."""
    if max(e_x1, e_y1, e_x2, e_y2) > _MAX_EXP:
        raise _overflow()
    return e_x1 | e_y1 << _F1 | e_x2 << _F2 | e_y2 << _F3


def split_form(key: int):
    """((x1, y1, x2, y2) exponents, key of the other variables)."""
    return ((key & _MASK, key >> _F1 & _MASK, key >> _F2 & _MASK,
             key >> _F3 & _MASK), key >> _FORM_BITS << _FORM_BITS)


def _exact(c):
    """Canonical stored coefficient: `int` when integral, else `Fraction`.
    A `bool` is not a scalar and raises TypeError, like a `float`."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    if isinstance(c, str):
        return _exact(Fraction(c))
    raise TypeError(f"not an exact scalar: {c!r}")


def _div(a, b):
    """Exact quotient of two stored coefficients, canonical."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("packed",)

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, Scalar] = None):
        """From variable names and {exponent tuple: coefficient}.

        Raises ValueError on a repeated name, on an exponent tuple whose
        length differs from the number of names, and on an exponent that
        is not a nonnegative `int` (a bool included); OverflowError on an
        exponent above _MAX_EXP; TypeError on an inexact coefficient.
        """
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated variable name in {vs}")
        units = [var_key(v) for v in vs]
        tm = {}
        if terms:
            for e, c in terms.items():
                c = _exact(c)
                if type(e) is not tuple or len(e) != len(vs):
                    raise ValueError(
                        f"exponents {e!r} do not match the variables {vs}")
                key = 0
                for u, k in zip(units, e):
                    if type(k) is not int or k < 0:
                        raise ValueError(
                            f"not a nonnegative int exponent: {k!r}")
                    if k > _MAX_EXP:
                        raise _overflow()
                    key += u * k
                if c:
                    tm[key] = c
        _set_packed(self, tm)

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
        return _trusted({0: c})

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

    # -- views -----------------------------------------------------------

    def support(self) -> int:
        """A key whose nonzero fields are the variables that occur."""
        return reduce(or_, self.packed, 0)

    @property
    def vars(self) -> tuple:
        """The variables that occur, in the canonical order."""
        return tuple(_NAMES[i] for i in _canonical_indices(self.support()))

    @property
    def terms(self) -> dict:
        """{exponent tuple over .vars: coefficient}, in term order."""
        shifts = [i * _FIELD for i in _canonical_indices(self.support())]
        return {tuple([k >> s & _MASK for s in shifts]): c
                for k, c in self.packed.items()}

    def bidegrees(self) -> set:
        """The (x1, y1)- and (x2, y2)-degrees of the terms."""
        return {((k & _MASK) + (k >> _F1 & _MASK),
                 (k >> _F2 & _MASK) + (k >> _F3 & _MASK))
                for k in self.packed}

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        return not any(self.packed)

    def constant_value(self) -> Scalar:
        if not self.packed:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.packed[0])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        if type(other) is not Poly:
            other = _coerce(other)
        if not other.packed:
            return self
        if not self.packed:
            return other
        out = dict(self.packed)
        for k, c in other.packed.items():
            s = out.get(k)
            if s is None:
                out[k] = c
                continue
            s += c
            if not s:
                del out[k]
            elif type(s) is int or s.denominator != 1:
                out[k] = s
            else:
                out[k] = s.numerator
        return _trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _trusted({k: -c for k, c in self.packed.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                c = _exact(other)
                if c == 0:
                    return Poly()
                out = {}
                for k, v in self.packed.items():
                    v = v * c
                    out[k] = v if type(v) is int or v.denominator != 1 \
                        else v.numerator
                return _trusted(out)
            other = _coerce(other)
        out = {}
        add_product(out, self, other)
        return _trusted(out)

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
        return self.packed == other.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    # -- calculus ------------------------------------------------------

    def diff(self, var: str, order: int = 1) -> "Poly":
        """Iterated formal partial derivative."""
        if order < 0:
            raise ValueError("negative order")
        if order == 0:
            return self
        i = _INDEX.get(var)
        if i is None:
            return Poly()
        s = i * _FIELD
        drop = order << s
        out = {}
        for k, c in self.packed.items():
            e = k >> s & _MASK
            if e >= order:
                c = c * perm(e, order)
                out[k - drop] = c if type(c) is int or c.denominator != 1 \
                    else c.numerator
        return _trusted(out)

    def subs(self, assignment: Union[Mapping[str, Union["Poly", Scalar, int]],
                                     "Substitution"]) -> "Poly":
        """Simultaneous substitution; unassigned variables stay.

        `assignment` is a mapping or a `Substitution` prepared from one;
        this is one `Substitution.apply`, and a caller with many
        polynomials at one point hands them all to one `apply` instead.
        """
        sub = assignment if type(assignment) is Substitution \
            else Substitution(assignment)
        return sub.apply((self,))[0]

    def coefficients_in(self, vars: Iterable[str]) -> dict:
        """Collect by exponents of the given variables.

        Returns {exponent tuple over `vars`: Poly in the remaining
        variables}.
        """
        shifts = [_intern(v) * _FIELD for v in vars]
        rest = ~reduce(or_, (_MASK << s for s in shifts), 0)
        out = {}
        for k, c in self.packed.items():
            key = tuple([k >> s & _MASK for s in shifts])
            out.setdefault(key, {})[k & rest] = c
        return {key: _trusted(tm) for key, tm in out.items()}

    # -- presentation ---------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        vs, terms = self.vars, self.terms
        bits = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(vs, e) if k
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
        string; the constructor's exactness guard rejects a float, and a
        repeated `exps` entry is a ValueError."""
        vs = tuple(data["vars"])
        tm = {}
        for t in data["terms"]:
            e = tuple(t["exps"])
            if e in tm:
                raise ValueError(f"repeated exponents {list(e)}")
            tm[e] = t["coeff"]
        return Poly(vs, tm)


_set_packed = Poly.packed.__set__


class Substitution:
    """An assignment {name: value} validated once, and the one
    substitution pass of the ring, `apply`.

    Each value is checked for exactness here, whether or not a later
    polynomial contains its variable.  A scalar or constant-Poly value
    becomes a (numerator, denominator) pair; a non-constant Poly value
    stays a Poly.  What a pass builds is kept for the next one: the
    (numerator, denominator) of each monomial in the scalar-valued
    variables, keyed by its key masked to their fields, and the powers of
    each Poly value.  A name not yet interned occurs in no existing
    polynomial and is skipped, so a Substitution serves the polynomials
    that exist when it is made.
    """

    __slots__ = ("scalars", "polys", "assigned", "smask", "pmask", "monos",
                 "pows")

    def __init__(self, assignment: Mapping[str, Union[Poly, Scalar, int]]):
        scalars = {}  # shift -> (numerator, denominator)
        polys = []    # (canonical sort key, shift, non-constant Poly value)
        assigned = 0  # fields of the assigned variables
        for name, val in assignment.items():
            if not isinstance(val, Poly):
                val = _exact(val)
            elif val.is_constant():
                val = val.packed.get(0, 0)
            i = _INDEX.get(name)
            if i is None:
                continue
            s = i * _FIELD
            assigned |= _MASK << s
            if isinstance(val, Poly):
                polys.append((_ORDER[i], s, val))
            else:
                scalars[s] = val.numerator, val.denominator
        polys.sort(key=lambda t: t[0])
        self.scalars = scalars
        self.polys = [(s, val) for _, s, val in polys]
        self.assigned = assigned
        self.pmask = reduce(or_, (_MASK << s for s, _ in self.polys), 0)
        self.smask = assigned & ~self.pmask
        self.monos = {0: (1, 1)}
        self.pows = {}

    def mono_value(self, key: int) -> tuple:
        """(numerator, denominator) of the monomial `key` in the
        scalar-assigned variables, computed once and kept in `monos`."""
        n = d = 1
        k = key
        while k:
            s = (k & -k).bit_length() - 1
            s -= s % _FIELD
            xn, xd = self.scalars[s]
            e = k >> s & _MASK
            if e == 1:
                n *= xn
                d *= xd
            else:
                n *= xn ** e
                d *= xd ** e
            k ^= e << s
        self.monos[key] = n, d
        return n, d

    def apply(self, polys: Iterable[Poly]) -> list:
        """Each polynomial with the assignment substituted, in the one
        substitution loop of the module docstring.  A term the point makes
        zero adds no key; each key makes one canonical coefficient."""
        monos, smask, rest = self.monos, self.smask, ~self.smask
        out = []
        for p in polys:
            if not p.packed:
                out.append(p)
                continue
            acc = {}  # key of the other variables -> [numerator, denominator]
            for k, c in p.packed.items():
                m = monos.get(k & smask)
                if m is None:
                    m = self.mono_value(k & smask)
                n = c.numerator * m[0]
                if not n:
                    continue
                d = c.denominator * m[1]
                a = acc.get(k & rest)
                if a is None:
                    acc[k & rest] = [n, d]
                elif a[1] == d:
                    a[0] += n
                else:
                    g = gcd(a[1], d)
                    a[0] = a[0] * (d // g) + n * (a[1] // g)
                    a[1] = a[1] // g * d
            if self.pmask:
                out.append(self._expand(acc))
                continue
            tm = {}
            for k, (n, d) in acc.items():
                if n:
                    tm[k] = n if d == 1 else _div(n, d)
            out.append(_trusted(tm))
        return out

    def _expand(self, acc: dict) -> Poly:
        """The sum, over the exponents of the Poly-valued variables in
        `acc` in order, of the polynomial in the other variables times
        the powers of the values, in the canonical variable order."""
        groups = {}  # key of the Poly-valued fields -> {kept key: [n, d]}
        for k, a in acc.items():
            groups.setdefault(k & self.pmask, {})[k & ~self.pmask] = a
        total = Poly()
        for pk, part in groups.items():
            term = _trusted({k: n if d == 1 else _div(n, d)
                             for k, (n, d) in part.items() if n})
            for s, val in self.polys:
                e = pk >> s & _MASK
                if e:
                    f = self.pows.get((s, e))
                    if f is None:
                        f = self.pows[(s, e)] = val ** e
                    term = term * f
            total = total + term
        return total

    def values(self, polys: Iterable[Poly]) -> list:
        """The exact value of each polynomial at this point, canonical
        (`int` when integral, else `Fraction`): the constant coefficient
        `apply` leaves.  ValueError when the point leaves a variable of a
        polynomial unassigned or gives it a non-constant Poly value, even
        in a term the point makes zero.
        """
        polys = list(polys)
        for p in polys:
            free = p.support() & ~self.smask
            if free:
                names = [_NAMES[i] for i in _canonical_indices(free)]
                raise ValueError(f"no scalar value for {names}")
        return [q.packed.get(0, 0) for q in self.apply(polys)]


def _trusted(tm: dict) -> Poly:
    """Wrap data that is already canonical, without checking it: every
    key is valid (no guard bit set) and every value of `tm` is a nonzero
    canonical coefficient."""
    p = object.__new__(Poly)
    _set_packed(p, tm)
    return p


def add_product(acc: dict, p: Poly, q: Poly, negate: bool = False) -> None:
    """acc += p * q (acc -= p * q when `negate`), in place: the one
    product loop of the ring, behind `Poly.__mul__` and the exterior
    calculus.

    `acc` is a canonical packed dict ({key: nonzero coefficient},
    integral values as `int`) and stays one.  Afterwards it equals the
    packed dict of `Poly(acc) + p * q` (or `- p * q`) in values and in
    order.  The product's terms come in loop order, the terms of p outer
    and those of q inner; when both sides have at least two terms the
    product is summed first, each key where it first appears, and its
    zero sums are dropped.  Each term is then added as `Poly.__add__`
    adds it: a new key goes last, and a cancelled key is deleted, so it
    comes back last.  A product key with an exponent above _MAX_EXP
    raises OverflowError before `acc` changes.
    """
    a, b = p.packed, q.packed
    if not a or not b:
        return
    if len(a) > 1 and len(b) > 1:
        # keys may repeat: sum the product first
        prod = {}
        get = prod.get
        for k1, c1 in a.items():
            if negate:
                c1 = -c1
            for k2, c2 in b.items():
                k = k1 + k2
                prod[k] = get(k, 0) + c1 * c2
        if reduce(or_, prod) & _GUARD:
            raise _overflow()
        terms, scale = prod.items(), None
    else:
        # one side is a single term: it shifts and scales the other's
        # terms, whose keys stay distinct, in their order
        if len(a) > 1:
            a, b = b, a
        (shift, scale), = a.items()
        if negate:
            scale = -scale
        for k in b:
            if (k + shift) & _GUARD:
                raise _overflow()
        terms = b.items()
    get = acc.get
    for k, c in terms:
        if scale is not None:
            k += shift
            c *= scale
        elif not c:
            continue
        s = get(k)
        if s is not None:
            c += s
            if not c:
                del acc[k]
                continue
        acc[k] = c if type(c) is int or c.denominator != 1 else c.numerator


def _operand(x):
    """A factor of `dot` as a Poly, or None when it is zero; TypeError
    unless it is a Poly or an exact scalar."""
    if type(x) is Poly:
        return x if x.packed else None
    if isinstance(x, (int, Fraction)):
        return Poly.const(x) if x else None
    raise TypeError(f"not a Poly or an exact scalar: {x!r}")


def dot(pairs: Iterable) -> Poly:
    """The sum of p * q over the (p, q) pairs, each factor a Poly or an
    exact scalar (`int` or `Fraction`; anything else raises TypeError).

    Every product is added with `add_product` into one packed dict, and
    a pair with a zero factor is skipped, so the value and the term order
    are those of `Poly.zero() + p1 * q1 + p2 * q2 + ...`.
    """
    acc = {}
    for p, q in pairs:
        p, q = _operand(p), _operand(q)
        if p is not None and q is not None:
            add_product(acc, p, q)
    return _trusted(acc)


def from_packed(tm: Mapping[int, Scalar], den: int = 1) -> Poly:
    """Poly from {key: int or Fraction} built by key arithmetic, every
    value divided by the positive `int` `den`, in one pass over `tm`:
    zero coefficients are dropped, the quotients are canonical (integral
    ones `int`), and a key with an exponent above _MAX_EXP raises
    OverflowError.  `tm` is not changed.

    The guard bits are read here, in `poly`, at call time: interning a
    variable rebinds `_GUARD`, so a copy taken at import by another
    module would miss the fields of every variable interned later."""
    if tm and reduce(or_, tm) & _GUARD:
        raise _overflow()
    if den == 1:
        return _trusted({
            k: c if type(c) is int or c.denominator != 1 else c.numerator
            for k, c in tm.items() if c})
    return _trusted({k: _div(c, den) for k, c in tm.items() if c})


def _coerce(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {x!r} to Poly")


def divexact(p: Poly, q: Poly) -> Poly:
    """Exact polynomial division; raises if q does not divide p.

    Leading-term elimination in the lexicographic order of the canonical
    variable order.  The keys are re-packed once with the first variable
    of that order in the most significant field, so comparing keys is
    comparing exponent tuples, and a quotient exponent is one subtraction
    checked through the guard bits.  Used by the fraction-free
    determinant, where divisibility is guaranteed; with integer
    coefficients on both sides each step is an exact `//`.
    """
    b = q.packed
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = p.packed
    if not a:
        return Poly()
    if q.is_constant():
        qc = b[0]
        if qc == 1:
            return p
        return _trusted({k: _div(c, qc) for k, c in a.items()})
    shifts = [i * _FIELD
              for i in _canonical_indices(p.support() | q.support())]
    guard = sum(1 << (j * _FIELD + _FIELD - 1) for j in range(len(shifts)))

    def lex(k: int) -> int:
        out = 0
        for s in shifts:
            out = out << _FIELD | k >> s & _MASK
        return out

    lb = {lex(k): c for k, c in b.items()}
    qlead = max(lb)
    qc = lb.pop(qlead)
    qrest = list(lb.items())
    rem = {lex(k): c for k, c in a.items()}
    quot = []
    while rem:
        lead = max(rem)
        if lead & guard:
            raise _overflow()
        e = (lead | guard) - qlead
        if e & guard != guard:
            raise ValueError("inexact polynomial division")
        e ^= guard
        c = _div(rem.pop(lead), qc)
        quot.append((e, c))
        for eb, cb in qrest:
            key = e + eb
            s = rem.get(key, 0) - c * cb
            if not s:
                rem.pop(key, None)
            elif type(s) is int or s.denominator != 1:
                rem[key] = s
            else:
                rem[key] = s.numerator
    out = {}
    back = shifts[::-1]
    for e, c in quot:
        k = 0
        for s in back:
            k |= (e & _MASK) << s
            e >>= _FIELD
        out[k] = c
    return _trusted(out)


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
            if ch == "/":
                self.pos += 1
                d = self._power()
                if not d.is_constant():
                    raise ParseError("can only divide by constants", self.pos)
                if d.is_zero():
                    raise ParseError("division by zero", self.pos)
                p = p / d.constant_value()
            elif ch == "*" or ch == "(" or ch.isalpha():
                if ch == "*":
                    self.pos += 1  # otherwise implicit multiplication
                try:
                    p = p * self._power()
                except OverflowError as exc:
                    raise ParseError(str(exc), self.pos) from None
            else:
                return p

    def _power(self) -> Poly:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
        elif self.text[self.pos:self.pos + 2] == "**":
            self.pos += 2
        else:
            return base
        try:
            return base ** self._int()
        except OverflowError as exc:
            raise ParseError(str(exc), self.pos) from None

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
