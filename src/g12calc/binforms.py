"""Binary forms, transvectant pairings and SL(2) x SL(2) representation
calculus.

V_{n,m} is realized as bihomogeneous polynomials of degree n in (x1, y1)
and degree m in (x2, y2); coefficients may involve parameter variables.
The monomials x1^(n-i) y1^i * x2^(m-j) y2^j, ordered by (i, j), form the
canonical weight basis; basis vector (i, j) has weight (n-2i, m-2j).

The transvectant convention is frozen so that the first transvectant is
the Jacobian with positive sign:

    <u, v>_1 = u_x v_y - u_y v_x.

Equivalently, <u, v>_p = (1/p!) sum_k (-1)^k C(p,k) d^p u / dx^(p-k) dy^k
* d^p v / dx^k dy^(p-k).  This sign choice validates all displayed
coordinate identities downstream (the structure-equation suite solves for
the constants rather than assuming them, so a convention mismatch would
surface there as a solver inconsistency, not as a silent wrong value).

The pairing is defined by that sum in closed form on basis monomials.
In one slot it is `_slot_constant`, an integer by construction, since the
1/p! goes into binomials, (a)_r / r! = C(a, r); `_slot_table(n, m, p)`
caches those constants of V_n x V_m as rows of tuples.  A two-slot
constant is the product of two one-slot constants, and the target
monomial is key arithmetic: exponents add field by field, so basis
monomials with keys ka and kb pair onto ka + kb - form_key(p1, p1, p2,
p2).  `transvectant2` contracts the coefficients of its operands on the
one-slot rows directly and on integers only: each operand is written as
integer numerators over one common denominator (`poly.denominator`), in
one pass that also reads each key's y1 and y2 exponents, and each output
coefficient is divided once, by `poly.from_packed`, with one `divmod`
and a `Fraction` only where a remainder is left.  `pairing_table` is
the composed view, the two-slot constants by basis index, for callers
that contract coordinate vectors.  The Cayley Omega process,
`transvectant2_omega`, shares no code with them but the range check and
is the oracle.

Coordinates made of several forms are `BlockCoords`, declared by a SHAPE
of named bidegrees.  One of them is `LieElt`, the algebra g_{1,2} =
V_{0,0} + V_{2,0} + V_{0,2}; its action on V_{1,2} is read off that
SHAPE: the block in V_{2a,2b} acts by the (a, b) transvectant.

The six generators e_k, f_k, h_k of sl(2) x sl(2) act on slot k, in its
variables x, y, as the vector fields e = x d/dy, f = y d/dx and
h = x d/dx - y d/dy; `generator_action` is their one statement.  A
module of SL(2) x SL(2) is a `Rep`: for each of the six generators,
sparse columns X e_j = {row: coefficient}.  V_{n,m} reads them off the
dense `rep_matrices`, which applies `generator_action` to each basis
monomial; `dual`, `tensor`, `wedge2` and `isotypic_decompose` work on the
columns only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import comb, factorial, perm
from types import MappingProxyType
from typing import Dict, List, Sequence, Tuple

from .linalg import _Lcg, rank
from .poly import (_F1, _F3, _MASK, Poly, Scalar, _exact, denominator, dot,
                   form_key, from_packed)

SLOT_VARS = (("x1", "y1"), ("x2", "y2"))
ALL_FORM_VARS = ("x1", "y1", "x2", "y2")


class DegreeError(ValueError):
    pass


class BiForm:
    """Element of V_{n,m}: a bihomogeneous polynomial of bidegree (n, m)."""

    __slots__ = ("n", "m", "poly")

    def __init__(self, n: int, m: int, poly: Poly):
        if n < 0 or m < 0:
            raise DegreeError("negative bidegree")
        degrees = poly.bidegrees()
        if degrees and degrees != {(n, m)}:
            raise DegreeError(
                f"polynomial is not bihomogeneous of bidegree ({n}, {m}): {poly}"
            )
        self.n = n
        self.m = m
        self.poly = poly

    @staticmethod
    def _of(n: int, m: int, poly: Poly) -> "BiForm":
        """Wrap a polynomial that is bihomogeneous of bidegree (n, m) by
        construction, without checking it: `transvectant2`'s outputs,
        whose keys the contraction shifts onto that bidegree."""
        form = object.__new__(BiForm)
        form.n = n
        form.m = m
        form.poly = poly
        return form

    @property
    def bidegree(self) -> Tuple[int, int]:
        return (self.n, self.m)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __add__(self, other: "BiForm") -> "BiForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return BiForm(self.n, self.m, self.poly)
        if self.bidegree != other.bidegree:
            raise DegreeError("bidegree mismatch in sum")
        return BiForm(self.n, self.m, self.poly + other.poly)

    def __sub__(self, other: "BiForm") -> "BiForm":
        return self + (-1) * other

    def __mul__(self, c) -> "BiForm":
        if isinstance(c, BiForm):
            return BiForm(self.n + c.n, self.m + c.m, self.poly * c.poly)
        return BiForm(self.n, self.m, self.poly * c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiForm):
            return NotImplemented
        return self.poly == other.poly and (
            self.is_zero() or self.bidegree == other.bidegree)

    def __repr__(self) -> str:
        return f"BiForm({self.n},{self.m}; {self.poly})"

    def coords(self) -> List[Poly]:
        """Coefficients in the canonical weight basis (length (n+1)(m+1))."""
        out = [Poly.zero()] * dim_v(self.n, self.m)
        by_mono = self.poly.coefficients_in(ALL_FORM_VARS)
        for (e_x1, e_y1, e_x2, e_y2), coeff in by_mono.items():
            i, j = e_y1, e_y2
            out[i * (self.m + 1) + j] = coeff
        return out


def dim_v(n: int, m: int) -> int:
    return (n + 1) * (m + 1)


@lru_cache(maxsize=None)
def basis_monomial(n: int, m: int, i: int, j: int) -> Poly:
    """x1^(n-i) y1^i x2^(m-j) y2^j."""
    return Poly.monomial({"x1": n - i, "y1": i, "x2": m - j, "y2": j})


def basis(n: int, m: int) -> List[BiForm]:
    return [BiForm(n, m, basis_monomial(n, m, i, j))
            for i in range(n + 1) for j in range(m + 1)]


def basis_weights(n: int, m: int) -> List[Tuple[int, int]]:
    return [(n - 2 * i, m - 2 * j)
            for i in range(n + 1) for j in range(m + 1)]


def from_coords(n: int, m: int, coeffs: Sequence) -> BiForm:
    """The form with coordinates `coeffs` (Polys or exact scalars) in the
    weight basis; ValueError unless there are exactly (n+1)(m+1)."""
    if len(coeffs) != dim_v(n, m):
        raise ValueError(f"{len(coeffs)} coordinates for V_{{{n},{m}}}")
    return BiForm(n, m, dot(
        (c, basis_monomial(n, m, *divmod(idx, m + 1)))
        for idx, c in enumerate(coeffs)))


def symbolic(n: int, m: int, prefix: str) -> BiForm:
    """BiForm with fresh parameter coefficients prefix_0 ... in basis order."""
    return from_coords(
        n, m, [Poly.var(f"{prefix}_{k}") for k in range(dim_v(n, m))])


def symbol_names(n: int, m: int, prefix: str) -> List[str]:
    return [f"{prefix}_{k}" for k in range(dim_v(n, m))]


class BlockCoords:
    """Coordinates made of named binary-form blocks.

    A subclass declares only SHAPE = ((name, (n, m)), ...): block `name`
    lies in V_{n,m}, is the attribute `name`, and has the symbols name_0,
    name_1, ... in basis order.  The coordinate vector is the blocks'
    coordinates concatenated in SHAPE order.  Blocks are passed
    positionally or by name; a nonzero block outside its V_{n,m} raises
    DegreeError, a zero one is stored at its declared bidegree.  The
    `extra` keywords of the constructors below go to a subclass's own
    arguments (CurvaturePoint's c).
    """

    SHAPE: Tuple[Tuple[str, Tuple[int, int]], ...] = ()

    def __init__(self, *blocks: BiForm, **named: BiForm):
        names = [name for name, _ in self.SHAPE]
        given = dict(zip(names, blocks), **named)
        if len(blocks) + len(named) != len(names) or set(given) != set(names):
            raise TypeError(f"{type(self).__name__} takes the blocks "
                            f"{', '.join(names)}, each once")
        for name, (n, m) in self.SHAPE:
            form = given[name]
            if form.bidegree != (n, m):
                if not form.is_zero():
                    raise DegreeError(f"{name} must lie in V_{{{n},{m}}}")
                form = BiForm(n, m, form.poly)
            setattr(self, name, form)

    @classmethod
    def offsets(cls) -> Dict[str, Tuple[int, int]]:
        """Block name -> (start, stop) of its slice of the vector."""
        out = {}
        at = 0
        for name, (n, m) in cls.SHAPE:
            out[name] = (at, at + dim_v(n, m))
            at += dim_v(n, m)
        return out

    @classmethod
    def symbols(cls) -> List[str]:
        """The symbols of symbolic(), in vector order."""
        return [s for name, (n, m) in cls.SHAPE
                for s in symbol_names(n, m, name)]

    @classmethod
    def from_vector(cls, vec: Sequence, **extra):
        """ValueError unless `vec` has one entry per coordinate."""
        off = cls.offsets()
        size = sum(dim_v(n, m) for _, (n, m) in cls.SHAPE)
        if len(vec) != size:
            raise ValueError(f"{len(vec)} coordinates for {cls.__name__}")
        return cls(*(from_coords(n, m, vec[slice(*off[name])])
                     for name, (n, m) in cls.SHAPE), **extra)

    @classmethod
    def zero(cls, **extra):
        return cls.from_vector([0] * len(cls.symbols()), **extra)

    @classmethod
    def symbolic(cls):
        return cls(*(symbolic(n, m, name) for name, (n, m) in cls.SHAPE))

    @classmethod
    def from_assignment(cls, assignment: Dict[str, Scalar], **extra):
        return cls.from_vector([assignment[s] for s in cls.symbols()], **extra)

    def blocks(self) -> List[BiForm]:
        return [getattr(self, name) for name, _ in self.SHAPE]

    def vector(self) -> List[Poly]:
        return [c for form in self.blocks() for c in form.coords()]

    def assignment(self) -> Dict[str, Poly]:
        """Symbol -> coordinate, the inverse of from_assignment."""
        return dict(zip(self.symbols(), self.vector()))


# -- transvectants --------------------------------------------------------


def _numerators(p: Poly):
    """p as integer numerators over one common denominator, in one pass:
    (den, [(y1 exponent, y2 exponent, key, den * coefficient)] in term
    order), den being `poly.denominator` of p.  The y1 and y2 fields of
    each key are read inline.  With integer coefficients (den = 1) the
    numerators are the coefficients themselves and nothing is rescaled."""
    den = denominator((p,))
    return den, [(k >> _F1 & _MASK, k >> _F3 & _MASK, k,
                  c if den == 1 else c * den if type(c) is int
                  else c.numerator * (den // c.denominator))
                 for k, c in p.packed.items()]


def transvectant2(u: BiForm, v: BiForm, p1: int, p2: int) -> BiForm:
    """Slotwise pairing <u, v>_{p1, p2} in the frozen convention.

    The terms of u and v at basis monomials (i1, j1) and (i2, j2) pair
    with the constant s1[i1][i2] * s2[j1][j2] of the one-slot tables
    `_slot_table`, s2 read only where s1 is nonzero.  A nonzero pair lands
    on the key ka + kb - form_key(p1, p1, p2, p2) of the operands' keys:
    its monomial is x1^(n1-i1 + n2-i2 - p1) y1^(i1+i2-p1) x2^(m1-j1 +
    m2-j2 - p2) y2^(j1+j2-p2) times both parameter parts, and exponents
    add field by field in a key.  The sums run on the operands' integer
    numerators, and `from_packed` divides each output term once by the
    product of their common denominators in the pass that builds the
    Poly.  Every output key has bidegree (n1+n2-2p1, m1+m2-2p2) by that
    shift, so the result is wrapped by `BiForm._of` without a second
    check.  Output terms are in order of first reach, u's terms outer and
    v's inner.  DegreeError unless 0 <= p1 <= min(n1, n2) and
    0 <= p2 <= min(m1, m2).
    """
    _check_orders(u.n, u.m, v.n, v.m, p1, p2)
    s1 = _slot_table(u.n, v.n, p1)
    s2 = _slot_table(u.m, v.m, p2)
    shift = form_key(p1, p1, p2, p2)
    du, uterms = _numerators(u.poly)
    dv, vterms = _numerators(v.poly)
    out = {}
    for i1, j1, ka, ca in uterms:
        r1, r2 = s1[i1], s2[j1]
        ka -= shift
        for i2, j2, kb, cb in vterms:
            c = r1[i2]
            if c:
                c *= r2[j2]
                if c:
                    e = ka + kb
                    out[e] = out.get(e, 0) + ca * cb * c
    return BiForm._of(u.n + v.n - 2 * p1, u.m + v.m - 2 * p2,
                      from_packed(out, du * dv))


def transvectant(u: BiForm, v: BiForm, p: int) -> BiForm:
    """First-slot pairing <u, v>_p on V_n x V_m (second slot untouched)."""
    return transvectant2(u, v, p, 0)


def transvectant2_omega(u: BiForm, v: BiForm, p1: int, p2: int) -> BiForm:
    """Independent oracle for transvectant2 via the Cayley Omega process.

    Form u(x, y) * v(z, w) in doubled variables, apply the operator
    (dx dw - dy dz)^{p} per slot, then restrict to the diagonal z = x,
    w = y.  Shares no code with the alternating-sum implementation but the
    range check `_check_orders`.
    """
    _check_orders(u.n, u.m, v.n, v.m, p1, p2)
    ren = {"x1": Poly.var("z1"), "y1": Poly.var("w1"),
           "x2": Poly.var("z2"), "y2": Poly.var("w2")}
    prod = u.poly * v.poly.subs(ren)

    def omega(poly: Poly, xa: str, ya: str, xb: str, yb: str) -> Poly:
        return (poly.diff(xa).diff(yb) - poly.diff(ya).diff(xb))

    for _ in range(p1):
        prod = omega(prod, "x1", "y1", "z1", "w1")
    for _ in range(p2):
        prod = omega(prod, "x2", "y2", "z2", "w2")
    prod = prod.subs({"z1": Poly.var("x1"), "w1": Poly.var("y1"),
                      "z2": Poly.var("x2"), "w2": Poly.var("y2")})
    prod = prod * Fraction(1, factorial(p1) * factorial(p2))
    return BiForm(u.n + v.n - 2 * p1, u.m + v.m - 2 * p2, prod)


def _slot_constant(n: int, i: int, m: int, j: int, p: int) -> int:
    """The coefficient of <x^(n-i) y^i, x^(m-j) y^j>_p, whose one monomial
    is x^(n+m-i-j-p) y^(i+j-p): the integer
    sum_k (-1)^k C(n-i, p-k) C(i, k) (m-j)_k (j)_(p-k), with the falling
    factorial (a)_r = perm(a, r), which is 0 for r > a.  It is the
    alternating sum (1/p!) sum_k (-1)^k C(p,k) (n-i)_(p-k) (i)_k (m-j)_k
    (j)_(p-k) with the 1/p! taken into the first two factors."""
    return sum((-1) ** k * comb(n - i, p - k) * comb(i, k)
               * perm(m - j, k) * perm(j, p - k) for k in range(p + 1))


def _check_orders(n1: int, m1: int, n2: int, m2: int, p1: int,
                  p2: int) -> None:
    """DegreeError unless 0 <= p1 <= min(n1, n2) and
    0 <= p2 <= min(m1, m2)."""
    if p1 < 0 or p2 < 0 or p1 > min(n1, n2) or p2 > min(m1, m2):
        raise DegreeError(
            f"pairing orders ({p1},{p2}) out of range for bidegrees "
            f"{(n1, m1)} x {(n2, m2)}")


@lru_cache(maxsize=None)
def _slot_table(n: int, m: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """The one-slot constants of <.,.>_p on V_n x V_m: row i, entry j is
    `_slot_constant(n, i, m, j, p)`.

    The tuples are copied from lists, so that each is allocated at its
    final length: a tuple grown from a generator is resized, and when the
    cache is cleared it lands on the interpreter's free list of its size
    without having been taken from it, so repeated clears and rebuilds
    leave those free lists full (up to 2000 tuples per size)."""
    return tuple([tuple([_slot_constant(n, i, m, j, p)
                         for j in range(m + 1)])
                  for i in range(n + 1)])


@lru_cache(maxsize=None)
def pairing_table(n1: int, m1: int, n2: int, m2: int, p1: int, p2: int):
    """Structure constants of <.,.>_{p1,p2} on basis monomials.

    The composed view of the one-slot tables that `transvectant2` reads:
    the pairing of basis monomials (i1, j1) of V_{n1,m1} and (i2, j2) of
    V_{n2,m2} is the basis monomial (i1 + i2 - p1, j1 + j2 - p2) of the
    target times _slot_table(n1, n2, p1)[i1][i2] * _slot_table(m1, m2,
    p2)[j1][j2].  Returns a read-only mapping {(idx1, idx2): (target_idx,
    constant)}, ordered by (i1, j1, i2, j2), with zero entries omitted;
    every constant is an `int`.
    """
    _check_orders(n1, m1, n2, m2, p1, p2)
    slot1 = _slot_table(n1, n2, p1)
    slot2 = _slot_table(m1, m2, p2)
    tm = m1 + m2 - 2 * p2
    out = {}
    for i1, row1 in enumerate(slot1):
        for j1, row2 in enumerate(slot2):
            for i2, c1 in enumerate(row1):
                if not c1:
                    continue
                for j2, c2 in enumerate(row2):
                    if c2:
                        out[(i1 * (m1 + 1) + j1, i2 * (m2 + 1) + j2)] = (
                            (i1 + i2 - p1) * (tm + 1) + j1 + j2 - p2,
                            c1 * c2)
    return MappingProxyType(out)


# -- infinitesimal actions -------------------------------------------------


GENERATOR_NAMES = ("e1", "f1", "h1", "e2", "f2", "h2")

def generator_action(name: str, p: BiForm) -> BiForm:
    """Action of one of e1, f1, h1, e2, f2, h2 on the slot its digit
    names, in that slot's variables x, y: e = x d/dy, f = y d/dx and
    h = x d/dx - y d/dy."""
    xv, yv = SLOT_VARS[int(name[-1]) - 1]
    kind = name[:-1]
    if kind == "e":
        res = Poly.var(xv) * p.poly.diff(yv)
    elif kind == "f":
        res = Poly.var(yv) * p.poly.diff(xv)
    elif kind == "h":
        res = Poly.var(xv) * p.poly.diff(xv) - Poly.var(yv) * p.poly.diff(yv)
    else:
        raise KeyError(name)
    return BiForm(p.n, p.m, res)


def _matrix_of(f, n: int, m: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """The exact matrix of a linear map f on V_{n,m}: column j holds the
    weight-basis coordinates of f(e_j), which must be constants."""
    return tuple(zip(*([_exact(c.constant_value()) for c in f(v).coords()]
                       for v in basis(n, m))))


@lru_cache(maxsize=None)
def rep_matrices(n: int, m: int) -> Tuple[Tuple[Tuple[Scalar, ...], ...], ...]:
    """Matrices of the 6 generators on V_{n,m}, columns = basis action."""
    return tuple(_matrix_of(partial(generator_action, name), n, m)
                 for name in GENERATOR_NAMES)


Column = Dict[int, Scalar]


def apply_columns(cols: Sequence[Column], vec: Column) -> Column:
    """The matrix with sparse columns `cols` applied to the sparse vector
    `vec`; both hold only nonzero entries, and so does the result."""
    out: Column = {}
    for j, x in vec.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, 0) + a * x
    return {i: v for i, v in out.items() if v}


class Rep:
    """A concrete module: dim, and for each generator the sparse columns
    cols[name][j] = X e_j as {row: coeff}, exact with zeros omitted."""

    def __init__(self, dim: int, cols: Sequence[Sequence[Column]]):
        self.dim = dim
        self.cols = {name: [{i: _exact(v) for i, v in col.items() if v}
                            for col in gen]
                     for name, gen in zip(GENERATOR_NAMES, cols)}

    @staticmethod
    def space(n: int, m: int) -> "Rep":
        d = dim_v(n, m)
        return Rep(d, [[{i: mat[i][j] for i in range(d)} for j in range(d)]
                       for mat in rep_matrices(n, m)])

    def dual(self) -> "Rep":
        """-X^T: column i of the dual is minus row i of X."""
        gens = []
        for name in GENERATOR_NAMES:
            cols: List[Column] = [{} for _ in range(self.dim)]
            for j, col in enumerate(self.cols[name]):
                for i, a in col.items():
                    cols[i][j] = -a
            gens.append(cols)
        return Rep(self.dim, gens)

    def tensor(self, other: "Rep") -> "Rep":
        """X(ea (x) eb) = X ea (x) eb + ea (x) X eb, at index a * d2 + b."""
        d2 = other.dim
        gens = []
        for name in GENERATOR_NAMES:
            cols = []
            for a, xa in enumerate(self.cols[name]):
                for b, xb in enumerate(other.cols[name]):
                    col = {i * d2 + b: v for i, v in xa.items()}
                    for k, v in xb.items():
                        col[a * d2 + k] = col.get(a * d2 + k, 0) + v
                    cols.append(col)
            gens.append(cols)
        return Rep(self.dim * d2, gens)

    def wedge2(self) -> "Rep":
        """X(ei ^ ej) = X ei ^ ej + ei ^ X ej, pairs i < j in order."""
        pairs = list(combinations(range(self.dim), 2))
        index = {p: k for k, p in enumerate(pairs)}
        gens = []
        for name in GENERATOR_NAMES:
            x = self.cols[name]
            cols = []
            for i, j in pairs:
                col: Column = {}
                for r, s, v in ([(r, j, v) for r, v in x[i].items()]
                                + [(i, s, v) for s, v in x[j].items()]):
                    if r != s:  # v * (er ^ es)
                        k = index[min(r, s), max(r, s)]
                        col[k] = col.get(k, 0) + (v if r < s else -v)
                cols.append(col)
            gens.append(cols)
        return Rep(len(pairs), gens)


def isotypic_decompose(rep: Rep) -> Dict[Tuple[int, int], int]:
    """Multiplicities of V_{i,j} by highest-weight-vector counting.

    Requires h1 and h2 to act diagonally with integer entries (true for
    every module built from weight bases).  The multiplicity of V_{i,j}
    is the dimension of the joint kernel of both raising operators on the
    weight-(i,j) subspace: its dimension minus the rank of the nonzero
    rows of e1 and e2 restricted to its columns.
    """
    h1, h2 = rep.cols["h1"], rep.cols["h2"]
    if any(set(col) - {j} for h in (h1, h2) for j, col in enumerate(h)):
        raise ValueError("h-action is not diagonal in this basis")
    weights = [(h1[j].get(j, 0), h2[j].get(j, 0)) for j in range(rep.dim)]
    if any(type(w) is not int for wt in weights for w in wt):
        raise ValueError("non-integer weight")
    out: Dict[Tuple[int, int], int] = {}
    for w in sorted(set(weights), reverse=True):
        if w[0] < 0 or w[1] < 0:
            continue
        idxs = [i for i, wi in enumerate(weights) if wi == w]
        rows = []
        for e in ("e1", "e2"):
            by_row: Dict[int, List[Scalar]] = {}
            for at, c in enumerate(idxs):
                for r, v in rep.cols[e][c].items():
                    by_row.setdefault(r, [0] * len(idxs))[at] = v
            rows.extend(by_row[r] for r in sorted(by_row))
        mult = len(idxs) - rank(rows)
        if mult:
            out[w] = mult
    total = sum(mult * dim_v(*w) for w, mult in out.items())
    if total != rep.dim:
        raise ValueError(f"isotypic decomposition does not fill the "
                         f"space: {total} != {rep.dim}")
    return out


def clebsch_gordan(n: int, m: int) -> Dict[Tuple[int, int], int]:
    """Decomposition of V_n (x) V_m for single-slot forms: sum V_{n+m-2p}."""
    return clebsch_gordan2((n, 0), (m, 0))


def clebsch_gordan2(bideg1: Tuple[int, int],
                    bideg2: Tuple[int, int]) -> Dict[Tuple[int, int], int]:
    """Decomposition of V_{i1,i2} (x) V_{j1,j2} by the double sum formula."""
    (i1, i2), (j1, j2) = bideg1, bideg2
    out: Dict[Tuple[int, int], int] = {}
    for p1 in range(min(i1, j1) + 1):
        for p2 in range(min(i2, j2) + 1):
            key = (i1 + j1 - 2 * p1, i2 + j2 - 2 * p2)
            out[key] = out.get(key, 0) + 1
    return out


# -- the Lie algebra g_{1,2} ----------------------------------------------


class LieElt(BlockCoords):
    """Element of the 7-dimensional algebra g_{1,2} = V_{0,0} + V_{2,0} +
    V_{0,2}, which acts on V_{1,2}: 7 coordinates, p00 (1), p20 (3) and
    p02 (3).

    The action rule, stated once: on q in V_{n,m}, n, m >= 1, the block in
    V_{2a,2b} acts by the (a, b) transvectant <block, q>_{a,b} (`action`),
    as sl2 = V_2 does by the first transvectant, and in the double bracket
    <<w, q>>_k the V_{0,0} block's term is also multiplied by k.  The
    action on V_{1,2} is act(q) = <<self, q>>_1.
    """

    SHAPE = (("p00", (0, 0)), ("p20", (2, 0)), ("p02", (0, 2)))

    @classmethod
    def action(cls) -> Tuple[Tuple[str, Tuple[int, int], Tuple[int, int]],
                             ...]:
        """(block name, bidegree (2a, 2b), pairing orders (a, b)) of each
        block, in SHAPE order."""
        return tuple((name, (n, m), (n // 2, m // 2))
                     for name, (n, m) in cls.SHAPE)

    def act(self, q: BiForm) -> BiForm:
        return double_bracket(self, q, 1)


def double_bracket(w: LieElt, q: BiForm, k) -> BiForm:
    """<<w, q>>_k: the sum over the blocks of w of <block, q> at the orders
    of LieElt.action, the V_{0,0} block's term multiplied by k."""
    return BiForm(q.n, q.m, dot(
        (transvectant2(getattr(w, name), q, *orders).poly,
         k if bidegree == (0, 0) else 1)
        for name, bidegree, orders in LieElt.action()
        if not getattr(w, name).is_zero()))


@lru_cache(maxsize=None)
def g1k_matrices(k: int = 2) -> Tuple:
    """Action matrices on V_{1,k} of the 7 weight-basis elements of the
    algebra: id, V_{2,0}, V_{0,2}."""
    d = len(LieElt.symbols())
    return tuple(
        _matrix_of(LieElt.from_vector([int(i == a) for i in range(d)]).act,
                   1, k)
        for a in range(d))


# -- exact sequence 0 -> V_{k-1} -> V_{1,k} -> V_{k+1} -> 0 ---------------


def slot2_form(poly_or_coeffs, deg: int) -> BiForm:
    if isinstance(poly_or_coeffs, Poly):
        return BiForm(0, deg, poly_or_coeffs)
    return from_coords(0, deg, poly_or_coeffs)


def iota_map(u: BiForm, k: int) -> BiForm:
    """V_{k-1} -> V_{1,k}: u -> x (x) (y u) - y (x) (x u)."""
    if u.bidegree != (0, k - 1) and not u.is_zero():
        raise DegreeError("iota expects a second-slot form of degree k-1")
    x1, y1 = Poly.var("x1"), Poly.var("y1")
    x2, y2 = Poly.var("x2"), Poly.var("y2")
    return BiForm(1, k, x1 * y2 * u.poly - y1 * x2 * u.poly)


def pr_map(p: BiForm) -> BiForm:
    """V_{1,k} -> V_{k+1}: u1 (x) vk -> u1 * vk (slots merged into slot 2)."""
    if p.n != 1 and not p.is_zero():
        raise DegreeError("pr expects first-slot degree 1")
    merged = p.poly.subs({"x1": Poly.var("x2"), "y1": Poly.var("y2")})
    return BiForm(0, p.m + 1, merged)


def gradient_form(u: BiForm) -> BiForm:
    """V_{k+1} -> V_{1,k}: u -> x (x) u_x + y (x) u_y, for a second-slot
    form u of degree k + 1 >= 1; DegreeError on a nonzero u of another
    bidegree."""
    return BiForm(1, u.m - 1, Poly.var("x1") * u.poly.diff("x2")
                  + Poly.var("y1") * u.poly.diff("y2"))


def eta_map(u: BiForm, k: int) -> BiForm:
    """Splitting V_{k+1} -> V_{1,k}: the gradient form of u over k+1."""
    if u.bidegree != (0, k + 1) and not u.is_zero():
        raise DegreeError("eta expects a second-slot form of degree k+1")
    return gradient_form(BiForm(0, k + 1, u.poly)) * Fraction(1, k + 1)


def seq_maps(k: int):
    """(iota, pr, eta) for the exact sequence at level k >= 1."""
    if k < 1:
        raise DegreeError("k must be >= 1")
    return (lambda u: iota_map(u, k), pr_map, lambda u: eta_map(u, k))


def vprime_basis(k: int) -> List[BiForm]:
    """Basis of V' = {x (x) u_x + y (x) u_y : u in V_{k+1}}."""
    return [gradient_form(u) for u in basis(0, k + 1)]


def vsecond_basis(k: int) -> List[BiForm]:
    """Basis of V'' = iota(V_{k-1})."""
    return [iota_map(u, k) for u in basis(0, k - 1)]


def vprime_split(k: int):
    """(V' basis, V'' basis, dims, certified direct-sum flag)."""
    vp = vprime_basis(k)
    vs = vsecond_basis(k)
    cols = [f.coords() for f in vp + vs]
    mat = [[cols[j][i].constant_value() for j in range(len(cols))]
           for i in range(dim_v(1, k))]
    direct = (rank(mat) == len(vp) + len(vs) == dim_v(1, k))
    return vp, vs, (len(vp), len(vs)), direct


def divides(r: BiForm, p: BiForm) -> bool:
    """Does the second-slot linear form r divide p = x (x) p1 + y (x) p2?

    True iff r divides both second-slot components exactly.
    """
    if r.is_zero():
        raise ValueError("zero divisor candidate")
    if r.bidegree != (0, 1):
        raise DegreeError("divisor must be linear in the second slot")
    if p.is_zero():
        return True
    comps = [p.poly.diff("x1"), p.poly.diff("y1")]
    for comp in comps:
        if comp.is_zero():
            continue
        try:
            comp / r.poly
        except (ValueError, ZeroDivisionError):
            return False
    return True


# -- property checks -------------------------------------------------------


def random_biform(n: int, m: int, rng: _Lcg) -> BiForm:
    """A seeded form with integer coefficients in [-9, 9]."""
    return from_coords(n, m, [Fraction(rng.next_int(19) - 9)
                              for _ in range(dim_v(n, m))])


def equivariance_check(p1: int, p2: int, bideg1: Tuple[int, int],
                       bideg2: Tuple[int, int], trials: int, seed: int,
                       mutate: bool = False) -> dict:
    """Verify X<u,v> = <Xu,v> + <u,Xv> for all 6 generators, exactly.

    With mutate=True a wrong sign is injected to demonstrate the check is
    not vacuous.
    """
    rng = _Lcg(seed)
    failures = 0
    for _ in range(trials):
        u = random_biform(*bideg1, rng)
        v = random_biform(*bideg2, rng)
        uv = transvectant2(u, v, p1, p2)
        for name in GENERATOR_NAMES:
            lhs = generator_action(name, uv)
            xu_v = transvectant2(generator_action(name, u), v, p1, p2)
            u_xv = transvectant2(u, generator_action(name, v), p1, p2)
            rhs = xu_v - u_xv if mutate else xu_v + u_xv
            if not (lhs - rhs).is_zero():
                failures += 1
    return {"trials": trials, "generators": len(GENERATOR_NAMES),
            "failures": failures, "ok": failures == 0}
