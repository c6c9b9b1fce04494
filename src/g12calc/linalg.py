"""Exact linear algebra over the rationals and over polynomial rings.

Rank, kernel and solving are done for matrices with constant (rational)
entries using fraction-free integer elimination, with one integer
back-substitution shared by kernel and solve; a Fraction appears only
when a solution vector is written out.  Determinants also accept
polynomial entries and use Bareiss one-step elimination over Z[x], whose
pivots divide exactly.  Everything is deterministic and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence

from .poly import Poly, Scalar, divexact


class PolyMatrix:
    """Dense matrix of Poly entries (constants are degree-0 polys)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        ents = [[e if isinstance(e, Poly) else Poly.const(e) for e in row]
                for row in entries]
        self.rows = len(ents)
        self.cols = len(ents[0]) if ents else 0
        if any(len(r) != self.cols for r in ents):
            raise ValueError("ragged matrix")
        self.entries = ents

    @staticmethod
    def zero(rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix([[Poly.zero()] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix([[Poly.const(1) if i == j else Poly.zero()
                            for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def constant_rows(self) -> List[List[Scalar]]:
        return [[e.constant_value() for e in row] for row in self.entries]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)])

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Poly.zero()
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def subs(self, assignment) -> "PolyMatrix":
        return PolyMatrix([[e.subs(assignment) for e in row]
                           for row in self.entries])

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.entries == other.entries


def matrix_det(m: PolyMatrix) -> Poly:
    """Exact determinant by Bareiss fraction-free elimination in Z[x].

    Each row is first scaled to integer coefficients by the lcm of its
    coefficient denominators.  The Bareiss divisions are then exact in
    Z[x] by the Sylvester identity, and the product of the row scales is
    divided out once at the end.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Poly.const(1)
    a = []
    scale = 1
    for row in m.entries:
        den = lcm(*(c.denominator for e in row for c in e.terms.values()))
        if den != 1:
            scale *= den
            row = [e * den for e in row]
        a.append(list(row))
    sign = 1
    prev = Poly.const(1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = divexact(num, prev)
            a[i][k] = Poly.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if sign != 1:
        det = -det
    return det if scale == 1 else det * Fraction(1, scale)


# -- exact elimination over the rationals --------------------------------


def _stored_rows(m: PolyMatrix) -> List[list]:
    """The stored int-or-Fraction values of a constant matrix."""
    for row in m.entries:
        for e in row:
            if e.vars:
                raise ValueError(f"not a constant: {e}")
    return [[e.terms.get((), 0) for e in row] for row in m.entries]


def _int_rows(rows: List[list]):
    """Scale each row to coprime integers (fraction-free working form)."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append(_primitive([x.numerator * (den // x.denominator)
                               for x in row]))
    return out


def _primitive(row: List[int]) -> List[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(pivot_row: List[int], row: List[int], c: int) -> List[int]:
    """Primitive integer combination of `row` and `pivot_row` that is zero
    in column c."""
    g = gcd(pivot_row[c], row[c])
    f1, f2 = pivot_row[c] // g, row[c] // g
    return _primitive([f1 * a - f2 * b for a, b in zip(row, pivot_row)])


def _row_echelon(int_rows: List[List[int]]):
    """In-place integer row echelon; returns list of pivot columns."""
    rows = int_rows
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(r + 1, nr):
            if rows[i][c]:
                rows[i] = _eliminate(pr, rows[i], c)
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def _reduced_echelon(int_rows: List[List[int]]):
    """In-place integer reduced row echelon; returns the pivot columns.

    Afterwards pivot row r is nonzero in column pivots[r] and zero in
    every other pivot column, so with d = row[pivots[r]] the solved
    variable is x[pivots[r]] = (rhs - sum of free terms) / d.  Only the
    caller's final read-out divides.
    """
    rows = int_rows
    pivots = _row_echelon(rows)
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        for r2 in range(r):
            if rows[r2][c]:
                rows[r2] = _eliminate(rows[r], rows[r2], c)
    return pivots


def rank(m: PolyMatrix) -> int:
    """Exact rank of a constant matrix."""
    rows = _int_rows(_stored_rows(m))
    if not rows:
        return 0
    return len(_row_echelon(rows))


def kernel_basis(m: PolyMatrix) -> List[List[Scalar]]:
    """Exact basis of the right kernel of a constant matrix.

    Each basis vector has a 1 in one free column and 0 in the others.
    """
    if m.rows == 0:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(m.cols)]
                for i in range(m.cols)]
    rows = _int_rows(_stored_rows(m))
    pivots = _reduced_echelon(rows)
    nc = m.cols
    pivot_set = set(pivots)
    basis = []
    for fc in range(nc):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-rows[r][fc], rows[r][c])
        basis.append(v)
    return basis


def matrix_rank_kernel(m: PolyMatrix):
    """(rank, kernel basis) of a constant matrix, both exact."""
    ker = kernel_basis(m)
    return m.cols - len(ker), ker


def linsolve(m: PolyMatrix, rhs: Sequence[Scalar]):
    """Solve m x = rhs exactly.

    Returns (particular solution, kernel basis) or None if inconsistent.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug_rows = [row + [Fraction(rhs[i])]
                for i, row in enumerate(_stored_rows(m))]
    ints = _int_rows(aug_rows)
    pivots = _reduced_echelon(ints)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(ints[r][m.cols], ints[r][c])
    return x, kernel_basis(m)


def solve_sparse(rows: List[dict], ncols: int):
    """Exact solve of a sparse linear system in homogeneous form.

    Each row is a dict {col: coeff} encoding
        sum_{c < ncols} coeff[c] * x_c + coeff[ncols] = 0,
    i.e. column `ncols` holds the constant term.  Returns
    (particular solution, kernel basis) over the x's, or None if
    inconsistent.  Used for the large structure-equation solves where
    dense matrices would be wasteful.
    """
    pivots = {}  # pivot col -> integer row dict
    for row in rows:
        den = 1
        for v in row.values():
            fv = Fraction(v)
            den = den * fv.denominator // gcd(den, fv.denominator)
        r = {c: int(Fraction(v) * den) for c, v in row.items() if v}
        while r:
            g = 0
            for v in r.values():
                g = gcd(g, v)
            if g > 1:
                r = {c: v // g for c, v in r.items()}
            c = min(r)
            if c not in pivots:
                pivots[c] = r
                break
            p = pivots[c]
            g = gcd(abs(p[c]), abs(r[c]))
            f1, f2 = p[c] // g, r[c] // g
            new = {}
            for cc in set(p) | set(r):
                v = f1 * r.get(cc, 0) - f2 * p.get(cc, 0)
                if v:
                    new[cc] = v
            r = new
    if ncols in pivots:
        return None  # a row reduced to constant = 0 with nonzero constant
    solved = {}  # col -> (const, {free col: coeff}): x_c = const + sum coeff*x_free
    free_cols = [c for c in range(ncols) if c not in pivots]
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        const = Fraction(-row.get(ncols, 0))
        lin = {}
        for cc, v in row.items():
            if cc == c or cc == ncols:
                continue
            fv = Fraction(v)
            if cc in solved:
                sc, sl = solved[cc]
                const -= fv * sc
                for fc, fcv in sl.items():
                    lin[fc] = lin.get(fc, Fraction(0)) - fv * fcv
            else:
                lin[cc] = lin.get(cc, Fraction(0)) - fv
        pc = Fraction(row[c])
        solved[c] = (const / pc, {fc: v / pc for fc, v in lin.items() if v})
    particular = [Fraction(0)] * ncols
    for c, (const, _lin) in solved.items():
        particular[c] = const
    kernel = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, (_const, lin) in solved.items():
            if fc in lin:
                v[c] = lin[fc]
        kernel.append(v)
    return particular, kernel


def invert_rational(rows: List[List[Scalar]]) -> List[List[Scalar]]:
    """Exact inverse of a square rational matrix by Gauss-Jordan."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1 if j == i else 0)
                                       for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = None
        for r in range(c, n):
            if a[r][c]:
                piv = r
                break
        if piv is None:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        pc = a[c][c]
        a[c] = [x / pc for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


# -- deterministic random rational points --------------------------------


class _Lcg:
    """Tiny deterministic 64-bit LCG; identical streams on every platform."""

    def __init__(self, seed: int):
        self.state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64)

    def next_int(self, bound: int) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (self.state >> 33) % bound


DEFAULT_MAX_MAGNITUDE = 97


def random_rational_point(vars: Sequence[str], seed: int,
                          max_magnitude: int = DEFAULT_MAX_MAGNITUDE) -> dict:
    """Deterministic small rational value for every listed variable.

    Numerators and denominators lie in [1, max_magnitude]; signs come from
    the same stream.  The same seed always gives the same point.
    """
    rng = _Lcg(seed)
    out = {}
    for v in vars:
        num = 1 + rng.next_int(max_magnitude)
        den = 1 + rng.next_int(max_magnitude)
        sign = -1 if rng.next_int(2) else 1
        out[v] = Fraction(sign * num, den)
    return out
