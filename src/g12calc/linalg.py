"""Exact linear algebra over the rationals and over polynomial rings.

Every operation over Q takes rows of exact scalars (`int`/`Fraction`),
and goes through one integer core: each row is scaled to coprime
integers in one pass (the one place values enter, where `float` is
rejected and rows of unequal length are refused), then `_row_echelon`
eliminates forward, fraction-free and in place on those new integer
rows, to the pivot columns and integer echelon rows; the caller's rows
are never written.
A matrix has len(rows[0]) columns, or none when it has no rows.  `rank`
counts the pivots (`spans_equal` compares three ranks); every other
result is one read-out, `_back_substitute`, an exact back-substitution
on the echelon: (particular solution, kernel basis) of [A | b] for
`kernel_basis`, `linsolve` and `solve_sparse`, each column of the
inverse from [A | I] for `invert_rational`.  `excalc.ideal_substitution`
reads its pivot generators from `kernel_basis`.

An identity linear in unknown coefficients becomes `solve_sparse` rows
in one way only: `linear_rows` reads each polynomial as affine in the
named unknowns and gives one row per monomial in the other variables.

`PolyMatrix` holds polynomial entries: the curvature Jacobian, its
substitutions and determinants.  `PolyMatrix.subs` is one
`Substitution.apply` over all entries, whatever the point; at a point
that gives every variable a scalar the matrix is constant and enters the
rational core through `PolyMatrix.constant_rows`, one pass that checks
and reads each entry.

A Fraction appears only when a result is written out.  Determinants
accept polynomial entries and use Bareiss one-step elimination over
Z[x] with full pivoting chosen for sparsity: at each step the nonzero
entry of the trailing block with the fewest terms, ties broken by the
Markowitz count (r - 1)(c - 1) and then by row-major position.  Every
Bareiss entry is a minor of the row- and column-permuted matrix, so each
division by the previous pivot is exact.  The determinant is the last
such quotient, so when that divisor is not a constant its terms come out
in `divexact`'s lex order, whatever pivots were taken.  Each row's
multiplier is negated once and each entry updated as
piv * x + (-aik) * y; a row whose multiplier is zero is only scaled,
piv * x, and divided.  Everything is deterministic and exact.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence

from .poly import (Poly, Scalar, Substitution, _exact, denominator,
                   divexact, fields_mask, numerators, var_key)


class PolyMatrix:
    """Dense matrix of Poly entries (scalars are wrapped as constant
    polys).  Rational linear algebra takes plain rows instead; a matrix
    that is constant at a point hands them over by `constant_rows`."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        ents = [[e if isinstance(e, Poly) else Poly.const(e) for e in row]
                for row in entries]
        self.rows = len(ents)
        self.cols = len(ents[0]) if ents else 0
        if any(len(r) != self.cols for r in ents):
            raise ValueError("ragged matrix")
        self.entries = ents

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def constant_rows(self) -> List[List[Scalar]]:
        """The stored int-or-Fraction values of a constant matrix;
        ValueError on a non-constant entry."""
        out = []
        for row in self.entries:
            vals = []
            for e in row:
                p = e.packed
                # stored coefficients are nonzero, so a constant has the
                # one key 0 or no key at all
                if len(p) != (0 in p):
                    raise ValueError(f"not a constant: {e}")
                vals.append(p.get(0, 0))
            out.append(vals)
        return out

    def subs(self, assignment) -> "PolyMatrix":
        """Substitute one point into every entry: one
        `Substitution.apply` over the entries in row-major order, so the
        point is validated once and every entry reads the monomial values
        and powers the others built."""
        flat = Substitution(assignment).apply(
            e for row in self.entries for e in row)
        c = self.cols
        return PolyMatrix([flat[i * c:(i + 1) * c] for i in range(self.rows)])

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


def _pivot(a: List[List[Poly]], k: int):
    """(i, j) of the pivot for Bareiss step k, or None when the trailing
    block a[k:][k:] is zero.

    The nonzero entry with the fewest terms wins; ties go to the smallest
    Markowitz count (r_i - 1)(c_j - 1), with r_i and c_j the nonzeros of
    its row and column in the trailing block, and then to the first entry
    in row-major order.
    """
    n = len(a)
    nz = [[j for j in range(k, n) if a[i][j].packed] for i in range(k, n)]
    col_count = [0] * n
    for row in nz:
        for j in row:
            col_count[j] += 1
    best = None
    for i, row in zip(range(k, n), nz):
        for j in row:
            cost = (len(a[i][j].packed), (len(row) - 1) * (col_count[j] - 1))
            if best is None or cost < best[0]:
                best = (cost, i, j)
    return None if best is None else best[1:]


def matrix_det(m: PolyMatrix) -> Poly:
    """Exact determinant by Bareiss fraction-free elimination in Z[x],
    with full pivoting chosen for sparsity.

    Each row is first scaled to integer coefficients by the lcm of its
    coefficient denominators, and the product of the row scales is
    divided out once at the end.  At step k the pivot is the nonzero entry
    of the trailing block with the fewest terms, ties broken by the
    Markowitz count and then by row-major position (`_pivot`), so a
    sparse matrix stays sparse and the choice is deterministic.  Its row
    and column are swapped into place, each swap flipping the sign; a
    zero trailing block means det = 0.

    The update of entry x of row i under pivot row entry y is
    divexact(piv * x + naik * y, prev), with naik = -a[i][k] negated once
    per row: the same packed dict, values and term order, as
    piv * x - a[i][k] * y, since negating a product negates its summed
    terms in place.  A row whose multiplier is zero is only scaled,
    divexact(piv * x, prev) for each nonzero x, which is what that
    update gives.  Every product goes through `Poly.__mul__`.

    Exactness: after step k every trailing entry is a (k+1)-minor of the
    row- and column-permuted matrix, and by the Sylvester identity the
    previous pivot (a k-minor of it) divides each update exactly in Z[x].
    Permuting rows and columns between steps only reorders the minors,
    so every `divexact` is exact and still raises on an inexact division.

    Term order: the result is the last `divexact` quotient.  When its
    divisor, the previous pivot, is not a constant (as for the
    xy-specialised curvature Jacobian and its minors), `divexact` emits
    the terms in lex-descending order of the canonical variable order, so
    the order does not depend on the pivot path; a constant divisor keeps
    the order of the numerator.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Poly.const(1)
    a = []
    scale = 1
    for row in m.entries:
        den = denominator(row)
        scale *= den
        a.append([numerators(e, den) for e in row])
    sign = 1
    prev = Poly.const(1)
    for k in range(n):
        at = _pivot(a, k)
        if at is None:
            return Poly.zero()
        pi, pj = at
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        ak = a[k]
        piv = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            if not ai[k].packed:
                for j in range(k + 1, n):
                    if ai[j].packed:
                        ai[j] = divexact(piv * ai[j], prev)
                continue
            naik = -ai[k]
            for j in range(k + 1, n):
                ai[j] = divexact(piv * ai[j] + naik * ak[j], prev)
        prev = piv
    det = prev if sign == 1 else -prev
    return det if scale == 1 else det * Fraction(1, scale)


# -- exact elimination over the rationals --------------------------------


def _int_row(values) -> List[int]:
    """Scale one row of exact scalars to coprime integers.

    This is the only way values enter the integer core, so the `poly`
    exactness guard here is what rejects a float at every entry point.
    One pass reads the row: an `int` is taken as it is, any other value
    goes through `_exact` (which rejects `float` and `bool`), and only the
    denominators of the non-`int` values enter the `lcm`.
    """
    row = []
    dens = []
    for x in values:
        if type(x) is not int:
            x = _exact(x)
            if type(x) is not int:
                dens.append(x.denominator)
        row.append(x)
    if dens:
        den = lcm(*dens)
        row = [x * den if type(x) is int
               else x.numerator * (den // x.denominator) for x in row]
    return _primitive(row)


def _int_rows(rows: Sequence[Sequence[Scalar]]) -> List[List[int]]:
    """`_int_row` of every row; ValueError when the rows differ in
    length."""
    ints = [_int_row(row) for row in rows]
    if any(len(r) != len(ints[0]) for r in ints):
        raise ValueError("ragged matrix")
    return ints


def _ncols(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rows[0]) if rows else 0


def _primitive(row: List[int]) -> List[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _row_echelon(rows: Sequence[Sequence[Scalar]]):
    """(pivot columns, integer echelon rows) of a matrix of exact
    scalars: `_int_rows`, then one fraction-free forward elimination.

    The elimination writes into the new integer rows, so the caller's
    rows are never changed.  A row with a nonzero entry under the pivot
    p of column c becomes the primitive part of f1 * row - f2 * pivot
    row, with f1 = p / g and f2 = row[c] / g for g their gcd; only the
    columns right of c change, since both rows are zero left of c and
    the combination is zero at c.
    """
    rows = _int_rows(rows)
    nr = len(rows)
    nc = _ncols(rows)
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
        p = pr[c]
        right = range(c + 1, nc)
        for i in range(r + 1, nr):
            row = rows[i]
            x = row[c]
            if not x:
                continue
            g = gcd(p, x)
            f1, f2 = p // g, x // g
            row[c] = 0
            for j in right:
                row[j] = f1 * row[j] - f2 * pr[j]
            g = gcd(*row)
            if g > 1:
                for j in right:
                    row[j] //= g
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots, rows


_ZERO, _ONE = Fraction(0), Fraction(1)


def _back_substitute(pivots: List[int], rows: List[List[int]], n: int,
                     cols: Iterable[int]) -> List[List[Fraction]]:
    """One vector per column in `cols` of the forward echelon `rows` of
    [A | B], A in n columns: for a column of B, the x with A x = that
    column and 0 at the free columns of A; for a free column of A, the
    kernel vector that is 1 there and 0 at the other free columns.

    One pass up the pivot rows left of the column, each read only at the
    pivot columns right of its own pivot, on integer numerators over one
    common denominator that grows only when a pivot does not divide.
    """
    later = [[(c, rows[r][c]) for c in pivots[r + 1:] if rows[r][c]]
             for r in range(len(pivots))]
    out = []
    for col in cols:
        sign = 1 if col >= n else -1  # a column of A moves to the right
        num = [0] * n
        nonzero = []
        den = 1
        for r in range(bisect_left(pivots, col) - 1, -1, -1):
            s = sign * rows[r][col] * den
            for c, a in later[r]:
                s -= a * num[c]
            if not s:
                continue
            p = rows[r][pivots[r]]
            q, rem = divmod(s, p)
            if rem:
                g = gcd(s, p)
                f = p // g
                for c in nonzero:
                    num[c] *= f
                den *= f
                q = s // g
            num[pivots[r]] = q
            nonzero.append(pivots[r])
        x = [_ZERO] * n
        for c in nonzero:
            x[c] = Fraction(num[c], den)
        if col < n:
            x[col] = _ONE
        out.append(x)
    return out


def _solution(pivots: List[int], rows: List[List[int]], n: int):
    """(particular, kernel basis) of A x = b in n unknowns, read off the
    forward integer echelon of [A | b]; None when b holds a pivot.

    Rows of width n (no b column) give the particular solution 0.  Each
    kernel vector has a 1 in one free column and 0 in the others.
    """
    if pivots and pivots[-1] >= n:
        return None
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    if rows and len(rows[0]) > n:
        x, *kernel = _back_substitute(pivots, rows, n, [n] + free)
        return x, kernel
    return [_ZERO] * n, _back_substitute(pivots, rows, n, free)


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank of a matrix of exact scalars (forward elimination
    only)."""
    return len(_row_echelon(rows)[0])


def spans_equal(a: Sequence[Sequence[Scalar]],
                b: Sequence[Sequence[Scalar]], dim: int) -> bool:
    """Whether the rows of `a` and of `b` span one `dim`-dimensional
    space: each block, and the two together, have rank `dim`."""
    return rank(a) == rank(b) == rank(list(a) + list(b)) == dim


def kernel_basis(rows: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    """Exact basis of the right kernel of a matrix of exact scalars.

    Each basis vector has a 1 in one free column and 0 in the others,
    and that free column is its last nonzero entry.
    """
    return _solution(*_row_echelon(rows), _ncols(rows))[1]


def matrix_rank_kernel(m: PolyMatrix):
    """(rank, kernel basis) of a constant PolyMatrix, both exact."""
    ker = kernel_basis(m.constant_rows())
    return m.cols - len(ker), ker


def linsolve(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]):
    """Solve A x = rhs exactly for the rows of A, exact scalars.

    Returns (particular solution, kernel basis) or None if inconsistent.
    """
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    return _solution(*_row_echelon(aug), _ncols(rows))


def solve_sparse(rows: List[dict], ncols: int):
    """Exact solve of a sparse linear system in homogeneous form.

    Each row is a dict {col: coeff} encoding
        sum_{c < ncols} coeff[c] * x_c + coeff[ncols] = 0,
    i.e. column `ncols` holds the constant term.  Returns
    (particular solution, kernel basis) over the x's, or None if
    inconsistent.  Each row is written into a dense row of the shared
    integer elimination; a column outside 0..ncols raises ValueError.
    """
    dense = []
    for row in rows:
        d = [0] * (ncols + 1)
        for c, v in row.items():
            if not 0 <= c <= ncols:
                raise ValueError(f"column {c} outside 0..{ncols}")
            d[c] = v
        dense.append(d)
    pivots, ints = _row_echelon(dense)
    for r in ints:  # the constant term moves to the right-hand side
        r[ncols] = -r[ncols]
    return _solution(pivots, ints, ncols)


def linear_rows(polys: Iterable[Poly], unknowns: Sequence[str]) -> List[dict]:
    """The identities `p = 0` for p in polys, affine in the named unknowns,
    as rows for `solve_sparse`.

    Each polynomial gives one row per monomial in its remaining variables,
    in turn: the term u_k * monomial goes to column k, the term free of
    unknowns to the constant column len(unknowns).  A term of degree > 1
    in the unknowns raises ValueError.
    """
    col = {var_key(u): k for k, u in enumerate(unknowns)}
    fields = fields_mask(unknowns)
    const = len(unknowns)
    rows = []
    for p in polys:
        by_rest: Dict[int, dict] = {}
        for k, c in p.packed.items():
            u = k & fields
            at = col.get(u) if u else const
            if at is None:
                raise ValueError(f"not linear in the unknowns: {p}")
            by_rest.setdefault(k ^ u, {})[at] = c
        rows.extend(by_rest.values())
    return rows


def invert_rational(rows: List[List[Scalar]]) -> List[List[Scalar]]:
    """Exact inverse of a square rational matrix: the forward echelon of
    [A | I], then one back-substitution per column of I."""
    n = len(rows)
    pivots, ints = _row_echelon(
        [list(row) + [1 if j == i else 0 for j in range(n)]
         for i, row in enumerate(rows)])
    if _ncols(rows) != n:
        raise ValueError("not a square matrix")
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    cols = _back_substitute(pivots, ints, n, range(n, 2 * n))
    return [list(row) for row in zip(*cols)]


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
