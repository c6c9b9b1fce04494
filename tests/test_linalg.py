import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from g12calc.excalc import (COFRAME_NAMES, Coframe, FormExpr, form_sum,
                            ideal_substitution)
from g12calc.integrals import C_SYM, K_SYMS, _jmatrix_symbolic
from g12calc.linalg import (DEFAULT_MAX_MAGNITUDE, PolyMatrix, _Lcg, _pivot,
                            invert_rational, kernel_basis, linear_rows,
                            linsolve, matrix_det, matrix_rank_kernel,
                            random_rational_point, rank, solve_sparse,
                            spans_equal)
from g12calc.poly import (Poly, denominator, divexact, numerators,
                          parse_poly)


def rand_const_matrix(rng, n):
    return PolyMatrix([[Fraction(rng.next_int(11) - 5) for _ in range(n)]
                       for _ in range(n)])


def test_det_diag_and_repeated_rows():
    m = PolyMatrix([[Poly.var("p"), Poly.zero()],
                    [Poly.zero(), Poly.var("q")]])
    assert matrix_det(m) == parse_poly("p*q")
    m2 = PolyMatrix([[1, 2, 3], [1, 2, 3], [0, 1, 4]])
    assert matrix_det(m2).is_zero()


def test_det_requires_square():
    with pytest.raises(ValueError):
        matrix_det(PolyMatrix([[0, 0, 0], [0, 0, 0]]))


def test_det_multiplicative_on_random_matrices():
    rng = _Lcg(99)
    for _ in range(10):
        a = rand_const_matrix(rng, 4)
        b = rand_const_matrix(rng, 4)
        ab = PolyMatrix([[sum((a[i, k] * b[k, j] for k in range(4)),
                              Poly.zero()) for j in range(4)]
                         for i in range(4)])
        lhs = matrix_det(ab).constant_value()
        rhs = (matrix_det(a).constant_value()
               * matrix_det(b).constant_value())
        assert lhs == rhs


def test_det_polynomial_entries_bareiss():
    t = Poly.var("t")
    m = PolyMatrix([[t, 1 + t, 2], [t ** 2, t, 1], [1, 0, t]])
    # brute-force cofactor expansion for the oracle
    def det3(e):
        return (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
    assert matrix_det(m) == det3(m.entries)


def permutation_sign(perm) -> int:
    n = len(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n)
                     for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


def leibniz_det(m: PolyMatrix) -> Poly:
    """The determinant as the signed sum over all permutations."""
    n = m.rows
    return sum((prod((m[i, p[i]] for i in range(n)), start=Poly.const(1))
                * permutation_sign(p) for p in permutations(range(n))),
               Poly.zero())


def test_pivot_rule():
    """Fewest terms first, then the smallest Markowitz count in the
    trailing block, then row-major order; None on a zero block."""
    p, q = Poly.var("p"), Poly.var("q")
    z = Poly.zero()
    # (0, 0) has Markowitz count 1, (0, 1) and (1, 0) count 0
    assert _pivot([[p, q], [q, z]], 0) == (0, 1)
    # a one-term entry beats a two-term entry of lower count
    assert _pivot([[p + q, z], [p, z]], 0) == (1, 0)
    # a pure tie goes to the first entry in row-major order
    assert _pivot([[z, p], [q, z]], 0) == (0, 1)
    # only the trailing block counts: at k = 1 row 0 and column 0 are out
    assert _pivot([[p, p, p], [p, q, z], [p, q, q]], 1) == (1, 1)
    assert _pivot([[p, p, p], [p, p + q, z], [p, q, q]], 1) == (2, 2)
    assert _pivot([[p, q], [q, z]], 1) is None


PERMUTATIONS = [(1, 0), (2, 0, 1), (0, 2, 1), (3, 1, 0, 2), (4, 3, 2, 1, 0),
                (1, 2, 3, 4, 0)]


@pytest.mark.parametrize("perm", PERMUTATIONS)
def test_det_of_permuted_diagonal_matrices(perm):
    """det = sign(perm) * prod of the entries, whichever swaps the pivots
    need."""
    n = len(perm)
    # one-term entries tie everywhere, so row k wins step k and only
    # columns move
    single = [Poly.var("p", i + 1) * (i + 2) for i in range(n)]
    # fewer terms further down: the pivots come from the later rows, so
    # rows move as well
    layered = [sum((Poly.var("q", d) for d in range(n - i)), Poly.zero())
               for i in range(n)]
    for entries, first in ((single, (0, perm[0])),
                           (layered, (n - 1, perm[n - 1]))):
        m = PolyMatrix([[entries[i] if j == perm[i] else Poly.zero()
                         for j in range(n)] for i in range(n)])
        assert _pivot(m.entries, 0) == first
        assert matrix_det(m) == prod(entries) * permutation_sign(perm)


def rand_poly(rng):
    """1-3 terms in p and q with small rational coefficients."""
    return sum((Poly.monomial({"p": rng.next_int(3), "q": rng.next_int(2)},
                              Fraction(rng.next_int(9) - 4,
                                       1 + rng.next_int(3)))
                for _ in range(1 + rng.next_int(3))), Poly.zero())


def rand_sparse_poly_matrix(rng, n):
    """About half the entries zero, the rest `rand_poly`."""
    return PolyMatrix([[Poly.zero() if rng.next_int(2) else rand_poly(rng)
                        for _ in range(n)] for _ in range(n)])


def test_det_of_transpose_on_sparse_polynomial_matrices():
    rng = _Lcg(41)
    nonzero = 0
    for n in range(1, 7):
        for _ in range(4):
            m = rand_sparse_poly_matrix(rng, n)
            det = matrix_det(m)
            transpose = PolyMatrix([list(col) for col in zip(*m.entries)])
            assert det == matrix_det(transpose) == leibniz_det(m)
            nonzero += not det.is_zero()
    assert nonzero >= 12


def reference_bareiss(m: PolyMatrix):
    """(det, number of rows updated with a zero multiplier) by the Bareiss
    elimination of `matrix_det` with every entry updated as
    piv * x - aik * y, zero multipliers included: the same pivots, row
    scales and divisions, and the update written out as it reads."""
    n = m.rows
    a = []
    scale = 1
    for row in m.entries:
        den = denominator(row)
        scale *= den
        a.append([numerators(e, den) for e in row])
    sign = 1
    prev = Poly.const(1)
    zero_multipliers = 0
    for k in range(n):
        at = _pivot(a, k)
        if at is None:
            return Poly.zero(), zero_multipliers
        pi, pj = at
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            ai, aik = a[i], a[i][k]
            zero_multipliers += aik.is_zero()
            for j in range(k + 1, n):
                ai[j] = divexact(piv * ai[j] - aik * a[k][j], prev)
        prev = piv
    det = prev if sign == 1 else -prev
    return (det if scale == 1 else det * Fraction(1, scale)), zero_multipliers


def block_triangular_poly_matrix(rng, n, split):
    """[[A, B], [0, C]] with A split x split and every entry of A, B and
    C a `rand_poly`."""
    return PolyMatrix([[Poly.zero() if i >= split > j else rand_poly(rng)
                        for j in range(n)] for i in range(n)])


def assert_det_matches_reference(m: PolyMatrix) -> int:
    """matrix_det equals the reference in value and term order; returns
    the reference's count of zero multipliers."""
    want, zero_multipliers = reference_bareiss(m)
    got = matrix_det(m)
    assert got == want
    assert list(got.packed.items()) == list(want.packed.items())
    return zero_multipliers


def test_det_update_matches_reference_on_block_triangular_matrices():
    """A row whose multiplier is zero is only scaled and divided; every
    other row takes the negated multiplier once.  Block-triangular
    matrices have zero multipliers at many steps."""
    rng = _Lcg(77)
    zero_multipliers = nonzero = 0
    for n, split in ((2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (6, 4)):
        for _ in range(3):
            m = block_triangular_poly_matrix(rng, n, split)
            zero_multipliers += assert_det_matches_reference(m)
            nonzero += not matrix_det(m).is_zero()
    assert zero_multipliers >= 10 and nonzero >= 12


def test_det_update_matches_reference_on_jacobian_minors():
    """J with two symbols left free, as the Jacobian stream takes it: the
    full (zero) determinant and seeded minors, in value and term order."""
    jac = _jmatrix_symbolic()
    syms = K_SYMS + (C_SYM,)
    nonzero = 0
    for seed, free in ((3, (C_SYM, "a20_1")), (4, ("a02_0", "a02_1")),
                       (5, ("b_3", "a20_1"))):
        point = random_rational_point(
            [s for s in syms if s not in free], seed)
        j = jac.subs(point)
        assert_det_matches_reference(j)
        rng = _Lcg(seed)
        for size in (4, 6, 8):
            rows = sorted(set(rng.next_int(12) for _ in range(3 * size)))
            cols = sorted(set(rng.next_int(12) for _ in range(3 * size)))
            k = min(size, len(rows), len(cols))
            minor = PolyMatrix([[j[r, c] for c in cols[:k]]
                                for r in rows[:k]])
            assert_det_matches_reference(minor)
            nonzero += not matrix_det(minor).is_zero()
    assert nonzero >= 3


def test_det_update_runs_on_poly_mul(monkeypatch):
    """The Bareiss update multiplies through `Poly.__mul__`, which the
    benchmark's tracer counts: a 2x2 det makes at least two calls."""
    x = Poly.var("x")
    want = x * x - 1
    calls = []
    mul = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(Poly, "__mul__", counting)
    assert matrix_det(PolyMatrix([[x, 1], [1, x]])) == want
    assert len(calls) >= 2


def all_ties_det_terms() -> str:
    """The det of a 4x4 matrix of distinct one-term entries, its terms in
    their stored order, as JSON."""
    m = PolyMatrix([[Poly.var(f"m{i}{j}", 1, i + j + 1) for j in range(4)]
                    for i in range(4)])
    return json.dumps([[list(e), str(c)]
                       for e, c in matrix_det(m).terms.items()])


def test_all_ties_det_is_reproducible():
    """Every entry has one term and every Markowitz count is 9, so the
    first pivot is a pure tie.  Two runs, and a third in a fresh process
    with its own hash seed and variable registry, give the same Poly with
    its terms in the same order."""
    runs = [all_ties_det_terms(), all_ties_det_terms()]
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join([here] + sys.path))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from test_linalg import all_ties_det_terms as f; print(f())"],
        capture_output=True, text=True, env=env, check=True)
    runs.append(proc.stdout.strip())
    assert runs[0] == runs[1] == runs[2]
    assert len(json.loads(runs[0])) == 24


def test_rank_kernel_relation_random():
    rng = _Lcg(5)
    for _ in range(10):
        m = rand_const_matrix(rng, 5)
        rank, ker = matrix_rank_kernel(m)
        assert rank + len(ker) == 5
        rows = m.constant_rows()
        for v in ker:
            assert all(sum(rows[i][j] * v[j] for j in range(5)) == 0
                       for i in range(5))
        assert (rank == 5) == (not matrix_det(m).is_zero())


def test_spans_equal():
    a = [[1, 0, 2, 0], [0, 1, 0, 3]]
    other_basis = [[1, 1, 2, 3], [Fraction(1, 2), -1, 1, -3]]
    assert spans_equal(a, other_basis, 2)
    assert not spans_equal(a, other_basis, 3)
    assert not spans_equal(a, [[1, 1, 2, 3], [0, 0, 0, 1]], 2)
    # a spanning set with a dependent row still spans the same plane
    assert spans_equal(a, other_basis + [[2, 2, 4, 6]], 2)
    assert not spans_equal(a, a[:1], 2)


def test_identity_and_zero():
    assert matrix_rank_kernel(
        PolyMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (3, [])
    rank, ker = matrix_rank_kernel(PolyMatrix([[0, 0], [0, 0]]))
    assert rank == 0 and len(ker) == 2


def test_rank_and_kernel_take_scalar_rows():
    rows = [[1, 2, 3], [2, 4, 6], [0, Fraction(1, 2), 4]]
    assert rank(rows) == 2
    assert kernel_basis(rows) == [[Fraction(13), Fraction(-8), Fraction(1)]]
    # no rows: no columns, rank 0 and an empty kernel
    assert rank([]) == 0 and kernel_basis([]) == []
    # rows of width 0 have a 0-dimensional kernel too
    assert kernel_basis([[], []]) == []
    m = PolyMatrix(rows)
    assert matrix_rank_kernel(m) == (2, kernel_basis(rows))


def test_constant_rows_are_the_stored_values():
    m = PolyMatrix([[0, Fraction(1, 2)], [Fraction(4, 2), -3]])
    rows = m.constant_rows()
    assert rows == [[0, Fraction(1, 2)], [2, -3]]
    assert [[type(x) for x in row] for row in rows] == \
        [[int, Fraction], [int, int]]
    # a one-term entry, and a constant term beside another term
    for entry in (Poly.var("p"), Poly.var("p") + 1):
        with pytest.raises(ValueError, match="not a constant"):
            PolyMatrix([[1, entry]]).constant_rows()


def test_linsolve_unique_and_inconsistent():
    sol = linsolve([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   [Fraction(1), Fraction(2), Fraction(3)])
    assert sol[0] == [Fraction(1), Fraction(2), Fraction(3)]
    assert sol[1] == []
    assert linsolve([[0, 0], [0, 0]], [Fraction(1), Fraction(0)]) is None
    with pytest.raises(ValueError, match="rhs length"):
        linsolve([[1, 0], [0, 1]], [1])
    # no rows: no unknowns
    assert linsolve([], []) == ([], [])


def test_linsolve_underdetermined():
    part, ker = linsolve([[1, 1, 1]], [Fraction(6)])
    assert sum(part) == 6
    assert len(ker) == 2


def test_solve_sparse_matches_dense():
    rng = _Lcg(17)
    for _ in range(10):
        m = rand_const_matrix(rng, 4)
        x = [Fraction(rng.next_int(7) - 3) for _ in range(4)]
        rows_d = m.constant_rows()
        rhs = [sum(rows_d[i][j] * x[j] for j in range(4)) for i in range(4)]
        rows = []
        for i in range(4):
            row = {j: rows_d[i][j] for j in range(4) if rows_d[i][j]}
            if rhs[i]:
                row[4] = -rhs[i]
            if row:
                rows.append(row)
        part, ker = solve_sparse(rows, 4)
        # the particular solution must reproduce the right-hand side
        for i in range(4):
            assert sum(rows_d[i][j] * part[j] for j in range(4)) == rhs[i]
        rank, dense_ker = matrix_rank_kernel(m)
        assert ker == dense_ker
        assert (part, ker) == linsolve(rows_d, rhs)


def test_solve_sparse_edge_rows():
    zero = [Fraction(0)] * 2
    unit = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert solve_sparse([], 2) == (zero, unit)
    assert solve_sparse([{}, {0: 0, 1: 0}], 2) == (zero, unit)
    assert solve_sparse([{2: 0}], 2) == (zero, unit)
    assert solve_sparse([{0: 2, 2: -3}, {2: 0}], 2) == \
        ([Fraction(3, 2), Fraction(0)], [[Fraction(0), Fraction(1)]])


def test_solve_sparse_inconsistent():
    assert solve_sparse([{0: 1, 2: -1}, {0: 1, 2: -2}], 2) is None
    assert solve_sparse([{2: 5}], 2) is None
    assert solve_sparse([{0: 1}, {2: Fraction(1, 3)}], 2) is None


def test_solve_sparse_rejects_columns_outside_range():
    # column ncols is the constant term; -1 must not alias it, and a key
    # past it must not reach the dense row
    with pytest.raises(ValueError, match="outside"):
        solve_sparse([{0: 1, -1: 3}], 2)
    with pytest.raises(ValueError, match="outside"):
        solve_sparse([{5: 2}], 2)


def test_invert_rational():
    rng = _Lcg(31)
    m = rand_const_matrix(rng, 4)
    while matrix_det(m).is_zero():
        m = rand_const_matrix(rng, 4)
    inv = invert_rational(m.constant_rows())
    rows = m.constant_rows()
    prod = [[sum(rows[i][k] * inv[k][j] for k in range(4))
             for j in range(4)] for i in range(4)]
    assert prod == [[Fraction(1 if i == j else 0) for j in range(4)]
                    for i in range(4)]
    for singular in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0]]):
        with pytest.raises(ValueError, match="singular"):
            invert_rational(singular)
    # seeded rational matrices of sizes 1 to 6, inverted on both sides
    for n in range(1, 7):
        rows = rand_rational_rows(rng, n, n)
        while rank(rows) < n:
            rows = rand_rational_rows(rng, n, n)
        inv = invert_rational(rows)
        assert all(type(x) is Fraction for row in inv for x in row)
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert mat_mul(inv, rows) == eye and mat_mul(rows, inv) == eye


# every rational entry point, called on dense rows of exact scalars
DENSE_ENTRY_POINTS = (rank, kernel_basis,
                      lambda rows: linsolve(rows, [0] * len(rows)),
                      lambda rows: spans_equal(rows, rows, 2),
                      invert_rational)


def test_float_rejected_at_every_entry_point():
    for entry in DENSE_ENTRY_POINTS:
        with pytest.raises(TypeError, match="not an exact scalar"):
            entry([[1, 0], [0, 0.5]])
    # a float in the right-hand side, and in a sparse row
    with pytest.raises(TypeError, match="not an exact scalar"):
        linsolve([[1, 0], [0, 2]], [Fraction(1, 2), 1.5])
    with pytest.raises(TypeError, match="not an exact scalar"):
        solve_sparse([{0: 0.5, 1: 1}], 1)


def test_ragged_rows_rejected_at_every_entry_point():
    for entry in DENSE_ENTRY_POINTS:
        for ragged in ([[1, 0], [0]], [[1], [0, 5]]):
            with pytest.raises(ValueError, match="ragged"):
                entry(ragged)
    # two blocks of even rows but different widths
    with pytest.raises(ValueError, match="ragged"):
        spans_equal([[1, 0, 0]], [[1, 0]], 1)


def test_elimination_leaves_its_input_rows_unchanged():
    """The echelon writes into its own integer rows, never the caller's:
    rows of primitive ints (which need no scaling), rows with a common
    factor and rational rows come back as they went in, types included."""
    rng = _Lcg(12)
    cases = [
        [[2, 3, 5], [1, 4, 7], [3, 7, 12]],
        [[1, 2], [3, 5]],
        [[2, 4, 6], [6, 3, 9], [0, 0, 0]],
        rand_rational_rows(rng, 4, 4),
        rand_low_rank_rows(rng, 4, 4, 2),
    ]

    def snapshot(rows):
        return [[(type(x), x) for x in row] for row in rows]
    for rows in cases:
        before = snapshot(rows)
        rank(rows)
        kernel_basis(rows)
        linsolve(rows, [1] * len(rows))
        if rank(rows) == len(rows) == len(rows[0]):
            invert_rational(rows)
        assert snapshot(rows) == before
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        sparse_before = [dict(row) for row in sparse]
        solve_sparse(sparse, len(rows[0]) - 1)
        assert sparse == sparse_before
        assert [list(row.items()) for row in sparse] == \
            [list(row.items()) for row in sparse_before]


def test_invert_rational_rejects_non_square():
    with pytest.raises(ValueError, match="not a square"):
        invert_rational([[1, 2]])


def _canon(rows):
    return sorted(sorted(r.items()) for r in rows)


def test_linear_rows_constant_column_and_rest_monomials():
    # 2u - 3v + 8 = 0 and (u + 1) x + (v - 2) x y = 0 in the unknowns u, v
    rows = linear_rows([parse_poly("2*u - 3*v + 8"),
                        parse_poly("u*x + x + v*x*y - 2*x*y")], ["u", "v"])
    assert rows[0] == {0: 2, 1: -3, 2: 8}
    # one row per monomial (x, x*y) in the remaining variables
    assert _canon(rows[1:]) == _canon([{0: 1, 2: 1}, {1: 1, 2: -2}])
    assert solve_sparse(rows, 2) == ([Fraction(-1), Fraction(2)], [])
    # a polynomial free of unknowns is one constant-column row per monomial
    assert _canon(linear_rows([Poly.const(Fraction(3, 4)),
                               parse_poly("x - y")], ["u"])) == \
        _canon([{1: Fraction(3, 4)}, {1: 1}, {1: -1}])
    assert linear_rows([Poly.zero()], ["u"]) == []


def test_linear_rows_rejects_nonlinear_terms():
    with pytest.raises(ValueError, match="not linear"):
        linear_rows([parse_poly("u*v + 1")], ["u", "v"])
    with pytest.raises(ValueError, match="not linear"):
        linear_rows([parse_poly("x*u^2 + v")], ["u", "v"])
    # products with the remaining variables stay linear
    assert linear_rows([parse_poly("u*x^2")], ["u"]) == [{0: 1}]


def test_linear_rows_float_stopped_at_solve_sparse():
    rows = linear_rows([parse_poly("u + 2*v")], ["u", "v"])
    rows[0][1] = 0.5
    with pytest.raises(TypeError):
        solve_sparse(rows, 2)


def test_random_point_determinism_and_bounds():
    p1 = random_rational_point(["t", "u"], 7)
    p2 = random_rational_point(["t", "u"], 7)
    p3 = random_rational_point(["t", "u"], 8)
    assert p1 == p2
    assert p1 != p3
    for v in p1.values():
        assert 1 <= abs(v.numerator) <= DEFAULT_MAX_MAGNITUDE
        assert 1 <= v.denominator <= DEFAULT_MAX_MAGNITUDE


def test_random_point_respects_magnitude_config():
    p = random_rational_point(["t"], 3, max_magnitude=5)
    assert abs(p["t"].numerator) <= 5 and p["t"].denominator <= 5


# -- the back-substitution read-out ------------------------------------------


def rand_rational_rows(rng, nrows, ncols, mag=9):
    """Seeded rational entries, about a third of them zero."""
    def entry():
        if rng.next_int(3) == 0:
            return 0
        return Fraction(rng.next_int(2 * mag + 1) - mag, 1 + rng.next_int(mag))
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def rand_low_rank_rows(rng, nrows, ncols, r):
    """A product of nrows x r and r x ncols factors: rank at most r."""
    return mat_mul(rand_rational_rows(rng, nrows, r),
                   rand_rational_rows(rng, r, ncols))


def readout_matrices():
    rng = _Lcg(2024)
    return [
        ("wide", rand_rational_rows(rng, 3, 7)),
        ("tall", rand_rational_rows(rng, 8, 4)),
        ("square", rand_rational_rows(rng, 5, 5)),
        ("deficient", rand_low_rank_rows(rng, 6, 6, 3)),
        ("wide deficient", rand_low_rank_rows(rng, 4, 9, 2)),
        ("tall deficient", rand_low_rank_rows(rng, 9, 5, 3)),
        ("zero", [[0] * 4 for _ in range(3)]),
        ("zero width", [[], [], []]),
    ]


def apply(rows, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def assert_all_fractions(values):
    assert all(type(x) is Fraction for x in values)


@pytest.mark.parametrize("name,rows", readout_matrices())
def test_readout_kernel_and_particular_solution(name, rows):
    n = len(rows[0])
    r = rank(rows)
    ker = kernel_basis(rows)
    assert len(ker) == n - r
    # each kernel vector is 1 in its own free column, its last nonzero
    # entry, and 0 in the free columns of the others
    free = [max(j for j, x in enumerate(v) if x) for v in ker]
    assert free == sorted(set(free))
    for i, v in enumerate(ker):
        assert_all_fractions(v)
        assert apply(rows, v) == [0] * len(rows)
        assert [v[j] for j in free] == [int(k == i) for k in range(len(free))]
    x0 = [Fraction(k - 3, k + 1) for k in range(n)]
    b = apply(rows, x0)
    x, ker2 = linsolve(rows, b)
    assert_all_fractions(x)
    assert apply(rows, x) == b and ker2 == ker
    sparse = [{**{j: a for j, a in enumerate(row) if a},
               **({n: -bi} if bi else {})} for row, bi in zip(rows, b)]
    part, sparse_ker = solve_sparse(sparse, n)
    assert_all_fractions(part + [a for v in sparse_ker for a in v])
    assert (part, sparse_ker) == (x, ker)
    # a right-hand side off the column space: add a left kernel vector
    m = len(rows)
    left = kernel_basis([list(col) for col in zip(*rows)]) if n else \
        [[Fraction(int(i == k)) for i in range(m)] for k in range(m)]
    assert len(left) == m - r
    for y in left:
        off = [bi + yi for bi, yi in zip(b, y)]
        assert linsolve(rows, off) is None
        assert solve_sparse([{**{j: a for j, a in enumerate(row) if a},
                              n: -bi} for row, bi in zip(rows, off)],
                            n) is None


def test_readout_rescales_when_a_pivot_does_not_divide():
    """Neither pivot divides its row's sum (3 into -1, then 2 into 1), so
    the common denominator grows twice; a negative pivot the same."""
    assert kernel_basis([[2, 1, 0], [0, 3, 1]]) == \
        [[Fraction(1, 6), Fraction(-1, 3), Fraction(1)]]
    assert linsolve([[-2, 1], [0, -3]], [1, 2]) == \
        ([Fraction(-5, 6), Fraction(-2, 3)], [])
    assert solve_sparse([{0: 4, 1: 6, 2: -1}, {1: 9, 2: -2}], 2) == \
        ([Fraction(-1, 12), Fraction(2, 9)], [])


def test_results_are_fractions_on_integer_input():
    rows = [[1, 2, 3], [2, 4, 7]]
    x, ker = linsolve(rows, [1, 1])
    assert_all_fractions(x + [a for v in ker for a in v])
    assert_all_fractions([a for v in kernel_basis(rows) for a in v])
    x, ker = solve_sparse([{0: 1, 1: 2, 3: -1}], 3)
    assert_all_fractions(x + [a for v in ker for a in v])
    assert_all_fractions([a for row in invert_rational([[2, 1], [1, 1]])
                          for a in row])


def rref_substitution(cf, ideal_forms):
    """The pivot generators of a constant 1-form ideal through the
    others, read off a plain Fraction Gauss-Jordan reduced row echelon
    form: the map ideal_substitution gave before its read-out was a
    back-substitution."""
    from g12calc.excalc import FormExpr, form_sum
    n = len(cf)
    m = []
    for g in ideal_forms:
        row = [Fraction(0)] * n
        for mono, coeff in g.terms.items():
            row[mono[0]] = coeff.constant_value()
        m.append(row)
    pivots = []
    for c in range(n):
        r = len(pivots)
        at = next((i for i in range(r, len(m)) if m[i][c]), None)
        if at is None:
            continue
        m[r], m[at] = m[at], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * p for a, p in zip(m[i], m[r])]
        pivots.append(c)
    return {c: form_sum(cf, [(FormExpr.gen(cf, j), -m[r][j])
                             for j in range(n) if j != c])
            for r, c in enumerate(pivots)}


def test_ideal_substitution_matches_the_rref_map():
    cf = Coframe(COFRAME_NAMES)
    gen = [FormExpr.gen(cf, j) for j in range(len(cf))]
    rng = _Lcg(77)

    def rand_gen():
        row = rand_rational_rows(rng, 1, len(cf))[0]
        return form_sum(cf, zip(gen, row))

    a, b, c = rand_gen(), rand_gen(), rand_gen()
    ideals = [
        [gen[0], gen[1] - gen[2].scale(2)],
        [a, b, c],
        # dependent and zero generators
        [a, b, a.scale(3) - b.scale(Fraction(1, 2)), FormExpr.zero(cf)],
        [gen[5].scale(-3) + gen[12], gen[2].scale(7) + gen[12].scale(2)],
        gen,
        [],
    ]

    def layout(subs):
        return [(k, [(mask, list(p.packed.items()))
                     for mask, p in f._by_mask.items()])
                for k, f in subs.items()]

    for ideal in ideals:
        assert layout(ideal_substitution(cf, ideal)) == \
            layout(rref_substitution(cf, ideal))


def test_rank_of_the_curvature_jacobian_at_seeded_points():
    jac = _jmatrix_symbolic()
    for seed in range(20):
        point = random_rational_point(K_SYMS + (C_SYM,), seed)
        at = jac.subs(point)
        r, ker = matrix_rank_kernel(at)
        assert r == 10 and len(ker) == 2
        rows = at.constant_rows()
        for v in ker:
            assert_all_fractions(v)
            assert apply(rows, v) == [0] * 12
    flat = dict.fromkeys(K_SYMS, Fraction(0))
    flat[C_SYM] = Fraction(-46, 5)
    assert matrix_rank_kernel(jac.subs(flat))[0] < 10
