"""Property tests of the exact core, and differential tests against sympy.

`Poly` is checked for the ring axioms over mixed int/Fraction
coefficients, with operands on overlapping or disjoint variable sets, and
against sympy across those sets; for its canonical int-when-integral
storage, for divexact round trips, for `add_product` on one term times
one term against the `Poly` sum, for one-pass `subs` (a mapping or a
reused `Substitution`) against a term-by-term expansion and for exponent
overflow.
`matrix_det`, rank and kernel are checked against sympy on random
polynomial matrices, dense and half zero, and on the curvature Jacobian J
at seeded points;
`solve_sparse` and `invert_rational` against sympy on random sparse
rational systems.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from g12calc import poly  # noqa: E402
from g12calc.binforms import _numerators, dim_v, from_coords  # noqa: E402
from g12calc.excalc import A02_SYMS, A20_SYMS, C_SYM  # noqa: E402
from g12calc.integrals import (K_SYMS, XY_PARAMS,  # noqa: E402
                               _jmatrix_symbolic)
from g12calc.linalg import (PolyMatrix, invert_rational,  # noqa: E402
                            matrix_det, matrix_rank_kernel,
                            random_rational_point, solve_sparse)
from g12calc.poly import (_MAX_EXP, Poly, Substitution,  # noqa: E402
                          _div, _trusted, _var_key, add_product,
                          denominator, divexact, form_key, from_packed,
                          split_form, var_key)

# every operand draws its own variables: parameter names that sort before
# ("a", "b_0") and after ("t", "zz") the form variables, so two operands
# share some, all or none of their variables
NAMES = ("a", "b_0", "x1", "y1", "x2", "y2", "t", "zz")

coeffs = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    # integral values held as Fraction must come out as int
    st.integers(-30, 30).map(Fraction))


def polys_on(names):
    exponents = st.tuples(*[st.integers(0, 3)] * len(names))
    return st.dictionaries(exponents, coeffs, max_size=5).map(
        lambda terms: Poly(names, terms))


var_sets = st.lists(st.sampled_from(NAMES), max_size=4, unique=True).map(
    tuple)
polys = var_sets.flatmap(polys_on)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def canonical(p: Poly) -> bool:
    """Every stored coefficient nonzero and int exactly when integral,
    every variable used, variables in the global order."""
    for c in p.terms.values():
        if type(c) is int:
            ok = c != 0
        else:
            ok = type(c) is Fraction and c.denominator != 1
        if not ok:
            return False
    used = all(any(e[i] for e in p.terms) for i in range(len(p.vars)))
    return used and list(p.vars) == sorted(p.vars, key=_var_key)


@given(polys, polys, polys)
def test_ring_axioms_mixed_coefficients(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a and a * Poly.const(1) == a
    assert (a - a).is_zero() and (a * Poly.zero()).is_zero()


@given(polys, polys, coeffs)
def test_results_are_canonical(a, b, k):
    for p in (a, a + b, a - b, -a, a * b, a * k, a.diff("x1"), a ** 2,
              a.subs({"t": k}), a.subs({"x1": b}), a.subs({"zz": b})):
        assert canonical(p)


def test_exponent_overflow_across_contexts():
    """An exponent never wraps into the next variable's field."""
    x, a = Poly.var("x1"), Poly.var("a")
    with pytest.raises(OverflowError):
        (x ** 200) * (x ** 200)
    big = Poly.var("x1", 127) * a
    with pytest.raises(OverflowError):
        big * x
    assert big * a == Poly.monomial({"x1": 127, "a": 2})


@given(polys, nonzero_polys)
def test_divexact_round_trip(p, q):
    assert divexact(p * q, q) == p


@given(polys, coeffs.filter(lambda k: k != 0))
def test_divexact_by_constant(p, k):
    assert divexact(p * k, Poly.const(k)) == p
    assert p * k / k == p


# one-term operands over two variables, so that products share keys and
# cancel; coefficients mixed int/Fraction, integral Fractions included
single_terms = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         coeffs.filter(bool)).map(
    lambda t: Poly(("a", "x1"), {t[0]: t[1]}))


@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       coeffs.filter(bool), max_size=4),
       st.lists(st.tuples(single_terms, single_terms, st.booleans()),
                min_size=1, max_size=8))
def test_single_term_add_product_matches_the_poly_sum(start, steps):
    """add_product on one term times one term, step by step, against
    Poly.__add__ of the product term built apart: the same values in the
    same order (a cancelled key comes back last), canonical storage."""
    acc = dict(Poly(("a", "x1"), start).packed)
    want = Poly(("a", "x1"), start)
    for p, q, negate in steps:
        (k1, c1), = p.packed.items()
        (k2, c2), = q.packed.items()
        term = from_packed({k1 + k2: -c1 * c2 if negate else c1 * c2})
        want = want + term
        add_product(acc, p, q, negate)
        assert list(acc.items()) == list(want.packed.items())
        assert canonical(_trusted(acc))


def test_single_term_add_product_rules():
    x, y = Poly.var("x1"), Poly.var("y1")
    kx, ky = var_key("x1"), var_key("y1")
    # negate, and a key that cancels and comes back goes last
    acc = {kx: 2, ky: 1}
    add_product(acc, Poly.const(2), x, negate=True)
    assert acc == {ky: 1}
    add_product(acc, x, Poly.const(5))
    assert list(acc.items()) == [(ky, 1), (kx, 5)]
    assert list(acc.items()) == list(
        (Poly.var("y1") + 2 * x - 2 * x + 5 * x).packed.items())
    # a Fraction times an int that comes out integral is stored as int
    add_product(acc, y * Fraction(3, 2), Poly.const(-2))
    assert list(acc.items()) == [(ky, -2), (kx, 5)]
    assert type(acc[ky]) is int
    # an overflowing key raises before acc changes
    before = list(acc.items())
    with pytest.raises(OverflowError):
        add_product(acc, x ** 100, x ** 28)
    assert list(acc.items()) == before


# BiForms for the pairing core: coefficients int, Fraction (integral ones
# included) or polynomials in parameters on both sides of the form
# variables in the canonical order
biform_coeffs = st.one_of(coeffs, polys_on(("a", "t")), polys_on(("b_0",)))
biforms = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda nm: st.lists(biform_coeffs, min_size=dim_v(*nm),
                        max_size=dim_v(*nm)).map(
        lambda cs: from_coords(*nm, cs)))


def reference_numerators(p: Poly):
    """_numerators by split_form and Fraction scaling."""
    den = lcm(*(Fraction(c).denominator for c in p.packed.values()))
    out = []
    for k, c in p.packed.items():
        (_x1, y1, _x2, y2), _rest = split_form(k)
        c = Fraction(c) * den
        assert c.denominator == 1
        out.append((y1, y2, k, c.numerator))
    return den, out


@given(biforms)
def test_pairing_numerators_match_the_split_form_reference(u):
    den, terms = _numerators(u.poly)
    assert (den, terms) == reference_numerators(u.poly)
    assert den == denominator([u.poly])
    assert all(type(c) is int for *_e, c in terms)


packed_values = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=12))


@given(st.dictionaries(st.integers(0, 1 << 20).map(
           lambda k: k & ~poly._GUARD), packed_values, max_size=8),
       st.integers(1, 30))
def test_from_packed_divides_like_div(tm, den):
    """from_packed(tm, den) is {k: _div(c, den)} without zero values: the
    same values, coefficient types and key order, negative numerators
    and Fraction values included; tm is not changed."""
    before = list(tm.items())
    got = from_packed(tm, den)
    want = [(k, _div(c, den)) for k, c in tm.items() if c]
    assert [(k, c, type(c)) for k, c in got.packed.items()] == [
        (k, c, type(c)) for k, c in want]
    assert list(tm.items()) == before


def test_from_packed_and_denominator_edges():
    guard = form_key(_MAX_EXP, 0, 0, 0) + 1
    for den in (1, 3):
        for value in (2, -2, Fraction(1, 3)):
            with pytest.raises(OverflowError):
                from_packed({0: 1, guard: value}, den)
    # -7 / 3 keeps its sign in the Fraction; -6 / 3 is the int -2
    got = from_packed({1: -7, 2: -6, 3: 0, 4: Fraction(-9, 2)}, 3)
    assert [(k, c, type(c)) for k, c in got.packed.items()] == [
        (1, Fraction(-7, 3), Fraction), (2, -2, int),
        (4, Fraction(-3, 2), Fraction)]
    assert denominator(()) == 1
    assert denominator([Poly.zero(), Poly.var("a") * 3 - 5]) == 1
    assert denominator([Poly.const(Fraction(1, 4)),
                        Poly.var("a") * Fraction(5, 6)]) == 12


def reference_subs(p: Poly, assignment: dict) -> Poly:
    """Simultaneous substitution expanded term by term."""
    total = Poly.zero()
    for e, c in p.terms.items():
        factor = Poly.const(c)
        for v, k in zip(p.vars, e):
            val = assignment.get(v, Poly.var(v))
            factor = factor * (val if isinstance(val, Poly)
                               else Poly.const(val)) ** k
        total = total + factor
    return total


values = st.one_of(coeffs, coeffs.map(Poly.const), polys,
                   st.sampled_from(NAMES + ("s",)).map(Poly.var))


@given(st.lists(polys, min_size=1, max_size=3),
       st.dictionaries(st.sampled_from(NAMES + ("s",)), values))
def test_one_pass_subs_matches_reference(ps, assignment):
    # one prepared Substitution serves every polynomial, as in
    # PolyMatrix.subs, and keeps the powers it built for the next one
    sub = Substitution(assignment)
    for p in ps:
        want = reference_subs(p, assignment)
        assert p.subs(assignment) == want
        assert p.subs(sub) == want
        # a point that gives every variable of p a scalar (a constant
        # Poly included) evaluates it to one canonical scalar
        if all(v in assignment and (not isinstance(assignment[v], Poly)
                                    or assignment[v].is_constant())
               for v in p.vars):
            value = want.packed.get(0, 0)
            got = sub.values([p])
            assert got == [value] and type(got[0]) is type(value)


full_points = st.fixed_dictionaries(
    {v: st.one_of(coeffs, coeffs.map(Poly.const)) for v in NAMES})


@given(st.lists(polys, min_size=1, max_size=3), full_points)
def test_values_at_a_full_point_match_reference(ps, point):
    want = [reference_subs(p, point).packed.get(0, 0) for p in ps]
    got = Substitution(point).values(ps)
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


def test_values_refuses_a_variable_without_a_scalar():
    p = Poly.var("a") * Poly.var("t") + 1
    with pytest.raises(ValueError, match="'t'"):
        Substitution({"a": 2}).values([p])
    # a term the point makes zero still needs a value for each variable
    with pytest.raises(ValueError, match="'t'"):
        Substitution({"a": 0}).values([p])
    with pytest.raises(ValueError, match="'t'"):
        Substitution({"a": 2, "t": Poly.var("zz")}).values([p])
    assert Substitution({"a": 2, "t": Poly.const(Fraction(1, 4))}).values(
        [p, Poly.zero()]) == [Fraction(3, 2), 0]


ONE_TERM_CASES = [
    # the point makes the term zero
    (Poly.monomial({"a": 2, "t": 1}, Fraction(3, 4)), {"a": 0, "zz": 5}),
    (Poly.monomial({"a": 1}, 7), {"a": Fraction(0)}),
    # a residual key in the unassigned variables
    (Poly.monomial({"a": 2, "t": 1}, Fraction(2, 3)),
     {"a": Fraction(5, 7)}),
    (Poly.monomial({"a": 1, "b_0": 3, "zz": 2}, -6),
     {"a": Fraction(-3, 2), "b_0": 2}),
    # every variable assigned: a constant, integral or not
    (Poly.monomial({"a": 1, "b_0": 1}, 4),
     {"a": Fraction(1, 2), "b_0": Fraction(-1, 2)}),
    (Poly.monomial({"a": 3}, Fraction(5, 6)), {"a": Fraction(7, 5)}),
    # a Poly-valued variable, beside a scalar and an unassigned one
    (Poly.monomial({"a": 1, "t": 2, "zz": 1}, Fraction(-5, 3)),
     {"a": Fraction(3, 2), "t": Poly.var("x1") + 2 * Poly.var("s")}),
    (Poly.monomial({"t": 1}, 2), {"t": Poly.var("zz") * Fraction(1, 2)}),
    # a constant Poly value counts as a scalar
    (Poly.monomial({"a": 2}, 3), {"a": Poly.const(Fraction(2, 3))}),
]


@pytest.mark.parametrize("p,point", ONE_TERM_CASES)
def test_one_term_subs_matches_reference(p, point):
    """A one-term polynomial skips the accumulator of `apply`: its
    value, term order and coefficient types are those of the term-by-term
    expansion, alone and among other polynomials."""
    want = reference_subs(p, point)
    other = p + Poly.var("a") + 1
    for got in (p.subs(point),
                Substitution(point).apply([other, p, Poly.zero(), p])[1]):
        assert got == want
        assert [(k, c, type(c)) for k, c in got.packed.items()] == \
            [(k, c, type(c)) for k, c in want.packed.items()]


def test_one_term_values_refuse_a_variable_without_a_scalar():
    p = Poly.monomial({"a": 1, "t": 1}, 3)
    for point in ({"a": 2}, {"a": 0}, {"a": 2, "t": Poly.var("zz")}):
        with pytest.raises(ValueError, match="'t'"):
            Substitution(point).values([p])
    assert Substitution({"a": 2, "t": Fraction(1, 6)}).values([p]) == [1]


# -- differential tests against sympy -----------------------------------------


def to_sympy(p: Poly):
    syms = [sympy.Symbol(v) for v in p.vars]
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s ** k
        expr += term
    return expr


@given(polys, polys, st.sampled_from(NAMES))
def test_arithmetic_across_variable_contexts_against_sympy(a, b, v):
    sa, sb = to_sympy(a), to_sympy(b)
    assert to_sympy(a + b) == sympy.expand(sa + sb)
    assert to_sympy(a * b) == sympy.expand(sa * sb)
    assert to_sympy(a.diff(v, 2)) == sympy.expand(sympy.diff(sa, v, 2))
    assert to_sympy(a.subs({v: b})) == sympy.expand(
        sa.subs(sympy.Symbol(v), sb))
    if not b.is_zero():
        assert divexact(a * b, b) == a


def sympy_matrix(m: PolyMatrix):
    return sympy.Matrix([[to_sympy(e) for e in row] for row in m.entries])


small_entries = st.dictionaries(st.tuples(st.integers(0, 2),
                                          st.integers(0, 1)),
                                coeffs, max_size=3).map(
    lambda terms: Poly(("x1", "t"), terms))


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_of_polynomial_matrices_against_sympy(rows):
    m = PolyMatrix(rows)
    want = sympy.expand(sympy_matrix(m).det(method="berkowitz"))
    assert sympy.expand(to_sympy(matrix_det(m)) - want) == 0


# each entry zero with probability about one half, so the pivot search
# has to swap rows and columns
sparse_entries = st.booleans().flatmap(
    lambda zero: st.just(Poly.zero()) if zero else small_entries)


@settings(max_examples=60)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_of_sparse_polynomial_matrices_against_sympy(rows):
    m = PolyMatrix(rows)
    want = sympy.expand(sympy_matrix(m).det(method="berkowitz"))
    assert sympy.expand(to_sympy(matrix_det(m)) - want) == 0


def checked_rank_kernel(m: PolyMatrix):
    """(rank, kernel) with every kernel vector multiplied back to zero."""
    rank, ker = matrix_rank_kernel(m)
    rows = m.constant_rows()
    for v in ker:
        assert all(type(x) is Fraction for x in v)
        assert all(sum(r[j] * v[j] for j in range(m.cols)) == 0
                   for r in rows)
    assert rank + len(ker) == m.cols
    return rank, ker


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(coeffs, min_size=n + 1, max_size=n + 1),
                       min_size=n, max_size=n)))
def test_rank_and_kernel_of_constant_matrices_against_sympy(rows):
    m = PolyMatrix(rows)
    rank, _ker = checked_rank_kernel(m)
    assert rank == sympy_matrix(m).rank()


def rational(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


sparse_systems = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.dictionaries(st.integers(0, n), coeffs, max_size=3),
             min_size=1, max_size=6)))


@given(sparse_systems)
def test_solve_sparse_against_sympy(system):
    """Row {col: coeff} means sum coeff * x_col + coeff[n] = 0.  With the
    free unknowns set to 0 the particular solution is sympy's, and the
    kernel basis is sympy's nullspace (a 1 in one free column)."""
    n, rows = system
    a = sympy.Matrix([[rational(r.get(j, 0)) for j in range(n)]
                      for r in rows])
    b = sympy.Matrix([-rational(r.get(n, 0)) for r in rows])
    got = solve_sparse(rows, n)
    try:
        sol, params = a.gauss_jordan_solve(b)
    except ValueError:  # sympy: the system is inconsistent
        assert got is None
        return
    part, ker = got
    assert [rational(x) for x in part] == \
        list(sol.subs({p: 0 for p in params}))
    assert [[rational(x) for x in v] for v in ker] == \
        [list(v) for v in a.nullspace()]


sparse_coeffs = st.one_of(st.just(0), coeffs)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(sparse_coeffs, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_invert_rational_against_sympy(rows):
    m = sympy.Matrix([[rational(x) for x in row] for row in rows])
    if m.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            invert_rational(rows)
        return
    inv = invert_rational(rows)
    assert all(type(x) is Fraction for row in inv for x in row)
    assert [[rational(x) for x in row] for row in inv] == m.inv().tolist()


def jacobian_point(seed: int, free=()):
    point = random_rational_point(list(K_SYMS) + [C_SYM], seed)
    for s in free:
        del point[s]
    return point


@pytest.mark.parametrize("seed", [3, 11, 29, 101])
def test_jacobian_rank_and_kernel_against_sympy(seed):
    j = _jmatrix_symbolic().subs(jacobian_point(seed))
    rank, ker = checked_rank_kernel(j)
    sj = sympy_matrix(j)
    assert rank == sj.rank() == 10
    # the two kernels span the same space
    theirs = [list(v) for v in sj.nullspace()]
    stacked = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                             for x in v] for v in ker] + theirs)
    assert stacked.rank() == len(ker) == len(theirs)
    assert matrix_det(j).is_zero() and sj.det() == 0


# the xy family of xy_specialised_jacobian: a20 = t xy, a02 = t' xy
XY_FAMILY = {**dict.fromkeys(A20_SYMS + A02_SYMS, Poly.zero()),
             A20_SYMS[1]: Poly.var(XY_PARAMS[0]),
             A02_SYMS[1]: Poly.var(XY_PARAMS[1])}
J_POINTS = ([jacobian_point(seed) for seed in range(20)]
            + [{**dict.fromkeys(K_SYMS, 0), C_SYM: Fraction(5, 7)},
               {s: k - 6 for k, s in enumerate(K_SYMS + (C_SYM,))},
               jacobian_point(7, ("c", "a20_1")), XY_FAMILY])


@pytest.mark.parametrize("point", J_POINTS)
def test_matrix_subs_matches_entrywise_subs(point):
    """PolyMatrix.subs is one Substitution.apply over all entries, which
    share the monomial values and powers it keeps.  Each entry must come
    out as a substitution into that entry alone gives it and as the
    term-by-term expansion gives it: in value, term order and
    coefficient types."""
    j = _jmatrix_symbolic()
    got = j.subs(point)
    want = [[e.subs(point) for e in row] for row in j.entries]
    ref = [[reference_subs(e, point) for e in row] for row in j.entries]
    assert got.entries == want == ref
    assert all(e.is_constant() for row in want for e in row) == \
        (len(point) == 13)

    def terms(m):
        return [[[(k, type(c)) for k, c in e.packed.items()] for e in row]
                for row in m]
    assert terms(got.entries) == terms(want) == terms(ref)


@pytest.mark.parametrize("seed,free", [(7, ("c", "a20_1")),
                                       (11, ("b_2", "a02_0"))])
def test_jacobian_minor_det_against_sympy(seed, free):
    """det J vanishes identically, so compare a 6 x 6 minor with two
    symbols left free instead."""
    j = _jmatrix_symbolic().subs(jacobian_point(seed, free))
    rng = random.Random(seed)
    rows = sorted(rng.sample(range(12), 6))
    cols = sorted(rng.sample(range(12), 6))
    minor = PolyMatrix([[j[r, c] for c in cols] for r in rows])
    want = sympy.expand(sympy_matrix(minor).det(method="berkowitz"))
    got = matrix_det(minor)
    assert not got.is_zero()
    assert sympy.expand(to_sympy(got) - want) == 0
