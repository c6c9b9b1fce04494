"""`poly.dot` and `excalc.form_sum` against the hand-written sums they
replace: `Poly.zero() + p1 * q1 + ...` and
`FormExpr.zero(cf) + f1.scale(c1) + ...`, equal in value and in the
order of every monomial and term.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from g12calc.excalc import Coframe, FormExpr, form_sum  # noqa: E402
from g12calc.poly import Poly, dot  # noqa: E402

# few monomials and small coefficients, so that sums cancel often
NAMES = ("x1", "y1", "x2")
scalars = st.one_of(st.integers(-2, 2),
                    st.fractions(min_value=-2, max_value=2,
                                 max_denominator=3))
sparse_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * len(NAMES)), scalars, max_size=4).map(
        lambda terms: Poly(NAMES, terms))
factors = st.one_of(sparse_polys, scalars)

CF = Coframe(("e0", "e1", "e2", "e3"))
forms = st.dictionaries(st.sampled_from([(3,), (0, 1), (0, 2)]),
                        sparse_polys, max_size=3).map(
    lambda terms: FormExpr(CF, terms))


def poly_order(p: Poly) -> list:
    return [list(p.packed.items()), list(p.terms.items())]


def form_order(fe: FormExpr) -> list:
    return [(m, poly_order(c)) for m, c in fe.terms.items()]


def hand_dot(pairs) -> Poly:
    acc = Poly.zero()
    for p, q in pairs:
        acc = acc + p * q
    return acc


def hand_form_sum(terms) -> FormExpr:
    acc = FormExpr.zero(CF)
    for form, c in terms:
        acc = acc + form.scale(c)
    return acc


# each list is also summed with its own sum subtracted and then itself
# added again in reverse, so that every term cancels and comes back


@given(st.lists(st.tuples(factors, factors), max_size=6))
def test_dot_equals_the_hand_written_sum(pairs):
    for seq in (pairs, pairs + [(hand_dot(pairs), -1)] + pairs[::-1]):
        got, want = dot(seq), hand_dot(seq)
        assert got == want
        assert poly_order(got) == poly_order(want)


@given(st.lists(st.tuples(forms, factors), max_size=6))
def test_form_sum_equals_the_hand_written_sum(terms):
    for seq in (terms, terms + [(hand_form_sum(terms), -1)] + terms[::-1]):
        got, want = form_sum(CF, seq), hand_form_sum(seq)
        assert got == want
        assert form_order(got) == form_order(want)


def test_cancelled_terms_come_back_last():
    x, y, t = (Poly.var(v) for v in NAMES)
    pairs = [(x, 1), (y, t), (x, -1), (x, Fraction(2))]
    got = dot(pairs)
    assert got == y * t + 2 * x
    assert poly_order(got) == poly_order(hand_dot(pairs))
    assert list(got.terms) == [(0, 1, 1), (1, 0, 0)]
    e0, e1 = FormExpr.gen(CF, 0), FormExpr.gen(CF, 1)
    terms = [(e0, x), (e1, 1), (e0, -x), (e0, 2)]
    got = form_sum(CF, terms)
    assert list(got.terms) == [(1,), (0,)]
    assert form_order(got) == form_order(hand_form_sum(terms))


def test_zero_factors_are_skipped():
    x, y = Poly.var("x1"), Poly.var("y1")
    assert dot([]) == Poly.zero()
    assert dot([(Poly.zero(), x), (0, y), (x, Fraction(0))]).is_zero()
    assert dot([(0, x), (x, y), (y, Poly.zero())]) == x * y
    e0 = FormExpr.gen(CF, 0)
    assert form_sum(CF, []).is_zero()
    assert form_sum(CF, [(e0, 0), (e0, Poly.zero()),
                         (FormExpr.zero(CF), 3)]).is_zero()


@pytest.mark.parametrize("pair", [(Poly.var("x1"), 0.5), (0.5, 2),
                                  (0.0, Poly.var("x1")), ("1", 1)])
def test_dot_rejects_an_inexact_factor(pair):
    with pytest.raises(TypeError):
        dot([pair])


@pytest.mark.parametrize("c", [0.5, 0.0])
def test_form_sum_rejects_an_inexact_coefficient(c):
    with pytest.raises(TypeError):
        form_sum(CF, [(FormExpr.gen(CF, 0), c)])
