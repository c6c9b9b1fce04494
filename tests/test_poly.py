from fractions import Fraction

import pytest

from g12calc.linalg import _Lcg
from g12calc.poly import ParseError, Poly, divexact, parse_poly


def rand_poly(rng, nvars=3, nterms=4, maxdeg=3):
    names = ["x1", "y1", "t"][:nvars]
    total = Poly.zero()
    for _ in range(nterms):
        coeff = Fraction(rng.next_int(19) - 9)
        mono = {v: rng.next_int(maxdeg + 1) for v in names}
        total = total + Poly.monomial(mono, coeff)
    return total


def test_difference_of_squares():
    x, y = Poly.var("x1"), Poly.var("y1")
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_mul_by_zero_annihilates():
    p = parse_poly("3*x1^2 - y1")
    assert (p * 0).is_zero()
    assert (p * Poly.zero()).is_zero()


def test_rational_coefficient_product():
    p = Poly.var("x1", 1, Fraction(1, 2))
    q = Poly.var("x1", 1, Fraction(2, 3))
    assert p * q == Poly.var("x1", 2, Fraction(1, 3))


def test_ring_axioms_on_random_polys():
    rng = _Lcg(2024)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_diff_power_rule():
    x = Poly.var("x1")
    assert (x ** 3).diff("x1", 2) == 6 * x
    assert parse_poly("x1^2*y1").diff("y1") == parse_poly("x1^2")


def test_diff_vanishes_beyond_degree():
    p = parse_poly("x1^3*y1 - 2*x1")
    assert p.diff("x1", 4).is_zero()
    assert p.diff("y1", 2).is_zero()


def test_subs_numeric():
    p = parse_poly("x1^2 + y1^2")
    assert p.subs({"x1": 1, "y1": 2}) == Poly.const(5)


def test_subs_homogeneity():
    p = parse_poly("x1^3 - 2*x1*y1^2 + y1^3")
    lam = Poly.var("lam")
    scaled = p.subs({"x1": lam * Poly.var("x1"), "y1": lam * Poly.var("y1")})
    assert scaled == lam ** 3 * p


def test_subs_respects_products():
    rng = _Lcg(7)
    sub = {"x1": parse_poly("y1 - 1"), "y1": parse_poly("2*x1 + t")}
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        assert (p * q).subs(sub) == p.subs(sub) * q.subs(sub)


def test_divexact_roundtrip_and_failure():
    p = parse_poly("x1 + 2*y1")
    q = parse_poly("x1^2 - y1 + 3")
    assert divexact(p * q, q) == p
    with pytest.raises(ValueError):
        divexact(parse_poly("x1^2 + 1"), parse_poly("x1 + y1"))


def test_json_roundtrip_sorted():
    p = parse_poly("3/2*x1^2*y1 - x2*y2 + 7")
    data = p.to_json()
    assert data["terms"] == sorted(data["terms"], key=lambda t: t["exps"])
    assert Poly.from_json(data) == p
    # an int coefficient is as exact as its "p/q" string
    assert Poly.from_json({"vars": ["x1"], "terms": [{"coeff": 3, "exps": [1]}]}
                          ) == Poly.var("x1", 1, 3)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_poly("x1 + ")
    with pytest.raises(ParseError):
        parse_poly("(x1 + y1")


def test_minimal_variable_context():
    p = parse_poly("x1 + y1") - parse_poly("y1")
    assert p.vars == ("x1",)
    assert p == Poly.var("x1")


def test_eval_full_point():
    p = parse_poly("x1*y1 - 2")
    assert p.eval({"x1": Fraction(3), "y1": Fraction(1, 3)}) == Fraction(-1)


def test_coefficients_in_collects_remaining_vars():
    p = parse_poly("a*x1^2 + b*x1^2 + a*y1")
    parts = p.coefficients_in(("x1", "y1"))
    assert parts[(2, 0)] == parse_poly("a + b")
    assert parts[(0, 1)] == Poly.var("a")


def test_integral_coefficients_stored_as_int():
    p = parse_poly("3/2*x1 + 4/2*y1") * 2
    assert all(type(c) is int for c in p.terms.values())
    half = Poly.var("x1", 1, Fraction(1, 2))
    assert type(half.terms[(1,)]) is Fraction
    assert type((half * 2).terms[(1,)]) is int
    assert type(divexact(parse_poly("2*x1^2 + 4*x1"),
                         parse_poly("2*x1")).terms[(0,)]) is int


@pytest.mark.parametrize("build", [
    lambda: Poly.const(0.5),
    lambda: Poly.const(0.0),
    lambda: Poly(("x1",), {(1,): 2.0}),
    lambda: Poly(("x1",), {(1,): 0.0}),
    lambda: Poly.var("x1", 1, 1.5),
    lambda: Poly.monomial({"x1": 2}, 3.0),
    lambda: Poly.var("x1") + 0.5,
    lambda: Poly.var("x1") - 0.5,
    lambda: Poly.var("x1") * 2.0,
    lambda: 2.0 * Poly.var("x1"),
    lambda: Poly.var("x1") / 2.0,
    lambda: -Poly.var("x1") + 1.0,
    lambda: Poly.var("x1").subs({"x1": 0.5}),
    lambda: parse_poly("x1*y1").subs({"x1": 0.5, "y1": Poly.var("t")}),
    lambda: Poly.var("x1").eval({"x1": 0.5}),
    lambda: Poly.from_json({"vars": ["x1"],
                            "terms": [{"coeff": 0.5, "exps": [1]}]}),
])
def test_float_rejected_on_every_constructor_path(build):
    with pytest.raises(TypeError):
        build()


def test_scalar_accessors_return_fraction():
    assert type(Poly.const(3).constant_value()) is Fraction
    assert type(Poly.zero().constant_value()) is Fraction
    assert type((Poly.var("x1") * 2).subs({"x1": 3}).constant_value()) \
        is Fraction
    value = parse_poly("x1*y1 + 1").eval({"x1": 2, "y1": Fraction(3)})
    assert type(value) is Fraction and value == 7
    assert type(Poly.zero().eval({})) is Fraction
