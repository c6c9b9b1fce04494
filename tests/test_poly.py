from fractions import Fraction

import pytest

from g12calc.linalg import PolyMatrix, _Lcg
from g12calc.poly import (ParseError, Poly, Substitution, add_product,
                          divexact, dot, from_packed, parse_poly, var_key)


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


def naive_subs(p: Poly, point: dict) -> Poly:
    """p at the point, term by term through Poly arithmetic: the oracle
    for values, not for term order."""
    total = Poly.zero()
    for e, c in p.terms.items():
        term = Poly.const(c)
        for v, k in zip(p.vars, e):
            term = term * (point[v] if v in point else Poly.var(v)) ** k
        total = total + term
    return total


def test_prepared_substitution_reused_across_polynomials():
    """A point prepared once and substituted into many polynomials in
    turn gives, for each, the packed dict (values and term order) that a
    fresh Substitution gives, and the value of a term-by-term oracle.
    Two prepared points are used alternately, so a monomial value kept
    by one and read by the other, or keyed on the wrong fields, shows."""
    points = [{"x1": Fraction(-3, 7), "t": 5, "y1": Poly.const(Fraction(2, 9)),
               "y2": parse_poly("x2 - 2*t"), "a": Fraction(0)},
              {"x1": Fraction(5, 4), "t": Fraction(-1, 3),
               "y1": parse_poly("a + 1"), "y2": Poly.const(7)}]
    prepared = [Substitution(pt) for pt in points]
    rng = _Lcg(23)
    names = ["x1", "y1", "x2", "y2", "t", "a"]
    polys = []
    for _ in range(30):
        total = Poly.zero()
        for _ in range(1 + rng.next_int(6)):
            mono = {v: rng.next_int(3) for v in names}
            total = total + Poly.monomial(
                mono, Fraction(rng.next_int(19) - 9, 1 + rng.next_int(4)))
        polys.append(total)
    for p in polys:
        for pt, sub in zip(points, prepared):
            got = p.subs(sub)
            assert list(got.packed.items()) == \
                list(p.subs(Substitution(pt)).packed.items())
            assert got == naive_subs(p, pt)
    # each prepared point kept one value per scalar monomial it met
    for sub in prepared:
        assert set(sub.monos) == {0} | {k & sub.smask for p in polys
                                        for k in p.packed}


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
    point = {"x1": Fraction(3), "y1": Fraction(1, 3)}
    assert p.subs(point).constant_value() == Fraction(-1)


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
    lambda: parse_poly("x1*y1 - 2").subs({"x1": Fraction(3), "y1": 0.5}),
    lambda: Poly.from_json({"vars": ["x1"],
                            "terms": [{"coeff": 0.5, "exps": [1]}]}),
    # a value is checked even where its variable does not occur
    lambda: Poly.var("x1").subs({"x1": 2, "y2": 0.5}),
    lambda: PolyMatrix([[Poly.var("x1")]]).subs({"y2": 0.5}),
])
def test_float_rejected_on_every_constructor_path(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: Poly.const(True),
    lambda: Poly.var("x1") * False,
    lambda: Poly(["x1"], {(1,): True}),
    lambda: Poly.var("x1").subs({"x1": True}),
    lambda: dot([(Poly.var("x1"), True)]),
])
def test_bool_is_not_an_exact_scalar(build):
    with pytest.raises(TypeError):
        build()


def test_scalar_accessors_return_fraction():
    assert type(Poly.const(3).constant_value()) is Fraction
    assert type(Poly.zero().constant_value()) is Fraction
    assert type((Poly.var("x1") * 2).subs({"x1": 3}).constant_value()) \
        is Fraction
    value = parse_poly("x1*y1 + 1").subs(
        {"x1": 2, "y1": Fraction(3)}).constant_value()
    assert type(value) is Fraction and value == 7
    assert type(Poly.zero().subs({}).constant_value()) is Fraction


@pytest.mark.parametrize("build", [
    lambda: Poly(("x1",), {(0, 7): 3}),
    lambda: Poly(("x1",), {(1, 2): 1}),
    lambda: Poly(("x1", "y1"), {(1,): 1}),
    lambda: Poly(("x1", "x1"), {(1, 1): 1}),
    lambda: Poly(("x1",), {(-1,): 1}),
    lambda: Poly(("x1",), {(1.0,): 1}),
    lambda: Poly(("x1",), {(True,): 1}),
    lambda: Poly(("x1",), {1: 1}),
    lambda: Poly.from_json({"vars": ["x"], "terms": [
        {"coeff": 3, "exps": [0]}, {"coeff": 2, "exps": [0]}]}),
    lambda: Poly.from_json({"vars": ["x"],
                            "terms": [{"coeff": 3, "exps": [0, 7]}]}),
])
def test_malformed_monomials_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_repeated_name_rejected_even_without_terms():
    with pytest.raises(ValueError):
        Poly(("x1", "x1"))


def test_exponent_overflow_raises_instead_of_wrapping():
    x, y = Poly.var("x1"), Poly.var("y1")
    top = Poly.var("x1", 127)
    assert (x ** 100) * (x ** 27) == top
    assert (top * y).terms == {(127, 1): 1}
    assert divexact(top * y, y) == top
    for build in (lambda: (x ** 100) * (x ** 28),
                  lambda: (x ** 200) * (x ** 200),
                  lambda: top * x,
                  lambda: x ** 128,
                  lambda: Poly.var("x1", 128),
                  lambda: (top * y).subs({"y1": x})):
        with pytest.raises(OverflowError):
            build()
    with pytest.raises(ParseError):
        parse_poly("x1^128")


def test_vars_and_terms_are_derived_read_only_views():
    p = parse_poly("c*x1 + 2*a*y2 - zz")
    assert p.vars == ("x1", "y2", "a", "c", "zz")
    assert p.terms == {(1, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0): 2,
                       (0, 0, 0, 0, 1): -1}
    with pytest.raises(AttributeError):
        p.vars = ("x1",)
    p.terms[(9, 9, 9, 9, 9)] = 1  # a copy: the polynomial is unchanged
    assert p == parse_poly("c*x1 + 2*a*y2 - zz")


def test_results_do_not_depend_on_interning_order():
    """A fresh process that interns names in reverse order first gives
    the same stripped reports and the same str/to_json output."""
    import json
    import os
    import subprocess
    import sys

    import g12calc
    script = """
import json, sys
if sys.argv[1] == "reverse":
    from g12calc.poly import Poly
    from g12calc.excalc import PARAM_SYMS
    for name in ("zz", "tp", "t") + PARAM_SYMS[::-1] + ("a",):
        Poly.var(name)
from g12calc.cli import SuiteConfig, run_suites, strip_timings
from g12calc.integrals import _jmatrix_symbolic
from g12calc.poly import parse_poly
report = strip_timings(run_suites(SuiteConfig(
    ["bianchi", "closure", "jmatrix"], seed=7)))
j = _jmatrix_symbolic()
p = parse_poly("a*zz - 3/2*c*x1^2*b_0 + a*y2 + t")
q = (p * p).subs({"zz": parse_poly("y1 - t"), "a": parse_poly("x1 + t")})
print(json.dumps([report, j.to_json(), [str(e) for row in j.entries
                                        for e in row]]
                 + [[str(r), r.to_json(),
                     [[list(e), str(c)] for e, c in r.terms.items()]]
                    for r in (p, q)]))
"""
    src = os.path.dirname(os.path.dirname(g12calc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = []
    for mode in ("plain", "reverse"):
        proc = subprocess.run([sys.executable, "-c", script, mode],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert json.loads(out[0])[0]["summary"]["fail"] == 0
    assert out[0] == out[1]


def _run_fresh(script, *args):
    """stdout of `script` run by a fresh interpreter on this checkout."""
    import os
    import subprocess
    import sys

    import g12calc
    src = os.path.dirname(os.path.dirname(g12calc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reverse_interning_really_reorders_the_curvature_names():
    """The "reverse" branch of the interning-order test above interns the
    curvature names before the declaration in `integrals` runs, so they
    get another index order than in a default process; otherwise that
    test would compare two identical registries and pass vacuously."""
    import json

    # the same preamble as test_results_do_not_depend_on_interning_order
    script = """
import json, sys
if sys.argv[1] == "reverse":
    from g12calc.poly import Poly
    from g12calc.excalc import PARAM_SYMS
    for name in ("zz", "tp", "t") + PARAM_SYMS[::-1] + ("a",):
        Poly.var(name)
import g12calc.cli  # imports integrals, which declares the prefix
from g12calc.excalc import PARAM_SYMS
from g12calc.poly import _INDEX
print(json.dumps(sorted(PARAM_SYMS + ("t", "tp"), key=_INDEX.__getitem__)))
"""
    from g12calc.excalc import PARAM_SYMS
    plain, reverse = (json.loads(_run_fresh(script, mode))
                      for mode in ("plain", "reverse"))
    assert plain == list(PARAM_SYMS + ("t", "tp"))
    assert reverse == ["tp", "t"] + list(PARAM_SYMS[::-1])


def test_declared_names_keep_keys_short_after_other_suites():
    """The spencer and torsion suites intern well over a hundred
    coordinate and unknown names; run first, they must not push the
    curvature ring or t, tp past the fields right after the form
    variables, and every key of J stays short."""
    import json

    script = """
import json
from g12calc.cli import SuiteConfig, run_suites
report = run_suites(SuiteConfig(["spencer", "torsion"], seed=7))
from g12calc import poly
from g12calc.excalc import PARAM_SYMS
from g12calc.integrals import XY_PARAMS, _jmatrix_symbolic
keys = [k for row in _jmatrix_symbolic().entries for e in row for k in e.packed]
n = len(poly._NAMES)  # where a name not yet interned would land
print(json.dumps({"fail": report["summary"]["fail"], "interned": n,
                  "top": max(poly._INDEX.get(v, n)
                             for v in PARAM_SYMS + XY_PARAMS),
                  "bits": max(k.bit_length() for k in keys)}))
"""
    out = json.loads(_run_fresh(script))
    assert out["fail"] == 0
    assert out["interned"] > 100
    assert out["top"] < 4 + 15
    assert out["bits"] < 200


# -- the in-place product loop ----------------------------------------------


def rand_half_poly(rng, nterms, maxdeg=2):
    """Up to `nterms` terms over x1, y1 with small integer and half-integer
    coefficients, so products share keys, cancel and sum to integers."""
    total = Poly.zero()
    for _ in range(nterms):
        coeff = Fraction(rng.next_int(5) - 2, 1 + rng.next_int(2))
        mono = {"x1": rng.next_int(maxdeg + 1), "y1": rng.next_int(maxdeg + 1)}
        total = total + Poly.monomial(mono, coeff)
    return total


def reference_product(p, q):
    """p * q by the textbook double loop: each key where it is first
    produced, zero sums dropped."""
    out = {}
    for k1, c1 in p.packed.items():
        for k2, c2 in q.packed.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return [(k, c) for k, c in out.items() if c]


def is_canonical(packed):
    return all(type(c) is int and c or type(c) is Fraction
               and c.denominator != 1 for c in packed.values())


def prefilled(rng, prod, negate):
    """An accumulator with keys of its own, int and Fraction values, and
    on some keys of `prod` a value that cancels the product's term, one
    that makes the sum integral, or a plain int."""
    acc = dict(rand_half_poly(rng, 3, maxdeg=4).packed)
    for k, c in prod.packed.items():
        r = rng.next_int(4)
        if r == 0:
            acc[k] = c if negate else -c
        elif r == 1 and type(c) is Fraction:
            acc[k] = Fraction(1, 2)
        elif r == 2:
            acc[k] = 1 + rng.next_int(3)
    assert is_canonical(acc)
    return acc


def test_add_product_equals_poly_add_of_the_product():
    rng = _Lcg(1414)
    shapes = ((1, 1), (1, 4), (4, 1), (3, 3), (4, 5), (0, 3), (3, 0))
    seen = {"cancel": 0, "integral": 0, "summed_zero": 0}
    for _ in range(40):
        pairs = [(rand_half_poly(rng, n, 1), rand_half_poly(rng, m, 1))
                 for n, m in shapes]
        # (a + b)(a - b): the cross terms sum to zero inside the product
        a, b = rand_half_poly(rng, 2, 1), rand_half_poly(rng, 2, 1)
        pairs.append((a + b, a - b))
        for p, q in pairs:
            prod = p * q
            assert list(prod.packed.items()) == reference_product(p, q)
            assert is_canonical(prod.packed)
            if len(reference_product(p, q)) < len(
                    {k1 + k2 for k1 in p.packed for k2 in q.packed}):
                seen["summed_zero"] += 1
            for negate in (False, True):
                acc = prefilled(rng, prod, negate)
                before = dict(acc)
                want = from_packed(before) + (-prod if negate else prod)
                add_product(acc, p, q, negate)
                assert list(acc.items()) == list(want.packed.items())
                assert is_canonical(acc)
                for k, c in before.items():
                    if k in prod.packed and k not in acc:
                        seen["cancel"] += 1
                    elif type(c) is Fraction and type(acc.get(k)) is int:
                        seen["integral"] += 1
    assert min(seen.values()) > 10, seen


def test_add_product_term_order_rules():
    x, y = Poly.var("x1"), Poly.var("y1")
    kx, ky = var_key("x1"), var_key("y1")
    kxy = kx + ky
    # a cancelled key is deleted, so it comes back last
    acc = {kx: 1, ky: Fraction(1, 2)}
    add_product(acc, x, Poly.const(1), negate=True)
    assert acc == {ky: Fraction(1, 2)}
    add_product(acc, x, Poly.const(3))
    assert list(acc.items()) == [(ky, Fraction(1, 2)), (kx, 3)]
    # a Fraction sum that comes out integral is stored as int
    add_product(acc, y, Poly.const(Fraction(3, 2)))
    assert list(acc.items()) == [(ky, 2), (kx, 3)]
    assert type(acc[ky]) is int
    # an n x m product is summed first: its zero xy term leaves acc[xy]
    # in place, where adding -xy and then +xy one by one would move it
    acc = {kxy: 1}
    add_product(acc, x + y, x - y)
    assert list(acc.items()) == [(kxy, 1), (2 * kx, 1), (2 * ky, -1)]
    # a product with a zero factor changes nothing
    add_product(acc, Poly.zero(), x + y)
    add_product(acc, x + y, Poly.zero())
    assert list(acc.items()) == [(kxy, 1), (2 * kx, 1), (2 * ky, -1)]


def test_add_product_overflow_leaves_the_accumulator_unchanged():
    x, y = Poly.var("x1"), Poly.var("y1")
    top = Poly.var("x1", 127)
    # the overflowing product comes after ones that fit
    for p, q in ((x ** 100, x ** 28), (x, 1 + y + top),
                 (y + x, top * y + 1), (x ** 100 + y, x ** 28 + 1)):
        acc = {0: 5, var_key("y1"): Fraction(1, 3)}
        before = list(acc.items())
        with pytest.raises(OverflowError):
            add_product(acc, p, q)
        assert list(acc.items()) == before

