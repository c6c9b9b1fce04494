"""The bitmask exterior calculus against a textbook oracle on index tuples.

`FormExpr` stores each monomial as a bitmask and takes every sign from
the parity of a popcount against a precomputed mask.  The oracle here
does the same sums the schoolbook way: it merges strictly increasing
index tuples and counts the transpositions of the merge.  Both add the
same products in the same order, so on random forms of degree 0-4 over
the 13- and 17-generator coframes `wedge`, `contract` and `exterior_d`
must agree with it in every monomial, every coefficient and the order
of both.  The oracle adds rational Polys; `exterior_d` runs on integer
numerators and divides once, so it is also checked on rules and forms
with rational coefficients and on a rational curvature tuple.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from g12calc import excalc as ex  # noqa: E402
from g12calc.poly import Poly, _var_key  # noqa: E402

COFRAMES = {"h12": ex.Coframe(ex.COFRAME_NAMES),
            "g12": ex.Coframe(ex.COFRAME_NAMES),
            "torsion-s30": ex.Coframe(ex.COFRAME_NAMES + ex.DS30_NAMES)}


def merge(a: tuple, b: tuple):
    """(sign, merged) of the strictly increasing tuples a and b, or None
    when they share a generator."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i generators of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def add_term(out: dict, mono: tuple, p: Poly, negate: bool) -> None:
    """out[mono] += p (-= when `negate`) as a Poly sum; a cancelled
    monomial is dropped, so it comes back last."""
    s = out.get(mono, Poly.zero())
    s = s - p if negate else s + p
    if s.is_zero():
        out.pop(mono, None)
    else:
        out[mono] = s


def oracle_wedge(x: ex.FormExpr, y: ex.FormExpr) -> dict:
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            w = merge(m1, m2)
            if w is not None:
                add_term(out, w[1], c1 * c2, w[0] < 0)
    return out


def oracle_contract(x: ex.FormExpr, values: dict) -> dict:
    out = {}
    for mono, coeff in x.terms.items():
        for j, g in enumerate(mono):
            if g in values:
                add_term(out, mono[:j] + mono[j + 1:], coeff * values[g],
                         j % 2 == 1)
    return out


def oracle_d(x: ex.FormExpr, sys: ex.StructureSystem) -> dict:
    """d(coeff) ^ mono over the parameters in the canonical variable
    order, then sum_j (-1)^j e_{i1..} ^ d(e_ij) ^ e_{..ik}."""
    params = [(name, rule) for name, rule in sorted(
        sys.param_rules.items(), key=lambda kv: _var_key(kv[0]))
        if not rule.is_zero()]
    out = {}
    for mono, coeff in x.terms.items():
        for name, rule in params:
            if name not in coeff.vars:
                continue
            dpart = coeff.diff(name)
            for m, c in rule.terms.items():
                w = merge(m, mono)
                if w is not None:
                    add_term(out, w[1], c * dpart, w[0] < 0)
        for j, g in enumerate(mono):
            rule = sys.gen_rules.get(g)
            if rule is None:
                continue
            for m, c in rule.terms.items():
                w1 = merge(mono[:j], m)
                w2 = w1 and merge(w1[1], mono[j + 1:])
                if w2:
                    sign = w1[0] * w2[0] * (-1) ** j
                    add_term(out, w2[1], coeff * c, sign < 0)
    return out


def record(terms) -> list:
    """Monomials, coefficients and the order of both."""
    return [(mono, list(c.packed.items())) for mono, c in terms.items()]


# coefficients in the curvature parameters (and s30), so that the
# parameter part of exterior_d is exercised
PARAMS = ("a20_0", "a02_1", "b_2", "c", "s30_1")
monomials = st.lists(st.sampled_from(PARAMS), max_size=2).map(
    lambda names: Poly.const(1) if not names
    else Poly.var(names[0]) * (Poly.var(names[1]) if len(names) > 1 else 1))


def sums(scalars):
    """Sums of one or two scalar * monomial terms."""
    return st.lists(st.tuples(scalars, monomials), min_size=1,
                    max_size=2).map(
        lambda ts: sum((m * k for k, m in ts), Poly.zero()))


coeffs = sums(st.integers(-3, 3).filter(bool))
# denominators 2-9, so that exterior_d's E and D are not 1
rational_coeffs = sums(st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                 st.integers(2, 9)))


def forms(cf: ex.Coframe, degrees=range(5), coeffs=coeffs):
    """FormExprs on the coframe with monomials of the given degrees."""
    monos = st.sampled_from(list(degrees)).flatmap(
        lambda d: st.sets(st.integers(0, len(cf) - 1), min_size=d,
                          max_size=d)).map(lambda s: tuple(sorted(s)))
    return st.dictionaries(monos, coeffs, max_size=4).map(
        lambda terms: ex.FormExpr(cf, terms))


coframes = st.sampled_from([COFRAMES["g12"], COFRAMES["torsion-s30"]])


@settings(max_examples=60)
@given(coframes.flatmap(lambda cf: st.tuples(forms(cf), forms(cf))))
def test_wedge_matches_the_tuple_merge(pair):
    x, y = pair
    assert record(x.wedge(y).terms) == record(oracle_wedge(x, y))


@settings(max_examples=60)
@given(coframes.flatmap(
    lambda cf: st.tuples(forms(cf), st.dictionaries(
        st.integers(0, len(cf) - 1), coeffs, max_size=len(cf)))))
def test_contract_matches_the_tuple_merge(case):
    x, values = case
    assert (record(ex.contract(x, values).terms)
            == record(oracle_contract(x, values)))


def random_systems(cf: ex.Coframe, coeffs=coeffs):
    """StructureSystems with random 2-form rules on some generators and
    random 1-form rules on the parameters: the signs without the derived
    rules."""
    gen_rules = st.dictionaries(st.integers(0, len(cf) - 1),
                                forms(cf, (2,), coeffs), max_size=len(cf))
    param_rules = st.dictionaries(st.sampled_from(PARAMS),
                                  forms(cf, (1,), coeffs))
    return st.builds(lambda g, p: ex.StructureSystem("random", cf, g, p),
                     gen_rules, param_rules)


@settings(max_examples=40)
@given(coframes.flatmap(lambda cf: st.tuples(
    random_systems(cf, st.one_of(coeffs, rational_coeffs)),
    forms(cf, coeffs=st.one_of(coeffs, rational_coeffs)))))
def test_exterior_d_on_random_rules_matches_the_tuple_merge(case):
    sys, x = case
    assert record(ex.exterior_d(x, sys).terms) == record(oracle_d(x, sys))


@settings(max_examples=30)
@given(st.sampled_from(sorted(COFRAMES)).flatmap(
    lambda mode: st.tuples(st.just(mode), forms(COFRAMES[mode]))))
def test_exterior_d_matches_the_tuple_merge(case):
    mode, x = case
    sys = ex.build_system(mode)
    assert record(ex.exterior_d(x, sys).terms) == record(oracle_d(x, sys))


@pytest.mark.parametrize("mode", sorted(COFRAMES))
def test_exterior_d_of_every_rule_matches_the_tuple_merge(mode):
    """d of every generator and parameter rule (the d^2 residuals): every
    rule's sign mask, and the parameter part; at the displayed curvature
    tuple and at a rational one, whose residuals do not vanish."""
    for curvature in (None, (-4, Fraction(3, 7), 1, Fraction(3, 2),
                             Fraction(-61, 9))):
        sys = ex.build_system(mode, curvature)
        for rule in list(sys.gen_rules.values()) + list(
                sys.param_rules.values()):
            assert (record(ex.exterior_d(rule, sys).terms)
                    == record(oracle_d(rule, sys)))


@settings(max_examples=10)
@given(forms(COFRAMES["torsion-s30"], (2,)),
       forms(COFRAMES["torsion-s30"], (2,)))
def test_leibniz_on_two_forms_in_torsion_mode(a, b):
    sys = ex.build_system("torsion-s30")
    lhs = ex.exterior_d(a.wedge(b), sys)
    rhs = ex.exterior_d(a, sys).wedge(b) + a.wedge(ex.exterior_d(b, sys))
    assert (lhs - rhs).is_zero()
