import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, perm

import pytest

from g12calc.binforms import (BiForm, DegreeError, LieElt, Rep,
                              _slot_constant, _slot_table, basis,
                              basis_monomial, basis_weights, clebsch_gordan,
                              clebsch_gordan2, dim_v, divides, double_bracket,
                              equivariance_check, eta_map, from_coords,
                              generator_action, g1k_matrices,
                              gradient_form, iota_map,
                              isotypic_decompose, pairing_table,
                              random_biform, seq_maps, slot2_form, symbolic,
                              transvectant, transvectant2,
                              transvectant2_omega, vprime_split)
from g12calc.integrals import CurvaturePoint
from g12calc.linalg import _Lcg
from g12calc.poly import _INDEX, Poly, form_key, parse_poly, split_form
from g12calc.spencer import PhiCoords, TorsionCoords


BLOCK_CLASSES = [PhiCoords, TorsionCoords, CurvaturePoint, LieElt]


@pytest.mark.parametrize("cls", BLOCK_CLASSES, ids=lambda cls: cls.__name__)
def test_block_coords_roundtrip(cls):
    syms = cls.symbols()
    vec = [Fraction(2 * k - len(syms), 3) for k in range(len(syms))]
    pt = cls.from_vector(vec)
    assert [p.constant_value() for p in pt.vector()] == vec
    by_name = cls(**{name: getattr(pt, name) for name, _ in cls.SHAPE})
    assert by_name.vector() == pt.vector()
    assert cls.symbolic().vector() == [Poly.var(s) for s in syms]
    assert all(p.is_zero() for p in cls.zero().vector())
    assert [pt.assignment()[s] for s in syms] == pt.vector()
    with pytest.raises(TypeError):
        cls(*pt.blocks()[:-1])
    with pytest.raises(TypeError):
        cls(*pt.blocks(), **{cls.SHAPE[0][0]: pt.blocks()[0]})


@pytest.mark.parametrize("cls", BLOCK_CLASSES, ids=lambda cls: cls.__name__)
def test_block_coords_reject_a_vector_of_the_wrong_length(cls):
    size = len(cls.symbols())
    for wrong in (size - 1, size + 1):
        with pytest.raises(ValueError, match=f"^{wrong} coordinates for"):
            cls.from_vector([1] * wrong)


def test_from_coords_rejects_the_wrong_number_of_coefficients():
    # one coefficient short used to be padded with zero
    for n, m, count in ((1, 2, 5), (1, 2, 7), (0, 0, 0), (2, 1, 1)):
        with pytest.raises(ValueError, match="coordinates"):
            from_coords(n, m, [1] * count)
    assert from_coords(1, 2, [1] * 6) == BiForm(1, 2, sum(
        (b.poly for b in basis(1, 2)), Poly.zero()))


def _refusal(name, n, m):
    return rf"^{name} must lie in V_\{{{n},{m}\}}$"


@pytest.mark.parametrize("cls", BLOCK_CLASSES, ids=lambda cls: cls.__name__)
def test_block_coords_enforce_shape(cls):
    # every block is checked against its SHAPE entry: a nonzero form of
    # another bidegree is refused and named, a zero one is stored at the
    # declared bidegree, so vector() always has len(symbols()) entries
    good = cls.symbolic().blocks()
    for at, (name, (n, m)) in enumerate(cls.SHAPE):
        for wrong in ((n + 1, m), (n, m + 1)):
            blocks = list(good)
            blocks[at] = symbolic(*wrong, "w")
            with pytest.raises(DegreeError, match=_refusal(name, n, m)):
                cls(*blocks)
            blocks[at] = BiForm(*wrong, Poly.zero())
            pt = cls(*blocks)
            assert getattr(pt, name).bidegree == (n, m)
            assert len(pt.vector()) == len(cls.symbols())
            assert pt.vector()[slice(*cls.offsets()[name])] == (
                [Poly.zero()] * dim_v(n, m))
    # one V_{1,2} form for every block (ten for TorsionCoords) is refused
    # at the first block declared elsewhere: s14 for TorsionCoords
    name, (n, m) = next(entry for entry in cls.SHAPE if entry[1] != (1, 2))
    with pytest.raises(DegreeError, match=_refusal(name, n, m)):
        cls(*[bform(1, 2, "x1*x2^2")] * len(cls.SHAPE))
    zeros = [BiForm(1, 2, Poly.zero())] * len(cls.SHAPE)
    assert len(cls(*zeros).vector()) == len(cls.symbols())


def bform(n, m, text):
    return BiForm(n, m, parse_poly(text))


def test_bihomogeneity_checked():
    with pytest.raises(DegreeError):
        BiForm(2, 0, parse_poly("x1^2 + x1"))
    BiForm(2, 0, parse_poly("t*x1^2 + x1*y1"))  # parameters allowed


def test_bihomogeneity_check_reads_form_exponents_only():
    # parameter coefficients, including parameters of high degree
    BiForm(1, 2, parse_poly("a*x1*x2^2 + b^3*y1*x2*y2 - a*b*x1*y2^2"))
    BiForm(0, 0, parse_poly("t^2 + s"))
    # form variables absent from the polynomial read as exponent 0
    BiForm(2, 2, parse_poly("x1^2*x2^2"))
    BiForm(2, 2, parse_poly("t*y1^2*y2^2"))
    BiForm(1, 0, parse_poly("u*y1"))
    for n, m, text in ((1, 2, "t*x1*x2^2 + s*x1^2*x2"),
                       (1, 2, "t*x1*x2^2 + s^2*x1*x2"),
                       (0, 0, "t*x1"), (2, 2, "x1^2*x2^2 + y1*y2^2")):
        poly = parse_poly(text)
        with pytest.raises(DegreeError, match=(
                rf"^polynomial is not bihomogeneous of bidegree "
                rf"\({n}, {m}\): ")):
            BiForm(n, m, poly)


def test_zeroth_transvectant_is_product():
    u = bform(2, 0, "x1^2 - y1^2")
    v = bform(3, 0, "x1^2*y1")
    assert (transvectant(u, v, 0).poly - u.poly * v.poly).is_zero()


def test_first_transvectant_is_jacobian():
    # frozen sign convention: <u,v>_1 = u_x v_y - u_y v_x
    u = bform(2, 0, "x1^2")
    v = bform(2, 0, "y1^2")
    assert transvectant(u, v, 1).poly == parse_poly("4*x1*y1")
    assert transvectant(u, v, 2).poly == Poly.const(2)


def test_odd_self_pairing_vanishes():
    rng = _Lcg(11)
    for _ in range(5):
        u = random_biform(3, 0, rng)
        assert transvectant(u, u, 1).is_zero()
        assert transvectant(u, u, 3).is_zero()


def test_symmetry_sign():
    rng = _Lcg(12)
    u = random_biform(2, 2, rng)
    v = random_biform(2, 2, rng)
    for p1 in range(3):
        for p2 in range(3):
            lhs = transvectant2(u, v, p1, p2)
            rhs = transvectant2(v, u, p1, p2)
            sign = -1 if (p1 + p2) % 2 else 1
            assert (lhs - sign * rhs).is_zero()


def test_slotwise_factorization_on_pure_tensors():
    a = bform(1, 2, "x1*x2^2")
    b = bform(1, 2, "y1*y2^2")
    assert transvectant2(a, b, 1, 2).poly == Poly.const(2)
    assert (transvectant2(a, b, 0, 0).poly - a.poly * b.poly).is_zero()


def test_omega_process_oracle_agreement():
    rng = _Lcg(123)
    cases = [(2, 0, 2, 0, 1, 0), (2, 0, 2, 0, 2, 0), (1, 2, 1, 2, 1, 1),
             (3, 2, 1, 2, 1, 2), (2, 4, 2, 4, 2, 4), (1, 2, 3, 0, 1, 0)]
    for (n1, m1, n2, m2, p1, p2) in cases:
        u = random_biform(n1, m1, rng)
        v = random_biform(n2, m2, rng)
        got = transvectant2(u, v, p1, p2)
        want = transvectant2_omega(u, v, p1, p2)
        assert (got - want).is_zero()
    # operands whose variable sets differ: parameter names disjoint or
    # shared, form variables missing on one or both sides, a zero operand
    # on either side, and orders (0, 0)
    zero22 = BiForm(2, 2, Poly.zero())
    pairs = [(symbolic(1, 2, "a"), symbolic(2, 2, "b"), 1, 1),
             (symbolic(2, 2, "a"), symbolic(2, 1, "a"), 2, 1),
             (bform(2, 2, "a_0*x1^2*x2^2 - 3*x1*y1*y2^2"),
              symbolic(2, 2, "a"), 1, 2),
             (bform(2, 2, "x1^2*x2^2"),
              bform(3, 2, "y1^3*y2^2 - 2*t*x1*y1^2*x2*y2"), 2, 2),
             (bform(2, 2, "x1^2*x2^2"), bform(1, 1, "t*x1*x2"), 1, 0),
             (bform(2, 0, "x1^2"), bform(0, 2, "t*y2^2"), 0, 0),
             (zero22, symbolic(2, 2, "a"), 1, 1),
             (symbolic(1, 2, "a"), zero22, 1, 2),
             (symbolic(1, 2, "a"), symbolic(1, 2, "b"), 0, 0),
             (symbolic(1, 2, "a"), symbolic(1, 2, "a"), 0, 0)]
    for u, v, p1, p2 in pairs:
        got = transvectant2(u, v, p1, p2)
        want = transvectant2_omega(u, v, p1, p2)
        assert got == want and got.bidegree == want.bidegree


def test_pairing_range_errors():
    u = bform(1, 0, "x1")
    with pytest.raises(DegreeError):
        transvectant(u, u, 2)
    with pytest.raises(DegreeError):
        transvectant2(u, u, 0, 1)


def test_transvectant2_orders_out_of_range():
    # the same DegreeError as pairing_table, raised by transvectant2
    # itself and by the Omega oracle: a negative order, or one above the
    # smaller degree of its slot, whichever operand holds that degree
    for b1, b2, p1, p2 in (((2, 3), (3, 1), -1, 0),
                           ((2, 3), (3, 1), 0, -1),
                           ((2, 3), (3, 1), 3, 0),
                           ((3, 1), (2, 3), 3, 0),
                           ((2, 3), (3, 1), 0, 2),
                           ((3, 1), (2, 3), 0, 2)):
        u = symbolic(*b1, "u")
        v = symbolic(*b2, "v")
        want = (f"pairing orders ({p1},{p2}) out of range for bidegrees "
                f"{b1} x {b2}")
        for call in (lambda: transvectant2(u, v, p1, p2),
                     lambda: transvectant2_omega(u, v, p1, p2),
                     lambda: pairing_table(*b1, *b2, p1, p2)):
            with pytest.raises(DegreeError) as err:
                call()
            assert str(err.value) == want


# (bidegree of u, bidegree of v, orders): the pairing stream's mix
PIN_SHAPES = (((1, 2), (1, 2), ((1, 1), (1, 2), (0, 2), (1, 0))),
              ((2, 2), (1, 2), ((1, 1), (1, 2), (0, 1))),
              ((2, 2), (2, 2), ((1, 1), (2, 2), (2, 0))),
              ((3, 2), (2, 3), ((1, 1), (2, 2), (2, 1))),
              ((3, 3), (3, 3), ((1, 1), (3, 3), (2, 1))),
              ((4, 4), (4, 4), ((1, 1), (2, 2), (4, 4))))
PIN_DIGEST = ("d52af9e371d45a77f17d467c93bbb494"
              "c349e968ebb60cb4047652876ea09de5")


def _pin_operand(n, m, kind, prefix, rng):
    """A seeded form: integer, rational (denominators up to 12, so
    coprime ones meet) or symbolic (prefix_k times a rational)."""
    coeffs = []
    for k in range(dim_v(n, m)):
        q = Fraction(rng.randint(-12, 12),
                     1 if kind == "int" else rng.randint(1, 12))
        coeffs.append(Poly.var(f"{prefix}_{k}") * q if kind == "sym" else q)
    return from_coords(n, m, coeffs)


def test_transvectant2_output_pinned():
    # keys in their order, values and value types of every output; a key
    # is written as its exponents over the named variables, so the digest
    # does not depend on the order in which the process interned them
    rng = random.Random("transvectant2-pin")
    record = []
    for b1, b2, orders in PIN_SHAPES:
        for p1, p2 in orders:
            for kinds in product(("int", "frac", "sym"), repeat=2):
                u = _pin_operand(*b1, kinds[0], "pin_u", rng)
                v = _pin_operand(*b2, kinds[1], "pin_v", rng)
                w = transvectant2(u, v, p1, p2)
                record.append([list(w.bidegree), list(w.poly.vars),
                               [[list(e), str(c), type(c).__name__]
                                for e, c in w.poly.terms.items()]])
    text = json.dumps(record, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PIN_DIGEST


def _fraction_contraction(u, v, p1, p2):
    """The textbook contraction over pairing_table on Fraction values:
    ({key: sum} with zero sums kept, [(key, canonical value)] without
    them), keys in the order u's terms, then v's, first reach them."""
    table = pairing_table(u.n, u.m, v.n, v.m, p1, p2)
    tn, tm = u.n + v.n - 2 * p1, u.m + v.m - 2 * p2
    sums = {}
    for ka, ca in u.poly.packed.items():
        (_x, ia, _x, ja), pa = split_form(ka)
        for kb, cb in v.poly.packed.items():
            (_x, ib, _x, jb), pb = split_form(kb)
            hit = table.get((ia * (u.m + 1) + ja, ib * (v.m + 1) + jb))
            if hit is not None:
                i, j = divmod(hit[0], tm + 1)
                e = form_key(tn - i, i, tm - j, j) + pa + pb
                sums[e] = sums.get(e, Fraction(0)) + Fraction(ca) * cb * hit[1]
    terms = [(e, c.numerator if c.denominator == 1 else c)
             for e, c in sums.items() if c]
    return sums, terms


def test_transvectant2_integer_numerators():
    def coords(n, m, *values):
        return from_coords(n, m, [Fraction(*v) if isinstance(v, tuple) else v
                                  for v in values])

    a = Poly.var("a")
    zero22 = BiForm(2, 2, Poly.zero())
    cases = {
        # int and Fraction coefficients, coprime denominators on each side
        "mixed": (coords(1, 2, 3, (1, 3), -2, (2, 5), 0, (-7, 11)),
                  coords(1, 2, (5, 7), 1, (-3, 13), 4, (1, 2), -6), 1, 1),
        "mixed-symbolic": (
            from_coords(2, 1, [a * Fraction(1, 3), 2, Fraction(-4, 7),
                               a + 1, 0, Fraction(5, 9)]),
            coords(1, 2, (5, 7), 1, (-3, 13), 4, (1, 2), -6), 1, 1),
        # the x2 y2 sum is 1/2 * 1/3 - 1/3 * 1/2: dropped, not stored as 0
        "cancelling": (coords(1, 1, (1, 2), (1, 5), 0, (1, 3)),
                       coords(1, 1, (1, 2), (1, 7), 0, (1, 3)), 1, 0),
        # 3/2 * 2/3 * 2 - 3/4 * 2/3 * 2 = 1: stored as the int 1
        "integral": (coords(1, 2, (3, 2), 0, 0, 0, 0, (3, 4)),
                     coords(1, 2, (2, 3), 0, 0, 0, 0, (2, 3)), 1, 2),
        "zero-left": (zero22, coords(2, 2, *[(k, 3) for k in range(9)]), 1, 1),
        "zero-right": (coords(2, 2, *[(k, 7) for k in range(9)]), zero22,
                       2, 0),
    }
    for name, (u, v, p1, p2) in cases.items():
        got = transvectant2(u, v, p1, p2)
        sums, want = _fraction_contraction(u, v, p1, p2)
        assert got == transvectant2_omega(u, v, p1, p2), name
        assert [(k, c, type(c)) for k, c in got.poly.packed.items()] == [
            (k, c, type(c)) for k, c in want], name
        assert 0 not in got.poly.packed.values(), name
        if name == "cancelling":
            assert 0 in sums.values() and got.poly.packed
        if name == "integral":
            assert got.poly.packed == {0: 1}
            assert type(got.poly.packed[0]) is int
        if name.startswith("zero"):
            assert got.is_zero() and got.bidegree == (
                u.n + v.n - 2 * p1, u.m + v.m - 2 * p2)


def test_generator_actions_on_weight_vectors():
    yn = bform(4, 0, "y1^4")
    assert generator_action("e1", yn).poly == parse_poly("4*x1*y1^3")
    assert generator_action("e1", bform(4, 0, "x1^4")).is_zero()
    hm = generator_action("h1", bform(3, 0, "x1^2*y1"))
    assert hm.poly == parse_poly("x1^2*y1")


def test_action_matches_group_flow_to_first_order():
    # e acting on slot 1 is the derivative of p(x, y + t x) at t = 0
    rng = _Lcg(40)
    t = Poly.var("t")
    for _ in range(5):
        p = random_biform(3, 2, rng)
        flowed = p.poly.subs({"y1": Poly.var("y1") + t * Poly.var("x1")})
        first_order = flowed.diff("t").subs({"t": 0})
        assert (generator_action("e1", p).poly - first_order).is_zero()
        flowed2 = p.poly.subs({"x2": Poly.var("x2") + t * Poly.var("y2")})
        first2 = flowed2.diff("t").subs({"t": 0})
        assert (generator_action("f2", p).poly - first2).is_zero()


def test_equivariance_and_mutation():
    assert equivariance_check(1, 1, (1, 2), (1, 2), trials=4, seed=3)["ok"]
    assert equivariance_check(0, 0, (1, 2), (1, 2), trials=3, seed=3)["ok"]
    assert not equivariance_check(1, 1, (1, 2), (1, 2), trials=3, seed=3,
                                  mutate=True)["ok"]


def test_equivariance_every_order_in_range():
    for p1 in range(2):
        for p2 in range(3):
            rep = equivariance_check(p1, p2, (1, 2), (1, 2),
                                     trials=2, seed=p1 * 3 + p2)
            assert rep["ok"], (p1, p2)


def test_double_bracket_scalar_part():
    q = bform(1, 2, "x1*x2*y2 - y1*y2^2")
    w = LieElt.from_vector([Fraction(1)] + [Fraction(0)] * 6)
    assert (double_bracket(w, q, 1).poly - q.poly).is_zero()
    assert (double_bracket(w, q, -2).poly + 2 * q.poly).is_zero()


def test_double_bracket_single_summand():
    q = bform(1, 2, "x1*x2^2")
    w = LieElt.from_vector([0, 1, 0, 0, 0, 0, 0])
    lhs = double_bracket(w, q, 1)
    rhs = transvectant2(bform(2, 0, "x1^2"), q, 1, 0)
    assert (lhs - rhs).is_zero()


def test_lie_elt_trace_convention():
    # the action matrix has trace 6 p00; the sl-parts are trace free
    for k, mat in enumerate(g1k_matrices(2)):
        assert sum(mat[i][i] for i in range(6)) == (6 if k == 0 else 0)


def test_isotypic_small_products():
    r = Rep.space(1, 0).tensor(Rep.space(2, 0))
    assert isotypic_decompose(r) == {(3, 0): 1, (1, 0): 1}
    rr = Rep.space(1, 2).tensor(Rep.space(1, 2))
    dec = isotypic_decompose(rr)
    assert dec == clebsch_gordan2((1, 2), (1, 2))
    assert sum(m * dim_v(*k) for k, m in dec.items()) == 36


def test_clebsch_gordan_exhaustive_small_range():
    for n in range(5):
        for m in range(5):
            got = isotypic_decompose(
                Rep.space(n, 0).tensor(Rep.space(m, 0)))
            assert got == clebsch_gordan(n, m)
            total = sum(mult * dim_v(*k) for k, mult in got.items())
            assert total == (n + 1) * (m + 1)


def test_exact_sequence_maps():
    for k in range(1, 5):
        iota, pr, eta = seq_maps(k)
        for u in basis(0, k - 1):
            assert pr(iota(u)).is_zero()
        for u in basis(0, k + 1):
            assert (pr(eta(u)) - u).is_zero()


def test_gradient_form_is_eta_times_k_plus_one():
    u = slot2_form(parse_poly("x2^3 - 2*x2*y2^2"), 3)
    assert gradient_form(u).poly == parse_poly(
        "3*x1*x2^2 - 2*x1*y2^2 - 4*y1*x2*y2")
    for k in range(1, 4):
        for u in basis(0, k + 1):
            assert gradient_form(u) == eta_map(u, k) * (k + 1)
    with pytest.raises(DegreeError):
        gradient_form(basis(1, 2)[0])
    with pytest.raises(DegreeError):
        gradient_form(BiForm(0, 0, Poly.const(1)))


def test_iota_explicit_value():
    w = iota_map(slot2_form(parse_poly("x2"), 1), 2)
    assert w.poly == parse_poly("x1*x2*y2 - y1*x2^2")


def test_sequence_exactness_rank_bookkeeping():
    # 0 -> V_{k-1} -> V_{1,k} -> V_{k+1} -> 0: injective, surjective, and
    # rank(iota) + rank(pr) = dim V_{1,k} for k = 1..4
    from g12calc.linalg import rank

    def rank_of(cols):
        return rank([[c.constant_value() for c in row] for row in zip(*cols)])

    for k in range(1, 5):
        iota, pr, _eta = seq_maps(k)
        ri = rank_of([iota(u).coords() for u in basis(0, k - 1)])
        rp = rank_of([pr(v).coords() for v in basis(1, k)])
        assert ri == k                 # injective
        assert rp == k + 2             # surjective
        assert ri + rp == dim_v(1, k)  # image of iota = kernel of pr


def test_vprime_split_dims():
    _vp, _vs, dims, direct = vprime_split(2)
    assert dims == (4, 2) and direct
    _vp1, _vs1, dims1, direct1 = vprime_split(1)
    assert dims1 == (3, 1) and direct1


def test_divides():
    assert divides(bform(0, 1, "y2"), bform(1, 2, "x1*y2^2"))
    assert not divides(bform(0, 1, "x2"), bform(1, 2, "x1*y2^2"))
    with pytest.raises(ValueError):
        divides(BiForm(0, 1, Poly.zero()), bform(1, 2, "x1*y2^2"))


def test_divides_closure_under_iota():
    # if r divides w then r divides iota(w)
    rng = _Lcg(60)
    r = bform(0, 1, "2*x2 - 3*y2")
    for k in (2, 3):
        for _ in range(3):
            u = random_biform(0, k - 2, rng)
            w = BiForm(0, k - 1, r.poly * u.poly)
            assert divides(r, iota_map(w, k))


def test_weight_labels():
    weights = basis_weights(1, 2)
    assert weights == [(1, 2), (1, 0), (1, -2), (-1, 2), (-1, 0), (-1, -2)]


def test_symbolic_roundtrip():
    s = symbolic(3, 2, "q")
    assert [str(c) for c in s.coords()] == [f"q_{k}" for k in range(12)]
    assert (from_coords(3, 2, s.coords()) - s).is_zero()


def test_basis_pairing_table_against_oracle():
    # regenerate the structure constants on basis monomials and match the
    # independent doubled-variable implementation entry by entry
    for orders in ((1, 2), (0, 1), (1, 0)):
        for u in basis(1, 2):
            for v in basis(1, 2):
                got = transvectant2(u, v, *orders)
                want = transvectant2_omega(u, v, *orders)
                assert (got - want).is_zero()
    # every pairing_table entry up to (3,3) x (3,3), at every order in
    # range, against the independent doubled-variable implementation.  In
    # u = sum_i s^i e_i and v = sum_j t^j e_j the coefficient of s^i t^j
    # of the oracle's <u, v> is its pairing of basis monomials i and j: it
    # must be the table's single monomial, and zero for an omitted pair.
    for u, v, p1, p2 in _tagged_cases():
        assert (transvectant2_omega(u, v, p1, p2).poly.coefficients_in(
            ("s", "t")) == _table_coefficients(u, v, p1, p2))


def _tagged(n, m, tag):
    """sum_k tag^k e_k: the coefficient of tag^k is basis element k."""
    return from_coords(n, m, [Poly.var(tag, k) for k in range(dim_v(n, m))])


def _tagged_cases(shapes=None):
    """(u, v, p1, p2) with tagged u = sum s^k e_k and v = sum t^l e_l:
    every bidegree pair up to (3,3) x (3,3) at every order pair in range,
    or the given (bidegree, bidegree, orders) shapes."""
    if shapes is None:
        bidegrees = [(n, m) for n in range(4) for m in range(4)]
        shapes = [(b1, b2, [(p1, p2) for p1 in range(min(b1[0], b2[0]) + 1)
                            for p2 in range(min(b1[1], b2[1]) + 1)])
                  for b1 in bidegrees for b2 in bidegrees]
    for b1, b2, orders in shapes:
        u, v = _tagged(*b1, "s"), _tagged(*b2, "t")
        for p1, p2 in orders:
            yield u, v, p1, p2


def _table_coefficients(u, v, p1, p2):
    """{(k, l): pairing_table's monomial for the basis pair (k, l)},
    the coefficient of s^k t^l in <u, v> for tagged u and v."""
    tn, tm = u.n + v.n - 2 * p1, u.m + v.m - 2 * p2
    return {kl: c * basis_monomial(tn, tm, *divmod(t, tm + 1))
            for kl, (t, c) in pairing_table(u.n, u.m, v.n, v.m, p1,
                                            p2).items()}


def test_transvectant2_reads_the_pairing_table_constants():
    # both readers of the one-slot tables agree: the coefficient of
    # s^k t^l in transvectant2 of tagged forms is the pairing_table entry
    # of (k, l), and there is no such term where the table has none;
    # checked up to (3,3) x (3,3) and on the (4,4) x (4,4) pairing stream
    # shapes
    cases = list(_tagged_cases()) + list(_tagged_cases([PIN_SHAPES[-1]]))
    for u, v, p1, p2 in cases:
        assert (transvectant2(u, v, p1, p2).poly.coefficients_in(
            ("s", "t")) == _table_coefficients(u, v, p1, p2))


def test_transvectant2_output_has_the_bidegree_it_claims():
    # transvectant2 wraps its output without re-deriving the bidegree, so
    # the key shift is checked here instead: every bidegree pair up to
    # (3,3) x (3,3) and the (4,4) x (4,4) stream shape, at every order
    # pair in range, on tagged (symbolic) operands, whose pairings are
    # nonzero
    all_orders = [(p1, p2) for p1 in range(5) for p2 in range(5)]
    cases = list(_tagged_cases()) + list(
        _tagged_cases([((4, 4), (4, 4), all_orders)]))
    for u, v, p1, p2 in cases:
        w = transvectant2(u, v, p1, p2)
        assert w.bidegree == (u.n + v.n - 2 * p1, u.m + v.m - 2 * p2)
        assert w.poly.packed and w.poly.bidegrees() == {w.bidegree}
    assert len(cases) == 925


RATIONAL_SHAPES = (((1, 2), (1, 2)), ((2, 2), (1, 2)), ((3, 2), (2, 3)),
                   ((0, 3), (2, 1)))


def test_transvectant2_is_bilinear_over_the_rationals():
    # P(e_a / p, e_b / q) = P(e_a, e_b) / (p q) for basis monomials and
    # distinct primes: the output is divided by the product of both
    # operands' denominators, not one of them; integer operands give
    # int coefficients (nothing is divided); the Omega oracle agrees on
    # the smallest shape
    p, q = Fraction(1, 5), Fraction(1, 7)
    checked = 0
    for b1, b2 in RATIONAL_SHAPES:
        for p1 in range(min(b1[0], b2[0]) + 1):
            for p2 in range(min(b1[1], b2[1]) + 1):
                for ea, eb in product(basis(*b1), basis(*b2)):
                    whole = transvectant2(ea, eb, p1, p2)
                    assert all(type(c) is int
                               for c in whole.poly.packed.values())
                    scaled = transvectant2(p * ea, q * eb, p1, p2)
                    assert scaled == (p * q) * whole
                    assert all(type(c) is int or c.denominator != 1
                               for c in scaled.poly.packed.values())
                    if b1 == b2 == (1, 2):
                        assert scaled == transvectant2_omega(
                            p * ea, q * eb, p1, p2)
                    checked += bool(whole.poly.packed)
    assert checked == 1114


def test_transvectant2_overflow_guard_sees_variables_interned_later():
    # the exponent guard grows with every interned variable, and the
    # contraction's output is checked against the guard of the moment: a
    # parameter first seen after binforms was imported still overflows
    name = "guard_probe_t"
    assert name not in _INDEX
    t100 = Poly.var(name, 100)
    u = BiForm(1, 0, t100 * Poly.var("x1"))
    v = BiForm(1, 0, t100 * Poly.var("y1"))
    with pytest.raises(OverflowError):
        transvectant2(u, v, 0, 0)


def test_pairing_table_constants_are_canonical_scalars():
    # every constant is an int, so the contraction multiplies ints only;
    # checked up to (4,4) x (4,4), the largest bidegree the pairing stream
    # meets, on the uncached body so the process cache stays as it was
    table = pairing_table.__wrapped__
    for n1, m1, n2, m2 in product(range(5), repeat=4):
        for p1 in range(min(n1, n2) + 1):
            for p2 in range(min(m1, m2) + 1):
                for _t, c in table(n1, m1, n2, m2, p1, p2).values():
                    assert type(c) is int


def test_slot_constant_is_the_alternating_sum_over_p_factorial():
    # the identity the integrality rests on: (a)_r / r! = C(a, r) takes
    # the 1/p! of sum_k (-1)^k C(p,k) (n-i)_(p-k) (i)_k (m-j)_k (j)_(p-k)
    # into binomials
    cases = 0
    for n, m in product(range(9), repeat=2):
        for i, j, p in product(range(n + 1), range(m + 1),
                               range(min(n, m) + 1)):
            scaled = sum((-1) ** k * comb(p, k) * perm(n - i, p - k)
                         * perm(i, k) * perm(m - j, k) * perm(j, p - k)
                         for k in range(p + 1))
            got = _slot_constant(n, i, m, j, p)
            assert type(got) is int
            assert got == Fraction(scaled, factorial(p))
            cases += 1
    assert cases == 10317


def test_pairing_table_is_read_only():
    from g12calc.binforms import pairing_table
    table = pairing_table(1, 2, 1, 2, 1, 2)
    key = next(iter(table))
    entry = table[key]
    with pytest.raises(TypeError):
        table[key] = (0, Fraction(0))
    assert pairing_table(1, 2, 1, 2, 1, 2)[key] == entry
    rows = _slot_table(2, 2, 1)
    assert type(rows) is tuple and all(type(r) is tuple for r in rows)
    with pytest.raises(TypeError):
        rows[0][0] = 1
    with pytest.raises(TypeError):
        rows[0] = (0, 0, 0)


def test_pairing_operators_close_under_bracket():
    # the commutator of two first-order pairing operators is the pairing
    # with the first transvectant, with structure constant exactly 1 in
    # either slot; this pins the algebra identification
    rng = _Lcg(3)
    for orders, bideg in (((1, 0), (2, 0)), ((0, 1), (0, 2))):
        p = random_biform(*bideg, rng)
        q = random_biform(*bideg, rng)
        pq1 = transvectant2(p, q, *orders)
        for v in basis(1, 2):
            lhs = (transvectant2(p, transvectant2(q, v, *orders), *orders)
                   - transvectant2(q, transvectant2(p, v, *orders), *orders))
            rhs = transvectant2(pq1, v, *orders)
            assert (lhs - rhs).is_zero()


def _product(x, y):
    """Sparse columns of XY from the sparse columns of X and Y."""
    out = []
    for col in y:
        acc = {}
        for k, c in col.items():
            for i, a in x[k].items():
                acc[i] = acc.get(i, 0) + a * c
        out.append({i: v for i, v in acc.items() if v})
    return out


def _bracket(x, y):
    xy, yx = _product(x, y), _product(y, x)
    out = []
    for a, b in zip(xy, yx):
        col = {i: a.get(i, 0) - b.get(i, 0) for i in set(a) | set(b)}
        out.append({i: v for i, v in col.items() if v})
    return out


def _scaled(k, x):
    return [{i: k * v for i, v in col.items()} for col in x]


@pytest.mark.parametrize("make", [
    lambda: Rep.space(0, 0), lambda: Rep.space(1, 0), lambda: Rep.space(0, 2),
    lambda: Rep.space(2, 1), lambda: Rep.space(1, 2).dual(),
    lambda: Rep.space(1, 1).tensor(Rep.space(0, 2)),
    lambda: Rep.space(1, 2).wedge2(),
    lambda: Rep.space(1, 2).dual().wedge2().tensor(Rep.space(1, 2)),
], ids=["V00", "V10", "V02", "V21", "dual12", "tensor11x02", "wedge2_12",
        "spencer_target"])
def test_rep_columns_satisfy_sl2_relations(make):
    rep = make()
    cols = rep.cols
    assert all(len(cols[name]) == rep.dim for name in cols)
    assert all(all(v for v in col.values()) for gen in cols.values()
               for col in gen)
    for s in "12":
        e, f, h = cols["e" + s], cols["f" + s], cols["h" + s]
        assert _bracket(e, f) == h
        assert _bracket(h, e) == _scaled(2, e)
        assert _bracket(h, f) == _scaled(-2, f)
    zero = [{} for _ in range(rep.dim)]
    for x in ("e1", "f1", "h1"):
        for y in ("e2", "f2", "h2"):
            assert _bracket(cols[x], cols[y]) == zero
