import json
from fractions import Fraction

import pytest

from g12calc import binforms as bf
from g12calc.excalc import A02_SYMS, A20_SYMS, C_SYM
from g12calc.integrals import (CurvaturePoint, K_SYMS, admissible_point,
                               assemble_J, conservation_identity,
                               contraction_identity_holds,
                               det_vanishes_symbolically,
                               f1_vanishes_on_restriction_locus,
                               fields_vanish_at_flat_point, first_integrals,
                               gradient,
                               gradient_rows_consistent,
                               integrals_equivariant, invariant_functions,
                               kernel_columns, kernel_membership,
                               rank_certificate, rank_dichotomy_samples,
                               row_times_j,
                               sigma_c_membership, structure_constants,
                               symmetry_fields_check, xy_specialised_jacobian)
from g12calc.linalg import matrix_rank_kernel, random_rational_point, rank
from g12calc.poly import Poly, Substitution, parse_poly


def test_jacobian_shape_and_contraction():
    j = assemble_J()
    assert (j.rows, j.cols) == (12, 12)
    assert contraction_identity_holds()


def test_jacobian_c_substitution():
    j = assemble_J(Fraction(3, 2))
    for i in range(12):
        for k in range(12):
            assert "c" not in j[i, k].vars


def test_invariants_at_flat_point_vanish():
    inv = invariant_functions(CurvaturePoint.zero(c=1))
    for key in ("d1", "d2", "e1", "e2"):
        assert inv[key].is_zero()
    for key in ("b02", "b20", "b24", "p20", "p24", "p02"):
        assert inv[key].is_zero()


def test_first_integrals_vanish_at_flat_point():
    flat = CurvaturePoint.zero(c=5).assignment()
    f1, f2 = (f.subs(flat) for f in first_integrals())
    assert f1.is_zero() and f2.is_zero()


def test_first_integrals_are_the_display_at_the_involuted_point():
    """Oracle: the display built at the symbolic point with the
    coefficient k, then composed with (a20, a02, c) -> (-a20, -a02, -c).
    k = 72 gives f1 itself; k = 71 gives f1 + e1, the mutant of the
    conservation control (e1 is odd in a20, so it changes sign under the
    involution).  Values and term order both match."""
    pt = CurvaturePoint.symbolic()
    inv = invariant_functions(pt)
    d1, d2, e1, e2 = inv["d1"], inv["d2"], inv["e1"], inv["e2"]
    c = pt.c
    f2 = (4 * d2 * (4 * d1 + 9 * d2 - 3 * c) ** 2
          + 96 * bf.transvectant2(inv["p20"], inv["b20"], 2, 0).poly
          + 3 * bf.transvectant2(inv["p02"], inv["b02"], 0, 2).poly
          + 48 * bf.transvectant2(inv["p24"], inv["b24"], 2, 4).poly)
    involution = Substitution({s: Poly.var(s) * -1
                               for s in A20_SYMS + A02_SYMS + (C_SYM,)})
    f1_new, f2_new = first_integrals()
    for k, expected in ((72, f1_new), (71, f1_new + e1)):
        f1 = ((4 * d1 - 9 * d2) * (4 * d1 + 27 * d2 - 6 * c)
              + k * e1 - 54 * e2)
        for got, want in zip(involution.apply((f1, f2)),
                             (expected, f2_new)):
            assert list(got.packed.items()) == list(want.packed.items())


def test_self_pairing_parity():
    b = bf.symbolic(1, 2, "b")
    assert not bf.transvectant2(b, b, 1, 1).is_zero()   # even: survives
    assert bf.transvectant2(b, b, 1, 2).is_zero()       # odd: dies


def test_conservation_identities():
    rep = conservation_identity()
    assert rep["f1"] and rep["f2"]


def test_conservation_mutation_fails():
    # f1 + e1 is the display with 71 in place of 72
    mutant = first_integrals()[0] + invariant_functions()["e1"]
    assert not all(r.is_zero() for r in row_times_j(gradient(mutant)))


def test_conservation_on_rank_simplifying_family():
    # the identity persists under the xy-specialization of both slots
    f1, f2 = first_integrals()
    j = assemble_J()
    xy_family = {A20_SYMS[0]: Poly.const(0), A20_SYMS[2]: Poly.const(0),
                 A20_SYMS[1]: Poly.var("t"),
                 A02_SYMS[0]: Poly.const(0), A02_SYMS[2]: Poly.const(0),
                 A02_SYMS[1]: Poly.var("tp")}
    for f in (f1, f2):
        grad = [g.subs(xy_family) for g in gradient(f)]
        for col in range(12):
            acc = Poly.zero()
            for i in range(12):
                acc = acc + grad[i] * j[i, col].subs(xy_family)
            assert acc.is_zero()


def test_gradient_rows_solve_defining_equation():
    assert gradient_rows_consistent()


def test_directional_derivative_oracle():
    # t -> f(pt + t v) has derivative grad(f)(pt) . v at t = 0
    f1, f2 = first_integrals()
    pt = random_rational_point(list(K_SYMS) + [C_SYM], 41)
    direction = random_rational_point(list(K_SYMS), 42)
    t = Poly.var("t")
    line = {s: Poly.const(pt[s]) + t * direction[s] for s in K_SYMS}
    line[C_SYM] = Poly.const(pt[C_SYM])
    for f in (f1, f2):
        restricted = f.subs(line)
        deriv_at_zero = restricted.diff("t").subs({"t": 0}).constant_value()
        grad_dot = sum((g.subs(pt).constant_value() * direction[s]
                        for g, s in zip(gradient(f), K_SYMS)), Fraction(0))
        assert deriv_at_zero == grad_dot


def test_kernel_membership_symbolic():
    assert kernel_membership()


def test_kernel_columns_span_pointwise_kernel():
    pt = random_rational_point(list(K_SYMS) + [C_SYM], 19)
    j = assemble_J().subs(pt)
    rank_at_pt, ker = matrix_rank_kernel(j)
    assert rank_at_pt == 10 and len(ker) == 2
    cols = kernel_columns()
    vecs = [[p.subs(pt).constant_value() for p in col] for col in cols]
    assert rank(ker + vecs) == 2


def test_det_vanishes():
    rep = det_vanishes_symbolically()
    assert rep["left_kernel_row_annihilates_J"]
    assert rep["det_identically_zero"]


def test_specialised_det_does_not_fill_in(monkeypatch):
    """The xy-specialised J has mostly one-term entries; with sparsity-
    chosen pivots no Bareiss numerator exceeds 200 terms (a pivot taken
    only where a[k][k] = 0 reached 1372)."""
    import g12calc.linalg as la
    sizes = []
    divexact = la.divexact

    def counted(p, q):
        sizes.append(len(p.packed))
        return divexact(p, q)

    monkeypatch.setattr(la, "divexact", counted)
    assert la.matrix_det(xy_specialised_jacobian()).is_zero()
    assert sizes and max(sizes) <= 200


def test_det_certificate_rejects_a_row_outside_the_left_kernel(monkeypatch):
    """With the mutated coefficient 71 (f1 + e1) the gradient is still
    nonzero but no longer a left-kernel row; the specialized det stays 0,
    so only the grad f1 . J check can fail the certificate."""
    import g12calc.integrals as ig
    mutant = first_integrals()[0] + invariant_functions()["e1"]
    grads = (tuple(gradient(mutant)), ig._integral_gradients()[1])
    monkeypatch.setattr(ig, "_integral_gradients", lambda: grads)
    rep = det_vanishes_symbolically()
    assert rep["left_kernel_nonzero"] and rep["specialized_det_zero"]
    assert not rep["left_kernel_row_annihilates_J"]
    assert not rep["det_identically_zero"]


def test_rank_certificate_and_replay():
    rep = rank_certificate(Fraction(2, 3), seed=13)
    assert rep["rank_is_10"]
    assert rep["flat_point_rank_below_10"]
    assert rep["flat_point_on_sigma"]
    # replaying the recorded point reproduces the rank
    point = {k: Fraction(v) for k, v in rep["point"].items()}
    j = assemble_J().subs(point)
    assert matrix_rank_kernel(j)[0] == rep["rank_at_point"]


def test_rank_dichotomy_sampled():
    rep = rank_dichotomy_samples(Fraction(1), seeds=range(300, 320))
    assert rep["all_consistent"]
    assert len(rep["samples"]) >= 20


def test_sigma_membership_flat_point():
    flat = dict.fromkeys(list(K_SYMS) + [C_SYM], Fraction(0))
    flat[C_SYM] = Fraction(1)
    assert sigma_c_membership(flat)


def test_structure_constants_and_determinism():
    pt1 = random_rational_point(list(K_SYMS) + [C_SYM], 55)
    pt2 = random_rational_point(list(K_SYMS) + [C_SYM], 55)
    c1 = structure_constants(CurvaturePoint.from_assignment(pt1))
    c2 = structure_constants(CurvaturePoint.from_assignment(pt2))
    assert c1 == c2
    flat = CurvaturePoint.zero(c=7)
    cz = structure_constants(flat)
    assert cz["c1"] == 0 and cz["c2"] == 0 and cz["restriction_admissible"]


def test_integrals_equivariant():
    assert integrals_equivariant()


def test_symmetry_fields():
    rep = symmetry_fields_check()
    assert rep["lie_derivative_vanishes"] == {"1": True, "2": True}
    assert rep["bracket_vanishes"]
    assert rep["all"]


def test_symmetry_fields_check_is_read_only():
    from g12calc.cli import CHECKS, SuiteConfig, _check

    def certificate():
        chk = next(c for c in CHECKS if c.name == "symmetry_fields")
        return _check(chk, SuiteConfig(["integrals"]))["certificate"]

    before = certificate()
    assert json.loads(json.dumps(before)) == before
    rep = symmetry_fields_check()
    with pytest.raises(TypeError):
        rep["all"] = False
    with pytest.raises(TypeError):
        rep["lie_derivative_vanishes"]["1"] = False
    again = symmetry_fields_check()
    assert again["all"] and again["lie_derivative_vanishes"]["1"]
    assert certificate() == before


def test_curvature_point_layout():
    assert CurvaturePoint.symbols() == list(K_SYMS)
    pt = CurvaturePoint.from_assignment(
        {**{s: Fraction(k, 5) for k, s in enumerate(K_SYMS)}, C_SYM: 3})
    assert pt.assignment() == {**{s: Poly.const(Fraction(k, 5))
                                  for k, s in enumerate(K_SYMS)},
                               C_SYM: Poly.const(3)}


def test_fields_vanish_at_flat_point():
    assert fields_vanish_at_flat_point()


def test_f1_vanishes_on_restriction_locus():
    assert f1_vanishes_on_restriction_locus()


def test_admissible_point_flagged():
    a20 = bf.from_coords(2, 0, [Fraction(3), Fraction(-6), Fraction(9)])
    a02 = bf.from_coords(0, 2, [Fraction(2), Fraction(-4), Fraction(6)])
    u = bf.slot2_form(parse_poly("2*x2^3 - x2^2*y2 + 5*y2^3"), 3)
    bgrad = bf.BiForm(1, 2, Poly.var("x1") * u.poly.diff("x2")
                      + Poly.var("y1") * u.poly.diff("y2"))
    const = structure_constants(CurvaturePoint(a20, a02, bgrad, Fraction(11)))
    assert const["c1"] == 0
    assert const["restriction_admissible"]


@pytest.mark.parametrize("seed", range(5))
def test_admissible_point_is_on_the_locus(seed):
    names = [f"v{k}" for k in range(8)]
    point = random_rational_point(names, seed)
    v = [point[n] for n in names]
    pt = admissible_point(bf.from_coords(2, 0, v[:3]),
                          bf.from_coords(0, 3, v[3:7]), v[7])
    assert [2 * p for p in pt.a20.coords()] == \
        [3 * p for p in pt.a02.coords()]
    assert first_integrals()[0].subs(pt.assignment()).is_zero()
    assert structure_constants(pt)["restriction_admissible"]
    # one a02 coordinate moved off the locus breaks both
    a02 = pt.a02.coords()
    a02[seed % 3] += 1
    off = CurvaturePoint(pt.a20, bf.from_coords(0, 2, a02), pt.b, pt.c)
    assert not first_integrals()[0].subs(off.assignment()).is_zero()
    assert not structure_constants(off)["restriction_admissible"]


def test_scaling_family_recorded():
    # structure constants along a scaled point: evaluated, not asserted
    # against any external value; the two evaluations must be consistent
    pt = random_rational_point(list(K_SYMS) + [C_SYM], 77)
    base = structure_constants(CurvaturePoint.from_assignment(pt))
    scaled_assignment = {k: 2 * v for k, v in pt.items()}
    scaled = structure_constants(
        CurvaturePoint.from_assignment(scaled_assignment))
    assert isinstance(base["c1"], Fraction)
    assert isinstance(scaled["c2"], Fraction)
