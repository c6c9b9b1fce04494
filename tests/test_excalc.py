from fractions import Fraction

import pytest

from g12calc import binforms as bf
from g12calc.excalc import (COFRAME_NAMES, THETA_NAMES, Coframe,
                            FormExpr, StructureSystem, VForm,
                            bianchi_combination_check, bianchi_solve,
                            build_system, contract,
                            d_squared_report, derive_da, derive_db, derive_dc,
                            derived_rule_report, exterior_d,
                            frobenius_residual, ideal_substitution,
                            local_symmetry_obstruction,
                            omega_wedge_pairing_scale,
                            reduce_mod_ideal, torsion_mode_structure_check)
from g12calc import excalc, integrals
from g12calc.integrals import restriction_chain
from g12calc.linalg import _Lcg, rank
from g12calc.poly import Poly
from g12calc.spencer import _adjoint_rep, g12_algebra
from g12calc.binforms import Rep


def rand_form(cf, rng, degree, nterms=3):
    import itertools
    monos = list(itertools.combinations(range(len(cf)), degree))
    out = FormExpr.zero(cf)
    for _ in range(nterms):
        mono = monos[rng.next_int(len(monos))]
        coeff = Poly.var("a20_0") * (rng.next_int(9) - 4) + \
            Poly.const(rng.next_int(9) - 4)
        out = out + FormExpr(cf, {mono: coeff})
    return out


def test_wedge_anticommutes_on_one_forms():
    cf = Coframe(COFRAME_NAMES)
    a = FormExpr.gen(cf, "th_1_2")
    b = FormExpr.gen(cf, "om00")
    assert (a.wedge(b) + b.wedge(a)).is_zero()
    assert a.wedge(a).is_zero()


def test_exterior_d_is_antiderivation():
    sys = build_system("g12")
    cf = sys.cf
    rng = _Lcg(77)
    for _ in range(6):
        a = rand_form(cf, rng, 1)
        b = rand_form(cf, rng, 2)
        lhs = exterior_d(a.wedge(b), sys)
        rhs = exterior_d(a, sys).wedge(b) - a.wedge(exterior_d(b, sys))
        assert (lhs - rhs).is_zero()


def test_d_of_constant_vanishes():
    sys = build_system("g12")
    assert exterior_d(FormExpr.scalar(sys.cf, 5), sys).is_zero()


def test_contract_is_antiderivation_degree():
    cf = Coframe(COFRAME_NAMES)
    values = {cf.index["th_1_2"]: Poly.const(2),
              cf.index["om00"]: Poly.var("c")}
    two_form = FormExpr.gen(cf, "th_1_2").wedge(FormExpr.gen(cf, "om00"))
    res = contract(two_form, values)
    want = (FormExpr.gen(cf, "om00").scale(2)
            - FormExpr.gen(cf, "th_1_2").scale(Poly.var("c")))
    assert (res - want).is_zero()


def test_bianchi_solution_space():
    rep = bianchi_solve()
    assert rep["solution_dim"] == 6
    assert rep["ansatz_rank"] == 6
    assert rep["ansatz_spans_solutions"]


def test_bianchi_kernel_cross_checked_by_dense_elimination():
    # rebuild the linear condition as a dense matrix and solve it through
    # the dense elimination path; dimensions and membership must agree
    cf = Coframe(COFRAME_NAMES)
    theta = VForm.from_gens(cf, 1, 2, THETA_NAMES)
    from itertools import combinations
    from g12calc.excalc import form_sum
    from g12calc.linalg import linsolve

    def _g12_apply(k, q):
        # the k-th algebra basis element acting through its action matrix
        # on V_{1,2}, independent of the pairing route of dbl_bracket
        return VForm(q.n, q.m, [form_sum(cf, zip(q.comps, row))
                                for row in bf.g1k_matrices(2)[k]])

    pairs = list(combinations(range(6), 2))
    triples = {t: i for i, t in enumerate(combinations(range(6), 3))}
    rows = [[Fraction(0)] * 105 for _ in range(len(triples) * 6)]
    for pi, (p, q) in enumerate(pairs):
        wform = FormExpr.gen(cf, p).wedge(FormExpr.gen(cf, q))
        for k in range(7):
            acted = _g12_apply(k, theta)
            for comp_idx in range(6):
                fe = wform.wedge(acted.comps[comp_idx])
                for mono, coeff in fe.terms.items():
                    rows[triples[mono] * 6 + comp_idx][pi * 7 + k] += \
                        coeff.constant_value()
    part, ker = linsolve(rows, [Fraction(0)] * len(rows))
    assert part == [Fraction(0)] * 105
    assert len(ker) == 6
    sparse_kernel = bianchi_solve()["kernel"]
    assert rank(ker + sparse_kernel) == 6


def test_bianchi_ansatz_vectors_match_unit_parameter_route():
    # the ansatz vectors are read as derivatives of the displayed
    # curvature's coefficients; rebuild them from unit a20/a02 through
    # explicit pairings of theta
    from itertools import combinations
    from g12calc.excalc import CURVATURE_DISPLAY, pair_vforms
    cf = Coframe(COFRAME_NAMES)
    theta = VForm.from_gens(cf, 1, 2, THETA_NAMES)
    th12 = pair_vforms(theta, theta, 1, 2)
    th01 = pair_vforms(theta, theta, 0, 1)
    th10 = pair_vforms(theta, theta, 1, 0)
    c1, c2, c3, c4, c5 = CURVATURE_DISPLAY
    pairs = list(combinations(range(6), 2))
    unit_vecs = []
    for slot in range(6):
        a20 = VForm(2, 0, [FormExpr.scalar(cf, int(slot == t))
                           for t in range(3)])
        a02 = VForm(0, 2, [FormExpr.scalar(cf, int(slot == 3 + t))
                           for t in range(3)])
        b1, b2 = pair_vforms(a20, th12, 0, 0), pair_vforms(a02, th01, 0, 2)
        b3, b4 = pair_vforms(a20, th01, 2, 0), pair_vforms(a02, th10, 0, 2)
        b5 = pair_vforms(a02, th12, 0, 0)
        comps = ([FormExpr.zero(cf)]
                 + [x.scale(c1) + y.scale(c2)
                    for x, y in zip(b1.comps, b2.comps)]
                 + [x.scale(c3) + y.scale(c4) + z.scale(c5)
                    for x, y, z in zip(b3.comps, b4.comps, b5.comps)])
        unit_vecs.append([comps[k].coefficient(pq).constant_value()
                          for pq in pairs for k in range(7)])
    assert any(any(v) for v in unit_vecs)
    assert bianchi_solve()["ansatz"] == unit_vecs


def test_bianchi_kernel_vectors_satisfy_condition_reconstructed():
    # independent route: rebuild each kernel vector as an algebra-valued
    # 2-form and apply the bracket condition through the form machinery
    cf = Coframe(COFRAME_NAMES)
    theta = VForm.from_gens(cf, 1, 2, THETA_NAMES)
    from itertools import combinations
    from g12calc.excalc import dbl_bracket
    pairs = list(combinations(range(6), 2))
    for v in bianchi_solve()["kernel"]:
        # the algebra components om00, om20 (3) and om02 (3) of the 2-form
        parts = [FormExpr.zero(cf) for _ in range(7)]
        for pi, (p, q) in enumerate(pairs):
            wform = FormExpr.gen(cf, p).wedge(FormExpr.gen(cf, q))
            for k in range(7):
                coeff = v[pi * 7 + k]
                if coeff:
                    parts[k] = parts[k] + wform.scale(coeff)
        res = dbl_bracket(parts[0], VForm(2, 0, parts[1:4]),
                          VForm(0, 2, parts[4:]), theta, 1)
        assert res.is_zero()


def test_bianchi_space_is_invariant():
    # the kernel inside Lambda^2 theta (x) algebra is a submodule
    rep = bianchi_solve()
    kernel = rep["kernel"]
    action = Rep.space(1, 2).dual().wedge2().tensor(
        _adjoint_rep(g12_algebra(), Rep.space(1, 2)))
    base = rank(kernel)
    for name in bf.GENERATOR_NAMES:
        cols = action.cols[name]
        acted = []
        for v in kernel:
            out = [Fraction(0)] * 105
            for j, col in enumerate(cols):
                for i, c in col.items():
                    out[i] += c * v[j]
            acted.append(out)
        assert rank(kernel + acted) == base


def test_derived_rules_match_display_up_to_scale():
    rep = derived_rule_report()
    assert rep["matches_display_up_to_scale"]
    assert rep["uniform_rhs_scale"] == Fraction(-1)
    assert rep["b_parametrization_matches_display"]


def test_derivation_stages():
    da = derive_da()
    assert da["freedom_dim"] == 6
    assert da["display_matches_freedom"]
    db = derive_db()
    assert db["undetermined_shapes"] == ("d1_theta", "d2_theta", "theta")
    dc = derive_dc()
    assert dc["theta_part_vanishes"]


@pytest.fixture
def fresh_derivations():
    """derive_db and derive_dc recomputed inside the test, and again after
    it, so neither a cached value nor a patched one leaks across tests."""
    derive_db.cache_clear()
    derive_dc.cache_clear()
    yield
    derive_db.cache_clear()
    derive_dc.cache_clear()


def test_derive_dc_refuses_an_undetermined_coefficient(monkeypatch,
                                                       fresh_derivations):
    # a freedom in q_d1 alone leaves the normalized c-rule's q_d1 open
    solve = excalc._solve_rules

    def solve_with_q_d1_free(targets, gen_rules, param_rules, unknowns):
        part, kernel = solve(targets, gen_rules, param_rules, unknowns)
        if unknowns[0] == "k_q_d1":
            kernel = [kernel[0], [int(k == 0) for k in range(len(unknowns))]]
        return part, kernel

    monkeypatch.setattr(excalc, "_solve_rules", solve_with_q_d1_free)
    with pytest.raises(ValueError, match="normalize"):
        derive_dc()


def test_rule_solver_refuses_an_inconsistent_system(monkeypatch,
                                                    fresh_derivations):
    # with c2 doubled, no b-rule closes d^2(a) = 0
    derive_da()
    gen_rules = excalc._gen_rules
    c1, c2, *rest = excalc.CURVATURE_DISPLAY
    perturbed = (c1, 2 * c2, *rest)
    monkeypatch.setattr(excalc, "_gen_rules",
                        lambda fr: gen_rules(fr, perturbed))
    with pytest.raises(ValueError, match="transcription error"):
        derive_db()


def test_derive_db_refuses_a_freedom_off_the_display(monkeypatch,
                                                     fresh_derivations):
    monkeypatch.setattr(excalc, "UNDETERMINED_B_SHAPES",
                        ("d1_theta", "d2_theta"))
    with pytest.raises(ValueError, match="b-rule"):
        derive_db()


def test_derivations_are_read_only():
    before = derived_rule_report()
    for derive in (derive_da, derive_db, derive_dc):
        rep = derive()
        for key, value in rep.items():
            with pytest.raises(TypeError):
                rep[key] = value
            assert not isinstance(value, (list, dict, set))
    with pytest.raises(TypeError):
        derive_da()["alphas"][0] = Fraction(7)
    with pytest.raises(TypeError):
        derive_db()["shape_coefficients"]["theta"] = Fraction(1)
    assert derived_rule_report() == before


def test_closure_torsion_free_modes():
    for mode, expected in (("h12", 25), ("g12", 26)):
        rep = d_squared_report(build_system(mode))
        assert rep["all_zero"], rep["zero_by_generator"]
        assert rep["count"] == expected


def test_closure_mutation_fails():
    bad = build_system("h12", curvature_coeffs=(
        Fraction(-4), Fraction(3), Fraction(1), Fraction(1), Fraction(-6)))
    rep = d_squared_report(bad)
    assert not rep["all_zero"]
    bad_names = [n for n, ok in rep["zero_by_generator"].items() if not ok]
    assert any(n.startswith("th_") for n in bad_names)


def test_torsion_mode_structure():
    rep = torsion_mode_structure_check()
    assert rep["residual_is_predicted_torsion_terms"]
    assert rep["residual_nonzero"]
    assert rep["bianchi_term_vanishes"]


def test_bianchi_combination():
    rep = bianchi_combination_check()
    assert rep["difference_is_bianchi_combination"]
    assert rep["bianchi_combination_vanishes"]


def test_omega_wedge_scale_reported():
    rep = omega_wedge_pairing_scale()
    assert rep["matches_minus_half_pairing"] or \
        rep["fitted_scale"] is not None
    assert rep["fits_every_component"]


def test_curvature_expansion_idempotent():
    from g12calc.excalc import CURVATURE_DISPLAY, _curvature_parts, _frame
    fr = _frame("g12")
    _o, o20, o02 = _curvature_parts(fr.cf, fr.curvature_blocks,
                                    CURVATURE_DISPLAY)
    for comp in o20.comps + o02.comps:
        rebuilt = FormExpr(fr.cf, dict(comp.terms))
        assert (rebuilt - comp).is_zero()


def test_cached_frame_forms_are_read_only():
    # a caller cannot change the cached frame's forms in place, so every
    # later derivation sees the frame as it was built
    from dataclasses import FrozenInstanceError
    from g12calc.excalc import _frame
    fr = _frame("g12")
    assert isinstance(fr.theta.comps, tuple)
    with pytest.raises(TypeError):
        fr.theta.comps[0] = fr.theta.comps[1]
    with pytest.raises(FrozenInstanceError):
        fr.theta.comps = fr.om20.comps
    assert bianchi_solve()["solution_dim"] == 6


def test_ideal_reduction_simple():
    cf = Coframe(COFRAME_NAMES)
    gens = [FormExpr.gen(cf, "th_1_2"),
            FormExpr.gen(cf, "th_1_0") - FormExpr.gen(cf, "th_1_m2").scale(2)]
    subs = ideal_substitution(cf, gens)
    # th_1_2 -> 0; th_1_0 -> 2 th_1_m2
    expr = FormExpr.gen(cf, "th_1_0").wedge(FormExpr.gen(cf, "om00"))
    red = reduce_mod_ideal(expr, subs)
    want = FormExpr.gen(cf, "th_1_m2").scale(2).wedge(
        FormExpr.gen(cf, "om00"))
    assert (red - want).is_zero()
    expr2 = FormExpr.gen(cf, "th_1_2").wedge(FormExpr.gen(cf, "om00"))
    assert reduce_mod_ideal(expr2, subs).is_zero()


def test_frobenius_full_coframe_trivial():
    sys = build_system("g12")
    gens = [FormExpr.gen(sys.cf, i) for i in range(13)]
    rep = frobenius_residual(gens, sys)
    assert rep["frobenius_holds_identically"]


def test_local_symmetry_obstruction_exact():
    rep = local_symmetry_obstruction()
    assert rep["matches_display"]
    # the coefficient is the full second-slot contraction against x^2,
    # scaled by 9: only the lowest-weight component of a02 appears
    assert rep["expected_coefficient"] == Poly.var("a02_2") * 18


def test_restriction_chain():
    rep = restriction_chain()
    assert rep["a_constraint_count"] == 3
    assert rep["a_constraints_match_display"]
    assert rep["b_constraint_rank"] == 2
    assert rep["b_solution_is_gradient_subspace"]
    assert rep["blocks_independent"]
    assert rep["combined_differential_rank"] == 4
    assert rep["admissible_submanifold_dim"] == 8


def test_restriction_chain_display_is_a_span(monkeypatch):
    # the extra condition a20_0 = 0 keeps 2 a20_k = 3 a02_k on every
    # kernel vector, but the kernel no longer spans the display
    residual_of = integrals.frobenius_residual

    def one_more_condition(gens, sys):
        frob = residual_of(gens, sys)
        return {**frob,
                "conditions": frob["conditions"] + [Poly.var("a20_0")]}

    monkeypatch.setattr(integrals, "frobenius_residual", one_more_condition)
    rep = restriction_chain()
    assert rep["a_constraint_count"] == 4
    assert not rep["a_constraints_match_display"]


def test_mode_validation():
    with pytest.raises(ValueError):
        build_system("nonsense")


def test_wedge_and_exterior_d_raise_on_exponent_overflow():
    """A coefficient product past exponent 127 raises, on the one-term
    and on the summed path of the product loop."""
    sys = build_system("g12")
    cf = sys.cf
    c100, c27, c28 = (Poly.var("c", e) for e in (100, 27, 28))
    gen = FormExpr.gen(cf, 0)
    assert FormExpr.scalar(cf, c100).wedge(gen.scale(c27)).coefficient(
        (0,)) == Poly.var("c", 127)
    for left, right in ((c100, c28), (c100 + 1, c28 + 1)):
        with pytest.raises(OverflowError):
            FormExpr.scalar(cf, left).wedge(gen.scale(right))
    # the om20_0 rule is linear in a20_1: the generator part overflows
    om = FormExpr.gen(cf, "om20_0")
    assert not exterior_d(om.scale(Poly.var("a20_1", 126)), sys).is_zero()
    top = Poly.var("a20_1", 127)
    for coeff in (top, top + 1):
        with pytest.raises(OverflowError):
            exterior_d(om.scale(coeff), sys)
    # the b_0 rule is quadratic in a02_0: the parameter part overflows
    with pytest.raises(OverflowError):
        exterior_d(FormExpr.scalar(
            cf, Poly.var("b_0", 127) * Poly.var("a02_0", 127)), sys)


def test_coefficient_rejects_tuples_that_name_no_monomial():
    cf = Coframe(COFRAME_NAMES)
    two = FormExpr.gen(cf, 0).wedge(FormExpr.gen(cf, 3))
    assert two.coefficient((0, 3)) == Poly.const(1)
    assert two.coefficient([0, 3]) == Poly.const(1)
    assert two.coefficient((1, 3)).is_zero()
    assert two.coefficient(()).is_zero()
    for bad in ((3, 0), (0, 0), (0, len(cf)), (-1, 3)):
        with pytest.raises(ValueError):
            two.coefficient(bad)


def test_constructor_rejects_tuples_that_name_no_monomial():
    """A key that is not a strictly increasing tuple of generator indices
    would be stored as a monomial that nothing matches, or read as a
    different monomial with the wrong sign."""
    cf = Coframe(COFRAME_NAMES)
    one = Poly.const(1)
    assert FormExpr(cf, {(1, 3): one}).coefficient((1, 3)) == one
    assert FormExpr(cf, {(): one}) == FormExpr.scalar(cf, 1)
    for bad in ((3, 1), (0, 0), (0, len(cf)), (-1, 3), (len(cf),)):
        with pytest.raises(ValueError):
            FormExpr(cf, {bad: one})
        with pytest.raises(ValueError):
            FormExpr(cf, {(2,): one, bad: Poly.zero()})


def test_structure_system_rules_are_read_only():
    sys = build_system("g12")
    rule = sys.gen_rules[0]
    with pytest.raises(TypeError):
        sys.gen_rules[0] = rule
    with pytest.raises(TypeError):
        sys.param_rules["c"] = rule
    with pytest.raises(TypeError):
        del sys.param_rules["c"]
    # a system copies the rules it is given
    mine = {0: rule}
    own = StructureSystem("own", sys.cf, mine, {})
    mine[1] = rule
    assert list(own.gen_rules) == [0]
    assert build_system("g12") == sys


def _system_record(sys) -> list:
    """Keys, values and the order of both, of every rule and residual."""
    def form(fe):
        return [(m, list(c.packed.items())) for m, c in fe.terms.items()]
    return [[(k, form(r)) for k, r in sys.gen_rules.items()],
            [(k, form(r)) for k, r in sys.param_rules.items()],
            [(k, form(r)) for k, r in
             d_squared_report(sys)["residuals"].items()]]


@pytest.mark.parametrize("mode,other", [("g12", "torsion-s30"),
                                        ("torsion-s30", "g12")])
def test_build_system_does_not_depend_on_cache_warmth(mode, other):
    """The same system, residuals included, whether the mode's cached
    part is built fresh, after another mode's, or reused."""
    from g12calc.excalc import _frame, _mode_skeleton
    _mode_skeleton.cache_clear()
    _frame.cache_clear()
    fresh = _system_record(build_system(mode))
    _mode_skeleton.cache_clear()
    _frame.cache_clear()
    build_system(other)
    assert _system_record(build_system(mode)) == fresh
    build_system("h12")
    assert _system_record(build_system(mode)) == fresh
