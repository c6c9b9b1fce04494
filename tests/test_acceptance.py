"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is exact (rational identity or integer
dimension); the only numeric knobs are the stated wall-clock budgets.
"""

import json
import time
from fractions import Fraction

from g12calc import binforms as bf
from g12calc import excalc as ex
from g12calc import integrals as ig
from g12calc import spencer as sp
from g12calc.cli import SuiteConfig, run_suites, strip_timings


def _verdict(num, ok, text, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:>2}: {status} - {text}{timing}")
    return ok


def test_criterion_01_clebsch_gordan_and_equivariance():
    start = time.monotonic()
    ok = True
    for n in range(5):
        for m in range(5):
            got = bf.isotypic_decompose(
                bf.Rep.space(n, 0).tensor(bf.Rep.space(m, 0)))
            ok = ok and got == bf.clebsch_gordan(n, m)
    two_slot = [(i1, i2) for i1 in range(2) for i2 in range(3)]
    for bideg1 in two_slot:
        for bideg2 in two_slot:
            got = bf.isotypic_decompose(
                bf.Rep.space(*bideg1).tensor(bf.Rep.space(*bideg2)))
            ok = ok and got == bf.clebsch_gordan2(bideg1, bideg2)
    inputs = 0
    for cfgi, (p1, p2, b1, b2, trials) in enumerate(
            ((1, 1, (1, 2), (1, 2), 40), (0, 2, (1, 2), (1, 2), 30),
             (1, 2, (1, 2), (3, 2), 30))):
        rep = bf.equivariance_check(p1, p2, b1, b2, trials=trials,
                                    seed=100 + cfgi)
        ok = ok and rep["ok"]
        inputs += trials
    assert inputs == 100
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    assert _verdict(1, ok, "tensor decompositions match the closed formulas "
                    f"(n,m <= 4 and two-slot indices <= (1,2)); pairing "
                    f"equivariance exact on {inputs} seeded inputs",
                    elapsed)


def test_criterion_02_spencer_dimensions():
    start = time.monotonic()
    rep = sp.g12_spencer_report()
    rep3 = sp.prolongation_and_h02(sp.gk1_algebra(2))
    ok = (rep["dim_domain"] == 42 and rep["dim_target"] == 90
          and rep["dim_g1"] == 0 and rep3["dim_g1"] == 0
          and rep["dim_h02"] == 48
          and rep["cokernel_isotypic"] == {(1, 4): 1, (1, 6): 1, (3, 0): 1,
                                           (3, 4): 1})
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    assert _verdict(2, ok, "domain 42, target 90, both prolongations zero, "
                    "torsion space 48 of type V14+V16+V30+V34", elapsed)


def test_criterion_03_coordinate_identity():
    start = time.monotonic()
    ok = sp.spencer_coords_match()
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    assert _verdict(3, ok, "the skew-symmetrization coordinate formula "
                    "holds for fully symbolic 42-parameter input", elapsed)


def test_criterion_04_torsion_criterion():
    rep = sp.torsion_criterion_solve()
    ok = (rep["solution_dim"] == 30 and rep["matches_closed_form"]
          and rep["free_s30_dim"] == 4)
    assert _verdict(4, ok, "divisibility constraint space = closed-form "
                    "locus, dimension 30, free rank-4 block")


def test_criterion_05_projected_torsion_identity():
    ok = sp.contact_restriction_identity()
    assert _verdict(5, ok, "the adjusted-torsion projection vanishes "
                    "identically for a symbolic cubic")


def test_criterion_06_bianchi_curvature_closure():
    start = time.monotonic()
    bia = ex.bianchi_solve()
    derived = ex.derived_rule_report()
    ok = (bia["solution_dim"] == 6 and bia["ansatz_spans_solutions"]
          and derived["matches_display_up_to_scale"])
    for mode in ("h12", "g12"):
        rep = ex.d_squared_report(ex.build_system(mode))
        ok = ok and rep["all_zero"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    assert _verdict(6, ok, "curvature space dim 6 matching the ansatz; "
                    "derived parameter rules match the displays up to the "
                    f"reported scale {derived['uniform_rhs_scale']}; "
                    "d^2 = 0 on every generator in both torsion-free modes",
                    elapsed)


def test_criterion_07_jacobian_certificates():
    start = time.monotonic()
    det = ig.det_vanishes_symbolically()
    cons = ig.conservation_identity()
    ok = det["det_identically_zero"] and cons["both"]
    ranks = []
    for seed in (11, 12, 13, 14, 15):
        rep = ig.rank_certificate(Fraction(5, 7), seed)
        ranks.append(rep["rank_at_point"])
        ok = ok and rep["rank_is_10"]
    flat = ig.rank_certificate(Fraction(5, 7), 11)
    ok = ok and flat["flat_point_rank"] < 10
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    assert _verdict(7, ok, "determinant vanishes identically (specialized "
                    "fraction-free expansion + kernel row); conservation "
                    "rows vanish identically; rank exactly 10 at 5 seeded "
                    f"off-locus points {ranks} and {flat['flat_point_rank']} "
                    "at the flat point", elapsed)


def test_criterion_08_symmetry_fields():
    start = time.monotonic()
    rep = ig.symmetry_fields_check()
    invariance = (rep["lie_derivative_vanishes"] == {"1": True, "2": True}
                  and rep["bracket_vanishes"])
    display_variant = all(rep["display_scaling_variant_holds"].values())
    elapsed = time.monotonic() - start
    _verdict(8, invariance and elapsed < 300,
             "the gradient fields preserve every coframe component "
             "(Lie derivatives vanish identically) and commute; the "
             "display's scaling variant (derivative = the form itself) "
             f"evaluates to {display_variant} and is recorded as a "
             "display defect", elapsed)
    assert invariance and rep["bracket_vanishes"]
    assert elapsed < 300
    # the scaling variant printed by the source text is exactly false:
    # a field with values in the kernel annihilates the coframe, so no
    # orientation or scale of Z can reproduce it
    assert not display_variant


def test_criterion_09_restriction_chain():
    chain = ig.restriction_chain()
    f1zero = ig.f1_vanishes_on_restriction_locus()
    ok = (chain["a_constraints_match_display"]
          and chain["b_constraint_rank"] == 2
          and chain["b_solution_is_gradient_subspace"] and f1zero)
    assert _verdict(9, ok, "compatibility ideal forces 2 a20 = 3 a02; the "
                    "b-constraint cuts exactly the gradient subspace "
                    "(rank 2); the first integral vanishes identically on "
                    "the locus")


def test_criterion_10_obstruction_identity():
    rep = ex.local_symmetry_obstruction()
    assert _verdict(10, rep["matches_display"],
                    "reduced differential of the lowest connection "
                    "component = 9 <a02, x^2>_2 theta(1,0)^theta(-1,0), "
                    "exactly")


def test_criterion_11_negative_controls():
    muts = {
        "coordinate formula coefficient -1/4 -> +1/4":
            not sp.spencer_coords_match(
                {**sp.SPENCER_COORDS, "s32": (("r32", Fraction(1, 4)),)}),
        "curvature coefficient -7 -> -6 breaks closure":
            not ex.d_squared_report(ex.build_system(
                "h12", curvature_coeffs=(Fraction(-4), Fraction(3),
                                         Fraction(1), Fraction(1),
                                         Fraction(-6))))["all_zero"],
        "first-integral coefficient 72 -> 71 breaks conservation":
            not all(r.is_zero() for r in ig.row_times_j(ig.gradient(
                ig.first_integrals()[0] + ig.invariant_functions()["e1"]))),
        "wrong Leibniz sign breaks equivariance":
            not bf.equivariance_check(1, 1, (1, 2), (1, 2), trials=3,
                                      seed=9, mutate=True)["ok"],
    }
    ok = all(muts.values()) and len(muts) >= 3
    assert _verdict(11, ok, f"{len(muts)} mutation controls all produce "
                    "failures: " + "; ".join(muts))


def test_criterion_12_determinism():
    r1 = strip_timings(run_suites(SuiteConfig(["all"], seed=7)))
    r2 = strip_timings(run_suites(SuiteConfig(["all"], seed=7)))
    same = json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    clean = r1["summary"]["fail"] == 0
    assert _verdict(12, same and clean,
                    "two full verification runs with the same seed emit "
                    "byte-identical reports (timings stripped), all checks "
                    "passing")
