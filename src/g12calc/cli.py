"""Batch verification runner, expression tools and report emission.

Commands: verify, decompose, transvect, closure, jmatrix, rank,
integrals, constants; `build_parser` sets each one's handler on its
subparser, and `main` calls it.  Each `verify` check is one function,
registered in report order by `@check(suite, name, claim)`, that returns
`(ok, certificate)`.  Every check record carries a stable claim
identifier, a status and a machine-readable certificate, so reports can
be re-verified without re-running the eliminations.  A certificate is
plain JSON data plus exact rationals; anything else fails the check.
Exit codes: 0 all pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import __version__
from . import binforms as bf
from . import excalc as ex
from . import integrals as ig
from . import spencer as sp
from .linalg import random_rational_point
from .poly import _MAX_EXP, ParseError, Poly, _exact, parse_poly

ENV_PREFIX = "G12CALC_"

def _json_safe(value, path: str = "$"):
    """JSON-ready copy of a certificate: plain JSON data (mappings, lists
    and tuples, str, int, bool, None) plus exact rationals, which become
    "p/q" strings.

    Anything else raises TypeError naming its key path: a `float` as an
    inexact value, any other object (a Poly, say) as not JSON data, so
    neither can reach a report.
    """
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact value {value!r} at {path}")
    raise TypeError(f"{type(value).__name__} at {path} is not JSON data or "
                    f"an exact rational")


class SuiteConfig:
    def __init__(self, suites: List[str], seed: int = 7, c_value="symbolic"):
        unknown = [s for s in suites if s not in SUITE_ORDER + ("all",)]
        if unknown:
            raise ValueError(f"unknown suite name(s): {', '.join(unknown)}")
        if "all" in suites:
            self.suites = list(SUITE_ORDER)
        else:
            self.suites = [s for s in SUITE_ORDER if s in suites]
        self.seed = seed
        self.c_value = c_value

    def numeric_c(self) -> Fraction:
        if self.c_value == "symbolic":
            rng_point = random_rational_point(["c"], self.seed + 1)
            return rng_point["c"]
        return Fraction(self.c_value)


class Check(NamedTuple):
    """One `verify` check; `run(cfg)` returns (ok, certificate)."""
    suite: str
    name: str
    claim: str
    run: Callable[[SuiteConfig], Tuple[bool, object]]


# every check, in report order; a suite's checks are contiguous
CHECKS: List[Check] = []


def check(suite: str, name: str, claim: str):
    """Register the decorated `run(cfg) -> (ok, certificate)` as the next
    check of the report."""
    def register(run):
        CHECKS.append(Check(suite, name, claim, run))
        return run
    return register


def _check(chk: Check, cfg: SuiteConfig) -> dict:
    """Run one check into its report record.

    Only an `ok` that is exactly True passes; an `ok` that is not a bool
    fails with an error naming its type, as a `float` in the certificate
    does.
    """
    start = time.monotonic()
    try:
        ok, certificate = chk.run(cfg)
        if not isinstance(ok, bool):
            raise TypeError(f"outcome of type {type(ok).__name__}, not bool")
        status = "pass" if ok else "fail"
        certificate = _json_safe(certificate, "certificate")
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        certificate = {"error": f"{type(exc).__name__}: {exc}"}
        status = "fail"
    return {"check": chk.name, "claim": chk.claim, "status": status,
            "certificate": certificate,
            "wall_time": round(time.monotonic() - start, 6),
            "suite": chk.suite}


def _fields(rep: Mapping, *keys: str) -> dict:
    return {k: rep[k] for k in keys}


# -- checks ------------------------------------------------------------------


@check("pairings", "clebsch_gordan_single", "tensor products of single-slot "
       "forms decompose by the double-sum formula, n,m <= 4")
def clebsch_gordan_single(cfg):
    pairs = [(n, m) for n in range(5) for m in range(5)]
    ok = all(bf.clebsch_gordan(n, m) == bf.isotypic_decompose(
        bf.Rep.space(n, 0).tensor(bf.Rep.space(m, 0))) for n, m in pairs)
    return ok, {"pairs_tested": len(pairs)}


@check("pairings", "clebsch_gordan_double", "tensor products of two-slot "
       "modules decompose by the double-sum formula for indices up to (1,2)")
def clebsch_gordan_double(cfg):
    pairs = [(b1, b2) for b1 in ((0, 0), (1, 0), (0, 1), (1, 1), (1, 2))
             for b2 in ((1, 2), (0, 2), (1, 1))]
    ok = all(bf.clebsch_gordan2(b1, b2) == bf.isotypic_decompose(
        bf.Rep.space(*b1).tensor(bf.Rep.space(*b2))) for b1, b2 in pairs)
    return ok, {"pairs_tested": len(pairs)}


@check("pairings", "pairing_equivariance", "the pairings commute with all "
       "six infinitesimal generators on seeded random inputs, exactly")
def pairing_equivariance(cfg):
    rep = bf.equivariance_check(1, 1, (1, 2), (1, 2), trials=60, seed=cfg.seed)
    rep2 = bf.equivariance_check(1, 2, (1, 2), (3, 2), trials=40,
                                 seed=cfg.seed + 1)
    return rep["ok"] and rep2["ok"], {
        "trials": rep["trials"] + rep2["trials"],
        "failures": rep["failures"] + rep2["failures"]}


@check("pairings", "omega_process_oracle", "the alternating-sum pairing "
       "agrees with the independent doubled-variable operator implementation")
def omega_process_oracle(cfg):
    rng = bf._Lcg(cfg.seed)
    ok = True
    for (n1, m1, n2, m2, p1, p2) in ((2, 0, 2, 0, 2, 0), (1, 2, 1, 2, 1, 1),
                                     (3, 2, 1, 2, 1, 2), (2, 4, 2, 4, 2, 4),
                                     (1, 2, 1, 2, 0, 1)):
        u = bf.random_biform(n1, m1, rng)
        v = bf.random_biform(n2, m2, rng)
        diff = bf.transvectant2(u, v, p1, p2) - \
            bf.transvectant2_omega(u, v, p1, p2)
        ok = ok and diff.is_zero()
    return ok, {}


@check("pairings", "equivariance_mutation_control", "a deliberately wrong "
       "sign in the Leibniz rule makes the equivariance check fail")
def equivariance_mutation_control(cfg):
    rep = bf.equivariance_check(1, 1, (1, 2), (1, 2), trials=5,
                                seed=cfg.seed, mutate=True)
    return not rep["ok"], {"failures": rep["failures"]}


@check("spencer", "spencer_dimensions", "domain 42, target 90, zero "
       "prolongations, torsion space 48 with cokernel type V14+V16+V30+V34")
def spencer_dimensions(cfg):
    rep = sp.g12_spencer_report()
    rep3 = sp.gk1_spencer_report(2)
    ok = (rep["dim_domain"] == 42 and rep["dim_target"] == 90
          and rep["dim_g1"] == 0 and rep["dim_h02"] == 48
          and rep3["dim_g1"] == 0
          and rep["cokernel_isotypic"] == {(1, 4): 1, (1, 6): 1,
                                           (3, 0): 1, (3, 4): 1})
    return ok, {
        "dims": _fields(rep, "dim_domain", "dim_target", "dim_g1", "dim_h02"),
        "domain_isotypic": rep["domain_isotypic"],
        "restricted_algebra_g1": rep3["dim_g1"],
        "restricted_cokernel_isotypic": rep3["cokernel_isotypic"],
        "cokernel_isotypic": rep["cokernel_isotypic"]}


@check("spencer", "spencer_orthogonal_sanity", "the skew-symmetrization is "
       "an isomorphism for the orthogonal algebra")
def spencer_orthogonal_sanity(cfg):
    rep = sp.prolongation_and_h02(sp.so3_algebra())
    return rep["dim_g1"] == 0 and rep["dim_h02"] == 0, {"rank": rep["rank"]}


@check("spencer", "torsion_codec_roundtrip", "the 90-coordinate torsion "
       "encoding is a bijection and decodes exactly")
def torsion_codec_roundtrip(cfg):
    rank = sp.torsion_encode_rank()
    vec = [Fraction(k * 3 - 7, 2) for k in range(90)]
    s = sp.TorsionCoords.from_vector(vec)
    rt = sp.decode_torsion(sp.encode_torsion(s))
    ok = rank == 90 and [p.constant_value() for p in rt.vector()] == vec
    return ok, {"encode_rank": rank}


@check("spencer", "spencer_coordinate_formula", "the closed-form coordinate "
       "expression of the skew-symmetrization holds for 42 symbolic "
       "parameters")
def spencer_coordinate_formula(cfg):
    return sp.spencer_coords_match(), {}


@check("spencer", "spencer_coords_mutation_control", "perturbing the -1/4 "
       "coefficient breaks the coordinate formula")
def spencer_coords_mutation_control(cfg):
    return not sp.spencer_coords_match(
        {**sp.SPENCER_COORDS, "s32": (("r32", Fraction(1, 4)),)}), {}


@check("torsion", "divisibility_criterion", "the divisibility constraint "
       "space is exactly {s14=s14p=s16=s34=0, s12pp=2 s12}, dimension 30, "
       "free rank-4 s30 block")
def divisibility_criterion(cfg):
    rep = sp.torsion_criterion_solve()
    ok = (rep["solution_dim"] == 30 and rep["matches_closed_form"]
          and rep["free_s30_dim"] == 4)
    return ok, _fields(rep, "solution_dim", "free_s30_dim", "constraint_rows")


@check("torsion", "s16_single_pair", "the pair x (x) r^2, y (x) r^2 alone "
       "forces the s16 block to vanish")
def s16_single_pair(cfg):
    rep = sp.torsion_criterion_s16_pair()
    return rep["only_s16_block"] and rep["s16_forced_zero"], {}


@check("torsion", "intrinsic_adjustment", "a unique special adjustment "
       "removes everything but the rank-four block, with the constrained "
       "shape components zero")
def intrinsic_adjustment(cfg):
    basis = sp.criterion_basis()
    point = random_rational_point(
        [f"v{k}" for k in range(len(basis))], cfg.seed)
    vec = [sum(c * x for c, x in zip(point.values(), col))
           for col in zip(*basis)]
    phi = sp.intrinsic_adjustment(sp.TorsionCoords.from_vector(vec))
    got = sp.spencer_in_coords(phi)
    want = list(vec)
    a30, b30 = sp.TorsionCoords.offsets()["s30"]
    want[a30:b30] = [Fraction(0)] * (b30 - a30)
    ok = ([p.constant_value() for p in got.vector()] == want
          and phi.r14.is_zero() and phi.r12pp.is_zero())
    return ok, {}


@check("torsion", "projected_torsion_vanishes", "the adjusted torsion "
       "projects to zero on the contact subspace for a symbolic cubic")
def projected_torsion_vanishes(cfg):
    return sp.contact_restriction_identity(), {}


@check("torsion", "splitting_correction_vanishes", "the divisibility "
       "condition forces the correction map to vanish at levels 2 and 3")
def splitting_correction_vanishes(cfg):
    r2 = sp.splitting_correction_vanishes(2)
    r3 = sp.splitting_correction_vanishes(3)
    ok = r2["forced_zero"] and r3["forced_zero"] and r2["single_r_check"]
    return ok, {"unknowns": [r2["unknowns"], r3["unknowns"]]}


@check("bianchi", "curvature_space", "the algebraic Bianchi kernel is "
       "6-dimensional and spanned by the displayed ansatz (-4,3;1,1,-7)")
def curvature_space(cfg):
    rep = ex.bianchi_solve()
    return rep["solution_dim"] == 6 and rep["ansatz_spans_solutions"], {
        "solution_dim": rep["solution_dim"],
        "display_coefficients": rep["display_coefficients"],
        "kernel_basis": rep["kernel"]}


@check("bianchi", "parameter_rules_derived", "the solved parameter "
       "differential rules match the expected displays up to one uniform "
       "reported scale")
def parameter_rules_derived(cfg):
    rep = ex.derived_rule_report()
    ok = (rep["matches_display_up_to_scale"]
          and rep["b_parametrization_matches_display"])
    return ok, _fields(rep, "uniform_rhs_scale", "derived_coefficients")


@check("bianchi", "connection_square_scale", "the connection square is a "
       "fitted multiple of the paired expression (open normalization, value "
       "reported)")
def connection_square_scale(cfg):
    rep = ex.omega_wedge_pairing_scale()
    # the componentwise fit gates; the certificate carries the scale
    return rep["fits_every_component"], _fields(
        rep, "matches_minus_half_pairing", "fitted_scale")


def _closure(cfg, mode):
    rep = ex.d_squared_report(ex.build_system(mode))
    return rep["all_zero"], {"residuals_checked": rep["count"]}


for _mode in ("h12", "g12"):
    check("closure", f"closure_{_mode}", f"d^2 = 0 on every generator and "
          f"parameter in the torsion-free {_mode} system")(
        partial(_closure, mode=_mode))


@check("closure", "torsionful_residual_structure", "with the rank-four "
       "torsion block the theta-residual equals exactly the predicted "
       "torsion derivative terms")
def torsionful_residual_structure(cfg):
    rep = ex.torsion_mode_structure_check()
    return (rep["residual_is_predicted_torsion_terms"]
            and rep["residual_nonzero"]), rep


@check("closure", "bianchi_combination", "omitting the curvature shifts the "
       "theta-residual by exactly the Bianchi combination")
def bianchi_combination(cfg):
    rep = ex.bianchi_combination_check()
    return rep["difference_is_bianchi_combination"], rep


@check("closure", "closure_mutation_control", "perturbing the curvature "
       "coefficient -7 to -6 breaks closure")
def closure_mutation_control(cfg):
    bad = ex.build_system("h12", curvature_coeffs=(
        *ex.CURVATURE_DISPLAY[:-1], ex.CURVATURE_DISPLAY[-1] + 1))
    return not ex.d_squared_report(bad)["all_zero"], {}


@check("jmatrix", "jacobian_contraction", "dK = J (theta + omega_0) "
       "reproduces the parameter rules exactly")
def jacobian_contraction(cfg):
    return ig.contraction_identity_holds(), {}


@check("jmatrix", "jacobian_determinant_vanishes", "det J = 0 identically: "
       "nonzero left-kernel row plus fraction-free determinant on the "
       "xy-specialization")
def jacobian_determinant_vanishes(cfg):
    rep = ig.det_vanishes_symbolically()
    return rep["det_identically_zero"], rep


@check("jmatrix", "generic_rank_10", "rank exactly 10 at a seeded rational "
       "point off the singular locus, lower at the flat point")
def generic_rank_10(cfg):
    rep = ig.rank_certificate(cfg.numeric_c(), cfg.seed)
    return rep["rank_is_10"] and rep["flat_point_rank_below_10"], rep


@check("jmatrix", "rank_dichotomy", "rank 10 exactly where the two gradients "
       "are independent, on 20+ seeded points and engineered singular "
       "members")
def rank_dichotomy(cfg):
    rep = ig.rank_dichotomy_samples(cfg.numeric_c(),
                                    range(cfg.seed, cfg.seed + 20))
    return rep["all_consistent"], {"samples": len(rep["samples"])}


@check("integrals", "conservation_identity", "grad(f_i) . J = 0 identically "
       "for both first integrals")
def conservation_identity(cfg):
    return ig.conservation_identity()["both"], {}


@check("integrals", "gradient_rows", "the pairing-coordinate gradient "
       "components solve their defining display exactly")
def gradient_rows(cfg):
    return ig.gradient_rows_consistent(), {}


@check("integrals", "kernel_membership", "the gradient columns span the "
       "right kernel of J identically")
def kernel_membership(cfg):
    return ig.kernel_membership(), {}


@check("integrals", "integrals_equivariant", "both first integrals are "
       "killed by all six infinitesimal generators")
def integrals_equivariant(cfg):
    return ig.integrals_equivariant(), {}


@check("integrals", "symmetry_fields", "the two gradient fields preserve the "
       "full coframe and commute")
def symmetry_fields(cfg):
    rep = ig.symmetry_fields_check()
    return rep["all"], _fields(rep, "lie_derivative_vanishes",
                               "display_scaling_variant_holds",
                               "bracket_vanishes")


@check("integrals", "fields_vanish_flat", "both fields vanish at the flat "
       "point a = b = 0")
def fields_vanish_flat(cfg):
    return ig.fields_vanish_at_flat_point(), {}


@check("integrals", "conservation_mutation_control", "perturbing the 72 to "
       "71 breaks the conservation identity")
def conservation_mutation_control(cfg):
    # e1 is odd in a20, so f1 + e1 is the display with 71 in place of 72
    mutant = ig.first_integrals()[0] + ig.invariant_functions()["e1"]
    return not all(r.is_zero()
                   for r in ig.row_times_j(ig.gradient(mutant))), {}


@check("integrals", "constants_replay", "structure constants are "
       "reproducible under seed replay")
def constants_replay(cfg):
    def constants():
        pt = random_rational_point(ex.PARAM_SYMS, cfg.seed)
        return ig.structure_constants(ig.CurvaturePoint.from_assignment(pt))
    const1, const2 = constants(), constants()
    return const1 == const2, _fields(const1, "c1", "c2")


@check("restriction", "restriction_chain", "the compatibility ideal forces "
       "2 a20 = 3 a02 and the gradient form of b; constraint blocks have "
       "ranks 3 and 2 and cut an 8-dimensional admissible set")
def restriction_chain(cfg):
    rep = ig.restriction_chain()
    ok = (rep["a_constraints_match_display"]
          and rep["b_constraint_rank"] == 2
          and rep["b_solution_is_gradient_subspace"]
          and rep["blocks_independent"]
          and rep["admissible_submanifold_dim"] == 8)
    return ok, rep


@check("restriction", "first_integral_vanishes", "the first integral "
       "vanishes identically on the admissible locus")
def first_integral_vanishes(cfg):
    return ig.f1_vanishes_on_restriction_locus(), {}


@check("restriction", "admissibility_flag", "a point satisfying both "
       "restriction conditions is flagged admissible (first constant zero)")
def admissibility_flag(cfg):
    a20 = bf.from_coords(2, 0, [Fraction(3), Fraction(0), Fraction(-3)])
    u = bf.slot2_form(parse_poly("x2^3 - 2*x2*y2^2"), 3)
    const = ig.structure_constants(ig.admissible_point(a20, u, Fraction(5)))
    return const["restriction_admissible"], _fields(const, "c1", "c2")


@check("frobenius", "local_symmetry_obstruction", "the reduced differential "
       "of the lowest connection component is 9 <a02, x^2>_2 "
       "theta(1,0)^theta(-1,0) exactly")
def local_symmetry_obstruction(cfg):
    rep = ex.local_symmetry_obstruction()
    return rep["matches_display"], {"residual": str(rep["residual"])}


@check("frobenius", "full_coframe_trivial", "the ideal spanned by the entire "
       "coframe has identically zero residuals")
def full_coframe_trivial(cfg):
    sys_g = ex.build_system("g12")
    gens = [ex.FormExpr.gen(sys_g.cf, i) for i in range(13)]
    rep = ex.frobenius_residual(gens, sys_g)
    return rep["frobenius_holds_identically"], {}


# suites in order of their first check
SUITE_ORDER = tuple(dict.fromkeys(c.suite for c in CHECKS))


def run_suites(cfg: SuiteConfig) -> dict:
    started = time.monotonic()
    checks = [_check(c, cfg) for c in CHECKS if c.suite in cfg.suites]
    summary = {"pass": sum(1 for c in checks if c["status"] == "pass"),
               "fail": sum(1 for c in checks if c["status"] == "fail"),
               "skip": sum(1 for c in checks if c["status"] == "skip")}
    return {
        "tool": "g12calc",
        "version": __version__,
        "seed": cfg.seed,
        "c": str(cfg.c_value),
        "suites": cfg.suites,
        "checks": checks,
        "summary": summary,
        "wall_time": round(time.monotonic() - started, 6),
    }


def report_text(report: dict) -> str:
    lines = [f"g12calc {report['version']} verification "
             f"(seed {report['seed']}, c {report['c']})"]
    for c in report["checks"]:
        lines.append(f"[{c['status'].upper():4}] {c['suite']:<11} "
                     f"{c['check']:<34} {c['wall_time']:.2f}s")
    s = report["summary"]
    lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, "
                 f"{s['skip']} skip")
    return "\n".join(lines)


def strip_timings(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    out.pop("wall_time", None)
    for c in out["checks"]:
        c.pop("wall_time", None)
    return out


# -- expression commands ------------------------------------------------------


def _parse_v_expr(text: str):
    """V(n,m) or V(n,m)*V(p,q)."""
    import re
    pat = re.compile(r"\s*V\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*")
    m = pat.match(text)
    if not m:
        return None
    first = (int(m.group(1)), int(m.group(2)))
    rest = text[m.end():]
    if not rest.strip():
        return [first]
    if not rest.lstrip().startswith("*"):
        raise ParseError("expected '*' between module factors",
                         len(text) - len(rest))
    rest = rest.lstrip()[1:]
    m2 = pat.match(rest)
    if not m2 or rest[m2.end():].strip():
        raise ParseError("expected a second module factor", len(text))
    return [first, (int(m2.group(1)), int(m2.group(2)))]


def _parse_t_expr(text: str):
    """T(u, v; p1, p2) with polynomial literals."""
    stripped = text.strip()
    if not (stripped.startswith("T(") and stripped.endswith(")")):
        return None
    inner = stripped[2:-1]
    if ";" not in inner:
        raise ParseError("expected ';' separating forms from orders", 0)
    forms, orders = inner.rsplit(";", 1)
    # a polynomial literal has no comma, so the first one splits the forms
    if "," not in forms:
        raise ParseError("expected two forms separated by ','", 0)
    u_text, v_text = forms.split(",", 1)
    try:
        p1, p2 = (int(p) for p in orders.split(","))
    except ValueError:
        raise ParseError("expected two integer orders after ';'",
                         text.rindex(";") + 1) from None
    return u_text, v_text, p1, p2


def _biform_from_literal(text: str) -> bf.BiForm:
    poly = parse_poly(text)
    degrees = poly.bidegrees()
    n = max((n for n, _m in degrees), default=0)
    m = max((m for _n, m in degrees), default=0)
    return bf.BiForm(n, m, poly)


# The largest product V(n,m)*V(p,q) that `decompose` answers.  The answer
# is cross-checked by building the whole tensor representation, and that
# cost grows faster than the dimension: on a 2-CPU VM (Python 3.11)
# V(6,6)*V(6,6) (2401) takes 0.2 s, the worst 4096-dimensional shape
# measured 0.5 s, V(10,10)*V(10,10) (14641) 1.7 s and V(20,20)*V(20,20)
# (194481) more than 60 s.
MAX_PRODUCT_DIM = 4096


def cmd_decompose(expr: str) -> int:
    v = _parse_v_expr(expr)
    if v is not None:
        if len(v) == 1:
            dec = {v[0]: 1}
        else:
            (n, m), (p, q) = v
            dim = bf.dim_v(n, m) * bf.dim_v(p, q)
            if dim > MAX_PRODUCT_DIM or max(n, m, p, q) > _MAX_EXP:
                print(f"error: V({n},{m})*V({p},{q}) has dimension {dim} "
                      f"and degree {max(n, m, p, q)}; a product is "
                      f"answered up to dimension {MAX_PRODUCT_DIM} and "
                      f"degree {_MAX_EXP}", file=sys.stderr)
                return 2
            dec = bf.clebsch_gordan2(v[0], v[1])
            got = bf.isotypic_decompose(
                bf.Rep.space(*v[0]).tensor(bf.Rep.space(*v[1])))
            if got != dec:
                print("error: highest-weight decomposition disagrees with "
                      "the closed formula", file=sys.stderr)
                return 1
        total = sum(mult * bf.dim_v(*k) for k, mult in dec.items())
        for (i, j), mult in sorted(dec.items(), reverse=True):
            prefix = f"{mult} x " if mult > 1 else ""
            print(f"  {prefix}V({i},{j})   dim {mult * bf.dim_v(i, j)}")
        print(f"total dimension {total}")
        return 0
    t = _parse_t_expr(expr)
    if t is not None:
        u_text, v_text, p1, p2 = t
        return cmd_transvect(u_text, v_text, p1, p2)
    print("error: expected V(n,m), V(n,m)*V(p,q) or T(u,v;p1,p2)",
          file=sys.stderr)
    return 2


def cmd_transvect(u_text: str, v_text: str, p1: int, p2: int) -> int:
    u = _biform_from_literal(u_text)
    v = _biform_from_literal(v_text)
    try:
        w = bf.transvectant2(u, v, p1, p2)
    except OverflowError as exc:
        print(f"error: the pairing overflows: {exc}", file=sys.stderr)
        return 2
    print(f"bidegree ({w.n},{w.m})")
    print(w.poly)
    return 0


def cmd_verify(suites: List[str], seed: int, c_text: str,
               out: Optional[str], fmt: str) -> int:
    """Run the suites, print the report and write it to `out`, if given."""
    try:
        cfg = SuiteConfig(suites, seed, c_text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_suites(cfg)
    payload = (json.dumps(report, sort_keys=True, indent=1)
               if fmt == "json" else report_text(report))
    print(payload)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error writing report: {exc}", file=sys.stderr)
            return 2
    return 0 if report["summary"]["fail"] == 0 else 1


def cmd_closure(mode: str) -> int:
    """Emit the d^2 residual report for one structure-system mode."""
    if mode == "torsion-s30":
        # theta residuals are genuinely nonzero here; the check is that
        # they equal the predicted torsion derivative terms
        structure = ex.torsion_mode_structure_check()
        payload = {"mode": mode, "torsion_structure": structure, "all_zero":
                   structure["residual_is_predicted_torsion_terms"]}
    else:
        rep = ex.d_squared_report(ex.build_system(mode))
        payload = {"mode": mode, "all_zero": rep["all_zero"],
                   "residuals": {name: str(res)
                                 for name, res in rep["residuals"].items()}}
    print(json.dumps(payload, sort_keys=True, indent=1))
    return 0 if payload["all_zero"] else 1


def cmd_jmatrix(c_text: str, emit: str) -> int:
    c = None if c_text == "symbolic" else Fraction(c_text)
    j = ig.assemble_J(c)
    if emit == "json":
        print(json.dumps(j.to_json(), sort_keys=True))
    else:
        for i in range(j.rows):
            print("  ".join(str(j[i, k]) for k in range(j.cols)))
    return 0


def cmd_rank(c_text: str, seed: int) -> int:
    rep = ig.rank_certificate(Fraction(c_text), seed)
    print(json.dumps(_json_safe(rep), sort_keys=True, indent=1))
    return 0 if rep["rank_is_10"] else 1


def cmd_integrals() -> int:
    conserved = ig.conservation_identity()["both"]
    in_kernel = ig.kernel_membership()
    print(f"conservation identities: {'pass' if conserved else 'fail'}")
    print(f"kernel membership: {'pass' if in_kernel else 'fail'}")
    return 0 if conserved and in_kernel else 1


def cmd_constants(point_path: str) -> int:
    with open(point_path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            print(f"error: {point_path} is not JSON: {exc}", file=sys.stderr)
            return 2
    if not isinstance(data, dict):
        print(f"error: {point_path} is not a JSON object of assignments",
              file=sys.stderr)
        return 2
    unknown = [key for key in data if key not in ex.PARAM_SYMS]
    if unknown:
        print(f"error: point file assigns unknown parameters {unknown}",
              file=sys.stderr)
        return 2
    assignment = {}
    for key, value in data.items():
        try:
            if isinstance(value, dict):
                poly = Poly.from_json(value)
                if not poly.is_constant():
                    print(f"error: entry {key} is not a degree-0 assignment",
                          file=sys.stderr)
                    return 2
                assignment[key] = poly.constant_value()
            else:
                assignment[key] = _exact(value)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            print(f"error: entry {key}: {exc}", file=sys.stderr)
            return 2
    missing = [s for s in ex.PARAM_SYMS if s not in assignment]
    if missing:
        print(f"error: point file lacks assignments for {missing}",
              file=sys.stderr)
        return 2
    const = ig.structure_constants(ig.CurvaturePoint.from_assignment(assignment))
    print(json.dumps(_json_safe(const), sort_keys=True, indent=1))
    return 0


# -- argument handling ---------------------------------------------------------


def _env_default(name: str, fallback):
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


def _c_text(text: str) -> str:
    """argparse type of --c: 'symbolic' or an exact rational literal,
    kept as given so the report records it unchanged."""
    if text != "symbolic":
        try:
            Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"expected 'symbolic' or a rational number, got {text!r}"
            ) from None
    return text


def _format_text(text: str) -> str:
    """argparse type of verify's --format; unlike `choices`, a type also
    checks the G12CALC_FORMAT default."""
    if text not in ("json", "text"):
        raise argparse.ArgumentTypeError(
            f"expected 'json' or 'text', got {text!r}")
    return text


def _c_rational(text: str) -> str:
    """argparse type of rank's --c, which is taken at a rational point."""
    if text == "symbolic":
        raise argparse.ArgumentTypeError(
            "rank is taken at a point; expected a rational number, got "
            "'symbolic'")
    return _c_text(text)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; each subcommand's `run(args)` is its
    handler."""
    parser = argparse.ArgumentParser(
        prog="g12calc",
        description="Exact verification suite for the rank-six "
                    "structure-equation calculus.")
    parser.set_defaults(run=None)
    sub = parser.add_subparsers()

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suites", nargs="+", default=["all"],
                    help=f"subset of {', '.join(SUITE_ORDER)} or 'all'")
    pv.add_argument("--seed", type=int, default=_env_default("seed", "7"))
    pv.add_argument("--c", type=_c_text,
                    default=_env_default("c", "symbolic"),
                    help="rational value for the constant, or 'symbolic'")
    pv.add_argument("--out", default=_env_default("out", None))
    pv.add_argument("--format", type=_format_text, metavar="{json,text}",
                    default=_env_default("format", "json"))
    pv.set_defaults(run=lambda a: cmd_verify(a.suites, a.seed, a.c, a.out,
                                             a.format))

    pd = sub.add_parser("decompose", help="isotypic decomposition")
    pd.add_argument("expr")
    pd.set_defaults(run=lambda a: cmd_decompose(a.expr))

    pt = sub.add_parser("transvect", help="evaluate a pairing")
    pt.add_argument("u")
    pt.add_argument("v")
    pt.add_argument("p1", type=int)
    pt.add_argument("p2", type=int)
    pt.set_defaults(run=lambda a: cmd_transvect(a.u, a.v, a.p1, a.p2))

    pl = sub.add_parser("closure", help="d^2 residual report for a mode")
    pl.add_argument("--mode", choices=("g12", "h12", "torsion-s30"),
                    default="h12")
    pl.set_defaults(run=lambda a: cmd_closure(a.mode))

    pj = sub.add_parser("jmatrix", help="emit the curvature Jacobian")
    pj.add_argument("--c", type=_c_text, default="symbolic")
    pj.add_argument("--emit", choices=("json", "text"), default="json")
    pj.set_defaults(run=lambda a: cmd_jmatrix(a.c, a.emit))

    pr = sub.add_parser("rank", help="rank certificate at a seeded point")
    pr.add_argument("--seed", type=int, default=_env_default("seed", "7"))
    pr.add_argument("--c", type=_c_rational, default="1")
    pr.set_defaults(run=lambda a: cmd_rank(a.c, a.seed))

    pi = sub.add_parser("integrals", help="conservation identity check")
    pi.set_defaults(run=lambda a: cmd_integrals())

    pc = sub.add_parser("constants", help="structure constants at a point")
    pc.add_argument("--point", required=True)
    pc.set_defaults(run=lambda a: cmd_constants(a.point))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.run is None:
        parser.print_help()
        return 2
    try:
        return args.run(args)
    except (ParseError, bf.DegreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
