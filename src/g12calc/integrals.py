"""The curvature map apparatus: the 12 x 12 parameter Jacobian, its rank
and kernel, the scalar invariants, the two first integrals and their
conservation identities, and the restriction chain with its
admissibility test.

The curvature point space is V_{2,0} + V_{0,2} + V_{1,2} with the 12
coordinates (a20: 3, a02: 3, b: 6) plus the constant c.  All identities
are polynomial identities over the rationals in these 13 symbols.  The
flat point a = b = 0 is FLAT, and the admissible locus is stated once,
by admissible_point.  The restriction chain reads J: its five
constraint differentials are constant functionals of the 12 coordinates
times J.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import binforms as bf
from .binforms import (BiForm, BlockCoords, basis, dim_v, from_coords,
                       gradient_form, pairing_table, transvectant2)
from .excalc import (A02_SYMS, A20_SYMS, B_SYMS, C_SYM, CURVATURE_SHAPE,
                     LIVE_NAMES, PARAM_SYMS, FormExpr, build_system,
                     contract, exterior_d, form_sum, frobenius_residual,
                     reduce_mod_ideal)
from .linalg import (PolyMatrix, invert_rational, kernel_basis, linear_rows,
                     matrix_det, rank, random_rational_point, solve_sparse,
                     spans_equal)
from .poly import Poly, Scalar, Substitution, declare, dot, var_key


class CurvaturePoint(BlockCoords):
    """A point of the curvature space, exact rational or symbolic: the
    blocks a20, a02, b and the constant c (symbolic unless given)."""

    SHAPE = CURVATURE_SHAPE

    def __init__(self, a20: BiForm, a02: BiForm, b: BiForm, c=None):
        super().__init__(a20, a02, b)
        self.c = Poly.var(C_SYM) if c is None else (
            c if isinstance(c, Poly) else Poly.const(c))

    @classmethod
    def from_assignment(cls, assignment: Dict[str, Scalar]) -> "CurvaturePoint":
        return super().from_assignment(assignment, c=assignment.get(C_SYM))

    def assignment(self) -> Dict[str, Poly]:
        return {**super().assignment(), C_SYM: self.c}


K_SYMS = tuple(CurvaturePoint.symbols())
# the flat point a = b = 0; c is added by each caller
FLAT = MappingProxyType(dict.fromkeys(K_SYMS, Fraction(0)))
# the parameters of the specialization a20 = t xy, a02 = t' xy
XY_PARAMS = ("t", "tp")

# The curvature ring and the jmatrix parameters live for the whole process:
# they take the registry fields right after the form variables, so the keys
# of J and of the first integrals stay short (see g12calc.poly).
declare(PARAM_SYMS + XY_PARAMS)


# the weight of each block's pairing in the display of df_k (gradient_rows)
_DISPLAY_WEIGHTS = {"a20": Fraction(1, 6), "a02": Fraction(1, 2),
                    "b": Fraction(1, 2)}


# -- the parameter Jacobian --------------------------------------------------


@lru_cache(maxsize=None)
def _jmatrix_symbolic() -> PolyMatrix:
    """12 x 12 matrix with dK = J (theta + omega_0): rows are the
    differential rules of the curvature coordinates, columns the live
    coframe directions, entries polynomials in the 13 parameters."""
    sys = build_system("h12")
    cf = sys.cf
    rows = []
    for s in K_SYMS:
        rule = sys.param_rules[s]
        row = []
        for col in LIVE_NAMES:
            row.append(rule.coefficient((cf.index[col],)))
        rows.append(row)
    return PolyMatrix(rows)


def assemble_J(c=None) -> PolyMatrix:
    """The curvature Jacobian; c symbolic by default, or substituted."""
    j = _jmatrix_symbolic()
    if c is None:
        return j
    return j.subs({C_SYM: c if isinstance(c, Poly) else Poly.const(c)})


def xy_specialised_jacobian() -> PolyMatrix:
    """J on the family a20 = t xy, a02 = t' xy (t, t' = XY_PARAMS), with b
    and c symbolic: mostly one-term entries in b, c, t and t'."""
    t, tp = XY_PARAMS
    zero = Poly.const(0)
    return _jmatrix_symbolic().subs({
        A20_SYMS[0]: zero, A20_SYMS[1]: Poly.var(t), A20_SYMS[2]: zero,
        A02_SYMS[0]: zero, A02_SYMS[1]: Poly.var(tp), A02_SYMS[2]: zero})


def contraction_identity_holds() -> bool:
    """dK = J (theta + omega_0), checked as an exact identity of forms."""
    sys = build_system("h12")
    cf = sys.cf
    j = _jmatrix_symbolic()
    for i, s in enumerate(K_SYMS):
        recon = form_sum(cf, [(FormExpr.gen(cf, col), j[i, k])
                              for k, col in enumerate(LIVE_NAMES)])
        if not (recon - sys.param_rules[s]).is_zero():
            return False
    return True


# -- invariants and first integrals ------------------------------------------


def invariant_functions(pt: Optional[CurvaturePoint] = None) -> dict:
    """The scalar and form-valued invariants of a curvature point."""
    if pt is None:
        pt = CurvaturePoint.symbolic()
    a20, a02, b = pt.a20, pt.a02, pt.b
    d1 = transvectant2(a20, a20, 2, 0).poly
    d2 = transvectant2(a02, a02, 0, 2).poly
    e1 = transvectant2(transvectant2(a20, b, 1, 0), b, 1, 2).poly
    e2 = transvectant2(transvectant2(a02, b, 0, 1), b, 1, 2).poly
    b02 = transvectant2(b, b, 1, 1)
    b20 = transvectant2(b, b, 0, 2)
    b24 = transvectant2(b, b, 0, 0)
    prod = transvectant2(a20, a02, 0, 0)          # V_{2,2}
    p20 = transvectant2(prod, a02, 0, 2)          # V_{2,0}
    # the printed definition of the V_{2,4} invariant is ill-typed for its
    # own pairing; the unique well-formed cubic is a20 a02^2, validated by
    # the conservation identity
    p24 = transvectant2(prod, a02, 0, 0)          # V_{2,4}
    p02 = (16 * transvectant2(prod, a20, 2, 0)
           + 9 * transvectant2(transvectant2(a02, a02, 0, 0), a02, 0, 2)
           + a02 * (pt.c * -12) + 3 * b02)
    return {"d1": d1, "d2": d2, "e1": e1, "e2": e2,
            "b02": b02, "b20": b20, "b24": b24,
            "p20": p20, "p24": p24, "p02": p02}


@lru_cache(maxsize=None)
def first_integrals() -> Tuple[Poly, Poly]:
    """The two conserved polynomials in the 13 parameters.

    These are the displayed quartic/sextic invariant combinations
    evaluated at (-a20, -a02, b, -c).  The frozen structure system is the
    displayed one composed with this parameter involution (the uniform -1
    on the rule right-hand sides), so the displays are exactly conserved
    at this point.
    """
    sym = CurvaturePoint.symbolic()
    pt = CurvaturePoint(sym.a20 * -1, sym.a02 * -1, sym.b, -sym.c)
    inv = invariant_functions(pt)
    d1, d2, e1, e2 = inv["d1"], inv["d2"], inv["e1"], inv["e2"]
    c = pt.c
    f1 = (4 * d1 - 9 * d2) * (4 * d1 + 27 * d2 - 6 * c) + 72 * e1 - 54 * e2
    f2 = (4 * d2 * (4 * d1 + 9 * d2 - 3 * c) ** 2
          + 96 * transvectant2(inv["p20"], inv["b20"], 2, 0).poly
          + 3 * transvectant2(inv["p02"], inv["b02"], 0, 2).poly
          + 48 * transvectant2(inv["p24"], inv["b24"], 2, 4).poly)
    return f1, f2


def gradient(f: Poly) -> List[Poly]:
    return [f.diff(s) for s in K_SYMS]


def row_times_j(row: List[Poly]) -> List[Poly]:
    """The row vector `row` times J, one polynomial per column."""
    j = _jmatrix_symbolic()
    return [dot((row[i], j[i, col]) for i in range(12)) for col in range(12)]


@lru_cache(maxsize=None)
def _integral_gradients() -> Tuple[Tuple[Poly, ...], ...]:
    """The gradient rows of f1 and f2, built once."""
    return tuple(tuple(gradient(f)) for f in first_integrals())


def conservation_identity() -> dict:
    """grad(f_i) . J = 0 as a row-vector polynomial identity, i = 1, 2."""
    out = {}
    for name, grad in zip(("f1", "f2"), _integral_gradients()):
        residuals = row_times_j(grad)
        out[name] = all(r.is_zero() for r in residuals)
        out[f"{name}_residuals"] = residuals
    out["both"] = out["f1"] and out["f2"]
    return out


# -- gradient rows and symmetry data ----------------------------------------


@lru_cache(maxsize=None)
def _gram_inverse(n: int, m: int) -> tuple:
    """Inverse transpose-Gram matrix of the full contraction on V_{n,m}:
    entry (i, j) of the Gram matrix is the constant of pairing_table."""
    table = pairing_table(n, m, n, m, n, m)
    d = dim_v(n, m)
    gramT = [[table[j, i][1] if (j, i) in table else 0 for j in range(d)]
             for i in range(d)]
    return tuple(tuple(r) for r in invert_rational(gramT))


def gradient_rows() -> dict:
    """Solve the defining display for the r-components of df_k.

    df_k = (1/6) <r20, da20>_{2,0} + (1/2) <r02, da02>_{0,2}
         + (1/2) <r12, db>_{1,2}: the pairing against coordinate
    differentials is an invertible relabeling of the gradient.
    """
    off = CurvaturePoint.offsets()
    out = {}
    for k, grad in zip(("1", "2"), _integral_gradients()):
        for bname, (n, m) in CurvaturePoint.SHAPE:
            ginv = _gram_inverse(n, m)
            factor = _DISPLAY_WEIGHTS[bname]
            block = grad[slice(*off[bname])]
            out[f"r{k}_{bname}"] = from_coords(n, m, [
                dot((g, x / factor) for g, x in zip(block, row))
                for row in ginv])
    return out


def gradient_rows_consistent() -> bool:
    """Re-assemble df_k from the solved r-components and compare with the
    coordinate gradient (the same data read two ways)."""
    off = CurvaturePoint.offsets()
    rows = gradient_rows()
    for k, grad in zip(("1", "2"), _integral_gradients()):
        for bname, (n, m) in CurvaturePoint.SHAPE:
            r = rows[f"r{k}_{bname}"]
            block = grad[slice(*off[bname])]
            for e, g in zip(basis(n, m), block):
                paired = (transvectant2(r, e, n, m).poly
                          * _DISPLAY_WEIGHTS[bname])
                if not (paired - g).is_zero():
                    return False
    return True


def kernel_columns() -> List[List[Poly]]:
    """The two symbolic kernel columns of J: coframe arrangements of the
    gradient rows, with the tautological block entering opposite to the
    connection blocks (theta components -r12, connection components
    r20 + r02; the relative sign is the frozen-convention image of the
    displayed kernel description)."""
    rows = gradient_rows()
    cols = []
    for k in ("1", "2"):
        col = ([p * -1 for p in rows[f"r{k}_b"].coords()]
               + rows[f"r{k}_a20"].coords()
               + rows[f"r{k}_a02"].coords())
        cols.append(col)
    return cols


def kernel_membership() -> bool:
    """J . R_k = 0 identically for both gradient columns."""
    j = _jmatrix_symbolic()
    return all(dot((j[i, k], col[k]) for k in range(12)).is_zero()
               for col in kernel_columns() for i in range(12))


# -- rank certificates -------------------------------------------------------


def det_vanishes_symbolically() -> dict:
    """det(J) = 0 identically: certified by grad f1, a nonzero row that
    is checked here to be a left-kernel row (grad f1 . J = 0 exactly), and
    cross-checked by a fraction-free determinant on the rank-simplifying
    specialization a20 = t xy, a02 = t' xy."""
    grad = _integral_gradients()[0]
    nonzero_left_kernel = any(not g.is_zero() for g in grad)
    annihilates = all(r.is_zero() for r in row_times_j(grad))
    det = matrix_det(xy_specialised_jacobian())
    return {"left_kernel_nonzero": nonzero_left_kernel,
            "left_kernel_row_annihilates_J": annihilates,
            "specialized_det_zero": det.is_zero(),
            "det_identically_zero": (nonzero_left_kernel and annihilates
                                     and det.is_zero())}


def sigma_c_membership(assignment: Dict[str, Scalar]) -> bool:
    """Is the point on the singular locus?  Exact: the gradient rows of
    f1 and f2 there have rank below 2."""
    sub = Substitution(assignment)
    return rank([sub.values(g) for g in _integral_gradients()]) < 2


def _rank_at(assignment: Dict[str, Scalar]) -> int:
    """Exact rank of J at a rational point."""
    return rank(_jmatrix_symbolic().subs(assignment).constant_rows())


def rank_certificate(c_value: Scalar, seed: int) -> dict:
    """Generic rank 10: exact kernel columns give rank <= 10 wherever the
    two gradients are independent; an exact evaluation at a seeded
    rational point off the singular locus gives rank >= 10 (the seeds
    seed, seed + 1, ... are tried, at most 10).  Also checks the
    degenerate point a = b = 0 where both gradients vanish."""
    used_seed = seed
    for _ in range(10):
        assignment = random_rational_point(list(K_SYMS), used_seed)
        assignment[C_SYM] = Fraction(c_value)
        if not sigma_c_membership(assignment):
            break
        used_seed += 1
    else:
        raise ValueError("could not find a point off the singular locus")
    rank_j = _rank_at(assignment)
    flat = {**FLAT, C_SYM: Fraction(c_value)}
    rank_flat = _rank_at(flat)
    return {
        "seed": used_seed,
        "c": str(Fraction(c_value)),
        "point": {k: str(v) for k, v in assignment.items()},
        "rank_at_point": rank_j,
        "rank_is_10": rank_j == 10,
        "flat_point_rank": rank_flat,
        "flat_point_rank_below_10": rank_flat < 10,
        "flat_point_on_sigma": sigma_c_membership(flat),
    }


def rank_dichotomy_samples(c_value: Scalar, seeds: Sequence[int]) -> dict:
    """rank(J) = 10 exactly when the gradients are independent, sampled
    at seeded points plus engineered singular-locus members."""
    # the seeded points, then engineered singular points: a = b = 0 and
    # an a20-only point
    points = [(seed, random_rational_point(list(K_SYMS), seed))
              for seed in seeds]
    points += [(None, FLAT), (None, {**FLAT, A20_SYMS[1]: Fraction(1)})]
    results = []
    for seed, point in points:
        assignment = {**point, C_SYM: Fraction(c_value)}
        on_sigma = sigma_c_membership(assignment)
        rk = _rank_at(assignment)
        results.append({"seed": seed, "on_sigma": on_sigma, "rank": rk,
                        "consistent": (rk == 10) == (not on_sigma)})
    return {"samples": results,
            "all_consistent": all(r["consistent"] for r in results)}


def structure_constants(pt: CurvaturePoint) -> dict:
    """(c, c1, c2) at a point, with the restriction-admissibility flag."""
    # Fractions, as `constant_value()` gives c: a report prints each "p/q"
    c1, c2 = map(Fraction, Substitution(pt.assignment()).values(
        first_integrals()))
    return {"c": pt.c.constant_value(), "c1": c1, "c2": c2,
            "restriction_admissible": c1 == 0}


# -- equivariance and symmetry fields ----------------------------------------


def integrals_equivariant() -> bool:
    """The first integrals are killed by the infinitesimal action on the
    12 coordinates (both sl2 factors, all six generators)."""
    pt = CurvaturePoint.symbolic()
    for name in bf.GENERATOR_NAMES:
        flow = CurvaturePoint(*(bf.generator_action(name, form)
                                for form in pt.blocks())).assignment()
        for grad in _integral_gradients():
            if not dot(zip(grad, (flow[s] for s in K_SYMS))).is_zero():
                return False
    return True


@lru_cache(maxsize=None)
def symmetry_fields_check() -> Mapping:
    """The two gradient fields are symmetries of the coframe and commute.

    The fields Z_k are given by the kernel-aligned contraction data
    (theta components -r12, connection components r20 + r02).  For each
    field and each tautological and connection component alpha the two
    Cartan terms d(alpha(Z_k)) and iota_{Z_k} d(alpha) are formed once.
    Their sum, the Lie derivative of alpha along Z_k, vanishes
    identically (the fields are infinitesimal automorphisms of the full
    coframe; this is the invariance the fiber-translation construction
    needs, and is strictly stronger than a scaling symmetry).  The
    bracket is read off the same terms: alpha([Z_1, Z_2]) =
    iota_{Z_1} d(alpha(Z_2)) - iota_{Z_2} d(alpha(Z_1))
    - iota_{Z_2} iota_{Z_1} d(alpha) vanishes for every alpha.  All
    checks are exact polynomial identities in the 13 parameters.  The
    cached result is read-only at both levels.
    """
    sys = build_system("h12")
    cf = sys.cf
    values = {k: {cf.index[name]: c for name, c in zip(LIVE_NAMES, col)}
              for k, col in zip(("1", "2"), kernel_columns())}
    # the Cartan terms d(alpha(Z_k)) and iota_{Z_k} d(alpha), by k and alpha
    d_of_value = {k: {} for k in values}
    iota_of_d = {k: {} for k in values}
    lie_invariance = {}
    lie_display_scaling = {}
    for k, vals in values.items():
        inv_ok = True
        scale_ok = True
        for name in LIVE_NAMES:
            gidx = cf.index[name]
            dpart = exterior_d(
                FormExpr.scalar(cf, vals.get(gidx, Poly.zero())), sys)
            ipart = contract(sys.gen_rules[gidx], vals)
            d_of_value[k][name], iota_of_d[k][name] = dpart, ipart
            lie = dpart + ipart
            if not lie.is_zero():
                inv_ok = False
            if not (lie - FormExpr.gen(cf, name)).is_zero():
                scale_ok = False
        lie_invariance[k] = inv_ok
        lie_display_scaling[k] = scale_ok
    v1, v2 = values["1"], values["2"]
    bracket_ok = all(
        (contract(d_of_value["2"][name], v1)
         - contract(d_of_value["1"][name], v2)
         - contract(iota_of_d["1"][name], v2)).is_zero()
        for name in LIVE_NAMES)
    return MappingProxyType({
        "lie_derivative_vanishes": MappingProxyType(lie_invariance),
        "display_scaling_variant_holds": MappingProxyType(lie_display_scaling),
        "bracket_vanishes": bracket_ok,
        "all": all(lie_invariance.values()) and bracket_ok})


def fields_vanish_at_flat_point() -> bool:
    """At a = b = 0 the gradient data, hence both fields, vanish."""
    comps = [c for form in gradient_rows().values() for c in form.coords()]
    return not any(Substitution(FLAT).apply(comps))


# -- restriction admissibility ------------------------------------------------


def admissible_point(a20: BiForm, cubic: BiForm, c=None) -> CurvaturePoint:
    """The point of the admissible locus over a20 and a second-slot cubic:
    a02 = 2/3 a20, weight by weight, and b the gradient form of the cubic
    (x (x) u_x + y (x) u_y); c symbolic unless given."""
    a02 = from_coords(0, 2, [p * Fraction(2, 3) for p in a20.coords()])
    return CurvaturePoint(a20, a02, gradient_form(cubic), c)


def f1_vanishes_on_restriction_locus() -> bool:
    """The first integral vanishes identically on the admissible locus
    over a symbolic a20, cubic and c."""
    pt = admissible_point(bf.symbolic(2, 0, "a20"), bf.symbolic(0, 3, "u"))
    return first_integrals()[0].subs(pt.assignment()).is_zero()


def _homogeneous_rows(polys: Sequence[Poly], unknowns: Sequence[str],
                      message: str) -> List[dict]:
    """Rows of the conditions p = 0, each homogeneous linear in the
    unknowns and free of every other variable; anything else raises
    ValueError(message)."""
    allowed = {var_key(u) for u in unknowns}
    for p in polys:
        if not allowed.issuperset(p.packed):
            raise ValueError(message)
    return linear_rows(polys, unknowns)


def restriction_chain() -> dict:
    """The submanifold-compatibility ideal: Frobenius residual conditions,
    the induced constraint on b, and the independence of the combined
    constraint differentials.

    Steps: (1) reduce the differentials of the ideal generators and solve
    the resulting linear conditions on the curvature parameters;
    (2) differentiate those conditions along the frozen rules modulo the
    ideal and on the admissible locus, producing linear conditions on
    b; certify the solution is the gradient subspace {x (x) u_x +
    y (x) u_y}; (3) the five constraint differentials are constant
    functionals of the curvature coordinates times J: certify their rank
    at a generic admissible rational point."""
    sys = build_system("h12")
    cf = sys.cf
    gens = [
        FormExpr.gen(cf, "th_m1_0") - FormExpr.gen(cf, "th_1_m2").scale(2),
        FormExpr.gen(cf, "th_1_0") - FormExpr.gen(cf, "th_m1_2").scale(2),
        FormExpr.gen(cf, "om02_2") - FormExpr.gen(cf, "om20_2"),
        FormExpr.gen(cf, "om02_0") - FormExpr.gen(cf, "om20_0"),
        FormExpr.gen(cf, "om02_m2") - FormExpr.gen(cf, "om20_m2"),
    ]
    frob = frobenius_residual(gens, sys)
    cond_rows = _homogeneous_rows(frob["conditions"], PARAM_SYMS,
                                  "Frobenius conditions are not linear")
    _p, kernel = solve_sparse(cond_rows, len(PARAM_SYMS))
    # the display, 2 a20_k = 3 a02_k for k = 0, 1, 2 (weight-aligned) with
    # b and c free, is the 10-dimensional span of a20_k + 2/3 a02_k, each
    # b_j and c
    display = [[1 if j == k else Fraction(2, 3) if j == 3 + k else 0
                for j in range(13)] for k in range(3)]
    display += [[int(j == i) for j in range(13)] for i in range(6, 13)]
    expected_ok = spans_equal(kernel, display, 10)
    a_constraint_count = 13 - len(kernel)

    # step 2: differentiate the constraint functions 2 a20_k - 3 a02_k,
    # functionals on the 12 curvature coordinates
    functionals = [[2 if j == k else -3 if j == 3 + k else 0
                    for j in range(12)] for k in range(3)]
    rules = [sys.param_rules[s] for s in K_SYMS]
    locus = admissible_point(CurvaturePoint.symbolic().a20,
                             bf.symbolic(0, 3, "u"))
    on_locus = dict(zip(A02_SYMS, locus.a02.coords()))
    b_conds = Substitution(on_locus).apply(
        c for f in functionals
        for c in reduce_mod_ideal(form_sum(cf, zip(rules, f)),
                                  frob["substitution"]).terms.values())
    b_rows = _homogeneous_rows(b_conds, B_SYMS,
                               "b-conditions are not linear in b")
    _pb, b_kernel = solve_sparse(b_rows, 6)
    # gradient subspace: b = x (x) u_x + y (x) u_y for u in V_3 (slot 2)
    grad_vecs = [[c.constant_value() for c in gradient_form(u).coords()]
                 for u in basis(0, 3)]
    b_matches_gradient = spans_equal(b_kernel, grad_vecs, 4)

    # step 3: with the two functionals cutting the gradient subspace out
    # of b-space, the rank of the five differentials (functional . J) at
    # an admissible random rational point
    functionals += [[0] * 6 + f for f in kernel_basis(grad_vecs)]
    cubic = ["u0", "u1", "u2", "u3"]
    pt = random_rational_point(list(A20_SYMS) + cubic + [C_SYM], seed=31)
    point = admissible_point(from_coords(2, 0, [pt[s] for s in A20_SYMS]),
                             from_coords(0, 3, [pt[u] for u in cubic]),
                             pt[C_SYM])
    mat = PolyMatrix([row_times_j(f) for f in functionals]).subs(
        point.assignment()).constant_rows()
    rank_all = rank(mat)
    rank_a = rank(mat[:3])
    rank_b = rank(mat[3:])
    # the five differentials satisfy exactly one relation on the locus:
    # the conserved first integral vanishes identically there, so its
    # (identically zero) differential ties the blocks together; rank 4
    # makes the admissible set an 8-dimensional submanifold of the
    # 12-dimensional total space, as claimed
    return {
        "frobenius_conditions": len(cond_rows),
        "a_constraint_count": a_constraint_count,
        "a_constraints_match_display": expected_ok,
        "b_constraint_rank": 6 - len(b_kernel),
        "b_solution_is_gradient_subspace": b_matches_gradient,
        "a_block_rank": rank_a,
        "b_block_rank": rank_b,
        "combined_differential_rank": rank_all,
        "blocks_independent": rank_a == 3 and rank_b == 2,
        "admissible_submanifold_dim": 12 - rank_all,
    }
