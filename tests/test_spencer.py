import hashlib
from fractions import Fraction

import pytest

from g12calc import binforms as bf
from g12calc import spencer
from g12calc.cli import SuiteConfig, run_suites
from g12calc.binforms import rep_matrices
from g12calc.linalg import random_rational_point, rank
from g12calc.poly import Poly
from g12calc.spencer import (SPENCER_COORDS, LinearLieAlgebra, PhiCoords,
                             TorsionCoords, _adjoint_rep, contact_restriction_identity,
                             decode_torsion, encode_torsion,
                             g12_algebra, g12_spencer_report, gk1_algebra,
                             gl2_algebra, intrinsic_adjustment,
                             prolongation_and_h02, so3_algebra,
                             spencer_coords_match, spencer_equivariance_ok,
                             spencer_domain_rep, spencer_in_coords,
                             spencer_target_rep,
                             splitting_correction_vanishes, tensor_values,
                             torsion_criterion_s16_pair,
                             torsion_criterion_solve, torsion_encode_rank,
                             torsion_tensor)

TORSION_OFFSETS = {"s12": (0, 6), "s14": (6, 16), "s16": (16, 30),
                   "s10": (30, 32), "s12p": (32, 38), "s14p": (38, 48),
                   "s30": (48, 52), "s32": (52, 64), "s34": (64, 84),
                   "s12pp": (84, 90)}


def test_closure_check_rejects_non_algebra():
    LinearLieAlgebra("e-line", 2, [[[0, 1], [0, 0]]])  # abelian, fine
    with pytest.raises(ValueError):
        # span{e, f} is not closed: [e, f] = h lies outside
        LinearLieAlgebra("broken", 2,
                         [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    # a matrix outside the algebra has no coordinates
    assert so3_algebra().coordinates(
        [[[int(i == j) for j in range(3)] for i in range(3)]]) is None
    g = g12_algebra()
    unit = [[0] * g.n for _ in range(g.n)]
    unit[0][0] = 1
    assert g.coordinates([unit]) is None
    # nor has a batch holding one, and an empty batch reads nothing
    assert g.coordinates([g.basis_mats[1], unit, g.basis_mats[2]]) is None
    assert g.coordinates([]) == []


def test_structure_constants_reproduce_brackets():
    for seed, g in enumerate((so3_algebra(), gl2_algebra(), g12_algebra(),
                              gk1_algebra(2))):
        n, mats = g.n, g.basis_mats
        want = list(random_rational_point([f"x{a}" for a in range(g.dim)],
                                          seed).values())
        combo = [[sum(c * m[i][j] for c, m in zip(want, mats))
                  for j in range(n)] for i in range(n)]
        assert list(g.coordinates([combo])[0]) == want
        # a batch reads each matrix as a read of it alone does, in order
        pair = [g.basis_mats[-1], combo]
        assert g.coordinates(pair) == [g.coordinates([m])[0] for m in pair]
        assert len(g.brackets) == g.dim * (g.dim - 1) // 2
        for (a, b), coords in g.brackets.items():
            x, y = mats[a], mats[b]
            comm = [[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j]
                         for k in range(n)) for j in range(n)]
                    for i in range(n)]
            span = [[sum(c * m[i][j] for c, m in zip(coords, mats))
                     for j in range(n)] for i in range(n)]
            assert span == comm
    with pytest.raises(ValueError, match="linearly dependent"):
        LinearLieAlgebra("twice", 2, [[[0, 1], [0, 0]], [[0, 2], [0, 0]]])


def test_g12_algebra_is_built_once_and_cannot_be_changed():
    g = g12_algebra()
    assert g12_algebra() is g
    with pytest.raises(AttributeError):
        g.brackets = {}
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(TypeError):
        g.brackets[(0, 1)] = ()
    with pytest.raises(TypeError):
        g.basis_mats[0][0][0] = 5
    assert all(type(c) is tuple for c in g.brackets.values())
    assert type(g._entry_rows) is tuple


def test_so3_spencer_isomorphism():
    rep = prolongation_and_h02(so3_algebra())
    assert rep["rank"] == 9
    assert rep["dim_g1"] == 0 and rep["dim_h02"] == 0


def test_gl2_prolongation_matches_symmetric_tensors():
    rep = prolongation_and_h02(gl2_algebra())
    assert rep["dim_g1"] == 6  # dim S^2 V* (x) V for dim V = 2


def test_spencer_dimension_bookkeeping_all_algebras():
    for g in (so3_algebra(), gl2_algebra(), g12_algebra(), gk1_algebra(2)):
        rep = prolongation_and_h02(g)
        assert rep["dim_domain"] == rep["dim_g1"] + rep["rank"]
        assert rep["rank"] + rep["dim_h02"] == rep["dim_target"]


def test_g12_report_matches_expected_structure():
    rep = g12_spencer_report()
    assert rep["dim_domain"] == 42
    assert rep["dim_target"] == 90
    assert rep["dim_g1"] == 0
    assert rep["dim_h02"] == 48
    assert rep["domain_isotypic"] == {(1, 0): 1, (1, 2): 3, (1, 4): 1,
                                      (3, 2): 1}
    assert rep["target_isotypic"] == {(1, 0): 1, (1, 2): 3, (1, 4): 2,
                                      (1, 6): 1, (3, 0): 1, (3, 2): 1,
                                      (3, 4): 1}
    assert rep["cokernel_isotypic"] == {(1, 4): 1, (1, 6): 1, (3, 0): 1,
                                        (3, 4): 1}


def test_restricted_algebra_prolongation_vanishes():
    for k in (2, 3):
        rep = prolongation_and_h02(gk1_algebra(k))
        assert rep["dim_g1"] == 0


def test_restricted_algebra_isotypic_report():
    from g12calc.spencer import gk1_spencer_report
    rep = gk1_spencer_report(2)
    assert rep["dim_domain"] == 16 and rep["dim_target"] == 24
    assert rep["dim_h02"] == 8
    # the torsion space of the restricted structure is irreducible of
    # highest weight 7
    assert rep["cokernel_isotypic"] == {(7, 0): 1}


def test_module_family_prolongation_vanishes_for_k3():
    from g12calc.spencer import g1k_algebra
    rep = prolongation_and_h02(g1k_algebra(3))
    assert rep["dim_g1"] == 0
    assert rep["dim_domain"] == 56 and rep["dim_target"] == 224


def test_spencer_equivariance_exact():
    g, module = g12_algebra(), bf.Rep.space(1, 2)
    assert spencer_equivariance_ok(g, spencer_domain_rep(g, module),
                                   spencer_target_rep(module))


def test_coordinates_read_off_one_elimination(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*a, **kw):
            calls.append(name)
            return fn(*a, **kw)
        return wrapped

    for name in ("kernel_basis", "linsolve"):
        monkeypatch.setattr(spencer, name,
                            counting(name, getattr(spencer, name)))
    for build in (spencer.g1k_algebra, spencer.gk1_algebra, so3_algebra):
        del calls[:]
        build()
        assert calls == ["kernel_basis"]
    g = spencer.g1k_algebra(2)
    del calls[:]
    _adjoint_rep(g, bf.Rep.space(1, 2))
    assert calls == ["kernel_basis"]


def test_pairing_coordinate_layouts():
    assert TorsionCoords.offsets() == TORSION_OFFSETS
    phi_syms = PhiCoords.symbols()
    assert len(phi_syms) == len(set(phi_syms)) == 42
    assert phi_syms[6] == "r32_0"   # r32 block starts after r12


def test_codec_bijection_and_roundtrip():
    assert torsion_encode_rank() == 90
    vec = [Fraction(3 * k - 40, 7) for k in range(90)]
    s = TorsionCoords.from_vector(vec)
    back = decode_torsion(encode_torsion(s))
    assert [p.constant_value() for p in back.vector()] == vec


def test_decode_torsion_rejects_the_wrong_number_of_values():
    # 91 values used to lose the last one, and 89 to raise IndexError
    for count in (89, 91, 0):
        with pytest.raises(ValueError, match="90 values"):
            decode_torsion([Fraction(1)] * count)


def test_decode_encode_on_basis_coordinates():
    for k in (0, 17, 47, 89):
        vec = [Fraction(0)] * 90
        vec[k] = Fraction(1)
        back = decode_torsion(encode_torsion(TorsionCoords.from_vector(vec)))
        assert [p.constant_value() for p in back.vector()] == vec


def _unit_vector(size, k):
    vec = [0] * size
    vec[k] = 1
    return vec


def test_coordinate_matrices_equal_unit_point_evaluation():
    # the oracle evaluates BiForm pairings at every unit point
    enc = spencer._torsion_encode_matrix()
    for k in range(90):
        s = TorsionCoords.from_vector(_unit_vector(90, k))
        want = [p.constant_value() for p in tensor_values(torsion_tensor(s))]
        assert [row[k] for row in enc] == want
    sp = spencer._spencer_coordinate_matrix()
    for k in range(42):
        phi = PhiCoords.from_vector(_unit_vector(42, k))
        want = [p.constant_value() for p in spencer_in_coords(phi).vector()]
        assert [row[k] for row in sp] == want


@pytest.mark.parametrize("name, cols, nnz, digest", [
    ("_torsion_encode_matrix", 90, 406,
     "c04bc455d0413eb958deb95f1e5fd1f762b246052df922be2ced19cba27e1a75"),
    ("_spencer_coordinate_matrix", 42, 88,
     "47d7c3aa21d0a55c15fb529c61a180422c62561a43ca92a63dc699ee51f45363"),
])
def test_coordinate_matrices_pinned(name, cols, nnz, digest):
    m = getattr(spencer, name)()
    assert len(m) == 90 and all(len(row) == cols for row in m)
    assert sum(1 for row in m for x in row if x) == nnz
    text = ";".join(",".join(map(str, row)) for row in m)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_codec_checks_detect_a_perturbed_contraction(monkeypatch):
    # one wrong encode entry in an s12 column (a block Sp reaches): the
    # BiForm evaluation no longer inverts the decode matrix.  Sp's
    # coordinate matrix is read off SPENCER_COORDS and stays right; the
    # adjustment check fails through spencer_in_coords, which decodes.
    # The symbolic decode of Sp is cached on top of the decode matrix, so
    # it is cleared with it
    enc = spencer._torsion_encode_matrix()
    bad = [list(row) for row in enc]
    bad[0][0] += 1
    spencer._torsion_decode_matrix.cache_clear()
    spencer._symbolic_spencer_coords.cache_clear()
    monkeypatch.setattr(spencer, "_torsion_encode_matrix",
                        lambda: tuple(map(tuple, bad)))
    try:
        vec = [Fraction(k * 3 - 7, 2) for k in range(90)]
        back = decode_torsion(encode_torsion(TorsionCoords.from_vector(vec)))
        assert [p.constant_value() for p in back.vector()] != vec
        vec = _admissible_torsion(5)
        try:
            phi = intrinsic_adjustment(TorsionCoords.from_vector(vec))
        except ValueError:
            pass
        else:
            want = [Fraction(0) if 48 <= i < 52 else v
                    for i, v in enumerate(vec)]
            got = [p.constant_value() for p in spencer_in_coords(phi).vector()]
            assert got != want
        report = run_suites(SuiteConfig(["spencer", "torsion"]))
        status = {c["check"]: c["status"] for c in report["checks"]}
        assert status["torsion_codec_roundtrip"] == "fail"
        assert status["intrinsic_adjustment"] == "fail"
    finally:
        monkeypatch.undo()
        spencer._torsion_decode_matrix.cache_clear()
        spencer._symbolic_spencer_coords.cache_clear()
    assert spencer._torsion_encode_matrix() == enc


def test_coordinate_formula_fully_symbolic():
    assert spencer_coords_match()


def test_coordinate_formula_zero_map():
    out = spencer_in_coords(PhiCoords.zero())
    assert all(p.is_zero() for p in out.vector())


def test_coordinate_formula_single_block():
    # only the r32 block: only s32 responds, with factor -1/4
    vec = [Fraction(0)] * 42
    vec[6] = Fraction(1)   # r32 block starts after r12 (6 coords)
    phi = PhiCoords.from_vector(vec)
    out = spencer_in_coords(phi)
    assert (out.s32 - Fraction(-1, 4) * phi.r32).is_zero()
    for name in ("s12", "s14", "s16", "s10", "s12p", "s14p", "s30", "s34",
                 "s12pp"):
        assert getattr(out, name).is_zero()


def test_coordinate_formula_mutation_fails():
    assert not spencer_coords_match(
        {**SPENCER_COORDS, "s32": (("r32", Fraction(1, 4)),)})
    assert not spencer_coords_match(
        {**SPENCER_COORDS, "s14": (("r14", Fraction(1, 2)),)})


def _with_coefficient(table, block, k, c):
    terms = list(table[block])
    terms[k] = (terms[k][0], c)
    return {**table, block: tuple(terms)}


def test_coordinate_formula_every_table_coefficient_matters():
    # each of the 13 coefficients changed alone, and a nonzero entry for
    # a block the table leaves zero, break the formula
    mutants = [_with_coefficient(SPENCER_COORDS, block, k, c + 1)
               for block, terms in SPENCER_COORDS.items()
               for k, (_r, c) in enumerate(terms)]
    assert len(mutants) == 13
    mutants.append({**SPENCER_COORDS, "s16": (("r14", Fraction(1)),)})
    for table in mutants:
        assert not spencer_coords_match(table)
    assert spencer_coords_match(dict(SPENCER_COORDS))


def test_adjustment_reads_the_closed_form_table(monkeypatch):
    # the adjustment matrix is read off SPENCER_COORDS, so a wrong table
    # coefficient fails the formula check and, through the independent
    # BiForm route, the adjustment check too
    monkeypatch.setitem(spencer.SPENCER_COORDS, "s32",
                        (("r32", Fraction(1, 4)),))
    try:
        report = run_suites(SuiteConfig(["spencer", "torsion"]))
    finally:
        monkeypatch.undo()
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert status["spencer_coordinate_formula"] == "fail"
    assert status["intrinsic_adjustment"] == "fail"


def test_torsion_criterion_solution_space():
    rep = torsion_criterion_solve()
    assert rep["solution_dim"] == 30
    assert rep["matches_closed_form"]
    assert rep["free_s30_dim"] == 4


def test_torsion_criterion_detects_a_dropped_zero_block(monkeypatch):
    monkeypatch.setattr(spencer, "CRITERION_ZERO_BLOCKS",
                        ("s14", "s14p", "s16"))
    rep = torsion_criterion_solve()
    assert rep["solution_dim"] == 30
    assert not rep["matches_closed_form"]


def test_free_s30_dim_is_read_off_the_kernel(monkeypatch):
    # the row s30_0 = 0 leaves the s30 block 4 coordinates wide but cuts
    # the kernel's span on it to 3
    rows_of = spencer._divisibility_rows
    s30_0 = TorsionCoords.offsets()["s30"][0]
    monkeypatch.setattr(spencer, "_divisibility_rows",
                        lambda *a: rows_of(*a) + [{s30_0: 1}])
    rep = torsion_criterion_solve()
    assert rep["free_s30_dim"] == 3
    assert not rep["matches_closed_form"]


def test_torsion_criterion_invariant_under_action():
    # the constraint set is a submodule: the generator actions map the
    # solution space into itself
    rep = torsion_criterion_solve()
    kernel = rep["kernel"]
    blocks = [("s12", 1, 2), ("s14", 1, 4), ("s16", 1, 6), ("s10", 1, 0),
              ("s12p", 1, 2), ("s14p", 1, 4), ("s30", 3, 0), ("s32", 3, 2),
              ("s34", 3, 4), ("s12pp", 1, 2)]
    base_rank = rank(kernel)
    for gen_idx in range(6):
        acted = []
        for v in kernel:
            out = [Fraction(0)] * 90
            for name, n, m in blocks:
                a, bnd = TORSION_OFFSETS[name]
                mat = rep_matrices(n, m)[gen_idx]
                for i in range(bnd - a):
                    acc = Fraction(0)
                    for j in range(bnd - a):
                        if mat[i][j]:
                            acc += mat[i][j] * v[a + j]
                    out[a + i] = acc
            acted.append(out)
        assert rank(kernel + acted) == base_rank


def test_s16_forced_by_single_pair():
    rep = torsion_criterion_s16_pair()
    assert rep["only_s16_block"] and rep["s16_forced_zero"]


def test_torsion_criterion_numeric_divisor_cross_check():
    # independent route: instead of symbolic divisor coefficients, impose
    # the conditions for finitely many concrete divisors; with enough of
    # them the joint solution space equals the symbolic one
    from itertools import combinations
    from g12calc.poly import Poly
    from g12calc.binforms import BiForm, symbol_names
    from g12calc.spencer import torsion_tensor
    from g12calc.linalg import solve_sparse
    sym_names = []
    for name, (n, m) in TorsionCoords.SHAPE:
        sym_names.extend(symbol_names(n, m, name))
    col = {s: i for i, s in enumerate(sym_names)}
    s = TorsionCoords.symbolic()
    tensor = torsion_tensor(s)
    rows = []
    x1, y1 = Poly.var("x1"), Poly.var("y1")
    x2, y2 = Poly.var("x2"), Poly.var("y2")
    for al, be in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)):
        r = al * x2 + be * y2
        divisible = [BiForm(1, 2, a * r * l)
                     for a in (x1, y1) for l in (x2, y2)]
        for i, j in combinations(range(4), 2):
            val = tensor(divisible[i], divisible[j])
            root = val.poly.subs({"x2": Poly.const(-be), "y2": Poly.const(al)})
            for _mono, coeff in root.coefficients_in(("x1", "y1")).items():
                row = {}
                for e, c in coeff.terms.items():
                    picked = [v for v, k in zip(coeff.vars, e) if k][0]
                    row[col[picked]] = row.get(col[picked], Fraction(0)) + c
                if row:
                    rows.append(row)
    _part, numeric_kernel = solve_sparse(rows, 90)
    symbolic_kernel = torsion_criterion_solve()["kernel"]
    assert len(numeric_kernel) == 30
    assert rank(numeric_kernel + symbolic_kernel) == 30


def _admissible_torsion(seed):
    vec = [Fraction(0)] * 90
    pt = random_rational_point([f"w{k}" for k in range(30)], seed)
    vals = list(pt.values())
    at = 0
    for blk in ("s12", "s10", "s12p", "s30", "s32"):
        a, bnd = TORSION_OFFSETS[blk]
        for i in range(a, bnd):
            vec[i] = vals[at]
            at += 1
    for t in range(6):
        vec[TORSION_OFFSETS["s12pp"][0] + t] = 2 * vec[t]
    return vec


def test_intrinsic_adjustment_roundtrip():
    vec = _admissible_torsion(5)
    phi = intrinsic_adjustment(TorsionCoords.from_vector(vec))
    assert phi.r14.is_zero() and phi.r12pp.is_zero()
    got = [p.constant_value() for p in spencer_in_coords(phi).vector()]
    want = list(vec)
    for i in range(*TORSION_OFFSETS["s30"]):
        want[i] = Fraction(0)
    assert got == want


def test_intrinsic_adjustment_pure_s30_is_zero():
    vec = [Fraction(0)] * 90
    vec[TORSION_OFFSETS["s30"][0] + 2] = Fraction(5)
    phi = intrinsic_adjustment(TorsionCoords.from_vector(vec))
    assert all(p.is_zero() for p in phi.vector())


def test_intrinsic_adjustment_rejects_outside_subspace():
    vec = [Fraction(0)] * 90
    vec[TORSION_OFFSETS["s16"][0]] = Fraction(1)
    with pytest.raises(ValueError):
        intrinsic_adjustment(TorsionCoords.from_vector(vec))


def test_contact_restriction_identity():
    assert contact_restriction_identity()
    # explicit cubic instance
    assert contact_restriction_identity(
        s3=bf.slot2_form(Poly.var("x2") ** 3, 3))


def test_contact_restriction_identity_mutation():
    assert not contact_restriction_identity(
        coeffs=(Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(5, 3)))


def test_splitting_correction_vanishes():
    for k in (2, 3, 4):
        rep = splitting_correction_vanishes(k)
        assert rep["forced_zero"], rep
    assert splitting_correction_vanishes(2)["single_r_check"]


@pytest.mark.parametrize("side", ["target", "domain"])
def test_spencer_equivariance_detects_perturbed_module(side):
    g = g12_algebra()
    module = bf.Rep.space(1, 2)
    dom = spencer_domain_rep(g, module)
    tgt = spencer_target_rep(module)
    assert spencer_equivariance_ok(g, dom, tgt)
    for name in bf.GENERATOR_NAMES:
        bad = bf.Rep.space(1, 2)
        col = bad.cols[name][1]
        col[4] = col.get(4, 0) + 1
        if side == "target":
            assert not spencer_equivariance_ok(g, dom, spencer_target_rep(bad))
        else:
            bad_dom = bad.dual().tensor(_adjoint_rep(g, module))
            assert not spencer_equivariance_ok(g, bad_dom, tgt)
