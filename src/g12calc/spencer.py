"""Spencer maps, prolongations and the intrinsic-torsion calculus.

The first Spencer map Sp: V* (x) g -> Lambda^2 V* (x) V sends alpha to
Sp(alpha)(u, v) = alpha(u) v - alpha(v) u.  Its kernel is the first
prolongation g^(1), its cokernel the intrinsic-torsion space H^{0,2}.

For the algebra acting on V_{1,2} everything is also expressed in pairing
coordinates: maps V_{1,2} -> g are encoded by six forms (r12, r32, r12p,
r14, r12pp, r10), alternating V_{1,2}-valued 2-tensors by the ten forms
(s12, s14, s16, s10, s12p, s14p, s30, s32, s34, s12pp).  Both spaces are
binforms.BlockCoords subclasses (PhiCoords, TorsionCoords), so each
layout -- block names, bidegrees, order, offsets and symbols -- is
declared once, as the class's SHAPE.  The codecs below translate between
those coordinates and raw tensors exactly, and spencer_in_coords
expresses Sp itself in them, as a polynomial identity in 42 symbolic
parameters.

The pairings that make up phi and the tensor are declared once, as
PHI_TERMS and TORSION_TERMS, and the closed form of Sp in coordinates
once, as the table SPENCER_COORDS.  Its one reader is Sp's matrix in
coordinates (90 x 42): the intrinsic adjustment solves with it, and the
formula check dots each of its rows with phi.  The codec matrix
(90 x 90) contracts pairing_table constants over the terms.  BiForm
evaluation (tensor_values, the route for symbolic input) is the
independent route, which the codec, formula and adjustment checks
compare with.

A LinearLieAlgebra reads the coordinates of a list of matrices off one
kernel_basis.  Its structure constants, its closure check, are one read
of all its commutators; the adjoint action reads the module generators
in one more and, like excalc's omega ^ omega, expands through the
constants.  It is immutable, so g12_algebra() is built once per process
and shared.  The Spencer domain and target are sparse binforms.Rep
modules, and T(X) Sp = Sp D(X) is checked as sparse products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import binforms as bf
from .binforms import (BiForm, BlockCoords, LieElt, Rep, basis, from_coords,
                       gradient_form, isotypic_decompose, rep_matrices,
                       symbolic, transvectant2)
from .linalg import (invert_rational, kernel_basis, linear_rows, linsolve,
                     rank, solve_sparse, spans_equal)
from .poly import Poly, Scalar, Substitution, _exact, dot


class LinearLieAlgebra:
    """A concrete matrix Lie algebra: ambient dim n and a basis B_0, ...
    of linearly independent n x n matrices.

    The structure constants are read once, on construction, and are the
    closure check: brackets[(a, b)], a < b, holds the coordinates of
    [B_a, B_b], and a bracket outside the span raises ValueError.  It is
    immutable, so a cached algebra can be shared.
    """

    __slots__ = ("name", "n", "basis_mats", "dim", "brackets", "_entry_rows")

    def __init__(self, name: str, n: int, basis_mats: Sequence):
        mats = tuple(tuple(tuple(_exact(x) for x in row) for row in m)
                     for m in basis_mats)
        flat = [[x for row in m for x in row] for m in mats]
        if rank(flat) != len(mats):
            raise ValueError(f"{name}: basis matrices are linearly dependent")
        init = object.__setattr__
        init(self, "name", name)
        init(self, "n", n)
        init(self, "basis_mats", mats)
        init(self, "dim", len(mats))
        # one row per matrix entry, one column per basis matrix
        init(self, "_entry_rows", tuple(zip(*flat)))
        comms = [[[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j]
                    for k in range(n)) for j in range(n)] for i in range(n)]
                 for x, y in combinations(mats, 2)]
        coords = self.coordinates(comms)
        if coords is None:
            raise ValueError(f"{name}: basis is not closed under brackets")
        init(self, "brackets", MappingProxyType(
            dict(zip(combinations(range(self.dim), 2), coords))))

    def __setattr__(self, *a):
        raise AttributeError("LinearLieAlgebra is immutable")

    def coordinates(self, mats) -> Optional[List[Tuple[Fraction, ...]]]:
        """Coordinates in the basis of each n x n matrix in `mats`, or
        None when any of them lies outside the algebra, read off one
        kernel_basis of [basis entry columns | -matrices]: a matrix lies
        in the span exactly when its column is free, and that kernel
        vector, 1 there and 0 at the other matrices' columns, starts
        with its coordinates."""
        flat = [[x for row in m for x in row] for m in mats]
        kernel = kernel_basis([list(entry) + [-m[e] for m in flat]
                               for e, entry in enumerate(self._entry_rows)])
        if len(kernel) != len(flat):
            return None
        return [tuple(v[:self.dim]) for v in kernel]


def spencer_matrix(g: LinearLieAlgebra) -> List[List[Scalar]]:
    """Rows of the matrix of Sp: V* (x) g -> Lambda^2 V* (x) V in
    canonical bases.

    Domain column (i, a) = i * dim(g) + a; target row (pair (p,q), r) =
    pair_index * n + r with pairs ordered lexicographically.
    """
    n, ng = g.n, g.dim
    pairs = list(combinations(range(n), 2))
    rows = [[Fraction(0)] * (n * ng) for _ in range(len(pairs) * n)]
    for i in range(n):
        for a, mat in enumerate(g.basis_mats):
            col = i * ng + a
            for pi, (p, q) in enumerate(pairs):
                if i == p:
                    for r in range(n):
                        if mat[r][q]:
                            rows[pi * n + r][col] += mat[r][q]
                if i == q:
                    for r in range(n):
                        if mat[r][p]:
                            rows[pi * n + r][col] -= mat[r][p]
    return rows


def prolongation_and_h02(g: LinearLieAlgebra) -> dict:
    """Dimensions of the Spencer sequence for g, all exact."""
    sp = spencer_matrix(g)
    rk = rank(sp)
    dim_domain, dim_target = g.n * g.dim, len(sp)
    return {
        "algebra": g.name,
        "dim_V": g.n,
        "dim_g": g.dim,
        "dim_domain": dim_domain,
        "dim_target": dim_target,
        "rank": rk,
        "dim_g1": dim_domain - rk,
        "dim_h02": dim_target - rk,
    }


# -- standard algebras -----------------------------------------------------


def so3_algebra() -> LinearLieAlgebra:
    l1 = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    l2 = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    l3 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    return LinearLieAlgebra("so(3)", 3, [l1, l2, l3])


def gl2_algebra() -> LinearLieAlgebra:
    mats = [[[1, 0], [0, 0]], [[0, 1], [0, 0]],
            [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    return LinearLieAlgebra("gl(2)", 2, mats)


def g1k_algebra(k: int = 2) -> LinearLieAlgebra:
    """The 7-dimensional algebra acting on V_{1,k}, in the weight basis
    (identity, V_{2,0} components, V_{0,2} components)."""
    return LinearLieAlgebra(f"g_{{1,{k}}}", 2 * (k + 1), bf.g1k_matrices(k))


@lru_cache(maxsize=None)
def g12_algebra() -> LinearLieAlgebra:
    """g_{1,2}, built once per process and shared: it is immutable."""
    return g1k_algebra(2)


def gk1_algebra(k: int = 2) -> LinearLieAlgebra:
    """Image of gl(2) on the binary forms of degree k+1 (the restricted
    structure algebra of the submoduli space)."""
    d = k + 2
    e1, f1, h1 = rep_matrices(k + 1, 0)[:3]
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    return LinearLieAlgebra(f"g_{k+1}", d, [e1, f1, h1, ident])


# -- representation structure of the g_{1,2} Spencer sequence -------------


def _adjoint_rep(g: LinearLieAlgebra, module: Rep) -> Rep:
    """Action of the six generators on the algebra by brackets with their
    module matrices, in the algebra's own basis: the six generators are
    read in coordinates x with one call, and [X, B_b] = sum_a x_a
    [B_a, B_b] comes from g's structure constants."""
    xs = g.coordinates([[[col.get(i, 0) for col in module.cols[name]]
                         for i in range(g.n)]
                        for name in bf.GENERATOR_NAMES])
    if xs is None:
        raise ValueError(f"a module generator lies outside {g.name}")
    gens = []
    for x in xs:
        cols: List[Dict[int, Fraction]] = [{} for _ in range(g.dim)]
        for (a, b), coords in g.brackets.items():
            for k, c in enumerate(coords):  # [B_a, B_b] = -[B_b, B_a]
                cols[b][k] = cols[b].get(k, 0) + x[a] * c
                cols[a][k] = cols[a].get(k, 0) - x[b] * c
        gens.append(cols)
    return Rep(g.dim, gens)


def spencer_domain_rep(g: LinearLieAlgebra, module: Rep) -> Rep:
    """V* (x) g with g acted on by brackets."""
    return module.dual().tensor(_adjoint_rep(g, module))


def spencer_target_rep(module: Rep) -> Rep:
    """Lambda^2 V* (x) V."""
    return module.dual().wedge2().tensor(module)


def spencer_equivariance_ok(g: LinearLieAlgebra, dom: Rep, tgt: Rep) -> bool:
    """Exact identity T(X) Sp = Sp D(X) for all six generators, compared
    column by column as sparse products; dom and tgt are the Spencer
    domain and target reps D and T of g."""
    sp = [{r: v for r, v in enumerate(col) if v}
          for col in zip(*spencer_matrix(g))]
    for name in bf.GENERATOR_NAMES:
        for col, d_col in zip(sp, dom.cols[name]):
            if (bf.apply_columns(tgt.cols[name], col)
                    != bf.apply_columns(sp, d_col)):
                return False
    return True


def spencer_isotypic_report(g: LinearLieAlgebra, module: Rep) -> dict:
    """Dimension and isotypic data for the Spencer sequence of g.

    The cokernel type is the multiset difference target - domain, valid
    when the kernel is zero and Sp is equivariant (both certified here).
    """
    rep = prolongation_and_h02(g)
    dom = spencer_domain_rep(g, module)
    tgt = spencer_target_rep(module)
    dom_iso = isotypic_decompose(dom)
    tgt_iso = isotypic_decompose(tgt)
    if rep["dim_g1"] != 0:
        raise ValueError("expected zero prolongation")
    if not spencer_equivariance_ok(g, dom, tgt):
        raise ValueError("Spencer map failed equivariance")
    coker = {}
    for key, mult in tgt_iso.items():
        diff = mult - dom_iso.get(key, 0)
        if diff < 0:
            raise ValueError("domain does not embed in target")
        if diff:
            coker[key] = diff
    rep["domain_isotypic"] = dom_iso
    rep["target_isotypic"] = tgt_iso
    rep["cokernel_isotypic"] = coker
    return rep


def g12_spencer_report() -> dict:
    return spencer_isotypic_report(g12_algebra(), Rep.space(1, 2))


def gk1_spencer_report(k: int = 2) -> dict:
    """Spencer report for the restricted algebra on degree-(k+1) forms."""
    return spencer_isotypic_report(gk1_algebra(k), Rep.space(k + 1, 0))


# -- pairing coordinates ---------------------------------------------------


class PhiCoords(BlockCoords):
    """Pairing coordinates of a linear map V_{1,2} -> g; 42 in total."""

    SHAPE = (("r12", (1, 2)), ("r32", (3, 2)), ("r12p", (1, 2)),
             ("r14", (1, 4)), ("r12pp", (1, 2)), ("r10", (1, 0)))


class TorsionCoords(BlockCoords):
    """Pairing coordinates of an alternating V_{1,2}-valued 2-tensor; 90
    in total, component dims 6+10+14+2+6+10+4+12+20+6."""

    SHAPE = (("s12", (1, 2)), ("s14", (1, 4)), ("s16", (1, 6)),
             ("s10", (1, 0)), ("s12p", (1, 2)), ("s14p", (1, 4)),
             ("s30", (3, 0)), ("s32", (3, 2)), ("s34", (3, 4)),
             ("s12pp", (1, 2)))


# phi(p).comp = sum of <phi.block, p>_orders over PHI_TERMS, and
# T(p, q) = sum of <s.block, <p, q>_inner>_outer over TORSION_TERMS
PHI_TERMS = (("r12", "p00", (1, 2)), ("r32", "p20", (1, 2)),
             ("r12p", "p20", (0, 2)), ("r14", "p02", (1, 2)),
             ("r12pp", "p02", (1, 1)), ("r10", "p02", (1, 0)))

TORSION_TERMS = (("s12", (1, 0), (0, 2)), ("s14", (1, 0), (0, 3)),
                 ("s16", (1, 0), (0, 4)), ("s10", (0, 1), (1, 0)),
                 ("s12p", (0, 1), (1, 1)), ("s14p", (0, 1), (1, 2)),
                 ("s30", (0, 1), (2, 0)), ("s32", (0, 1), (2, 1)),
                 ("s34", (0, 1), (2, 2)), ("s12pp", (1, 2), (0, 0)))

_PAIRS = {pair: at for at, pair in enumerate(combinations(range(6), 2))}


def phi_to_map(phi: PhiCoords) -> Callable[[BiForm], LieElt]:
    """The linear map V_{1,2} -> g determined by pairing coordinates."""

    def apply(p: BiForm) -> LieElt:
        return LieElt(**{
            comp: BiForm(n, m, dot(
                (transvectant2(getattr(phi, block), p, *orders).poly, 1)
                for block, at, orders in PHI_TERMS if at == comp))
            for comp, (n, m) in LieElt.SHAPE})

    return apply


def torsion_tensor(s: TorsionCoords) -> Callable[[BiForm, BiForm], BiForm]:
    """The alternating tensor determined by torsion coordinates."""

    def apply(p: BiForm, q: BiForm) -> BiForm:
        pq = {o: transvectant2(p, q, *o)
              for o in {inner for _, inner, _ in TORSION_TERMS}}
        return BiForm(1, 2, dot(
            (transvectant2(getattr(s, block), pq[inner], *outer).poly, 1)
            for block, inner, outer in TORSION_TERMS))

    return apply


def tensor_values(t: Callable[[BiForm, BiForm], BiForm]) -> List[Poly]:
    """Evaluate an alternating tensor on all basis pairs: 15 x 6 = 90
    coordinates, pairs ordered lexicographically."""
    bas = basis(1, 2)
    out: List[Poly] = []
    for i, j in combinations(range(6), 2):
        out.extend(t(bas[i], bas[j]).coords())
    return out


@lru_cache(maxsize=None)
def _torsion_encode_matrix() -> tuple:
    """90 x 90 matrix taking torsion coordinates to tensor values: c1 c2
    at row (pair i < j, u), column k of the block, for each term with
    <e_i, e_j>_inner = c1 e_t and <e_k, e_t>_outer = c2 e_u."""
    off = TorsionCoords.offsets()
    shape = dict(TorsionCoords.SHAPE)
    rows = [[0] * 90 for _ in range(90)]
    for block, (i1, i2), outer in TORSION_TERMS:
        (n, m), (start, stop) = shape[block], off[block]
        table = bf.pairing_table(n, m, 2 - 2 * i1, 4 - 2 * i2, *outer)
        for (i, j), (t, c1) in bf.pairing_table(1, 2, 1, 2, i1, i2).items():
            if i < j:
                for k in range(stop - start):
                    hit = table.get((k, t))
                    if hit is not None:
                        rows[_PAIRS[i, j] * 6 + hit[0]][start + k] += \
                            c1 * hit[1]
    return tuple(tuple(map(_exact, row)) for row in rows)


@lru_cache(maxsize=None)
def _torsion_decode_matrix() -> tuple:
    """The inverse of _torsion_encode_matrix as sparse rows: row i holds
    (j, c) for each nonzero entry c at column j, j ascending."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c)
                 for row in invert_rational(_torsion_encode_matrix()))


def encode_torsion(s: TorsionCoords) -> List[Poly]:
    return tensor_values(torsion_tensor(s))


def decode_torsion(values: Sequence[Poly]) -> TorsionCoords:
    """Exact inverse of encode_torsion on 90 tensor values (Polys or
    exact scalars); ValueError on any other number of values.

    Tensors are represented by their values on ordered basis pairs, so
    the alternating property is structural; a non-alternating input is
    unrepresentable rather than an error case.
    """
    vals = [v if isinstance(v, Poly) else Poly.const(v) for v in values]
    if len(vals) != 90:
        raise ValueError(f"a torsion tensor has 90 values, got {len(vals)}")
    return TorsionCoords.from_vector([dot((vals[j], c) for j, c in row)
                                      for row in _torsion_decode_matrix()])


def torsion_encode_rank() -> int:
    return rank(_torsion_encode_matrix())


def spencer_of_phi(phi: PhiCoords) -> Callable[[BiForm, BiForm], BiForm]:
    """Sp(phi)(p, q) = phi(p).q - phi(q).p as a tensor."""
    fmap = phi_to_map(phi)

    def apply(p: BiForm, q: BiForm) -> BiForm:
        return fmap(p).act(q) - fmap(q).act(p)

    return apply


def spencer_in_coords(phi: PhiCoords) -> TorsionCoords:
    """Torsion coordinates of Sp(phi), computed by exact decoding."""
    return decode_torsion(tensor_values(spencer_of_phi(phi)))


# The closed form of Sp(phi) in coordinates, frozen from the exact
# computation (it reproduces the displayed coordinate formula): torsion
# block -> ((phi block, coefficient), ...).  A torsion block absent from
# the table (s16, s30, s34) is zero.
SPENCER_COORDS = {
    "s12": (("r12", Fraction(-1, 6)), ("r12p", Fraction(1, 2)),
            ("r12pp", Fraction(-2, 3))),
    "s14": (("r14", Fraction(-1, 2)),),
    "s10": (("r10", Fraction(1)),),
    "s12p": (("r12", Fraction(-1, 8)), ("r12p", Fraction(-1, 8)),
             ("r12pp", Fraction(1, 2))),
    "s14p": (("r14", Fraction(-1, 2)),),
    "s32": (("r32", Fraction(-1, 4)),),
    "s12pp": (("r12", Fraction(-1, 3)), ("r12p", Fraction(1)),
              ("r12pp", Fraction(8, 3))),
}


@lru_cache(maxsize=None)
def _symbolic_spencer_coords() -> tuple:
    """The torsion coordinates of Sp(phi) for fully symbolic phi, decoded
    exactly once; every table `spencer_coords_match` checks is compared
    with them."""
    return tuple(spencer_in_coords(PhiCoords.symbolic()).vector())


def spencer_coords_match(table: dict = SPENCER_COORDS) -> bool:
    """Does the exact Sp(phi) agree with the closed form `table` for fully
    symbolic phi?  (42 free parameters, exact.)  Each torsion coordinate
    is compared with its row of the matrix read off `table`, dotted with
    phi's coordinates."""
    coords = PhiCoords.symbolic().vector()
    return all((g - dot(zip(row, coords))).is_zero()
               for g, row in zip(_symbolic_spencer_coords(),
                                 _spencer_coordinate_matrix(table)))


def _generic_line() -> Poly:
    """r = al*x2 + be*y2, a second-slot linear form with symbolic al, be."""
    return Poly.var("al") * Poly.var("x2") + Poly.var("be") * Poly.var("y2")


def _divisible_basis() -> List[BiForm]:
    """Spanning set of {p in V_{1,2} : r | p} for r = _generic_line()."""
    r = _generic_line()
    x1, y1 = Poly.var("x1"), Poly.var("y1")
    x2, y2 = Poly.var("x2"), Poly.var("y2")
    return [BiForm(1, 2, a * r * l)
            for a in (x1, y1) for l in (x2, y2)]


def _at_root(forms: Iterable[BiForm]) -> List[Poly]:
    """Second-slot forms at the root of r = al*x2 + be*y2, in one
    substitution: r divides a form exactly when every coefficient of a
    monomial in (x1, y1, al, be) of x2 -> -be, y2 -> al vanishes."""
    return Substitution({"x2": -Poly.var("be"), "y2": Poly.var("al")}
                        ).apply(f.poly for f in forms)


def _divisibility_rows(tensor, arg_pairs, unknowns: Sequence[str]) -> List[dict]:
    """Linear constraints on the unknown symbols expressing that
    r = al*x2 + be*y2 divides tensor(p, q) for every (p, q) in arg_pairs
    and all (al, be): one row per monomial in (x1, y1, al, be)."""
    return linear_rows(_at_root(tensor(p, q) for p, q in arg_pairs),
                       unknowns)


# The closed form of the divisibility criterion on torsion coordinates:
# the zero blocks vanish, s12pp = 2 s12 as (block, factor, source), and
# every other coordinate is free.
CRITERION_ZERO_BLOCKS = ("s14", "s14p", "s16", "s34")
CRITERION_RELATION = ("s12pp", 2, "s12")


def criterion_basis() -> List[List[Fraction]]:
    """Basis of that closed form: a unit vector per free coordinate, in
    TorsionCoords order, a source coordinate also carrying the factor at
    the matching coordinate of the related block."""
    off = TorsionCoords.offsets()
    block, factor, source = CRITERION_RELATION
    out = []
    for name, (a, b) in off.items():
        if name not in CRITERION_ZERO_BLOCKS + (block,):
            for i in range(a, b):
                v = [Fraction(0)] * 90
                v[i] = Fraction(1)
                if name == source:
                    v[off[block][0] + i - a] = Fraction(factor)
                out.append(v)
    return out


def torsion_criterion_solve() -> dict:
    """Exact solution space of the divisibility criterion on torsion
    coordinates.

    Quantification over all r in V_1 and all r-divisible pairs is reduced
    to finitely many linear conditions by keeping r's coefficients
    symbolic; the conditions are polynomial in them, so requiring every
    (al, be)-coefficient to vanish is sound and complete.  Certifies that
    the solution space is exactly the span of criterion_basis(), of
    dimension 30; free_s30_dim is the rank of the solutions on the s30
    coordinates (4 when that block is free).
    """
    rows = _divisibility_rows(torsion_tensor(TorsionCoords.symbolic()),
                              combinations(_divisible_basis(), 2),
                              TorsionCoords.symbols())
    _part, kernel = solve_sparse(rows, 90)  # homogeneous: never None
    a30, b30 = TorsionCoords.offsets()["s30"]
    return {
        "solution_dim": len(kernel),
        "matches_closed_form": spans_equal(kernel, criterion_basis(), 30),
        "free_s30_dim": rank([v[a30:b30] for v in kernel]),
        "kernel": kernel,
        "constraint_rows": len(rows),
    }


def torsion_criterion_s16_pair() -> dict:
    """The single pair p = x (x) r^2, q = y (x) r^2 already forces the s16
    block to vanish, and touches no other block."""
    syms = TorsionCoords.symbols()
    r = _generic_line()
    p = BiForm(1, 2, Poly.var("x1") * r * r)
    q = BiForm(1, 2, Poly.var("y1") * r * r)
    rows = _divisibility_rows(torsion_tensor(TorsionCoords.symbolic()),
                              [(p, q)], syms)
    a, b = TorsionCoords.offsets()["s16"]
    only_s16 = all(syms[col].startswith("s16_") for row in rows for col in row)
    _p, kernel = solve_sparse(rows, 90)
    s16_killed = all(all(v[i] == 0 for i in range(a, b)) for v in kernel)
    return {"only_s16_block": only_s16, "s16_forced_zero": s16_killed,
            "free_dim": len(kernel)}


def _spencer_coordinate_matrix(table: dict = SPENCER_COORDS) -> tuple:
    """90 x 42 matrix of Sp in pairing coordinates, read off the closed
    form `table`: the two blocks of each entry share one bidegree, so its
    coefficient lies on the diagonal of their (torsion, phi) block."""
    s_off, r_off = TorsionCoords.offsets(), PhiCoords.offsets()
    rows = [[0] * 42 for _ in range(90)]
    for s, terms in table.items():
        for r, c in terms:
            (i, _), (j, stop) = s_off[s], r_off[r]
            for k in range(stop - j):
                rows[i + k][j + k] = _exact(c)
    return tuple(map(tuple, rows))


def intrinsic_adjustment(t: TorsionCoords) -> PhiCoords:
    """Solve Sp(phi) = t minus its s30 part with the r14 and r12pp blocks
    of phi pinned to zero; exact, unique, raises if t lies outside the
    admissible subspace."""
    vec = t.vector()
    a30, b30 = TorsionCoords.offsets()["s30"]
    vec[a30:b30] = [Poly.zero()] * (b30 - a30)
    rhs = [c.constant_value() for c in vec]
    sp = _spencer_coordinate_matrix()
    allowed = [k for name, (a, b) in PhiCoords.offsets().items()
               if name not in ("r14", "r12pp") for k in range(a, b)]
    sol = linsolve([[sp[i][k] for k in allowed] for i in range(90)], rhs)
    if sol is None:
        raise ValueError("torsion lies outside the admissible subspace")
    x, ker = sol
    if ker:
        raise ValueError("adjustment is not unique (unexpected kernel)")
    full = [Fraction(0)] * 42
    for k, v in zip(allowed, x):
        full[k] = v
    return PhiCoords.from_vector(full)


def contact_restriction_identity(coeffs: Tuple = (Fraction(1), Fraction(-1, 2),
                                                  Fraction(2, 3), Fraction(4, 3)),
                                 s3: Optional[BiForm] = None) -> bool:
    """The projected torsion of the adjusted connection vanishes.

    With a second-slot cubic s3, s30 the same cubic moved to the first
    slot, and s12 = x (x) ds3/dx2 + y (x) ds3/dy2, the tensor

        c0 <s30, <p,q>_{0,1}>_{2,0} + c1 <s12, <p,q>_{0,1}>_{1,1}
        + c2 <s12, <p,q>_{1,0}>_{0,2} + c3 s12 <p,q>_{1,2}

    composed with the slot-merging projection V_{1,2} -> V_3 vanishes
    identically on arguments from the contact subspace V' (the theta
    range along the restricted bundle).  Exact in the cubic's 4 symbolic
    coefficients.
    """
    if s3 is None:
        s3 = symbolic(0, 3, "s3c")
    c0, c1, c2, c3 = coeffs
    s30 = from_coords(3, 0, s3.coords())
    s12 = gradient_form(s3)

    def tensor(p: BiForm, q: BiForm) -> BiForm:
        pq01 = transvectant2(p, q, 0, 1)
        pq10 = transvectant2(p, q, 1, 0)
        pq12 = transvectant2(p, q, 1, 2)
        return (c0 * transvectant2(s30, pq01, 2, 0)
                + c1 * transvectant2(s12, pq01, 1, 1)
                + c2 * transvectant2(s12, pq10, 0, 2)
                + c3 * BiForm(1, 2, s12.poly * pq12.poly))

    vb = bf.vprime_basis(2)
    for i, j in combinations(range(len(vb)), 2):
        if not bf.pr_map(tensor(vb[i], vb[j])).is_zero():
            return False
    return True


def splitting_correction_vanishes(k: int) -> dict:
    """The divisibility condition forces the correction map to vanish.

    A candidate correction V_{k+1} -> V_{k-1} is a sum of pairings with
    unknown forms v_{2i} in V_{2i}, i = 1..k.  Requiring r | delta(u)
    whenever r^2 | u (r symbolic linear) forces every v_{2i} = 0; run as
    an exact homogeneous solve.
    """
    if k < 2:
        raise ValueError("needs k >= 2")
    vs = [symbolic(0, 2 * i, f"vv{2 * i}") for i in range(1, k + 1)]
    sym_names = [s for i in range(1, k + 1)
                 for s in bf.symbol_names(0, 2 * i, f"vv{2 * i}")]

    def delta(u: BiForm) -> BiForm:
        return BiForm(0, k - 1, dot((transvectant2(u, v, 0, i + 1).poly, 1)
                                    for i, v in enumerate(vs, start=1)))

    r = _generic_line()
    rows = linear_rows(_at_root(delta(BiForm(0, k + 1, r * r * w.poly))
                                for w in basis(0, k - 1)), sym_names)
    nvars = len(sym_names)
    _part, kernel = solve_sparse(rows, nvars)
    # the single-r cross-check: for r = x2, divisibility of delta(r^{k+1})
    # is equivalent to r | v_{2k}
    u = BiForm(0, k + 1, Poly.var("x2") ** (k + 1))
    du = delta(u)
    lead, v2k_lead = Substitution({"x2": 0}).apply((du.poly, vs[-1].poly))
    single_r_ok = (not lead.is_zero()) and all(
        v.startswith(f"vv{2 * k}_") or not v.startswith("vv")
        for v in lead.vars) and not v2k_lead.is_zero()
    return {"k": k, "unknowns": nvars, "forced_zero": len(kernel) == 0,
            "kernel_dim": len(kernel), "single_r_check": single_r_ok}
