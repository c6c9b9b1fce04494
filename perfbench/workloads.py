"""Seeded inputs, timed calls and answer checks of the warm workloads.

Each stream works in cycles.  A cycle is a fixed list of item shapes (which
parameters stay symbolic, which bidegrees and orders, which curvature
coefficient is perturbed); the seed and the cycle number choose the
rational values.  An item is a pair (shape, payload), and a shape is a
tuple whose first entry is the item's kind ("det", "rank", "pairing",
"system").  Runs stop at a cycle boundary, so every run measures the same
mix of shapes.

Inputs are plain Python data built without the program; `prepare` turns
a payload into program objects outside the timed region.
"""

from __future__ import annotations

import random
from fractions import Fraction

from answers import (closure_problem, det_problem, pairing_problem,
                     rank_problem)

A20 = tuple(f"a20_{k}" for k in range(3))
A02 = tuple(f"a02_{k}" for k in range(3))
B = tuple(f"b_{k}" for k in range(6))
PARAMS = A20 + A02 + B + ("c",)
DISPLAY = (Fraction(-4), Fraction(3), Fraction(1), Fraction(1), Fraction(-7))


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def _rational(rng: random.Random, mag: int) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, mag),
                    rng.randint(1, mag))


class JacobianStream:
    """Bareiss det and exact rank of the 12x12 curvature Jacobian J."""

    name = "jacobian_stream"
    # Two parameters stay symbolic in each det item: c and one curvature
    # coordinate, or two coordinates with c rational.
    DET_FREE = (("c", "a20_1"), ("c", "b_2"), ("c", "a02_0"),
                ("a20_1", "b_2"), ("b_3", "a20_1"), ("a02_0", "a02_1"))
    # Sized so that dets and ranks each take about half of a cycle: at
    # the reference speed the six dets take 0.17-0.75 s each (2.4 s in
    # all) and a rank about 0.01 s.
    RANKS_PER_DET = 40
    MAG = 97

    def __init__(self, g):
        self.g = g

    def warm_up(self):
        self.g.integrals._jmatrix_symbolic()

    def inputs(self, seed: int, cycle: int) -> list:
        rng = _rng(self.name, seed, cycle)
        items = []
        for free in self.DET_FREE:
            point = {s: _rational(rng, self.MAG)
                     for s in PARAMS if s not in free}
            items.append((("det", free), point))
            for _ in range(self.RANKS_PER_DET):
                point = {s: _rational(rng, self.MAG) for s in PARAMS}
                items.append((("rank", "generic"), point))
        flat = {s: Fraction(0) for s in PARAMS}
        flat["c"] = _rational(rng, self.MAG)
        items.append((("rank", "flat"), flat))
        return items

    def prepare(self, shape, point):
        return point

    def run(self, shape, point):
        j = self.g.integrals._jmatrix_symbolic().subs(point)
        if shape[0] == "det":
            return self.g.linalg.matrix_det(j)
        return self.g.linalg.matrix_rank_kernel(j)[0]

    def problem(self, shape, point, result, audit: bool):
        if shape[0] == "det":
            return det_problem(result)
        return rank_problem(result, flat=shape[1] == "flat")

    def audit_items(self, seed: int) -> set:
        return set()


class PairingStream:
    """transvectant2 over numeric and parameter-polynomial forms."""

    name = "pairing_stream"
    # (bidegree of u, bidegree of v, orders (p1, p2) used)
    SHAPES = (((1, 2), (1, 2), ((1, 1), (1, 2), (0, 2), (1, 0))),
              ((2, 2), (1, 2), ((1, 1), (1, 2), (0, 1))),
              ((2, 2), (2, 2), ((1, 1), (2, 2), (2, 0))),
              ((3, 2), (2, 3), ((1, 1), (2, 2), (2, 1))),
              ((3, 3), (3, 3), ((1, 1), (3, 3), (2, 1))),
              ((4, 4), (4, 4), ((1, 1), (2, 2), (4, 4))))
    MAG = 9
    AUDITS = 8
    # The Omega-process oracle expands u(x) v(z) in doubled variables; on
    # symbolic forms of total degree above this it takes seconds per call.
    AUDIT_MAX_SYMBOLIC_DEGREE = 8

    def __init__(self, g):
        self.g = g

    def warm_up(self):
        for b1, b2, _orders in self.SHAPES:
            self.g.binforms.basis(*b1)
            self.g.binforms.basis(*b2)

    def inputs(self, seed: int, cycle: int) -> list:
        rng = _rng(self.name, seed, cycle)
        items = []
        for b1, b2, orders in self.SHAPES:
            for p1, p2 in orders:
                for symbolic in (False, True):
                    c1 = tuple(_rational(rng, self.MAG)
                               for _ in range((b1[0] + 1) * (b1[1] + 1)))
                    c2 = tuple(_rational(rng, self.MAG)
                               for _ in range((b2[0] + 1) * (b2[1] + 1)))
                    items.append((("pairing", b1, b2, p1, p2, symbolic),
                                  (c1, c2)))
        rng.shuffle(items)
        return items

    def _form(self, bideg, coeffs, symbolic: bool, prefix: str):
        Poly = self.g.poly.Poly
        if symbolic:
            coeffs = [Poly.var(f"{prefix}_{k}") * q
                      for k, q in enumerate(coeffs)]
        return self.g.binforms.from_coords(*bideg, coeffs)

    def prepare(self, shape, coeffs):
        _kind, b1, b2, _p1, _p2, symbolic = shape
        return (self._form(b1, coeffs[0], symbolic, "u"),
                self._form(b2, coeffs[1], symbolic, "v"))

    def run(self, shape, forms):
        return self.g.binforms.transvectant2(forms[0], forms[1],
                                             shape[3], shape[4])

    def problem(self, shape, forms, result, audit: bool):
        _kind, b1, b2, p1, p2, _symbolic = shape
        want = (b1[0] + b2[0] - 2 * p1, b1[1] + b2[1] - 2 * p2)
        if result.bidegree != want:
            return f"bidegree {result.bidegree}, not {want}"
        if audit:
            oracle = self.g.binforms.transvectant2_omega(forms[0], forms[1],
                                                         p1, p2)
            return pairing_problem(result.poly, oracle.poly)
        return None

    def audit_items(self, seed: int) -> set:
        """Seeded sample of first-cycle items checked against the oracle."""
        shapes = [shape for shape, _coeffs in self.inputs(seed, 0)]
        cheap = [i for i, (_k, b1, b2, _p1, _p2, symbolic) in
                 enumerate(shapes) if not symbolic
                 or sum(b1) + sum(b2) <= self.AUDIT_MAX_SYMBOLIC_DEGREE]
        rng = _rng(self.name + ":audit", seed, 0)
        return {(0, i) for i in rng.sample(cheap, self.AUDITS)}


class ClosureSweep:
    """d^2 reports of structure systems, closing and perturbed."""

    name = "closure_sweep"
    MAG = 9

    def __init__(self, g):
        self.g = g

    def warm_up(self):
        self.g.excalc.build_system("h12")

    def inputs(self, seed: int, cycle: int) -> list:
        rng = _rng(self.name, seed, cycle)
        items = []
        for mode in ("h12", "g12"):
            items.append((("system", mode, "display"), DISPLAY))
            for k in range(len(DISPLAY)):
                coeffs = list(DISPLAY)
                coeffs[k] += _rational(rng, self.MAG)
                items.append((("system", mode, f"perturb{k}"),
                              tuple(coeffs)))
        items.append((("system", "torsion-s30", "default"), None))
        return items

    def prepare(self, shape, coeffs):
        return coeffs

    def run(self, shape, coeffs):
        ex = self.g.excalc
        return ex.d_squared_report(ex.build_system(shape[1], coeffs))

    def problem(self, shape, coeffs, result, audit: bool):
        return closure_problem(result, shape[1], shape[2] == "display")

    def audit_items(self, seed: int) -> set:
        return set()


STREAMS = {s.name: s for s in (JacobianStream, PairingStream, ClosureSweep)}
