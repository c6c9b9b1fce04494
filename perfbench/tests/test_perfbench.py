"""Tests of the benchmark itself:  python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import copy
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import answers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import (STREAMS, ClosureSweep, JacobianStream,  # noqa: E402
                       PairingStream)


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_seed_gives_identical_inputs(name):
    stream = STREAMS[name](None)
    for cycle in (0, 3):
        assert stream.inputs(7, cycle) == STREAMS[name](None).inputs(7, cycle)
    assert stream.inputs(7, 0) != stream.inputs(8, 0)
    assert stream.inputs(7, 0) != stream.inputs(7, 1)
    assert stream.audit_items(7) == stream.audit_items(7)


def test_cycles_keep_their_shapes_across_seeds():
    for stream in (PairingStream(None), JacobianStream(None),
                   ClosureSweep(None)):
        shapes = sorted(map(repr, (s for s, _p in stream.inputs(1, 0))))
        assert shapes == sorted(map(repr, (s for s, _p in
                                           stream.inputs(2, 5))))


# -- spans and self time ------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf = tr.wrap("poly.mul", leaf)

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    middle = tr.wrap("linalg.matrix_det", middle)

    def outer():
        clock.advance(3.0)
        middle()

    outer = tr.wrap("integrals.rank_certificate", outer)
    outer()
    totals = tr.totals()
    assert totals["poly.mul"] == (2, 4.0)
    assert totals["linalg.matrix_det"] == (1, 1.5)
    assert totals["integrals.rank_certificate"] == (1, 3.0)
    spans = tr.span_list()
    assert spans[0] == ("integrals.rank_certificate", 0.0, 8.5, -1)
    assert spans[1] == ("linalg.matrix_det", 3.0, 8.5, 0)
    assert spans[2] == ("poly.mul", 4.0, 6.0, 1)
    assert spans[3] == ("poly.mul", 6.5, 8.5, 1)


def test_spans_beyond_the_cap_still_count():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock, keep=1)
    f = tr.wrap("poly.add", lambda: clock.advance(1.0))
    for _ in range(3):
        f()
    assert tr.totals()["poly.add"] == (3, 3.0)
    assert len(tr.span_list()) == 1 and tr.dropped == 2


def test_disabled_tracer_records_nothing():
    tr = tracer.Tracer(enabled=False)
    f = tr.wrap("poly.add", lambda: 1)
    assert f() == 1
    with tr.recording():
        f()
    f()
    assert tr.totals()["poly.add"][0] == 1


def test_tracing_patches_every_binding_and_restores_them():
    from g12calc import integrals, linalg, poly
    originals = (linalg.divexact, integrals.matrix_det, poly.Poly.__mul__)
    assert linalg.divexact is poly.divexact
    tr = tracer.Tracer()
    with tracer.tracing(tr):
        assert integrals.matrix_det is linalg.matrix_det
        assert linalg.divexact is poly.divexact
        assert poly.Poly.__rmul__ is poly.Poly.__mul__
        x = poly.Poly.var("x")
        m = linalg.PolyMatrix([[x, 1], [1, x]])
        det = integrals.matrix_det(m)
        linalg.solve_sparse([{0: Fraction(1), 1: Fraction(-2)}], 1)
    assert det == x * x - 1
    totals = tr.totals()
    assert totals["linalg.matrix_det"][0] == 1
    assert totals["poly.mul"][0] >= 2
    assert tr.solve_sparse_rows == 1
    assert (linalg.divexact, integrals.matrix_det,
            poly.Poly.__mul__) == originals


# -- the correctness gate -----------------------------------------------------


def _passing_report():
    checks = []
    for suite, names in answers.EXPECTED_CHECKS.items():
        for name in names:
            cert = {}
            for path, value in answers.PINNED.get(name, ()):
                node = cert
                for key in path[:-1]:
                    node = node.setdefault(key, {})
                node[path[-1]] = copy.deepcopy(value)
            checks.append({"check": name, "suite": suite, "status": "pass",
                           "certificate": cert, "wall_time": 0.1})
    return {"checks": checks, "wall_time": 4.0}


def test_gate_accepts_a_complete_report():
    assert answers.report_problems(_passing_report(),
                                   answers.EXPECTED_CHECKS) == {}


def test_gate_rejects_a_missing_check():
    report = _passing_report()
    report["checks"] = [c for c in report["checks"]
                        if c["check"] != "rank_dichotomy"]
    problems = answers.report_problems(report, answers.EXPECTED_CHECKS)
    assert list(problems) == ["rank_dichotomy"]


def test_gate_rejects_shrunken_trials():
    report = _passing_report()
    for c in report["checks"]:
        if c["check"] == "pairing_equivariance":
            c["certificate"]["trials"] = 10
    problems = answers.report_problems(report, answers.EXPECTED_CHECKS)
    assert list(problems) == ["pairing_equivariance"]


def test_gate_rejects_a_failed_or_unknown_check():
    report = _passing_report()
    report["checks"][0]["status"] = "fail"
    report["checks"].append({"check": "extra", "status": "pass"})
    problems = answers.report_problems(report, answers.EXPECTED_CHECKS)
    assert set(problems) == {report["checks"][0]["check"], "extra"}


def test_stream_answers():
    from g12calc.poly import Poly
    assert answers.det_problem(Poly.zero()) is None
    assert answers.det_problem(Poly.const(3)) is not None
    assert answers.rank_problem(10, flat=False) is None
    assert answers.rank_problem(9, flat=False) is not None
    assert answers.rank_problem(6, flat=True) is None
    assert answers.rank_problem(10, flat=True) is not None
    closed = {"count": 25, "all_zero": True}
    assert answers.closure_problem(closed, "h12", closes=True) is None
    assert answers.closure_problem(closed, "h12", closes=False) is not None
    assert answers.closure_problem(closed, "g12", closes=True) is not None


class _WrongClosure(ClosureSweep):
    """Every system claims to close, so every perturbation is wrong."""

    def run(self, shape, _prepared):
        return {"count": answers.RESIDUAL_COUNTS[shape[1]], "all_zero": True}


def test_stream_loop_counts_wrong_answers():
    out = worker.run_cycles(_WrongClosure(None), seed=1, cycles=1)
    items = ClosureSweep(None).inputs(1, 0)
    wrong = sum(1 for shape, _p in items if shape[2] != "display")
    assert out["attempted"] == len(items)
    assert out["failed"] == wrong > 0
    assert out["problems"]


def test_stream_loop_counts_raising_items():
    class Raising(ClosureSweep):
        def run(self, shape, _prepared):
            raise ValueError("boom")

    out = worker.run_cycles(Raising(None), seed=1, cycles=1)
    assert out["failed"] == out["attempted"] > 0


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()
    assert len(spec["per_layer"]) < 128


def test_rates_over_item_kinds():
    kinds = {"det": [2, 1.0, 0.5], "rank": [9, 0.3, 0.1]}
    assert run._rate(kinds, "det") == pytest.approx(4.0)
    assert run._rate(kinds, "rank") == pytest.approx(90.0)
    assert run._rate(kinds) == pytest.approx(11 / 0.6)
    assert run._rate(kinds, scaled=False) == pytest.approx(11 / 1.3)


def test_segments_are_scaled_by_the_speed_readings(monkeypatch):
    monkeypatch.setattr(worker.reference, "reading",
                        lambda: 3 * worker.reference.NOMINAL_S)
    kinds = {}
    segment = [("det", 0.6), ("rank", 0.03), ("rank", 0.03)]
    after = worker._close_segment(kinds, segment,
                                  before=worker.reference.NOMINAL_S)
    assert after == 3 * worker.reference.NOMINAL_S and segment == []
    # The machine read 1x, then 3x slower than nominal: 2x on average.
    assert kinds["det"] == pytest.approx([1, 0.6, 0.3])
    assert kinds["rank"] == pytest.approx([2, 0.06, 0.03])


def test_cache_meter_counts_across_clears():
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def table(n):
        return n * n

    meter = tracer.CacheMeter({"layer.table": table})
    for _cycle in range(3):
        meter.clear(["layer.table"])
        table(1)
        table(1)
        table(2)
    assert meter.counts() == {"layer.table": [3, 6]}


def test_every_cycle_pays_the_cold_cache_misses():
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def table(key):
        return key

    class Cached(ClosureSweep):
        def run(self, shape, coeffs):
            table(shape[1])
            return super().run(shape, coeffs)

        def problem(self, shape, coeffs, result, audit):
            return None

        def __init__(self):
            self.g = types.SimpleNamespace(excalc=types.SimpleNamespace(
                build_system=lambda mode, coeffs: mode,
                d_squared_report=lambda system: system))

    meter = tracer.CacheMeter({"layer.table": table})
    worker.run_cycles(Cached(), seed=1, cycles=2, meter=meter,
                      cold=["layer.table"])
    modes = {shape[1] for shape, _p in ClosureSweep(None).inputs(1, 0)}
    hits, misses = meter.counts()["layer.table"]
    assert misses == 2 * len(modes)
    assert hits == 2 * len(ClosureSweep(None).inputs(1, 0)) - misses


def test_lru_caches_finds_the_program_caches():
    from g12calc import binforms, integrals  # noqa: F401
    caches = tracer.lru_caches()
    assert "binforms.pairing_table" in caches
    assert "integrals._jmatrix_symbolic" in caches
    assert all(hasattr(f, "cache_clear") for f in caches.values())
