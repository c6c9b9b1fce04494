"""One benchmark process: set up, then run a stream or a traced verify.

Started by run.py with PYTHONPATH pointing at the checkout's sources.
Prints one JSON line with its results and nothing else to stdout.

Modes:
  setup         import and warm up, then exit
  stream        run whole cycles until --seconds have passed
  trace         run whole cycles untraced for --seconds/4, then the same
                cycles under the tracer, then untraced again
  verify-trace  run `verify --suites all` in this process under the tracer
"""

import time

STARTED = time.perf_counter()  # set-up time counts every import below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from answers import EXPECTED_CHECKS, report_problems  # noqa: E402
from workloads import STREAMS  # noqa: E402

MAX_PROBLEMS = 5


def _program():
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"g12calc.{name}")
        for name in tracing.TARGETS})


def _close_segment(kinds: dict, segment: list, before: float) -> float:
    """Add the items timed since the reading `before` to `kinds`, scaled
    by the mean of that reading and a new one; return the new one."""
    after = reference.reading()
    scale = reference.NOMINAL_S * 2 / (before + after)
    for kind, dt in segment:
        row = kinds.setdefault(kind, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dt
        row[2] += dt * scale
    segment.clear()
    return after


def run_cycles(stream, seed: int, seconds: float = None, cycles: int = None,
               audit: bool = True, around=contextlib.nullcontext,
               meter: tracing.CacheMeter = None, cold=()):
    """Whole cycles until `seconds` of wall time or exactly `cycles`.

    Each cycle first clears the `cold` caches through `meter`, so every
    cycle pays the same cache misses.  Only the call itself is timed,
    inside `around()`; building inputs, checking answers (including the
    audits against slower oracles) and reading the machine's speed
    happen outside.  Returns, per item kind, [items, call seconds,
    call seconds scaled to the reference speed] (see reference.py).
    """
    kinds = {}
    segment = []
    problems = []
    attempted = failed = done = 0
    audits = stream.audit_items(seed) if audit else set()
    reading = reference.reading()
    start = mark = time.perf_counter()
    while (done < cycles if cycles is not None
           else time.perf_counter() - start < seconds):
        if meter is not None:
            meter.clear(cold)
        for index, (shape, payload) in enumerate(stream.inputs(seed, done)):
            prepared = stream.prepare(shape, payload)
            try:
                with around():
                    t0 = time.perf_counter()
                    try:
                        result = stream.run(shape, prepared)
                    finally:
                        dt = time.perf_counter() - t0
            except Exception as exc:  # a raising item is a wrong answer
                problem = f"{type(exc).__name__}: {exc}"
            else:
                problem = stream.problem(shape, prepared, result,
                                         (done, index) in audits)
            segment.append((shape[0], dt))
            attempted += 1
            if problem is not None:
                failed += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append(f"cycle {done} item {index}: {problem}")
            if time.perf_counter() - mark >= reference.EVERY_S:
                reading = _close_segment(kinds, segment, reading)
                mark = time.perf_counter()
        done += 1
    _close_segment(kinds, segment, reading)
    return {"cycles": done, "kinds": kinds,
            "item_s": sum(row[1] for row in kinds.values()),
            "scaled_s": sum(row[2] for row in kinds.values()),
            "attempted": attempted, "failed": failed, "problems": problems}


def _trace_result(tracer, spans_path):
    if spans_path:
        tracer.dump(spans_path)
    rows = tracer.solve_sparse_rows
    return {"totals": tracer.totals(),
            "counters": {"linalg.solve_sparse.rows": rows},
            "spans_kept": len(tracer.spans) // 4,
            "spans_dropped": tracer.dropped}


def _verify_trace(seed: int, spans_path: str) -> dict:
    tracer = tracing.Tracer()
    from g12calc import cli
    meter = tracing.CacheMeter(tracing.lru_caches())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), tracing.tracing(tracer):
        code = cli.main(["verify", "--suites", "all", "--seed", str(seed)])
    report = json.loads(buf.getvalue())
    problems = report_problems(report, EXPECTED_CHECKS)
    return {"exit_code": code, "cache": meter.counts(),
            "attempted": sum(map(len, EXPECTED_CHECKS.values())),
            "failed": len(problems),
            "problems": [f"{k}: {v}" for k, v in problems.items()],
            "trace": _trace_result(tracer, spans_path)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "stream", "trace", "verify-trace"))
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    if args.mode == "verify-trace":
        print(json.dumps(_verify_trace(args.seed, args.spans)), flush=True)
        return 0
    stream = STREAMS[args.workload](_program())
    stream.warm_up()
    out = {"setup_s": time.perf_counter() - STARTED,
           "setup_probe_s": reference.reading()}
    caches = tracing.lru_caches()
    # Caches the warm-up left empty are filled by the items themselves;
    # they are cleared at the start of every cycle.
    cold = [n for n, f in caches.items() if f.cache_info().currsize == 0]
    meter = tracing.CacheMeter(caches)
    if args.mode == "stream":
        out.update(run_cycles(stream, args.seed, seconds=args.seconds,
                              meter=meter, cold=cold))
        out["cache"] = meter.counts()
    elif args.mode == "trace":
        # The untraced passes bracket the traced one, and the overhead
        # is taken from scaled times, so that drift in machine speed
        # during the run cancels out of it.
        plain = run_cycles(stream, args.seed, seconds=args.seconds / 4,
                           meter=meter, cold=cold)
        tracer = tracing.Tracer(enabled=False)
        traced_meter = tracing.CacheMeter(caches)
        with tracing.tracing(tracer):
            traced = run_cycles(stream, args.seed, cycles=plain["cycles"],
                                audit=False, around=tracer.recording,
                                meter=traced_meter, cold=cold)
        again = run_cycles(stream, args.seed, cycles=plain["cycles"],
                           audit=False, meter=meter, cold=cold)
        passes = (plain, traced, again)
        out.update({
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "problems": [x for p in passes for x in p["problems"]]
            [:MAX_PROBLEMS],
            "untraced_s": (plain["item_s"] + again["item_s"]) / 2,
            "traced_s": traced["item_s"],
            "overhead_s": traced["scaled_s"]
            - (plain["scaled_s"] + again["scaled_s"]) / 2,
            "cache": traced_meter.counts(),
            "trace": _trace_result(tracer, args.spans)})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
