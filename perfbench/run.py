"""g12calc benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload verify_all --seed 7 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from `src/`.
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it name every metric with its unit, the provenance and the cache
counts.  Exit code 0 means every answer was right, 1 that the
correctness gate tripped, 2 that the program is missing, 3 that a
process failed or the run overran its deadline.

All load comes from one process at a time, as a closed loop.  Times
are scaled to a reference speed of the machine, read while the
program's process is stopped or between its items (see reference.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from answers import EXPECTED_CHECKS, report_problems  # noqa: E402
from tracer import SPAN_NAMES, TARGETS  # noqa: E402

WORKLOADS = ("verify_all", "jacobian_stream", "pairing_stream",
             "closure_sweep")
END_TO_END = (("items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Metric names of the workloads' own item kinds, printed beside the
# workload-neutral `items_per_s`.
KIND_RATES = {"jacobian_stream": (("det", "dets_per_s"),
                                  ("rank", "ranks_per_s")),
              "pairing_stream": (("pairing", "pairings_per_s"),),
              "closure_sweep": (("system", "systems_per_s"),)}
# Caches reported per layer; every lru_cache of the program is printed.
LAYER_CACHES = ("binforms.pairing_table", "binforms.rep_matrices",
                "excalc.derive_da", "excalc.derive_db", "excalc.derive_dc",
                "integrals._jmatrix_symbolic",
                "spencer._torsion_encode_matrix")
# Set-up-only processes per stream run, beside the measuring one.
SETUP_RUNS = 8
# A verify process is stopped for a speed reading every
# reference.EVERY_S, from FIRST_READING_S on (after start-up and
# imports) until it prints.
FIRST_READING_S = 1.0
DEADLINE_S = 170


def per_layer_spec() -> list:
    """[(name, unit)] of every per-layer metric, in print order."""
    spec = []
    for span in SPAN_NAMES:
        spec += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    spec.append(("linalg.solve_sparse.rows", "count"))
    for cache in LAYER_CACHES:
        spec += [(f"{cache}.hits", "count"), (f"{cache}.misses", "count")]
        if cache == "binforms.pairing_table":
            spec.append((f"{cache}.hit_ratio", "ratio"))
    spec += [(f"cli.suite.{s}_s", "s") for s in EXPECTED_CHECKS]
    spec += [(f"cli.check.{c}_s", "s")
             for checks in EXPECTED_CHECKS.values() for c in checks]
    spec += [("cli.process.cpu_s", "s"), ("trace.overhead_s", "s")]
    return spec


class Deadline(Exception):
    pass


class Child:
    """A finished child process: its output, timings and resource use.

    `active_s` is the wall time minus the time the process was stopped
    for speed readings.  `readings` are the reading taken just before
    the process started and those taken while it was stopped.
    """

    def __init__(self, lines, wall_s, active_s, readings, rusage, code):
        self.lines = lines
        self.wall_s = wall_s
        self.active_s = active_s
        self.readings = readings
        self.rusage = rusage
        self.code = code

    def json(self) -> dict:
        return json.loads(self.lines[-1])

    @property
    def scale(self) -> float:
        """Factor from this process's times to the reference speed."""
        return reference.NOMINAL_S / statistics.mean(self.readings)

    @property
    def rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024

    @property
    def cpu_s(self) -> float:
        return self.rusage.ru_utime + self.rusage.ru_stime


class Runner:
    """Starts one child at a time from the checkout and reaps it.

    Each child leads its own process group, so that it can be stopped
    and killed together with any processes it starts.
    """

    def __init__(self, root: Path):
        self.root = root
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("G12CALC_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.out_dir = root / ".perfbench_out"
        self.live = []

    def run(self, args, sample: bool = False) -> Child:
        """Run one child to its end.  With `sample`, stop it every
        reference.EVERY_S for a reading of the machine's speed until it
        first writes to stdout, so that no reading overlaps its work."""
        readings = [reference.reading()]
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True)
        self.live.append(proc)
        chunks, paused = [], 0.0
        next_probe = t0 + FIRST_READING_S
        with proc.stdout:
            fd = proc.stdout.fileno()
            while True:
                wait = (max(0.0, next_probe - time.perf_counter())
                        if sample and not chunks else None)
                if select.select([fd], [], [], wait)[0]:
                    data = os.read(fd, 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
                    continue
                stop_at = time.perf_counter()
                os.killpg(proc.pid, signal.SIGSTOP)
                try:
                    readings.append(reference.reading())
                finally:
                    os.killpg(proc.pid, signal.SIGCONT)
                next_probe = time.perf_counter()
                paused += next_probe - stop_at
                next_probe += reference.EVERY_S
            _pid, status, rusage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        lines = b"".join(chunks).decode().splitlines()
        return Child(lines, wall_s, wall_s - paused, readings, rusage,
                     proc.returncode)

    def verify(self, seed: int) -> Child:
        return self.run(["-m", "g12calc", "verify", "--suites", "all",
                         "--seed", str(seed)], sample=True)

    def worker(self, workload: str, seed: int, mode: str,
               seconds: float = 0.0) -> Child:
        args = [str(HERE / "worker.py"), "--workload", workload, "--seed",
                str(seed), "--seconds", str(seconds), "--mode", mode]
        if mode in ("trace", "verify-trace"):
            self.out_dir.mkdir(exist_ok=True)
            args += ["--spans",
                     str(self.out_dir / f"spans-{workload}-{seed}.json")]
        child = self.run(args)
        if child.code != 0 or not child.lines:
            raise RuntimeError(f"worker {workload}/{mode} exited {child.code}")
        return child

    def stop(self):
        for proc in self.live:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        self.live.clear()


# -- workloads ------------------------------------------------------------


def _verify_outcome(child: Child, suites):
    """(report or None, {check: problem}) for one verify process."""
    try:
        report = json.loads("\n".join(child.lines))
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict):
        return None, {c: f"exit {child.code}, no JSON report"
                      for s in suites for c in EXPECTED_CHECKS[s]}
    return report, report_problems(report, suites)


def run_verify_all(r: Runner, seed: int, seconds: float, trace: bool):
    out = {"attempted": 0, "failed": 0, "problems": {}, "named": {}}
    full = []
    start = time.perf_counter()
    # At least two processes, for two samples of each figure per run.
    while True:
        child = r.verify(seed)
        report, problems = _verify_outcome(child, EXPECTED_CHECKS)
        out["attempted"] += sum(map(len, EXPECTED_CHECKS.values()))
        out["failed"] += len(problems)
        out["problems"].update(problems)
        full.append((child, report))
        if trace or (len(full) >= 2 and time.perf_counter() - start
                     + statistics.median(c.active_s for c, _rep in full)
                     > seconds):
            break
    if not trace:
        scaled = [c.active_s * c.scale for c, _rep in full]
        setups = [(c.wall_s - rep["wall_time"]) * c.scale
                  for c, rep in full if rep]
        if not setups:
            raise RuntimeError("no verify process printed a report")
        out["metrics"] = {
            "items_per_s": len(scaled) / sum(scaled),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(c.rss_mb for c, _rep in full)}
        out["named"] = {
            "verify_wall_s": (statistics.median(scaled), "s"),
            "verify_wall_unscaled_s": (statistics.median(
                c.active_s for c, _rep in full), "s"),
            "setup_unscaled_s": (statistics.median(
                c.wall_s - rep["wall_time"] for c, rep in full if rep), "s"),
            "speed_probe_s": (statistics.median(
                x for c, _rep in full for x in c.readings), "s")}
        return out

    child, report = full[0]
    traced = r.worker("verify_all", seed, "verify-trace")
    res = traced.json()
    out["attempted"] += res["attempted"]
    out["failed"] += res["failed"]
    out["problems"].update(dict(p.split(": ", 1) for p in res["problems"]))
    cli = {"cli.process.cpu_s": child.cpu_s}
    for rec in (report or {}).get("checks", ()):
        cli[f"cli.check.{rec['check']}_s"] = rec["wall_time"]
        key = f"cli.suite.{rec['suite']}_s"
        cli[key] = cli.get(key, 0.0) + rec["wall_time"]
    out.update(trace=res, traced_s=traced.wall_s, untraced_s=child.active_s,
               overhead_s=traced.wall_s - child.active_s)
    out["layer_values"] = _layer_values(res, out["overhead_s"], cli)
    return out


def run_stream(r: Runner, name: str, seed: int, seconds: float, trace: bool):
    if trace:
        res = r.worker(name, seed, "trace", seconds).json()
        return {"attempted": res["attempted"], "failed": res["failed"],
                "problems": dict(enumerate(res["problems"])), "trace": res,
                "layer_values": _layer_values(res, res["overhead_s"], {}),
                "traced_s": res["traced_s"], "untraced_s": res["untraced_s"],
                "overhead_s": res["overhead_s"], "named": {}}
    runs = [r.worker(name, seed, "setup") for _ in range(SETUP_RUNS)]
    child = r.worker(name, seed, "stream", seconds)
    runs.append(child)
    res = child.json()
    kinds = res["kinds"]
    named = {metric: (_rate(kinds, kind), "1/s")
             for kind, metric in KIND_RATES[name]}
    named["items_per_s_unscaled"] = (_rate(kinds, scaled=False), "1/s")
    named["setup_unscaled_s"] = (statistics.median(
        c.json()["setup_s"] for c in runs), "s")
    named["cycles"] = (res["cycles"], "count")
    if len(kinds) > 1:
        total = sum(row[2] for row in kinds.values())
        for kind, row in kinds.items():
            named[f"{kind}_time_share"] = (row[2] / total, "ratio")
    return {"attempted": res["attempted"], "failed": res["failed"],
            "problems": dict(enumerate(res["problems"])), "named": named,
            "cache": res["cache"],
            "metrics": {"items_per_s": _rate(kinds),
                        "setup_s": statistics.median(map(_setup, runs)),
                        "peak_rss_mb": child.rss_mb}}


def _setup(child: Child) -> float:
    """A worker's set-up time, scaled by the readings just before it
    started and just after its set-up."""
    res = child.json()
    return (res["setup_s"] * reference.NOMINAL_S * 2
            / (child.readings[0] + res["setup_probe_s"]))


def _rate(kinds: dict, kind=None, scaled: bool = True) -> float:
    """Items per second over the chosen kinds' summed call time, scaled
    to the reference speed or as measured."""
    rows = [row for k, row in kinds.items() if kind in (None, k)]
    return (sum(row[0] for row in rows)
            / sum(row[2 if scaled else 1] for row in rows))


def _layer_values(res: dict, overhead_s: float, cli: dict) -> dict:
    totals = res["trace"]["totals"]
    values = {}
    for span in SPAN_NAMES:
        calls, self_s = totals.get(span, (0, 0.0))
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    values.update(res["trace"]["counters"])
    for cache in LAYER_CACHES:
        hits, misses = res["cache"][cache]
        values[f"{cache}.hits"] = hits
        values[f"{cache}.misses"] = misses
    hits, misses = res["cache"]["binforms.pairing_table"]
    values["binforms.pairing_table.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    values.update(cli)
    values["trace.overhead_s"] = overhead_s
    return {name: values.get(name, 0) for name, _unit in per_layer_spec()}


# -- reporting -------------------------------------------------------------


def provenance(root: Path, seed: int) -> dict:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "seed": seed,
            "loadavg_at_start": [round(x, 2) for x in os.getloadavg()]}


def run_workload(r: Runner, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    if name == "verify_all":
        out = run_verify_all(r, seed, seconds, trace)
    else:
        out = run_stream(r, name, seed, seconds, trace)
    if trace:
        spec = per_layer_spec()
        out["metrics"] = {n: {"value": out["layer_values"][n], "unit": u}
                          for n, u in spec}
    else:
        units = dict(END_TO_END)
        out["metrics"] = {n: {"value": v, "unit": units[n]}
                          for n, v in out["metrics"].items()}
    out["correct"] = out["failed"] == 0
    return out


def print_workload(name: str, out: dict, trace: bool):
    print(f"== {name}")
    for metric, (value, unit) in out["named"].items():
        print(f"  {metric:<34} {value:>14.6g} {unit}")
    for metric, m in out["metrics"].items():
        if not trace or m["value"]:
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"  {'failed_ratio':<34} {ratio:>14.6g} "
          f"({out['failed']} of {out['attempted']} checks or items)")
    for key, problem in list(out["problems"].items())[:10]:
        print(f"  WRONG {key}: {problem}")
    cache = out.get("cache") or out.get("trace", {}).get("cache", {})
    for fn, (hits, misses) in cache.items():
        if hits + misses:
            print(f"  cache {fn:<32} {hits} hits, {misses} misses, hit "
                  f"ratio {hits / (hits + misses):.3f} of {hits + misses}")
    idle = [fn for fn, (hits, misses) in cache.items() if not hits + misses]
    if idle:
        print(f"  caches not called: {', '.join(idle)}")
    if trace:
        totals = out["trace"]["trace"]["totals"]
        traced = out["traced_s"]
        shares = {layer: sum(s for n, (_c, s) in totals.items()
                             if n.startswith(layer + ".")) / traced
                  for layer in TARGETS}
        print("  layer self time as a share of the traced time "
              f"{traced:.3f} s: " + ", ".join(
                  f"{k} {v:.1%}" for k, v in shares.items()))
        print(f"  tracing overhead {out['overhead_s']:.3f} s "
              f"on {out['untraced_s']:.3f} s untraced; spans kept "
              f"{out['trace']['trace']['spans_kept']}, dropped "
              f"{out['trace']['trace']['spans_dropped']}")


def _on_alarm(_signum, _frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def _on_term(_signum, _frame):
    raise Deadline("terminated")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "g12calc" / "__init__.py").is_file():
        print(f"perfbench: no g12calc sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGTERM, _on_term)
    if len(names) == 1:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(DEADLINE_S)
    print("provenance " + json.dumps(provenance(root, args.seed)))
    runner = Runner(root)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(runner, name, args.seed,
                                         args.seconds, bool(args.trace))
            print_workload(name, results[name], bool(args.trace))
    except (Deadline, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        runner.stop()
    if len(names) == 1:
        out = results[names[0]]
        metrics = out["metrics"]
    else:
        out = {"correct": all(o["correct"] for o in results.values()),
               "attempted": sum(o["attempted"] for o in results.values()),
               "failed": sum(o["failed"] for o in results.values())}
        metrics = {f"{w}.{n}": m for w, o in results.items()
                   for n, m in o["metrics"].items()}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
