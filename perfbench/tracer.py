"""Spans and cache counters recorded from outside the program.

The tracer wraps the public functions of each g12calc layer.  Every call
becomes a span with a name, start, end and parent; the layer's self time
is the span's duration minus the time its child spans cover.  Calls and
self time are summed as spans close, so the totals cover every call; the
spans themselves are kept in memory up to a cap and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

# layer -> (attribute in the layer's module, metric name)
TARGETS = {
    "poly": (("Poly.__init__", "construct"), ("Poly.__mul__", "mul"),
             ("Poly.__add__", "add"), ("Poly.diff", "diff"),
             ("Poly.subs", "subs"), ("divexact", "divexact")),
    "linalg": tuple((f, f) for f in (
        "matrix_det", "matrix_rank_kernel", "rank", "kernel_basis",
        "linsolve", "solve_sparse", "invert_rational")),
    "binforms": tuple((f, f) for f in (
        "transvectant2", "transvectant2_omega", "generator_action",
        "isotypic_decompose")),
    "spencer": tuple((f, f) for f in (
        "tensor_values", "spencer_in_coords", "encode_torsion",
        "decode_torsion", "prolongation_and_h02")),
    "excalc": tuple((f, f) for f in (
        "exterior_d", "FormExpr.wedge", "build_system", "d_squared_report")),
    "integrals": tuple((f, f) for f in (
        "rank_certificate", "det_vanishes_symbolically",
        "symmetry_fields_check", "first_integrals")),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, targets in TARGETS.items()
                   for _attr, name in targets)

_FIELDS = 4  # name id, start, end, parent span index


class Tracer:
    """Records nested spans of wrapped callables on one thread.

    While `enabled` is false the wrappers call straight through, so work
    around the measured calls (building inputs, checking answers) stays
    out of the spans.
    """

    def __init__(self, clock=time.perf_counter, keep: int = 100_000,
                 enabled: bool = True):
        self.clock = clock
        self.keep = keep
        self.enabled = enabled
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self.solve_sparse_rows = 0
        self.spans = array("d")
        self.dropped = 0
        self._stack: list = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        clock, stack, spans = self.clock, self._stack, self.spans
        calls, self_s = self.calls, self.self_s
        cap = self.keep * _FIELDS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if len(spans) < cap:
                idx = len(spans) // _FIELDS
                spans.extend((nid, 0.0, 0.0, stack[-1][0] if stack else -1))
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    spans[idx * _FIELDS + 1] = t0
                    spans[idx * _FIELDS + 2] = t1

        return traced

    @contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def totals(self) -> dict:
        """{span name: (calls, self seconds)}, summed over wrappers."""
        out = {}
        for name, n, s in zip(self.names, self.calls, self.self_s):
            c0, s0 = out.get(name, (0, 0.0))
            out[name] = (c0 + n, s0 + s)
        return out

    def span_list(self) -> list:
        """Kept spans as (name, start, end, parent index) tuples."""
        s = self.spans
        return [(self.names[int(s[i])], s[i + 1], s[i + 2], int(s[i + 3]))
                for i in range(0, len(s), _FIELDS)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.span_list(),
                       "dropped": self.dropped}, fh)


def _modules(package: str):
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


@contextmanager
def tracing(tracer: Tracer, package: str = "g12calc"):
    """Patch every binding of every target, restore them on exit.

    Modules import some targets by name (`from .linalg import matrix_det`),
    so each module-level binding is replaced, not only the home one.
    Methods are wrapped on their class, which covers aliases such as
    `__rmul__ = __mul__`.
    """
    homes = {layer: importlib.import_module(f"{package}.{layer}")
             for layer in TARGETS}
    mods = _modules(package)
    undo = []
    for layer, targets in TARGETS.items():
        home = homes[layer]
        for attr, name in targets:
            span = f"{layer}.{name}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(home, cls_name)]
                orig = owners[0].__dict__[meth]
            else:
                owners = mods
                orig = getattr(home, attr)
            fn = orig
            if span == "linalg.solve_sparse":
                fn = _counting_rows(tracer, orig)
            wrapped = tracer.wrap(span, fn)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        undo.append((owner, key, value))
                        setattr(owner, key, wrapped)
    try:
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def _counting_rows(tracer: Tracer, solve_sparse):
    """solve_sparse that adds the rows it is given to the tracer's count."""
    @functools.wraps(solve_sparse)
    def counted(rows, *args, **kwargs):
        if tracer.enabled:
            tracer.solve_sparse_rows += len(rows)
        return solve_sparse(rows, *args, **kwargs)
    return counted


def lru_caches(package: str = "g12calc") -> dict:
    """{"layer.fn": fn} of every lru_cache'd function the package's modules
    define; call before patching."""
    out = {}
    for mod in _modules(package):
        layer = mod.__name__[len(package) + 1:]
        for name, value in vars(mod).items():
            if (hasattr(value, "cache_clear")
                    and getattr(value, "__module__", None) == mod.__name__):
                out[f"{layer}.{name}"] = value
    return dict(sorted(out.items()))


class CacheMeter:
    """Hits and misses of lru_caches, summed across `clear` calls.

    `cache_clear()` also zeroes a cache's own counts, so the meter folds
    them into its totals before clearing.
    """

    def __init__(self, caches: dict):
        self.caches = caches
        self.totals = {name: [0, 0] for name in caches}
        self._base = self._read()

    def _read(self) -> dict:
        return {name: f.cache_info() for name, f in self.caches.items()}

    def _fold(self):
        now = self._read()
        for name, info in now.items():
            self.totals[name][0] += info.hits - self._base[name].hits
            self.totals[name][1] += info.misses - self._base[name].misses
        self._base = now

    def clear(self, names):
        self._fold()
        for name in names:
            self.caches[name].cache_clear()
        self._base = self._read()

    def counts(self) -> dict:
        """{"layer.fn": [hits, misses]} since the meter was made."""
        self._fold()
        return {name: list(hm) for name, hm in self.totals.items()}
