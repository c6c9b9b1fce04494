"""The names the benchmark meters still resolve in the program.

perfbench/tracer.py wraps each TARGETS entry on its layer module (a
function, or a method found in its class's own namespace), and
perfbench/run.py reports the hit counts of each LAYER_CACHES entry, an
lru_cache defined in its layer module.  A rename or deletion in the
program would otherwise break `perfbench/run.py --trace 1` unnoticed by
this suite.  The `verify` check registry must also list exactly the
suites and checks, in order, that perfbench/answers.py expects of a
report.  The benchmark's files are read, not imported as a package:
run.py changes sys.path when imported, so LAYER_CACHES and
EXPECTED_CHECKS are read from their source, and tracer.py (standard
library only) is loaded under a private name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, attr) for layer, targets in module.TARGETS.items()
            for attr, _name in targets]


def _literal(filename, name):
    tree = ast.parse((BENCH / filename).read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} defines no {name}")


def _layer_caches():
    return _literal("run.py", "LAYER_CACHES")


@pytest.mark.parametrize("layer,attr", _tracer_targets())
def test_traced_target_resolves(layer, attr):
    home = importlib.import_module(f"g12calc.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(home, attr, None)), attr


@pytest.mark.parametrize("cache", _layer_caches())
def test_metered_cache_is_an_lru_cache(cache):
    layer, name = cache.split(".")
    home = importlib.import_module(f"g12calc.{layer}")
    fn = getattr(home, name, None)
    assert fn is not None, cache
    assert fn.__module__ == home.__name__
    assert callable(getattr(fn, "cache_info", None))
    assert callable(getattr(fn, "cache_clear", None))


def test_check_registry_matches_the_benchmark_answers():
    from g12calc import cli
    expected = _literal("answers.py", "EXPECTED_CHECKS")
    registered = [(c.suite, c.name) for c in cli.CHECKS]
    assert registered == [(suite, name) for suite, names in expected.items()
                          for name in names]
    assert cli.SUITE_ORDER == tuple(expected)
    names = [name for _suite, name in registered]
    assert len(set(names)) == len(names)
    suites = [suite for suite, _name in registered]
    runs = [s for i, s in enumerate(suites) if i == 0 or suites[i - 1] != s]
    assert len(runs) == len(set(runs))
