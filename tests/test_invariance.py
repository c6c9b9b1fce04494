"""Invariance of the reports under the internal term order.

Every `Poly` keeps its terms in insertion order, and every `FormExpr` its
monomials, and the certificates must not depend on either.  A small
driver runs `verify` in a fresh process, either plainly, or with
`poly._set_packed` wrapped so that every `Poly` stores its terms in
reverse order, or with `excalc.FormExpr._of` wrapped so that every form
built from an accumulator stores its monomials in reverse order; the
stripped reports must agree.  Each suite run alone in a fresh process,
where it meets every cache cold, must give the check records of the
plain `--suites all` run.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import g12calc
from g12calc.cli import SUITE_ORDER, strip_timings

ARGV = ["--seed", "11", "--c", "5/7"]

DRIVER = """
import sys

from g12calc import poly

if sys.argv[1] == "reversed":
    set_packed = poly._set_packed

    def reversed_packed(p, tm):
        set_packed(p, dict(reversed(tm.items())))

    poly._set_packed = reversed_packed
    x, y = poly.Poly.var("x1"), poly.Poly.var("y1")
    assert list((x + y).packed) == [poly.var_key("y1"), poly.var_key("x1")]

if sys.argv[1] == "reversed-forms":
    from g12calc import excalc

    form_of = excalc.FormExpr._of

    def reversed_of(cf, by_mask):
        return form_of(cf, dict(reversed(by_mask.items())))

    excalc.FormExpr._of = staticmethod(reversed_of)
    cf = excalc.Coframe(("e0", "e1"))
    e0, e1 = excalc.FormExpr.gen(cf, 0), excalc.FormExpr.gen(cf, 1)
    assert list((e0 + e1).terms) == [(1,), (0,)]

from g12calc.cli import main

sys.exit(main(sys.argv[2:]))
"""


@functools.lru_cache(maxsize=None)
def run_verify(order: str, suite: str = "all") -> dict:
    src = os.path.dirname(os.path.dirname(g12calc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, order, "verify", "--suites", suite,
         *ARGV],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return strip_timings(json.loads(proc.stdout))


def test_report_independent_of_poly_term_order():
    plain = run_verify("plain")
    assert plain["summary"] == {"pass": 40, "fail": 0, "skip": 0}
    assert (json.dumps(run_verify("reversed"), sort_keys=True)
            == json.dumps(plain, sort_keys=True))


def test_report_independent_of_form_term_order():
    assert (json.dumps(run_verify("reversed-forms"), sort_keys=True)
            == json.dumps(run_verify("plain"), sort_keys=True))


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_report_independent_of_suite_selection(suite):
    alone = run_verify("plain", suite)
    assert alone["suites"] == [suite]
    want = [c for c in run_verify("plain")["checks"] if c["suite"] == suite]
    assert want and alone["checks"] == want
