"""Invariance of the reports under the internal term order.

Every `Poly` keeps its terms in insertion order, and every `FormExpr` its
monomials, and the certificates must not depend on either.  A small
driver runs `verify` in a fresh process, either plainly, or with
`poly._set_packed` wrapped so that every `Poly` stores its terms in
reverse order, or with `excalc.FormExpr._of` wrapped so that every form
built from an accumulator stores its monomials in reverse order; the
stripped reports must agree.  Each suite run alone in a fresh process,
where it meets every cache cold, must give the check records of the
plain `--suites all` run.  Eight other commands print the same bytes in
all three orders.  Every CPython >= 3.10 that can be found, on
PATH or under pyenv's versions, must give the pinned digest of
`verify --suites all --seed 11 --c 5/7`.
"""

import functools
import glob
import hashlib
import json
import os
import shutil
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


COMMANDS = {
    "closure-h12": ["closure", "--mode", "h12"],
    "closure-g12": ["closure", "--mode", "g12"],
    "closure-torsion-s30": ["closure", "--mode", "torsion-s30"],
    "jmatrix": ["jmatrix", "--c", "5/7"],
    "rank": ["rank", "--seed", "11", "--c", "5/7"],
    "integrals": ["integrals"],
    "decompose": ["decompose", "V(1,2)*V(3,4)"],
    "transvect": ["transvect", "x1^2*x2^3+3*x1*y1*x2*y2^2+y1^2*y2^3",
                  "y1*x2^2-2*x1*y2^2+x1*x2*y2", "1", "1"],
}


def _env() -> dict:
    src = os.path.dirname(os.path.dirname(g12calc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@functools.lru_cache(maxsize=None)
def run_cli(order: str, *argv: str) -> str:
    """The stdout of `g12calc *argv` in a fresh process under `order`."""
    proc = subprocess.run([sys.executable, "-c", DRIVER, order, *argv],
                          capture_output=True, text=True, env=_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_verify(order: str, suite: str = "all") -> dict:
    return strip_timings(json.loads(
        run_cli(order, "verify", "--suites", suite, *ARGV)))


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


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_independent_of_term_order(name):
    argv = COMMANDS[name]
    plain = run_cli("plain", *argv)
    assert plain
    for order in ("reversed", "reversed-forms"):
        assert run_cli(order, *argv) == plain, order


def _interpreters() -> dict:
    """{version: executable} for every CPython >= 3.10 found on PATH or
    under pyenv's versions that starts; one executable per version."""
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(glob.glob(os.path.join(root, "versions", "*", "bin",
                                                "python3")))
    probe = ("import sys; print(sys.implementation.name, "
             "*sys.version_info[:3])")
    found = {}
    for exe in filter(None, candidates):
        try:
            proc = subprocess.run([exe, "-c", probe], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = proc.stdout.split()
        if proc.returncode or len(words) != 4 or words[0] != "cpython":
            continue
        version = tuple(map(int, words[1:]))
        if version >= (3, 10):
            found.setdefault(version, exe)
    return found


def test_report_digest_on_every_interpreter():
    """The stripped `verify --suites all --seed 11 --c 5/7` report of each
    interpreter found has the digest pinned in test_report_digests.py.
    Those interpreters need no pytest: only the subprocess runs there."""
    from test_report_digests import REPORT_DIGESTS

    interpreters = _interpreters()
    if not interpreters:
        pytest.skip("no CPython >= 3.10 found")
    env = dict(_env(), PYTHONDONTWRITEBYTECODE="1")
    for version, exe in sorted(interpreters.items()):
        proc = subprocess.run([exe, "-m", "g12calc", "verify", "--suites",
                               "all", *ARGV],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, (version, proc.stderr)
        text = json.dumps(strip_timings(json.loads(proc.stdout)),
                          sort_keys=True, indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REPORT_DIGESTS[11, "5/7"], version
