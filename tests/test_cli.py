import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import g12calc
from g12calc import binforms as bf
from g12calc import cli
from g12calc.cli import (SuiteConfig, main, run_suites, strip_timings)
from g12calc.poly import Poly


def test_unknown_suite_rejected_before_execution():
    with pytest.raises(ValueError):
        SuiteConfig(["pairings", "nonsense"])


def test_usage_error_exit_code(capsys):
    assert main(["verify", "--suites", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_single_suite_filtering():
    cfg = SuiteConfig(["pairings"], seed=3)
    report = run_suites(cfg)
    assert set(c["suite"] for c in report["checks"]) == {"pairings"}
    assert report["summary"]["fail"] == 0


def test_all_expands_to_every_suite():
    cfg = SuiteConfig(["all"])
    assert cfg.suites == list(cli.SUITE_ORDER)


def test_exit_codes_pass_and_fail(monkeypatch, capsys):
    monkeypatch.setattr(cli, "CHECKS", [cli.Check(
        "pairings", "doomed", "always fails", lambda cfg: (False, {}))])
    assert main(["verify", "--suites", "pairings", "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_report_records_carry_claims():
    report = run_suites(SuiteConfig(["frobenius"], seed=7))
    for record in report["checks"]:
        assert record["claim"]
        assert record["status"] in ("pass", "fail", "skip")
        assert "certificate" in record


def test_determinism_of_reports():
    r1 = strip_timings(run_suites(SuiteConfig(["spencer"], seed=7)))
    r2 = strip_timings(run_suites(SuiteConfig(["spencer"], seed=7)))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_cold_reports_agree_across_hash_seeds():
    """Two fresh processes with different string hashing give the same
    stripped report, so no result depends on hash order or on caches
    warmed by an earlier run in the same process."""
    src = os.path.dirname(os.path.dirname(g12calc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "g12calc", "verify", "--suites", "all",
             "--seed", "7"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(json.dumps(strip_timings(json.loads(proc.stdout)),
                                  sort_keys=True))
    assert reports[0] == reports[1]


def test_format_from_environment_is_checked(monkeypatch, capsys):
    monkeypatch.setenv("G12CALC_FORMAT", "xml")
    assert main(["verify", "--suites", "pairings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'xml'" in captured.err


def test_readme_cli_examples_run(monkeypatch, tmp_path):
    """Every `g12calc ...` line of the README's CLI block exits 0, run
    in-process with its comment stripped; `point.json` is a point file
    written here."""
    for name in ("seed", "c", "out", "format"):
        monkeypatch.delenv(cli.ENV_PREFIX + name.upper(), raising=False)
    point = tmp_path / "point.json"
    point.write_text(json.dumps({s: 1 for s in cli.ex.PARAM_SYMS}))
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines()
             if line.startswith("g12calc ")]
    failed = []
    for line in lines:
        argv = [str(point) if arg == "point.json" else arg
                for arg in shlex.split(line, comments=True)[1:]]
        if main(argv) != 0:
            failed.append(line)
    assert len(lines) >= 10
    assert failed == []


def test_decompose_product(capsys):
    assert main(["decompose", "V(1,2)*V(1,2)"]) == 0
    out = capsys.readouterr().out
    assert "V(2,4)" in out and "total dimension 36" in out


def test_decompose_single_module(capsys):
    assert main(["decompose", "V(0,0)"]) == 0
    out = capsys.readouterr().out
    assert "V(0,0)" in out and "total dimension 1" in out


def test_decompose_double_sum_formula(capsys):
    assert main(["decompose", "V(1,2)*V(3,4)"]) == 0
    out = capsys.readouterr().out
    # sum over p1 in {0,1}, p2 in {0,1,2} of V(4-2p1, 6-2p2)
    for label in ("V(4,6)", "V(4,4)", "V(4,2)", "V(2,6)", "V(2,4)", "V(2,2)"):
        assert label in out
    assert "total dimension 120" in out


def test_decompose_cross_checks_up_to_the_size_limit(monkeypatch, capsys):
    """V(6,6)*V(6,6) (dimension 2401) is answered, and its closed-formula
    answer is checked against the tensor representation."""
    checked = []
    isotypic = bf.isotypic_decompose

    def counted(rep):
        checked.append(rep.dim)
        return isotypic(rep)

    monkeypatch.setattr(bf, "isotypic_decompose", counted)
    assert main(["decompose", "V(6,6)*V(6,6)"]) == 0
    assert checked == [2401]
    assert "total dimension 2401" in capsys.readouterr().out


@pytest.mark.parametrize("expr", ["V(20,20)*V(20,20)", "V(0,200)*V(0,0)"])
def test_decompose_refuses_products_past_the_limit(expr, capsys):
    start = time.perf_counter()
    assert main(["decompose", expr]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decompose_parse_error(capsys):
    assert main(["decompose", "W(1,2)"]) == 2


def test_transvect_values(capsys):
    assert main(["transvect", "x1^2", "y1^2", "1", "0"]) == 0
    assert "4*x1*y1" in capsys.readouterr().out
    assert main(["transvect", "x1^0*x2^2", "y2^2", "0", "2"]) == 0
    out = capsys.readouterr().out
    assert "bidegree (0,0)" in out and "2" in out


def test_transvect_product_case(capsys):
    assert main(["transvect", "x1*x2", "y1*y2", "0", "0"]) == 0
    assert "x1*y1*x2*y2" in capsys.readouterr().out.replace(" ", "")


def test_transvect_odd_self_pairing(capsys):
    assert main(["transvect", "x2^2 + y2^2", "x2^2 + y2^2", "0", "1"]) == 0
    assert "0" in capsys.readouterr().out


def test_transvect_range_violation(capsys):
    assert main(["transvect", "x1", "y1", "2", "0"]) == 2


def test_t_expression_routes_to_transvect(capsys):
    assert main(["decompose", "T(x1*x2^2, y1*y2^2; 1, 2)"]) == 0
    assert "bidegree (0,0)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["transvect", "x1/0", "x1", "0", "0"],
    ["decompose", "T(x1/0, x1; 0, 0)"],
    ["transvect", "x1^100*x1^100", "x1", "0", "0"],
    ["transvect", "x1^100", "x1^100", "0", "0"],
])
def test_literal_faults_are_usage_errors(argv, capsys):
    # a zero divisor or an exponent past the limit, in a literal or in
    # the pairing's result, is the user's input: exit 2, one error line
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_faults_outside_literals_keep_their_traceback(monkeypatch):
    def broken(mode):
        raise ZeroDivisionError("fault in the program")

    monkeypatch.setattr(cli.ex, "build_system", broken)
    with pytest.raises(ZeroDivisionError):
        main(["closure", "--mode", "h12"])


@pytest.mark.parametrize("orders", ["1", "a, 1", "1, 2, 3"])
def test_t_expression_with_malformed_orders_is_a_usage_error(orders, capsys):
    assert main(["decompose", f"T(x1, x1; {orders})"]) == 2
    assert "error:" in capsys.readouterr().err


def test_jmatrix_json(capsys):
    assert main(["jmatrix", "--c", "1", "--emit", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"] == 12 and data["cols"] == 12


def test_closure_command_modes(capsys):
    for mode in ("h12", "g12"):
        assert main(["closure", "--mode", mode]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_zero"]
        assert all(v == "0" for v in data["residuals"].values())
    assert main(["closure", "--mode", "torsion-s30"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["torsion_structure"]["residual_is_predicted_torsion_terms"]


def test_rank_command(capsys):
    assert main(["rank", "--seed", "5", "--c", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank_at_point"] == 10


def test_integrals_command(capsys):
    assert main(["integrals"]) == 0
    assert "pass" in capsys.readouterr().out


def test_integrals_command_runs_kernel_membership_on_its_own(monkeypatch,
                                                               capsys):
    monkeypatch.setattr(cli.ig, "conservation_identity",
                        lambda: {"f1": False, "f2": True, "both": False})
    assert main(["integrals"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "conservation identities: fail", "kernel membership: pass"]


def test_conservation_control_tests_the_71_display(monkeypatch):
    """The control's mutant is f1 + e1, which
    test_first_integrals_are_the_display_at_the_involuted_point pins as
    the display with 71 in place of 72.  f1 - e1 is not conserved
    either, so the verdict alone cannot tell the two apart."""
    seen = []
    gradient = cli.ig.gradient
    monkeypatch.setattr(cli.ig, "gradient",
                        lambda f: seen.append(f) or gradient(f))
    chk = next(c for c in cli.CHECKS
               if c.name == "conservation_mutation_control")
    assert chk.run(SuiteConfig(["integrals"]))[0]
    f1 = cli.ig.first_integrals()[0]
    assert seen == [f1 + cli.ig.invariant_functions()["e1"]]


def test_constants_command(tmp_path, capsys):
    point = {f"a20_{k}": str(Fraction(k + 1, 2)) for k in range(3)}
    point.update({f"a02_{k}": str(Fraction(k - 1, 3)) for k in range(3)})
    point.update({f"b_{k}": str(Fraction(1, k + 1)) for k in range(6)})
    # one entry in the polynomial JSON layout, degree 0
    point["c"] = {"vars": [], "terms": [{"coeff": "3/4", "exps": []}]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    assert main(["constants", "--point", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["c"] == "3/4"


@pytest.mark.parametrize("bad", [
    0.1, 2.0, "abc", "1/0", None, [1],
    {"vars": [], "terms": [{"coeff": 0.5, "exps": []}]},
    {"vars": [], "terms": [{"coeff": "x", "exps": []}]},
    {"terms": []},
    # malformed monomials: an exponent beyond the variables, a repeated
    # monomial, a repeated variable, negative and non-int exponents
    {"vars": ["x"], "terms": [{"coeff": 3, "exps": [0, 7]}]},
    {"vars": ["x"], "terms": [{"coeff": 3, "exps": [0]},
                              {"coeff": 2, "exps": [0]}]},
    {"vars": ["x", "x"], "terms": [{"coeff": 3, "exps": [0, 0]}]},
    {"vars": ["x"], "terms": [{"coeff": 3, "exps": [-1]}]},
    {"vars": ["x"], "terms": [{"coeff": 3, "exps": [0.5]}]},
    {"vars": ["x"], "terms": [{"coeff": 3, "exps": [True]}]},
    # a JSON boolean is not a number
    True, False,
])
def test_constants_rejects_inexact_and_malformed_values(tmp_path, capsys,
                                                         bad):
    point = {s: str(k + 1) for k, s in enumerate(cli.ig.K_SYMS)}
    point["c"] = bad
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    assert main(["constants", "--point", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: entry c")


@pytest.mark.parametrize("text", ['{"c": ', "[1, 2]", '"1/2"'])
def test_constants_rejects_malformed_point_file(tmp_path, capsys, text):
    path = tmp_path / "point.json"
    path.write_text(text)
    assert main(["constants", "--point", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_constants_unreadable_point_file_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(["constants", "--point", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_constants_accepts_ints_and_fraction_strings(tmp_path, capsys):
    point = {s: k - 4 for k, s in enumerate(cli.ig.K_SYMS)}
    point["c"] = "-5/7"
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    assert main(["constants", "--point", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["c"] == "-5/7"


def test_constants_rejects_unknown_names(tmp_path, capsys):
    point = {s: str(k + 1) for k, s in enumerate(cli.ig.K_SYMS)}
    point.update({"c": "1", "a20_9": "2", "cc": "3"})
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    assert main(["constants", "--point", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a20_9" in captured.err and "cc" in captured.err


def test_constants_missing_entries(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"a20_0": "1"}))
    assert main(["constants", "--point", str(path)]) == 2


# the required arguments of each subcommand that has any
MINIMAL_ARGS = {"decompose": ["V(1,2)"], "transvect": ["x1", "x1", "0", "0"],
                "constants": ["--point", "point.json"]}


def test_every_subcommand_parses_to_a_handler():
    # a subcommand cannot be added without a handler for main to call
    parser = cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    assert "verify" in sub.choices
    for name in sub.choices:
        args = parser.parse_args([name, *MINIMAL_ARGS.get(name, [])])
        assert callable(args.run), name


def test_env_override_seed(monkeypatch):
    monkeypatch.setenv("G12CALC_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["verify"])
    assert args.seed == 123


def test_bad_seed_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("G12CALC_SEED", "abc")
    assert main(["--help"]) == 0
    assert main(["rank"]) == 2
    assert main(["verify", "--suites", "frobenius"]) == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--suites", "integrals"],
                                     ["jmatrix"], ["rank"]])
@pytest.mark.parametrize("bad", ["abc", "1/0", ""])
def test_bad_c_is_usage_error(command, bad, capsys):
    assert main(command + ["--c", bad]) == 2
    assert "argument --c: expected 'symbolic' or a rational number" in \
        capsys.readouterr().err


def test_rank_refuses_symbolic_c(capsys):
    assert main(["rank", "--c", "symbolic"]) == 2
    err = capsys.readouterr().err
    assert "argument --c:" in err and "'symbolic'" in err


def test_valid_c_recorded_as_given(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    assert main(["verify", "--suites", "frobenius", "--c", "5/7",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["c"] == "5/7"
    monkeypatch.setenv("G12CALC_C", "symbolic")
    assert main(["verify", "--suites", "frobenius", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["c"] == "symbolic"


def test_verify_writes_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suites", "frobenius", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["summary"]["fail"] == 0


def test_json_safe_rejects_float_with_key_path():
    with pytest.raises(TypeError, match=r"0\.5 at \$\.a\.b\[1\]"):
        cli._json_safe({"a": {"b": [Fraction(1, 3), 0.5]}})
    assert cli._json_safe({"a": [Fraction(2), 3, True, None, "s"]}) == \
        {"a": ["2/1", 3, True, None, "s"]}


def test_check_with_float_certificate_fails_and_names_the_path():
    # a certificate holds JSON data and exact rationals only: a Poly, a
    # BiForm or a FormExpr is refused like a float, and so is an outcome
    # that is not a bool
    x1 = Poly.var("x1")
    form = cli.ex.FormExpr.gen(cli.ex.Coframe(("e0",)), 0)
    for outcome, error in (
            ((True, {"scale": [Fraction(1), -1.0]}),
             "TypeError: inexact value -1.0 at certificate.scale[1]"),
            ((True, {"residual": x1}), "TypeError: Poly at "
             "certificate.residual is not JSON data or an exact rational"),
            ((True, {"forms": [bf.BiForm(1, 0, x1)]}), "TypeError: BiForm at "
             "certificate.forms[0] is not JSON data or an exact rational"),
            ((True, {"d": {"e0": form}}), "TypeError: FormExpr at "
             "certificate.d.e0 is not JSON data or an exact rational"),
            ((1, {}), "TypeError: outcome of type int, not bool"),
            ((None, {}), "TypeError: outcome of type NoneType, not bool")):
        chk = cli.Check("pairings", "inexact", "a float in a certificate",
                        lambda cfg, outcome=outcome: outcome)
        rec = cli._check(chk, SuiteConfig(["pairings"]))
        assert rec["status"] == "fail"
        assert rec["certificate"] == {"error": error}


def _bianchi_record(name):
    report = run_suites(SuiteConfig(["bianchi"]))
    return next(c for c in report["checks"] if c["check"] == name)


def test_connection_square_gate_rejects_perturbed_wedge(monkeypatch):
    ww, cand = cli.ex.omega_wedge_and_pairing()
    fit = cli.ex.fit_pairing_scale
    good = fit(ww, cand)
    assert good["fits_every_component"]
    assert good["fitted_scale"] == -1
    # one component off the fitted scale, and a nonzero om00 component:
    # the scale is still read from the first ratio, the gate must fail
    off_scale = list(ww)
    off_scale[5] = off_scale[5] + cand[5]
    om00_hit = list(ww)
    om00_hit[0] = cand[1]
    for bad in (off_scale, om00_hit):
        rep = fit(bad, cand)
        assert rep["fitted_scale"] == -1
        assert not rep["fits_every_component"]
        monkeypatch.setattr(cli.ex, "omega_wedge_pairing_scale",
                            lambda bad=bad: fit(bad, cand))
        rec = _bianchi_record("connection_square_scale")
        assert rec["status"] == "fail"
        assert rec["certificate"] == {"matches_minus_half_pairing": False,
                                      "fitted_scale": "-1/1"}
