"""Certificates and derived coefficients pinned to fixed values.

The certificates of the checks whose linear systems are assembled from
unknown coefficients (the Bianchi kernel, the derived parameter rules,
the divisibility criterion, the splitting correction and the restriction
chain), and the full outputs of the three rule derivations, must not move
when the way those systems are assembled changes.  A reduced echelon form
does not depend on the order of the rows, so the kernel bases and the
particular solutions are pinned exactly, and so are the row counts that
certificates report.
"""

from fractions import Fraction
from types import MappingProxyType

import pytest

from g12calc import excalc as ex
from g12calc.cli import SuiteConfig, run_suites, strip_timings

# nonzero entries (vector, column) of the six Bianchi kernel vectors; the
# other 580 of the 6 x 105 entries are 0
KERNEL_NONZERO = {
    (0, 4): "-1/2", (0, 12): "-1/1", (0, 31): "1/1", (0, 41): "-1/2",
    (0, 52): "-1/2", (0, 66): "1/1",
    (1, 25): "-1/1", (1, 30): "-4/1", (1, 33): "-2/1", (1, 46): "1/1",
    (1, 51): "2/1", (1, 62): "-1/1", (1, 65): "-4/1", (1, 68): "2/1",
    (1, 76): "1/1",
    (2, 1): "1/1", (2, 18): "1/1", (2, 23): "1/1", (2, 26): "1/2",
    (2, 34): "-1/1", (2, 44): "-1/1", (2, 47): "1/2", (2, 55): "3/4",
    (2, 69): "-1/1", (2, 87): "1/1",
    (3, 8): "1/1", (3, 25): "1/2", (3, 30): "2/1", (3, 33): "2/1",
    (3, 51): "-1/2", (3, 54): "-1/4", (3, 62): "1/2", (3, 68): "1/1",
    (3, 94): "1/1",
    (4, 32): "-1/1", (4, 36): "1/1", (4, 53): "3/4", (4, 58): "1/1",
    (4, 61): "1/2", (4, 67): "-1/1", (4, 72): "-1/1", (4, 75): "1/2",
    (4, 83): "1/1", (4, 101): "1/1",
    (5, 29): "-2/1", (5, 50): "1/1", (5, 64): "-2/1", (5, 88): "1/1",
    (5, 96): "2/1", (5, 104): "1/1",
}

CERTIFICATES = {
    "curvature_space": {
        "display_coefficients": ["-4", "3", "1", "1", "-7"],
        "solution_dim": 6,
        "kernel_basis": [[KERNEL_NONZERO.get((i, j), "0/1")
                          for j in range(105)] for i in range(6)],
    },
    "parameter_rules_derived": {
        "derived_coefficients": ["2/1", "-1/1", "2/1", "-1/1", "3/1",
                                 "-1/1", "-1/1", "-2/1", "-1/1", "4/3",
                                 "7/1", "4/1"],
        "uniform_rhs_scale": "-1/1",
    },
    "divisibility_criterion": {"constraint_rows": 60, "free_s30_dim": 4,
                               "solution_dim": 30},
    "s16_single_pair": {},
    "splitting_correction_vanishes": {"unknowns": [8, 15]},
    "restriction_chain": {
        "a_block_rank": 3, "a_constraint_count": 3,
        "a_constraints_match_display": True,
        "admissible_submanifold_dim": 8, "b_block_rank": 2,
        "b_constraint_rank": 2, "b_solution_is_gradient_subspace": True,
        "blocks_independent": True, "combined_differential_rank": 4,
        "frobenius_conditions": 12,
    },
}

F = Fraction
DERIVATIONS = {
    "derive_da": {"alphas": [F(2), F(-1), F(2), F(-1)], "freedom_dim": 6,
                  "display_matches_freedom": True},
    "derive_db": {
        "gammas": [F(3), F(-1), F(-1)],
        "shape_coefficients": {"om00b": F(3), "om20b": F(-1),
                               "om02b": F(-1), "prod_11": F(-2),
                               "sq02_02": F(-1), "d1_theta": F(0),
                               "d2_theta": F(0), "theta": F(0)},
        "undetermined_shapes": ["d1_theta", "d2_theta", "theta"],
    },
    "derive_dc": {"q_d1": F(4, 3), "q_d2": F(7), "c_om00_coefficient": F(4),
                  "theta_part_vanishes": True, "redefinition_freedom": 2},
}


def _plain(value):
    """Mappings as dicts and sequences as lists, so the pins do not
    depend on which read-only container a derivation hands out."""
    if isinstance(value, (dict, MappingProxyType)):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@pytest.fixture(scope="module")
def certificates():
    report = strip_timings(run_suites(SuiteConfig(
        ["torsion", "bianchi", "restriction"], seed=7)))
    return {rec["check"]: (rec["status"], rec["certificate"])
            for rec in report["checks"]}


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_pinned(certificates, name):
    status, cert = certificates[name]
    assert status == "pass"
    assert cert == CERTIFICATES[name]


@pytest.mark.parametrize("name", sorted(DERIVATIONS))
def test_derivation_pinned(name):
    got = getattr(ex, name)()
    assert _plain(got) == DERIVATIONS[name]
    # exact values only
    for key in ("alphas", "gammas"):
        for v in got.get(key, ()):
            assert isinstance(v, Fraction)
