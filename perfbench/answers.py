"""Known answers that decide whether a benchmark run was correct.

Every answer here is fixed by the mathematics, not read back from the
program under test: the 40 check names of `verify --suites all`, the
paper's dimensions and work sizes in their certificates, det J = 0, the
generic rank 10 of J, and which curvature tuples close.  A later change
that drops or shrinks a check, or returns a wrong stream answer, makes
the run fail.
"""

from __future__ import annotations

EXPECTED_CHECKS = {
    "pairings": ("clebsch_gordan_single", "clebsch_gordan_double",
                 "pairing_equivariance", "omega_process_oracle",
                 "equivariance_mutation_control"),
    "spencer": ("spencer_dimensions", "spencer_orthogonal_sanity",
                "torsion_codec_roundtrip", "spencer_coordinate_formula",
                "spencer_coords_mutation_control"),
    "torsion": ("divisibility_criterion", "s16_single_pair",
                "intrinsic_adjustment", "projected_torsion_vanishes",
                "splitting_correction_vanishes"),
    "bianchi": ("curvature_space", "parameter_rules_derived",
                "connection_square_scale"),
    "closure": ("closure_h12", "closure_g12", "torsionful_residual_structure",
                "bianchi_combination", "closure_mutation_control"),
    "jmatrix": ("jacobian_contraction", "jacobian_determinant_vanishes",
                "generic_rank_10", "rank_dichotomy"),
    "integrals": ("conservation_identity", "gradient_rows",
                  "kernel_membership", "integrals_equivariant",
                  "symmetry_fields", "fields_vanish_flat",
                  "conservation_mutation_control", "constants_replay"),
    "restriction": ("restriction_chain", "first_integral_vanishes",
                    "admissibility_flag"),
    "frobenius": ("local_symmetry_obstruction", "full_coframe_trivial"),
}

# Paper values and work sizes, as (path into the certificate, value).
PINNED = {
    "clebsch_gordan_single": ((("pairs_tested",), 25),),
    "clebsch_gordan_double": ((("pairs_tested",), 15),),
    "pairing_equivariance": ((("trials",), 100),),
    "spencer_dimensions": ((("dims", "dim_domain"), 42),
                           (("dims", "dim_target"), 90),
                           (("dims", "dim_h02"), 48)),
    "torsion_codec_roundtrip": ((("encode_rank",), 90),),
    "divisibility_criterion": ((("solution_dim",), 30),
                               (("free_s30_dim",), 4),
                               (("constraint_rows",), 60)),
    "splitting_correction_vanishes": ((("unknowns",), [8, 15]),),
    "curvature_space": ((("solution_dim",), 6),),
    "closure_h12": ((("residuals_checked",), 25),),
    "closure_g12": ((("residuals_checked",), 26),),
    "generic_rank_10": ((("rank_at_point",), 10),),
    "rank_dichotomy": ((("samples",), 22),),
}

GENERIC_RANK = 10
# Live generators plus parameters whose d^2 a closure report expands.
RESIDUAL_COUNTS = {"h12": 25, "g12": 26, "torsion-s30": 26}


def _lookup(cert, path):
    for key in path:
        if not isinstance(cert, dict) or key not in cert:
            return None
        cert = cert[key]
    return cert


def report_problems(report: dict, suites) -> dict:
    """{check name: reason} for every expected check the report gets wrong.

    A check is wrong when it is missing, repeated, not `pass`, or when a
    pinned certificate value differs.  Checks the report has but no
    requested suite expects are reported under their own names.
    """
    problems = {}
    seen = {}
    for rec in report.get("checks", ()):
        seen.setdefault(rec.get("check"), []).append(rec)
    expected = [name for suite in suites for name in EXPECTED_CHECKS[suite]]
    for name in expected:
        recs = seen.pop(name, [])
        if len(recs) != 1:
            problems[name] = f"present {len(recs)} times"
            continue
        rec = recs[0]
        if rec.get("status") != "pass":
            problems[name] = f"status {rec.get('status')!r}"
            continue
        for path, value in PINNED.get(name, ()):
            got = _lookup(rec.get("certificate"), path)
            if got != value:
                problems[name] = f"{'.'.join(path)} is {got!r}, not {value!r}"
                break
    for name in seen:
        problems[str(name)] = "not an expected check"
    return problems


def det_problem(det) -> str | None:
    return None if det.is_zero() else "det(J) is not 0"


def rank_problem(rank: int, flat: bool) -> str | None:
    if flat:
        return None if rank < GENERIC_RANK else f"flat-point rank {rank}"
    return None if rank == GENERIC_RANK else f"generic rank {rank}"


def closure_problem(report: dict, mode: str, closes: bool) -> str | None:
    if report["count"] != RESIDUAL_COUNTS[mode]:
        return f"{report['count']} residuals in mode {mode}"
    if report["all_zero"] != closes:
        return "closes" if report["all_zero"] else "does not close"
    return None


def pairing_problem(got, oracle) -> str | None:
    return None if got == oracle else "transvectant2 differs from the oracle"
