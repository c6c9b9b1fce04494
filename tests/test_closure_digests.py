"""The `closure --mode` output, pinned: the sha256 of its stdout in each
mode.  In h12 and g12 mode it names every generator and parameter whose
d^2 was checked, with its residual; in torsion-s30 mode it carries the
torsion structure report instead.  A refactor of the structure system
that should not change the output must leave these digests as they are.
"""

import hashlib

import pytest

from g12calc import excalc as ex
from g12calc.cli import main

CLOSURE_DIGESTS = {
    "h12": "f538148e2608f886b94d50925ce0ac4625d9900c04be8fbace92f41f63b83640",
    "g12": "233163b1009b3677823e24e1e6bda009d73730f446daac8b716e11b71f41738b",
    "torsion-s30":
        "b73d31d0e3420bb4a5ebff17da4e1d10528eaf73fb6584d6245ccb3c30e714f8",
}


@pytest.mark.parametrize("mode", sorted(CLOSURE_DIGESTS))
def test_closure_output_digest(mode, capsys):
    assert main(["closure", "--mode", mode]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLOSURE_DIGESTS[mode]


# The residuals themselves, where they are not zero: the sha256 of the
# lines "name: residual" of d_squared_report, in report order, for
# systems whose curvature tuple is not the displayed one.
RESIDUAL_DIGESTS = {
    ("h12", (-4, 3, 1, 1, -6)):
        "603358ed9289e28de96ba68e8b7df4c127f062c761f2db7b70b5851c00c444ae",
    ("g12", (-4, 3, 1, 1, -6)):
        "08a49d2092cbd443fdb65a30b2f1be9e0daebaa64dacf0791e7bf9ef81e5f22e",
    ("g12", (0, 0, 0, 0, 0)):
        "4b6aad678ff3272c1d7dd16d6ccea0fde22f2e918955741d434a1dc95ec0a51c",
}


@pytest.mark.parametrize("mode,coeffs", sorted(RESIDUAL_DIGESTS))
def test_nonzero_residual_digest(mode, coeffs):
    rep = ex.d_squared_report(ex.build_system(mode, curvature_coeffs=coeffs))
    assert not rep["all_zero"]
    text = "".join(f"{name}: {res}\n"
                   for name, res in rep["residuals"].items())
    assert (hashlib.sha256(text.encode()).hexdigest()
            == RESIDUAL_DIGESTS[mode, coeffs])
