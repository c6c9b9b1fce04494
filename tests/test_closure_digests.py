"""The `closure --mode` output, pinned: the sha256 of its stdout in each
mode.  In h12 and g12 mode it names every generator and parameter whose
d^2 was checked, with its residual; in torsion-s30 mode it carries the
torsion structure report instead.  A refactor of the structure system
that should not change the output must leave these digests as they are.
"""

import hashlib

import pytest

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
