"""Term-order pins of the exterior calculus and the Bareiss determinant.

Every result dict keeps its insertion order, and that order reaches the
certificates: `linear_rows` writes one solve row per coefficient in the
order `exterior_d` produced it.  These digests were computed from the
tuple-keyed polynomial kernel and pin, beside the values, the order of
the `FormExpr` monomials and of each `Poly`'s terms.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from g12calc import excalc as ex
from g12calc.integrals import _jmatrix_symbolic
from g12calc.linalg import PolyMatrix, matrix_det
from g12calc.poly import Poly


def poly_record(p: Poly) -> list:
    return [list(p.vars), [[list(e), str(c)] for e, c in p.terms.items()]]


def form_record(fe: ex.FormExpr) -> list:
    return [[list(m), poly_record(c)] for m, c in fe.terms.items()]


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


PERTURBED = (Fraction(-4), Fraction(3), Fraction(1), Fraction(3, 2),
             Fraction(-7))

# (rules, d^2 residuals, residuals contracted with v_i = v_{i mod 3} + i + 1)
SYSTEM_DIGESTS = {
    ("g12", None): (
        "bd3aa4db53e1936926867eacb26f95a0a25f856c5873b798ed9775bc73478f14",
        "29f151678a87c825d116d0e3d54bc856742442629ffe611d225dfa55e7ff089b",
        "29f151678a87c825d116d0e3d54bc856742442629ffe611d225dfa55e7ff089b"),
    ("g12", PERTURBED): (
        "a5049cc2fc6c176de858389017b5c6d4a8784efc9a38dad506ccc7f40975ea15",
        "0f36a64ac5d6d28adec595a0498f88292fbf63993632507122469260c9251031",
        "0f5e8142a2a1e2530077d5557b5200961ec59a308a7ec1ee4610ac9de2bb31ea"),
    ("h12", None): (
        "39ce457c4ee5b2f1708fae9a5e73088c1437ed5df41b57ca2102006c61aabe24",
        "c0e58e723e7735b34686c23319fdea6a4a5368e9ae74c3b95ef024e0dfd277d2",
        "c0e58e723e7735b34686c23319fdea6a4a5368e9ae74c3b95ef024e0dfd277d2"),
    ("h12", PERTURBED): (
        "636a6acad9b8831a23b30b3127cb8285a8b5a1b6d56ac6035ee0795cfc40bbde",
        "8c3fb25c99698e5a5c5c0ab3ae11c9c001d8232304ebd79e2aade7867aaed5a4",
        "ff224a7b19a682f45f9be7a1028caf5a8566e6d74ce589f982234cad6905489b"),
    ("torsion-s30", None): (
        "b7eac44e2e604771ee4ab276a935ae271f499c90ab611bf4da6dffc144d24651",
        "21042b00103e0310777395f8ad87dba21dd12f658a62730cf02d263b734ab59b",
        "7e2869fc777f9e56f323460ea79345a1719f1567615cee510ecafe101b3accd5"),
    ("torsion-s30", PERTURBED): (
        "7d72ac0f2a906f311755b0d2670e0dff38ce1427a140bdb0505d59b0a6de77ce",
        "e4749e3bebe445f840378a7d10ce32a430094534393b2c2135967921e240cf14",
        "5a33184907449f8d353d6cb0f77325d7f588e5fcd6168ab9104fcd07c4d375b0"),
}


@pytest.mark.parametrize("mode,coeffs", list(SYSTEM_DIGESTS),
                         ids=[f"{m}-{'display' if c is None else 'perturbed'}"
                              for m, c in SYSTEM_DIGESTS])
def test_exterior_d_term_order_pinned(mode, coeffs):
    sys = ex.build_system(mode, coeffs)
    rules = [[sys.cf.names[i], form_record(r)]
             for i, r in sorted(sys.gen_rules.items())]
    rules += [[n, form_record(r)] for n, r in sorted(sys.param_rules.items())]
    residuals = ex.d_squared_report(sys)["residuals"]
    values = {i: Poly.var(f"v{i % 3}") + (i + 1) for i in range(len(sys.cf))}
    got = (digest(rules),
           digest([[n, form_record(f)] for n, f in residuals.items()]),
           digest([[n, form_record(ex.contract(f, values))]
                   for n, f in residuals.items()]))
    assert got == SYSTEM_DIGESTS[(mode, coeffs)]


def test_bareiss_det_term_order_pinned():
    """det of the xy-specialised J (zero) and of its leading 10x10 minor
    (121 terms in b, c, t, tp): divexact picks its leading terms in the
    lexicographic order of the canonical variable order."""
    zero = Poly.const(0)
    xy_family = {ex.A20_SYMS[0]: zero, ex.A20_SYMS[1]: Poly.var("t"),
                 ex.A20_SYMS[2]: zero, ex.A02_SYMS[0]: zero,
                 ex.A02_SYMS[1]: Poly.var("tp"), ex.A02_SYMS[2]: zero}
    j = _jmatrix_symbolic().subs(xy_family)
    assert matrix_det(j).is_zero()
    minor = PolyMatrix([row[:10] for row in j.entries[:10]])
    det = matrix_det(minor)
    assert len(det.terms) == 121
    assert digest(poly_record(det)) == (
        "720bb4fd71f2bbc14e19a42180ff639ac41d5c1a7fe2e030a3b29e1b6dc9328e")


def test_cancelled_monomial_is_re_added_last():
    """A term that cancels is dropped, so when the same monomial comes back
    it is inserted after every surviving term, in a Poly sum and in the
    accumulator of exterior_d."""
    x, y = Poly.var("x1"), Poly.var("y1")
    p = (x + y) - x + x
    assert list(p.terms) == [(0, 1), (1, 0)]

    cf = ex.Coframe(("e0", "e1", "e2", "e3", "e4", "e5"))
    e = [ex.FormExpr.gen(cf, k) for k in range(6)]
    e12, e13 = e[1].wedge(e[2]), e[1].wedge(e[3])
    gen_rules = {0: e12, 3: e12.scale(-1), 4: e13, 5: e12}
    sys = ex.StructureSystem("pin", cf, gen_rules, {})
    out = ex.exterior_d(e[0] + e[3] + e[4] + e[5], sys)
    assert list(out.terms) == [(1, 3), (1, 2)]
