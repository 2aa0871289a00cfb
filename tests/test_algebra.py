import pytest
import sympy as sp
from fractions import Fraction

from loopcorr.algebra import (
    A_LETTERS,
    DERIV_BASE,
    EXP_CHARGE,
    EXP_LETTERS,
    K_LETTERS,
    TERMINALS,
    SectorConfig,
    expand_current,
    current_def,
    primitive_commutator,
    star_term,
    star_check,
    classical_check,
    classical_currents,
    ClassicalOp,
)
from loopcorr.distributions import Coeff
from loopcorr.errors import RealizationMismatch


def cu(re=0, im=0, **kw):
    return Coeff.unit(re=re, im=im, **kw)


K_CFG = SectorConfig(realization="K", sector="nonunitary")
A_CFG = SectorConfig(realization="A", sector="nonunitary")
KU_CFG = SectorConfig(realization="K", sector="unitary")
AU_CFG = SectorConfig(realization="A", sector="unitary")


def test_expand_current_jp():
    terms = expand_current("J+", 1, K_CFG)
    table = {t.symbols: t.coeff for t in terms}
    assert table[("b", "alpha+")] == cu(im=Fraction(1, 2))
    assert table[("alpha+", "a")] == cu(im=Fraction(1, 2))
    assert table[("dalpha+",)] == cu(re=1, kappa=1)
    assert table[("rho", "alpha+")] == cu(re=1)
    assert all(t.index == 1 and t.mode == "K" for t in terms)


def test_expand_current_h():
    terms = expand_current("H", 3, A_CFG)
    table = {t.symbols: t.coeff for t in terms}
    assert table[("h",)] == cu(im=-2)
    assert table[("e-de+",)] == cu(im=2, kappa=1)


def test_expand_realization_mismatch():
    with pytest.raises(RealizationMismatch):
        expand_current("J+", 0, A_CFG)
    with pytest.raises(RealizationMismatch):
        expand_current("E", 0, K_CFG)


def test_letter_roles_cover_the_alphabet_once():
    # every exponential-type letter has exactly one role, and a derivative
    # letter has the charge and the realization of its exponential
    assert set(EXP_CHARGE) | set(DERIV_BASE) | TERMINALS == K_LETTERS | A_LETTERS
    assert set(EXP_CHARGE) == EXP_LETTERS | set(DERIV_BASE)
    assert not (EXP_LETTERS & set(DERIV_BASE)) and not (TERMINALS & set(EXP_CHARGE))
    assert not K_LETTERS & A_LETTERS
    for d, base in DERIV_BASE.items():
        assert base in EXP_LETTERS
        assert EXP_CHARGE[d] == EXP_CHARGE[base]
        assert (d in K_LETTERS) == (base in K_LETTERS)
        assert (d in A_LETTERS) == (base in A_LETTERS)


def test_sector_config_validation():
    with pytest.raises(ValueError):
        SectorConfig(realization="B")
    with pytest.raises(ValueError):
        SectorConfig(sector="mixed")


def test_commutator_a_with_alpha():
    # [a(u1), alpha^+(u2)] = -delta(u1-u2) alpha^+(u2)
    parts = primitive_commutator("a", "alpha+", 1, 2, K_CFG)
    assert len(parts) == 1
    p = parts[0]
    assert p.coeff == cu(re=-1)
    assert p.deltas == ((1, 2, 0),)
    # b has the same raw commutator
    parts_b = primitive_commutator("b", "alpha+", 1, 2, K_CFG)
    assert parts_b == parts


def test_commutator_with_exponentials_a_realization():
    # [b(u1), e^-(u2)] = -i delta(u1-u2) e^-(u2)
    (p,) = primitive_commutator("b", "e-", 1, 2, A_CFG)
    assert p.coeff == cu(im=-1)
    assert p.deltas == ((1, 2, 0),)


def test_commutator_with_terminal_letters():
    # [a(u1), alpha^- d alpha^+(u2)] = +delta'(u1-u2), a pure number
    (p,) = primitive_commutator("a", "alpha-dalpha+", 1, 2, K_CFG)
    assert p.coeff == cu(re=1)
    assert p.deltas == ((1, 2, 1),)
    # with the arguments swapped the token orientation flips the sign
    (q,) = primitive_commutator("a", "alpha-dalpha+", 2, 1, K_CFG)
    assert q.coeff == cu(re=-1)
    assert q.deltas == ((1, 2, 1),)
    # the A-side terminal carries -i
    (r,) = primitive_commutator("b", "e-de+", 1, 2, A_CFG)
    assert r.coeff == cu(im=-1)


def test_commutator_a_b_sectors():
    parts = primitive_commutator("a", "b", 1, 2, KU_CFG)
    assert len(parts) == 1
    assert parts[0].smooth == (("D", 0, 1, 2),)
    assert parts[0].coeff == cu(re=1)
    # in A the zero mode contributes a constant 1/(2 xi0) alongside D
    parts_a = primitive_commutator("a", "b", 1, 2, AU_CFG)
    assert len(parts_a) == 2
    assert parts_a[1].coeff == cu(xi0=-1, re=Fraction(1, 2))
    assert parts_a[1].deltas == () and parts_a[1].smooth == ()


@pytest.mark.parametrize("left, right, cfg", [
    ("h", "alpha+", K_CFG), ("a", "h", K_CFG), ("a", "rho", K_CFG),
    ("a", "dalpha+", K_CFG), ("b", "a", KU_CFG), ("a", "b", K_CFG), ("a", "b", A_CFG),
], ids=lambda v: v.realization + v.sector if isinstance(v, SectorConfig) else v)
def test_commutator_outside_the_diagram_table_raises(left, right, cfg):
    # the diagrams contract a/b only against exponentials, terminals and,
    # in the unitary sector, a later b
    with pytest.raises(ValueError):
        primitive_commutator(left, right, 1, 2, cfg)


def test_star_term():
    c, letters = star_term(cu(im=Fraction(1, 2)), ("b", "alpha+"))
    assert letters == ("alpha-", "a")
    assert c == cu(im=-Fraction(1, 2))
    # the K terminal letter is odd under star
    c2, letters2 = star_term(cu(re=1), ("alpha-dalpha+",))
    assert letters2 == ("alpha-dalpha+",)
    assert c2 == cu(re=-1)


def test_star_check_all_currents():
    for name in ("J+", "J-", "J3", "E", "F", "H"):
        report = star_check(name)
        assert report.ok, report.details


def test_classical_product_rule():
    h = ClassicalOp.h_sym()
    x = ClassicalOp("K", {1: sp.Integer(1)})
    hh = ClassicalOp("K", {0: h})
    # h alpha = alpha (h - 1)
    assert (hh * x - x * ClassicalOp("K", {0: h - 1})).is_zero
    e = ClassicalOp("A", {1: sp.Integer(1)})
    ha = ClassicalOp("A", {0: h})
    assert (ha * e - e * ClassicalOp("A", {0: h + sp.I})).is_zero


def test_classical_check_k():
    report = classical_check("K")
    assert report.ok, (report.relations, report.stars)
    assert all(report.relations.values())
    assert all(report.stars.values())
    assert "relabel" in report.relabel_note


def test_classical_check_a():
    report = classical_check("A")
    assert report.ok, (report.relations, report.stars)


def test_classical_ef_commutator_value():
    lam = sp.Symbol("lambda_", real=True)
    cur = classical_currents("A", lam)
    comm = cur["E"].commutator(cur["F"])
    # [E, F] = H = -2i h exactly, independent of lambda
    assert comm.parts == {0: sp.expand(-2 * sp.I * ClassicalOp.h_sym())}
