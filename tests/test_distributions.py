import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from loopcorr.distributions import (
    Coeff,
    Expression,
    Term,
    UnionFind,
    canonicalize,
    conjugate,
    d_du,
    detect_singular,
    smear,
)
from loopcorr.algebra import SectorConfig
from loopcorr.errors import SingularProduct, StructuralViolation
from loopcorr.kernels import XiSequence
from loopcorr.renorm import RenormScheme
from loopcorr.verify import gram_matrix

SEQ = XiSequence.geometric(Fraction(1, 2))


def expr(terms, realization=None, radii=None):
    return Expression(list(terms), realization, radii or {})


def term(re=1, im=0, **kw):
    return Term(Coeff.complex_rat(re, im), **kw)


def test_coeff_ring():
    a = Coeff.unit(kappa=1, re=0, im=4)
    b = Coeff.unit(kappa=1, re=0, im=-4)
    assert (a + b).is_zero
    c = Coeff.unit(mu={2: 1}, re=Fraction(1, 2))
    prod = a * c
    assert list(prod.parts()) == [(1, 0, 0, ((2, 1),))]
    assert prod.parts()[(1, 0, 0, ((2, 1),))] == (Fraction(0), Fraction(2))
    assert (a * b).parts()[(2, 0, 0, ())] == (Fraction(16), Fraction(0))
    assert Coeff.unit(mu={2: 0}) == Coeff.one()
    assert a.conj().parts()[(1, 0, 0, ())] == (Fraction(0), Fraction(-4))


def test_coeff_repr_is_sorted_and_sympy_free(fresh_python):
    proc = fresh_python("-c", "import sys\n"
                              "from fractions import Fraction\n"
                              "from loopcorr import Coeff\n"
                              "c = Coeff.unit(kappa=1, mu={2: 1}, re=Fraction(1, 2))"
                              " + Coeff.complex_rat(-1, 3)\n"
                              "print(repr(c))\n"
                              "print('sympy' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["Coeff((-1 + 3*I) + 1/2*kappa*mu2)", "False"]


# small pools, so that monomials and parts collide and sums and products cancel
# 1/3 and -5/9 stand for the non-dyadic loop scales a scheme substitutes
_FRACS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                          Fraction(1, 2), Fraction(-3, 4), Fraction(1, 3), Fraction(-5, 9)])
_UNITS = st.builds(lambda kappa, mu, re, im: Coeff.unit(kappa=kappa, mu=mu, re=re, im=im),
                   st.integers(0, 2), st.dictionaries(st.sampled_from((2, 3)), st.integers(1, 2),
                                                      max_size=2),
                   _FRACS, _FRACS)


@st.composite
def _coeffs(draw):
    """A sum of one to three monomials, or a difference x - y with the same
    monomials as the sum x + y drawn next to it."""
    parts = draw(st.lists(_UNITS, min_size=1, max_size=3))
    total = Coeff()
    for n, c in enumerate(parts):
        total = total - c if n and draw(st.booleans()) else total + c
    return total


def _check_exact(c: Coeff, want) -> None:
    assert sp.expand(c.to_sympy() - want) == 0
    for re, im in c.parts().values():
        assert type(re) is Fraction and type(im) is Fraction and (re or im)
    for a, b, den in c.d.values():
        assert all(type(x) is int for x in (a, b, den))
        assert den > 0 and math.gcd(a, b, den) == 1 and (a or b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_coeffs(), _coeffs(),
       st.sampled_from([(1, 0), (-1, 0), (2, 0), (3, 0), (Fraction(1, 2), 0), (0, 1)]))
def test_coeff_arithmetic_is_exact(a, b, s):
    before_a, before_b = dict(a.d), dict(b.d)
    _check_exact(a * b, sp.expand(a.to_sympy() * b.to_sympy()))
    _check_exact(a * a, sp.expand(a.to_sympy() ** 2))
    _check_exact((a + b) * (a - b), sp.expand(a.to_sympy() ** 2 - b.to_sympy() ** 2))
    re, im = s
    _check_exact(a.scale(re, im), sp.expand(a.to_sympy() * (sp.Rational(re) + sp.I * im)))
    assert a.d == before_a and b.d == before_b


def test_loop_scale_substitution():
    c = Coeff.unit(kappa=1) + Coeff.unit(mu={2: 2}, re=3) + Coeff.unit(mu={2: 1, 3: 1}, re=0, im=1)
    assert c.subs_mu({2: Fraction(1, 2), 3: 4}.get) == \
        Coeff.unit(kappa=1) + Coeff.complex_rat(Fraction(3, 4), 2)
    assert c.subs_mu(lambda k: 0) == Coeff.unit(kappa=1)
    plain = Coeff.unit(kappa=1)
    assert plain.subs_mu(None) is plain
    with pytest.raises(ValueError):
        c.subs_numeric()


def test_non_dyadic_loop_scale_serializes_like_fractions():
    c = (Coeff.unit(kappa=1, mu={2: 1}, re=Fraction(1, 2))
         + Coeff.unit(mu={3: 2}, re=0, im=Fraction(-3, 4)))
    got = c.subs_mu({2: Fraction(7, 3), 3: Fraction(-5, 9)}.get)
    want_im = Fraction(-3, 4) * Fraction(-5, 9) ** 2
    want = [[[0, 0, 0], [], "0", f"{want_im.numerator}/{want_im.denominator}"],
            [[1, 0, 0], [], "7/6", "0"]]
    assert json.loads(expr([Term(got)]).to_json())["terms"][0]["coeff"] == want


def _json_with_parts(*parts):
    t = {"coeff": [[[0, 0, 0], [], re, im] for re, im in parts],
         "deltas": [], "smooth": [], "exps": [], "dmarks": []}
    return json.dumps({"realization": None, "radii": {}, "terms": [t]})


def test_from_json_rejects_a_zero_part():
    assert Expression.from_json(_json_with_parts(("1", "0"))).terms[0].coeff == Coeff.one()
    with pytest.raises(ValueError, match=r"\(0, 0, 0, \(\)\)"):
        Expression.from_json(_json_with_parts(("0", "0")))


def test_from_json_rejects_a_repeated_monomial():
    with pytest.raises(ValueError, match=r"\(0, 0, 0, \(\)\)"):
        Expression.from_json(_json_with_parts(("1", "0"), ("2", "0")))


def test_merge_of_identical_structures():
    t1 = term(1, deltas=((1, 2, 0),))
    t2 = term(-1, deltas=((1, 2, 0),))
    out = canonicalize(expr([t1, t2]))
    assert out.terms == []


def test_plain_delta_collapse_moves_content():
    # N(2,3) delta(1,2) == N(1,3) delta(1,2)
    t = term(1, deltas=((1, 2, 0),), smooth=(("NK", 0, 2, 3),))
    out = canonicalize(expr([t]))
    assert len(out.terms) == 1
    assert out.terms[0].deltas == ((1, 2, 0),)
    assert out.terms[0].smooth == (("NK", 0, 1, 3),)


def test_plain_chain_collapses_to_star():
    t = term(1, deltas=((1, 2, 0), (2, 3, 0)))
    alt = term(1, deltas=((1, 3, 0), (2, 3, 0)))
    a = canonicalize(expr([t]))
    b = canonicalize(expr([alt]))
    assert a.terms == b.terms
    assert a.terms[0].deltas == ((1, 2, 0), (1, 3, 0))


@pytest.mark.parametrize("family", ["wavy", "D"])
def test_plain_deltas_cannot_close_a_wavy_or_dotted_factor(family):
    # support relabeling along delta(0,1) delta(1,2) puts a wavy or dotted
    # factor on (0, 2) onto the single on-circle point 0, where it diverges
    t = term(1, deltas=((0, 1, 0), (1, 2, 0)), smooth=((family, 0, 0, 2),))
    with pytest.raises(StructuralViolation):
        canonicalize(expr([t]))


@pytest.mark.parametrize("family", ["wavy", "D"])
@pytest.mark.parametrize("deltas", [
    ((0, 2, 1),),
    ((0, 1, 0), (1, 2, 1)),
    ((0, 1, 1), (1, 2, 0)),
])
def test_any_deltas_closing_a_wavy_or_dotted_factor_raise(deltas, family):
    # the closure rule does not depend on the kind of the closing delta:
    # across delta'(0,2) the factor on (0, 2) lands on (0, 0) as well
    e = expr([term(1, deltas=deltas, smooth=((family, 0, 0, 2),))])
    with pytest.raises(StructuralViolation):
        canonicalize(e)
    with pytest.raises(StructuralViolation):
        smear(e, {0: {0: 1}, 1: {0: 1}, 2: {0: 1}}, SEQ, trunc=4, grid=8)


def test_odd_self_factor_drops_before_the_closure_rule():
    # NK'(0,0) is exactly zero, so the divergent wavy(0,0) beside it is
    # multiplied by zero and the term drops instead of raising
    t = term(1, smooth=(("NK", 1, 0, 0), ("wavy", 0, 0, 0)))
    assert canonicalize(expr([t])).terms == []
    with pytest.raises(StructuralViolation):
        canonicalize(expr([term(1, smooth=(("wavy", 0, 0, 0),))]))
    # inside the disc the same self factor is a finite function
    inside = expr([term(1, smooth=(("wavy", 0, 0, 0),))], radii={0: Fraction(1, 2)})
    assert len(canonicalize(inside).terms) == 1


def test_delta_cycle_is_singular():
    t = term(1, deltas=((1, 2, 0), (2, 3, 0), (1, 3, 0)))
    with pytest.raises(SingularProduct):
        canonicalize(expr([t]))
    assert detect_singular(expr([t]))


def test_cancelling_singular_terms_still_raise():
    # the coefficients of equal structures are merged before rewriting; a
    # structure some nonzero term reaches is rewritten even when they cancel
    square = ((0, 1, 0), (0, 1, 0))
    for dmarks in ((), (0,)):
        pair = expr([term(1, deltas=square, dmarks=dmarks), term(-1, deltas=square, dmarks=dmarks)])
        with pytest.raises(SingularProduct):
            canonicalize(pair)
    # a term with a zero coefficient is never rewritten
    assert canonicalize(expr([Term(Coeff(), deltas=square)])).terms == []


def test_repeated_pair_is_singular():
    t = term(1, deltas=((1, 2, 0), (1, 2, 1)))
    with pytest.raises(SingularProduct):
        canonicalize(expr([t]))


def test_detect_singular_lists_what_canonicalize_refuses():
    cycle = ((1, 2, 0), (1, 3, 0), (2, 3, 0))
    cases = [
        (((1, 2, 0), (1, 2, 0)), {}, True),                   # repeated pair
        (cycle, {}, True),                                    # 3-cycle
        (((1, 2, 1), (1, 3, 2), (2, 3, 1)), {}, True),        # 3-cycle of derivative deltas
        (((1, 2, 0), (2, 3, 1), (3, 4, 0)), {}, False),       # tree
        (cycle, {i: Fraction(1, 2) for i in (1, 2, 3)}, False),  # cycle inside the disc
    ]
    for deltas, radii, singular in cases:
        e = expr([term(1, deltas=deltas)], radii=radii)
        assert detect_singular(e) == ([0] if singular else []), deltas
        if singular:
            with pytest.raises(SingularProduct):
                canonicalize(e)
        else:
            canonicalize(e)
    # the report lists term indices
    on_circle = expr([term(1, deltas=d) for d, radii, _s in cases if not radii])
    assert detect_singular(on_circle) == [0, 1, 2]


def test_union_find_joins_under_smallest_root():
    uf = UnionFind()
    assert uf.union(3, 1) == 3
    assert uf.union(4, 2) == 4
    assert [uf.find(i) for i in (1, 2, 3, 4)] == [1, 2, 1, 2]
    assert uf.union(4, 3) == 2          # the smallest index stays the root
    assert [uf.find(i) for i in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert uf.union(2, 3) is None       # ends already joined
    assert uf.union(0, 4) == 1
    assert [uf.find(i) for i in (0, 1, 2, 3, 4)] == [0, 0, 0, 0, 0]


def test_inside_disc_deltas_are_not_distributions():
    # same cycle, but off-circle: a finite product of functions, no error
    t = term(1, deltas=((1, 2, 0), (2, 3, 0), (1, 3, 0)))
    e = expr([t], radii={1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1, 2)})
    out = canonicalize(e)
    assert len(out.terms) == 1
    assert detect_singular(e) == []


def test_derivative_of_delta():
    t = term(1, deltas=((1, 2, 1),))
    [d1] = d_du(t, 1, None)
    assert d1.deltas == ((1, 2, 2),)
    assert d1.coeff == Coeff.one()
    [d2] = d_du(t, 2, None)
    assert d2.coeff == Coeff.complex_rat(-1)


def test_exp_derivative_emits_kernel():
    t = term(1, exps=((1, 1), (2, -1)))
    out = d_du(t, 1, "K")
    assert len(out) == 1
    assert out[0].smooth == (("NK", 1, 1, 2),)
    # -(+1)(-1) = +1
    assert out[0].coeff == Coeff.one()
    out_a = d_du(Term(Coeff.one(), exps=((1, 1), (2, -1))), 2, "A")
    # A sign: +q2*q1, with orientation flip for (2,1) -> (1,2)
    assert out_a[0].coeff == Coeff.complex_rat(1)
    assert out_a[0].smooth == (("NA", 1, 1, 2),)


def test_opposite_charges_at_same_point_cancel():
    t = term(1, deltas=((1, 2, 0),), exps=((1, 1), (2, -1)))
    out = canonicalize(expr([t], realization="K"))
    assert len(out.terms) == 1
    assert out.terms[0].exps == ()


def test_k_charge_balance_drops_terms():
    t = term(1, exps=((1, 1), (2, 1)))
    out = canonicalize(expr([t], realization="K"))
    assert out.terms == []
    out_a = canonicalize(expr([t], realization="A"))
    assert len(out_a.terms) == 1


def test_odd_self_kernel_vanishes():
    # delta-collapse produces N'(c,c) = 0
    t = term(1, deltas=((1, 2, 0),), smooth=(("NK", 1, 1, 2),))
    out = canonicalize(expr([t]))
    assert out.terms == []


def test_dmark_expansion_leibniz():
    # d/du_1 [ delta(1,2) ] as a pending marker
    t = term(1, deltas=((1, 2, 0),), dmarks=(1,))
    out = canonicalize(expr([t]))
    assert len(out.terms) == 1
    assert out.terms[0].deltas == ((1, 2, 1),)


def test_star_move_identity_prime_times_plain():
    # delta'(1,2) delta(2,3) = delta'(1,2) delta(1,3) + delta(1,2) delta'(1,3)
    t = term(1, deltas=((1, 2, 1), (2, 3, 0)))
    out = canonicalize(expr([t]))
    got = {tt.deltas: tt.coeff for tt in out.terms}
    assert got == {
        ((1, 2, 1), (1, 3, 0)): Coeff.one(),
        ((1, 2, 0), (1, 3, 1)): Coeff.one(),
    }


def test_star_move_identity_two_primes():
    # delta'(1,2) delta'(2,3) = delta'(1,2) delta'(1,3) + delta(1,2) delta''(1,3)
    t = term(1, deltas=((1, 2, 1), (2, 3, 1)))
    out = canonicalize(expr([t]))
    got = {tt.deltas: tt.coeff for tt in out.terms}
    assert got == {
        ((1, 2, 1), (1, 3, 1)): Coeff.one(),
        ((1, 2, 0), (1, 3, 2)): Coeff.one(),
    }


def test_canonicalize_detects_zero_difference():
    lhs = term(1, deltas=((1, 2, 1), (2, 3, 0)))
    rhs1 = term(-1, deltas=((1, 2, 1), (1, 3, 0)))
    rhs2 = term(-1, deltas=((1, 2, 0), (1, 3, 1)))
    out = canonicalize(expr([lhs, rhs1, rhs2]))
    assert out.terms == []


def test_content_moves_across_derivative_delta():
    # N(2,3) delta'(1,2) = N(1,3) delta'(1,2) + N^(1)(1,3) delta(1,2)
    t = term(1, deltas=((1, 2, 1),), smooth=(("NK", 0, 2, 3),))
    out = canonicalize(expr([t]))
    got = {(tt.deltas, tt.smooth): tt.coeff for tt in out.terms}
    assert got == {
        (((1, 2, 1),), (("NK", 0, 1, 3),)): Coeff.one(),
        (((1, 2, 0),), (("NK", 1, 1, 3),)): Coeff.one(),
    }


def test_exp_charge_moves_across_derivative_delta():
    # charge at 2 moved across delta'(1,2): emission term appears
    t = term(1, deltas=((1, 2, 1),), exps=((2, 1), (3, -1)))
    out = canonicalize(expr([t], realization="K"))
    keys = {(tt.deltas, tt.smooth, tt.exps) for tt in out.terms}
    assert (((1, 2, 1),), (), ((1, 1), (3, -1))) in keys
    assert (((1, 2, 0),), (("NK", 1, 1, 3),), ((1, 1), (3, -1))) in keys
    assert len(out.terms) == 2


def test_smear_plain_delta():
    # <delta(u1-u2), e^{iu1} e^{-iu2}> = 1
    t = term(1, deltas=((1, 2, 0),))
    val = smear(expr([t]), {1: {1: 1}, 2: {-1: 1}}, SEQ)
    assert abs(val - 1) < 1e-14


def test_smear_delta_prime_sign_convention():
    # <delta'(u1-u2), e^{iu1} e^{-iu2}> = -i
    t = term(1, deltas=((1, 2, 1),))
    val = smear(expr([t]), {1: {1: 1}, 2: {-1: 1}}, SEQ)
    assert abs(val - (-1j)) < 1e-14


def test_smear_matches_star_rewrite():
    # the canonicalizer's Leibniz move must be invisible to smearing
    tests = {1: {1: 1, -2: 0.5}, 2: {-1: 1, 2: 0.25}, 3: {0: 1, 1: -0.5}}
    raw = Expression([term(1, deltas=((1, 2, 1), (2, 3, 1)))])
    # pair the star form against the same tests by brute-force modes
    out = canonicalize(raw)
    v1 = smear(raw, tests, SEQ)
    v2 = sum(
        smear(Expression([t]), tests, SEQ) for t in out.terms
    )
    assert abs(v1 - v2) < 1e-12
    # independent check by explicit Fourier pairing of the chain form:
    # value = sum over modes a+b+c=0 of f1[a] f2[b] f3[c] * (ia)(ic) * ... --
    # here via the identity <d'(1,2)d'(2,3), e^{ia}e^{ib}e^{ic}> = a*c
    direct = 0j
    for a, ca in tests[1].items():
        for b, cb in tests[2].items():
            for c, cc in tests[3].items():
                if a + b + c == 0:
                    direct += ca * cb * cc * (a * c)
    assert abs(v1 - direct) < 1e-12


def test_smear_kernel_factor_against_modes():
    # <N_K(u1,u2), e^{iu1}e^{-iu2}> picks the xi_1 mode: value xi_1 = 1/2
    t = term(1, smooth=(("NK", 0, 1, 2),))
    val = smear(expr([t]), {1: {1: 1}, 2: {-1: 1}}, SEQ, trunc=40, grid=64)
    assert abs(val - 0.5) < 1e-12
    # derivative: the e^{-in(u1-u2)} branch pairs with these tests, its
    # mode-1 factor is (-i * 1), so the value is -i xi_1
    t2 = term(1, smooth=(("NK", 1, 1, 2),))
    val2 = smear(expr([t2]), {1: {1: 1}, 2: {-1: 1}}, SEQ, trunc=40, grid=64)
    assert abs(val2 - (-0.5j)) < 1e-12


def test_smear_exp_token_two_point():
    # K exponential pair: integral of exp(-(-1)N_K(u1,u2)) e^{i(u1-u2)} --
    # compare against direct numeric quadrature here
    t = term(1, exps=((1, 1), (2, -1)))
    val = smear(expr([t], realization="K"), {1: {1: 1}, 2: {-1: 1}}, SEQ,
                trunc=60, grid=96)
    n = 96
    acc = 0j
    selfe = sum(2.0 * 0.5**k for k in range(1, 61))
    for a in range(n):
        for b in range(n):
            th = 2 * math.pi * (a - b) / n
            nk = sum(2.0 * 0.5**k * math.cos(k * th) for k in range(1, 61))
            acc += cmath.exp(1j * th) * cmath.exp(nk - selfe)
    acc /= n * n
    assert abs(val - acc) < 1e-10


# Dense reference for the contraction: the integrand of every term on the
# full grid of all variables (np.meshgrid), with each factor's mode series
# written out for the geometric sequence xi_n = 2^-n, xi_0 = 1.
_C = {"NK": (0, lambda n: 0.5 ** n), "NA": (2, lambda n: 0.5 ** n),
      "D": (0, lambda n: 2.0 ** n), "wavy": (0, lambda n: n), "delta": (1, lambda n: 1)}


def _dense_series(x, y, k, family, trunc):
    c0, c = _C[family]
    return (c0 if k == 0 else 0) + sum(
        c(n) * ((1j * n) ** k * x ** n + (-1j * n) ** k * y ** n) for n in range(1, trunc + 1))


def _dense_smear(e, tests, trunc, grid):
    idx = sorted(tests)
    axes = np.meshgrid(*[2 * np.pi * np.arange(grid) / grid] * len(idx), indexing="ij")
    z = {v: float(e.radius(v)) * np.exp(1j * th) for v, th in zip(idx, axes)}
    total = 0j
    for t in e.terms:
        f = t.coeff.subs_numeric() * np.ones(axes[0].shape)
        for v, th in zip(idx, axes):
            f = f * sum(c * np.exp(1j * m * th) for m, c in tests[v].items())
        factors = [("delta", k, i, j) for (i, j, k) in t.deltas] + list(t.smooth)
        for (family, k, i, j) in factors:
            f = f * _dense_series(z[i] * np.conj(z[j]), np.conj(z[i]) * z[j], k, family, trunc)
        if t.exps:
            tag, sign = ("NK", -1) if e.realization == "K" else ("NA", 1)
            expo = 0
            for (a, qa) in t.exps:
                for (b, qb) in t.exps:
                    if a <= b:
                        n = _dense_series(z[a] * np.conj(z[b]), np.conj(z[a]) * z[b], 0, tag, trunc)
                        expo = expo + (0.5 if a == b else 1) * qa * qb * n
            f = f * np.exp(sign * expo)
        total += f.mean()
    return total


def test_smear_contraction_matches_dense_quadrature():
    radii = {1: Fraction(1, 2), 2: Fraction(3, 4), 3: Fraction(2, 3), 4: Fraction(3, 5)}
    tests = {1: {1: 1, -2: 0.5j}, 2: {-1: 1, 0: 0.3}, 3: {0: 1, 2: -0.4 + 0.1j},
             4: {-2: 0.7, 0: 0.5, 1: 0.2}}
    cases = [
        # two factors on the pair (1, 2), a coincident constant, a wavy and a
        # dotted factor
        (term(1, smooth=(("D", 1, 1, 3), ("NK", 0, 1, 2), ("NK", 1, 1, 2), ("NK", 2, 3, 3),
                         ("wavy", 0, 2, 3))), "K"),
        # an analytic delta inside the disc and a three-point K exponential
        (term(2, -1, deltas=((1, 3, 1),), smooth=(("NK", 0, 2, 4),),
              exps=((1, 1), (2, 1), (4, -2))), "K"),
        # a two-point A exponential sharing its pair with a kernel
        (term(0, 1, deltas=((2, 3, 0),), smooth=(("NA", 0, 1, 1), ("NA", 0, 1, 4), ("wavy", 1, 2, 4)),
              exps=((1, 1), (4, 2))), "A"),
    ]
    for t, realization in cases:
        e = expr([t], realization, radii)
        assert canonicalize(e).terms == [t]
        for grid in (12, 16):
            got = smear(e, tests, SEQ, trunc=6, grid=grid)
            want = _dense_smear(e, tests, 6, grid)
            assert abs(want) > 1e-3
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("sizes", [{"grid": 0}, {"grid": -4}, {"trunc": -1}])
def test_smear_rejects_sizes_it_cannot_honour(sizes):
    t = term(1, smooth=(("NK", 0, 1, 2),))
    with pytest.raises(ValueError):
        smear(expr([t]), {1: {1: 1}, 2: {-1: 1}}, SEQ, **sizes)
    scheme = RenormScheme.drop_loops(SectorConfig("K", "nonunitary"))
    with pytest.raises(ValueError):
        gram_matrix([(("J3",), [{0: 1}])], scheme, SEQ, **sizes)
    with pytest.raises(ValueError):
        gram_matrix([], scheme, SEQ, **sizes)


def test_singular_term_cannot_be_smeared():
    t = term(1, deltas=((1, 2, 0), (1, 2, 1)))
    with pytest.raises(SingularProduct):
        smear(expr([t]), {1: {0: 1}, 2: {0: 1}}, SEQ)


def test_conjugate_only_touches_coefficients():
    t = Term(Coeff.complex_rat(2, 3), deltas=((1, 2, 1),))
    e = conjugate(expr([t]))
    assert e.terms[0].coeff == Coeff.complex_rat(2, -3)
    assert e.terms[0].deltas == ((1, 2, 1),)


def test_json_round_trip():
    t = Term(
        Coeff.unit(kappa=2, mu={3: 1}, re=Fraction(1, 3), im=-2),
        deltas=((1, 2, 1),),
        smooth=(("D", 0, 2, 3), ("NA", 0, 1, 3), ("wavy", 0, 1, 3)),
        exps=((1, 1), (3, -1)),
    )
    e = Expression([t], "A", {3: Fraction(1, 2)})
    back = Expression.from_json(e.to_json())
    assert back.terms == e.terms
    assert back.realization == "A"
    assert back.radii == {3: Fraction(1, 2)}
