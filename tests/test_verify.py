"""Frozen-value tests for the Gaussian mode-model oracle.

Every expected value below is an independently derived closed formula
(worked out by hand from the normal-ordering rules and Gaussian pairing),
evaluated inline with plain cmath -- none of it routes through the package's
series helpers.  Key two-current formulas are additionally pinned to frozen
literals so a regression in either the formula or the oracle is caught.
"""

import cmath
import math
from fractions import Fraction

import pytest
import sympy as sp

from loopcorr.algebra import SectorConfig
from loopcorr.diagrams import correlator_expression
from loopcorr.distributions import Coeff, Expression, Term, canonicalize, smear
from loopcorr.errors import RealizationMismatch
from loopcorr.kernels import CirclePoint, XiSequence, mode_series
from loopcorr.renorm import CurrentWord, RenormScheme, evaluate_correlator
from loopcorr.verify import expression_value, gaussian_oracle, oracle_letters

N = 12
KAP, P = 0.7, 0.3
Z1 = CirclePoint(Fraction(1, 2), 0)
Z2 = CirclePoint(Fraction(2, 5), Fraction(1, 3))
SEQ = XiSequence.geometric(Fraction(1, 2))
K = SectorConfig(realization="K", sector="nonunitary")
A = SectorConfig(realization="A", sector="nonunitary")
KU = SectorConfig(realization="K", sector="unitary")
AU = SectorConfig(realization="A", sector="unitary")


def _c(pt):
    return float(pt.r) * cmath.exp(2j * math.pi * float(pt.t))


def _sums():
    z1, z2 = _c(Z1), _c(Z2)
    x = z1 * z2.conjugate()
    y = z1.conjugate() * z2
    xi = lambda n: 0.5 ** n
    s = lambda c: sum(c(n) for n in range(1, N + 1))
    vals = {
        "x": x, "y": y,
        "N12": s(lambda n: xi(n) * (x ** n + y ** n)),
        "N11": s(lambda n: xi(n) * 2 * abs(z1) ** (2 * n)),
        "N22": s(lambda n: xi(n) * 2 * abs(z2) ** (2 * n)),
        "delta": 1 + s(lambda n: x ** n + y ** n),
        "S": s(lambda n: 1j * n * (y ** n - x ** n)),
        "Q": s(lambda n: xi(n) * n * (y ** n - x ** n)),
        "T": s(lambda n: xi(n) * n * n * (x ** n + y ** n)),
        "D": s(lambda n: (x ** n + y ** n) / xi(n)),
    }
    return vals


def test_alpha_pair_expectation():
    # <alpha^+(z1) alpha^-(z2)> = exp(N12 - N11/2 - N22/2), unnormalized
    # exponential convention
    v = _sums()
    want = cmath.exp(v["N12"] - v["N11"] / 2 - v["N22"] / 2)
    got = gaussian_oracle(("alpha+", "alpha-"), (Z1, Z2), K, SEQ, trunc=N)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.7132510814207262) < 1e-12


def test_alpha_pair_charge_violation():
    assert gaussian_oracle(("alpha+", "alpha+"), (Z1, Z2), K, SEQ, trunc=N) == 0
    # a single exponential already carries charge
    assert gaussian_oracle(("alpha-",), (Z1,), K, SEQ, trunc=N) == 0


def test_e_pair_expectation():
    # A has no charge constraint and the zero mode adds 2 xi0 to every
    # kernel value: <e^+(z1) e^-(z2)> = exp(-NA12 + NA11/2 + NA22/2)
    v = _sums()
    na12 = v["N12"] + 2.0
    na11, na22 = v["N11"] + 2.0, v["N22"] + 2.0
    want = cmath.exp(-na12 + na11 / 2 + na22 / 2)
    got = gaussian_oracle(("e+", "e-"), (Z1, Z2), A, SEQ, trunc=N)
    assert abs(got - want) < 1e-12
    assert abs(got - 1.4020308220326818) < 1e-12
    # a single self-adjoint exponential has a nonzero expectation
    single = gaussian_oracle(("e+",), (Z1,), A, SEQ, trunc=N)
    assert abs(single - cmath.exp(v["N11"] / 2 + 1.0)) < 1e-12


def test_rho_pairs():
    v = _sums()
    want_k = P * P + 2 * KAP * sum(n * v["x"] ** n for n in range(1, N + 1))
    got_k = gaussian_oracle(("rho", "rho"), (Z1, Z2), K, SEQ, trunc=N, kappa=KAP, p=P)
    assert abs(got_k - want_k) < 1e-12
    assert abs(got_k - (-0.07753381048319999 - 0.1513967304920253j)) < 1e-12
    # the A realization pairs with the opposite orientation
    want_a = P * P + 2 * KAP * sum(n * v["y"] ** n for n in range(1, N + 1))
    got_a = gaussian_oracle(("rho", "rho"), (Z1, Z2), A, SEQ, trunc=N, kappa=KAP, p=P)
    assert abs(got_a - want_a) < 1e-12


def test_rho_four_point_isserlis():
    # Wick with mean: all partial pairings, unpaired insertions give p
    pts = (Z1, Z2, CirclePoint(Fraction(3, 10), Fraction(1, 7)),
           CirclePoint(Fraction(1, 4), Fraction(5, 8)))
    zs = [_c(q) for q in pts]

    def cov(i, j):
        w = zs[i] * zs[j].conjugate()
        return 2 * KAP * sum(n * w ** n for n in range(1, N + 1))

    want = (P ** 4
            + P * P * (cov(0, 1) + cov(0, 2) + cov(0, 3)
                       + cov(1, 2) + cov(1, 3) + cov(2, 3))
            + cov(0, 1) * cov(2, 3) + cov(0, 2) * cov(1, 3) + cov(0, 3) * cov(1, 2))
    got = gaussian_oracle(("rho",) * 4, pts, K, SEQ, trunc=N, kappa=KAP, p=P)
    assert abs(got - want) < 1e-11


def test_consuming_letter_pairs():
    # <L_K(z1) L_K(z2)> = -sum xi_n n^2 (x^n + y^n); the A letter flips sign
    v = _sums()
    got_k = gaussian_oracle(("alpha-dalpha+",) * 2, (Z1, Z2), K, SEQ, trunc=N)
    assert abs(got_k - (-v["T"])) < 1e-12
    got_a = gaussian_oracle(("e-de+",) * 2, (Z1, Z2), A, SEQ, trunc=N)
    assert abs(got_a - v["T"]) < 1e-12
    # a single consuming letter has mean zero
    assert abs(gaussian_oracle(("alpha-dalpha+",), (Z1,), K, SEQ, trunc=N)) == 0


def test_ab_crossing_unitary():
    v = _sums()
    # <a b> reduces to the dotted pairing; <b a> dies on the left vacuum
    got = gaussian_oracle(("a", "b"), (Z1, Z2), KU, SEQ, trunc=N)
    assert abs(got - v["D"]) < 1e-12
    assert abs(got - (-0.46153071820800007)) < 1e-12
    assert gaussian_oracle(("b", "a"), (Z1, Z2), KU, SEQ, trunc=N) == 0
    # nonunitary sector: a and b commute
    assert gaussian_oracle(("a", "b"), (Z1, Z2), K, SEQ, trunc=N) == 0
    # the A-realization crossing includes the zero-mode constant 1/(2 xi0)
    got_a = gaussian_oracle(("a", "b"), (Z1, Z2), AU, SEQ, trunc=N)
    assert abs(got_a - (v["D"] + 0.5)) < 1e-12


def test_j3_j3_formula():
    v = _sums()
    want = (4 * KAP * sum(n * (v["x"] ** n - v["y"] ** n) for n in range(1, N + 1))
            - 4 * KAP ** 2 * v["T"])
    got = gaussian_oracle(("J3", "J3"), (Z1, Z2), K, SEQ, trunc=N, kappa=KAP, p=P)
    assert abs(got - want) < 1e-12
    assert abs(got - (0.24261544228711998 - 0.6055869219681012j)) < 1e-12


def test_h_h_formula():
    # <H H> has the same closed form as <J3 J3>
    v = _sums()
    want = (4 * KAP * sum(n * (v["x"] ** n - v["y"] ** n) for n in range(1, N + 1))
            - 4 * KAP ** 2 * v["T"])
    got = gaussian_oracle(("H", "H"), (Z1, Z2), A, SEQ, trunc=N, kappa=KAP, p=P)
    assert abs(got - want) < 1e-12


def test_jp_jm_full_formula():
    # hand reduction of <J+(z1) J-(z2)>: with G the alpha-pair expectation,
    # delta the regulated delta, S = sum i n (y^n - x^n),
    # Q = sum xi_n n (y^n - x^n), T = sum xi_n n^2 (x^n + y^n),
    # R = 2 kappa sum n x^n:
    #   G [ -delta^2/4 - i kappa S + kappa delta Q - kappa^2 (T + Q^2)
    #       - p^2 - R ]
    # (the two p-linear pieces, from "unpaired rho times b-edge" and
    # "unpaired rho times a-edge", cancel exactly)
    v = _sums()
    G = cmath.exp(v["N12"] - v["N11"] / 2 - v["N22"] / 2)
    R = 2 * KAP * sum(n * v["x"] ** n for n in range(1, N + 1))
    want = G * (-0.25 * v["delta"] ** 2 - 1j * KAP * v["S"] + KAP * v["delta"] * v["Q"]
                - KAP ** 2 * (v["T"] + v["Q"] ** 2) - P * P - R)
    got = gaussian_oracle(("J+", "J-"), (Z1, Z2), K, SEQ, trunc=N, kappa=KAP, p=P)
    assert abs(got - want) < 1e-11
    assert abs(got - (-0.00154461308002335 + 0.26976251324972883j)) < 1e-11


def test_e_f_full_formula():
    # hand reduction of <E(z1) F(z2)>, the ax+b analogue:
    #   GA [ -delta^2/4 + kappa (i S + delta Q) + kappa^2 (T - Q^2)
    #        - p^2 - RA ],  RA = 2 kappa sum n y^n
    # (p-linear pieces cancel, as in the K realization)
    v = _sums()
    GA = cmath.exp(-(v["N12"] + 2.0) + (v["N11"] + 2.0) / 2 + (v["N22"] + 2.0) / 2)
    RA = 2 * KAP * sum(n * v["y"] ** n for n in range(1, N + 1))
    want = GA * (-0.25 * v["delta"] ** 2 + KAP * (1j * v["S"] + v["delta"] * v["Q"])
                 + KAP ** 2 * (v["T"] - v["Q"] ** 2) - P * P - RA)
    got = gaussian_oracle(("E", "F"), (Z1, Z2), A, SEQ, trunc=N, kappa=KAP, p=P)
    assert abs(got - want) < 1e-11
    assert abs(got - (-0.17311339513698434 - 0.3187819404494695j)) < 1e-11


def test_oracle_exact_mode_symbolic_kappa():
    kappa = sp.Symbol("kappa", positive=True)
    got = gaussian_oracle(("J3", "J3"), (Z1, Z2), K, SEQ, trunc=4,
                          kappa=kappa, p=0, exact=True)
    z1, z2 = Z1.to_sympy(), Z2.to_sympy()
    x = z1 * sp.conjugate(z2)
    y = sp.conjugate(z1) * z2
    want = (4 * kappa * sum(n * (x ** n - y ** n) for n in range(1, 5))
            - 4 * kappa ** 2 * sum(sp.Rational(1, 2 ** n) * n * n * (x ** n + y ** n)
                                   for n in range(1, 5)))
    assert sp.simplify(sp.expand(got - want)) == 0


def test_oracle_exact_mode_alpha_pair():
    got = gaussian_oracle(("alpha+", "alpha-"), (Z1, Z2), K, SEQ, trunc=4, exact=True)
    z1, z2 = Z1.to_sympy(), Z2.to_sympy()
    x = z1 * sp.conjugate(z2)
    y = sp.conjugate(z1) * z2
    n12 = sum(sp.Rational(1, 2 ** n) * (x ** n + y ** n) for n in range(1, 5))
    n11 = sum(sp.Rational(1, 2 ** n) * 2 * sp.Rational(1, 4) ** n for n in range(1, 5))
    n22 = sum(sp.Rational(1, 2 ** n) * 2 * sp.Rational(4, 25) ** n for n in range(1, 5))
    want = sp.exp(n12 - n11 / 2 - n22 / 2)
    assert sp.simplify(got - want) == 0


def test_realization_guards():
    with pytest.raises(RealizationMismatch):
        gaussian_oracle(("alpha+", "alpha-"), (Z1, Z2), A, SEQ, trunc=4)
    with pytest.raises(RealizationMismatch):
        gaussian_oracle(("E", "F"), (Z1, Z2), K, SEQ, trunc=4)


def test_expression_value_matches_oracle_exponentials():
    # the engine encodes <alpha^+(1) alpha^-(2)> as a single exponential
    # token with charges +1, -1 and unit coefficient
    t = Term(coeff=Coeff.unit(), exps=((0, 1), (1, -1)))
    e = Expression([t], realization="K", radii={0: Z1.r, 1: Z2.r})
    got = expression_value(e, {0: Z1, 1: Z2}, SEQ, trunc=N)
    want = gaussian_oracle(("alpha+", "alpha-"), (Z1, Z2), K, SEQ, trunc=N)
    assert abs(got - want) < 1e-12
    # same for the A realization, where self-energies enter with + sign
    t2 = Term(coeff=Coeff.unit(), exps=((0, 1), (1, -1)))
    e2 = Expression([t2], realization="A", radii={0: Z1.r, 1: Z2.r})
    got2 = expression_value(e2, {0: Z1, 1: Z2}, SEQ, trunc=N)
    want2 = gaussian_oracle(("e+", "e-"), (Z1, Z2), A, SEQ, trunc=N)
    assert abs(got2 - want2) < 1e-12


def test_expression_value_tokens():
    v = _sums()
    # delta' token: sum i n (x^n - y^n) in the point values
    t = Term(coeff=Coeff.unit(), deltas=((0, 1, 1),))
    e = Expression([t], realization="K", radii={0: Z1.r, 1: Z2.r})
    got = expression_value(e, {0: Z1, 1: Z2}, SEQ, trunc=N)
    want = sum(1j * n * (v["x"] ** n - v["y"] ** n) for n in range(1, N + 1))
    assert abs(got - want) < 1e-12
    # kernel token with two derivatives: -sum xi_n n^2 (x^n + y^n)
    t2 = Term(coeff=Coeff.unit(), smooth=(("NK", 2, 0, 1),))
    e2 = Expression([t2], realization="K", radii={0: Z1.r, 1: Z2.r})
    got2 = expression_value(e2, {0: Z1, 1: Z2}, SEQ, trunc=N)
    assert abs(got2 - (-v["T"])) < 1e-12
    # wavy and dotted tokens
    t3 = Term(coeff=Coeff.unit(), smooth=(("D", 0, 0, 1), ("wavy", 0, 0, 1)))
    e3 = Expression([t3], realization="K", radii={0: Z1.r, 1: Z2.r})
    got3 = expression_value(e3, {0: Z1, 1: Z2}, SEQ, trunc=N)
    w = sum(n * (v["x"] ** n + v["y"] ** n) for n in range(1, N + 1))
    assert abs(got3 - w * v["D"]) < 1e-12


@pytest.mark.parametrize("family", ["wavy", "D", "NK", "NA"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_relabel_keeps_the_value_of_a_swapped_factor(family, k):
    # swapping the endpoints of a k-th derivative factor costs (-1)^k
    t = Term(Coeff.unit(), smooth=((family, k, 0, 1),))
    want = expression_value(Expression([t]), {0: Z1, 1: Z2}, SEQ, trunc=N)
    got = expression_value(Expression([t.relabel({0: 1, 1: 0})]), {0: Z2, 1: Z1}, SEQ, trunc=N)
    assert abs(want) > 1e-3
    assert abs(got - want) < 1e-12 * abs(want)


def test_expression_value_rejects_negative_truncation():
    # a negative truncation would keep only the constant parts of each series
    half = Fraction(1, 2)
    e = canonicalize(correlator_expression(("J+", "J-"), K, radii={0: half, 1: half}))
    points = {0: CirclePoint(half, 0), 1: CirclePoint(half, Fraction(1, 4))}
    expression_value(e, points, SEQ, trunc=0)  # the boundary is accepted
    with pytest.raises(ValueError, match="trunc"):
        expression_value(e, points, SEQ, trunc=-5)


def test_oracle_rejects_points_outside_the_disc():
    # the mode sums diverge or lose their meaning off the closed unit disc
    names = ("alpha+", "alpha-")
    for r in (1, 0):  # the boundaries are accepted
        gaussian_oracle(names, [CirclePoint(r, 0), CirclePoint(r, Fraction(1, 2))], K, SEQ, trunc=4)
    for r in (5, -1, Fraction(11, 10)):
        with pytest.raises(ValueError, match="radius"):
            gaussian_oracle(names, [CirclePoint(Fraction(1, 2), 0), CirclePoint(r, 0)], K, SEQ, trunc=4)


def test_float_paths_build_no_fraction_after_warm_up(fractions_built):
    # every mode coefficient comes from one cached table, so once it is
    # built the float oracle, expression_value and smear stay on floats
    half = Fraction(1, 2)
    names = ("E", "F", "H")
    points = [CirclePoint(half, Fraction(k, 5)) for k in range(3)]
    expr = canonicalize(correlator_expression(names, AU, {k: half for k in range(3)}))
    smeared = evaluate_correlator(CurrentWord.from_names(("J+", "J-", "J3")),
                                  RenormScheme.drop_loops(K))
    tests = {k: {m: complex(m + 1, k) for m in range(-2, 3)} for k in range(3)}
    calls = {
        "oracle": lambda: gaussian_oracle(names, points, AU, SEQ, trunc=8),
        "expression_value": lambda: expression_value(expr, dict(enumerate(points)), SEQ,
                                                     trunc=8),
        "smear": lambda: smear(smeared, tests, SEQ, trunc=8, grid=16),
    }
    for name, call in calls.items():
        call()
        assert fractions_built(call) == 0, name


def test_non_integer_power_law():
    # xi_n = n^(-3/2) is irrational: float evaluation works, and an exact
    # table is refused with one message wherever it is asked for
    seq = XiSequence.power_law(Fraction(3, 2))
    x, y = _c(Z1) * _c(Z2).conjugate(), _c(Z1).conjugate() * _c(Z2)
    want = sum(n ** -1.5 * (x ** n + y ** n) for n in range(1, N + 1))
    assert abs(mode_series(x, y, 0, "NK", seq, N) - want) < 1e-12
    names = ("J+", "J-", "J3")
    points = (Z1, Z2, CirclePoint(Fraction(3, 4), Fraction(1, 6)))
    got = gaussian_oracle(names, points, K, seq, trunc=N, kappa=KAP, p=P)
    expr = canonicalize(correlator_expression(names, K, {k: pt.r for k, pt in enumerate(points)}))
    engine = expression_value(expr, dict(enumerate(points)), seq, trunc=N, kappa=KAP, p=P)
    assert abs(got) > 1e-3
    assert abs(got - engine) < 1e-10 * abs(got)
    with pytest.raises(ValueError) as series:
        mode_series(x, y, 0, "NK", seq, N, exact=True)
    with pytest.raises(ValueError) as oracle:
        gaussian_oracle(("alpha+", "alpha-"), (Z1, Z2), K, seq, trunc=4, exact=True)
    assert str(series.value) == str(oracle.value)
