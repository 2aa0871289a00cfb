import math
from fractions import Fraction

import pytest
import sympy as sp

from loopcorr.errors import DivergentKernel
from loopcorr.kernels import (
    CirclePoint,
    KernelId,
    XiSequence,
    heisenberg_pair,
    kernel_eval,
)


def test_xi_value_geometric():
    seq = XiSequence.geometric(Fraction(1, 2))
    assert seq.xi_value(3) == Fraction(1, 8)
    assert seq.xi_value(-3) == Fraction(1, 8)
    assert seq.xi_value(0) == 1


def test_xi_value_power_law():
    seq = XiSequence.power_law(2)
    assert seq.xi_value(4) == Fraction(1, 16)
    assert seq.xi_value(-4) == Fraction(1, 16)


def test_xi_value_explicit_with_tail():
    seq = XiSequence.explicit([Fraction(3), Fraction(2)], Fraction(1, 4))
    assert seq.xi_value(1) == 3
    assert seq.xi_value(2) == 2
    assert seq.xi_value(3) == Fraction(1, 2)
    assert seq.xi_value(5) == Fraction(1, 32)


def test_sequence_validation():
    with pytest.raises(ValueError):
        XiSequence.geometric(Fraction(3, 2))
    with pytest.raises(ValueError):
        XiSequence.power_law(1)
    with pytest.raises(ValueError):
        XiSequence.explicit([], Fraction(1, 2))
    with pytest.raises(ValueError):
        XiSequence.explicit([Fraction(-1)], Fraction(1, 2))
    with pytest.raises(ValueError):
        XiSequence.geometric(Fraction(1, 2), xi0=0)


def test_from_config_json_strings():
    seq = XiSequence.from_config('{"kind": "geometric", "q": "1/2", "xi0": "1"}')
    assert seq.q == Fraction(1, 2)
    assert seq.xi0 == 1
    assert seq.xi_value(3) == Fraction(1, 8)


def test_nk_equal_points_on_circle():
    # N_K(u, u) = 2 sum q^n = 2q/(1-q) -> 2 at q = 1/2
    seq = XiSequence.geometric(Fraction(1, 2))
    u = CirclePoint(1, Fraction(1, 3))
    res = kernel_eval(KernelId.NK, seq, u, u, trunc=40)
    assert res.closed_form == 2
    assert abs(float(res.value) - 2.0) <= res.tail_bound
    assert res.tail_bound < 1e-10


def test_na_minus_nk_is_2_xi0():
    seq = XiSequence.geometric(Fraction(1, 2), xi0=Fraction(3, 4))
    z1 = CirclePoint(1, Fraction(1, 8))
    z2 = CirclePoint(1, Fraction(5, 8))
    na = kernel_eval(KernelId.NA, seq, z1, z2, trunc=24)
    nk = kernel_eval(KernelId.NK, seq, z1, z2, trunc=24)
    assert sp.simplify(na.value - nk.value - sp.Rational(3, 2)) == 0
    assert sp.simplify(na.closed_form - nk.closed_form - sp.Rational(3, 2)) == 0


def test_nk_closed_form_half_turn():
    # u - v = pi: N_K = -2q/(1+q) = -2/3 at q = 1/2
    seq = XiSequence.geometric(Fraction(1, 2))
    res = kernel_eval(KernelId.NK, seq, CirclePoint(1, Fraction(1, 2)), CirclePoint(1, 0), trunc=50)
    assert sp.simplify(res.closed_form + sp.Rational(2, 3)) == 0
    assert abs(float(res.value) + 2 / 3) <= res.tail_bound


def test_nk_symmetric_in_points():
    seq = XiSequence.geometric(Fraction(1, 3))
    z1 = CirclePoint(Fraction(1, 2), Fraction(1, 5))
    z2 = CirclePoint(1, Fraction(2, 5))
    a = kernel_eval(KernelId.NK, seq, z1, z2, trunc=30)
    b = kernel_eval(KernelId.NK, seq, z2, z1, trunc=30)
    assert sp.simplify(a.value - b.value) == 0


def test_nk_float_mode_matches_exact():
    seq = XiSequence.geometric(Fraction(1, 2))
    exact = kernel_eval(KernelId.NK, seq, CirclePoint(1, Fraction(1, 7)), CirclePoint(1, 0), trunc=40)
    approx = kernel_eval(KernelId.NK, seq, CirclePoint(1.0, 1.0 / 7.0), CirclePoint(1.0, 0.0), trunc=40)
    assert abs(float(exact.value) - approx.value) < 1e-12
    assert abs(float(exact.closed_form) - approx.closed_form) < 1e-12


def test_power_law_on_circle_tail_bound():
    seq = XiSequence.power_law(2)
    res = kernel_eval(KernelId.NK, seq, CirclePoint(1, Fraction(1, 4)), CirclePoint(1, 0), trunc=100)
    # N_K(pi/2) = 2 sum n^{-2} cos(n pi/2) = 2 * (-pi^2/48) = -pi^2/24
    target = -math.pi**2 / 24
    assert abs(float(res.value) - target) <= res.tail_bound + 1e-15


def test_d_kernel_inside_domain():
    seq = XiSequence.geometric(Fraction(1, 2))
    z1 = CirclePoint(Fraction(3, 5), 0)
    z2 = CirclePoint(Fraction(1, 2), 0)
    res = kernel_eval(KernelId.D, seq, z1, z2, trunc=60)
    # sum 2^n * 0.3^n * 2 = 2 * 0.6/(1-0.6) = 3
    assert sp.simplify(res.value - sp.Rational(3)) != 0  # partial sum, not the limit
    assert abs(float(res.value) - 3.0) <= res.tail_bound
    assert sp.simplify(res.closed_form - 3) == 0


def test_d_kernel_divergent():
    seq = XiSequence.geometric(Fraction(1, 2))
    z = CirclePoint(Fraction(4, 5), 0)
    with pytest.raises(DivergentKernel):
        kernel_eval(KernelId.D, seq, z, z, trunc=10)


def test_d_kernel_power_law_converges_inside():
    seq = XiSequence.power_law(2)
    z = CirclePoint(Fraction(1, 2), Fraction(1, 6))
    res = kernel_eval(KernelId.D, seq, z, z, trunc=80)
    assert res.tail_bound < 1e-6
    # direct check against a longer float sum
    direct = sum(n**2 * 2 * 0.25**n for n in range(1, 200))
    assert abs(float(res.value) - direct) < 1e-5


def test_heisenberg_frozen_value():
    # x = conj(z1) z2 = 1/2, p = 0, kappa = 1: 2 * (1/2)/(1/4) = 4
    z1 = CirclePoint(Fraction(1, 2), 0)
    z2 = CirclePoint(1, 0)
    res = heisenberg_pair(z1, z2, 1, 0, trunc=80)
    assert sp.simplify(res.closed_form - 4) == 0
    assert abs(float(res.value) - 4.0) <= res.tail_bound
    assert res.tail_bound < 1e-15


def test_heisenberg_p_only():
    res = heisenberg_pair(CirclePoint(0, 0), CirclePoint(0, 0), 1, Fraction(2), trunc=10)
    assert sp.simplify(res.value - 4) == 0


def test_heisenberg_equal_angle_on_circle_singular():
    res = heisenberg_pair(CirclePoint(1, Fraction(1, 3)), CirclePoint(1, Fraction(1, 3)), 1, 0)
    assert res.singular
    assert res.value is None


def test_heisenberg_on_circle_distinct_angles_abel_form():
    res = heisenberg_pair(CirclePoint(1, Fraction(1, 2)), CirclePoint(1, 0), 1, 0, trunc=16)
    # x = -1: closed form 2x/(1-x)^2 = -1/2
    assert sp.simplify(res.closed_form + sp.Rational(1, 2)) == 0
    assert res.tail_bound == math.inf
    assert not res.singular


def test_heisenberg_symbolic_kappa():
    kappa = sp.Symbol("kappa", positive=True)
    res = heisenberg_pair(CirclePoint(Fraction(1, 2), 0), CirclePoint(1, 0), kappa, 0, trunc=60)
    assert sp.simplify(res.closed_form - 4 * kappa) == 0


def test_radius_validation():
    seq = XiSequence.geometric(Fraction(1, 2))
    with pytest.raises(ValueError):
        kernel_eval(KernelId.NK, seq, CirclePoint(Fraction(3, 2), 0), CirclePoint(1, 0))
