import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from loopcorr.kernels import CirclePoint, XiSequence, mode_series


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


def _pair(p1, p2, exact=False):
    """The mode-series arguments x = z1 conj(z2), y = conj(z1) z2."""
    if exact:
        z1, z2 = p1.to_sympy(), p2.to_sympy()
        return z1 * sp.conjugate(z2), sp.conjugate(z1) * z2
    z1, z2 = p1.to_complex(), p2.to_complex()
    return z1 * z2.conjugate(), z1.conjugate() * z2


_HALF = Fraction(1, 2)
_OFF = (CirclePoint(_HALF, Fraction(1, 5)), CirclePoint(1, Fraction(2, 5)))
_OFF_W = _pair(*_OFF)[0]
_WAVY_X = 0.6 * cmath.exp(0.4j * math.pi)


# (family, sequence, points or (x, y), truncation, closed form, error bound)
_CLOSED_FORMS = {
    # sum q^n (w^n + conj(w)^n) = 2 Re(q w / (1 - q w))
    "NK-equal-on-circle": ("NK", XiSequence.geometric(_HALF),
                           (CirclePoint(1, Fraction(1, 3)),) * 2, 60, 2.0, 1e-12),
    "NK-half-turn": ("NK", XiSequence.geometric(_HALF),
                     (CirclePoint(1, _HALF), CirclePoint(1, 0)), 60, -2 / 3, 1e-12),
    "NK-off-circle": ("NK", XiSequence.geometric(Fraction(1, 3)), _OFF, 60,
                      2 * (_OFF_W / (3 - _OFF_W)).real, 1e-12),
    # 2 sum n^-2 cos(n pi / 2) = -pi^2 / 24, within the integral bound 2 N^(1-s) / (s-1)
    "NK-power-law-quarter-turn": ("NK", XiSequence.power_law(2),
                                  (CirclePoint(1, Fraction(1, 4)), CirclePoint(1, 0)), 100,
                                  -math.pi**2 / 24, 2 * 100 ** (1 - 2) / (2 - 1)),
    # 2 sum 2^n (3/10)^n = 2 * 0.6 / 0.4 = 3
    "D-geometric-inside": ("D", XiSequence.geometric(_HALF),
                           (CirclePoint(Fraction(3, 5), 0), CirclePoint(_HALF, 0)), 80,
                           3.0, 1e-12),
    # 2 sum n^2 x^n = 2 x (1 + x) / (1 - x)^3 = 40/27 at x = 1/4
    "D-power-law-inside": ("D", XiSequence.power_law(2),
                           (CirclePoint(_HALF, Fraction(1, 6)),) * 2, 80, 40 / 27, 1e-12),
    # sum n x^n = x / (1 - x)^2, the Heisenberg pair series
    "wavy-half": ("wavy", None, (0.5, 0), 80, 2.0, 1e-12),
    "wavy-complex": ("wavy", None, (_WAVY_X, 0), 120, _WAVY_X / (1 - _WAVY_X) ** 2, 1e-12),
}


@pytest.mark.parametrize("case", _CLOSED_FORMS.values(), ids=_CLOSED_FORMS.keys())
def test_mode_series_closed_form(case):
    family, seq, args, N, want, bound = case
    x, y = _pair(*args) if isinstance(args[0], CirclePoint) else args
    assert abs(mode_series(x, y, 0, family, seq, N) - want) <= bound


@pytest.mark.parametrize("k", [0, 1, 2])
def test_mode_series_na_minus_nk(k):
    # N_A - N_K is the zero mode 2 xi_0, which no angle derivative keeps
    seq = XiSequence.geometric(_HALF, xi0=Fraction(3, 4))
    x, y = _pair(CirclePoint(1, Fraction(1, 8)), CirclePoint(1, Fraction(5, 8)), exact=True)
    na = mode_series(x, y, k, "NA", seq, 24, exact=True)
    nk = mode_series(x, y, k, "NK", seq, 24, exact=True)
    assert sp.simplify(na - nk - (sp.Rational(3, 2) if k == 0 else 0)) == 0


_SEQUENCES = {
    "NK": XiSequence.geometric(_HALF),
    "NA": XiSequence.explicit([3, 2], Fraction(1, 4), xi0=Fraction(3, 4)),
    "D": XiSequence.power_law(2),
    "wavy": None,
    "delta": None,
}


@pytest.mark.parametrize("family", _SEQUENCES)
def test_mode_series_symmetric_in_points(family):
    x, y = _pair(*_OFF, exact=True)
    u, v = _pair(*reversed(_OFF), exact=True)
    seq = _SEQUENCES[family]
    assert sp.simplify(mode_series(x, y, 0, family, seq, 16, exact=True)
                       - mode_series(u, v, 0, family, seq, 16, exact=True)) == 0


@pytest.mark.parametrize("family, k", [(f, k) for f in _SEQUENCES for k in (0, 1, 2)],
                         ids=[f"{f}-{k}" for f in _SEQUENCES for k in (0, 1, 2)])
def test_mode_series_float_matches_exact(family, k):
    points = (CirclePoint(1, Fraction(1, 7)), CirclePoint(Fraction(3, 4), 0))
    seq = _SEQUENCES[family]
    want = complex(mode_series(*_pair(*points, exact=True), k, family, seq, 12, exact=True))
    got = mode_series(*_pair(*points), k, family, seq, 12)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("cfg", [
    {"kind": "geometric"},
    {"kind": "geometric", "q": [1]},
    {"kind": "explicit", "head": "1", "tail_ratio": "1/2"},
    ["geometric"],
    {"kind": "geometric", "q": "1/0"},
])
def test_from_config_rejects_malformed_configs(cfg):
    with pytest.raises(ValueError):
        XiSequence.from_config(cfg)


def _reference_series(x, y, k, family, seq, N):
    """The mode series summed inline, float(c(n)) in the order n = 1..N."""
    c = {"NK": seq.xi_value, "NA": seq.xi_value, "D": lambda n: 1 / seq.xi_value(n),
         "wavy": lambda n: n, "delta": lambda n: 1}[family]
    c0 = {"NA": 2 * seq.xi0, "delta": 1}.get(family, 0)
    total = float(c0 if k == 0 else 0)
    xp = yp = 1
    for n in range(1, N + 1):
        xp = xp * x
        yp = yp * y
        total = total + float(c(n)) * ((1j * n) ** k * xp + (-1j * n) ** k * yp)
    return total


_TABLE_SEQUENCES = {
    "geometric": XiSequence.geometric(Fraction(2, 3), xi0=Fraction(3, 4)),
    "explicit": XiSequence.explicit([3, Fraction(1, 7)], Fraction(1, 4)),
    "power-law-2": XiSequence.power_law(2),
    "power-law-3/2": XiSequence.power_law(Fraction(3, 2)),
}


@pytest.mark.parametrize("seq", _TABLE_SEQUENCES.values(), ids=_TABLE_SEQUENCES.keys())
@pytest.mark.parametrize("family", ["NK", "NA", "D", "wavy", "delta"])
def test_mode_series_table_changes_no_float(family, seq):
    # the cached coefficient table sums exactly what the inline loop sums
    x, y = _pair(*_OFF)
    theta = 2 * np.pi * np.arange(6) / 6
    gx = 0.3 * np.exp(1j * np.subtract.outer(theta, theta))
    for k in (0, 1, 2):
        assert mode_series(x, y, k, family, seq, 14) == _reference_series(x, y, k, family, seq, 14)
        got = mode_series(gx, np.conj(gx), k, family, seq, 14)
        assert np.array_equal(got, _reference_series(gx, np.conj(gx), k, family, seq, 14))
