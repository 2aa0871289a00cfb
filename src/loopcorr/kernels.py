"""Covariance kernels on the circle and the xi-sequences that define them.

All two-point structure of the engine is built from a summable positive
sequence xi_1, xi_2, ... (plus a separate positive scalar xi_0 that only
enters in the A realization).  With points z = r e^{iu} inside or on the
unit circle the kernels are

    N_K(z1, z2) =          sum_{n>0} xi_n [ (z1 conj(z2))^n + (conj(z1) z2)^n ]
    N_A(z1, z2) = 2 xi_0 + sum_{n>0} xi_n [ (z1 conj(z2))^n + (conj(z1) z2)^n ]
    D(z1, z2)   =          sum_{n>0} xi_n^{-1} [ (z1 conj(z2))^n + (conj(z1) z2)^n ]

and the Heisenberg pair propagator

    <rho rho>(z1, z2) = p^2 + 2 kappa sum_{n>0} n x^n ,   x = conj(z1) z2 .

On the circle (r = 1) the N-kernels reduce to cosine series
2 sum xi_n cos n(u - v); D generally diverges there and is kept only as a
formal mode multiplier elsewhere in the engine.

Only sequence families with decidable convergence are supported:

* ``geometric``  : xi_n = q^n with 0 < q < 1;
* ``power-law``  : xi_n = n^(-s) with s > 1;
* ``explicit``   : a finite positive head xi_1..xi_m continued geometrically,
  xi_{m+k} = xi_m * t^k with 0 < t < 1.

Evaluation returns a partial sum together with a rigorous tail bound, and --
for the geometric family -- the exact closed form.  When the sequence
parameters, radii and angles (as fractions of a turn) are all rational, the
arithmetic is exact (Fractions / sympy); otherwise floats are used.
"""

from __future__ import annotations

import cmath
import enum
import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import sympy as sp

from .errors import DivergentKernel

logger = logging.getLogger(__name__)

Scalar = Union[int, float, Fraction]


def _as_fraction(x, name: str) -> Fraction:
    """Coerce strings / ints / Fractions to Fraction, rejecting floats that
    were probably meant to be exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"{name} must be rational, got {type(x).__name__}")


class KernelId(enum.Enum):
    """Which kernel a request refers to."""

    NA = "NA"
    NK = "NK"
    D = "D"


@dataclass(frozen=True)
class CirclePoint:
    """A point z = r e^{2 pi i t} given by radius ``r`` and turn fraction ``t``.

    Rational ``r`` and ``t`` keep evaluation exact; floats demote the whole
    computation to floating point.  ``t`` is the angle divided by 2*pi.
    """

    r: Scalar = 1
    t: Scalar = 0

    @property
    def exact(self) -> bool:
        return isinstance(self.r, (int, Fraction)) and isinstance(self.t, (int, Fraction))

    @property
    def on_circle(self) -> bool:
        return self.r == 1

    def to_complex(self) -> complex:
        return float(self.r) * cmath.exp(2j * math.pi * float(self.t))

    def to_sympy(self):
        return sp.nsimplify(self.r) * sp.exp(2 * sp.pi * sp.I * sp.nsimplify(self.t))


@dataclass(frozen=True)
class XiSequence:
    """A positive summable sequence xi_n (n >= 1) plus the scalar xi_0.

    ``kind`` is one of ``geometric``, ``power-law``, ``explicit``.  The
    relevant parameters are ``q`` (geometric ratio), ``s`` (power-law
    exponent), ``head``/``tail_ratio`` (explicit family).  ``xi0`` is used
    only by A-realization kernels (the constant 2*xi_0 in N_A) and by the
    zero mode of the dotted pairing.
    """

    kind: str
    q: Optional[Fraction] = None
    s: Optional[Fraction] = None
    head: tuple = ()
    tail_ratio: Optional[Fraction] = None
    xi0: Fraction = Fraction(1)

    def __post_init__(self):
        if self.xi0 <= 0:
            raise ValueError("xi0 must be positive")
        if self.kind == "geometric":
            if self.q is None or not (0 < self.q < 1):
                raise ValueError("geometric sequence needs ratio q in (0, 1)")
        elif self.kind == "power-law":
            if self.s is None or self.s <= 1:
                raise ValueError("power-law sequence needs exponent s > 1")
        elif self.kind == "explicit":
            if not self.head:
                raise ValueError("explicit sequence needs a non-empty head")
            if any(x <= 0 for x in self.head):
                raise ValueError("explicit head entries must be positive")
            if self.tail_ratio is None or not (0 < self.tail_ratio < 1):
                raise ValueError("explicit sequence needs tail ratio in (0, 1)")
        else:
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def geometric(cls, q, xi0=1) -> "XiSequence":
        return cls(kind="geometric", q=_as_fraction(q, "q"), xi0=_as_fraction(xi0, "xi0"))

    @classmethod
    def power_law(cls, s, xi0=1) -> "XiSequence":
        return cls(kind="power-law", s=_as_fraction(s, "s"), xi0=_as_fraction(xi0, "xi0"))

    @classmethod
    def explicit(cls, head: Sequence, tail_ratio, xi0=1) -> "XiSequence":
        return cls(
            kind="explicit",
            head=tuple(_as_fraction(x, "head entry") for x in head),
            tail_ratio=_as_fraction(tail_ratio, "tail_ratio"),
            xi0=_as_fraction(xi0, "xi0"),
        )

    @classmethod
    def from_config(cls, cfg) -> "XiSequence":
        """Build from a config mapping such as
        ``{"kind": "geometric", "q": "1/2", "xi0": "1"}`` (or its JSON text).
        String values are parsed as exact rationals.  Raises ``ValueError``
        for a config that is not an object, a missing parameter or a value
        that is not a finite rational."""
        if isinstance(cfg, str):
            cfg = json.loads(cfg)
        if not isinstance(cfg, dict):
            raise ValueError(f"a sequence config must be an object, got {type(cfg).__name__}")
        kind = cfg.get("kind")
        needs = {"geometric": ("q",), "power-law": ("s",), "explicit": ("head", "tail_ratio")}
        if kind not in needs:
            raise ValueError(f"unknown sequence kind {kind!r}")
        missing = [key for key in needs[kind] if key not in cfg]
        if missing:
            raise ValueError(f"a {kind} sequence needs {', '.join(missing)}")
        head = cfg.get("head", []) if kind == "explicit" else []
        if not isinstance(head, list):
            raise ValueError(f"head must be a list, got {head!r}")
        xi0 = cfg.get("xi0", 1)
        for v in [cfg[key] for key in needs[kind] if key != "head"] + head + [xi0]:
            if (isinstance(v, bool) or not isinstance(v, (int, float, str))
                    or (isinstance(v, float) and not math.isfinite(v))):
                raise ValueError(f"sequence parameters must be finite rationals, got {v!r}")
        if kind == "geometric":
            return cls.geometric(cfg["q"], xi0)
        if kind == "power-law":
            return cls.power_law(cfg["s"], xi0)
        return cls.explicit(head, cfg["tail_ratio"], xi0)

    # -- values ------------------------------------------------------------

    def xi(self, n: int) -> Fraction:
        """xi_|n| (n = 0 gives xi_0)."""
        n = abs(n)
        if n == 0:
            return self.xi0
        if self.kind == "geometric":
            return self.q**n
        if self.kind == "power-law":
            if not self._s_int():
                raise ValueError("xi_n is irrational for non-integer power-law exponent; use xi_value")
            return Fraction(1, n ** int(self.s))
        if self.kind == "explicit":
            m = len(self.head)
            if n <= m:
                return self.head[n - 1]
            return self.head[-1] * self.tail_ratio ** (n - m)
        raise AssertionError

    def _s_int(self) -> bool:
        return isinstance(self.s, (int, Fraction)) and Fraction(self.s).denominator == 1

    def xi_value(self, n: int):
        """Like :meth:`xi` but falls back to float for non-integer power-law
        exponents (where n**(-s) is irrational)."""
        n = abs(n)
        if n == 0:
            return self.xi0
        if self.kind == "power-law" and not self._s_int():
            return float(n) ** (-float(self.s))
        return self.xi(n)

    def xi_inv_value(self, n: int):
        v = self.xi_value(n)
        return Fraction(1) / v if isinstance(v, (int, Fraction)) else 1.0 / v

    @property
    def exact(self) -> bool:
        """Whether xi_n is an exact rational for every n."""
        return self.kind != "power-law" or self._s_int()


def _exact_number(v):
    if isinstance(v, float):
        raise ValueError("irrational mode coefficient in exact arithmetic")
    return sp.Rational(v.numerator, v.denominator)


def mode_series(x, y, k: int, family: str, seq: Optional[XiSequence], N: int,
                exact: bool = False):
    """The truncated mode series

        c0 [k = 0] + sum_{n=1..N} c(n) [ (i n)^k x^n + (-i n)^k y^n ]

    of a coefficient family.  For a pair of points, x = z1 conj(z2),
    y = conj(z1) z2, and k counts the angle derivatives in the first point.

    ==========  ==========  ==========
    family      c(n)        c0
    ==========  ==========  ==========
    ``NK``      xi_n        0
    ``NA``      xi_n        2 xi_0
    ``D``       1 / xi_n    0
    ``wavy``    n           0
    ``delta``   1           1
    ==========  ==========  ==========

    ``delta`` is the regulated delta sum_{n>=0} x^n + sum_{n>=1} y^n.
    ``x`` and ``y`` may be complex scalars, numpy grids or sympy
    expressions; with ``exact`` the unit i and the coefficients are exact
    sympy numbers too, otherwise floats.
    """
    if family == "delta":
        c, c0 = (lambda n: 1), 1
    elif family == "wavy":
        c, c0 = (lambda n: n), 0
    elif family == "D":
        c, c0 = seq.xi_inv_value, 0
    elif family in ("NK", "NA"):
        c, c0 = seq.xi_value, (2 * seq.xi0 if family == "NA" else 0)
    else:
        raise ValueError(f"unknown mode-series family {family!r}")
    num = _exact_number if exact else float
    i = sp.I if exact else 1j
    total = num(c0 if k == 0 else 0)
    xp = yp = 1
    for n in range(1, N + 1):
        xp = xp * x
        yp = yp * y
        total = total + num(c(n)) * ((i * n) ** k * xp + (-i * n) ** k * yp)
    return total


@dataclass
class KernelValue:
    """Result of a truncated kernel evaluation.

    ``value`` is the partial sum through index ``truncation``; ``tail_bound``
    bounds the absolute error against the full series (``inf`` when the
    series only exists distributionally); ``closed_form`` is the exact sum
    when the family admits one (geometric).  ``singular`` marks requests at
    a genuinely singular configuration (equal angles on the circle for the
    Heisenberg propagator): no finite value exists there and ``value`` is
    ``None``.
    """

    value: object
    tail_bound: float
    truncation: int
    closed_form: object = None
    singular: bool = False


def _pair_powers_exact(p1: CirclePoint, p2: CirclePoint):
    """sympy expressions (w, wbar) for z1*conj(z2) and conj(z1)*z2."""
    rho = sp.nsimplify(p1.r) * sp.nsimplify(p2.r)
    phase = sp.exp(2 * sp.pi * sp.I * (sp.nsimplify(p1.t) - sp.nsimplify(p2.t)))
    return rho * phase, rho / phase


def _geom_tail(a1: float, ratio: float) -> float:
    """sum of a geometric series with first term a1 >= 0 and ratio in [0,1)."""
    if a1 == 0:
        return 0.0
    if ratio >= 1:
        return math.inf
    return a1 / (1.0 - ratio)


def _n_kernel_tail(seq: XiSequence, rho: float, trunc: int) -> float:
    """Bound on | sum_{n>trunc} xi_n (w^n + wbar^n) | with |w| = rho <= 1."""
    if seq.kind == "geometric":
        x = float(seq.q) * rho
        return _geom_tail(2.0 * x ** (trunc + 1), x)
    if seq.kind == "power-law":
        s = float(seq.s)
        if rho < 1:
            return _geom_tail(2.0 * (trunc + 1) ** (-s) * rho ** (trunc + 1), rho)
        # on the circle: integral comparison, and zeta(s) <= s / (s - 1)
        if trunc == 0:
            return 2.0 * s / (s - 1.0)
        return 2.0 * trunc ** (1.0 - s) / (s - 1.0)
    # explicit head + geometric tail
    m = len(seq.head)
    t = float(seq.tail_ratio)
    bound = 0.0
    n = trunc + 1
    while n <= m:
        bound += 2.0 * float(seq.head[n - 1]) * rho**n
        n += 1
    start = max(trunc + 1, m + 1)
    a1 = 2.0 * float(seq.head[-1]) * t ** (start - m) * rho**start
    return bound + _geom_tail(a1, t * rho)


def _d_tail(seq: XiSequence, rho: float, trunc: int) -> float:
    """Bound on | sum_{n>trunc} xi_n^{-1} (w^n + wbar^n) |, assuming the
    series converges at this radius product (checked by the caller)."""
    if seq.kind == "geometric":
        x = rho / float(seq.q)
        return _geom_tail(2.0 * x ** (trunc + 1), x)
    if seq.kind == "power-law":
        s = float(seq.s)
        # terms a_n = n^s rho^n; ratio a_{n+1}/a_n = rho (1+1/n)^s decreases
        bound = 0.0
        n = trunc + 1
        while True:
            ratio = rho * ((n + 1) / n) ** s
            a_n = 2.0 * n**s * rho**n
            if ratio < 1:
                return bound + a_n / (1.0 - ratio)
            bound += a_n
            n += 1
            if n > trunc + 10_000:  # pragma: no cover - unreachable for rho<1
                return math.inf
    m = len(seq.head)
    t = float(seq.tail_ratio)
    bound = 0.0
    n = trunc + 1
    while n <= m:
        bound += 2.0 / float(seq.head[n - 1]) * rho**n
        n += 1
    start = max(trunc + 1, m + 1)
    x = rho / t
    a1 = 2.0 / float(seq.head[-1]) * x ** (start - m) * rho**m
    return bound + _geom_tail(a1, x)


def _d_converges(seq: XiSequence, rho: float) -> bool:
    if rho == 0:
        return True
    if seq.kind == "geometric":
        return rho < float(seq.q)
    if seq.kind == "power-law":
        return rho < 1.0
    return rho < float(seq.tail_ratio)


def _check_request(p1: CirclePoint, p2: CirclePoint, trunc: int) -> None:
    for pt in (p1, p2):
        if not (0 <= float(pt.r) <= 1):
            raise ValueError(f"radius {pt.r} outside [0, 1]")
    if trunc < 0:
        raise ValueError(f"the mode truncation must be >= 0, got {trunc}")


def kernel_eval(
    kid: KernelId,
    seq: XiSequence,
    p1: CirclePoint,
    p2: CirclePoint,
    trunc: int = 64,
) -> KernelValue:
    """Evaluate a kernel at two points, truncating the mode sum at ``trunc``.

    Requires |z| <= 1 for both points and ``trunc >= 0`` (``ValueError``
    otherwise).  For ``KernelId.D`` the radii must put the series inside its
    domain of convergence, otherwise :class:`DivergentKernel` is raised.
    """
    _check_request(p1, p2, trunc)

    rho = float(p1.r) * float(p2.r)
    exact = seq.exact and p1.exact and p2.exact

    if kid == KernelId.D and not _d_converges(seq, rho):
        raise DivergentKernel(
            f"D-kernel series diverges at radius product {rho} for a {seq.kind} sequence"
        )

    # the two halves of the series are conjugate: the sum is real
    if exact:
        w, wbar = _pair_powers_exact(p1, p2)
        value = sp.simplify(sp.re(mode_series(w, wbar, 0, kid.value, seq, trunc, exact=True)))
    else:
        w = p1.to_complex() * p2.to_complex().conjugate()
        value = mode_series(w, w.conjugate(), 0, kid.value, seq, trunc).real

    tail = _n_kernel_tail(seq, rho, trunc) if kid != KernelId.D else _d_tail(seq, rho, trunc)

    closed = None
    if seq.kind == "geometric":
        if exact:
            rho_e = sp.nsimplify(p1.r) * sp.nsimplify(p2.r)
            cs = sp.cos(2 * sp.pi * (sp.nsimplify(p1.t) - sp.nsimplify(p2.t)))
            qq = sp.nsimplify(seq.q) if kid != KernelId.D else 1 / sp.nsimplify(seq.q)
            x = qq * rho_e
            closed = sp.simplify((2 * x * cs - 2 * x**2) / (1 - 2 * x * cs + x**2))
            if kid == KernelId.NA:
                closed = sp.simplify(closed + 2 * sp.nsimplify(seq.xi0))
        else:
            w = p1.to_complex() * p2.to_complex().conjugate()
            qq = float(seq.q) if kid != KernelId.D else 1.0 / float(seq.q)
            closed = 2.0 * (qq * w / (1.0 - qq * w)).real
            if kid == KernelId.NA:
                closed += 2.0 * float(seq.xi0)

    return KernelValue(value=value, tail_bound=tail, truncation=trunc, closed_form=closed)


def heisenberg_pair(p1: CirclePoint, p2: CirclePoint, kappa, p, trunc: int = 64) -> KernelValue:
    """The ordered rho-pair propagator p^2 + 2 kappa sum_{n>0} n x^n with
    x = conj(z1) z2, truncated at ``trunc``.

    Both points on the circle at equal angle is a genuinely singular
    configuration: the result is flagged ``singular`` with no value rather
    than raising, so callers can report it.  On the circle at distinct
    angles the partial sum is returned together with the distributional
    (Abel) closed form 2 kappa x / (1-x)^2; the tail bound is infinite
    there because the series does not converge pointwise.  Requires
    |z| <= 1 for both points and ``trunc >= 0`` (``ValueError`` otherwise).
    """
    _check_request(p1, p2, trunc)
    rho = float(p1.r) * float(p2.r)
    equal_angle = (float(p1.t) - float(p2.t)) % 1.0 == 0.0
    if p1.on_circle and p2.on_circle and equal_angle:
        return KernelValue(value=None, tail_bound=math.inf, truncation=trunc, singular=True)

    exact = p1.exact and p2.exact and not isinstance(kappa, float) and not isinstance(p, float)
    if exact:
        _, x = _pair_powers_exact(p1, p2)  # conj(z1) z2
        k = sp.nsimplify(kappa)
        total = sp.nsimplify(p) ** 2 + 2 * k * mode_series(x, 0, 0, "wavy", None, trunc, exact=True)
        value = sp.simplify(total)
        closed = sp.simplify(sp.nsimplify(p) ** 2 + 2 * k * x / (1 - x) ** 2)
    else:
        x = p1.to_complex().conjugate() * p2.to_complex()
        value = complex(p) ** 2 + 2 * complex(kappa) * mode_series(x, 0, 0, "wavy", None, trunc)
        closed = complex(p) ** 2 + 2 * complex(kappa) * x / (1 - x) ** 2

    if rho < 1:
        # exact tail of sum_{n>N} n rho^n; for a symbolic kappa the bound is
        # per unit of |kappa|
        try:
            kmag = abs(float(kappa))
        except TypeError:
            kmag = 1.0
        tail = 2.0 * kmag * rho ** (trunc + 1) * ((trunc + 1) - trunc * rho) / (1 - rho) ** 2
    else:
        tail = math.inf
    return KernelValue(value=value, tail_bound=tail, truncation=trunc, closed_form=closed)
