"""Weight sequences, points on the disc, and the truncated mode series.

All two-point structure of the engine is built from a summable positive
sequence xi_1, xi_2, ... (plus a separate positive scalar xi_0 that only
enters in the A realization).  With points z = r e^{iu} inside or on the
unit circle and x = z1 conj(z2), y = conj(z1) z2, the kernels are

    N_K(z1, z2) =          sum_{n>0} xi_n (x^n + y^n)
    N_A(z1, z2) = 2 xi_0 + sum_{n>0} xi_n (x^n + y^n)
    D(z1, z2)   =          sum_{n>0} xi_n^{-1} (x^n + y^n)

and a pair of Heisenberg insertions contributes 2 kappa sum_{n>0} n x^n.
:func:`series_coefficients` holds the one rule from xi_n to the n-th
coefficient of each of these sums; it builds a table once per (family,
sequence, N) and caches it.  :func:`mode_series` is the one evaluator of
the sums: truncated at a mode N, with k angle derivatives in the first
point.  On the circle (r = 1) the N-kernels are the cosine series
2 sum xi_n cos n(u - v); D generally diverges there and the engine keeps
it only as a formal mode multiplier.

Three sequence families are supported:

* ``geometric``  : xi_n = q^n with 0 < q < 1;
* ``power-law``  : xi_n = n^(-s) with s > 1;
* ``explicit``   : a finite positive head xi_1..xi_m continued geometrically,
  xi_{m+k} = xi_m * t^k with 0 < t < 1.

Sequence parameters are exact rationals.  The series is summed in floats,
or exactly in sympy when asked.  That choice is made in one place:
:func:`arith` returns the :class:`Arith` record of the arithmetic (zero, one,
the unit i, how to read a rational, exp, how to read a point), and every
float-or-exact evaluator -- the tables and series here, the oracle and
``expression_value`` in :mod:`loopcorr.verify` -- reads that record instead
of branching.  Only the exact record imports sympy, so float evaluation and
the engine never load it.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, float, Fraction]


def _as_fraction(x, name: str) -> Fraction:
    """Coerce strings / ints / Fractions to Fraction; a float is rounded to
    the nearest fraction with denominator at most 10**12.  Raises
    ``ValueError`` for a string that is not a finite rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{name} must be a finite rational, got {x!r}") from None
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"{name} must be rational, got {type(x).__name__}")


@dataclass(frozen=True)
class CirclePoint:
    """A point z = r e^{2 pi i t} given by radius ``r`` and turn fraction ``t``.

    ``t`` is the angle divided by 2*pi.  :meth:`to_complex` gives the float
    value of z and :meth:`to_sympy` the exact one.
    """

    r: Scalar = 1
    t: Scalar = 0

    def to_complex(self) -> complex:
        return float(self.r) * cmath.exp(2j * math.pi * float(self.t))

    def to_sympy(self):
        import sympy as sp

        return sp.nsimplify(self.r) * sp.exp(2 * sp.pi * sp.I * sp.nsimplify(self.t))


class Arith(NamedTuple):
    """One arithmetic for the mode sums: Python floats and complex numbers,
    or exact sympy numbers.  ``rat`` reads an int or Fraction, ``point`` a
    :class:`CirclePoint`; ``exp`` is the exponential of the arithmetic."""

    exact: bool
    zero: object
    one: object
    i: object
    rat: Callable
    exp: Callable
    point: Callable


_FLOAT = Arith(False, 0j, 1 + 0j, 1j, float, cmath.exp, CirclePoint.to_complex)


def arith(exact: bool = False) -> Arith:
    """The float record, or the exact one, which imports sympy."""
    if not exact:
        return _FLOAT
    import sympy as sp

    return Arith(True, sp.Integer(0), sp.Integer(1), sp.I,
                 lambda v: sp.Rational(v.numerator, v.denominator), sp.exp,
                 CirclePoint.to_sympy)


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

    def xi_value(self, n: int):
        """xi_|n| (n = 0 gives xi_0): a Fraction, or a float for a
        non-integer power-law exponent, where n**(-s) is irrational."""
        n = abs(n)
        if n == 0:
            return self.xi0
        if self.kind == "geometric":
            return self.q**n
        if self.kind == "power-law":
            if self.s != int(self.s):
                return float(n) ** (-float(self.s))
            return Fraction(1, n ** int(self.s))
        m = len(self.head)
        if n <= m:
            return self.head[n - 1]
        return self.head[-1] * self.tail_ratio ** (n - m)


@functools.lru_cache(maxsize=256)
def series_coefficients(family: str, seq: Optional[XiSequence], N: int,
                        exact: bool = False) -> tuple:
    """The coefficients (c0, c(1), ..., c(N)) of a mode-series family, as
    floats, or as sympy Rationals with ``exact``:

    ==========  ==========  ==========
    family      c(n)        c0
    ==========  ==========  ==========
    ``NK``      xi_n        0
    ``NA``      xi_n        2 xi_0
    ``D``       1 / xi_n    0
    ``wavy``    n           0
    ``delta``   1           1
    ==========  ==========  ==========

    ``seq`` is read by the xi families only.  Raises ``ValueError`` for an
    unknown family, and for an exact table with an irrational coefficient
    (a non-integer power law).
    """
    if family == "delta":
        c, c0 = (lambda n: 1), 1
    elif family == "wavy":
        c, c0 = (lambda n: n), 0
    elif family == "D":
        c, c0 = (lambda n: 1 / seq.xi_value(n)), 0
    elif family in ("NK", "NA"):
        c, c0 = seq.xi_value, (2 * seq.xi0 if family == "NA" else 0)
    else:
        raise ValueError(f"unknown mode-series family {family!r}")
    values = [c0] + [c(n) for n in range(1, N + 1)]
    if exact and any(isinstance(v, float) for v in values):
        raise ValueError(f"xi_n = n^(-{seq.s}) is irrational: a power law with a "
                         "non-integer exponent has no exact mode series")
    return tuple(map(arith(exact).rat, values))


def mode_series(x, y, k: int, family: str, seq: Optional[XiSequence], N: int,
                exact: bool = False):
    """The truncated mode series

        c0 [k = 0] + sum_{n=1..N} c(n) [ (i n)^k x^n + (-i n)^k y^n ]

    of a coefficient family, with the coefficients of
    :func:`series_coefficients`.  For a pair of points, x = z1 conj(z2),
    y = conj(z1) z2, and k counts the angle derivatives in the first point.

    ``delta`` is the regulated delta sum_{n>=0} x^n + sum_{n>=1} y^n.
    ``x`` and ``y`` may be complex scalars, numpy grids or sympy
    expressions; with ``exact`` the unit i and the coefficients are exact
    sympy numbers too, otherwise floats.
    """
    c = series_coefficients(family, seq, N, exact)
    i = arith(exact).i
    total = c[0] if k == 0 else 0 * c[0]
    xp = yp = 1
    for n in range(1, N + 1):
        xp = xp * x
        yp = yp * y
        total = total + c[n] * ((i * n) ** k * xp + (-i * n) ** k * yp)
    return total
