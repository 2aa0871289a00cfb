"""Current algebra: composite-current expansions and operator-level checks.

Two realizations of the loop ax+b generators are supported.  In both,
h = (a + b)/2 and b differs from a by a multiplication operator, so a and b
have identical commutators with every multiplication-type letter:

* K ("compact"): unitary exponentials alpha^+/alpha^- with
  [a(u), alpha^eps(v)] = -eps delta(u-v) alpha^eps(v)  and
  alpha^+ alpha^- = 1, (alpha^eps)* = alpha^(-eps);
* A ("ax+b"):     self-adjoint exponentials e^+/e^- with
  [a(u), e^sig(v)] = +i sig delta(u-v) e^sig(v)  and  e^+ e^- = 1.

The composite currents are

    J^eps = (i/2)(b alpha^eps + alpha^eps a) + eps kappa d(alpha^eps)
            + eps rho alpha^eps                                (K)
    J3    = 2i h - 2 kappa alpha^- d(alpha^+)                  (K)
    E     = (i/2)(b e^+ + e^+ a) + i kappa d(e^+) + i rho e^+  (A)
    F     = -(i/2)(b e^- + e^- a) + i kappa d(e^-) + i rho e^- (A)
    H     = -2i h + 2i kappa e^- d(e^+)                        (A)

with rho the Heisenberg current and d the angle derivative.  All six are
anti-self-adjoint sl(2,R)-type currents: J3* = -J3, (J^+-)* = -(J^-+),
E* = -E, F* = -F, H* = -H, which ``star_check`` verifies term by term.
``classical_check`` verifies the sl(2,R) commutation relations for the
single-mode (classical) analogues with a symbolic central parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .distributions import Coeff, orient
from .errors import RealizationMismatch

HALF = Fraction(1, 2)

# letters of the primitive alphabet
A_, B_, H_ = "a", "b", "h"
ALP, ALM = "alpha+", "alpha-"
EP, EM = "e+", "e-"
RHO = "rho"
DALP, DALM = "dalpha+", "dalpha-"
DEP, DEM = "de+", "de-"
LK = "alpha-dalpha+"   # the K consuming terminal
LA = "e-de+"           # the A consuming terminal

K_LETTERS = {ALP, ALM, DALP, DALM, LK}
A_LETTERS = {EP, EM, DEP, DEM, LA}

# the letters by role: plain exponentials, the angle derivative of each
# (mapped to its exponential) and the consuming terminals
EXP_LETTERS = frozenset({ALP, ALM, EP, EM})
DERIV_BASE = {DALP: ALP, DALM: ALM, DEP: EP, DEM: EM}
TERMINALS = frozenset({LK, LA})

# exponential charge; a derivative letter carries the charge of its base
EXP_CHARGE = {ALP: 1, ALM: -1, EP: 1, EM: -1}
EXP_CHARGE.update({d: EXP_CHARGE[b] for d, b in DERIV_BASE.items()})

CURRENTS_K = ("J+", "J-", "J3")
CURRENTS_A = ("E", "F", "H")
# exponential charge of each charged current
CURRENT_CHARGE = {"J+": 1, "J-": -1, "E": 1, "F": -1}


@dataclass(frozen=True)
class SectorConfig:
    """Which realization and sector a computation runs in.  The central
    parameter kappa and the zero mode p stay symbolic (tracked as monomial
    exponents of the coefficients)."""

    realization: str = "K"
    sector: str = "nonunitary"

    def __post_init__(self):
        if self.realization not in ("K", "A"):
            raise ValueError(f"realization must be 'K' or 'A', got {self.realization!r}")
        if self.sector not in ("unitary", "nonunitary"):
            raise ValueError(f"sector must be 'unitary' or 'nonunitary', got {self.sector!r}")

    @property
    def unitary(self) -> bool:
        return self.sector == "unitary"


@dataclass(frozen=True)
class PrimitiveTerm:
    """One summand of a composite current: coeff times an ordered product of
    primitive letters, all at the same insertion index."""

    symbols: Tuple[str, ...]
    index: int
    coeff: Coeff
    mode: str  # realization


@dataclass(frozen=True)
class CompositeCurrentDef:
    name: str
    realization: str
    # (coeff, letters) pairs; kappa enters through the coeff monomials
    terms: Tuple[Tuple[Coeff, Tuple[str, ...]], ...]


def _cj(re=0, im=0, **kw):
    return Coeff.unit(re=re, im=im, **kw)


_DEFS: Dict[str, CompositeCurrentDef] = {
    "J+": CompositeCurrentDef("J+", "K", (
        (_cj(im=HALF), (B_, ALP)),
        (_cj(im=HALF), (ALP, A_)),
        (_cj(re=1, kappa=1), (DALP,)),
        (_cj(re=1), (RHO, ALP)),
    )),
    "J-": CompositeCurrentDef("J-", "K", (
        (_cj(im=HALF), (B_, ALM)),
        (_cj(im=HALF), (ALM, A_)),
        (_cj(re=-1, kappa=1), (DALM,)),
        (_cj(re=-1), (RHO, ALM)),
    )),
    "J3": CompositeCurrentDef("J3", "K", (
        (_cj(im=2), (H_,)),
        (_cj(re=-2, kappa=1), (LK,)),
    )),
    "E": CompositeCurrentDef("E", "A", (
        (_cj(im=HALF), (B_, EP)),
        (_cj(im=HALF), (EP, A_)),
        (_cj(im=1, kappa=1), (DEP,)),
        (_cj(im=1), (RHO, EP)),
    )),
    "F": CompositeCurrentDef("F", "A", (
        (_cj(im=-HALF), (B_, EM)),
        (_cj(im=-HALF), (EM, A_)),
        (_cj(im=1, kappa=1), (DEM,)),
        (_cj(im=1), (RHO, EM)),
    )),
    "H": CompositeCurrentDef("H", "A", (
        (_cj(im=-2), (H_,)),
        (_cj(im=2, kappa=1), (LA,)),
    )),
}


def current_def(name: str) -> CompositeCurrentDef:
    if name not in _DEFS:
        raise ValueError(f"unknown current {name!r}")
    return _DEFS[name]


def expand_current(name: str, index: int, cfg: SectorConfig) -> List[PrimitiveTerm]:
    """The composite current as a list of primitive products at ``index``.
    Raises :class:`RealizationMismatch` when the current does not live in
    the configured realization."""
    d = current_def(name)
    if d.realization != cfg.realization:
        raise RealizationMismatch(
            f"current {name} lives in realization {d.realization}, "
            f"but the configuration says {cfg.realization}")
    return [PrimitiveTerm(letters, index, coeff, d.realization)
            for (coeff, letters) in d.terms]


# ---------------------------------------------------------------------------
# primitive commutators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommPart:
    """One term of a primitive commutator: coefficient and distribution
    tokens (deltas and smooth factors, as in
    :class:`loopcorr.distributions.Term`)."""

    coeff: Coeff
    deltas: Tuple[Tuple[int, int, int], ...] = ()
    smooth: Tuple[Tuple[str, int, int, int], ...] = ()


def primitive_commutator(left: str, right: str, i: int, j: int,
                         cfg: SectorConfig) -> List[CommPart]:
    """[left(u_i), right(u_j)], i != j, for the pairs a contraction diagram
    makes.  a and b have the same commutator with every multiplication-type
    letter:

    * a or b against alpha^eps: -eps delta(u_i - u_j), times alpha^eps(u_j),
      which stays in place;
    * a or b against e^sig: +i sig delta(u_i - u_j), times e^sig(u_j);
    * a or b against the terminal alpha^- d alpha^+: +delta'(u_i - u_j), and
      against e^- d e^+: -i delta'(u_i - u_j), both pure numbers;
    * a against b, in the unitary sector only: the dotted pairing D, plus
      the zero-mode constant 1/(2 xi_0) in A.

    Every other pair raises ``ValueError``.
    """
    if i == j:
        raise ValueError("primitive commutators need distinct insertion points")
    if left in (A_, B_):
        # delta(u_i - u_j) is even under the endpoint swap, delta' picks up flip
        lo, hi, flip = orient(i, j, 1)
        if right in (ALP, ALM):
            return [CommPart(Coeff.complex_rat(-EXP_CHARGE[right]), deltas=((lo, hi, 0),))]
        if right in (EP, EM):
            return [CommPart(Coeff.complex_rat(0, EXP_CHARGE[right]), deltas=((lo, hi, 0),))]
        if right == LK:
            return [CommPart(Coeff.complex_rat(flip), deltas=((lo, hi, 1),))]
        if right == LA:
            return [CommPart(Coeff.complex_rat(0, -flip), deltas=((lo, hi, 1),))]
        if (left, right) == (A_, B_) and cfg.unitary:
            parts = [CommPart(Coeff.complex_rat(1), smooth=(("D", 0, lo, hi),))]
            if cfg.realization == "A":
                parts.append(CommPart(Coeff.unit(xi0=-1, re=HALF)))
            return parts
    raise ValueError(f"no contraction of {left!r} with {right!r} "
                     f"in the {cfg.sector} sector")


# ---------------------------------------------------------------------------
# star structure
# ---------------------------------------------------------------------------

# letter -> (sign, starred letter)
_STAR: Dict[str, Tuple[int, str]] = {
    A_: (1, B_), B_: (1, A_), H_: (1, H_), RHO: (1, RHO),
    ALP: (1, ALM), ALM: (1, ALP), EP: (1, EP), EM: (1, EM),
    DALP: (1, DALM), DALM: (1, DALP), DEP: (1, DEP), DEM: (1, DEM),
    LK: (-1, LK), LA: (1, LA),
}

_STAR_TARGET = {"J+": "J-", "J-": "J+", "J3": "J3", "E": "E", "F": "F", "H": "H"}

# adjoint of each composite current at the word level: X* = sign * partner,
# verified term by term in star_check
CURRENT_STAR: Dict[str, Tuple[str, int]] = {
    nm: (tgt, -1) for nm, tgt in _STAR_TARGET.items()}


def _normalize_product(letters: Tuple[str, ...]) -> Tuple[str, ...]:
    """rho commutes with the ax+b letters: put it first."""
    rhos = tuple(l for l in letters if l == RHO)
    rest = tuple(l for l in letters if l != RHO)
    return rhos + rest


def star_term(coeff: Coeff, letters: Tuple[str, ...]) -> Tuple[Coeff, Tuple[str, ...]]:
    """(c X1 ... Xn)* = conj(c) Xn* ... X1*."""
    out: List[str] = []
    c = coeff.conj()
    for l in reversed(letters):
        sign, starred = _STAR[l]
        out.append(starred)
        if sign != 1:
            c = c.scale(sign)
    return c, _normalize_product(tuple(out))


@dataclass
class StarReport:
    name: str
    ok: bool
    expected: str
    details: List[str] = field(default_factory=list)


def star_check(name: str) -> StarReport:
    """Verify X* = -X~ term by term, where X~ swaps J+ <-> J- and fixes the
    other currents."""
    d = current_def(name)
    target = current_def(_STAR_TARGET[name])
    got: Dict[Tuple[str, ...], Coeff] = {}
    for coeff, letters in d.terms:
        c, ls = star_term(coeff, letters)
        got[ls] = got.get(ls, Coeff.zero()) + c
    want: Dict[Tuple[str, ...], Coeff] = {}
    for coeff, letters in target.terms:
        ls = _normalize_product(letters)
        want[ls] = want.get(ls, Coeff.zero()) + coeff.scale(-1)
    ok = True
    details = []
    for ls in set(got) | set(want):
        g = got.get(ls, Coeff.zero())
        w = want.get(ls, Coeff.zero())
        if not (g - w).is_zero:
            ok = False
            details.append(f"term {ls}: {g} vs {w}")
    return StarReport(name, ok, f"-{_STAR_TARGET[name]}", details)


# ---------------------------------------------------------------------------
# classical (single-mode) sanity checks
# ---------------------------------------------------------------------------


class ClassicalOp:
    """Operator in the classical ax+b algebra, normal-ordered as
    sum_c  x^c P_c(h)  where x is alpha (K, h x = x (h - 1)) or e (A,
    h e = e (h + i));  P_c are sympy polynomials in h and lambda.  The
    constructor expands each part once and drops the zero ones, so the
    operations below hand it unexpanded sums."""

    def __init__(self, realization: str, parts: Optional[Dict[int, object]] = None):
        import sympy as sp

        self.realization = realization
        expanded = ((c, sp.expand(p)) for c, p in (parts or {}).items())
        self.parts = {c: p for c, p in expanded if p != 0}

    @staticmethod
    def h_sym():
        import sympy as sp

        return sp.Symbol("h", real=True)

    def _shift(self, p, c: int):
        import sympy as sp

        h = self.h_sym()
        if self.realization == "K":
            return p.subs(h, h - c)
        return p.subs(h, h + sp.I * c)

    def __mul__(self, other: "ClassicalOp") -> "ClassicalOp":
        assert self.realization == other.realization
        out: Dict[int, object] = {}
        for c1, p1 in self.parts.items():
            for c2, p2 in other.parts.items():
                c = c1 + c2
                out[c] = out.get(c, 0) + self._shift(p1, c2) * p2
        return ClassicalOp(self.realization, out)

    def __add__(self, other: "ClassicalOp") -> "ClassicalOp":
        out = dict(self.parts)
        for c, p in other.parts.items():
            out[c] = out.get(c, 0) + p
        return ClassicalOp(self.realization, out)

    def __sub__(self, other: "ClassicalOp") -> "ClassicalOp":
        return self + other.scale(-1)

    def scale(self, s) -> "ClassicalOp":
        return ClassicalOp(self.realization, {c: s * p for c, p in self.parts.items()})

    def commutator(self, other: "ClassicalOp") -> "ClassicalOp":
        return self * other - other * self

    def star(self) -> "ClassicalOp":
        import sympy as sp

        h = self.h_sym()
        out: Dict[int, object] = {}
        for c, p in self.parts.items():
            pc = sp.conjugate(p)
            if self.realization == "K":
                out[-c] = out.get(-c, 0) + pc.subs(h, h + c)
            else:
                out[c] = out.get(c, 0) + pc.subs(h, h + sp.I * c)
        return ClassicalOp(self.realization, out)

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def __repr__(self):
        return f"ClassicalOp({self.realization}, {self.parts})"


def classical_currents(realization: str, lam) -> Dict[str, ClassicalOp]:
    import sympy as sp

    h = ClassicalOp.h_sym()
    if realization == "K":
        # J+- = (i/2)(alpha^+- h + h alpha^+-) -+ lam alpha^+-,  J3 = 2i h
        return {
            "J+": ClassicalOp("K", {1: sp.I * h - sp.I / 2 - lam}),
            "J-": ClassicalOp("K", {-1: sp.I * h + sp.I / 2 + lam}),
            "J3": ClassicalOp("K", {0: 2 * sp.I * h}),
        }
    return {
        "E": ClassicalOp("A", {1: sp.I * h - sp.Rational(1, 2) + sp.I * lam}),
        "F": ClassicalOp("A", {-1: -sp.I * h - sp.Rational(1, 2) + sp.I * lam}),
        "H": ClassicalOp("A", {0: -2 * sp.I * h}),
    }


@dataclass
class ClassicalReport:
    realization: str
    ok: bool
    relations: Dict[str, bool]
    stars: Dict[str, bool]
    relabel_note: str = ""


def classical_check(realization: str, lam=None) -> ClassicalReport:
    """Check the classical commutation table with symbolic lambda.

    K: [J3, J+-] = -+2i J+-, [J+, J-] = i J3 (the su(1,1) form quoted with
    the opposite signs holds for the relabeled pair J~+- := J-+, which the
    note records).  A: [E, F] = H, [H, E] = 2E, [H, F] = -2F.  Also checks
    the anti-self-adjointness of all classical currents.
    """
    import sympy as sp

    lam = lam if lam is not None else sp.Symbol("lambda_", real=True)
    cur = classical_currents(realization, lam)
    rel: Dict[str, bool] = {}
    if realization == "K":
        rel["[J3,J+] = -2i J+"] = (cur["J3"].commutator(cur["J+"]) - cur["J+"].scale(-2 * sp.I)).is_zero
        rel["[J3,J-] = +2i J-"] = (cur["J3"].commutator(cur["J-"]) - cur["J-"].scale(2 * sp.I)).is_zero
        rel["[J+,J-] = i J3"] = (cur["J+"].commutator(cur["J-"]) - cur["J3"].scale(sp.I)).is_zero
        # the relabeled pair satisfies the opposite-sign table
        jt_p, jt_m = cur["J-"], cur["J+"]
        rel["relabeled [J3,J~+] = +2i J~+"] = (cur["J3"].commutator(jt_p) - jt_p.scale(2 * sp.I)).is_zero
        rel["relabeled [J~+,J~-] = -i J3"] = (jt_p.commutator(jt_m) - cur["J3"].scale(-sp.I)).is_zero
        note = "printed-sign table holds after the relabeling J~+- := J-+"
        stars = {
            "J+* = -J-": (cur["J+"].star() - cur["J-"].scale(-1)).is_zero,
            "J-* = -J+": (cur["J-"].star() - cur["J+"].scale(-1)).is_zero,
            "J3* = -J3": (cur["J3"].star() - cur["J3"].scale(-1)).is_zero,
        }
    else:
        rel["[E,F] = H"] = (cur["E"].commutator(cur["F"]) - cur["H"]).is_zero
        rel["[H,E] = 2E"] = (cur["H"].commutator(cur["E"]) - cur["E"].scale(2)).is_zero
        rel["[H,F] = -2F"] = (cur["H"].commutator(cur["F"]) - cur["F"].scale(-2)).is_zero
        note = ""
        stars = {
            "E* = -E": (cur["E"].star() - cur["E"].scale(-1)).is_zero,
            "F* = -F": (cur["F"].star() - cur["F"].scale(-1)).is_zero,
            "H* = -H": (cur["H"].star() - cur["H"].scale(-1)).is_zero,
        }
    ok = all(rel.values()) and all(stars.values())
    return ClassicalReport(realization, ok, rel, stars, note)
