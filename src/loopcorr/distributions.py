"""Distribution-valued correlator expressions and their canonical form.

A correlator evaluates to a finite sum of terms.  Each term is a product of

* a scalar coefficient -- an exact complex polynomial in kappa, p, xi_0 and
  the loop constants mu_k, each monomial's scalar held as integer Gaussian
  numerators over one denominator (no floats; ``Fraction`` only at the
  boundary, see :class:`Coeff`), serialized as monomials
  ``[[kappa, p, xi0], [[k, mu_k power], ...], re, im]``;
* delta factors  d^k/du_i^k delta(u_i - u_j)  (JSON key ``deltas``);
* smooth factors (JSON key ``smooth``): the k-th angle derivative of one
  truncated mode series (:func:`loopcorr.kernels.mode_series`) of a family
  ``NK`` / ``NA`` (kernels), ``wavy`` (the |n|-weighted sum from rho-pairs)
  or ``D`` (the dotted inverse-xi sum), including the constants at
  coincident endpoints;
* one exponential factor exp(+-[sum_{s<t} q_s q_t N(s,t) + 1/2 sum q_s^2
  N(s,s)]) carrying the surviving exponential charges (see
  :func:`gaussian_rule`; a charge-balance constraint in the K realization);
* pending derivative markers d/du_t to be expanded during canonicalization.

Indices are insertion points; each has a radius (1 = on the circle, where
delta factors are honest distributions; inside the disc every factor is an
analytic function given by its truncated mode sum).

``canonicalize`` rewrites an expression to a normal form where, on the
circle, every delta-connected component is a star anchored at its smallest
index with all smooth content moved onto the root.  Two expressions that are
equal as distributions canonicalize to the identical term list, so equality
checking and exact-zero verification reduce to syntactic comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import SingularProduct, StructuralViolation
from .kernels import XiSequence, mode_series

# ---------------------------------------------------------------------------
# coefficients: exact complex polynomials in kappa, p, xi0, mu_k
# ---------------------------------------------------------------------------

# monomial: (kappa_pow, p_pow, xi0_pow, ((k, pow), ...))
Mono = Tuple[int, int, int, Tuple[Tuple[int, int], ...]]
MONO_ONE: Mono = (0, 0, 0, ())

# a monomial's scalar: integers (a, b, den) meaning (a + i b)/den
Part = Tuple[int, int, int]

_gcd = math.gcd


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    mu: Dict[int, int] = dict(m1[3])
    for k, e in m2[3]:
        mu[k] = mu.get(k, 0) + e
    return (
        m1[0] + m2[0],
        m1[1] + m2[1],
        m1[2] + m2[2],
        tuple(sorted((k, e) for k, e in mu.items() if e)),
    )


def _ratio(x) -> Tuple[int, int]:
    """Numerator and denominator of an exact rational.  An int or a Fraction
    is read as it is; anything else goes through ``Fraction``."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def _reduced(a: int, b: int, den: int) -> Part:
    """(a + i b)/den in lowest terms; den > 0 and a, b not both zero."""
    g = _gcd(a, b, den)
    return (a, b, den) if g == 1 else (a // g, b // g, den // g)


def _part(re, im) -> Optional[Part]:
    """The part of the exact rationals re + i im, None when both vanish."""
    rn, rd = _ratio(re)
    imn, imd = _ratio(im)
    if not rn and not imn:
        return None
    den = rd * imd // _gcd(rd, imd)
    return _reduced(rn * (den // rd), imn * (den // imd), den)


def _add_part(d: Dict[Mono, Part], m: Mono, part: Part) -> None:
    """Add a part in lowest terms to monomial m of d, in place; a sum that
    cancels removes the monomial."""
    old = d.get(m)
    if old is None:
        d[m] = part
        return
    a, b, den = part
    c, e, q = old
    if q == den:
        a, b = a + c, b + e
    else:
        a, b, den = a * q + c * den, b * q + e * den, den * q
    if a or b:
        d[m] = _reduced(a, b, den)
    else:
        del d[m]


class Coeff:
    """Exact scalar: dict monomial -> (a, b, den), integers meaning
    (a + i b)/den, with den > 0, gcd(a, b, den) == 1 and a, b not both
    zero.  That form is unique, so equal coefficients have equal dicts.

    Arithmetic works on the integers alone.  ``Fraction`` appears only at
    the boundary: the ``re``/``im`` arguments of the constructors and the
    values handed to :meth:`subs_mu` come in as ints or Fractions, and
    :meth:`parts` gives the real and imaginary parts back as Fractions."""

    __slots__ = ("d",)

    def __init__(self, d: Optional[Dict[Mono, Part]] = None):
        self.d = d if d is not None else {}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "Coeff":
        return cls()

    @classmethod
    def complex_rat(cls, re=0, im=0) -> "Coeff":
        return cls.unit(re=re, im=im)

    @classmethod
    def one(cls) -> "Coeff":
        return cls({MONO_ONE: (1, 0, 1)})

    @classmethod
    def unit(cls, kappa=0, p=0, xi0=0, mu: Optional[Dict[int, int]] = None,
             re=1, im=0) -> "Coeff":
        mono = (kappa, p, xi0, tuple(sorted((k, e) for k, e in (mu or {}).items() if e)))
        part = _part(re, im)
        return cls() if part is None else cls({mono: part})

    def parts(self) -> Dict[Mono, Tuple[Fraction, Fraction]]:
        """monomial -> (real part, imaginary part) as Fractions."""
        return {m: (Fraction(a, den), Fraction(b, den)) for m, (a, b, den) in self.d.items()}

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Coeff") -> "Coeff":
        d = dict(self.d)
        for m, part in other.d.items():
            _add_part(d, m, part)
        return Coeff(d)

    def __neg__(self) -> "Coeff":
        return Coeff({m: (-a, -b, den) for m, (a, b, den) in self.d.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        if len(self.d) == 1 and len(other.d) == 1:
            # the common case in the pipeline: two single monomials, mostly 1 x 1;
            # a product of nonzero Gaussian integers is nonzero
            ((m1, (a, b, p)),) = self.d.items()
            ((m2, (c, e, q)),) = other.d.items()
            m = m2 if m1 == MONO_ONE else m1 if m2 == MONO_ONE else _mono_mul(m1, m2)
            re, im, den = a * c - b * e, a * e + b * c, p * q
            if den != 1:
                g = _gcd(re, im, den)
                if g != 1:
                    re, im, den = re // g, im // g, den // g
            return Coeff({m: (re, im, den)})
        out: Dict[Mono, Part] = {}
        for m1, (a, b, p) in self.d.items():
            for m2, (c, e, q) in other.d.items():
                _add_part(out, _mono_mul(m1, m2), _reduced(a * c - b * e, a * e + b * c, p * q))
        return Coeff(out)

    def scale(self, re=1, im=0) -> "Coeff":
        """The coefficient times re + i im.  An integer factor multiplies the
        numerators and builds no intermediate coefficient."""
        if im or not isinstance(re, int):
            return self * Coeff.complex_rat(re, im)
        if re == 1:
            return self
        if re == -1:
            return -self
        if re == 0:
            return Coeff()
        out: Dict[Mono, Part] = {}
        for m, (a, b, den) in self.d.items():
            # gcd(a, b, den) == 1, so gcd(re a, re b, den) == gcd(re, den)
            g = _gcd(re, den)
            n = re // g
            out[m] = (a * n, b * n, den // g)
        return Coeff(out)

    def conj(self) -> "Coeff":
        return Coeff({m: (a, -b, den) for m, (a, b, den) in self.d.items()})

    @property
    def is_zero(self) -> bool:
        return not self.d

    @property
    def has_mu(self) -> bool:
        """Whether some monomial carries a loop scale mu_k."""
        return any(m[3] for m in self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coeff) and self.d == other.d

    def __hash__(self):
        return hash(frozenset(self.d.items()))

    # -- rendering --------------------------------------------------------

    def to_sympy(self):
        import sympy as sp

        kappa, p, xi0 = sp.symbols("kappa p xi0", positive=True)
        total = sp.Integer(0)
        for (ek, ep, ex, mus), (re, im) in self.parts().items():
            c = sp.Rational(re.numerator, re.denominator) + sp.I * sp.Rational(im.numerator, im.denominator)
            c *= kappa**ek * p**ep * xi0**ex
            for k, e in mus:
                c *= sp.Symbol(f"mu{k}", real=True) ** e
            total += c
        return total

    def subs_mu(self, value) -> "Coeff":
        """Exact substitution of ``value(k)`` (an int or a Fraction) for every
        loop scale mu_k.  A coefficient without mu_k monomials is returned as
        it is, and ``value`` is only asked for the scales that occur."""
        if not self.has_mu:
            return self
        out: Dict[Mono, Part] = {}
        for (ek, ep, ex, mus), (a, b, den) in self.d.items():
            num = 1
            for k, e in mus:
                vn, vd = _ratio(value(k))
                num *= vn ** e
                den *= vd ** e
            if num:
                _add_part(out, (ek, ep, ex, ()), _reduced(a * num, b * num, den))
        return Coeff(out)

    def subs_numeric(self, kappa=1.0, p=0.0, xi0=1.0) -> complex:
        total = 0j
        for (ek, ep, ex, mus), (a, b, den) in self.d.items():
            if mus:
                raise ValueError("loop scales are substituted before numeric evaluation")
            v = complex(a / den, b / den)
            v *= complex(kappa) ** ek * complex(p) ** ep * complex(xi0) ** ex
            total += v
        return total

    def __repr__(self):
        """The monomials in sorted order, each as its scalar times powers of
        kappa, p, xi0 and the mu_k, e.g. ``Coeff(-3*I + 1/2*kappa*mu2)``."""
        parts = self.parts()
        return f"Coeff({' + '.join(_mono_str(m, *parts[m]) for m in sorted(parts)) or '0'})"


def _mono_str(mono: Mono, re: Fraction, im: Fraction) -> str:
    ek, ep, ex, mus = mono
    powers = [("kappa", ek), ("p", ep), ("xi0", ex)] + [(f"mu{k}", e) for k, e in mus]
    factors = [name if e == 1 else f"{name}**{e}" for name, e in powers if e]
    if not im:
        scalar = str(re)
    elif not re:
        scalar = f"{im}*I"
    else:
        scalar = f"({re} + {im}*I)"
    return "*".join(factors if scalar == "1" and factors else [scalar] + factors)


# ---------------------------------------------------------------------------
# terms and expressions
# ---------------------------------------------------------------------------


def orient(i: int, j: int, k: int) -> Tuple[int, int, int]:
    """The index-orientation rule of every two-point token: the endpoints
    sorted, and the sign (-1)^k that swapping them costs (a k-th derivative
    in the first angle of a function of u_i - u_j)."""
    if i <= j:
        return i, j, 1
    return j, i, (-1) ** k


def charge_vanishes(realization: Optional[str], charges: Iterable[int]) -> bool:
    """K-realization charge selection: a word or term whose exponential
    charges do not sum to zero vanishes.  The A realization has no such
    rule."""
    return realization == "K" and sum(charges) != 0


def gaussian_rule(realization: Optional[str]) -> Tuple[str, int]:
    """The covariance of exponential charges: (family, sign) such that
    charges q_a, q_b contribute sign * q_a q_b N(a, b) to the exponent, N the
    mode series of that family.  K uses ``NK`` with sign -1, A ``NA`` with +1."""
    if realization == "K":
        return "NK", -1
    if realization == "A":
        return "NA", 1
    raise ValueError("exponential factors need a realization")


@dataclass(frozen=True)
class Term:
    """One product term.  Token tuples are kept sorted; ``coeff`` is the
    only non-structural field."""

    coeff: Coeff
    deltas: Tuple[Tuple[int, int, int], ...] = ()       # (i, j, k), i < j
    smooth: Tuple[Tuple[str, int, int, int], ...] = ()  # (family, k, i, j), i <= j
    exps: Tuple[Tuple[int, int], ...] = ()              # (pos, charge)
    dmarks: Tuple[int, ...] = ()                        # pending d/du_t

    def key(self):
        return (self.deltas, self.smooth, self.exps, self.dmarks)

    def _replace(self, **changes) -> "Term":
        """``dataclasses.replace`` without its per-field introspection and
        frozen ``__init__``: canonicalization copies hundreds of thousands
        of terms.  ``changes`` names Term fields."""
        new = object.__new__(Term)
        new.__dict__.update(self.__dict__, **changes)
        return new

    def sorted(self) -> "Term":
        return self._replace(
            deltas=tuple(sorted(self.deltas)),
            smooth=tuple(sorted(self.smooth)),
            exps=tuple(sorted(self.exps)),
            dmarks=tuple(sorted(self.dmarks)),
        )

    def indices(self) -> set:
        out = set()
        for (i, j, _k) in self.deltas:
            out.update((i, j))
        for (_f, _k, i, j) in self.smooth:
            out.update((i, j))
        for (pos, _c) in self.exps:
            out.add(pos)
        out.update(self.dmarks)
        return out

    def relabel(self, mapping: Dict[int, int]) -> "Term":
        """Rename indices; token orientations are re-normalized (this is a
        pure renaming, validity of any identification is the caller's
        business)."""
        coeff = self.coeff
        deltas = []
        for (i, j, k) in self.deltas:
            a, b, s = orient(mapping.get(i, i), mapping.get(j, j), k)
            if a == b:
                raise StructuralViolation("delta factor with equal endpoints")
            deltas.append((a, b, k))
            if s != 1:
                coeff = coeff.scale(s)
        smooth = []
        for (family, k, i, j) in self.smooth:
            a, b, s = orient(mapping.get(i, i), mapping.get(j, j), k)
            smooth.append((family, k, a, b))
            if s != 1:
                coeff = coeff.scale(s)
        exps = tuple(sorted((mapping.get(p, p), c) for (p, c) in self.exps))
        dmarks = tuple(sorted(mapping.get(t, t) for t in self.dmarks))
        return Term(coeff, tuple(sorted(deltas)), tuple(sorted(smooth)), exps, dmarks)


@dataclass
class Expression:
    """A sum of terms over a fixed index set with per-index radii.

    ``realization`` fixes the sign conventions of the exponential factor
    ("K" or "A"); it may be None for expressions without exponentials.
    ``radii`` maps index -> radius; absent indices are on the circle.
    """

    terms: List[Term] = field(default_factory=list)
    realization: Optional[str] = None
    radii: Dict[int, object] = field(default_factory=dict)

    def radius(self, idx: int):
        return self.radii.get(idx, 1)

    def off_circle(self) -> frozenset:
        """The indices inside the disc (radius != 1)."""
        return frozenset(i for i, r in self.radii.items() if r != 1)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Expression") -> "Expression":
        if self.realization and other.realization and self.realization != other.realization:
            raise ValueError("cannot add expressions from different realizations")
        radii = dict(self.radii)
        for k, v in other.radii.items():
            if k in radii and radii[k] != v:
                raise ValueError(f"inconsistent radius for index {k}")
            radii[k] = v
        return Expression(self.terms + other.terms,
                          self.realization or other.realization, radii)

    def __sub__(self, other: "Expression") -> "Expression":
        return self + other.scale(-1)

    def scale(self, re=1, im=0) -> "Expression":
        return Expression([t._replace(coeff=t.coeff.scale(re, im)) for t in self.terms],
                          self.realization, dict(self.radii))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        def rat(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

        terms = []
        for t in self.terms:
            coeff = [[list(m[:3]), [list(x) for x in m[3]], rat(re), rat(im)]
                     for m, (re, im) in sorted(t.coeff.parts().items())]
            terms.append({
                "coeff": coeff,
                "deltas": [list(x) for x in t.deltas],
                "smooth": [list(x) for x in t.smooth],
                "exps": [list(x) for x in t.exps],
                "dmarks": list(t.dmarks),
            })
        radii = {str(k): (rat(Fraction(v)) if not isinstance(v, float) else v)
                 for k, v in self.radii.items()}
        return json.dumps({"realization": self.realization, "radii": radii,
                           "terms": terms}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Expression":
        """Read what :meth:`to_json` writes.  A coefficient part that is zero
        or a monomial listed twice in one coefficient raises ``ValueError``."""
        data = json.loads(text)
        terms = []
        for t in data["terms"]:
            d = {}
            for base, mus, re, im in t["coeff"]:
                mono = (base[0], base[1], base[2], tuple((int(k), int(e)) for k, e in mus))
                part = _part(re, im)
                if part is None:
                    raise ValueError(f"coefficient part of monomial {mono} is zero")
                if mono in d:
                    raise ValueError(f"monomial {mono} appears twice in one coefficient")
                d[mono] = part
            terms.append(Term(
                Coeff(d),
                tuple(tuple(x) for x in t["deltas"]),
                tuple((str(f), k, i, j) for f, k, i, j in t["smooth"]),
                tuple(tuple(x) for x in t["exps"]),
                tuple(t["dmarks"]),
            ))
        radii = {int(k): (Fraction(v) if isinstance(v, str) else v)
                 for k, v in data["radii"].items()}
        return cls(terms, data["realization"], radii)

    def __repr__(self):
        return f"Expression({len(self.terms)} terms, realization={self.realization})"


def conjugate(expr: Expression) -> Expression:
    """Complex conjugation.  All structural factors are real-valued, so only
    the coefficients conjugate; index roles are untouched (word reversal is
    a separate relabeling done by the caller)."""
    return Expression([t._replace(coeff=t.coeff.conj()) for t in expr.terms],
                      expr.realization, dict(expr.radii))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def d_du(term: Term, idx: int, realization: Optional[str]) -> List[Term]:
    """d/du_idx of a term, as a list of terms (product rule).

    Exponential factors differentiate into kernel-derivative emissions
    against every other charge; the constant self-energies do not
    contribute.  Pending derivative markers are inert (derivatives
    commute)."""
    out: List[Term] = []

    for n, (i, j, k) in enumerate(term.deltas):
        if idx == i or idx == j:
            s = 1 if idx == i else -1
            deltas = term.deltas[:n] + ((i, j, k + 1),) + term.deltas[n + 1:]
            out.append(term._replace(coeff=term.coeff.scale(s), deltas=tuple(sorted(deltas))))

    for n, (family, k, i, j) in enumerate(term.smooth):
        if i != j and idx in (i, j):  # a factor with i == j is a constant
            s = 1 if idx == i else -1
            smooth = term.smooth[:n] + ((family, k + 1, i, j),) + term.smooth[n + 1:]
            out.append(term._replace(coeff=term.coeff.scale(s), smooth=tuple(sorted(smooth))))

    if any(p == idx for p, _ in term.exps):
        family, sign = gaussian_rule(realization)
        for (pe, ce) in term.exps:
            if pe != idx:
                continue
            for (ps, cs) in term.exps:
                if ps == idx:
                    continue  # same-point cross term is angle-independent
                a, b, flip = orient(idx, ps, 1)
                coeff = term.coeff.scale(sign * ce * cs * flip)
                smooth = tuple(sorted(term.smooth + ((family, 1, a, b),)))
                out.append(term._replace(coeff=coeff, smooth=smooth))

    return out


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


class UnionFind:
    """Disjoint sets of indices; the smallest index of a set is its root:
    ``union`` links the larger root under the smaller one."""

    def __init__(self):
        self.p: Dict[int, int] = {}   # non-root index -> its parent

    def find(self, x: int) -> int:
        p = self.p
        while x in p:
            x = p[x]
        return x

    def union(self, a: int, b: int) -> Optional[int]:
        """Join the sets of a and b and return the root absorbed, or None if
        they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if ra > rb:
            ra, rb = rb, ra
        self.p[rb] = ra
        return rb


def detect_singular(expr: Expression) -> List[int]:
    """The indices of the terms whose on-circle deltas do not form a forest
    (a repeated pair or a cycle: delta^2-type divergences), by the rule of
    :func:`_delta_forest`.  An empty list means every term is a
    well-defined distribution."""
    off = expr.off_circle()
    return [n for n, t in enumerate(expr.terms) if _delta_forest(t, off) is None]


def canonicalize(expr: Expression) -> Expression:
    """Rewrite to canonical form.  A term that stays divergent on the circle
    raises (see :func:`_rewrite`).

    Each rewrite multiplies the coefficient by an integer, so what a term
    rewrites to depends on its structure (``Term.key()``) alone, with
    coefficients linear in its own: the worklist holds one entry per
    structure, level by level, and each entry is rewritten once with the sum
    of the coefficients that reached it.  A term that enters with a zero
    coefficient is dropped; a sum that cancels is still rewritten, so that
    it raises the errors each of its terms would raise.

    One pass is all it takes: every term emitted comes from the finished
    branch of :func:`_rewrite`, where no rule applies, and merging equal
    structures only adds coefficients, so the result is a fixed point."""
    off, realization = expr.off_circle(), expr.realization
    out: List[Term] = []
    level: Dict[tuple, list] = {}
    for t in expr.terms:
        if not t.coeff.is_zero:
            _gather(level, t)
    while level:
        nxt: Dict[tuple, list] = {}
        for t, coeff in level.values():
            if coeff is not t.coeff:
                t = t._replace(coeff=coeff)
            done, successors = _rewrite(t, off, realization)
            if done is not None:
                out.append(done)
            for s in successors:
                _gather(nxt, s)
        level = nxt
    # merge identical structures
    merged: Dict[tuple, list] = {}
    for t in out:
        _gather(merged, t)
    terms = [t._replace(coeff=coeff) for _k, (t, coeff) in sorted(merged.items())
             if not coeff.is_zero]
    return Expression(terms, realization, dict(expr.radii))


def _gather(level: Dict[tuple, list], t: Term) -> None:
    """Add t's coefficient to the entry [term, coefficient sum] of its
    structure."""
    k = t.key()
    entry = level.get(k)
    if entry is None:
        level[k] = [t, t.coeff]
    else:
        entry[1] = entry[1] + t.coeff


def _rewrite(t: Term, off: frozenset, realization) -> Tuple[Optional[Term], List[Term]]:
    """One rewrite step of a term whose indices in ``off`` are inside the
    disc: (finished term, []) when no rule applies, else (None, successors).

    After pending derivatives, the K charge balance and the merging of
    exponential charges, one rule is left.  The on-circle deltas form a
    forest (:func:`_delta_forest`; anything else is a delta-square
    pattern), and the first node in its order that carries content besides
    its edge to the tree parent moves that content onto the parent
    (:func:`_move_leaf`).  The node order is deepest first, so a node's
    children have moved before it does, and the content of each tree ends
    on its root, the smallest index, with every other node a bare leaf of
    the root: the star form.  A term returned as finished is one where no
    node carries content, so rewriting it again finishes it unchanged.

    This is the one place where divergence is decided: a delta-square
    pattern raises :class:`SingularProduct`; an odd self factor (i == j) is
    exactly zero and drops the term; a wavy or dotted self factor on the
    circle raises :class:`StructuralViolation`, whatever deltas closed it."""
    # expand pending derivative markers
    if t.dmarks:
        return None, d_du(t._replace(dmarks=t.dmarks[1:]), t.dmarks[0], realization)
    if t.exps and charge_vanishes(realization, (c for _, c in t.exps)):
        return None, []
    forest = _delta_forest(t, off)
    if forest is None:
        raise SingularProduct(
            "delta-square pattern outside a loop-renormalization context: "
            f"{t.deltas}")
    t = _orient_charges(_merge_exps(t))
    if any(i == j and k % 2 == 1 for (_f, k, i, j) in t.smooth):
        return None, []
    for (family, _k, i, j) in t.smooth:
        if i == j and family in ("wavy", "D") and i not in off:
            raise StructuralViolation(f"{family} factor closed onto on-circle point {i}")
    for x, edge in forest:
        if _tokens_at(t, x, skip_delta=edge):
            return None, _move_leaf(t, x, edge, realization)
    return t.sorted(), []


def _delta_forest(t: Term, off: frozenset) -> Optional[List[Tuple[int, Tuple[int, int, int]]]]:
    """The graph of the on-circle delta factors (both ends outside ``off``)
    as BFS trees from the smallest index of each component: (node, delta to
    its parent) for every non-root node, components in the order of their
    roots, within a component deepest first and ties by the larger index.
    None when the graph is not a forest (a repeated pair or a cycle:
    delta^2-type)."""
    adj: Dict[int, List[Tuple[int, Tuple[int, int, int]]]] = {}
    edges = 0
    for tok in t.deltas:
        (i, j, _k) = tok
        if i not in off and j not in off:
            adj.setdefault(i, []).append((j, tok))
            adj.setdefault(j, []).append((i, tok))
            edges += 1
    order: List[Tuple[int, Tuple[int, int, int]]] = []
    seen = set()
    roots = 0
    # in sorted order the first unseen node is its component's minimum
    for root in sorted(adj):
        if root in seen:
            continue
        roots += 1
        seen.add(root)
        tree: List[Tuple[int, int, Tuple[int, int, int]]] = []  # (depth, node, edge)
        frontier = [root]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                for (w, tok) in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        tree.append((depth, w, tok))
                        nxt.append(w)
            frontier = nxt
        tree.sort(reverse=True)
        order.extend((w, tok) for (_d, w, tok) in tree)
    if edges != len(adj) - roots:
        return None
    return order


def _merge_exps(t: Term) -> Term:
    """Merge exponential charges at equal positions; drop zero charges.
    Exact: exponentials of the same field at the same point multiply by
    adding charges."""
    if not t.exps:
        return t
    acc: Dict[int, int] = {}
    for pos, c in t.exps:
        acc[pos] = acc.get(pos, 0) + c
    exps = tuple(sorted((pos, c) for pos, c in acc.items() if c != 0))
    if exps == t.exps:
        return t
    return t._replace(exps=exps)


def _orient_charges(t: Term) -> Term:
    """Fix the overall sign convention of the exponential charges.  The
    Gaussian weight is quadratic in the charge vector, so negating every
    charge at once leaves the value untouched in both realizations; we pick
    the representative whose lowest occupied position carries a positive
    charge, which lets conjugate-reversed terms merge."""
    if t.exps and t.exps[0][1] < 0:
        return t._replace(exps=tuple(sorted((pos, -c) for pos, c in t.exps)))
    return t


def _tokens_at(t: Term, x: int, skip_delta: Tuple[int, int, int]) -> bool:
    """Whether any factor other than ``skip_delta`` references index x."""
    for tok in t.deltas:
        if tok != skip_delta and x in (tok[0], tok[1]):
            return True
    return (any(x in (i, j) for (_f, _k, i, j) in t.smooth)
            or any(p == x for p, _ in t.exps))


def _move_leaf(term: Term, x: int, edge: Tuple[int, int, int], realization) -> List[Term]:
    """Move every factor at x onto the other end p of the delta ``edge``.
    A plain delta moves it by support relabeling, f(u_x) delta(u_p - u_x) =
    f(u_p) delta(u_p - u_x); a derivative delta by the Leibniz exchange
    G(v) d^k delta(u-v) = sum_l C(k,l) G^(l)(u) d^(k-l) delta(u-v) (with an
    extra (-1)^l when G sits at the derivative endpoint u)."""
    (i, j, k) = edge
    p = j if x == i else i
    base = term._replace(deltas=tuple(tok for tok in term.deltas if tok != edge))
    mapping = {x: p}
    deriv_end = x == i
    out: List[Term] = []
    layer: List[Term] = [base]
    for l in range(0, k + 1):
        c = math.comb(k, l) * ((-1) ** l if deriv_end else 1)
        for tt in layer:
            moved = (tt if c == 1 else tt._replace(coeff=tt.coeff.scale(c))).relabel(mapping)
            residual = (i, j, k - l)
            out.append(moved._replace(deltas=tuple(sorted(moved.deltas + (residual,)))))
        if l < k:
            layer = [t2 for tt in layer for t2 in d_du(tt, x, realization)]
            if not layer:
                break
    return out


# ---------------------------------------------------------------------------
# numeric evaluation and smearing
# ---------------------------------------------------------------------------


def _modes_conv(a: Dict[int, complex], b: Dict[int, complex]) -> Dict[int, complex]:
    out: Dict[int, complex] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _modes_deriv(f: Dict[int, complex], k: int) -> Dict[int, complex]:
    if k == 0:
        return dict(f)
    return {m: c * (1j * m) ** k for m, c in f.items() if m != 0}


def smear(expr: Expression, tests: Dict[int, Dict[int, complex]], seq: XiSequence,
          *, kappa=1.0, p=0.0, trunc: int = 32, grid: int = 48) -> complex:
    """Pair the expression against a tensor product of Fourier-polynomial
    test functions (one mode dict per index, normalized pairing
    integral du/(2 pi) per variable).

    The expression is canonicalized first (divergent terms raise).  On-circle
    delta stars turn into derivative products of the member tests attached
    to the root; whatever analytic structure remains is integrated on a
    periodic trapezoid grid of ``grid`` points per variable (spectrally
    accurate), with kernels evaluated by their mode sums truncated at
    ``trunc``.  Scalar parameters substitute numerically.

    Cost: every remaining factor depends on one or two variables, so each
    term is one ``einsum`` contraction of a ``grid``-vector per variable with
    a ``grid x grid`` matrix per coupled pair; memory is O(pairs * grid^2)
    rather than the O(grid^m) of a dense grid over m variables.  Pair
    matrices and coincident-point constants are computed once per call.
    Raises ``ValueError`` for ``grid < 1`` or ``trunc < 0``.  numpy is
    imported here and in :func:`_grid_integral`, so the symbolic layers
    never load it.
    """
    import numpy as np

    if grid < 1 or trunc < 0:
        raise ValueError(f"smear needs grid >= 1 and trunc >= 0, "
                         f"got grid={grid}, trunc={trunc}")
    e = canonicalize(expr)
    off = e.off_circle()
    missing = set()
    for t in e.terms:
        missing |= t.indices() - set(tests)
    if missing:
        raise ValueError(f"no test function for indices {sorted(missing)}")

    theta = 2.0 * np.pi * np.arange(grid) / grid
    memo: Dict[tuple, object] = {}

    def series(family: str, k: int, i: int, j: int):
        """mode_series of a factor on (i, j): a constant at coincident
        points (x = y = r^2), else the grid x grid matrix over (u_i, u_j)."""
        key = (family, k, i, j)
        if key not in memo:
            if i == j:
                x = y = float(e.radius(i)) ** 2
            else:
                rr = float(e.radius(i)) * float(e.radius(j))
                x = rr * np.exp(1j * np.subtract.outer(theta, theta))
                y = np.conj(x)
            memo[key] = mode_series(x, y, k, family, seq, trunc)
        return memo[key]

    total = 0.0 + 0.0j
    for t in e.terms:
        if t.dmarks:
            raise AssertionError("derivative markers must be expanded by canonicalize")
        scalar = t.coeff.subs_numeric(kappa=kappa, p=p, xi0=float(seq.xi0))
        if scalar == 0:
            continue
        # split deltas into on-circle stars and analytic (inside-disc) ones
        members: Dict[int, Tuple[int, int]] = {}
        analytic_deltas = []
        for (i, j, k) in t.deltas:
            if i not in off and j not in off:
                if j in members:
                    raise AssertionError("canonical form should be a star")
                members[j] = (i, k)
            else:
                analytic_deltas.append((i, j, k))
        # combined test at each remaining variable
        g: Dict[int, Dict[int, complex]] = {}
        for idx, f in tests.items():
            if idx in members:
                continue
            g[idx] = {m: complex(c) for m, c in f.items()}
        for x, (root, k) in members.items():
            g[root] = _modes_conv(g[root], _modes_deriv(tests[x], k))

        # collect analytic factors over the remaining variables; a factor at
        # coincident points is the angle-independent series at x = y = r^2
        factors = [("delta", k, i, j) for (i, j, k) in analytic_deltas]
        const = 1.0 + 0.0j
        for (family, k, i, j) in t.smooth:
            if i == j:
                const *= series(family, k, i, j)
            else:
                factors.append((family, k, i, j))
        if const == 0:
            continue

        variables = sorted(g)
        if not factors and not t.exps:
            # pure delta/constant term: exact mode-0 extraction per variable
            val = const
            for v in variables:
                val *= g[v].get(0, 0)
            total += scalar * val
            continue

        total += scalar * const * _grid_integral(e.realization, t.exps, g, factors,
                                                 variables, series, theta)
    return total


def _grid_integral(realization, exps, g, factors, variables, series, theta) -> complex:
    """Grid mean of the test vectors of ``variables`` times every pair
    factor times exp(+-[sum_a q_a^2 N(r_a^2)/2 + sum_{a<b} q_a q_b N(w_ab)]):
    one scalar, one matrix per pair, one einsum."""
    import numpy as np

    pairs: Dict[Tuple[int, int], "np.ndarray"] = {}
    for (family, k, i, j) in factors:
        pairs[i, j] = pairs.get((i, j), 1.0) * series(family, k, i, j)
    scale = 1.0 + 0.0j
    if exps:
        family, sign = gaussian_rule(realization)
        for a, (pa, qa) in enumerate(exps):
            scale *= np.exp(sign * 0.5 * qa * qa * series(family, 0, pa, pa))
            for pb, qb in exps[a + 1:]:
                pair = np.exp(sign * qa * qb * series(family, 0, pa, pb))
                pairs[pa, pb] = pairs.get((pa, pb), 1.0) * pair
    axis = {v: a for a, v in enumerate(variables)}
    operands = []
    for v in variables:
        fv = sum((c * np.exp(1j * mode * theta) for mode, c in g[v].items()),
                 np.zeros(len(theta), dtype=complex))
        operands += [fv, [axis[v]]]
    for (i, j), mat in pairs.items():
        operands += [mat, [axis[i], axis[j]]]
    mean = np.einsum(*operands, [], optimize="greedy") / len(theta) ** len(variables)
    return scale * complex(mean)
