"""Renormalization schemes for diagram sums.

A correlator's diagram expansion contains closed cycles of plain delta
edges; on the circle such a cycle is a delta-squared object and has no
distributional meaning.  Every cycle of length k is replaced by the loop
scale mu_k times the open chain over the same insertions -- one delta
fewer -- uniformly at all radii.  The scale stays a symbol (a mu_k monomial
of the coefficient) through canonicalization, so a word is enumerated,
renormalized and canonicalized once per sector and dotted rule; a scheme
only substitutes its numbers at the end:

* drop-loops sets every mu_k = 0, which keeps only tree diagrams;
* a mu-family assigns its scales (explicit entries, else the default);
* the unitary dotted scheme is a mu-family plus the side-balance filter
  on dotted edges: a dotted contraction survives only when the insertions
  solid-connected to an end of the dotted line carry as many plus as minus
  exponential charges.

The filter side is ambiguous in the underlying construction (only "one
side" is specified); both ends are required to balance by default, and
``dotted_rule="either-side"`` switches to the laxer reading.  The choice
is logged once per evaluation.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import CURRENT_CHARGE, SectorConfig
from .diagrams import Diagram, diagram_weight, enumerate_diagrams
from .distributions import Coeff, Expression, Term, UnionFind, canonicalize, charge_vanishes
from .errors import MissingMu, StructuralViolation
from .kernels import _as_fraction

logger = logging.getLogger(__name__)

_POLICIES = ("drop-loops", "mu", "unitary-dotted")
_RULES = ("both-sides", "either-side")


@dataclass(frozen=True)
class RenormScheme:
    """A loop-renormalization policy over a fixed sector."""

    policy: str
    sector: SectorConfig
    mu: Tuple[Tuple[int, Fraction], ...] = ()
    default: Optional[Fraction] = None
    dotted_rule: str = "both-sides"

    def __post_init__(self):
        if self.policy not in _POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.dotted_rule not in _RULES:
            raise ValueError(f"unknown dotted rule {self.dotted_rule!r}")
        if self.policy == "unitary-dotted" and not self.sector.unitary:
            raise ValueError("the dotted scheme needs the unitary sector")
        for k, _v in self.mu:
            if k < 2:
                raise ValueError("loop scales start at length 2")

    @classmethod
    def drop_loops(cls, sector: SectorConfig) -> "RenormScheme":
        return cls("drop-loops", sector)

    @classmethod
    def mu_family(cls, sector: SectorConfig, entries: Optional[Dict[int, object]] = None,
                  default: Optional[object] = None) -> "RenormScheme":
        mu = tuple(sorted((int(k), _as_fraction(v, f"mu_{k}"))
                          for k, v in (entries or {}).items()))
        return cls("mu", sector, mu,
                   None if default is None else _as_fraction(default, "default"))

    @classmethod
    def unitary_dotted(cls, sector: SectorConfig,
                       entries: Optional[Dict[int, object]] = None,
                       default: Optional[object] = None,
                       dotted_rule: str = "both-sides") -> "RenormScheme":
        return replace(cls.mu_family(sector, entries, default),
                       policy="unitary-dotted", dotted_rule=dotted_rule)

    def mu_value(self, k: int) -> Fraction:
        """The value of the loop scale mu_k: 0 under drop-loops, else the
        entry for k or the default."""
        v = Fraction(0) if self.policy == "drop-loops" else dict(self.mu).get(k, self.default)
        if v is None:
            raise MissingMu(f"no scale assigned to loops of length {k}")
        return v


@dataclass(frozen=True)
class CurrentWord:
    """An ordered product of currents with one radius per insertion."""

    names: Tuple[str, ...]
    radii: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.names) != len(self.radii):
            raise ValueError("one radius per insertion")
        for r in self.radii:
            if not (0 < r <= 1):
                raise ValueError("radii must lie in (0, 1]")

    @classmethod
    def from_names(cls, names: Sequence[str], radius=1) -> "CurrentWord":
        names = tuple(names)
        radii = radius if isinstance(radius, (list, tuple)) else (radius,) * len(names)
        return cls(names, tuple(_as_fraction(r, "radius") for r in radii))


# ---------------------------------------------------------------------------
# loop substitution
# ---------------------------------------------------------------------------


def renormalize_loop(vertices: Sequence[int], k: int) -> Tuple[Coeff, Tuple]:
    """The replacement of a closed k-cycle over the given insertions: the
    loop-scale symbol mu_k together with the open delta chain (one factor
    fewer)."""
    verts = sorted(vertices)
    if len(verts) < 2:
        raise StructuralViolation("a loop has at least two insertions")
    chain = tuple((verts[n], verts[n + 1], 0) for n in range(len(verts) - 1))
    return Coeff.unit(mu={k: 1}), chain


def renormalize_diagram(diagram: Diagram, cfg: SectorConfig) -> List[Term]:
    """Weight terms of one diagram with every delta cycle of
    ``diagram.loops`` substituted."""
    if not diagram.loops:
        return diagram_weight(diagram, cfg)
    factor = Coeff.unit()
    removed: List[Tuple[int, int, int]] = []
    chain: List[Tuple[int, int, int]] = []
    for pairs in diagram.loops:
        mu_c, chain_c = renormalize_loop(sorted(set().union(*pairs)), len(pairs))
        factor = factor * mu_c
        chain.extend(chain_c)
        removed.extend((i, j, 0) for (i, j) in pairs)
    out = []
    for t in diagram_weight(diagram, cfg):
        deltas = list(t.deltas)
        for tok in removed:
            deltas.remove(tok)
        out.append(t._replace(coeff=t.coeff * factor, deltas=tuple(sorted(deltas + chain))))
    return out


# ---------------------------------------------------------------------------
# dotted filter
# ---------------------------------------------------------------------------


def dotted_filter(diagram: Diagram, rule: str = "both-sides") -> bool:
    """Keep or drop a diagram according to the charge balance around its
    dotted edges.  A side of a dotted edge is everything solid-connected
    to that end; it must carry equally many +1 and -1 exponential charges."""
    dotted = [e for e in diagram.edges if e.kind == "dot"]
    if not dotted:
        return True
    uf = UnionFind()
    for e in diagram.edges:
        if e.kind != "dot":
            uf.union(e.source, e.target)
    side_sum: Dict[int, int] = {}
    for ch in diagram.choices:
        root = uf.find(ch.position)
        side_sum[root] = side_sum.get(root, 0) + (ch.charge or 0)

    for e in dotted:
        bal_src = side_sum[uf.find(e.source)] == 0
        bal_dst = side_sum[uf.find(e.target)] == 0
        keep = (bal_src and bal_dst) if rule == "both-sides" else (bal_src or bal_dst)
        if not keep:
            return False
    return True


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


class _ReadOnlyTerms(list):
    """The term list of a cached correlator.  It refuses every change, so no
    caller can alter what later callers get, and still compares equal to a
    plain list of the same terms."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("the terms of a cached correlator are read-only")

    append = extend = insert = remove = pop = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse


@functools.lru_cache(maxsize=1024)
def symbolic_correlator(word: CurrentWord, cfg: SectorConfig,
                        rule: Optional[str]) -> Expression:
    """Renormalized correlator of a current word with every loop scale left
    as the symbol mu_k: enumerate contractions, filter dotted edges (when a
    dotted ``rule`` is given), substitute loops, canonicalize.  Cached per
    (word, sector, rule), at most 1024 of them; the term list, the radii and
    every coefficient's monomial map are read-only."""
    radii = {i: r for i, r in enumerate(word.radii) if r != 1}
    if rule is not None:
        logger.info("dotted filter active, rule=%s", rule)
    terms: List[Term] = []
    if charge_vanishes(cfg.realization, (CURRENT_CHARGE.get(nm, 0) for nm in word.names)):
        logger.debug("word %s vanishes by charge balance", word.names)
    else:
        for d in enumerate_diagrams(word.names, cfg):
            if rule is None or dotted_filter(d, rule):
                terms.extend(renormalize_diagram(d, cfg))
    expr = canonicalize(Expression(terms, cfg.realization, radii))
    terms = [t._replace(coeff=Coeff(MappingProxyType(dict(t.coeff.d)))) for t in expr.terms]
    return Expression(_ReadOnlyTerms(terms), cfg.realization, MappingProxyType(expr.radii))


@functools.lru_cache(maxsize=4096)
def evaluate_correlator(word: CurrentWord, scheme: RenormScheme) -> Expression:
    """Renormalized correlator of a current word under a scheme: the
    symbolic correlator of the word, sector and dotted rule with the
    scheme's loop scales substituted, and the terms that vanish dropped.
    Raises :class:`MissingMu` for a scale that survives canonicalization
    and has no value.  Results are cached per (word, scheme), at most 4096
    of them, and read-only."""
    rule = scheme.dotted_rule if scheme.policy == "unitary-dotted" else None
    sym = symbolic_correlator(word, scheme.sector, rule)
    terms = []
    for t in sym.terms:
        coeff = t.coeff.subs_mu(scheme.mu_value)
        if coeff is t.coeff:
            terms.append(t)
        elif not coeff.is_zero:
            terms.append(t._replace(coeff=Coeff(MappingProxyType(coeff.d))))
    return Expression(_ReadOnlyTerms(terms), sym.realization, sym.radii)
