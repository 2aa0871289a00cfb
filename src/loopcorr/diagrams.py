"""Contraction-diagram enumeration and weights for current correlators.

A word of composite currents is expanded vertex by vertex: every insertion
picks one summand of its current (a b-stub term, an a-stub term, a derivative
term, a Heisenberg term, or -- for the neutral currents -- a bare a/b stub or
the consuming quadratic terminal).  The a/b letters are then contracted:

* an a-stub must hit something strictly to its right, a b-stub strictly to
  its left (otherwise the letter reaches the vacuum and the diagram dies);
* hitting an exponential leaves it in place and emits a plain delta edge;
* hitting a terminal consumes it and emits a delta' edge (at most one hit);
* in the unitary sector an a-stub may annihilate a later b-stub, emitting a
  dotted edge (the inverse-sequence pairing D, plus the zero-mode constant
  1/(2 xi0) in the A realization).

Heisenberg insertions pair among themselves in word order or stay unpaired
(a factor of the momentum p); every pair is the wavy kernel plus a delta'
counterterm.  Unconsumed terminals pair by Isserlis' theorem through the
second kernel derivative, or radiate against one exponential charge through
the first.  Derivative terms are carried as pending d/du marks on the final
token product, expanded during canonicalization.

All edge coefficients are taken from :func:`loopcorr.algebra.primitive_commutator`
so the sign conventions live in exactly one place.
"""

from __future__ import annotations

import functools
import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .algebra import (CURRENT_CHARGE, EXP_CHARGE, HALF, SectorConfig, expand_current,
                      primitive_commutator)
from .distributions import Coeff, Expression, Term, charge_vanishes, gaussian_rule, orient
from .errors import StructuralViolation

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# vertex structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexChoice:
    """One summand of a current at a fixed insertion slot."""

    position: int
    current: str
    coeff: Coeff
    charge: Optional[int] = None   # exponential charge; None = no exponential
    stub: Optional[str] = None     # "a" | "b" | None
    terminal: bool = False
    rho: bool = False
    deriv: bool = False            # exponential carries an angle derivative


class Edge(NamedTuple):
    kind: str     # "a" | "b" | "dot"
    source: int
    target: int
    into: str     # "exp" | "terminal" | "stub"


# a closed cycle of plain delta edges, as :func:`loop_components` gives it
Cycle = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Diagram:
    word: Tuple[str, ...]
    choices: Tuple[VertexChoice, ...]
    edges: Tuple[Edge, ...]
    loops: Tuple[Cycle, ...]   # the loop_components of the edges
    rho_pairs: Tuple[Tuple[int, int], ...] = ()
    rho_singles: Tuple[int, ...] = ()


_EXP_LETTERS = {"alpha+", "alpha-", "e+", "e-"}
_DERIV_LETTERS = {"dalpha+": "alpha+", "dalpha-": "alpha-",
                  "de+": "e+", "de-": "e-"}
_TERMINALS = {"alpha-dalpha+", "e-de+"}

_HALF = Coeff.complex_rat(HALF)


def vertex_choices(name: str, position: int, cfg: SectorConfig) -> Tuple[VertexChoice, ...]:
    """The summands of a current as structural vertex choices.  The h letter
    splits into its a and b halves here."""
    out: List[VertexChoice] = []
    for term in expand_current(name, position, cfg):
        coeff, letters = term.coeff, term.symbols
        if letters == ("h",):
            half = coeff * _HALF
            out.append(VertexChoice(position, name, half, stub="a"))
            out.append(VertexChoice(position, name, half, stub="b"))
        elif len(letters) == 1 and letters[0] in _TERMINALS:
            out.append(VertexChoice(position, name, coeff, terminal=True))
        elif len(letters) == 1 and letters[0] in _DERIV_LETTERS:
            base = _DERIV_LETTERS[letters[0]]
            out.append(VertexChoice(position, name, coeff,
                                    charge=EXP_CHARGE[base], deriv=True))
        elif len(letters) == 2 and letters[0] == "b" and letters[1] in _EXP_LETTERS:
            out.append(VertexChoice(position, name, coeff,
                                    charge=EXP_CHARGE[letters[1]], stub="b"))
        elif len(letters) == 2 and letters[1] == "a" and letters[0] in _EXP_LETTERS:
            out.append(VertexChoice(position, name, coeff,
                                    charge=EXP_CHARGE[letters[0]], stub="a"))
        elif len(letters) == 2 and letters[0] == "rho" and letters[1] in _EXP_LETTERS:
            out.append(VertexChoice(position, name, coeff,
                                    charge=EXP_CHARGE[letters[1]], rho=True))
        else:
            raise StructuralViolation(f"unclassifiable current term {letters}")
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _resolve_stubs(choices: Sequence[VertexChoice], cfg: SectorConfig
                   ) -> Iterator[Tuple[Tuple[Edge, ...], Tuple[Cycle, ...]]]:
    """All complete stub resolutions for a fixed choice of vertex terms, each
    with its loops: the :func:`loop_components` of its edges.  Lazy: the
    resolutions are searched for as they are asked for.

    Each stub's alternatives are built once, in the order of its targets
    (nearest first): a plain edge into an exponential, a delta' edge into a
    terminal and, in the unitary sector, a dotted edge from an a-stub into a
    later b-stub.  A stub with no alternative kills the combo at once unless
    an earlier a-stub could consume it, which only a b-stub in the unitary
    sector allows.  The search keeps one stack frame per placed stub: the
    stub, its next alternative and the loops before its edge.

    The loops change only when a plain edge closes a cycle, and only then
    does :func:`loop_components` run, on the edges placed so far with that
    edge last; any other edge hangs a tree onto a component and leaves every
    cycle as it was.  When a plain edge s -> t is placed, s has no successor
    yet, so the edge closes a cycle exactly when the successor walk from t
    reaches s.  The walk takes at most as many steps as there are plain
    edges, so a walk that enters an earlier cycle stops."""
    n = len(choices)
    unitary = cfg.unitary
    stubs: List[int] = []
    alternatives: List[List[Tuple[str, int, Edge]]] = []
    for s, ch in enumerate(choices):
        stub = ch.stub
        if stub is None:
            continue
        options = []
        for t in (range(s + 1, n) if stub == "a" else range(s - 1, -1, -1)):
            tc = choices[t]
            if tc.charge is not None:
                options.append(("exp", t, Edge(stub, s, t, "exp")))
            if tc.terminal:
                options.append(("terminal", t, Edge(stub, s, t, "terminal")))
            if unitary and stub == "a" and tc.stub == "b":
                options.append(("dot", t, Edge("dot", s, t, "stub")))
        if not options and (stub == "a" or not unitary):
            return
        stubs.append(s)
        alternatives.append(options)

    m = len(stubs)
    succ: Dict[int, int] = {}   # the plain edges placed so far, source -> target
    hits: Set[int] = set()      # the terminals hit so far
    consumed: Set[int] = set()  # the b-stubs a dotted edge has annihilated
    edges: List[Edge] = []
    loops: Tuple[Cycle, ...] = ()
    frames: List[Tuple[int, int, Tuple[Cycle, ...]]] = []
    k = i = 0   # the stub to place next, and its next alternative
    while True:
        while k < m:
            if stubs[k] in consumed:
                k += 1
                continue
            options = alternatives[k]
            while i < len(options):
                kind, t, edge = options[i]
                i += 1
                if not ((kind == "terminal" and t in hits) or (kind == "dot" and t in consumed)):
                    break
            else:
                break   # stub k has no alternative left
            frames.append((k, i, loops))
            edges.append(edge)
            if kind == "exp":
                s, v = stubs[k], t
                for _ in range(len(succ)):   # the successor walk from t
                    if v == s or v not in succ:
                        break
                    v = succ[v]
                if v == s:
                    loops = loop_components(edges)
                succ[s] = t
            elif kind == "terminal":
                hits.add(t)
            else:
                consumed.add(t)
            k, i = k + 1, 0
        else:
            yield tuple(edges), loops
        # take back the last edge placed and try its stub's next alternative
        if not frames:
            return
        k, i, loops = frames.pop()
        edge = edges.pop()
        if edge.into == "exp":
            del succ[edge.source]
        elif edge.into == "terminal":
            hits.discard(edge.target)
        else:
            consumed.discard(edge.target)


def _rho_matchings(positions: Sequence[int]
                   ) -> Iterator[Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]]:
    if not positions:
        yield (), ()
        return
    first, rest = positions[0], list(positions[1:])
    for pairs, singles in _rho_matchings(rest):
        yield pairs, (first,) + singles
    for k in range(len(rest)):
        partner = rest[k]
        remaining = rest[:k] + rest[k + 1:]
        for pairs, singles in _rho_matchings(remaining):
            yield ((first, partner),) + pairs, singles


def enumerate_diagrams(word: Sequence[str], cfg: SectorConfig) -> Iterator[Diagram]:
    """All contraction diagrams of a current word, each with its loops."""
    word = tuple(word)
    per_vertex = [vertex_choices(nm, k, cfg) for k, nm in enumerate(word)]
    for combo in itertools.product(*per_vertex):
        rho_pos = [c.position for c in combo if c.rho]
        for edges, loops in _resolve_stubs(combo, cfg):
            for pairs, singles in _rho_matchings(rho_pos):
                yield Diagram(word, combo, edges, loops, pairs, singles)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


# constants of the weight layer, built once
_ONE = Coeff.one()
_KAPPA = Coeff.unit(kappa=1)
# the delta' counterterm of a wavy pair: -i kappa in K, +i kappa in A
_COUNTERTERM = {"K": Coeff.unit(kappa=1, re=0, im=-1), "A": Coeff.unit(kappa=1, re=0, im=1)}

# The two tables below are keyed by data bounded by the word length and the
# sector (an edge with its target's charge; the unhit terminals and charges
# of a diagram).  Sixteen 5-insertion words in K and A fill under 300 keys.


@functools.lru_cache(maxsize=4096)
def _edge_parts(edge: Edge, charge: Optional[int], cfg: SectorConfig
                ) -> Tuple[Tuple[Coeff, Tuple, Tuple], ...]:
    """(coeff, delta tokens, smooth tokens) alternatives for one edge into
    a target of exponential ``charge``: the primitive commutator of the
    edge's stub with its target letter."""
    if edge.into == "exp":
        letter = {("K", 1): "alpha+", ("K", -1): "alpha-",
                  ("A", 1): "e+", ("A", -1): "e-"}[(cfg.realization, charge)]
    elif edge.into == "terminal":
        letter = "alpha-dalpha+" if cfg.realization == "K" else "e-de+"
    else:
        letter = "b"
    parts = primitive_commutator("a" if edge.kind == "dot" else edge.kind,
                                 letter, edge.source, edge.target, cfg)
    sign = -1 if edge.kind == "b" else 1
    return tuple((part.coeff.scale(sign), part.deltas, part.smooth) for part in parts)


@functools.lru_cache(maxsize=4096)
def _terminal_branches(unhit: Tuple[int, ...], charges: Tuple[Tuple[int, int], ...],
                       realization: str) -> Tuple[Tuple[Coeff, Tuple], ...]:
    """Isserlis expansion of unconsumed terminals: (coeff, kernel tokens)."""
    family, sign = gaussian_rule(realization)
    if not unhit:
        return ((_ONE, ()),)
    v, rest = unhit[0], unhit[1:]
    out: List[Tuple[Coeff, Tuple]] = []
    for k, w in enumerate(rest):
        for c2, toks in _terminal_branches(rest[:k] + rest[k + 1:], charges, realization):
            out.append((c2.scale(-sign), ((family, 2, v, w),) + toks))
    for s, q in charges:
        if s == v:
            raise StructuralViolation("terminal and exponential at one vertex")
        a, b, flip = orient(v, s, 1)
        for c2, toks in _terminal_branches(rest, charges, realization):
            out.append((c2.scale(sign * q * flip), ((family, 1, a, b),) + toks))
    # a terminal with no partner and no charge to radiate against kills the
    # term, which the empty tuple encodes
    return tuple(out)


def diagram_weight(diagram: Diagram, cfg: SectorConfig) -> List[Term]:
    """The token terms of one diagram (branching over edge alternatives,
    wavy counterterms and terminal pairings)."""
    coeff = _ONE
    for ch in diagram.choices:
        coeff = coeff * ch.coeff

    variants: List[Tuple[Coeff, List, List]] = [(coeff, [], [])]

    for edge in diagram.edges:
        parts = _edge_parts(edge, diagram.choices[edge.target].charge, cfg)
        variants = [(c * pc, ds + list(pd), sm + list(ps))
                    for (c, ds, sm) in variants
                    for (pc, pd, ps) in parts]

    for (i, j) in diagram.rho_pairs:
        lo, hi = min(i, j), max(i, j)
        ctr = _COUNTERTERM[cfg.realization]
        new = []
        for (c, ds, sm) in variants:
            new.append((c * _KAPPA, ds, sm + [("wavy", 0, lo, hi)]))
            new.append((c * ctr, ds + [(lo, hi, 1)], sm))
        variants = new
    if diagram.rho_singles:
        pfac = Coeff.unit(p=len(diagram.rho_singles))
        variants = [(c * pfac, ds, sm) for (c, ds, sm) in variants]

    hit = {e.target for e in diagram.edges if e.into == "terminal"}
    unhit = tuple(sorted(ch.position for ch in diagram.choices
                         if ch.terminal and ch.position not in hit))
    charges = tuple((ch.position, ch.charge) for ch in diagram.choices
                    if ch.charge is not None)
    term_branches = _terminal_branches(unhit, charges, cfg.realization)

    dmarks = tuple(sorted(ch.position for ch in diagram.choices if ch.deriv))
    exps = tuple(sorted(charges))

    out: List[Term] = []
    for (c, ds, sm) in variants:
        for tc, toks in term_branches:
            cc = c * tc
            if cc.is_zero:
                continue
            out.append(Term(coeff=cc,
                            deltas=tuple(sorted(ds)),
                            smooth=tuple(sorted(sm + list(toks))),
                            exps=exps,
                            dmarks=dmarks))
    return out


def correlator_terms(word: Sequence[str], cfg: SectorConfig) -> List[Term]:
    """Raw (unrenormalized) token terms of a current correlator."""
    word = tuple(word)
    if charge_vanishes(cfg.realization, (CURRENT_CHARGE.get(nm, 0) for nm in word)):
        logger.debug("word %s dropped by charge balance", word)
        return []
    out: List[Term] = []
    for d in enumerate_diagrams(word, cfg):
        out.extend(diagram_weight(d, cfg))
    return out


def correlator_expression(word: Sequence[str], cfg: SectorConfig,
                          radii: Optional[Dict[int, object]] = None) -> Expression:
    return Expression(correlator_terms(word, cfg), realization=cfg.realization,
                      radii=dict(radii or {}))


# ---------------------------------------------------------------------------
# loop structure
# ---------------------------------------------------------------------------


def loop_components(edges: Sequence[Edge]) -> Tuple[Cycle, ...]:
    """The cycles of the plain-delta edge graph, one per component that
    closes one, each as the sorted pairs (i, j), i < j, of its edges, in the
    order of their smallest pair.

    Only plain (k = 0) solid edges count: terminal hits are delta' edges and
    dotted edges are not deltas at all.  An insertion has one stub at most,
    so one plain edge at most leaves it: the graph is functional, each
    component holds one cycle at most, and that cycle is directed.  A walk
    along the successors that meets an insertion it has already passed has
    found its component's cycle.  Two plain edges leaving one insertion
    raise :class:`StructuralViolation`.
    """
    succ: Dict[int, int] = {}
    for _kind, source, target, into in edges:
        if into == "exp":
            if source in succ:
                raise StructuralViolation(f"two plain edges leave insertion {source}")
            succ[source] = target
    walk: Dict[int, int] = {}
    loops = []
    for start in succ:
        if start in walk:
            continue
        v = start
        while v in succ and v not in walk:
            walk[v] = start
            v = succ[v]
        if walk.get(v) == start:
            # v lies on the cycle this walk closed: go round it once
            pairs = []
            u = v
            while True:
                w = succ[u]
                pairs.append((u, w) if u < w else (w, u))
                if w == v:
                    break
                u = w
            loops.append(tuple(sorted(pairs)))
    return tuple(sorted(loops))


@dataclass
class CensusReport:
    word: Tuple[str, ...]
    diagrams: int
    looped: int
    loops: Counter  # cycle length -> number of occurrences
    max_betti: int

    def lines(self) -> List[str]:
        out = [f"word {' '.join(self.word)}: {self.diagrams} diagrams, "
               f"{self.looped} with loops, max betti {self.max_betti}"]
        for k in sorted(self.loops):
            out.append(f"  {k}-loops: {self.loops[k]}")
        return out


def loop_census(word: Sequence[str], cfg: SectorConfig) -> CensusReport:
    """Stream over stub structures (term multiplicities and Heisenberg
    matchings do not change the delta-edge graph) and tally the loops that
    :func:`_resolve_stubs` tracks for each."""
    word = tuple(word)
    per_vertex = []
    for k, nm in enumerate(word):
        classes: Dict[Tuple, VertexChoice] = {}
        for ch in vertex_choices(nm, k, cfg):
            key = (ch.stub, ch.terminal, ch.charge is not None)
            classes.setdefault(key, ch)
        per_vertex.append(list(classes.values()))
    total = looped = 0
    loops: Counter = Counter()
    for combo in itertools.product(*per_vertex):
        for _edges, found in _resolve_stubs(combo, cfg):
            total += 1
            if found:
                looped += 1
                for loop in found:
                    loops[len(loop)] += 1
    # each loop is one cycle of its own component
    return CensusReport(word, total, looped, loops, int(looped > 0))


def to_dot(diagram: Diagram) -> str:
    """Graphviz rendering of one diagram."""
    lines = ["digraph contraction {", "  rankdir=LR;"]
    for ch in diagram.choices:
        bits = [ch.current]
        if ch.charge is not None:
            bits.append(f"q={ch.charge:+d}")
        if ch.terminal:
            bits.append("terminal")
        if ch.rho:
            bits.append("rho")
        if ch.deriv:
            bits.append("d/du")
        shape = "doublecircle" if ch.terminal else "circle"
        lines.append(f'  v{ch.position} [label="{ch.position}: {" ".join(bits)}" '
                     f'shape={shape}];')
    for e in diagram.edges:
        style = {"exp": "solid", "terminal": "bold", "stub": "dotted"}[e.into]
        lines.append(f'  v{e.source} -> v{e.target} [style={style} label="{e.kind}"];')
    for (i, j) in diagram.rho_pairs:
        lines.append(f'  v{i} -> v{j} [style=dashed dir=none label="wavy"];')
    for s in diagram.rho_singles:
        lines.append(f'  v{s} -> v{s} [style=dashed label="p"];')
    lines.append("}")
    return "\n".join(lines)
