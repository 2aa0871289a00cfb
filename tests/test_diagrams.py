"""Diagram enumeration and weights, checked against the Gaussian oracle.

The decisive tests here are the completeness comparisons: the sum of all
raw (unrenormalized) diagram weights, evaluated pointwise with truncated
kernels, must reproduce the mode-model oracle exactly -- off the circle,
in every realization, with and without the unitary dotted pairing.
"""

import importlib.util
import itertools
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import sympy as sp
from hypothesis import given, settings, strategies as st

from loopcorr.algebra import CURRENTS_A, CURRENTS_K, SectorConfig
from loopcorr.diagrams import (
    Edge,
    _resolve_stubs,
    correlator_expression,
    correlator_terms,
    diagram_weight,
    enumerate_diagrams,
    loop_census,
    loop_components,
    to_dot,
    vertex_choices,
)
from loopcorr.distributions import Coeff, canonicalize
from loopcorr.errors import RealizationMismatch, StructuralViolation
from loopcorr.kernels import CirclePoint, XiSequence
from loopcorr.renorm import renormalize_diagram
from loopcorr.verify import expression_value, gaussian_oracle

N = 10
KAP, P = 0.7, 0.3
Z = (CirclePoint(Fraction(1, 2), 0),
     CirclePoint(Fraction(2, 5), Fraction(1, 3)),
     CirclePoint(Fraction(3, 5), Fraction(1, 7)),
     CirclePoint(Fraction(1, 3), Fraction(2, 7)))
SEQ = XiSequence.geometric(Fraction(1, 2))
K = SectorConfig(realization="K", sector="nonunitary")
A = SectorConfig(realization="A", sector="nonunitary")
KU = SectorConfig(realization="K", sector="unitary")
AU = SectorConfig(realization="A", sector="unitary")


def cu(re=0, im=0, **kw):
    return Coeff.unit(re=re, im=im, **kw)


def _engine(word, cfg):
    expr = correlator_expression(word, cfg)
    return expression_value(expr, Z[:len(word)], SEQ, trunc=N, kappa=KAP, p=P)


def _oracle(word, cfg):
    return gaussian_oracle(word, Z[:len(word)], cfg, SEQ, trunc=N, kappa=KAP, p=P)


def test_vertex_choices_structure():
    ch = vertex_choices("J+", 0, K)
    kinds = {(c.stub, c.rho, c.deriv, c.terminal, c.charge) for c in ch}
    assert kinds == {("b", False, False, False, 1),
                     ("a", False, False, False, 1),
                     (None, False, True, False, 1),
                     (None, True, False, False, 1)}
    by_stub = {c.stub: c for c in ch if not (c.rho or c.deriv)}
    assert by_stub["b"].coeff == cu(im=Fraction(1, 2))
    assert by_stub["a"].coeff == cu(im=Fraction(1, 2))


def test_vertex_choices_neutral_current_splits_h():
    ch = vertex_choices("J3", 0, K)
    assert len(ch) == 3
    bare = {c.stub: c.coeff for c in ch if c.stub}
    assert bare == {"a": cu(im=1), "b": cu(im=1)}
    term = [c for c in ch if c.terminal]
    assert len(term) == 1 and term[0].coeff == cu(re=-2, kappa=1)
    assert term[0].charge is None


def test_vertex_choices_realization_guard():
    with pytest.raises(RealizationMismatch):
        vertex_choices("E", 0, K)


def test_two_neutral_insertions_enumeration():
    diags = list(enumerate_diagrams(("J3", "J3"), K))
    assert len(diags) == 3
    # unitary adds the dotted a-b pairing
    diags_u = list(enumerate_diagrams(("J3", "J3"), KU))
    assert len(diags_u) == 4
    dotted = [d for d in diags_u if any(e.kind == "dot" for e in d.edges)]
    assert len(dotted) == 1
    e = dotted[0].edges[0]
    assert (e.source, e.target, e.into) == (0, 1, "stub")


def test_double_terminal_weight():
    diags = [d for d in enumerate_diagrams(("J3", "J3"), K)
             if all(c.terminal for c in d.choices)]
    assert len(diags) == 1
    terms = diagram_weight(diags[0], K)
    assert len(terms) == 1
    t = terms[0]
    assert t.coeff == cu(re=4, kappa=2)
    assert t.smooth == (("NK", 2, 0, 1),)
    assert not t.deltas and not t.exps


def test_terminal_hit_weight():
    # bare a at slot 0 hitting the terminal at slot 1: -2i kappa delta'(0,1)
    diags = [d for d in enumerate_diagrams(("J3", "J3"), K)
             if d.choices[0].stub == "a" and d.choices[1].terminal]
    assert len(diags) == 1
    terms = diagram_weight(diags[0], K)
    assert len(terms) == 1
    assert terms[0].coeff == cu(im=-2, kappa=1)
    assert terms[0].deltas == ((0, 1, 1),)


def test_single_insertions():
    assert correlator_terms(("J3",), K) == []
    assert correlator_terms(("J+",), K) == []          # charge fast path
    assert correlator_terms(("H",), A) == []
    # <E> keeps the momentum term and a vanishing derivative branch
    terms = correlator_terms(("E",), A)
    vals = expression_value(
        correlator_expression(("E",), A), Z[:1], SEQ, trunc=N, kappa=KAP, p=P)
    want = 1j * P * _oracle(("e+",), A)
    assert abs(vals - want) < 1e-12
    assert abs(vals - _oracle(("E",), A)) < 1e-12
    assert any(t.dmarks for t in terms)


def test_charge_imbalanced_words_vanish():
    assert correlator_terms(("J+", "J+"), K) == []
    assert correlator_terms(("J+", "J3", "J+"), K) == []
    assert _oracle(("J+", "J+"), K) == 0


def test_rho_matchings_in_weights():
    momentum = [t for t in correlator_terms(("J+", "J-"), K)
                if t.coeff.d and all(m[1] == 2 for m in t.coeff.d)]
    # the double-rho diagram leaves p^2 exactly once
    assert len(momentum) == 1 and momentum[0].exps == ((0, 1), (1, -1))
    wavy = [t for t in correlator_terms(("J+", "J-"), K) if t.smooth]
    assert len(wavy) == 1 and wavy[0].smooth == (("wavy", 0, 0, 1),)


def test_completeness_two_point_k():
    for word in (("J+", "J-"), ("J-", "J+"), ("J3", "J3")):
        got, want = _engine(word, K), _oracle(word, K)
        assert abs(got - want) < 1e-10, word


def test_completeness_two_point_a():
    for word in (("E", "F"), ("F", "E"), ("H", "H"), ("E", "E")):
        got, want = _engine(word, A), _oracle(word, A)
        assert abs(got - want) < 1e-10, word


def test_completeness_two_point_unitary():
    for word, cfg in ((("J+", "J-"), KU), (("J3", "J3"), KU),
                      (("E", "F"), AU), (("H", "H"), AU)):
        got, want = _engine(word, cfg), _oracle(word, cfg)
        assert abs(got - want) < 1e-10, word


def test_completeness_three_point():
    for word, cfg in ((("J3", "J+", "J-"), K), (("J+", "J3", "J-"), K),
                      (("J+", "J-", "J3"), K), (("H", "E", "F"), A),
                      (("E", "H", "F"), A), (("J3", "J+", "J-"), KU),
                      (("E", "F", "H"), AU)):
        got, want = _engine(word, cfg), _oracle(word, cfg)
        assert abs(got - want) < 1e-10, word


def test_completeness_four_point():
    for word, cfg in ((("J+", "J-", "J+", "J-"), K), (("E", "F", "F", "E"), A)):
        got, want = _engine(word, cfg), _oracle(word, cfg)
        assert abs(got - want) < 1e-9, word


def _turns(lo):
    """Rational fractions n/d with lo <= n < d, d <= 12."""
    return st.integers(2, 12).flatmap(lambda d: st.integers(lo, d - 1).map(
        lambda n: Fraction(n, d)))


@st.composite
def oracle_cases(draw, realization):
    """A random word of length 1 to 4 in the currents of ``realization``, one
    point per insertion at a rational radius in (0, 1) and a rational angle."""
    currents = CURRENTS_K if realization == "K" else CURRENTS_A
    names = tuple(draw(st.sampled_from(currents))
                  for _ in range(draw(st.sampled_from((4, 3, 2, 1)))))
    points = [CirclePoint(draw(_turns(1)), draw(_turns(0))) for _ in names]
    return names, points


@pytest.mark.parametrize("cfg", [K, A, KU, AU], ids=lambda c: c.realization + c.sector)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_canonical_engine_matches_oracle_on_random_words(cfg, data):
    # the workload's tolerance: 1e-8 relative to max(1, |oracle|)
    names, points = data.draw(oracle_cases(cfg.realization))
    want = gaussian_oracle(names, points, cfg, SEQ, trunc=N, kappa=KAP, p=P)
    radii = {k: pt.r for k, pt in enumerate(points)}
    expr = canonicalize(correlator_expression(names, cfg, radii))
    got = expression_value(expr, dict(enumerate(points)), SEQ, trunc=N, kappa=KAP, p=P)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (names, points)


def test_completeness_exact_symbolic_kappa():
    kap = sp.Symbol("kappa", positive=True)
    expr = correlator_expression(("J3", "J3"), K)
    got = expression_value(expr, Z[:2], SEQ, trunc=3, kappa=kap, exact=True)
    want = gaussian_oracle(("J3", "J3"), Z[:2], K, SEQ, trunc=3, kappa=kap, exact=True)
    assert sp.simplify(sp.expand(got - want)) == 0


def test_structural_invariants():
    for word, cfg in ((("J+", "J3", "J-"), KU), (("E", "H", "F"), AU)):
        for d in enumerate_diagrams(word, cfg):
            hit = [e.target for e in d.edges if e.into == "terminal"]
            assert len(hit) == len(set(hit))
            for e in d.edges:
                assert e.source != e.target
                if e.kind == "a" or e.kind == "dot":
                    assert e.source < e.target
                else:
                    assert e.source > e.target
    # the successor walk of loop_components rests on this: at most one edge
    # leaves each insertion; every diagram carries the loops of its edges
    for cfg in (K, KU, A, AU):
        currents = CURRENTS_K if cfg.realization == "K" else CURRENTS_A
        for n in range(1, 5):
            for word in itertools.product(currents, repeat=n):
                for d in enumerate_diagrams(word, cfg):
                    sources = [e.source for e in d.edges]
                    assert len(sources) == len(set(sources)), (word, d.edges)
                    assert d.loops == loop_components(d.edges), (word, d.edges)


def _solid_edges(solid, dotted=()):
    """Hand-built edges: plain delta edges for ``solid``, dotted stub
    pairings for ``dotted``."""
    return tuple([Edge("a", s, t, "exp") for (s, t) in solid]
                 + [Edge("dot", s, t, "stub") for (s, t) in dotted])


def test_loop_components_two_cycles_in_one_component():
    # two cycles share a component only through an insertion that two plain
    # edges leave, here 1
    with pytest.raises(StructuralViolation):
        loop_components(_solid_edges([(0, 1), (1, 0), (1, 2), (2, 1)]))


def test_two_plain_edges_leaving_one_insertion_raise():
    # a tree, but no enumerated diagram has two stubs at insertion 0
    with pytest.raises(StructuralViolation):
        loop_components(_solid_edges([(0, 1), (0, 2)]))


def test_loop_components_disjoint_cycles():
    edges = _solid_edges([(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
    assert loop_components(edges) == (((0, 1), (0, 1)), ((2, 3), (2, 4), (3, 4)))


def test_loop_components_strip_pendant_edges():
    # the pendant edge 3-2 is off the cycle; the dotted edge 0-3 is no delta
    edges = _solid_edges([(0, 1), (1, 2), (2, 0), (3, 2)], dotted=[(0, 3)])
    assert loop_components(edges) == (((0, 1), (0, 2), (1, 2)),)
    assert loop_components(_solid_edges([(0, 1), (1, 2), (2, 3)])) == ()


def test_loop_census_two_point():
    rep = loop_census(("J+", "J-"), K)
    assert rep.diagrams == 4
    assert rep.looped == 1
    assert dict(rep.loops) == {2: 1}
    assert rep.max_betti == 1
    assert any("2-loops" in line for line in rep.lines())


def test_loop_census_no_multiloop_components():
    for word, cfg in ((("J+", "J+", "J-", "J-"), K), (("E", "F", "E", "F"), A),
                      (("J+", "J3", "J-", "J3"), KU), (("E", "H", "F", "H"), AU)):
        rep = loop_census(word, cfg)
        assert rep.max_betti <= 1, word
        assert rep.diagrams > 0


def test_tracked_loops_match_loop_components(monkeypatch):
    # the unitary sector's dotted edges must not count as loop edges, and the
    # search calls loop_components only where the edge it just placed
    # changes the loops
    def changing(edges):
        found = loop_components(edges)
        assert found != loop_components(edges[:-1]), edges
        return found

    monkeypatch.setattr("loopcorr.diagrams.loop_components", changing)
    for cfg in (K, KU, A, AU):
        currents = CURRENTS_K if cfg.realization == "K" else CURRENTS_A
        for n in range(1, 5):
            for word in itertools.product(currents, repeat=n):
                per_vertex = [vertex_choices(nm, k, cfg) for k, nm in enumerate(word)]
                for combo in itertools.product(*per_vertex):
                    for edges, loops in _resolve_stubs(combo, cfg):
                        assert loops == loop_components(edges), edges


def _bruteforce_loops(edges):
    """Loops by definition: a plain edge lies on a cycle iff its ends stay
    joined without it; the cycle edges are grouped by component."""
    plain = [(e.source, e.target) for e in edges if e.into == "exp"]

    def joined(a, b, pairs):
        reach, todo = {a}, [a]
        while todo:
            v = todo.pop()
            for i, j in pairs:
                for x, y in ((i, j), (j, i)):
                    if x == v and y not in reach:
                        reach.add(y)
                        todo.append(y)
        return b in reach

    on_cycle = [(min(i, j), max(i, j)) for k, (i, j) in enumerate(plain)
                if joined(i, j, plain[:k] + plain[k + 1:])]
    groups = []
    for pair in on_cycle:
        for group in groups:
            if joined(pair[0], group[0][0], plain):
                group.append(pair)
                break
        else:
            groups.append([pair])
    return tuple(sorted(tuple(sorted(group)) for group in groups))


@st.composite
def functional_edge_lists(draw):
    """Plain, terminal and dotted edges on up to 8 insertions, at most one
    leaving each insertion, in random order.  The insertions are cut into
    runs of two or three and each edge first follows its run around, so
    that several cycles in one list are common; an edge may instead jump to
    a random target."""
    n = draw(st.integers(2, 8))
    edges, lo = [], 0
    while lo < n:
        hi = min(n, lo + draw(st.integers(2, 3)))
        for s in range(lo, hi):
            t = lo + (s + 1 - lo) % (hi - lo)
            if t == s or draw(st.integers(0, 4)) == 4:
                t = draw(st.integers(0, n - 1))
            into = draw(st.sampled_from(("exp", "exp", "exp", "exp", None, "terminal", "stub")))
            if into is not None and t != s:
                edges.append(Edge("dot" if into == "stub" else "a", s, t, into))
        lo = hi
    return draw(st.permutations(edges))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edges=functional_edge_lists())
def test_loop_components_match_bruteforce_cycles(edges):
    assert loop_components(edges) == _bruteforce_loops(edges)


def _stub_resolutions_by_definition(choices):
    """Stub resolutions by definition, sorted: every a-stub hits an
    exponential or terminal to its right or annihilates a b-stub to its
    right, every b-stub hits an exponential or terminal to its left or is
    annihilated; no terminal is hit twice, an annihilated b-stub is
    annihilated exactly once and places no edge."""
    n = len(choices)
    per_stub = []
    for s, ch in enumerate(choices):
        if ch.stub is None:
            continue
        targets = range(s + 1, n) if ch.stub == "a" else range(s)
        options = [Edge(ch.stub, s, t, "exp") for t in targets if choices[t].charge is not None]
        options += [Edge(ch.stub, s, t, "terminal") for t in targets if choices[t].terminal]
        if ch.stub == "a":
            options += [Edge("dot", s, t, "stub") for t in targets if choices[t].stub == "b"]
        else:
            options.append(None)   # annihilated by a dotted edge
        per_stub.append((s, options))
    out = []
    for picks in itertools.product(*(options for _, options in per_stub)):
        edges = tuple(e for e in picks if e is not None)
        hit = [e.target for e in edges if e.into == "terminal"]
        dotted = sorted(e.target for e in edges if e.into == "stub")
        annihilated = [s for (s, _), e in zip(per_stub, picks) if e is None]
        if len(hit) == len(set(hit)) and dotted == annihilated:
            out.append((edges, _bruteforce_loops(edges)))
    return sorted(out)


def test_unitary_stub_resolutions_match_definition():
    # a b-stub with no target of its own is still resolved when an a-stub
    # annihilates it, as in J3 J3 with the one dotted edge 0 -> 1
    assert ((Edge("dot", 0, 1, "stub"),), ()) in _stub_resolutions_by_definition(
        (vertex_choices("J3", 0, KU)[0], vertex_choices("J3", 1, KU)[1]))
    for cfg in (KU, AU):
        currents = CURRENTS_K if cfg.realization == "K" else CURRENTS_A
        for n in range(1, 5):
            for word in itertools.product(currents, repeat=n):
                per_vertex = [vertex_choices(nm, k, cfg) for k, nm in enumerate(word)]
                for combo in itertools.product(*per_vertex):
                    got = sorted(_resolve_stubs(combo, cfg))
                    assert got == _stub_resolutions_by_definition(combo), (cfg, combo)


def test_stub_resolutions_are_lazy():
    # the diagrams of this word number in the millions; the first thousand
    # come without the rest being searched for or held
    word = ("J+", "J-", "J+", "J-", "J+", "J-", "J3", "J3")
    combo = next(itertools.product(*(vertex_choices(nm, k, K) for k, nm in enumerate(word))))
    resolutions = _resolve_stubs(combo, K)
    assert iter(resolutions) is resolutions
    start = time.perf_counter()
    first = list(itertools.islice(enumerate_diagrams(word, K), 1000))
    assert len(first) == 1000
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("word, diagrams, looped, loops", [
    (("J+", "J-", "J+", "J-", "J3"), 1536, 711, {2: 528, 3: 168, 4: 30}),
    (("J3", "J+", "J3", "J-", "J3"), 330, 45, {2: 45}),
    (("J+", "J+", "J-", "J-", "J+", "J-"), 46656, 29849,
     {2: 19440, 3: 8640, 4: 3240, 5: 864, 6: 120}),
    (("J+", "J3", "J-", "J3", "J+", "J-"), 9664, 4109, {2: 3084, 3: 944, 4: 162}),
])
def test_loop_census_pinned_reports(word, diagrams, looped, loops):
    # figures of the census that ran loop_components on every structure; the
    # brute-force census checks no cycle lengths and no word this long
    rep = loop_census(word, K)
    assert (rep.diagrams, rep.looped, dict(rep.loops), rep.max_betti) == (diagrams, looped,
                                                                         loops, 1)


def _bruteforce_census():
    """``perfbench/bruteforce.py``, a loop census written apart from
    ``loopcorr.diagrams``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bruteforce.py"
    spec = importlib.util.spec_from_file_location("bruteforce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.census


def test_loop_census_matches_bruteforce():
    census = _bruteforce_census()
    for cfg, names in ((K, ("J+", "J-", "J3")), (A, ("E", "F", "H"))):
        for n in range(1, 5):
            for word in itertools.product(names, repeat=n):
                rep = loop_census(word, cfg)
                assert (rep.diagrams, rep.looped, rep.max_betti) == census(word), word


def test_each_loop_is_found_once(monkeypatch):
    # enumeration hands every diagram the loops of its stub structure, so
    # renormalizing all diagrams searches for no loop again; the counter
    # replaces loop_components under every loopcorr name that holds it
    calls = []

    def counted(edges):
        calls.append(1)
        return loop_components(edges)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "loop_components", None)
        if name.startswith("loopcorr") and held is loop_components:
            monkeypatch.setattr(module, "loop_components", counted)
    word = ("J+", "J-", "J+", "J-", "J3")
    diagrams = list(enumerate_diagrams(word, K))
    enumerated = len(calls)
    assert enumerated > 0
    for d in diagrams:
        renormalize_diagram(d, K)
    assert len(calls) == enumerated


def test_to_dot_smoke():
    d = next(iter(enumerate_diagrams(("J+", "J-"), K)))
    text = to_dot(d)
    assert text.startswith("digraph") and "v0" in text and "v1" in text
