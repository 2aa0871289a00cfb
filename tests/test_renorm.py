"""Loop substitution, dotted filtering and the renormalized pipeline."""

from fractions import Fraction

import pytest

from loopcorr import renorm
from loopcorr.algebra import SectorConfig
from loopcorr.diagrams import (Diagram, Edge, VertexChoice, diagram_weight, enumerate_diagrams,
                               loop_components)
from loopcorr.distributions import Coeff, canonicalize, detect_singular
from loopcorr.errors import MissingMu
from loopcorr.kernels import CirclePoint, XiSequence
from loopcorr.renorm import (
    CurrentWord,
    RenormScheme,
    dotted_filter,
    evaluate_correlator,
    renormalize_loop,
)
from loopcorr.verify import expression_value

K = SectorConfig(realization="K", sector="nonunitary")
A = SectorConfig(realization="A", sector="nonunitary")
KU = SectorConfig(realization="K", sector="unitary")
SEQ = XiSequence.geometric(Fraction(1, 2))


def _tdict(expr):
    out = {}
    for t in expr.terms:
        assert t.key() not in out
        out[t.key()] = t.coeff
    return out


def test_scheme_construction_and_mu_lookup():
    s = RenormScheme.mu_family(K, {2: 1, 3: Fraction(1, 2)})
    assert s.mu_value(2) == 1
    assert s.mu_value(3) == Fraction(1, 2)
    with pytest.raises(MissingMu):
        s.mu_value(4)
    assert RenormScheme.mu_family(K, {}, default=Fraction(1, 3)).mu_value(7) == Fraction(1, 3)
    assert RenormScheme.drop_loops(K).mu_value(5) == 0
    with pytest.raises(ValueError):
        RenormScheme.unitary_dotted(K)  # nonunitary sector
    with pytest.raises(ValueError):
        RenormScheme.mu_family(K, {1: 1})


def test_renormalize_loop_chains():
    c, chain = renormalize_loop([1, 2], 2)
    assert c == Coeff.unit(mu={2: 1}) and chain == ((1, 2, 0),)
    c, chain = renormalize_loop([3, 1, 2], 3)
    assert c == Coeff.unit(mu={3: 1}) and chain == ((1, 2, 0), (2, 3, 0))


def test_two_point_loop_substitution():
    word = CurrentWord.from_names(("J+", "J-"), radius=Fraction(9, 10))
    drop = evaluate_correlator(word, RenormScheme.drop_loops(K))
    mu = evaluate_correlator(word, RenormScheme.mu_family(K, {2: 5}))
    dd, dm = _tdict(drop), _tdict(mu)
    extra = {k: c for k, c in dm.items() if k not in dd or not (c == dd[k])}
    # the loop diagram carries (i/2)^2 from the vertex pair and +1 from each
    # of the two crossing signs, so mu_2 = 5 leaves -5/4 on delta(0,1) * exp
    assert len(extra) == 1
    (key, coeff), = extra.items()
    deltas = key[0]
    assert deltas == ((0, 1, 0),)
    loop_part = coeff if key not in dd else coeff - dd[key]
    assert loop_part == Coeff.complex_rat(Fraction(-5, 4))


def test_scheme_equivalence_drop_vs_zero_mu():
    zero = RenormScheme.mu_family(K, {}, default=0)
    for names in (("J+", "J-"), ("J3", "J3"), ("J3", "J+", "J-")):
        w = CurrentWord.from_names(names)
        assert _tdict(evaluate_correlator(w, RenormScheme.drop_loops(K))) == \
               _tdict(evaluate_correlator(w, zero))
    zero_a = RenormScheme.mu_family(A, {}, default=0)
    w = CurrentWord.from_names(("E", "F"))
    assert _tdict(evaluate_correlator(w, RenormScheme.drop_loops(A))) == \
           _tdict(evaluate_correlator(w, zero_a))


def test_loop_locality():
    # off the circle nothing collapses, so the loop scale stays visible
    w = CurrentWord.from_names(("J+", "J-", "J3"), radius=Fraction(9, 10))
    base = _tdict(evaluate_correlator(w, RenormScheme.mu_family(K, {}, default=1)))
    bent = _tdict(evaluate_correlator(w, RenormScheme.mu_family(K, {2: 7}, default=1)))
    assert set(base) == set(bent)
    changed = [k for k in base if not (base[k] == bent[k])]
    assert changed
    drop = _tdict(evaluate_correlator(w, RenormScheme.drop_loops(K)))
    for k in base:
        if k in drop and base[k] == drop[k]:
            # tree content is untouched by the loop scale
            assert bent[k] == base[k]


def test_on_circle_loop_terms_cancel_for_neutral_spectator():
    # after collapsing the renormalized 2-loop of <J+ J- J3> on the circle,
    # the spectator couplings to the two opposite charges cancel pairwise,
    # so the result carries no mu_2 at all
    w = CurrentWord.from_names(("J+", "J-", "J3"))
    base = _tdict(evaluate_correlator(w, RenormScheme.mu_family(K, {}, default=1)))
    bent = _tdict(evaluate_correlator(w, RenormScheme.mu_family(K, {2: 7}, default=1)))
    assert base == bent


def test_missing_mu_raises():
    w = CurrentWord.from_names(("J+", "J-"))
    with pytest.raises(MissingMu):
        evaluate_correlator(w, RenormScheme.mu_family(K, {3: 1}))


def test_scales_that_cancel_need_no_value():
    # the 2-loop remnant of <J+ J- J3> cancels on the circle, so a family
    # without mu_2 still evaluates it, to the drop-loops value
    w = CurrentWord.from_names(("J+", "J-", "J3"))
    assert _tdict(evaluate_correlator(w, RenormScheme.mu_family(K, {3: 1}))) == \
           _tdict(evaluate_correlator(w, RenormScheme.drop_loops(K)))


def test_one_enumeration_serves_every_scheme(monkeypatch):
    calls = []

    def counting(names, cfg):
        calls.append(names)
        return enumerate_diagrams(names, cfg)

    monkeypatch.setattr(renorm, "enumerate_diagrams", counting)
    w = CurrentWord.from_names(("J+", "J-", "J3"), radius=Fraction(7, 11))
    for scheme in (RenormScheme.drop_loops(K), RenormScheme.mu_family(K, {2: 5}, default=1),
                   RenormScheme.mu_family(K, {}, default=Fraction(-1, 3))):
        evaluate_correlator(w, scheme)
    assert calls == [w.names]


def test_empty_word_is_unity():
    expr = evaluate_correlator(CurrentWord.from_names(()), RenormScheme.drop_loops(K))
    assert len(expr.terms) == 1
    t = expr.terms[0]
    assert t.coeff == Coeff.unit() and not t.key()[0] and not t.exps


def test_cache_returns_same_object():
    w = CurrentWord.from_names(("J3", "J3"))
    s = RenormScheme.drop_loops(K)
    assert evaluate_correlator(w, s) is evaluate_correlator(w, s)


def test_cached_terms_are_read_only():
    w = CurrentWord.from_names(("J+", "J-"))
    s = RenormScheme.mu_family(K, default=0)
    expr = evaluate_correlator(w, s)
    assert len(expr.terms) == 5
    with pytest.raises(TypeError):
        expr.terms.append(expr.terms[0])
    with pytest.raises(TypeError):
        expr.terms += expr.terms[:1]
    before = expr.to_json()
    with pytest.raises(TypeError):
        expr.radii[0] = Fraction(1, 2)
    with pytest.raises(AttributeError):
        expr.terms[0].coeff.d.clear()
    again = evaluate_correlator(w, s)
    assert len(again.terms) == 5 and again.to_json() == before


def test_correlator_caches_are_bounded():
    for cache in (renorm.symbolic_correlator, renorm.evaluate_correlator):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, cache


def _hand_diagram(charges, solid, dotted):
    choices = tuple(VertexChoice(i, "J+", Coeff.unit(), charge=q)
                    for i, q in enumerate(charges))
    edges = tuple([Edge("a", s, t, "exp") for (s, t) in solid]
                  + [Edge("dot", s, t, "stub") for (s, t) in dotted])
    return Diagram(tuple("J+" for _ in charges), choices, edges,
                   loops=loop_components(edges))


def test_dotted_filter_rules():
    # lone +1 against lone -1: both sides unbalanced
    d = _hand_diagram([1, -1], [], [(0, 1)])
    assert not dotted_filter(d)
    assert not dotted_filter(d, "either-side")
    # balanced pair attached to the a-end, bare b-end
    d = _hand_diagram([1, -1, None, None], [(0, 2), (1, 2)], [(2, 3)])
    assert dotted_filter(d)
    # one balanced side, one unbalanced side
    d = _hand_diagram([1, -1, None, None, 1], [(0, 2), (1, 2), (4, 3)], [(2, 3)])
    assert not dotted_filter(d)
    assert dotted_filter(d, "either-side")
    # no dotted edges: vacuous
    assert dotted_filter(_hand_diagram([1, -1], [(0, 1)], []))


def test_loop_free_diagram_renormalizes_to_its_weight():
    d = _hand_diagram([1, -1, 1], [(0, 1), (1, 2)], [])
    weight = diagram_weight(d, K)
    assert weight
    assert renorm.renormalize_diagram(d, K) == weight


def _dotted(t):
    return any(family == "D" for (family, _k, _i, _j) in t.smooth)


def test_dotted_scheme_drops_unbalanced_two_point():
    w = CurrentWord.from_names(("J+", "J-"), radius=Fraction(9, 10))
    dotted = evaluate_correlator(w, RenormScheme.unitary_dotted(KU, {2: 1}))
    plain = evaluate_correlator(w, RenormScheme.mu_family(K, {2: 1}))
    assert _tdict(dotted) == _tdict(plain)
    # without the filter the unitary sector keeps the divergent pairing
    unfiltered = evaluate_correlator(w, RenormScheme.mu_family(KU, {2: 1}))
    assert any(_dotted(t) for t in unfiltered.terms)
    assert not any(_dotted(t) for t in dotted.terms)


def test_dotted_scheme_keeps_balanced_neutral_pair():
    w = CurrentWord.from_names(("J3", "J3"), radius=Fraction(9, 10))
    dotted = evaluate_correlator(w, RenormScheme.unitary_dotted(KU, {2: 1}))
    assert any(_dotted(t) for t in dotted.terms)


def test_on_circle_two_point_is_regular():
    for names, cfg in (((("J+", "J-")), K), ((("J3", "J3")), K), ((("E", "F")), A)):
        w = CurrentWord.from_names(names)
        for scheme in (RenormScheme.drop_loops(cfg),
                       RenormScheme.mu_family(cfg, {}, default=Fraction(1, 2))):
            expr = evaluate_correlator(w, scheme)
            assert detect_singular(expr) == []


def test_renormalized_value_matches_direct_substitution():
    # off the circle the mu-family result at mu_2 = 1 equals dropped trees
    # plus the explicit chain value of the single loop diagram
    pts = (CirclePoint(Fraction(1, 2), 0), CirclePoint(Fraction(2, 5), Fraction(1, 3)))
    w = CurrentWord.from_names(("J+", "J-"), radius=[Fraction(1, 2), Fraction(2, 5)])
    drop = evaluate_correlator(w, RenormScheme.drop_loops(K))
    mu1 = evaluate_correlator(w, RenormScheme.mu_family(K, {2: 1}))
    diff = (expression_value(mu1, pts, SEQ, trunc=8, kappa=0.7, p=0.3)
            - expression_value(drop, pts, SEQ, trunc=8, kappa=0.7, p=0.3))
    # loop coefficient (i/2)^2 * (+1) * (+1) = -1/4, times delta * exponential
    import cmath
    z1 = 0.5
    z2 = 0.4 * cmath.exp(2j * cmath.pi / 3)
    x, y = z1 * z2.conjugate(), z2 * z1.conjugate()
    delta = 1 + sum(x ** n + y ** n for n in range(1, 9))
    xi = lambda n: 0.5 ** n
    n12 = sum(xi(n) * (x ** n + y ** n) for n in range(1, 9))
    n11 = sum(xi(n) * 2 * abs(z1) ** (2 * n) for n in range(1, 9))
    n22 = sum(xi(n) * 2 * abs(z2) ** (2 * n) for n in range(1, 9))
    want = -0.25 * delta * cmath.exp(n12 - n11 / 2 - n22 / 2)
    assert abs(diff - want) < 1e-12


def test_pipeline_builds_no_fraction(fractions_built):
    # enumerate -> weight -> renormalize -> canonicalize stays on integer
    # coefficients; Fractions are met only at the boundary
    word = CurrentWord.from_names(("J+", "J-", "J3", "J3"))
    assert fractions_built(renorm.symbolic_correlator.__wrapped__, word, K, None) == 0
    assert fractions_built(Fraction, 1, 3) == 1
