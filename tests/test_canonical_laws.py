"""Algebraic laws of ``canonicalize`` on the raw renormalized terms of random
K and A words of length <= 4 in either sector: the canonical form does not
depend on the order of the terms, is a fixed point, can be taken of any
part of a sum first, and commutes with renaming the insertions.  The JSON
encoding round-trips byte for byte.  Off the circle, canonicalizing a raw
correlator keeps its pointwise value."""

import functools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from loopcorr.algebra import CURRENTS_A, CURRENTS_K, SectorConfig
from loopcorr.diagrams import correlator_expression, enumerate_diagrams
from loopcorr.distributions import Expression, canonicalize
from loopcorr.kernels import CirclePoint, XiSequence
from loopcorr.renorm import CurrentWord, RenormScheme, evaluate_correlator, renormalize_diagram
from loopcorr.verify import expression_value

LAWS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def raw_terms(names, realization, sector):
    cfg = SectorConfig(realization, sector)
    return tuple(t for d in enumerate_diagrams(names, cfg) for t in renormalize_diagram(d, cfg))


@st.composite
def raw_expressions(draw):
    """(raw terms, realization) of a random word of length 1 to 4."""
    realization = draw(st.sampled_from(("K", "A")))
    currents = CURRENTS_K if realization == "K" else CURRENTS_A
    names = tuple(draw(st.lists(st.sampled_from(currents), min_size=1, max_size=4)))
    sector = draw(st.sampled_from(("nonunitary", "unitary")))
    return list(raw_terms(names, realization, sector)), realization


@LAWS
@given(raw_expressions(), st.randoms(use_true_random=False))
def test_order_independence(raw, rnd):
    terms, realization = raw
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    want = canonicalize(Expression(terms, realization)).to_json()
    assert canonicalize(Expression(shuffled, realization)).to_json() == want


@LAWS
@given(raw_expressions())
def test_idempotence(raw):
    terms, realization = raw
    once = canonicalize(Expression(terms, realization))
    assert canonicalize(once).to_json() == once.to_json()


@LAWS
@given(raw_expressions(), st.randoms(use_true_random=False))
def test_additivity(raw, rnd):
    terms, realization = raw
    a, b = [], []
    for t in terms:
        (a if rnd.random() < 0.5 else b).append(t)
    a, b = Expression(a, realization), Expression(b, realization)
    assert canonicalize(a + b).to_json() == canonicalize(canonicalize(a) + b).to_json()


@LAWS
@given(raw_expressions(), st.randoms(use_true_random=False))
def test_relabel_commutes_with_canonicalize(raw, rnd):
    # a random permutation of the insertions, which carry random radii along
    terms, realization = raw
    idx = sorted(set().union(*(t.indices() for t in terms)))
    perm = dict(zip(idx, rnd.sample(idx, len(idx))))
    radii = {i: rnd.choice((Fraction(1), Fraction(1, 2), Fraction(2, 3))) for i in idx}
    moved = {perm[i]: r for i, r in radii.items()}

    def relabel(e):
        return Expression([t.relabel(perm) for t in e.terms], realization, moved)

    e = Expression(terms, realization, radii)
    assert (canonicalize(relabel(e)).to_json()
            == canonicalize(relabel(canonicalize(e))).to_json())


@st.composite
def evaluated_expressions(draw):
    """Renormalized correlator of a random word of length 1 to 4 under a
    random scheme (drop-loops, a mu family, or the dotted pairing in the
    unitary sector), each insertion at radius 1, 1/2 or 2/3."""
    realization = draw(st.sampled_from(("K", "A")))
    currents = CURRENTS_K if realization == "K" else CURRENTS_A
    names = tuple(draw(st.lists(st.sampled_from(currents), min_size=1, max_size=4)))
    sector = draw(st.sampled_from(("nonunitary", "unitary")))
    cfg = SectorConfig(realization, sector)
    radii = tuple(draw(st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(2, 3))))
                  for _ in names)
    scales = {k: draw(st.fractions(-3, 3, max_denominator=7)) for k in range(2, 5)}
    default = draw(st.fractions(-3, 3, max_denominator=7))
    policies = ["drop-loops", "mu"] + (["unitary-dotted"] if sector == "unitary" else [])
    policy = draw(st.sampled_from(policies))
    if policy == "drop-loops":
        scheme = RenormScheme.drop_loops(cfg)
    elif policy == "mu":
        scheme = RenormScheme.mu_family(cfg, entries=scales, default=default)
    else:
        scheme = RenormScheme.unitary_dotted(cfg, entries=scales, default=default)
    return evaluate_correlator(CurrentWord(names, radii), scheme)


@LAWS
@given(evaluated_expressions())
def test_json_round_trip_is_byte_exact(e):
    text = e.to_json()
    assert Expression.from_json(text).to_json() == text


@LAWS
@given(raw_expressions())
def test_json_round_trip_of_raw_terms(raw):
    terms, realization = raw
    text = Expression(terms, realization, {0: Fraction(1, 3), 1: 0.5}).to_json()
    assert Expression.from_json(text).to_json() == text


def _fractions(lo):
    """Rational n/d with lo <= n < d, d <= 12."""
    return st.integers(2, 12).flatmap(lambda d: st.integers(lo, d - 1).map(
        lambda n: Fraction(n, d)))


@st.composite
def raw_correlators_inside(draw):
    """The raw correlator of a random word of length 1 to 3 in any of the four
    sectors, each insertion at a rational radius in (0, 1) and angle."""
    realization = draw(st.sampled_from(("K", "A")))
    currents = CURRENTS_K if realization == "K" else CURRENTS_A
    names = tuple(draw(st.lists(st.sampled_from(currents), min_size=1, max_size=3)))
    cfg = SectorConfig(realization, draw(st.sampled_from(("nonunitary", "unitary"))))
    points = {k: CirclePoint(draw(_fractions(1)), draw(_fractions(0))) for k in range(len(names))}
    radii = {k: pt.r for k, pt in points.items()}
    return correlator_expression(names, cfg, radii), points


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(raw_correlators_inside())
def test_canonicalize_keeps_the_pointwise_value_inside_the_disc(case):
    raw, points = case
    seq = XiSequence.geometric(Fraction(1, 2))

    def value(e):
        return expression_value(e, points, seq, trunc=8, kappa=0.7, p=0.3)

    want = value(raw)
    assert abs(value(canonicalize(raw)) - want) <= 1e-9 * max(1.0, abs(want))
