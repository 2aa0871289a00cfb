"""Algebraic laws of ``canonicalize`` on the raw renormalized terms of random
K and A words of length <= 4 in either sector: the canonical form does not
depend on the order of the terms, is a fixed point, and can be taken of any
part of a sum first."""

import functools

from hypothesis import given, settings, strategies as st

from loopcorr.algebra import CURRENTS_A, CURRENTS_K, SectorConfig
from loopcorr.diagrams import enumerate_diagrams
from loopcorr.distributions import Expression, canonicalize
from loopcorr.renorm import renormalize_diagram

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
