"""Checks of the commutator machinery itself: affine relations inside
correlators, Hermiticity of the renormalized pairing, independence from the
loop scales, and the smeared Gram matrices.

The expected commutator tables live in loopcorr.verify._RELATIONS; here we
pin a few of them to explicit token forms and drive the report generators
the acceptance suite relies on.
"""

import itertools
from fractions import Fraction

import pytest

from loopcorr.algebra import CURRENT_CHARGE, CURRENTS_A, CURRENTS_K, SectorConfig
from loopcorr.distributions import Coeff, canonicalize, smear
from loopcorr.kernels import XiSequence
from loopcorr.renorm import CurrentWord, RenormScheme, evaluate_correlator, symbolic_correlator
from loopcorr.verify import (
    CommutatorTestCase,
    _word_scale_sensitive,
    check_affine_relations,
    check_hermiticity,
    commutator_in_correlator,
    commutator_scale_blind,
    gram_matrix,
    mu_independence,
    relation_rhs,
    star_word,
)

K = SectorConfig(realization="K", sector="nonunitary")
A = SectorConfig(realization="A", sector="nonunitary")
KU = SectorConfig(realization="K", sector="unitary")
AU = SectorConfig(realization="A", sector="unitary")
DROP_K = RenormScheme.drop_loops(K)
DROP_A = RenormScheme.drop_loops(A)
MU_K = RenormScheme.mu_family(K, entries={2: 1, 3: Fraction(1, 2)})
SEQ = XiSequence.geometric(Fraction(1, 2))


def _co(re=0, im=0, **kw):
    return Coeff.unit(re=re, im=im, **kw)


def _tdict(expr):
    out = {}
    for t in expr.terms:
        assert t.key() not in out
        out[t.key()] = t.coeff
    return out


def test_central_commutator_is_a_delta_prime():
    # <[J3(u1), J3(u2)]> = -8i kappa delta'(u1 - u2)
    case = CommutatorTestCase((), ("J3", "J3"), (), DROP_K)
    expr = commutator_in_correlator(case)
    assert len(expr.terms) == 1
    t = expr.terms[0]
    assert t.deltas == ((0, 1, 1),)
    assert not (t.smooth or t.exps)
    assert t.coeff == _co(im=-8, kappa=1)


def test_like_charged_currents_commute():
    for scheme, pair, ctx in (
        (DROP_K, ("J+", "J+"), ()),
        (DROP_K, ("J+", "J+"), ("J-", "J-")),
        (DROP_A, ("E", "E"), ()),
        (DROP_A, ("F", "F"), ("E",)),
    ):
        case = CommutatorTestCase((), pair, ctx, scheme)
        assert commutator_in_correlator(case).terms == []


def test_ef_commutator_matches_h_insertion():
    # [E(u1), F(u2)] = H(u2) delta(u1-u2) - 4i kappa delta'(u1-u2).  The
    # one-point function of H vanishes (odd self-kernel, no rho part), so an
    # H spectator is added to make the structure term visible.
    case = CommutatorTestCase((), ("E", "F"), (), DROP_A)
    comm = commutator_in_correlator(case)
    rhs = canonicalize(relation_rhs(case))
    assert _tdict(comm) == _tdict(rhs)
    assert any(t.deltas == ((0, 1, 1),) for t in comm.terms)

    spect = CommutatorTestCase((), ("E", "F"), ("H",), DROP_A)
    comm2 = commutator_in_correlator(spect)
    assert canonicalize(comm2 - relation_rhs(spect)).terms == []
    assert any((0, 1, 0) in t.deltas for t in comm2.terms)


def test_structure_commutator_inside_context():
    # [J3, J+] against a J- spectator: residual vanishes even though both
    # sides are nonzero expressions.
    case = CommutatorTestCase((), ("J3", "J+"), ("J-",), DROP_K)
    comm = commutator_in_correlator(case)
    assert comm.terms
    assert canonicalize(comm - relation_rhs(case)).terms == []


def test_affine_relations_report_no_context():
    for scheme in (DROP_K, DROP_A, MU_K):
        report = check_affine_relations(scheme, max_context=0)
        assert len(report.cases) == 9
        assert report.all_ok
        assert all("ok" in line for line in report.lines())


def test_star_word_signs():
    assert star_word(("J3",)) == (("J3",), -1)
    assert star_word(("J+", "J-")) == (("J+", "J-"), 1)
    assert star_word(("J+", "J3", "J-")) == (("J+", "J3", "J-"), -1)
    assert star_word(("E", "F", "H")) == (("H", "F", "E"), -1)


def test_hermiticity_residuals_vanish():
    for scheme, names in (
        (DROP_K, ("J+", "J-")),
        (MU_K, ("J+", "J-")),
        (DROP_K, ("J3", "J+", "J3", "J-")),
        (DROP_K, ("J3",)),
        (DROP_A, ("E", "F")),
        (DROP_A, ("H", "E", "F")),
    ):
        residual = check_hermiticity(CurrentWord.from_names(names), scheme)
        assert residual.terms == []


def _unitary_schemes(cfg):
    """drop-loops, a mu family, and the dotted scheme under each rule with
    the same scales."""
    scales = {2: 1, 3: Fraction(1, 2)}
    return (RenormScheme.drop_loops(cfg),
            RenormScheme.mu_family(cfg, entries=scales, default=0),
            RenormScheme.unitary_dotted(cfg, entries=scales, default=0),
            RenormScheme.unitary_dotted(cfg, entries=scales, default=0,
                                        dotted_rule="either-side"))


@pytest.mark.parametrize("cfg", [KU, AU], ids=["KU", "AU"])
def test_unitary_relations_hold_in_short_contexts(cfg):
    # the unitary sector adds the dotted pairing D, and in A the zero-mode
    # constant 1/(2 xi0), to every a/b crossing
    for scheme in _unitary_schemes(cfg):
        report = check_affine_relations(scheme, max_context=1)
        assert len(report.cases) == 63
        assert report.all_ok, [line for line in report.lines() if "FAIL" in line][:5]
    if cfg.realization == "K":
        # in K both dotted rules also hold at contexts of length <= 2
        for scheme in _unitary_schemes(cfg)[2:]:
            report = check_affine_relations(scheme, max_context=2)
            assert len(report.cases) == 306
            assert report.all_ok, [line for line in report.lines() if "FAIL" in line][:5]


@pytest.mark.parametrize("cfg", [KU, AU], ids=["KU", "AU"])
def test_unitary_pairing_is_hermitian(cfg):
    currents = CURRENTS_K if cfg.realization == "K" else CURRENTS_A
    dotted = 0   # words whose correlator carries the D pairing
    for scheme in _unitary_schemes(cfg)[1:]:
        for length in range(1, 4):
            for names in itertools.product(currents, repeat=length):
                word = CurrentWord.from_names(names)
                residual = check_hermiticity(word, scheme)
                assert residual.terms == [], (scheme.policy, scheme.dotted_rule, names)
                dotted += any(f == "D" for t in evaluate_correlator(word, scheme).terms
                              for f, *_ in t.smooth)
    assert dotted


def test_hermiticity_of_smeared_numbers():
    # Smear both sides of the adjoint identity separately: the pairing
    # number of W against tests f equals sign * conj of the starred word
    # against the reversed conjugate tests.
    word = CurrentWord.from_names(("J+", "J-"))
    tests = [{0: 1.0, 1: 0.3 - 0.2j}, {-1: 1.25, 2: 0.5j}]
    lhs = smear(evaluate_correlator(word, DROP_K),
                dict(enumerate(tests)), SEQ, kappa=0.7, p=0.3, trunc=24)
    starred, sign = star_word(word.names)
    back = [{-m: c.conjugate() for m, c in f.items()} for f in reversed(tests)]
    rhs = smear(evaluate_correlator(CurrentWord.from_names(starred), DROP_K),
                dict(enumerate(back)), SEQ, kappa=0.7, p=0.3, trunc=24)
    assert abs(lhs - sign * rhs.conjugate()) <= 1e-10


def test_mu_independence_within_scope():
    fam_a = RenormScheme.mu_family(K, default=0)
    fam_b = RenormScheme.mu_family(K, entries={2: 1, 3: Fraction(1, 2), 4: Fraction(1, 3)})
    cases = [
        CommutatorTestCase((), ("J+", "J-"), (), fam_a),
        CommutatorTestCase(("J3",), ("J-", "J+"), ("J3",), fam_a),
        CommutatorTestCase((), ("J3", "J3"), ("J3", "J3"), fam_a),
    ]
    assert all(commutator_scale_blind(c) for c in cases)
    assert mu_independence(cases, fam_a, fam_b).ok


def test_mu_independence_exercises_three_cycles():
    # <[E,F] E>: the orderings contain 2- and 3-cycles, whose renormalized
    # remnants must cancel in the antisymmetrized difference, while the
    # substituted words (HE and E) carry no cycles at all.
    fam_a = RenormScheme.mu_family(A, default=0)
    fam_b = RenormScheme.mu_family(A, entries={2: 1, 3: Fraction(1, 2), 4: Fraction(1, 3)})
    case = CommutatorTestCase((), ("E", "F"), ("E",), fam_a)
    assert commutator_scale_blind(case)
    assert mu_independence([case], fam_a, fam_b).ok


def test_charged_spectators_shift_the_commutator():
    # Outside the blind scope the dependence is real and exactly the central
    # constant times the spectator-loop shift: here output(mu2=0) minus
    # output(mu2=1) is -2i kappa delta'(u1-u2) delta(u3-u4).
    fam_a = RenormScheme.mu_family(K, default=0)
    fam_b = RenormScheme.mu_family(K, entries={2: 1, 3: Fraction(1, 2), 4: Fraction(1, 3)})
    case = CommutatorTestCase((), ("J3", "J3"), ("J+", "J-"), fam_a)
    assert not commutator_scale_blind(case)
    assert not mu_independence([case], fam_a, fam_b).ok
    ca = commutator_in_correlator(case)
    cb = commutator_in_correlator(CommutatorTestCase((), ("J3", "J3"), ("J+", "J-"), fam_b))
    diff = canonicalize(ca - cb)
    assert len(diff.terms) == 1
    t = diff.terms[0]
    assert t.deltas == ((0, 1, 1), (2, 3, 0))
    assert t.coeff == _co(im=-2, kappa=1)


def test_scale_blind_predicate_matches_engine_on_k_sweep():
    fam_a = RenormScheme.mu_family(K, default=0)
    fam_b = RenormScheme.mu_family(K, entries={2: 1, 3: Fraction(1, 2), 4: Fraction(1, 3)})
    contexts = [(), ("J3",), ("J+",), ("J-",), ("J3", "J3"), ("J+", "J-")]
    cases = []
    for x in CURRENTS_K:
        for y in CURRENTS_K:
            for ctx in contexts:
                for cut in range(len(ctx) + 1):
                    cases.append(CommutatorTestCase(ctx[:cut], (x, y), ctx[cut:], fam_a))
    rep = mu_independence(cases, fam_a, fam_b)
    for case, detail in zip(cases, rep.details):
        assert commutator_scale_blind(case) == detail["identical"]


def test_scale_sensitivity_rule_matches_symbolic_engine():
    # a mu_k monomial survives on the circle exactly where the word-level
    # rule says so: every word of length <= 3, and every length-4 word with
    # two charged currents (where an adjacent pair with two spectators keeps
    # its remnant)
    checked = 0
    for cfg, currents in ((K, CURRENTS_K), (A, CURRENTS_A)):
        words = [w for n in (1, 2, 3) for w in itertools.product(currents, repeat=n)]
        words += [w for w in itertools.product(currents, repeat=4)
                  if sum(nm in CURRENT_CHARGE for nm in w) == 2]
        for names in words:
            expr = symbolic_correlator(CurrentWord.from_names(names), cfg, None)
            scaled = any(t.coeff.has_mu for t in expr.terms)
            assert scaled == _word_scale_sensitive(names, cfg.realization), names
            checked += 1
    assert checked == 126


def test_adjacent_pair_with_two_spectators_is_not_blind():
    # J- [J3, J+] J3 J3 substitutes J- J+ J3 J3, whose 2-loop remnant survives
    fam_a = RenormScheme.mu_family(K, default=0)
    fam_b = RenormScheme.mu_family(K, entries={2: 1, 3: Fraction(1, 2), 4: Fraction(1, 3)})
    case = CommutatorTestCase(("J-",), ("J3", "J+"), ("J3", "J3"), fam_a)
    assert not commutator_scale_blind(case)
    assert not mu_independence([case], fam_a, fam_b).ok


def test_gram_vacuum_and_duplicates():
    rep = gram_matrix([((), [])], DROP_K, SEQ, kappa=0.7, p=0.3)
    assert rep.matrix.shape == (1, 1)
    assert abs(rep.matrix[0, 0] - 1) <= 1e-12
    assert rep.positive == 1 and rep.negative == 0 and rep.null == 0

    rep2 = gram_matrix([((), []), ((), [])], DROP_K, SEQ)
    assert rep2.null >= 1
    assert rep2.hermiticity_residual <= 1e-10


def test_gram_matrix_is_hermitian():
    entries = [
        ((), []),
        (("J3",), [{1: 1.0, -1: 0.5}]),
        (("J+",), [{0: 1.0, 2: 0.25j}]),
    ]
    rep = gram_matrix(entries, DROP_K, SEQ, kappa=0.7, p=0.3, trunc=24)
    assert rep.matrix.shape == (3, 3)
    assert abs(rep.matrix[2, 2]) > 1e-6
    assert rep.hermiticity_residual <= 1e-10
    assert rep.positive + rep.negative + rep.null == 3
    assert len(rep.lines()) >= 3
