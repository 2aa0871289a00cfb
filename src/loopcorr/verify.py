"""Independent cross-checks for the correlation engine.

The centerpiece is :func:`gaussian_oracle`, a second, structurally different
evaluation of current correlators.  Instead of enumerating contraction
diagrams it works in a mode-truncated model of the loop algebra:

* a and b letters are eliminated by recursive normal ordering -- a moves
  right (it kills the state on the right), b moves left (it kills it on the
  left), and every crossing picks up the regulated commutator, a finite
  geometric-type sum over modes |n| <= trunc.  The first a/b letter of a
  word moves, so only a ever crosses another a/b letter;
* the residual word contains only exponential letters (alpha^+-, e^+-, their
  angle derivatives and the consuming quadratic letters) plus Heisenberg
  insertions, and is evaluated as a Gaussian expectation: exponentials give
  exp(<Gamma, C Gamma>/2), derivative letters give linear factors paired by
  Isserlis' theorem, rho insertions pair independently with mean p.

Every rule follows from two constants of the realization: the field scale
s, with X^q = e^{s q phi} (s = i in K, 1 in A), and the commutator constant
c = i s (-1 in K, i in A).  With delta the regulated delta in the a/b angle:

    letter             [a, letter]                         Gaussian factors
    X^q                c q delta X^q                       Gamma of charge s q
    dX^q               -c q delta' X^q + c q delta dX^q    the same, linear c q
    terminal X^-dX^+   -c delta'                           linear factor c

The letters come from the alphabet of :mod:`loopcorr.algebra`; the
constants live here, apart from :func:`~loopcorr.algebra.primitive_commutator`,
so the oracle stays an independent reference.  :func:`gaussian_oracle` and
:func:`oracle_letters` check every letter once, at entry.

Values are plain complex numbers by default, or exact sympy expressions with
``exact=True`` (points with rational radius/turn; kappa and p may then even
be sympy symbols).  Each public evaluator reads ``exact`` once, at entry,
into the :class:`~loopcorr.kernels.Arith` record of :func:`~loopcorr.kernels.arith`
and hands that record down; nothing below branches on the flag except
:func:`_coeff_value`, which converts an engine coefficient.

:func:`expression_value` evaluates a token expression pointwise with every
kernel truncated at the same mode cutoff, which is what makes direct
engine-versus-oracle comparisons meaningful.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .algebra import (
    A_LETTERS,
    CURRENT_CHARGE,
    CURRENT_STAR,
    CURRENTS_A,
    CURRENTS_K,
    DERIV_BASE,
    EXP_CHARGE,
    EXP_LETTERS,
    HALF,
    K_LETTERS,
    TERMINALS,
    SectorConfig,
    expand_current,
)
from .distributions import (
    Coeff,
    Expression,
    canonicalize,
    charge_vanishes,
    conjugate,
    d_du,
    gaussian_rule,
    smear,
)
from .errors import RealizationMismatch
from .kernels import Arith, CirclePoint, XiSequence, arith, mode_series, series_coefficients
from .renorm import CurrentWord, RenormScheme, evaluate_correlator

logger = logging.getLogger(__name__)

Word = Tuple[Tuple[str, int], ...]

# each exponential-type letter as (q, l, base): the letter is X^q times,
# when l != 0, the factor l s phi', and base is the letter without that factor
_ROLES: Dict[str, Tuple[int, int, Tuple[str, ...]]] = {
    **{x: (EXP_CHARGE[x], 0, (x,)) for x in EXP_LETTERS},
    **{d: (EXP_CHARGE[d], EXP_CHARGE[d], (b,)) for d, b in DERIV_BASE.items()},
    **{t: (0, 1, ()) for t in TERMINALS},
}


def _constants(realization: str, ar: Arith):
    """(s, c) of the realization: X^q = e^{s q phi} and c = i s."""
    return (ar.i, -1) if realization == "K" else (ar.rat(1), ar.i)


def _check_letter(name: str, cfg: SectorConfig) -> None:
    """Raise ``RealizationMismatch`` for a letter of the other realization
    and ``ValueError`` for a name outside the primitive alphabet."""
    for realization, letters in (("K", K_LETTERS), ("A", A_LETTERS)):
        if name in letters and cfg.realization != realization:
            raise RealizationMismatch(f"letter {name} needs the {realization} realization")
    if name not in _ROLES and name not in ("a", "b", "h", "rho"):
        raise ValueError(f"unknown letter {name!r}")


# ---------------------------------------------------------------------------
# inputs and values shared by the oracle and expression_value
# ---------------------------------------------------------------------------


class _Points(dict):
    """Point values by insertion index; a missing one is named."""

    def __missing__(self, k):
        raise ValueError(f"no point given for insertion {k}")


def _point_values(points, trunc: int, ar: Arith) -> _Points:
    """Each point of a mapping or sequence, by its index, as a number of the
    arithmetic.  Raises ``ValueError`` for a point outside the closed unit
    disc or a negative mode truncation."""
    if not isinstance(points, Mapping):
        points = dict(enumerate(points))
    for pt in points.values():
        if not (0 <= float(pt.r) <= 1):
            raise ValueError(f"radius {pt.r} outside [0, 1]")
    if trunc < 0:
        raise ValueError(f"the mode truncation must be >= 0, got {trunc}")
    return _Points((k, ar.point(pt)) for k, pt in points.items())


def _coeff_value(c: Coeff, kappa, p, xi0, ar: Arith):
    if not ar.exact:
        return c.subs_numeric(kappa=kappa, p=p, xi0=xi0)
    import sympy as sp

    subs = {sp.Symbol("kappa", positive=True): kappa,
            sp.Symbol("p", positive=True): p,
            sp.Symbol("xi0", positive=True): xi0}
    return c.to_sympy().subs(subs, simultaneous=True)


def _pair_series(z, w, k: int, family: str, seq, N: int, ar: Arith):
    """The mode series of a family at the point pair (z, w)."""
    return mode_series(z * w.conjugate(), z.conjugate() * w, k, family, seq, N, ar.exact)


# ---------------------------------------------------------------------------
# layer 2: Gaussian expectation of a/b-free words
# ---------------------------------------------------------------------------


def _psi(z, m: int, one):
    if m == 0:
        return one
    if m > 0:
        return z ** m
    return z.conjugate() ** (-m)


def _cov_pair(v: Dict[int, object], w: Dict[int, object], cov, zero):
    """<v, C w> = sum_m c_|m| v_m w_{-m}, with c the ``NK`` or ``NA`` table
    of :func:`series_coefficients`."""
    total = zero
    for m, vv in v.items():
        ww = w.get(-m)
        if ww is None:
            continue
        total = total + cov[abs(m)] * vv * ww
    return total


def _isserlis(items, single, pair, one):
    """Isserlis' sum over the items: every way of matching some of them in
    pairs, each pair weighted pair(x, y) and each unmatched item single(x).
    The weights are computed once, before the recursion."""
    n = len(items)
    singles = [single(x) for x in items]
    pairs = {(a, b): pair(items[a], items[b]) for a in range(n) for b in range(a + 1, n)}

    def total(idx):
        if not idx:
            return one
        first, rest = idx[0], idx[1:]
        out = singles[first] * total(rest)
        for k in range(len(rest)):
            out = out + pairs[first, rest[k]] * total(rest[:k] + rest[k + 1:])
        return out

    return total(tuple(range(n)))


def _mode_eval(letters: Word, zs: Mapping[int, object], cfg: SectorConfig,
               seq: XiSequence, N: int, kappa, p, ar: Arith):
    """Gaussian expectation of a word free of a/b/h letters, with ``zs`` the
    point values.

    Exponentials are *unnormalized*: E[e^{i q phi(z)}] = e^{-q^2 N(z,z)/2},
    matching the self-energy convention of the engine's exponential tokens.
    Rho insertions have mean p, and each pair of them 2 kappa sum n x^n with
    x = zi conj(zj) (K) or conj(zi) zj (A).
    """
    zero, unit = ar.zero, ar.rat(1)
    is_k = cfg.realization == "K"
    s, c = _constants(cfg.realization, ar)
    gammas: List[Dict[int, object]] = []
    factors: List[Dict[int, object]] = []
    rhos: List[object] = []
    charges: List[int] = []

    for name, idx in letters:
        z = zs[idx]
        if name == "rho":
            rhos.append(z)
            continue
        q, l, _ = _ROLES[name]
        charges.append(q)
        if q:  # K drops the zero mode of phi
            gammas.append({m: s * q * _psi(z, m, unit) for m in range(-N, N + 1)
                           if m or not is_k})
        if l:
            factors.append({m: c * l * m * _psi(z, m, unit) for m in range(-N, N + 1) if m})

    if charge_vanishes(cfg.realization, charges):
        return zero

    gamma_total: Dict[int, object] = {}
    for g in gammas:
        for m, v in g.items():
            gamma_total[m] = gamma_total.get(m, zero) + v

    cov = series_coefficients("NK" if is_k else "NA", seq, N, ar.exact)
    value = ar.exp(_cov_pair(gamma_total, gamma_total, cov, zero) / 2)
    value = value * _isserlis(factors, lambda f: _cov_pair(f, gamma_total, cov, zero),
                              lambda f, g: _cov_pair(f, g, cov, zero), ar.one)

    def rho_pair(zi, zj):
        x = zi * zj.conjugate() if is_k else zi.conjugate() * zj
        return 2 * kappa * mode_series(x, 0, 0, "wavy", None, N, ar.exact)

    return value * _isserlis(rhos, lambda z: p, rho_pair, ar.one)


# ---------------------------------------------------------------------------
# layer 1: recursive a/b elimination
# ---------------------------------------------------------------------------


def _comm_value(right: str, z_ab, z_r, c, cfg: SectorConfig, seq: XiSequence,
                N: int, ar: Arith):
    """[a(z_ab), right(z_r)] as a list of (scalar, replacement letters), c
    the commutator constant of the realization.  b has the same commutator
    with every letter but a and b, and it never crosses either."""

    def delta(k):
        # k-th derivative of the regulated delta in the a/b angle; the
        # derivative in the other angle is minus the k = 1 series
        return _pair_series(z_ab, z_r, k, "delta", None, N, ar)

    if right in ("a", "b"):
        if right == "a" or not cfg.unitary:
            return []
        val = _pair_series(z_ab, z_r, 0, "D", seq, N, ar)
        if cfg.realization == "A":
            val = val + 1 / (2 * ar.rat(seq.xi0))
        return [(val, ())]
    if right == "rho":
        return []
    q, l, base = _ROLES[right]
    out = []
    if l:
        out.append((-c * l * delta(1), base))
    if q:
        out.append((c * q * delta(0), (right,)))
    return out


def _reduced_sum(word: Word, zs: Mapping[int, object], cfg: SectorConfig,
                 seq: XiSequence, N: int, kappa, p, ar: Arith,
                 values: Dict[Word, object]):
    """The sum of c times the Gaussian value of each reduced word that
    :func:`_reduced_words` yields; ``values`` holds the value of every
    reduced word met so far in the call, so each is evaluated once."""
    total = ar.zero
    for c, ls in _reduced_words(word, zs, cfg, seq, N, ar):
        value = values.get(ls)
        if value is None:
            value = values[ls] = _mode_eval(ls, zs, cfg, seq, N, kappa, p, ar)
        total = total + c * value
    return total


def oracle_letters(word: Sequence[Tuple[str, int]], points: Mapping[int, CirclePoint],
                   cfg: SectorConfig, seq: XiSequence, *, trunc: int = 16,
                   kappa=1, p=0, exact: bool = False):
    """Expectation of a word of primitive letters (name, point index): the
    sum :func:`_reduced_sum` makes.  Raises ``ValueError`` for a point
    outside the closed unit disc, a missing point the word needs,
    ``trunc < 0`` or an unknown letter, and ``RealizationMismatch`` for a
    letter of the other realization."""
    for name, _ in word:
        _check_letter(name, cfg)
    ar = arith(exact)
    zs = _point_values(points, trunc, ar)
    return _reduced_sum(tuple(word), zs, cfg, seq, trunc, kappa, p, ar, {})


def _reduced_words(word: Word, zs: Mapping[int, object], cfg: SectorConfig,
                   seq: XiSequence, trunc: int, ar: Arith) -> Iterator[Tuple[object, Word]]:
    """(c, letters) for every word free of a/b/h letters that the word
    rewrites to, c its coefficient.

    The first a/b letter is commuted across the whole word in a single pass
    (a to the right end, where it annihilates; b to the left end, crossing
    X at the cost -[b, X]); every crossing emits a commutator branch with
    one a/b letter fewer, so the rewriting terminates.
    """
    half = ar.rat(HALF)
    c = _constants(cfg.realization, ar)[1]
    stack: List[Tuple[object, Word]] = [(ar.one, tuple(word))]
    while stack:
        coef, ls = stack.pop()
        hpos = next((k for k, (nm, _) in enumerate(ls) if nm == "h"), None)
        if hpos is not None:
            _, ix = ls[hpos]
            for repl in ("a", "b"):
                stack.append((coef * half, ls[:hpos] + ((repl, ix),) + ls[hpos + 1:]))
            continue
        k = next((k for k, (nm, _) in enumerate(ls) if nm in ("a", "b")), None)
        if k is None:
            yield coef, ls
            continue
        nm, ix = ls[k]
        rest = ls[:k] + ls[k + 1:]  # the word without the moving letter
        # the letters crossed, how far each sits left of its place in rest
        if nm == "a":
            crossed, off, sign_coef = range(k + 1, len(ls)), 1, coef
        else:
            crossed, off, sign_coef = range(k - 1, -1, -1), 0, -coef
        for j in crossed:
            other, jx = ls[j]
            for val, repl in _comm_value(other, zs[ix], zs[jx], c, cfg, seq, trunc, ar):
                new = rest[:j - off] + tuple((r, jx) for r in repl) + rest[j - off + 1:]
                stack.append((sign_coef * val, new))
        # a/b letter that reaches the end of the word annihilates: no term


def gaussian_oracle(names: Sequence[str], points: Sequence[CirclePoint],
                    cfg: SectorConfig, seq: XiSequence, *, trunc: int = 16,
                    kappa=1, p=0, exact: bool = False):
    """<X_1(z_1) ... X_n(z_n)> in the truncated mode model.

    Each name is a composite current (J+, J-, J3, E, F, H) or a primitive
    letter; insertion k sits at points[k].  Completely independent of the
    diagram enumeration: currents are expanded, a/b letters are normal
    ordered away, and the residue is evaluated by Gaussian pairing.
    Raises ``ValueError`` for a point outside the closed unit disc,
    ``trunc < 0`` or an unknown letter, and ``RealizationMismatch`` for a
    letter or current of the other realization.
    """
    if len(points) != len(names):
        raise ValueError("need exactly one point per insertion")
    ar = arith(exact)
    zs = _point_values(points, trunc, ar)
    xi0 = ar.rat(seq.xi0)
    expansions: List[List[Tuple[object, Word]]] = []
    for k, nm in enumerate(names):
        if nm in CURRENTS_K + CURRENTS_A:
            opts = []
            for term in expand_current(nm, k, cfg):
                cval = _coeff_value(term.coeff, kappa, p, xi0, ar)
                opts.append((cval, tuple((s, k) for s in term.symbols)))
            expansions.append(opts)
        else:
            _check_letter(nm, cfg)
            expansions.append([(ar.one, ((nm, k),))])

    total = ar.zero
    values: Dict[Word, object] = {}
    for combo in itertools.product(*expansions):
        cval = ar.one
        letters: Word = ()
        for c, ls in combo:
            cval = cval * c
            letters = letters + ls
        total = total + cval * _reduced_sum(letters, zs, cfg, seq, trunc, kappa, p, ar, values)
    return total


# ---------------------------------------------------------------------------
# pointwise evaluation of token expressions (for engine-oracle comparison)
# ---------------------------------------------------------------------------


def expression_value(expr: Expression, points: Mapping[int, CirclePoint],
                     seq: XiSequence, *, trunc: int = 16, kappa=1, p=0,
                     exact: bool = False):
    """Evaluate a token expression at a fixed point configuration, with every
    kernel series truncated at mode ``trunc`` -- the same regularization the
    oracle uses, so values are directly comparable.  Each pair series is
    computed once per call.  Raises ``ValueError`` for a point outside the
    closed unit disc, a token on an insertion without a point or
    ``trunc < 0``."""
    ar = arith(exact)
    zs = _point_values(points, trunc, ar)
    realization = expr.realization
    memo: Dict[tuple, object] = {}

    def series(family: str, k: int, i: int, j: int):
        key = (family, k, i, j)
        if key not in memo:
            memo[key] = _pair_series(zs[i], zs[j], k, family, seq, trunc, ar)
        return memo[key]

    total = ar.zero
    xi0 = ar.rat(seq.xi0)
    work = list(expr.terms)
    flat = []
    while work:
        t = work.pop()
        if t.dmarks:
            # angle derivatives are exact on regulated tokens at any radius,
            # so pending marks can be expanded on the spot
            base = t._replace(dmarks=t.dmarks[1:])
            work.extend(d_du(base, t.dmarks[0], realization))
        else:
            flat.append(t)
    for t in flat:
        v = _coeff_value(t.coeff, kappa, p, xi0, ar)
        factors = [("delta", k, i, j) for (i, j, k) in t.deltas] + list(t.smooth)
        for (family, k, i, j) in factors:
            v = v * series(family, k, i, j)
        if t.exps:
            if charge_vanishes(realization, (q for _, q in t.exps)):
                continue
            family, sign = gaussian_rule(realization)
            arg = ar.zero
            for a, (pa, qa) in enumerate(t.exps):
                arg = arg + sign * qa * qa * series(family, 0, pa, pa) / 2
                for pb, qb in t.exps[a + 1:]:
                    arg = arg + sign * qa * qb * series(family, 0, pa, pb)
            v = v * ar.exp(arg)
        total = total + v
    return total


# ---------------------------------------------------------------------------
# theorem-level checks
# ---------------------------------------------------------------------------


def _co(re=0, im=0, **kw):
    return Coeff.unit(re=re, im=im, **kw)


# [xi(u1), eta(u2)] = sum_c coeff_c * X_c(u2) * delta(u1-u2)
#                     + central * delta'(u1-u2),  delta' = d/du1 of delta.
# These signs are the ones the realization actually satisfies; they were
# fixed independently by the classical single-mode model and by the Gaussian
# oracle before the diagram engine existed.
_RELATIONS: Dict[str, Dict[Tuple[str, str], Tuple[Tuple[Tuple[str, Coeff], ...], Coeff]]] = {
    "K": {
        ("J+", "J-"): ((("J3", _co(im=1)),), _co(im=4, kappa=1)),
        ("J-", "J+"): ((("J3", _co(im=-1)),), _co(im=4, kappa=1)),
        ("J3", "J+"): ((("J+", _co(im=-2)),), Coeff.zero()),
        ("J+", "J3"): ((("J+", _co(im=2)),), Coeff.zero()),
        ("J3", "J-"): ((("J-", _co(im=2)),), Coeff.zero()),
        ("J-", "J3"): ((("J-", _co(im=-2)),), Coeff.zero()),
        ("J3", "J3"): ((), _co(im=-8, kappa=1)),
        ("J+", "J+"): ((), Coeff.zero()),
        ("J-", "J-"): ((), Coeff.zero()),
    },
    "A": {
        ("E", "F"): ((("H", _co(re=1)),), _co(im=-4, kappa=1)),
        ("F", "E"): ((("H", _co(re=-1)),), _co(im=-4, kappa=1)),
        ("H", "E"): ((("E", _co(re=2)),), Coeff.zero()),
        ("E", "H"): ((("E", _co(re=-2)),), Coeff.zero()),
        ("H", "F"): ((("F", _co(re=-2)),), Coeff.zero()),
        ("F", "H"): ((("F", _co(re=2)),), Coeff.zero()),
        ("H", "H"): ((), _co(im=-8, kappa=1)),
        ("E", "E"): ((), Coeff.zero()),
        ("F", "F"): ((), Coeff.zero()),
    },
}


@dataclass(frozen=True)
class CommutatorTestCase:
    """A commutator pair embedded in a spectator context."""

    prefix: Tuple[str, ...]
    pair: Tuple[str, str]
    suffix: Tuple[str, ...]
    scheme: RenormScheme


def commutator_in_correlator(case: CommutatorTestCase) -> Expression:
    """Canonicalized <prefix [xi(u_i), eta(u_{i+1})] suffix> where i is the
    first slot after the prefix.  The reversed ordering keeps each current
    at its own angle, so its tokens are relabeled back before subtracting."""
    i = len(case.prefix)
    xi, eta = case.pair
    w1 = CurrentWord.from_names(case.prefix + (xi, eta) + case.suffix)
    w2 = CurrentWord.from_names(case.prefix + (eta, xi) + case.suffix)
    e1 = evaluate_correlator(w1, case.scheme)
    e2 = evaluate_correlator(w2, case.scheme)
    swap = {i: i + 1, i + 1: i}
    swapped = Expression([t.relabel(swap) for t in e2.terms],
                         e2.realization, dict(e2.radii))
    return canonicalize(e1 - swapped)


def relation_rhs(case: CommutatorTestCase) -> Expression:
    """The claimed value of the commutator: structure currents inserted at
    u_{i+1} times delta(u_i - u_{i+1}), plus the central delta' term, each
    evaluated through the ordinary correlator pipeline."""
    i = len(case.prefix)
    cfg = case.scheme.sector
    currents, central = _RELATIONS[cfg.realization][case.pair]
    # (word, coefficient, order of the delta derivative, slots it fills)
    parts = [(case.prefix + (name,) + case.suffix, coeff, 0, 1) for name, coeff in currents]
    if not central.is_zero:
        parts.append((case.prefix + case.suffix, central, 1, 2))
    terms = []
    for names, coeff, k, gap in parts:
        e = evaluate_correlator(CurrentWord.from_names(names), case.scheme)
        shift = {j: j + gap for j in range(i, len(names))}
        for t in e.terms:
            t2 = t.relabel(shift) if shift else t
            terms.append(t2._replace(coeff=t2.coeff * coeff,
                                     deltas=tuple(sorted(t2.deltas + ((i, i + 1, k),)))))
    return Expression(terms, cfg.realization, {})


@dataclass
class RelationReport:
    realization: str
    policy: str
    cases: List[dict] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(c["ok"] for c in self.cases)

    def lines(self) -> List[str]:
        out = []
        for c in self.cases:
            status = "ok" if c["ok"] else f"FAIL ({c['residual_terms']} residual terms)"
            ctx = " in " + "|".join((" ".join(c["prefix"]), " ".join(c["suffix"]))) \
                if (c["prefix"] or c["suffix"]) else ""
            out.append(f"[{c['pair'][0]},{c['pair'][1]}]{ctx}: {status}")
        return out


def _contexts(currents: Sequence[str], max_len: int):
    for total in range(max_len + 1):
        for word in itertools.product(currents, repeat=total):
            for cut in range(total + 1):
                yield word[:cut], word[cut:]


def check_affine_relations(scheme: RenormScheme, max_context: int = 0) -> RelationReport:
    """Every commutator relation of the realization, inside every spectator
    context up to the given length: the canonical residual must vanish.
    Failures are recorded, not raised.  Raises ``ValueError`` for
    ``max_context < 0``, which would check no case."""
    if max_context < 0:
        raise ValueError(f"max_context must be >= 0, got {max_context}")
    cfg = scheme.sector
    currents = CURRENTS_K if cfg.realization == "K" else CURRENTS_A
    report = RelationReport(cfg.realization, scheme.policy)
    for pair in _RELATIONS[cfg.realization]:
        for prefix, suffix in _contexts(currents, max_context):
            case = CommutatorTestCase(prefix, pair, suffix, scheme)
            residual = canonicalize(commutator_in_correlator(case) - relation_rhs(case))
            report.cases.append({
                "pair": pair, "prefix": prefix, "suffix": suffix,
                "residual_terms": len(residual.terms),
                "ok": not residual.terms,
            })
            if residual.terms:
                logger.warning("relation residual for %s in %s|%s: %d terms",
                               pair, prefix, suffix, len(residual.terms))
    return report


def star_word(names: Sequence[str]) -> Tuple[Tuple[str, ...], int]:
    """The adjoint of a current word: reversed order, each current starred.
    Returns the partner word and the accumulated sign."""
    out = []
    sign = 1
    for nm in reversed(tuple(names)):
        partner, s = CURRENT_STAR[nm]
        out.append(partner)
        sign *= s
    return tuple(out), sign


def check_hermiticity(word: CurrentWord, scheme: RenormScheme) -> Expression:
    """Canonical residual of <W> - conj <W*> with the starred word read at
    the reversed angles; exactly zero when the pairing is Hermitian."""
    n = len(word.names)
    lhs = evaluate_correlator(word, scheme)
    starred, sign = star_word(word.names)
    rad = tuple(reversed(word.radii))
    rhs = evaluate_correlator(CurrentWord(starred, rad), scheme)
    rev = {j: n - 1 - j for j in range(n)}
    relabeled = Expression([t.relabel(rev) for t in rhs.terms],
                           rhs.realization,
                           {rev.get(k, k): v for k, v in rhs.radii.items()})
    return canonicalize(lhs - conjugate(relabeled).scale(sign))


def _word_scale_sensitive(names: Tuple[str, ...], realization: str) -> bool:
    """Whether the renormalized correlator of the word retains any loop
    scale on the circle.  Cycles need two charged currents; an unbalanced
    K word vanishes outright, and same-sign pairs keep their exponential
    after collapse, so nothing cancels.  For one opposite-charge pair at
    i < j the collapsed loop leaves a bare delta.  A spectator between the
    charges couples to it through one a- and one b-edge with matching
    signs, so the remnant survives.  A spectator outside the span reaches
    both charges through the same letter with opposite signs; for an
    adjacent pair the remnant cancels exactly when the number of such
    spectators is odd."""
    ch = [(k, CURRENT_CHARGE[nm]) for k, nm in enumerate(names) if nm in CURRENT_CHARGE]
    if len(ch) < 2:
        return False
    if charge_vanishes(realization, (q for _, q in ch)):
        return False
    if len(ch) > 2:
        return True
    (i, qi), (j, qj) = ch
    return qi == qj or j - i > 1 or (len(names) - (j - i + 1)) % 2 == 0


def commutator_scale_blind(case: CommutatorTestCase) -> bool:
    """True when the commutator provably cannot see the loop scales.

    Substituting the commutation relation turns the commutator into plain
    correlators: the spectator context alone (times the central constant,
    when present) and the context with one structure current inserted at
    the pair's slot.  The commutator is independent of the mu family
    exactly when none of those words is scale sensitive; a charged pair of
    spectators breaks this because the spectator correlator itself shifts
    with mu_2, and the commutator shifts with it on both sides of the
    relation."""
    realization = case.scheme.sector.realization
    structures, central = _RELATIONS[realization][case.pair]
    words = [] if central.is_zero else [case.prefix + case.suffix]
    for name, _ in structures:
        words.append(case.prefix + (name,) + case.suffix)
    return not any(_word_scale_sensitive(w, realization) for w in words)


@dataclass
class MuReport:
    ok: bool
    details: List[dict] = field(default_factory=list)


def mu_independence(cases: Sequence[CommutatorTestCase],
                    scheme_a: RenormScheme, scheme_b: RenormScheme) -> MuReport:
    """Commutators must not see the loop scales: for every supplied case the
    canonical commutator expression under the two schemes is compared term
    by term."""
    report = MuReport(ok=True)
    for case in cases:
        ca = commutator_in_correlator(replace(case, scheme=scheme_a))
        cb = commutator_in_correlator(replace(case, scheme=scheme_b))
        same = ca.terms == cb.terms  # canonical term lists are sorted by key
        report.details.append({"pair": case.pair, "prefix": case.prefix,
                               "suffix": case.suffix, "identical": same})
        if not same:
            report.ok = False
            logger.warning("commutator depends on loop scales: %s", case)
    return report


# ---------------------------------------------------------------------------
# Gram matrices of smeared pairings
# ---------------------------------------------------------------------------


def _conj_test(f: Mapping[int, complex]) -> Dict[int, complex]:
    return {-m: complex(c).conjugate() for m, c in f.items()}


@dataclass
class GramReport:
    words: List[Tuple[str, ...]]
    matrix: "np.ndarray"
    hermiticity_residual: float
    eigenvalues: "np.ndarray"
    positive: int
    negative: int
    null: int

    def lines(self) -> List[str]:
        return [
            f"basis: {[' '.join(w) or '(vac)' for w in self.words]}",
            f"hermiticity residual: {self.hermiticity_residual:.3e}",
            f"eigenvalues: {[f'{v:.6g}' for v in self.eigenvalues]}",
            f"signs: +{self.positive} / -{self.negative} / 0:{self.null}",
        ]


def gram_matrix(entries: Sequence[Tuple[Sequence[str], Sequence[Mapping[int, complex]]]],
                scheme: RenormScheme, seq: XiSequence, *,
                kappa=1.0, p=0.0, trunc: int = 32,
                grid: int = 48, tol: float = 1e-9) -> GramReport:
    """Pairing matrix G[i][j] = <w_i v, w_j v> over smeared current words.

    Each basis entry is a word with one Fourier-polynomial test function per
    slot.  Row words are starred and reversed (with conjugated tests), the
    concatenation is evaluated through the full pipeline, and the smeared
    number is reported.  Exploration output: eigenvalue signs are counted,
    nothing is asserted about positivity.  Raises ``ValueError`` for
    ``grid < 1`` or ``trunc < 0``, as :func:`smear` does.
    """
    import numpy as np

    if grid < 1 or trunc < 0:
        raise ValueError(f"gram_matrix needs grid >= 1 and trunc >= 0, "
                         f"got grid={grid}, trunc={trunc}")

    nb = len(entries)
    G = np.zeros((nb, nb), dtype=complex)
    for i, (wi, fi) in enumerate(entries):
        star_i, sign_i = star_word(wi)
        tests_i = [_conj_test(f) for f in reversed(list(fi))]
        for j, (wj, fj) in enumerate(entries):
            names = star_i + tuple(wj)
            expr = evaluate_correlator(CurrentWord.from_names(names), scheme)
            tests = {k: t for k, t in enumerate(tests_i + list(fj))}
            val = smear(expr, tests, seq, kappa=kappa, p=p, trunc=trunc, grid=grid)
            G[i, j] = sign_i * val
    residual = float(abs(G - G.conj().T).max()) if nb else 0.0
    sym = (G + G.conj().T) / 2
    eigs = np.linalg.eigvalsh(sym) if nb else np.zeros(0)
    pos = int((eigs > tol).sum())
    neg = int((eigs < -tol).sum())
    return GramReport(
        words=[tuple(w) for w, _ in entries], matrix=G,
        hermiticity_residual=residual, eigenvalues=eigs,
        positive=pos, negative=neg, null=int(len(eigs) - pos - neg))
