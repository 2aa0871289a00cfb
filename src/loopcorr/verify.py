"""Independent cross-checks for the correlation engine.

The centerpiece is :func:`gaussian_oracle`, a second, structurally different
evaluation of current correlators.  Instead of enumerating contraction
diagrams it works in a mode-truncated model of the loop algebra:

* a and b letters are eliminated by recursive normal ordering -- a moves
  right (it kills the state on the right), b moves left (it kills it on the
  left), and every crossing picks up the regulated commutator, a finite
  geometric-type sum over modes |n| <= trunc;
* the residual word contains only exponential letters (alpha^+-, e^+-, their
  angle derivatives and the consuming quadratic letters) plus Heisenberg
  insertions, and is evaluated as a Gaussian expectation: exponentials give
  exp(<Gamma, C Gamma>/2), derivative letters give linear factors paired by
  Isserlis' theorem, rho insertions pair independently with mean p.

Values are plain complex numbers by default, or exact sympy expressions with
``exact=True`` (points with rational radius/turn; kappa and p may then even
be sympy symbols).

:func:`expression_value` evaluates a token expression pointwise with every
kernel truncated at the same mode cutoff, which is what makes direct
engine-versus-oracle comparisons meaningful.
"""

from __future__ import annotations

import cmath
import itertools
import logging
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import sympy as sp

from .algebra import (
    A_LETTERS,
    CURRENT_CHARGE,
    CURRENT_STAR,
    CURRENTS_A,
    CURRENTS_K,
    K_LETTERS,
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
from .kernels import CirclePoint, XiSequence, mode_series
from .renorm import CurrentWord, RenormScheme, evaluate_correlator

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# small value helpers, generic over float/sympy arithmetic
# ---------------------------------------------------------------------------


def _pt_value(pt: CirclePoint, exact: bool):
    return pt.to_sympy() if exact else pt.to_complex()


def _conj(v, exact: bool):
    return sp.conjugate(v) if exact else v.conjugate()


def _imag_unit(exact: bool):
    return sp.I if exact else 1j


def _rat(fr, exact: bool):
    fr = Fraction(fr)
    if exact:
        return sp.Rational(fr.numerator, fr.denominator)
    return float(fr)


def _xi(seq: XiSequence, n: int, exact: bool):
    if exact:
        return _rat(seq.xi(n), True)
    return float(seq.xi_value(n))


def _xi0(seq: XiSequence, exact: bool):
    return _rat(seq.xi0, exact)


def _exp(v, exact: bool):
    return sp.exp(v) if exact else cmath.exp(v)


def _coeff_value(c: Coeff, kappa, p, xi0, exact: bool):
    if not exact:
        return c.subs_numeric(kappa=kappa, p=p, xi0=xi0)
    subs = {sp.Symbol("kappa", positive=True): kappa,
            sp.Symbol("p", positive=True): p,
            sp.Symbol("xi0", positive=True): xi0}
    return c.to_sympy().subs(subs, simultaneous=True)


def _pair_series(z, w, k: int, family: str, seq: Optional[XiSequence], N: int,
                 exact: bool):
    """The mode series of a family at the point pair (z, w)."""
    return mode_series(z * _conj(w, exact), _conj(z, exact) * w, k, family, seq, N, exact)


# ---------------------------------------------------------------------------
# layer 2: Gaussian expectation of a/b-free words
# ---------------------------------------------------------------------------


def _psi(z, m: int, exact: bool):
    if m == 0:
        return sp.Integer(1) if exact else 1.0
    if m > 0:
        return z ** m
    return _conj(z, exact) ** (-m)


def _cov_pair(v: Dict[int, object], w: Dict[int, object], seq: XiSequence,
              include_zero: bool, exact: bool):
    """<v, C w> = sum_m c_|m| v_m w_{-m} with c_0 = 2 xi_0 (A only)."""
    total = sp.Integer(0) if exact else 0j
    for m, vv in v.items():
        ww = w.get(-m)
        if ww is None:
            continue
        if m == 0:
            if not include_zero:
                continue
            c = 2 * _xi0(seq, exact)
        else:
            c = _xi(seq, abs(m), exact)
        total = total + c * vv * ww
    return total


def _factor_pairings(factors, gamma_total, seq, include_zero, exact):
    """Isserlis over linear factors with the tilt <F, C Gamma> for singles."""
    if not factors:
        return sp.Integer(1) if exact else (1 + 0j)
    first, rest = factors[0], factors[1:]
    total = _cov_pair(first, gamma_total, seq, include_zero, exact) * \
        _factor_pairings(rest, gamma_total, seq, include_zero, exact)
    for idx in range(len(rest)):
        pair = _cov_pair(first, rest[idx], seq, include_zero, exact)
        total = total + pair * _factor_pairings(
            rest[:idx] + rest[idx + 1:], gamma_total, seq, include_zero, exact)
    return total


def _rho_pairings(zs, N, kappa, p, realization, exact):
    """Isserlis over rho insertions: mean p, and each pair 2 kappa sum n x^n
    with x = zi conj(zj) (K) or conj(zi) zj (A)."""
    if not zs:
        return sp.Integer(1) if exact else (1 + 0j)
    first, rest = zs[0], zs[1:]
    total = p * _rho_pairings(rest, N, kappa, p, realization, exact)
    for idx in range(len(rest)):
        zj = rest[idx]
        x = first * _conj(zj, exact) if realization == "K" else _conj(first, exact) * zj
        total = total + 2 * kappa * mode_series(x, 0, 0, "wavy", None, N, exact) * \
            _rho_pairings(rest[:idx] + rest[idx + 1:], N, kappa, p, realization, exact)
    return total


_BASE_CHARGE = {"alpha+": 1, "alpha-": -1, "e+": 1, "e-": -1,
                "dalpha+": 1, "dalpha-": -1, "de+": 1, "de-": -1}


def _mode_eval(letters: Sequence[Tuple[str, int]], points: Mapping[int, CirclePoint],
               cfg: SectorConfig, seq: XiSequence, N: int, kappa, p, exact: bool):
    """Gaussian expectation of a word free of a/b/h letters.

    Exponentials are *unnormalized*: E[e^{i q phi(z)}] = e^{-q^2 N(z,z)/2},
    matching the self-energy convention of the engine's exponential tokens.
    """
    i = _imag_unit(exact)
    zero = sp.Integer(0) if exact else 0j
    is_a = cfg.realization == "A"
    gammas: List[Dict[int, object]] = []
    factors: List[Dict[int, object]] = []
    rhos: List[object] = []
    charge = 0

    def gamma_of(z, scale):
        g = {}
        for m in range(-N, N + 1):
            if m == 0 and not is_a:
                continue
            g[m] = scale * _psi(z, m, exact)
        return g

    for name, idx in letters:
        z = _pt_value(points[idx], exact)
        if name == "rho":
            rhos.append(z)
            continue
        if name in ("alpha+", "alpha-", "dalpha+", "dalpha-", "alpha-dalpha+"):
            if is_a:
                raise RealizationMismatch(f"{name} letter in an A-realization word")
        elif name in ("e+", "e-", "de+", "de-", "e-de+"):
            if not is_a:
                raise RealizationMismatch(f"{name} letter in a K-realization word")
        else:
            raise ValueError(f"letter {name!r} cannot appear in a reduced word")
        if name in ("alpha+", "alpha-"):
            eps = _BASE_CHARGE[name]
            gammas.append(gamma_of(z, i * eps))
            charge += eps
        elif name in ("e+", "e-"):
            sig = _BASE_CHARGE[name]
            gammas.append(gamma_of(z, sig * (sp.Integer(1) if exact else 1.0)))
        elif name in ("dalpha+", "dalpha-"):
            eps = _BASE_CHARGE[name]
            gammas.append(gamma_of(z, i * eps))
            charge += eps
            factors.append({m: -eps * m * _psi(z, m, exact)
                            for m in range(-N, N + 1) if m != 0})
        elif name in ("de+", "de-"):
            sig = _BASE_CHARGE[name]
            gammas.append(gamma_of(z, sig * (sp.Integer(1) if exact else 1.0)))
            factors.append({m: i * sig * m * _psi(z, m, exact)
                            for m in range(-N, N + 1) if m != 0})
        elif name == "alpha-dalpha+":
            # alpha^- d(alpha^+) = i d(phi): the exponentials cancel exactly
            factors.append({m: -m * _psi(z, m, exact)
                            for m in range(-N, N + 1) if m != 0})
        elif name == "e-de+":
            factors.append({m: i * m * _psi(z, m, exact)
                            for m in range(-N, N + 1) if m != 0})

    if cfg.realization == "K" and charge != 0:
        return zero

    gamma_total: Dict[int, object] = {}
    for g in gammas:
        for m, v in g.items():
            gamma_total[m] = gamma_total.get(m, zero) + v

    exp_arg = _cov_pair(gamma_total, gamma_total, seq, is_a, exact) / 2
    value = _exp(exp_arg, exact)
    value = value * _factor_pairings(tuple(factors), gamma_total, seq, is_a, exact)
    value = value * _rho_pairings(tuple(rhos), N, kappa, p, cfg.realization, exact)
    return value


# ---------------------------------------------------------------------------
# layer 1: recursive a/b elimination
# ---------------------------------------------------------------------------


def _comm_value(right: str, z_ab, z_r, cfg: SectorConfig, seq: XiSequence,
                N: int, exact: bool, left: str):
    """[left(z_ab), right(z_r)] as a list of (scalar, replacement letters).

    left is 'a' or 'b'; both have the same commutator with every
    multiplication letter.  Only the a/b crossing distinguishes them.
    """
    i = _imag_unit(exact)

    def delta(k):
        # k-th derivative of the regulated delta in the a/b angle; the
        # derivative in the other angle is minus the k = 1 series
        return _pair_series(z_ab, z_r, k, "delta", None, N, exact)

    if right in ("a", "b"):
        if right == left or not cfg.unitary:
            return []
        sign = 1 if left == "a" else -1
        val = _pair_series(z_ab, z_r, 0, "D", seq, N, exact)
        if cfg.realization == "A":
            val = val + 1 / (2 * _xi0(seq, exact))
        return [(sign * val, ())]
    if right == "rho":
        return []
    if right in ("alpha+", "alpha-"):
        eps = _BASE_CHARGE[right]
        return [(-eps * delta(0), (right,))]
    if right in ("e+", "e-"):
        sig = _BASE_CHARGE[right]
        return [(i * sig * delta(0), (right,))]
    if right in ("dalpha+", "dalpha-"):
        eps = _BASE_CHARGE[right]
        base = "alpha+" if eps > 0 else "alpha-"
        return [(eps * delta(1), (base,)), (-eps * delta(0), (right,))]
    if right in ("de+", "de-"):
        sig = _BASE_CHARGE[right]
        base = "e+" if sig > 0 else "e-"
        return [(-i * sig * delta(1), (base,)), (i * sig * delta(0), (right,))]
    if right == "alpha-dalpha+":
        return [(delta(1), ())]
    if right == "e-de+":
        return [(-i * delta(1), ())]
    raise ValueError(f"unknown letter {right!r}")


def oracle_letters(word: Sequence[Tuple[str, int]], points: Mapping[int, CirclePoint],
                   cfg: SectorConfig, seq: XiSequence, *, trunc: int = 16,
                   kappa=1, p=0, exact: bool = False):
    """Expectation of a word of primitive letters (name, point index).

    The first a/b letter is commuted across the whole word in a single pass
    (a to the right end, where it annihilates; b to the left end); every
    crossing emits a commutator branch with one a/b letter fewer, so the
    rewriting terminates.
    """
    one = sp.Integer(1) if exact else (1 + 0j)
    half = sp.Rational(1, 2) if exact else 0.5
    total = sp.Integer(0) if exact else 0j
    stack: List[Tuple[object, Tuple[Tuple[str, int], ...]]] = [(one, tuple(word))]
    while stack:
        c, ls = stack.pop()
        hpos = next((k for k, (nm, _) in enumerate(ls) if nm == "h"), None)
        if hpos is not None:
            _, ix = ls[hpos]
            for repl in ("a", "b"):
                stack.append((c * half, ls[:hpos] + ((repl, ix),) + ls[hpos + 1:]))
            continue
        abpos = next((k for k, (nm, _) in enumerate(ls) if nm in ("a", "b")), None)
        if abpos is None:
            total = total + c * _mode_eval(ls, points, cfg, seq, trunc, kappa, p, exact)
            continue
        k = abpos
        nm, ix = ls[k]
        z_ab = _pt_value(points[ix], exact)
        rest = ls[:k] + ls[k + 1:]  # the word without the moving letter
        if nm == "b":
            # word = prefix X_{k-1} ... X_0-side; crossing X_j costs -[b, X_j]
            for j in range(k - 1, -1, -1):
                other = ls[j]
                z_r = _pt_value(points[other[1]], exact)
                for val, repl in _comm_value(other[0], z_ab, z_r, cfg, seq,
                                             trunc, exact, "b"):
                    new = rest[:j] + tuple((r, other[1]) for r in repl) + rest[j + 1:]
                    stack.append((-c * val, new))
            # b that reaches the front annihilates the state: no term
        else:
            for j in range(k + 1, len(ls)):
                other = ls[j]
                z_r = _pt_value(points[other[1]], exact)
                for val, repl in _comm_value(other[0], z_ab, z_r, cfg, seq,
                                             trunc, exact, "a"):
                    new = rest[:j - 1] + tuple((r, other[1]) for r in repl) + rest[j:]
                    stack.append((c * val, new))
            # a that reaches the right end annihilates: no term
    return total


def gaussian_oracle(names: Sequence[str], points: Sequence[CirclePoint],
                    cfg: SectorConfig, seq: XiSequence, *, trunc: int = 16,
                    kappa=1, p=0, exact: bool = False):
    """<X_1(z_1) ... X_n(z_n)> in the truncated mode model.

    Each name is a composite current (J+, J-, J3, E, F, H) or a primitive
    letter; insertion k sits at points[k].  Completely independent of the
    diagram enumeration: currents are expanded, a/b letters are normal
    ordered away, and the residue is evaluated by Gaussian pairing.
    Raises ``ValueError`` for a point outside the closed unit disc.
    """
    pts = dict(enumerate(points))
    if len(pts) != len(names):
        raise ValueError("need exactly one point per insertion")
    for pt in points:
        if not (0 <= float(pt.r) <= 1):
            raise ValueError(f"radius {pt.r} outside [0, 1]")
    if trunc < 0:
        raise ValueError(f"the mode truncation must be >= 0, got {trunc}")
    xi0 = _xi0(seq, exact)
    expansions: List[List[Tuple[object, Tuple[Tuple[str, int], ...]]]] = []
    for k, nm in enumerate(names):
        if nm in CURRENTS_K + CURRENTS_A:
            opts = []
            for term in expand_current(nm, k, cfg):
                cval = _coeff_value(term.coeff, kappa, p, xi0, exact)
                opts.append((cval, tuple((s, k) for s in term.symbols)))
            expansions.append(opts)
        else:
            if nm in K_LETTERS and cfg.realization != "K":
                raise RealizationMismatch(f"letter {nm} needs the K realization")
            if nm in A_LETTERS and cfg.realization != "A":
                raise RealizationMismatch(f"letter {nm} needs the A realization")
            one = sp.Integer(1) if exact else (1 + 0j)
            expansions.append([(one, ((nm, k),))])

    total = sp.Integer(0) if exact else 0j
    idx = [0] * len(expansions)
    while True:
        cval = sp.Integer(1) if exact else (1 + 0j)
        letters: Tuple[Tuple[str, int], ...] = ()
        for k, options in enumerate(expansions):
            c, ls = options[idx[k]]
            cval = cval * c
            letters = letters + ls
        total = total + cval * oracle_letters(
            letters, pts, cfg, seq, trunc=trunc, kappa=kappa, p=p, exact=exact)
        for k in range(len(idx) - 1, -1, -1):
            idx[k] += 1
            if idx[k] < len(expansions[k]):
                break
            idx[k] = 0
        else:
            break
    return total


# ---------------------------------------------------------------------------
# pointwise evaluation of token expressions (for engine-oracle comparison)
# ---------------------------------------------------------------------------


def expression_value(expr: Expression, points: Mapping[int, CirclePoint],
                     seq: XiSequence, *, trunc: int = 16, kappa=1, p=0,
                     exact: bool = False):
    """Evaluate a token expression at a fixed point configuration, with every
    kernel series truncated at mode ``trunc`` -- the same regularization the
    oracle uses, so values are directly comparable.  Raises ``ValueError``
    for ``trunc < 0``."""
    if trunc < 0:
        raise ValueError(f"expression_value needs trunc >= 0, got trunc={trunc}")
    realization = expr.realization
    total = sp.Integer(0) if exact else 0j
    xi0 = _xi0(seq, exact)
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
        v = _coeff_value(t.coeff, kappa, p, xi0, exact)
        factors = [("delta", k, i, j) for (i, j, k) in t.deltas] + list(t.smooth)
        for (family, k, i, j) in factors:
            z, w = _pt_value(points[i], exact), _pt_value(points[j], exact)
            v = v * _pair_series(z, w, k, family, seq, trunc, exact)
        if t.exps:
            if charge_vanishes(realization, (q for _, q in t.exps)):
                continue
            family, sign = gaussian_rule(realization)
            arg = sp.Integer(0) if exact else 0j
            for a, (pa, qa) in enumerate(t.exps):
                za = _pt_value(points[pa], exact)
                na = _pair_series(za, za, 0, family, seq, trunc, exact)
                arg = arg + sign * qa * qa * na / 2
                for pb, qb in t.exps[a + 1:]:
                    zb = _pt_value(points[pb], exact)
                    nab = _pair_series(za, zb, 0, family, seq, trunc, exact)
                    arg = arg + sign * qa * qb * nab
            v = v * _exp(arg, exact)
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
