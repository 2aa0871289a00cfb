"""Command-line front end for the correlator engine.

Subcommands: ``eval`` (renormalized correlator of a current word),
``commcheck`` (commutation-relation residuals), ``diagrams`` (DOT export of
the contraction graphs), ``gram`` (smeared pairing matrix), ``oracle``
(truncated mode-model value of a word) and ``selfcheck`` (the invariant
suite at desk scale).  Words use the grammar ``SYM(INDEX)`` joined by
spaces, e.g. ``Jp(1) Jm(2)``; indices are 1-based and consecutive.  Exit
codes: 0 success / all checks pass, 1 verification failure, 2 usage or
input error (with a JSON diagnostic on stderr).
"""

import argparse
import itertools
import json
import logging
import os
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

from . import verify
from .algebra import (CURRENTS_A, CURRENTS_K, SectorConfig, classical_check, current_def,
                      star_check)
from .diagrams import enumerate_diagrams, loop_components, to_dot
from .errors import LoopcorrError, ParseError, RealizationMismatch
from .kernels import CirclePoint, XiSequence
from .renorm import CurrentWord, RenormScheme, evaluate_correlator

logger = logging.getLogger(__name__)

_SYMBOLS = {"J3": "J3", "Jp": "J+", "Jm": "J-", "E": "E", "F": "F", "H": "H"}
_RENDER = {v: k for k, v in _SYMBOLS.items()}
# primitive letters accepted by the oracle subcommand
_LETTERS = {
    "a": "a", "b": "b", "h": "h", "rho": "rho",
    "ap": "alpha+", "am": "alpha-", "dap": "dalpha+", "dam": "dalpha-",
    "ep": "e+", "em": "e-", "dep": "de+", "dem": "de-",
}


def parse_word(text: str, symbols: Dict[str, str] = _SYMBOLS) -> Tuple[str, ...]:
    """Parse ``SYM(1) SYM(2) ...`` into a name tuple.

    Offsets in diagnostics are 1-based byte positions.  Indices must count
    up from 1 so that a word is unambiguous about its insertion slots.
    """
    names: List[str] = []
    pos, n, nxt = 0, len(text), 1
    if not text.strip():
        raise ParseError("empty word", 1, tuple(sorted(symbols)))
    while pos < n:
        if text[pos] == " ":
            pos += 1
            continue
        start = pos
        while pos < n and text[pos] not in " (":
            pos += 1
        sym = text[start:pos]
        if sym not in symbols:
            raise ParseError(f"unknown symbol {sym!r}", start + 1, tuple(sorted(symbols)))
        if pos >= n or text[pos] != "(":
            raise ParseError("expected '('", pos + 1, ("(",))
        pos += 1
        dstart = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == dstart:
            raise ParseError("expected insertion index", pos + 1, ("digit",))
        idx = int(text[dstart:pos])
        if idx != nxt:
            raise ParseError(f"expected index {nxt}, got {idx}", dstart + 1, (str(nxt),))
        nxt += 1
        if pos >= n or text[pos] != ")":
            raise ParseError("expected ')'", pos + 1, (")",))
        pos += 1
        names.append(symbols[sym])
    return tuple(names)


def parse_current_word(text: str) -> CurrentWord:
    names = parse_word(text)
    realms = {current_def(nm).realization for nm in names}
    if len(realms) > 1:
        raise RealizationMismatch(f"word mixes realizations {sorted(realms)}: {text!r}")
    return CurrentWord.from_names(names)


def render_word(names) -> str:
    return " ".join(f"{_RENDER[nm]}({k + 1})" for k, nm in enumerate(names))


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sequence(args) -> XiSequence:
    if args.xi:
        return XiSequence.from_config(_read_json(args.xi))
    return XiSequence.geometric(Fraction(1, 2))


def _scheme(args) -> RenormScheme:
    cfg = SectorConfig(realization=args.realization, sector=args.sector)
    if args.policy == "drop-loops":
        if args.mu:
            raise ValueError("--mu has no effect under --policy drop-loops (every mu_k = 0)")
        return RenormScheme.drop_loops(cfg)
    raw = _read_json(args.mu) if args.mu else {}
    if not isinstance(raw, dict):
        raise ValueError(f"--mu file must hold a JSON object, got {type(raw).__name__}")
    data = {key: Fraction(str(val)) for key, val in raw.items()}
    default = data.pop("default", None)
    entries = {int(key): val for key, val in data.items()}
    make = RenormScheme.mu_family if args.policy == "mu" else RenormScheme.unitary_dotted
    return make(cfg, entries=entries, default=default)


def _radius(args) -> Fraction:
    if args.on_circle or args.radius is None:
        return Fraction(1)
    return Fraction(str(args.radius))


def _reradius(word: CurrentWord, args) -> CurrentWord:
    return CurrentWord.from_names(word.names, radius=_radius(args))


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.format == "text":
        for line in text_lines:
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    word = _reradius(parse_current_word(args.word), args)
    expr = evaluate_correlator(word, _scheme(args))
    data = json.loads(expr.to_json())
    data["word"] = render_word(word.names)
    lines = [f"word: {data['word']}", f"terms: {len(expr.terms)}"]
    for t in expr.terms:
        lines.append(f"  deltas={list(t.deltas)} smooth={list(t.smooth)} exps={list(t.exps)}")
    _emit(args, data, lines)
    return 0


def _cmd_commcheck(args) -> int:
    report = verify.check_affine_relations(_scheme(args), max_context=args.context)
    payload = {
        "realization": report.realization,
        "policy": report.policy,
        "all_ok": report.all_ok,
        "cases": [
            {"pair": list(c["pair"]), "prefix": list(c["prefix"]),
             "suffix": list(c["suffix"]), "residual_terms": c["residual_terms"],
             "ok": c["ok"]}
            for c in report.cases
        ],
    }
    _emit(args, payload, report.lines())
    return 0 if report.all_ok else 1


def _cmd_diagrams(args) -> int:
    word = parse_current_word(args.word)
    cfg = SectorConfig(realization=args.realization, sector=args.sector)
    diags = list(enumerate_diagrams(word.names, cfg))
    drawings = [to_dot(d) for d in diags]
    if args.format == "json":
        print(json.dumps({"word": render_word(word.names), "count": len(drawings),
                          "looped": sum(1 for d in diags if loop_components(d)),
                          "dot": drawings}, sort_keys=True))
    else:
        print("\n".join(drawings))
    return 0


def _cmd_gram(args) -> int:
    if args.degree < 0:
        raise ValueError(f"--degree must be >= 0, got {args.degree}")
    words = [parse_current_word(w) for w in args.words]
    test = {m: 1.0 for m in range(-args.degree, args.degree + 1)}
    entries = [(w.names, [dict(test) for _ in w.names]) for w in words]
    rep = verify.gram_matrix(entries, _scheme(args), _sequence(args),
                             kappa=float(Fraction(str(args.kappa))),
                             p=float(Fraction(str(args.p))), trunc=args.trunc)
    payload = {
        "words": [render_word(w) for w in rep.words],
        "matrix": [[[z.real, z.imag] for z in row] for row in rep.matrix.tolist()],
        "hermiticity_residual": rep.hermiticity_residual,
        "eigenvalues": [float(x) for x in rep.eigenvalues],
        "positive": rep.positive, "negative": rep.negative, "null": rep.null,
    }
    _emit(args, payload, rep.lines())
    return 0


def _cmd_oracle(args) -> int:
    table = dict(_SYMBOLS)
    table.update(_LETTERS)
    names = parse_word(args.word, table)
    n = len(names)
    rad = Fraction(1, 2) if (args.radius is None and not args.on_circle) else _radius(args)
    if args.angles:
        turns = [Fraction(t) for t in args.angles.split()]
        if len(turns) != n:
            raise ParseError(f"need {n} angles, got {len(turns)}", 1, ())
    else:
        turns = [Fraction(k, n) for k in range(n)]
    points = [CirclePoint(rad, t) for t in turns]
    cfg = SectorConfig(realization=args.realization, sector=args.sector)
    val = verify.gaussian_oracle(names, points, cfg, _sequence(args),
                                 trunc=args.trunc,
                                 kappa=float(Fraction(str(args.kappa))),
                                 p=float(Fraction(str(args.p))))
    val = complex(val)
    _emit(args, {"real": val.real, "imag": val.imag}, [repr(val)])
    return 0


def _cmd_selfcheck(args) -> int:
    if args.max_len < 0:
        raise ValueError(f"--max-len must be >= 0, got {args.max_len}")
    cfg = SectorConfig(realization=args.realization, sector=args.sector)
    currents = CURRENTS_K if cfg.realization == "K" else CURRENTS_A
    schemes = [RenormScheme.drop_loops(cfg),
               RenormScheme.mu_family(cfg, entries={2: 1, 3: Fraction(1, 2)})]
    lines: List[str] = []
    ok = True

    for scheme in schemes:
        rep = verify.check_affine_relations(scheme, max_context=args.context)
        good = rep.all_ok
        ok = ok and good
        lines.append(f"relations[{scheme.policy}]: {'ok' if good else 'FAIL'} "
                     f"({len(rep.cases)} cases)")

    words = [w for ln in range(1, args.max_len + 1)
             for w in itertools.product(currents, repeat=ln)]
    bad = 0
    for scheme in schemes:
        for names in words:
            if verify.check_hermiticity(CurrentWord.from_names(names), scheme).terms:
                bad += 1
    ok = ok and bad == 0
    lines.append(f"hermiticity: {'ok' if bad == 0 else 'FAIL'} "
                 f"({2 * len(words)} cases, {bad} nonzero)")

    fam_a = RenormScheme.mu_family(cfg, default=0)
    fam_b = RenormScheme.mu_family(cfg, entries={2: 1, 3: Fraction(1, 2), 4: Fraction(1, 3)})
    cases = [verify.CommutatorTestCase(prefix, pair, suffix, fam_a)
             for pair in verify._RELATIONS[cfg.realization]
             for prefix, suffix in verify._contexts(currents, args.context)]
    cases = [case for case in cases if verify.commutator_scale_blind(case)]
    mu_rep = verify.mu_independence(cases, fam_a, fam_b)
    ok = ok and mu_rep.ok
    lines.append(f"mu-independence: {'ok' if mu_rep.ok else 'FAIL'} ({len(cases)} cases)")

    star_bad = [nm for nm in currents if not star_check(nm).ok]
    ok = ok and not star_bad
    lines.append(f"star: {'ok' if not star_bad else 'FAIL ' + ','.join(star_bad)}")

    cl = classical_check(cfg.realization)
    ok = ok and cl.ok
    lines.append(f"classical: {'ok' if cl.ok else 'FAIL'}")

    payload = {"ok": ok, "lines": lines}
    _emit(args, payload, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_sector(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--realization", choices=("K", "A"), default="K")
    sub.add_argument("--sector", choices=("nonunitary", "unitary"), default="nonunitary")


def _add_scheme(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--policy", choices=("drop-loops", "mu", "unitary-dotted"),
                     default="drop-loops")
    sub.add_argument("--mu", metavar="FILE",
                     help='JSON loop scales, e.g. {"2": "1", "3": "1/2", "default": "0"}')


def _add_mode_model(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kappa", default="1", help="central parameter (rational)")
    sub.add_argument("--p", default="0", help="zero-mode eigenvalue (rational)")
    sub.add_argument("--xi", metavar="FILE", help="JSON xi-sequence config")
    sub.add_argument("--trunc", type=int, default=16, help="kernel truncation")


def _add_radius(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--radius", help="uniform insertion radius (rational)")
    group.add_argument("--on-circle", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcorr",
        description="Renormalized correlators of loop ax+b currents.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate a correlator")
    p.add_argument("word", help='current word, e.g. "Jp(1) Jm(2)"')
    _add_sector(p)
    _add_scheme(p)
    _add_radius(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("commcheck", help="verify commutation relations")
    p.add_argument("--context", type=int, default=0, help="max spectator context")
    _add_sector(p)
    _add_scheme(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_commcheck)

    p = subs.add_parser("diagrams", help="emit contraction diagrams as DOT")
    p.add_argument("word")
    _add_sector(p)
    p.add_argument("--format", choices=("json", "dot"), default="dot")
    p.set_defaults(func=_cmd_diagrams)

    p = subs.add_parser("gram", help="smeared pairing matrix of current words")
    p.add_argument("words", nargs="+")
    p.add_argument("--degree", type=int, default=1, help="Fourier test degree")
    _add_sector(p)
    _add_scheme(p)
    _add_mode_model(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_gram)

    p = subs.add_parser("oracle", help="mode-model value of a primitive/current word")
    p.add_argument("word", help='letters ap/am/ep/em/h/rho or currents, e.g. "ap(1) am(2)"')
    p.add_argument("--angles", help="space-separated turn fractions, one per insertion")
    _add_sector(p)
    _add_mode_model(p)
    _add_radius(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("selfcheck", help="run the invariant suite")
    p.add_argument("--context", type=int, default=1)
    p.add_argument("--max-len", type=int, default=3)
    _add_sector(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LOOPCORR_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        diag = {"error": "ParseError", "message": str(exc), "offset": exc.offset,
                "expected": list(exc.expected)}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 2
    except LoopcorrError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
