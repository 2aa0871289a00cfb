"""One benchmark workload in one fresh, single-threaded interpreter.

Run by ``perfbench/run.py``; not meant to be started by hand.  The process
imports loopcorr, builds the workload's inputs from the seed, runs every
program call on them (the timed phase), then checks every output.  With
``--setup-only`` it stops after building the inputs.  It prints one JSON
object as its last line.

The set-up clock starts at ``PERFBENCH_T0_NS``, the parent's
``time.monotonic_ns()`` taken just before this process was started, so
``setup_s`` includes interpreter start-up and ``import loopcorr``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import sys
import time

T0_NS = int(os.environ.get("PERFBENCH_T0_NS", time.monotonic_ns()))

from fractions import Fraction  # noqa: E402

import loopcorr  # noqa: E402,F401
from loopcorr.algebra import CURRENTS_A, CURRENTS_K, SectorConfig  # noqa: E402
from loopcorr.diagrams import correlator_expression, loop_census  # noqa: E402
from loopcorr.distributions import canonicalize, detect_singular, smear  # noqa: E402
from loopcorr.kernels import CirclePoint, XiSequence  # noqa: E402
from loopcorr.renorm import CurrentWord, RenormScheme, evaluate_correlator  # noqa: E402
from loopcorr.verify import (  # noqa: E402
    _RELATIONS,
    CommutatorTestCase,
    _contexts,
    check_affine_relations,
    commutator_in_correlator,
    commutator_scale_blind,
    expression_value,
    gaussian_oracle,
    mu_independence,
    relation_rhs,
    star_word,
)

import bruteforce  # noqa: E402

CURRENTS = {"K": CURRENTS_K, "A": CURRENTS_A}
SEQ = XiSequence.geometric(Fraction(1, 2))


def rational(rng: random.Random) -> Fraction:
    """A nonzero loop scale, so no loop drops out by accident."""
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def mu_scheme(cfg: SectorConfig, rng: random.Random) -> RenormScheme:
    return RenormScheme.mu_family(
        cfg, entries={k: rational(rng) for k in range(2, 6)}, default=rational(rng))


def case_words(realization, prefix, pair, suffix):
    """Every word a relation check of this case evaluates: both orderings,
    the structure-current words and, with a central term, the spectators."""
    x, y = pair
    structures, central = _RELATIONS[realization][pair]
    words = {prefix + (x, y) + suffix, prefix + (y, x) + suffix}
    words |= {prefix + (name,) + suffix for name, _ in structures}
    if not central.is_zero:
        words.add(prefix + suffix)
    return words


class Workload:
    """Inputs, timed calls and checks of one workload.

    ``ops`` is a list of (weight, callable) built during set-up; ``weight``
    is the number of operations the call stands for.  ``check`` returns a
    list of failure descriptions for the ops that did not raise.
    """

    item_label = "bench.item"
    required: tuple = ()

    def __init__(self):
        self.ops: list = []
        self.results: list = []
        self.digests: list = []

    def check(self) -> list:
        raise NotImplementedError


class Deep(Workload):
    """Commutator cases with three spectators (5-insertion words) in both
    realizations under one seeded mu family.  The 5-insertion words all have
    the letters {J+, J-, J3, J3, J3} or {E, F, H, H, H}: every such word has
    666 diagrams and 1466 renormalized terms.  The seed draws the K cases;
    each A case mirrors one K case (the word reversed, J+ J- J3 read as
    E F H).  A word's cost depends on where its charged letters sit (0.77 s
    to 1.32 s), but a word and its reverse together cost 1.97 s to 2.21 s,
    so the seed moves the words but hardly the amount of work.  No word is
    computed twice."""

    required = ("renorm.evaluate_correlator", "renorm.renormalize_diagram",
                "diagrams.enumerate_diagrams", "diagrams.diagram_weight",
                "diagrams.loop_components", "distributions.canonicalize",
                "distributions.to_json", "verify.commutator_in_correlator",
                "verify.relation_rhs")
    LETTERS = ("J+", "J-", "J3", "J3", "J3")
    MIRROR = {"J+": "E", "J-": "F", "J3": "H"}

    def __init__(self, rng, seconds):
        super().__init__()
        per_realization = max(1, round(seconds / 5))
        mu = {k: rational(rng) for k in range(2, 6)}
        default = rational(rng)
        schemes = {r: RenormScheme.mu_family(SectorConfig(r, "nonunitary"),
                                             entries=mu, default=default)
                   for r in ("K", "A")}
        pool = []
        for word in sorted(set(itertools.permutations(self.LETTERS))):
            for i in range(len(word) - 1):
                if word[i] != word[i + 1]:
                    pool.append((word[:i], (word[i], word[i + 1]), word[i + 2:]))
        rng.shuffle(pool)
        used: set = set()
        chosen = []
        for prefix, pair, suffix in pool:
            words = case_words("K", prefix, pair, suffix)
            if not words & used:
                used |= words
                chosen.append((prefix, pair, suffix))
            if len(chosen) == per_realization:
                break
        mirror = [(self._mirror(suffix), (self.MIRROR[pair[1]], self.MIRROR[pair[0]]),
                   self._mirror(prefix)) for prefix, pair, suffix in chosen]
        self.cases = [(CommutatorTestCase(p, pair, s, schemes[r]), case_words(r, p, pair, s))
                      for r, cases in (("K", chosen), ("A", mirror))
                      for p, pair, s in cases]
        self.ops = [(1, self._case(case)) for case, _ in self.cases]

    @classmethod
    def _mirror(cls, names):
        return tuple(cls.MIRROR[nm] for nm in reversed(names))

    @staticmethod
    def _case(case):
        def run():
            x, y = case.pair
            out = {}
            for names in (case.prefix + (x, y) + case.suffix, case.prefix + (y, x) + case.suffix):
                expr = evaluate_correlator(CurrentWord.from_names(names), case.scheme)
                out[names] = expr.to_json()
            comm = commutator_in_correlator(case)
            residual = canonicalize(comm - relation_rhs(case))
            return out, residual
        return run

    def check(self):
        bad = []
        for (case, words), result in zip(self.cases, self.results):
            if result is None:
                continue
            jsons, residual = result
            tag = f"{' '.join(case.prefix)} [{','.join(case.pair)}] {' '.join(case.suffix)}"
            if residual.terms:
                bad.append(f"deep {tag}: {len(residual.terms)} residual terms")
            for names in sorted(words):
                expr = evaluate_correlator(CurrentWord.from_names(names), case.scheme)
                if detect_singular(expr):
                    bad.append(f"deep {' '.join(names)}: singular pattern")
                if canonicalize(expr).terms != expr.terms:
                    bad.append(f"deep {' '.join(names)}: not a fixed point of canonicalize")
            for names, text in sorted(jsons.items()):
                self.digests.append(
                    f"{case.scheme.sector.realization} {' '.join(names)} "
                    f"{hashlib.sha256(text.encode()).hexdigest()}")
        return bad


class Sweep(Workload):
    """Every commutator relation in spectator contexts (K up to length two,
    A up to one) under drop-loops and a seeded mu family, then loop-scale
    blindness between that family and a second seeded mu family on the
    cases ``commutator_scale_blind`` selects in contexts up to length one.
    Many small words, each evaluated under several schemes and read back
    from the cache; the words of the blind cases (up to three insertions)
    are evaluated under all three schemes."""

    item_label = "verify.commutator_in_correlator"
    required = ("renorm.evaluate_correlator", "renorm.renormalize_diagram",
                "diagrams.enumerate_diagrams", "diagrams.diagram_weight",
                "diagrams.loop_components", "distributions.canonicalize",
                "verify.check_affine_relations", "verify.commutator_in_correlator",
                "verify.relation_rhs", "verify.mu_independence")

    def __init__(self, rng, seconds):
        super().__init__()
        if seconds >= 10:
            depth, blind_depth = {"K": 2, "A": 1}, {"K": 1, "A": 1}
        else:
            depth, blind_depth = {"K": 1, "A": 0}, {"K": 0, "A": 0}
        self.plan = []
        for realization in ("K", "A"):
            cfg = SectorConfig(realization, "nonunitary")
            fam, fam2 = mu_scheme(cfg, rng), mu_scheme(cfg, rng)
            zero = RenormScheme.drop_loops(cfg)
            n = len(CURRENTS[realization])
            expected = n * n * sum(n ** k * (k + 1) for k in range(depth[realization] + 1))
            for scheme in (zero, fam):
                self.plan.append(("relations", realization, scheme, depth[realization], expected))
                self.ops.append((expected, self._relations(scheme, depth[realization])))
            blind = [CommutatorTestCase(p, pair, s, fam) for pair in _RELATIONS[realization]
                     for p, s in _contexts(CURRENTS[realization], blind_depth[realization])]
            blind = [c for c in blind if commutator_scale_blind(c)]
            self.plan.append(("blind", realization, blind))
            self.ops.append((len(blind), self._blind(blind, fam, fam2)))

    @staticmethod
    def _relations(scheme, depth):
        return lambda: check_affine_relations(scheme, max_context=depth)

    @staticmethod
    def _blind(cases, fam, fam2):
        return lambda: mu_independence(cases, fam, fam2)

    def check(self):
        bad = []
        digest = hashlib.sha256()
        for plan, report in zip(self.plan, self.results):
            if report is None:
                continue
            kind, realization = plan[0], plan[1]
            if kind == "relations":
                scheme, depth, expected = plan[2], plan[3], plan[4]
                if len(report.cases) != expected:
                    bad.append(f"sweep {realization} {scheme.policy}: {len(report.cases)} "
                               f"cases, expected {expected}")
                bad += [f"sweep {realization} {scheme.policy}: {c['pair']} in "
                        f"{c['prefix']}|{c['suffix']} fails"
                        for c in report.cases if not c["ok"]]
                words = set()
                for prefix, suffix in _contexts(CURRENTS[realization], depth):
                    for pair in _RELATIONS[realization]:
                        words |= case_words(realization, prefix, pair, suffix)
                for names in sorted(words):
                    expr = evaluate_correlator(CurrentWord.from_names(names), scheme)
                    digest.update(f"{realization} {scheme.policy} {' '.join(names)}\n".encode())
                    digest.update(expr.to_json().encode())
            else:
                cases = plan[2]
                if len(report.details) != len(cases):
                    bad.append(f"sweep {realization} blind: {len(report.details)} of "
                               f"{len(cases)} cases compared")
                bad += [f"sweep {realization} blind: {d['pair']} in {d['prefix']}|"
                        f"{d['suffix']} depends on the loop scales"
                        for d in report.details if not d["identical"]]
        self.digests.append(f"sweep {digest.hexdigest()}")
        return bad


class Census(Workload):
    """``loop_census`` over all K words of length <= 5, all A words of length
    <= 4 and a seeded sample of K words of length 6.  The number of stub
    structures of a word depends only on how many J3 it has, so the sample
    takes the same number of words for every J3 count."""

    item_label = "diagrams.loop_census"
    required = ("diagrams.loop_census", "diagrams.loop_components")
    CHECKED_LENGTH = 4

    def __init__(self, rng, seconds):
        super().__init__()
        self.words = []
        for realization, longest in (("K", 5), ("A", 4)):
            for length in range(1, longest + 1):
                self.words += [(realization, w) for w in
                               itertools.product(CURRENTS[realization], repeat=length)]
        per_count = max(1, seconds // 4)
        for j3 in range(7):
            pool = [w for w in itertools.product(CURRENTS["K"], repeat=6)
                    if w.count("J3") == j3]
            self.words += [("K", w) for w in rng.sample(pool, min(per_count, len(pool)))]
        cfgs = {r: SectorConfig(r, "nonunitary") for r in ("K", "A")}
        self.ops = [(1, self._census(w, cfgs[r])) for r, w in self.words]

    @staticmethod
    def _census(word, cfg):
        return lambda: loop_census(word, cfg)

    def check(self):
        bad = []
        for (realization, word), report in zip(self.words, self.results):
            if report is None:
                continue
            if report.max_betti > 1:
                bad.append(f"census {' '.join(word)}: betti {report.max_betti}")
            if len(word) <= self.CHECKED_LENGTH:
                want = bruteforce.census(word)
                got = (report.diagrams, report.looped, report.max_betti)
                if got != want:
                    bad.append(f"census {' '.join(word)}: {got} != brute force {want}")
        return bad


class Numeric(Workload):
    """Floating-point layers: the Gaussian oracle against the engine on
    seeded words at seeded radii inside the disc, in four sectors, and
    smeared Hermiticity pairings of K words on the circle.  Each round has
    one word of every (sector, letter multiset) and one 3-insertion pairing;
    one 4-insertion pairing at the default grid (from 10 s of run length
    on) sets the workload's memory."""

    required = ("verify.gaussian_oracle", "verify.expression_value",
                "diagrams.enumerate_diagrams", "diagrams.diagram_weight",
                "distributions.canonicalize", "distributions.smear",
                "renorm.evaluate_correlator")
    SECTORS = (("K", "nonunitary"), ("A", "nonunitary"), ("K", "unitary"), ("A", "unitary"))
    LETTERS = {"K": (("J+", "J-", "J3"), ("J+", "J-", "J3", "J3")),
               "A": (("E", "F", "H"), ("E", "F", "H", "H"))}
    SMEAR_WORD = ("J+", "J-", "J3", "J3")
    TRUNC = 16
    KAPPA, P = 1.0, 0.25

    def __init__(self, rng, seconds):
        super().__init__()
        rounds = max(1, round(seconds / 5))
        self.items = []
        kcfg = SectorConfig("K", "nonunitary")
        scheme = mu_scheme(kcfg, rng)
        for _ in range(rounds):
            for realization, sector in self.SECTORS:
                cfg = SectorConfig(realization, sector)
                for letters in self.LETTERS[realization]:
                    names = tuple(rng.sample(letters, len(letters)))
                    points = [CirclePoint(Fraction(rng.randint(2, 7), 8),
                                          Fraction(rng.randint(0, 11), 12)) for _ in names]
                    self.items.append(("oracle", names, cfg, points))
            names = tuple(rng.sample(("J+", "J-", "J3"), 3))
            self.items.append(("smear", names, scheme, self._tests(rng, 3)))
        if seconds >= 10:
            self.items.append(("smear", self.SMEAR_WORD, scheme, self._tests(rng, 4)))
        self.ops = [(1, self._op(item)) for item in self.items]

    @staticmethod
    def _tests(rng, n):
        return {k: {m: complex(round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
                    for m in range(-2, 3)} for k in range(n)}

    def _op(self, item):
        kind, names, cfg_or_scheme, extra = item
        if kind == "oracle":
            cfg, points = cfg_or_scheme, extra

            def run():
                want = gaussian_oracle(names, points, cfg, SEQ, trunc=self.TRUNC,
                                       kappa=self.KAPPA, p=self.P)
                radii = {k: pt.r for k, pt in enumerate(points)}
                expr = canonicalize(correlator_expression(names, cfg, radii))
                got = expression_value(expr, dict(enumerate(points)), SEQ, trunc=self.TRUNC,
                                       kappa=self.KAPPA, p=self.P)
                return want, got
            return run
        scheme, tests = cfg_or_scheme, extra

        def run():
            n = len(names)
            starred, sign = star_word(names)
            lhs = evaluate_correlator(CurrentWord.from_names(names), scheme)
            rhs = evaluate_correlator(CurrentWord.from_names(starred), scheme)
            conj = {n - 1 - k: {-m: c.conjugate() for m, c in f.items()}
                    for k, f in tests.items()}
            a = smear(lhs, tests, SEQ, kappa=self.KAPPA, p=self.P)
            b = smear(rhs, conj, SEQ, kappa=self.KAPPA, p=self.P)
            return a, sign * b.conjugate()
        return run

    def check(self):
        bad = []
        for item, res in zip(self.items, self.results):
            if res is None:
                continue
            kind, names = item[0], item[1]
            a, b = res
            tol = 1e-8 if kind == "oracle" else 1e-10
            if not abs(a - b) <= tol * max(1.0, abs(a)):
                bad.append(f"numeric {kind} {' '.join(names)}: {a} vs {b}")
        return bad


WORKLOADS = {"deep": Deep, "sweep": Sweep, "census": Census, "numeric": Numeric}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](random.Random(args.seed), args.seconds)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(sys.modules[__name__])
    setup_s = (time.monotonic_ns() - T0_NS) * 1e-9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = failed = 0
    if tracer:
        tracer.active = True
    t0 = time.perf_counter()
    for weight, op in wl.ops:
        attempted += weight
        try:
            wl.results.append(tracer.item(op) if tracer else op())
        except Exception as exc:  # a failing operation is counted, not fatal
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            wl.results.append(None)
            failed += weight
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.active = False

    problems = wl.check()
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    out = {"correct": not problems, "attempted": attempted, "failed": failed,
           "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "digests": wl.digests}
    if tracer:
        metrics, extra = tracer.metrics(wl.item_label, wall_s)
        missing = [label for label in wl.required
                   if extra["per_name"].get(label, {}).get("calls", 0) == 0]
        if args.trace_dir:
            tracer.write(args.trace_dir, {"workload": args.workload, "seed": args.seed,
                                          "seconds": args.seconds, "metrics": metrics,
                                          "missing": missing, **extra})
        if missing:
            print(f"traced run: no call recorded for {', '.join(missing)}", file=sys.stderr)
            return 3
        out["per_layer"] = metrics
        out["item_tail_pct"] = extra["item_tail_pct"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
