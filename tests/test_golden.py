"""Golden canonical outputs: the SHA-256 of ``Expression.to_json`` for a
fixed ladder of words must not change unless a change to the canonical form
is intended.

The ladder is every K and A word of length 1 to 3 in both sectors under
drop-loops and a mu family, in the unitary sector also under the dotted
scheme and in the nonunitary sector also under a mu family with a zero
scale, plus one 3-insertion word at radius 1/2 per scheme, plus four
5-insertion words in the nonunitary sector under the mu family (484 words):
J+ J- J+ J- J3 (4450 diagrams), its A mirror H F E F E, and one word of
each realization from the deep benchmark workload.
The hashes live in ``golden_to_json.json`` next to this file; regenerate
them (only for an intended change) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import itertools
import json
import os
from fractions import Fraction

from loopcorr.algebra import CURRENTS_A, CURRENTS_K, SectorConfig
from loopcorr.renorm import CurrentWord, RenormScheme, evaluate_correlator

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_to_json.json")
MU = {2: Fraction(1), 3: Fraction(1, 2), 4: Fraction(-2, 3)}
DEFAULT_MU = Fraction(1, 3)
# a family in which loops of length 3 and longer drop out but 2-loops stay
ZERO_MU = {2: Fraction(1), 3: Fraction(0)}
# words of five insertions, where canonicalization dominates the cost
LONG = {"K": ("J+ J- J+ J- J3", "J- J3 J3 J+ J3"), "A": ("H F E F E", "E H H H F")}


def _schemes(realization, sector):
    """(tag, scheme) pairs; the tag is the policy unless two schemes share it."""
    cfg = SectorConfig(realization, sector)
    yield "drop-loops", RenormScheme.drop_loops(cfg)
    yield "mu", RenormScheme.mu_family(cfg, entries=MU, default=DEFAULT_MU)
    if cfg.unitary:
        yield "unitary-dotted", RenormScheme.unitary_dotted(cfg, entries=MU, default=DEFAULT_MU)
    else:
        yield "mu-zero", RenormScheme.mu_family(cfg, entries=ZERO_MU, default=0)


def ladder():
    """(label, word, scheme) for every golden evaluation."""
    for realization, currents in (("K", CURRENTS_K), ("A", CURRENTS_A)):
        for sector in ("nonunitary", "unitary"):
            for name, scheme in _schemes(realization, sector):
                tag = f"{realization}/{sector}/{name}"
                for n in (1, 2, 3):
                    for names in itertools.product(currents, repeat=n):
                        yield f"{tag}: {' '.join(names)}", CurrentWord.from_names(names), scheme
                yield (f"{tag}: {' '.join(currents)} @ r=1/2",
                       CurrentWord.from_names(currents, radius=Fraction(1, 2)), scheme)
                if sector == "nonunitary" and name == "mu":
                    for text in LONG[realization]:
                        yield f"{tag}: {text}", CurrentWord.from_names(text.split()), scheme


def digests():
    return {label: hashlib.sha256(evaluate_correlator(word, scheme).to_json().encode()).hexdigest()
            for label, word, scheme in ladder()}


def test_canonical_json_is_unchanged():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = digests()
    assert len(got) == 484
    assert sorted(got) == sorted(want), "the golden ladder itself changed"
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"canonical JSON changed for {len(changed)} words, first: {changed[:5]}"


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
