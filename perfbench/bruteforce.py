"""A brute-force loop census written apart from ``loopcorr.diagrams``.

It follows the contraction rules stated in the ``diagrams`` docstring:

* every charged current (J+, J-, E, F) carries an exponential and is either
  a b-stub, an a-stub or stub-free (the derivative and Heisenberg terms);
* every neutral current (J3, H) is an a-stub, a b-stub or a terminal;
* an a-stub hits something strictly to its right, a b-stub strictly to its
  left; hitting an exponential emits a plain delta edge, hitting a terminal
  consumes it (a terminal takes at most one hit); a stub with no target
  kills the structure.

Only plain delta edges count for loops.  Cycles are found with a union-find
of this module's own: an edge whose ends are already joined closes a cycle,
and the number of such edges in a component is its first Betti number.
The census is over the non-unitary sector, where stubs never pair with
each other.
"""

from __future__ import annotations

import itertools

CHARGED = {"J+", "J-", "E", "F"}
NEUTRAL = {"J3", "H"}

# (stub, terminal, charged) classes of one insertion
_CLASSES = {
    "charged": (("b", False, True), ("a", False, True), (None, False, True)),
    "neutral": (("a", False, False), ("b", False, False), (None, True, False)),
}


def _classes(name: str):
    if name in CHARGED:
        return _CLASSES["charged"]
    if name in NEUTRAL:
        return _CLASSES["neutral"]
    raise ValueError(f"unknown current {name!r}")


def _edges_of(choice):
    """Every stub resolution of one class choice, as lists of plain edges."""
    n = len(choice)
    options = []
    for s, (stub, _terminal, _charged) in enumerate(choice):
        if stub is None:
            continue
        targets = range(s + 1, n) if stub == "a" else range(s)
        opts = []
        for t in targets:
            if choice[t][2]:
                opts.append(("exp", s, t))
            if choice[t][1]:
                opts.append(("terminal", s, t))
        if not opts:
            return
        options.append(opts)
    for pick in itertools.product(*options):
        hits = [t for kind, _s, t in pick if kind == "terminal"]
        if len(hits) != len(set(hits)):
            continue
        yield [(s, t) for kind, s, t in pick if kind == "exp"]


def _betti(n: int, edges) -> int:
    """Largest first Betti number over the components of a multigraph."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    extra = [0] * n
    for s, t in edges:
        rs, rt = find(s), find(t)
        if rs == rt:
            extra[rs] += 1
        else:
            parent[rt] = rs
            extra[rs] += extra[rt]
            extra[rt] = 0
    return max((extra[find(v)] for v in range(n)), default=0)


def census(word):
    """(structures, looped structures, max Betti number) of a current word."""
    structures = looped = worst = 0
    for choice in itertools.product(*(_classes(nm) for nm in word)):
        for edges in _edges_of(choice):
            structures += 1
            b = _betti(len(word), edges)
            looped += b > 0
            worst = max(worst, b)
    return structures, looped, worst
