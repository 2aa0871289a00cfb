"""Exception types shared across the engine."""

from __future__ import annotations


class LoopcorrError(Exception):
    """Base class for all engine errors."""


class SingularProduct(LoopcorrError):
    """A product of distributions with no finite meaning was encountered
    (repeated delta pair or a closed delta cycle) outside of a
    loop-renormalization context."""


class RealizationMismatch(LoopcorrError):
    """Mixed or wrong realization: J-currents live in the K realization,
    E/F/H in the A realization."""


class StructuralViolation(LoopcorrError):
    """A diagram violated a structural invariant that the enumerator is
    supposed to guarantee (e.g. a connected component with two loops)."""


class MissingMu(LoopcorrError):
    """A loop scale mu_k survives in a canonical correlator but the
    renormalization scheme provides neither mu_k nor a default."""


class ParseError(LoopcorrError):
    """Word syntax error.  Carries a 1-based byte offset and a description
    of what was expected there."""

    def __init__(self, message: str, offset: int, expected: str = "") -> None:
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = expected
