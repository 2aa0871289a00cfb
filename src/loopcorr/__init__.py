"""Symbolic correlators of sl(2,R) currents built from loop ax+b generators.

The package computes renormalized correlation functions of the composite
currents J+/J-/J3 (compact K realization) and E/F/H (A realization) by
enumerating contraction diagrams, applying loop-renormalization rules, and
verifying the affine commutation relations and Hermiticity inside
correlators.
"""

__version__ = "0.1.0"

from .errors import (
    LoopcorrError,
    MissingMu,
    ParseError,
    RealizationMismatch,
    SingularProduct,
    StructuralViolation,
)
from .kernels import CirclePoint, XiSequence
from .algebra import (
    CURRENT_STAR,
    CURRENTS_A,
    CURRENTS_K,
    SectorConfig,
    classical_check,
    current_def,
    expand_current,
    star_check,
)
from .distributions import (
    Coeff,
    Expression,
    Term,
    canonicalize,
    conjugate,
    detect_singular,
    smear,
)
from .diagrams import enumerate_diagrams, loop_census, loop_components, to_dot
from .renorm import CurrentWord, RenormScheme, evaluate_correlator
from .verify import (
    CommutatorTestCase,
    check_affine_relations,
    check_hermiticity,
    commutator_in_correlator,
    commutator_scale_blind,
    gaussian_oracle,
    gram_matrix,
    mu_independence,
    relation_rhs,
    star_word,
)

__all__ = [
    "CURRENT_STAR",
    "CURRENTS_A",
    "CURRENTS_K",
    "CirclePoint",
    "Coeff",
    "CommutatorTestCase",
    "CurrentWord",
    "Expression",
    "LoopcorrError",
    "MissingMu",
    "ParseError",
    "RealizationMismatch",
    "RenormScheme",
    "SectorConfig",
    "SingularProduct",
    "StructuralViolation",
    "Term",
    "XiSequence",
    "canonicalize",
    "check_affine_relations",
    "check_hermiticity",
    "classical_check",
    "commutator_in_correlator",
    "commutator_scale_blind",
    "conjugate",
    "current_def",
    "detect_singular",
    "enumerate_diagrams",
    "evaluate_correlator",
    "expand_current",
    "gaussian_oracle",
    "gram_matrix",
    "loop_census",
    "loop_components",
    "mu_independence",
    "relation_rhs",
    "smear",
    "star_check",
    "star_word",
    "to_dot",
]
