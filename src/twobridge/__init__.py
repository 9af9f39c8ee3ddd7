"""Exact arithmetic for 2-bridge knot groups.

From a Schubert presentation B(m, n) the package computes Fox
derivatives, Riley polynomials and their F_p character points,
one-parameter p-adic deformations of mod-p SL2 representations with a
universality certificate, twisted Alexander invariants, and the gcd
normal form p^mu T^lam of the L-function of a deformation, together
with adjoint cohomology dimensions of the residual representation.
"""

from .deformations import (
    AxiomReport,
    BranchMismatch,
    Certificate,
    DeformationFamily,
    Representation,
    Specialization,
    build_family,
    build_rho1,
    build_rho2,
    build_rho3,
    build_rho4,
    character_curve_value,
    specialize_family,
    trace_axioms,
    universality_certificate,
)
from .groupring import fox_derivative, fundamental_identity_defect
from .homology import (
    AlexanderResult,
    CohomologyDims,
    FittingResult,
    TorsionReport,
    VanishingReport,
    ad_cohomology,
    boundary1,
    boundary2,
    chain_contraction,
    delta0_h0,
    l_function,
    torsion_criterion,
    twisted_alexander,
    vanishing_link,
)
from .laurent import LaurentPoly, divide_exact, eq_up_to_unit, laurent_gcd
from .matrices import Mat2, word_matrix
from .padics import (
    BadSeed,
    DivisorNormalForm,
    Indeterminate,
    NonUnit,
    NoSquareRoot,
    PadicInt,
    PadicSeries,
    SingularRoot,
    Zp,
    ZpT,
    gcd_normal_form,
    hensel_root,
    sqrt_positive,
)
from .presentations import TwoBridgePresentation, epsilon_sequence, two_bridge
from .registry import EXAMPLE_IDS, EXAMPLES, ExampleSpec, get_example
from .riley import (
    BivariatePoly,
    CharacterPoint,
    RileyData,
    char_points,
    discriminant,
    riley_polynomial,
)
from .verify import RunReport, VerifyReport, run_example, verify_example
from .words import FreeWord, gen, parse_word, reduced_words

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "AlexanderResult",
    "BadSeed",
    "BivariatePoly",
    "BranchMismatch",
    "Certificate",
    "CharacterPoint",
    "CohomologyDims",
    "DeformationFamily",
    "DivisorNormalForm",
    "EXAMPLES",
    "EXAMPLE_IDS",
    "ExampleSpec",
    "FittingResult",
    "FreeWord",
    "Indeterminate",
    "LaurentPoly",
    "Mat2",
    "NoSquareRoot",
    "NonUnit",
    "PadicInt",
    "PadicSeries",
    "Representation",
    "RileyData",
    "RunReport",
    "SingularRoot",
    "Specialization",
    "TorsionReport",
    "TwoBridgePresentation",
    "VanishingReport",
    "VerifyReport",
    "Zp",
    "ZpT",
    "ad_cohomology",
    "boundary1",
    "boundary2",
    "build_family",
    "build_rho1",
    "build_rho2",
    "build_rho3",
    "build_rho4",
    "chain_contraction",
    "character_curve_value",
    "char_points",
    "delta0_h0",
    "discriminant",
    "divide_exact",
    "epsilon_sequence",
    "eq_up_to_unit",
    "fox_derivative",
    "fundamental_identity_defect",
    "gcd_normal_form",
    "gen",
    "get_example",
    "hensel_root",
    "l_function",
    "laurent_gcd",
    "parse_word",
    "reduced_words",
    "riley_polynomial",
    "run_example",
    "specialize_family",
    "sqrt_positive",
    "torsion_criterion",
    "trace_axioms",
    "twisted_alexander",
    "two_bridge",
    "universality_certificate",
    "vanishing_link",
    "verify_example",
    "word_matrix",
]
