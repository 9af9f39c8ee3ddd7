"""Catalog of the four worked pipeline examples.

Each entry ties a deformation family, which states its own knot, prime,
character point and residual matrices, to its reference values: the
residual Alexander data, closed forms for the six 2-minors of the
second boundary map where known, and the expected gcd normal form of
the L-function.

Ids are opaque labels fixed by the command-line contract: 4.5.1 and
4.5.2 are the two torsion-free cases (trefoil at p=3, figure-eight at
p=7), 4.5.3a and 4.5.3b the two 5_2 cases (p=11 and p=19) where L
acquires a square factor.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .deformations import DeformationFamily, Specialization
from .laurent import LaurentPoly
from .padics import PadicInt, PadicSeries

# Riley polynomials in (x, y) coordinates for the three knots used by
# the examples, monic in y; keys are (power of x, power of y).
RILEY_PSI_TERMS = {
    (3, 1): {(0, 1): 1, (0, 0): -1},
    (5, 3): {(0, 2): 1, (2, 1): -1, (0, 1): -1, (2, 0): 2, (0, 0): -1},
    (7, 3): {
        (0, 3): 1,
        (2, 2): -1,
        (0, 2): -1,
        (2, 1): 3,
        (0, 1): -2,
        (2, 0): -2,
        (0, 0): 1,
    },
}


def _minors_rho3(fam: DeformationFamily) -> list[PadicSeries]:
    """Closed forms of the six row-pair minors of the second boundary
    map for the p=11 family, in lexicographic pair order."""
    half = fam.ring.base(2).invert_unit()
    x = fam.trace_series
    s, sq = fam.params["s"], fam.params["q"]
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    a = (s - 1) * x2 * 4 + x - (s * 2 - 1) ** 2 * 4
    brace13 = (
        (s - 1) * x4 * 4
        - (s * s * 8 - s * 2 - 5) * x2 * 2
        + (s - 1) * x * 4
        + (s * 4 - 3) * (s * 12 - 5)
    )
    brace14 = (
        (s - 1) * x4 * 4
        - (s - 1) * x3 * 8
        - (s * s * 4 - s * 5 + 2) * x2 * 4
        + (s * s * 8 - s * 7 + 2) * x * 4
        - (s * 4 - 1) ** 2
    )
    return [
        (x - 2) * a * 2,
        -(brace13 * (x - 2 - sq)) * half,
        brace14,
        -brace14,
        a * (x - 2 + sq) * 2,
        (x - 2) * a * 2,
    ]


def _minors_rho4(fam: DeformationFamily) -> list[PadicSeries]:
    """Closed forms of the six row-pair minors for the p=19 family."""
    half = fam.ring.base(2).invert_unit()
    x = fam.trace_series
    v, sq = fam.params["v"], fam.params["q"]
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    b = (v - 1) * x2 * 4 + x - (v * 2 - 1) ** 2 * 4
    r = (
        (v - 1) * x4 * 4
        - (v * 8 - 9) * x3
        - (v * v * 8 - v * 10 + 5) * x2 * 2
        + (v * v * 8 - v * 9 + 3) * x * 4
        - (v * 4 - 3) ** 2
    )
    return [
        (x - 2) * b * 2,
        -((v - 1) * x2 * 4 - (v - 1) * x * 4 - (v * 4 - 3) ** 2) * sq * half,
        r - (x - 2) * b * sq,
        -r - (x - 2) * b * sq,
        b * sq * 2,
        (x - 2) * b * 2,
    ]


def _spec_delta_rho3(spec: Specialization) -> LaurentPoly:
    """-2 { c + 5t + c t^2 } with c = -8 mu^2 + 58 mu - 52, mu the
    auxiliary cubic root at x = 5."""
    base = spec.family.ring.base
    mu = spec.params["s"]
    c = mu * mu * (-8) + mu * 58 - 52
    return LaurentPoly(base, {0: (c * (-2)).r, 1: -10, 2: (c * (-2)).r})


def _spec_delta_rho4(spec: Specialization) -> LaurentPoly:
    """-2 { c + 6t + c t^2 } with c = -8 nu^2 + 80 nu - 74, nu the
    auxiliary cubic root at x = 6."""
    base = spec.family.ring.base
    nu = spec.params["v"]
    c = nu * nu * (-8) + nu * 80 - 74
    return LaurentPoly(base, {0: (c * (-2)).r, 1: -12, 2: (c * (-2)).r})


def _spec_delta1_rho3(spec: Specialization) -> PadicInt:
    mu = spec.params["s"]
    return (mu * mu * (-16) + mu * 116 - 99) * (-2)


def _spec_delta1_rho4(spec: Specialization) -> PadicInt:
    nu = spec.params["v"]
    return (nu * nu * (-16) + nu * 160 - 142) * (-2)


class ExampleSpec(NamedTuple):
    """Reference data for one worked example."""

    id: str
    family_key: str
    expected_l: tuple[int, int]
    expected_delta0_unit: bool
    residual_delta_coeffs: dict[int, int]
    residual_delta_at_one_residue: int
    residual_det_g2: int
    x_rat: int | None = None
    spec_det_g2: int | None = None
    expected_minors: Callable[[DeformationFamily], list] | None = None
    expected_spec_delta: Callable[[Specialization], LaurentPoly] | None = None
    expected_spec_delta_at_one: Callable[[Specialization], PadicInt] | None = None


EXAMPLES = {
    "4.5.1": ExampleSpec(
        id="4.5.1",
        family_key="rho1",
        expected_l=(0, 0),
        expected_delta0_unit=True,
        residual_delta_coeffs={0: 1, 2: 1},
        residual_delta_at_one_residue=2,
        residual_det_g2=0,
    ),
    "4.5.2": ExampleSpec(
        id="4.5.2",
        family_key="rho2",
        expected_l=(0, 0),
        expected_delta0_unit=True,
        residual_delta_coeffs={-2: 1, -1: 4, 0: 1},
        residual_delta_at_one_residue=6,
        residual_det_g2=4,
    ),
    "4.5.3a": ExampleSpec(
        id="4.5.3a",
        family_key="rho3",
        expected_l=(0, 2),
        expected_delta0_unit=True,
        residual_delta_coeffs={0: 5, 1: 1, 2: 5},
        residual_delta_at_one_residue=0,
        residual_det_g2=8,
        x_rat=5,
        spec_det_g2=-3,
        expected_minors=_minors_rho3,
        expected_spec_delta=_spec_delta_rho3,
        expected_spec_delta_at_one=_spec_delta1_rho3,
    ),
    "4.5.3b": ExampleSpec(
        id="4.5.3b",
        family_key="rho4",
        expected_l=(0, 2),
        expected_delta0_unit=True,
        residual_delta_coeffs={0: 6, 1: 7, 2: 6},
        residual_delta_at_one_residue=0,
        residual_det_g2=-4,
        x_rat=6,
        spec_det_g2=-4,
        expected_minors=_minors_rho4,
        expected_spec_delta=_spec_delta_rho4,
        expected_spec_delta_at_one=_spec_delta1_rho4,
    ),
}

EXAMPLE_IDS = tuple(sorted(EXAMPLES))
FAMILY_TO_ID = {spec.family_key: spec.id for spec in EXAMPLES.values()}


def get_example(example_id: str) -> ExampleSpec:
    try:
        return EXAMPLES[example_id]
    except KeyError:
        raise ValueError("unknown example id %r; choose from %s" % (example_id, list(EXAMPLE_IDS)))
