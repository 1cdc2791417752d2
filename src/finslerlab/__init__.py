"""finslerlab: numerics for spherically symmetric Finsler metrics F = |y| * phi(|x|, <x,y>/|y|).

The package computes spray coefficients, volume densities and S-curvature for
such metrics, and renders numerical verdicts (isotropic S-curvature, Douglas
property, Berwald-family membership, Randers classification conditions), each
cross-checked against independent brute-force oracles.
"""

from .douglas import DouglasFit, douglas_verdict, fit_q
from .errors import (
    ConfigError,
    CrossCheckError,
    DegenerateInputError,
    DomainError,
    DomainExitError,
    FinslerError,
    ParseError,
    QuadratureError,
    RegularityError,
    UnknownIdentifierError,
)
from .expr import ExpressionTree, ScalarFunction, parse_expression
from .families import (
    FamilyBuildResult,
    OdeSolution,
    SampledFunction,
    bh_classification_residuals,
    bh_solve_g,
    build_berwald_family,
    certify_family,
    family_pde_residual,
    ht_condition_residual,
    ht_solve_h,
    spray_system_residual,
)
from .geometry import (
    BerwaldFamilyProfile,
    MetricSpec,
    embed_point,
    general_phi_spec,
    metric_determinant,
    phi_jet,
    randers_spec,
    regularity_scan,
    s_fractions,
    spray_values,
)
from .jets import Jet3
from .oracle import finsler_norm, integrate_geodesic, s_by_distortion
from .randers import (
    RandersCoefficients,
    christoffel_coefficients,
    covariant_b_coefficients,
    isotropy_condition_check,
    randers_coefficients,
    randers_reduced_s,
    sigma_closed_form,
)
from .scurvature import IsotropyReport, isotropy_profile, reduced_s
from .volume import BH, CONSTANT, HT, CustomDensity, density, f_coefficient, sigma_bh, sigma_ht

__version__ = "0.1.0"

__all__ = [
    "BH",
    "BerwaldFamilyProfile",
    "CONSTANT",
    "ConfigError",
    "CrossCheckError",
    "CustomDensity",
    "DegenerateInputError",
    "DomainError",
    "DomainExitError",
    "DouglasFit",
    "ExpressionTree",
    "FamilyBuildResult",
    "FinslerError",
    "HT",
    "IsotropyReport",
    "Jet3",
    "MetricSpec",
    "OdeSolution",
    "ParseError",
    "QuadratureError",
    "RandersCoefficients",
    "RegularityError",
    "SampledFunction",
    "ScalarFunction",
    "UnknownIdentifierError",
    "bh_classification_residuals",
    "bh_solve_g",
    "build_berwald_family",
    "certify_family",
    "christoffel_coefficients",
    "covariant_b_coefficients",
    "density",
    "douglas_verdict",
    "embed_point",
    "f_coefficient",
    "family_pde_residual",
    "finsler_norm",
    "fit_q",
    "general_phi_spec",
    "ht_condition_residual",
    "ht_solve_h",
    "integrate_geodesic",
    "isotropy_condition_check",
    "isotropy_profile",
    "metric_determinant",
    "parse_expression",
    "phi_jet",
    "randers_coefficients",
    "randers_reduced_s",
    "randers_spec",
    "reduced_s",
    "regularity_scan",
    "s_by_distortion",
    "s_fractions",
    "sigma_bh",
    "sigma_closed_form",
    "sigma_ht",
    "spray_system_residual",
    "spray_values",
    "__version__",
]
