"""Renormalized vacuum field expectations near dispersive dielectric half-spaces.

Computes <E^2>, <B^2> and the energy density outside a single half-space
and inside the vacuum gap between two half-spaces, for Drude, constant
permittivity, perfect conductor and vacuum material laws, in natural
units (hbar = c = 1). Includes the closed-form perfect-conductor
references, near-wall asymptotics, and the critical gap width at which
the midgap energy density turns negative.
"""

__version__ = "0.1.0"

from .analysis import (
    HBAR_C_EV_NM,
    FieldPoint,
    Profile,
    ScanPoint,
    compute_point,
    critical_lambda,
    critical_separation_physical,
    midpoint_scan,
    profile,
    profile_at,
    wall_reduction_check,
)
from .closed_form import (
    AsymptoteReport,
    NearWallAsymptotes,
    casimir_polder,
    near_wall_asymptotes,
    pc_cavity_b2,
    pc_cavity_b2_polygamma,
    pc_cavity_e2,
    pc_cavity_e2_polygamma,
    pc_cavity_energy,
    pc_single_b2,
    pc_single_e2,
    polygamma3,
)
from .dielectric import (
    ConstantEpsilon,
    DielectricModel,
    Drude,
    PerfectConductor,
    Vacuum,
)
from .errors import (
    CasimirFieldsError,
    DivergesAtBoundary,
    DomainError,
    InvalidDecayScale,
    NonConvergence,
    NoSignChange,
    NotApplicableError,
)
from .integrand import (
    CAVITY_PREFACTOR,
    SINGLE_PREFACTOR,
    Cavity,
    FieldKind,
    Geometry,
    SingleInterface,
    decay_scale_for,
    integrand_function,
)
from .quadrature import IntegralResult, QuadratureConfig, integrate_fixed_grid, integrate_semi_infinite

__all__ = [
    "__version__",
    "HBAR_C_EV_NM",
    "FieldPoint",
    "Profile",
    "ScanPoint",
    "compute_point",
    "critical_lambda",
    "critical_separation_physical",
    "midpoint_scan",
    "profile",
    "profile_at",
    "wall_reduction_check",
    "AsymptoteReport",
    "NearWallAsymptotes",
    "casimir_polder",
    "near_wall_asymptotes",
    "pc_cavity_b2",
    "pc_cavity_b2_polygamma",
    "pc_cavity_e2",
    "pc_cavity_e2_polygamma",
    "pc_cavity_energy",
    "pc_single_b2",
    "pc_single_e2",
    "polygamma3",
    "ConstantEpsilon",
    "DielectricModel",
    "Drude",
    "PerfectConductor",
    "Vacuum",
    "CasimirFieldsError",
    "DivergesAtBoundary",
    "DomainError",
    "InvalidDecayScale",
    "NonConvergence",
    "NoSignChange",
    "NotApplicableError",
    "CAVITY_PREFACTOR",
    "SINGLE_PREFACTOR",
    "Cavity",
    "FieldKind",
    "Geometry",
    "SingleInterface",
    "decay_scale_for",
    "integrand_function",
    "IntegralResult",
    "QuadratureConfig",
    "integrate_fixed_grid",
    "integrate_semi_infinite",
]
