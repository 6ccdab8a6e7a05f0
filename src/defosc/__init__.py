"""Deformed-oscillator structure functions, coherent states and moment checks."""

from .algebra import (
    DeformationSpec,
    RadiusEstimate,
    StructureTable,
    estimate_radius,
    make_spec,
    phi_closed_sequence,
    phi_recurrence,
)
from .catalog import CATALOG, builtin_spec
from .coherent import (
    CoherentState,
    PhotonStatistics,
    deformed_exp,
    eigen_residual,
    make_state,
    overlap,
    photon_statistics,
    uncertainty_product,
)
from .expr import Expression, evaluate, parse, unparse
from .fock import CertificationReport, FockRep, build_rep, certify
from .moments import (
    CarlemanDiagnostic,
    MomentReport,
    WeightSpec,
    builtin_weight,
    carleman_diagnostic,
    check_moments,
    weight_from_expression,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CarlemanDiagnostic",
    "CertificationReport",
    "CoherentState",
    "DeformationSpec",
    "Expression",
    "FockRep",
    "MomentReport",
    "PhotonStatistics",
    "RadiusEstimate",
    "StructureTable",
    "WeightSpec",
    "builtin_spec",
    "builtin_weight",
    "build_rep",
    "carleman_diagnostic",
    "certify",
    "check_moments",
    "deformed_exp",
    "eigen_residual",
    "estimate_radius",
    "evaluate",
    "make_spec",
    "make_state",
    "overlap",
    "parse",
    "phi_closed_sequence",
    "phi_recurrence",
    "photon_statistics",
    "uncertainty_product",
    "unparse",
    "weight_from_expression",
    "__version__",
]
