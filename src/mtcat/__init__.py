"""mtcat: finite data of ribbon/modular tensor categories, checked and computed.

The package validates fusion rings, verifies pentagon/hexagon/triangle/ribbon
coherence of F/R symbol data, computes categorical dimensions, twists and
modular S/T matrices, decides nondegeneracy, and ships generators for the
standard small families (pointed cyclic, Fibonacci, Ising, level-k quantum
group categories).
"""

__version__ = "0.1.0"
# the catalog's families, here so that the CLI lists them without importing the catalog
_FAMILIES = ("trivial", "pointed_zn", "fibonacci", "ising", "su2_level")

from .errors import (
    ComputationError,
    DegenerateSMatrix,
    IncompleteData,
    InputError,
    MtcatError,
    ParseError,
    RigidityDegenerate,
    SchemaError,
    ValidationError,
    WeightsInconsistent,
)
from .fusion_ring import (
    FusionRing,
    Label,
    SMatrix,
    ValidationReport,
    VerlindeResult,
    fp_dimensions,
    fuse,
    validate_ring,
    verlinde_coefficients,
)
from .category_data import (
    CategoryData,
    GaugeTransform,
    LabeledMatrix,
    f_inverse_unit_check,
    f_matrix,
    gauge_transform,
    hexagon_residual,
    pentagon_residual,
    random_gauge,
    rigidity_scalar,
    triangle_residual,
    validate_symbols,
)
from .ribbon_modular import (
    ModularReport,
    check_modular,
    monodromy,
    quantum_dimension,
    quantum_dimensions,
    ribbon_residual,
    s_matrix_balanced,
    s_matrix_unnormalized,
    t_matrix,
    twist,
)
from .io import load, loads, save, dumps, run_report, report_to_json, report_to_text

__all__ = [
    "__version__",
    # errors
    "MtcatError", "InputError", "ParseError", "SchemaError", "ValidationError",
    "IncompleteData", "DegenerateSMatrix", "RigidityDegenerate",
    "WeightsInconsistent", "ComputationError",
    # fusion ring
    "FusionRing", "Label", "SMatrix", "ValidationReport", "VerlindeResult",
    "validate_ring", "fuse", "fp_dimensions", "verlinde_coefficients",
    # category data
    "CategoryData", "GaugeTransform", "LabeledMatrix",
    "pentagon_residual", "hexagon_residual", "triangle_residual",
    "f_matrix", "rigidity_scalar", "f_inverse_unit_check",
    "gauge_transform", "random_gauge", "validate_symbols",
    # ribbon / modular
    "ModularReport", "check_modular", "quantum_dimension", "quantum_dimensions",
    "twist", "monodromy", "ribbon_residual",
    "s_matrix_unnormalized", "s_matrix_balanced", "t_matrix",
    # catalog
    "CatalogSpec", "generate", "make", "q_racah_6j",
    # io
    "load", "loads", "save", "dumps", "run_report",
    "report_to_json", "report_to_text",
]


def __getattr__(name):  # the catalog is imported on first use: of the CLI, only gen needs it
    if name in ("CatalogSpec", "generate", "make", "q_racah_6j"):
        from . import catalog
        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
