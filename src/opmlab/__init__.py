"""Optimal prediction measures for polynomial extrapolation on plane compacta.

Core objects: boundary geometries with exterior conformal maps and Faber
polynomials (`geometry`), discrete boundary measures and balayage
(`measure`), Bergman/Christoffel evaluation through stable factorizations
(`bergman`), the grid OPM solver with optimality certificates (`opm`), Szego
functions and the circle transport identity (`szego`), and a seeded
invariant suite (`verify`).  The `opmlab` console script drives experiments.
"""

from . import _blas, bergman, geometry, measure, opm, szego, verify
from .bergman import (
    BergmanEvaluation,
    bergman_function,
    extremal_growth_polynomial,
    tilde_monotonicity_defect,
)
from .errors import (
    ConfigError,
    CurveRequired,
    DomainViolation,
    EmptySupport,
    InsideDomain,
    InvalidGeometry,
    NoConvergence,
    NotOptimal,
    NotSzegoClass,
    OpmlabError,
    RankDeficient,
    TooCloseToBoundary,
)
from .geometry import (
    CurveGeometry,
    FaberTable,
    ellipse,
    exterior_map,
    faber_asymptotic_deviation,
    faber_polynomials,
    green_function,
    interval,
    laurent_curve,
    level_curve_nodes,
    unit_circle,
)
from .measure import (
    DiscreteMeasure,
    balayage_point_mass,
    discretize_boundary,
    holomorphic_moments,
    moment_discrepancy,
    pushforward,
    uniform_measure,
)
from .opm import (
    ConvergenceRow,
    OpmSolution,
    SupportReport,
    certificate_gap,
    convergence_study,
    solve_opm,
    support_diagnostic,
)
from .szego import (
    CircleDensity,
    OptimalityReport,
    SzegoEvaluation,
    poisson_density,
    szego_function,
    szego_function_raw,
    transport_check,
    uniform_density,
    verify_circle_optimality,
)

__version__ = "0.1.0"

# numpy.linalg and scipy.linalg are loaded by now; see `_blas` for why.
_blas.pin_single_thread()

__all__ = [
    "BergmanEvaluation",
    "CircleDensity",
    "ConfigError",
    "ConvergenceRow",
    "CurveGeometry",
    "CurveRequired",
    "DiscreteMeasure",
    "DomainViolation",
    "EmptySupport",
    "FaberTable",
    "InsideDomain",
    "InvalidGeometry",
    "NoConvergence",
    "NotOptimal",
    "NotSzegoClass",
    "OpmSolution",
    "OpmlabError",
    "OptimalityReport",
    "RankDeficient",
    "SupportReport",
    "SzegoEvaluation",
    "TooCloseToBoundary",
    "balayage_point_mass",
    "bergman",
    "bergman_function",
    "certificate_gap",
    "convergence_study",
    "discretize_boundary",
    "ellipse",
    "exterior_map",
    "extremal_growth_polynomial",
    "faber_asymptotic_deviation",
    "faber_polynomials",
    "geometry",
    "green_function",
    "holomorphic_moments",
    "interval",
    "laurent_curve",
    "level_curve_nodes",
    "measure",
    "moment_discrepancy",
    "opm",
    "poisson_density",
    "pushforward",
    "solve_opm",
    "support_diagnostic",
    "szego",
    "szego_function",
    "szego_function_raw",
    "tilde_monotonicity_defect",
    "transport_check",
    "uniform_density",
    "uniform_measure",
    "unit_circle",
    "verify",
    "verify_circle_optimality",
]
