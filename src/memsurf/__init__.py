"""Nonlinearly elastic membranes confined to rigid surfaces.

Energy minimization over surface-constrained piecewise-linear
configurations, randomized certificates for the constitutive hypotheses
(frame indifference, split convexity, stress growth, coercivity, rank-one
convexity failure), and topological/variational diagnostics of computed
states (Brouwer degree, injectivity, first-variation residuals).
"""

from .constitutive import IsotropicModel, ThetaModel
from .diagnostics import (
    DegreeResult,
    OverlapReport,
    ResidualResult,
    boundary_winding,
    brouwer_degree,
    first_variation_residual,
    injectivity_check,
)
from .discretization import energy_gradient, interpolate
from .errors import (
    AmbiguousProjectionError,
    BoundaryTooCloseError,
    ChartSpanFailureError,
    ConfigError,
    DegenerateElementError,
    DeltaTooLargeError,
    InfeasibleStartError,
    InvalidEpsilonError,
    InvalidModelError,
    MemsurfError,
    NonpositiveJError,
    OffSurfaceError,
    RankDeficientError,
)
from .geometry import (
    Chart,
    Plane,
    Sphere,
    Surface,
    Torus,
    make_surface,
)
from .maps import make_initial_map
from .mesh import TriMesh, build_mesh, save_mesh
from .minimizer import MinimizeReport, initialize, minimize
from .verification import (
    CheckReport,
    RankOneWitness,
    check_growth,
    check_stress_growth,
    check_isotropy,
    check_perturbed_stress_bound,
    check_midpoint_convexity,
    check_negative_control,
    check_objectivity,
    check_rank_one,
    rank_one_counterexample,
    run_all_checks,
)
from .config import RunConfig, parse_config, parse_config_file

__version__ = "0.1.0"
