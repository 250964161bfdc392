"""Nonlinearly elastic membranes confined to rigid surfaces.

Energy minimization over surface-constrained piecewise-linear
configurations, randomized certificates for the constitutive hypotheses
(frame indifference, split convexity, stress growth, coercivity, rank-one
convexity failure), and topological/variational diagnostics of computed
states (Brouwer degree, injectivity, first-variation residuals).

The public names below resolve on first use (``__getattr__``), each
importing only the module that defines it: a process compiles the source it
imports, so ``import memsurf`` stays cheap and a CLI command loads only the
modules it runs.
"""

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "constitutive": ("IsotropicModel", "ThetaModel"),
    "diagnostics": (
        "DegreeResult",
        "OverlapReport",
        "ResidualResult",
        "boundary_winding",
        "brouwer_degree",
        "first_variation_residual",
        "injectivity_check",
    ),
    "discretization": ("energy_gradient", "interpolate", "oriented_area_ratios"),
    "errors": (
        "AmbiguousProjectionError",
        "BoundaryTooCloseError",
        "ChartSpanFailureError",
        "ConfigError",
        "DegenerateElementError",
        "DeltaTooLargeError",
        "InfeasibleStartError",
        "InvalidEpsilonError",
        "InvalidModelError",
        "MemsurfError",
        "NonpositiveJError",
        "OffSurfaceError",
        "RankDeficientError",
    ),
    "geometry": ("Chart", "Plane", "Sphere", "Surface", "Torus", "make_surface"),
    "maps": ("make_initial_map",),
    "mesh": ("TriMesh", "build_mesh", "save_mesh"),
    "minimizer": ("MinimizeReport", "initialize", "minimize"),
    "verification": (
        "CheckReport",
        "RankOneWitness",
        "check_growth",
        "check_stress_growth",
        "check_isotropy",
        "check_perturbed_stress_bound",
        "check_midpoint_convexity",
        "check_negative_control",
        "check_objectivity",
        "check_rank_one",
        "rank_one_counterexample",
        "run_all_checks",
    ),
    "config": ("RunConfig", "parse_config", "parse_config_file"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name):
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # __import__, unlike importlib.import_module, shows in -X importtime's log.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
