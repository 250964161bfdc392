"""Span recording for the traced pass, from outside the memsurf package.

``install`` replaces public names at memsurf's module boundaries with
wrappers.  Each call through a wrapper records one span
``[name, start, end, parent, info]``: ``start`` and ``end`` come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (-1 for
the root), and ``info`` holds the counts measured at that boundary, or the
name of the exception that left it.  The package stays unedited; spans stay
in memory until the run ends, and ``layers.py`` turns them into metrics.

A span's name is ``<layer>.<operation>``, where the layer is the memsurf
module that owns the wrapped code.
"""

import functools
import math
import time

import numpy as np

from layers import CHECKS

# Surface methods wrapped on every class that defines them.
SURFACE_METHODS = {
    "project": "geometry.project",
    "normal_unchecked": "geometry.normal",
    "tangent_project_unchecked": "geometry.tangent_project",
    "chart_at": "geometry.chart",
    "diagnostic_chart_at": "geometry.chart",
}

class Tracer:
    """In-memory span list for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        """Return ``fn`` recording a span per call; ``info(args, result)`` adds counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced


def _points(args, result):
    shape = np.shape(args[1])
    return {"points": math.prod(shape[:-1])}


def _rows(args, result):
    shape = np.shape(args[1])
    return {"rows": math.prod(shape[:-2])}


def _trial(args, result):
    return {"elements": args[1].num_triangles, "feasible": bool(result[2])}


def _minimize(args, result):
    return {"iterations": result[1].iterations}


def _overlaps(args, result):
    return {
        "checked_pairs": result.checked_pairs,
        "overlapping_pairs": result.overlapping_pairs,
    }


def _fields(args, result):
    return {"fields": len(result)}


def _battery(args, result):
    return {"samples": sum(r.samples for r in result)}


def _triangles(args, result):
    return {"triangles": result.num_triangles}


def install(tracer):
    """Wrap memsurf's module-boundary names; call before ``memsurf.cli.main``."""
    import memsurf.cli as cli
    import memsurf.config as config
    import memsurf.diagnostics as diagnostics
    import memsurf.discretization as discretization
    import memsurf.geometry as geometry
    import memsurf.minimizer as minimizer
    import memsurf.verification as verification

    def patch(owner, attr, name, info=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), info))

    # The names the CLI imports.
    patch(cli, "parse_config_file", "config.parse")
    patch(cli, "minimize", "minimizer", _minimize)
    patch(cli, "injectivity_check", "diagnostics.injectivity", _overlaps)
    patch(cli, "brouwer_degree", "diagnostics.degree")
    patch(cli, "first_variation_residual", "diagnostics.residual", _fields)
    patch(cli, "save_mesh", "mesh.save")
    patch(cli, "run_all_checks", "verification", _battery)
    # The names the minimizer imports (initialize is its own, called by name).
    patch(minimizer, "initialize", "minimizer.initialize")
    patch(minimizer, "trial_energy", "discretization.trial_energy", _trial)
    patch(minimizer, "energy_gradient", "discretization.energy_gradient")
    patch(minimizer, "oriented_area_ratios", "discretization.oriented_area_ratios")
    for owner in (discretization, diagnostics, verification):
        patch(owner, "pk1_batch", "constitutive.pk1_batch", _rows)
    for check in CHECKS:
        patch(verification, f"check_{check}", f"verification.{check}")
    for cls in (geometry.Surface, *geometry.Surface.__subclasses__()):
        for attr, name in SURFACE_METHODS.items():
            if attr in vars(cls):
                patch(cls, attr, name, _points if attr == "project" else None)
    patch(config.RunConfig, "mesh", "mesh.build", _triangles)
    patch(config.RunConfig, "initial_map", "maps.initial_map")
