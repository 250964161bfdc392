"""Projected gradient descent over surface-constrained configurations.

A configuration is the (n, 3) array of nodal positions on the surface;
``initialize`` and ``minimize`` return it as a plain array.  Free nodes move
along the tangent-projected energy gradient and are retracted back onto the
surface by closest-point projection; boundary nodes never move.
Step lengths come from a spectral (Barzilai-Borwein) guess safeguarded by
Armijo backtracking, and any trial step that drives an element's oriented
area ratio to the floor is rejected outright, which keeps every accepted
iterate inside the discrete admissible set.  A trial whose closest-point
projection fails (retraction or element centroid) is rejected the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .discretization import (
    J_FLOOR_DEFAULT,
    energy_gradient,
    interpolate,
    oriented_area_ratios,
    trial_energy,
)
from .errors import (
    AmbiguousProjectionError,
    InfeasibleStartError,
    LineSearchStallError,
    NoConvergenceError,
)

__all__ = ["MinimizeOptions", "MinimizeReport", "initialize", "minimize"]

STEP_UNDERFLOW = 1e-16


@dataclass(frozen=True)
class MinimizeOptions:
    """Tuning knobs for the descent loop.

    ``grad_tol`` of None resolves to 1e-7 times the reference area.
    """

    max_iter: int = 5000
    grad_tol: float | None = None
    armijo_c: float = 1e-4
    backtrack_ratio: float = 0.5
    initial_step: float = 1.0
    j_floor: float = J_FLOOR_DEFAULT

    def __post_init__(self):
        if not self.max_iter >= 0:
            raise ValueError("max_iter must be nonnegative")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0 < self.backtrack_ratio < 1:
            raise ValueError("backtrack_ratio must lie in (0, 1)")
        if not self.j_floor > 0:
            raise ValueError("j_floor must be positive")
        if not self.initial_step > 0:
            raise ValueError("initial_step must be positive")

    def resolved_grad_tol(self, mesh):
        if self.grad_tol is not None:
            return float(self.grad_tol)
        return 1e-7 * mesh.total_area


@dataclass
class MinimizeReport:
    """Outcome of one minimization run."""

    status: str                      # converged | max_iter
    iterations: int
    energy_history: list = field(default_factory=list)
    grad_history: list = field(default_factory=list)
    min_j_history: list = field(default_factory=list)
    step_history: list = field(default_factory=list)
    wall_time: float = 0.0


def initialize(surface, mesh, f0, j_floor=J_FLOOR_DEFAULT):
    """Nodal positions of f0, with a feasibility check on every element."""
    positions = interpolate(surface, mesh, f0)
    J = oriented_area_ratios(mesh, surface, positions)
    bad = np.nonzero(J <= j_floor)[0]
    if bad.size:
        raise InfeasibleStartError(
            f"initial configuration has {bad.size} elements at or below the "
            f"area-ratio floor {j_floor:.1e}",
            elements=bad.tolist(),
        )
    return positions


def minimize(model, surface, mesh, f0, options=None):
    """Descend the total energy from f0; returns (positions, report).

    Raises InfeasibleStartError when f0 violates the element floor and
    LineSearchStallError if backtracking underflows.
    """
    options = options or MinimizeOptions()
    t0 = time.perf_counter()
    positions = initialize(surface, mesh, f0, options.j_floor)
    grad_tol = options.resolved_grad_tol(mesh)
    free = mesh.interior_mask()

    energy, min_j, _, F = trial_energy(
        model, mesh, surface, positions, options.j_floor
    )
    report = MinimizeReport(status="max_iter", iterations=0)
    report.energy_history.append(energy)
    report.min_j_history.append(min_j)

    alpha = options.initial_step
    prev_pos = None
    prev_gt = None

    for it in range(options.max_iter + 1):
        # Tangent gradient of the free rows at the accepted point, from the
        # F its trial evaluation formed.
        grad = energy_gradient(model, mesh, F)
        gt = surface.tangent_project_unchecked(positions[free], grad[free])
        gnorm = float(np.linalg.norm(gt))
        report.grad_history.append(gnorm)
        if gnorm <= grad_tol:
            report.status = "converged"
            break
        if it == options.max_iter:
            break

        # Spectral step from the last accepted move, clipped for safety.
        x = positions[free]
        if prev_pos is not None:
            dy = (x - prev_pos).ravel()
            dg = (gt - prev_gt).ravel()
            denom = float(dy @ dg)
            if denom > 0:
                alpha = float(dy @ dy) / denom
            else:
                alpha = alpha / options.backtrack_ratio
        alpha = float(np.clip(alpha, 1e-12, 1e6))

        prev_pos, prev_gt = x, gt

        accepted = False
        float_floor = 4.0 * np.finfo(float).eps * (1.0 + abs(energy))
        while alpha >= STEP_UNDERFLOW:
            trial = positions.copy()
            try:
                trial[free] = surface.project(x - alpha * gt)
            except (AmbiguousProjectionError, NoConvergenceError):
                alpha *= options.backtrack_ratio  # failed retraction: reject
                continue
            if np.array_equal(trial, positions):
                break  # move below float resolution: no progress possible
            e_new, mj_new, feasible, F_new = trial_energy(
                model, mesh, surface, trial, options.j_floor
            )
            required = options.armijo_c * alpha * gnorm**2
            # Armijo decrease, or plain non-increase once the requested
            # decrease falls below what float64 can resolve.
            if feasible and (
                e_new <= energy - required
                or (required <= float_floor and e_new <= energy)
            ):
                positions = trial
                energy, min_j, F = e_new, mj_new, F_new
                accepted = True
                break
            alpha *= options.backtrack_ratio
        if not accepted:
            raise LineSearchStallError(
                f"line search underflowed at iteration {it} "
                f"(|g_T| = {gnorm:.3e}, tol = {grad_tol:.3e})"
            )

        report.energy_history.append(energy)
        report.min_j_history.append(min_j)
        report.step_history.append(alpha)

    report.iterations = it
    report.wall_time = time.perf_counter() - t0
    return positions, report
