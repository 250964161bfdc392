"""Riemannian L-BFGS over surface-constrained configurations.

A configuration is the (n, 3) array of nodal positions on the surface;
``initialize`` builds the start from a closed-form map, and ``minimize``
descends from it and returns the final one as a plain array.  Free nodes move
along a limited-memory quasi-Newton direction in the tangent space and are
retracted back onto the surface by closest-point projection; boundary nodes
never move.  The direction is the two-loop L-BFGS recursion (Liu & Nocedal
1989) over the last ``LBFGS_MEMORY`` curvature pairs, each kept as it was
measured: the ambient step between two iterates and the difference of their
tangent gradients, never moved into a later tangent space.  The direction's
normal part is then second order in the step, and the retraction removes
it.  Its initial inverse Hessian is gamma P K^-1 P, with K the P1 stiffness
matrix of the reference mesh on the free nodes, P the tangent projection
and gamma = (s.Ks)/(s.y) from the newest pair: a Sobolev gradient
(Neuberger 1997), which keeps the iteration count independent of the mesh
size, since multiples of K bound the energy's Hessian.  K is held only as
its factor: the step s is piecewise linear and zero on the boundary, so
s.Ks = sum_t A_t |F_t(x) - F_t(x_prev)|^2, taken from the deformation
gradients of the two iterates when the step is accepted.  The first
direction is the plain -P K^-1 g_T.  Step lengths come from Armijo
backtracking from a unit step, and any trial step that drives an element's
oriented area ratio to the floor is rejected outright, which keeps every
accepted iterate inside the discrete admissible set.  A trial whose
closest-point projection fails (retraction or element centroid) is rejected
the same way.  The run stops at the gradient tolerance ``grad_tol``, the one
setting of ``minimize``; every run ends with a status on its report, a
stalled line search included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .discretization import (
    J_FLOOR,
    _dot,
    energy_gradient,
    interpolate,
    oriented_area_ratios,
    trial_energy,
)
from .errors import AmbiguousProjectionError, InfeasibleStartError, check_grad_tol
from .stiffness import StiffnessSolver

__all__ = ["MinimizeReport", "initialize", "minimize"]

STEP_UNDERFLOW = 1e-16
# Sufficient-decrease constant of the Armijo test, and the factor each
# rejected trial step is shrunk by: 1/4, not 1/2, so that the first
# direction, searched from an unscaled unit step, still keeps the shipped cap
# near one trial per iteration (any factor in [0.1, 0.5] is standard).
ARMIJO_C = 1e-4
BACKTRACK_RATIO = 0.25
# Curvature pairs kept by the L-BFGS recursion.
LBFGS_MEMORY = 10
# Iteration cap: a guard against a run that never reaches the gradient
# tolerance, not a stopping rule (converging runs take a few dozen).
MAX_ITER = 5000


@dataclass
class MinimizeReport:
    """Outcome of one minimization run.

    ``step_history`` holds the accepted line-search step along each L-BFGS
    direction, and the three counter lists hold, per iteration, the
    rejected trials (``backtracks``), and among them those rejected at the
    area-ratio floor (``infeasible_trials``) and those whose closest-point
    projection failed (``projection_failures``).  A stalled run's counter
    lists end with one entry more, the rejections of the failed search and
    its retry, which accepted no step.
    """

    status: str                      # converged | max_iter | stalled
    iterations: int
    grad_tol: float                  # the tolerance the run stopped against
    energy_history: list = field(default_factory=list)
    grad_history: list = field(default_factory=list)
    min_j_history: list = field(default_factory=list)
    step_history: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)
    infeasible_trials: list = field(default_factory=list)
    projection_failures: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def trials(self):
        """Trial steps tried: one accepted per iteration plus the rejected."""
        return len(self.step_history) + sum(self.backtracks)


def initialize(surface, mesh, f0):
    """Nodal positions of f0, with a feasibility check on every element."""
    positions = interpolate(surface, mesh, f0)
    _check_start(mesh, surface, positions)
    return positions


def _check_start(mesh, surface, positions):
    """Raise InfeasibleStartError naming every element at or below the floor,
    or every element whose centroid has no closest point on the surface."""
    try:
        J = oriented_area_ratios(mesh, surface, positions)
    except AmbiguousProjectionError as exc:
        Y = positions[mesh.triangles]
        bad = []
        for t, centroid in enumerate((Y[:, 0] + Y[:, 1] + Y[:, 2]) / 3.0):
            try:
                surface.project(centroid[None])
            except AmbiguousProjectionError:
                bad.append(t)
        raise InfeasibleStartError(
            f"initial configuration has {len(bad)} elements whose centroid has "
            f"no closest point on the surface ({exc})",
            elements=bad,
        ) from exc
    bad = np.nonzero(~(J > J_FLOOR))[0]
    if bad.size:
        raise InfeasibleStartError(
            f"initial configuration has {bad.size} elements at or below the "
            f"area-ratio floor {J_FLOOR:.1e}",
            elements=bad.tolist(),
        )


def _lbfgs_direction(g, s, y, sks, solve):
    """Two-loop L-BFGS direction at a point with gradient g.

    ``s`` and ``y`` stack the curvature pairs, oldest first, as (k, ...)
    arrays of g's shape, and ``sks`` holds each pair's s.Ks as a (k,) array.
    Pairs with s.y <= 0 are dropped.  H0 is gamma * ``solve``, where
    ``solve(v)`` is P K^-1 v and gamma = s.Ks / s.y of the newest pair kept.
    Returns (d, s, y, sks) with the pairs kept.  When the result is not a
    descent direction (g.d >= 0) the memory is cleared and d is -solve(g).
    """
    sy = np.einsum("ki,ki->k", s.reshape(len(s), g.size), y.reshape(len(y), g.size))
    keep = sy > 0
    if not keep.all():
        s, y, sks, sy = s[keep], y[keep], sks[keep], sy[keep]
    q = g.copy()
    a = np.empty(len(sy))
    for i in range(len(sy) - 1, -1, -1):
        a[i] = _dot(s[i], q) / sy[i]
        q -= a[i] * y[i]
    q = solve(q)
    if len(sy):
        q *= sks[-1] / sy[-1]
    for i in range(len(sy)):
        q += (a[i] - _dot(y[i], q) / sy[i]) * s[i]
    d = -q
    if not _dot(g, d) < 0:
        return -solve(g), s[:0], y[:0], sks[:0]
    return d, s, y, sks


def _line_search(model, mesh, surface, free, positions, energy, g, d, counts):
    """Backtrack from a unit step along the tangent direction d.

    Returns (alpha, trial positions, its ``trial_energy`` result) for the
    first trial that is feasible and passes the Armijo test on the slope
    g.d, or None once the step underflows or the move falls below float
    resolution.  Each rejected trial is added to ``counts``.
    """
    x = positions[free]
    slope = _dot(g, d)
    float_floor = 4.0 * np.finfo(float).eps * (1.0 + abs(energy))
    alpha = 1.0
    while alpha >= STEP_UNDERFLOW:
        trial = positions.copy()
        try:
            trial[free] = surface.project(x + alpha * d)
        except AmbiguousProjectionError:
            evaluation = None  # failed retraction: reject
        else:
            if np.array_equal(trial, positions):
                return None  # move below float resolution: no progress possible
            evaluation = trial_energy(model, mesh, surface, trial)
            e_new, _, feasible, _ = evaluation
            required = -ARMIJO_C * alpha * slope
            # Armijo decrease, or plain non-increase once the requested
            # decrease falls below what float64 can resolve.
            if feasible and (
                e_new <= energy - required
                or (required <= float_floor and e_new <= energy)
            ):
                return alpha, trial, evaluation
        counts["backtracks"] += 1
        if evaluation is None or evaluation[3] is None:
            counts["projection_failures"] += 1
        elif not evaluation[2]:
            counts["infeasible_trials"] += 1
        alpha *= BACKTRACK_RATIO
    return None


def minimize(model, surface, mesh, positions, grad_tol=None):
    """Descend the total energy from the start positions; returns (positions, report).

    ``positions`` is an (n, 3) configuration on the surface, as
    ``initialize`` builds it; its boundary rows never move.  The report's
    status is ``converged`` once |g_T| <= ``grad_tol`` (None: 1e-7 times the
    reference area), ``max_iter`` after ``MAX_ITER`` iterations, and
    ``stalled`` when backtracking underflows along -P K^-1 g_T; the
    positions returned are the last accepted iterate.  Raises
    InfeasibleStartError when the start violates the element floor or has
    an element centroid with no closest point.
    """
    check_grad_tol(grad_tol)
    t0 = time.perf_counter()
    grad_tol = 1e-7 * mesh.total_area if grad_tol is None else float(grad_tol)
    free = mesh.interior_mask()

    energy, min_j, feasible, F = trial_energy(model, mesh, surface, positions)
    if not feasible:
        _check_start(mesh, surface, positions)  # the trial's J, so it raises
    report = MinimizeReport(status="max_iter", iterations=0, grad_tol=grad_tol)
    report.energy_history.append(energy)
    report.min_j_history.append(min_j)

    x = positions[free]
    no_pairs = np.empty((0, *x.shape))
    mem_s = mem_y = no_pairs             # curvature pairs as measured, oldest first
    mem_sks = np.empty(0)                # s.Ks of each pair
    prev_x = prev_g = sks = None
    solver = None                        # factored at the first direction

    def precondition(v):
        """P K^-1 v at the current point x."""
        return surface.tangent_project_unchecked(x, solver.solve(v))

    for it in range(MAX_ITER + 1):
        # Tangent gradient of the free rows at the accepted point, from the
        # F its trial evaluation formed.
        grad = energy_gradient(model, mesh, F)[free]
        gt = surface.tangent_project_unchecked(x, grad)
        if prev_x is not None:
            mem_s = np.concatenate([mem_s, (x - prev_x)[None]])[-LBFGS_MEMORY:]
            mem_y = np.concatenate([mem_y, (gt - prev_g)[None]])[-LBFGS_MEMORY:]
            mem_sks = np.append(mem_sks, sks)[-LBFGS_MEMORY:]
        gnorm = math.sqrt(_dot(gt, gt))
        report.grad_history.append(gnorm)
        if gnorm <= grad_tol:
            report.status = "converged"
            break
        if it == MAX_ITER:
            break

        if solver is None:
            solver = StiffnessSolver(mesh)
        if prev_x is None:
            d = -precondition(gt)
        else:
            d, mem_s, mem_y, mem_sks = _lbfgs_direction(gt, mem_s, mem_y, mem_sks, precondition)
        counts = dict.fromkeys(("backtracks", "infeasible_trials", "projection_failures"), 0)
        found = _line_search(model, mesh, surface, free, positions, energy, gt, d, counts)
        if found is None and len(mem_s):
            # The quasi-Newton model failed here (at the float noise floor,
            # typically): clear the memory and search along -P K^-1 g_T.
            mem_s = mem_y = no_pairs
            mem_sks = mem_sks[:0]
            found = _line_search(
                model, mesh, surface, free, positions, energy, gt, -precondition(gt), counts
            )
        for key, n in counts.items():
            getattr(report, key).append(n)
        if found is None:
            report.status = "stalled"
            break
        alpha, positions, (energy, min_j, _, new_F) = found
        # s.Ks of the step, from the two iterates' F: the step is piecewise
        # linear with zero boundary rows, so s.Ks = sum_t A_t |F_t(x) - F_t(x_prev)|^2.
        # No F-sized array outlives the iteration.
        sks = float(np.einsum("t,dct->", mesh.ref_area, np.square(new_F.T - F.T)))
        prev_x, prev_g, x, F = x, gt, positions[free], new_F

        report.energy_history.append(energy)
        report.min_j_history.append(min_j)
        report.step_history.append(alpha)

    report.iterations = it
    report.wall_time = time.perf_counter() - t0
    return positions, report
