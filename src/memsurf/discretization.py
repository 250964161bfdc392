"""Piecewise-linear configurations on a surface and energy assembly.

A configuration is the (n, 3) array of nodal positions, one point of the
target surface per mesh vertex, passed beside the surface it lies on
(``interpolate`` builds one from a closed-form map).  Per element the
deformation gradient F of the linear interpolant is constant, so
one-point quadrature integrates the stored energy exactly.  The oriented
area ratio J pairs the element's image cross product with the surface normal
at the projected element centroid; its sign flags orientation violations
while the energy itself is evaluated through the principal stretches.
"""

from __future__ import annotations

import numpy as np

from .constitutive import _stretches, pk1_batch
from .errors import AmbiguousProjectionError, OffSurfaceError
from .mesh import TriMesh

__all__ = [
    "interpolate",
    "trial_energy",
    "energy_gradient",
]

J_FLOOR = 1e-8  # oriented area ratio that every feasible configuration exceeds


def interpolate(surface, mesh, f0):
    """Nodal positions (n, 3) of a closed-form map at the mesh vertices.

    ``f0`` maps (n, 2) reference coordinates to (n, 3) surface points.
    Boundary values are taken exactly as returned, never projected.
    """
    pos = np.asarray(f0(mesh.vertices), dtype=float)
    if pos.shape != (mesh.num_vertices, 3):
        raise ValueError("initial map must return one 3-vector per vertex")
    d = surface.distance(pos)
    if not np.all(d <= surface.on_surface_tol):
        raise OffSurfaceError(
            f"initial map leaves the surface by {float(np.max(d)):.3e}"
        )
    return pos


def _element_kinematics(surface, Y, G):
    """Gradients F (k, 3, 2) and oriented area ratios J (k,) of the elements
    with corner positions Y (k, 3verts, 3) and shape gradients G (k, 3verts, 2).

    F_t = Y_t^T G_t = sum_i y_i (x) g_i and
    J_t = n(projected centroid) . (F e1 x F e2).
    """
    F = np.matmul(np.swapaxes(Y, 1, 2), G)
    centroids = (Y[:, 0] + Y[:, 1] + Y[:, 2]) / 3.0
    n = surface.normal_unchecked(surface.project(centroids))
    a, b = F[..., 0], F[..., 1]
    J = (
        n[:, 0] * (a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1])
        + n[:, 1] * (a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2])
        + n[:, 2] * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    )
    return F, J


def _kinematics(mesh, surface, positions):
    """F (m, 3, 2) and J (m,) of every element of the configuration."""
    Y = np.take(positions, mesh.triangles, axis=0)
    return _element_kinematics(surface, Y, mesh.shape_grads)


def oriented_area_ratios(mesh: TriMesh, surface, positions):
    """Oriented J per element: n(projected centroid) . (F e1 x F e2)."""
    return _kinematics(mesh, surface, positions)[1]


def trial_energy(model, mesh, surface, positions):
    """Non-raising energy evaluation for line-search trials.

    Returns (energy, min_J, feasible, F); energy is only meaningful when
    feasible is True, that is when every element's oriented area ratio
    exceeds ``J_FLOOR``.  F is the (m, 3, 2) gradient batch that
    ``energy_gradient`` takes.  The energy needs the principal stretches
    only, so a rejected trial forms no eigenvectors.  A centroid projection
    that fails (a point on the medial axis) makes the trial infeasible with
    min_J NaN and F None.
    """
    try:
        F, J = _kinematics(mesh, surface, positions)
    except AmbiguousProjectionError:
        return np.inf, np.nan, False, None
    min_j = float(np.min(J)) if J.size else np.inf
    if not min_j > J_FLOOR:
        return np.inf, min_j, False, F
    energy = float(np.sum(mesh.ref_area * model.energy_from_stretches(*_stretches(F))))
    return energy, min_j, True, F


def energy_gradient(model, mesh, F):
    """Ambient gradient of the total energy with respect to nodal positions.

    ``F`` is the gradient batch of a feasible configuration, as
    ``trial_energy`` returns it.  The density depends on the nodes only
    through F, so the assembled gradient is sum_t A_t S_t g_{t,i} at each
    vertex i; it matches central finite differences of ``trial_energy`` to
    rounding error.
    """
    return _assemble(mesh, mesh.ref_area[:, None, None] * pk1_batch(model, F))


def _assemble(mesh, T):
    """Nodal sums (n, 3) of T_t g_{t,v} over the elements t and corners v at each node.

    ``T`` is one (3, 2) matrix per element; one np.bincount per coordinate
    sums the rows per node, adding in the order np.add.at does.
    """
    G = mesh.shape_grads
    idx = mesh.triangles.ravel()
    return np.column_stack(
        [
            np.bincount(
                idx,
                weights=(G[..., 0] * T[:, a, 0, None] + G[..., 1] * T[:, a, 1, None]).ravel(),
                minlength=mesh.num_vertices,
            )
            for a in range(3)
        ]
    )


def _dot(a, b):
    """Inner product of two fields of one shape, by einsum rather than BLAS
    ``ddot``, which splits a long sum across threads: the bits do not depend
    on the BLAS thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))
