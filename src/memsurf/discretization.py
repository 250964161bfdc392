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


def _kinematics(mesh, surface, positions, elements=slice(None)):
    """F (m, 3, 2) and oriented J (m,) of the ``elements`` (all by default)
    of the configuration.

    F_t = sum_i y_i (x) g_i over the corners i, and
    J_t = n(projected centroid) . (F e1 x F e2).  The shape gradients sum to
    zero, so F_t = (y0 - y1) (x) g0 + (y2 - y1) (x) g2: edge vectors from
    corner 1, whose rounding scales with the element, not the positions.
    The corner positions are gathered once as (3 coords, 3 corners, m)
    planes, so each entry of F is formed on contiguous rows; F is returned
    as an (m, 3, 2) view of its (2, 3, m) column planes, as ``pk1_batch``
    returns S.  No BLAS call forms it, so its bits depend on neither the
    CPU's BLAS kernel nor the thread count.
    """
    G = mesh.shape_grads[elements].T
    y0, y1, y2 = np.take(positions.T, mesh.triangles[elements].T, axis=1).transpose(1, 0, 2)
    d0 = y0 - y1
    d2 = y2 - y1
    F = np.empty((2, *y0.shape))
    tmp = np.empty(y0.shape)
    for k in range(2):
        np.multiply(d0, G[k, 0], out=F[k])
        F[k] += np.multiply(d2, G[k, 2], out=tmp)
    centroids = y0 + y1
    centroids += y2
    centroids /= 3.0
    n = surface.projected_normal(centroids.T).T
    a, b = F
    J = (
        n[0] * (a[1] * b[2] - a[2] * b[1])
        + n[1] * (a[2] * b[0] - a[0] * b[2])
        + n[2] * (a[0] * b[1] - a[1] * b[0])
    )
    return F.T, J


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

    ``T`` is one (3, 2) matrix per element, as ``pk1_batch`` returns S: an
    (m, 3, 2) view of (2, 3, m) column planes, whose entries are contiguous
    rows.  Each coordinate's (m, 3) weights are formed corner by corner, and
    one np.bincount sums them per node in the order np.add.at adds them.
    """
    G = mesh.shape_grads
    idx = mesh.triangles.ravel()
    out = np.empty((mesh.num_vertices, 3))
    weights = np.empty(G.shape[:2])
    tmp = np.empty(len(G))
    for a in range(3):
        for v in range(3):
            np.multiply(G[:, v, 0], T[:, a, 0], out=weights[:, v])
            weights[:, v] += np.multiply(G[:, v, 1], T[:, a, 1], out=tmp)
        out[:, a] = np.bincount(idx, weights=weights.ravel(), minlength=mesh.num_vertices)
    return out


def _dot(a, b):
    """Inner product of two fields of one shape, by einsum rather than BLAS
    ``ddot``, which splits a long sum across threads: the bits do not depend
    on the BLAS thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))
