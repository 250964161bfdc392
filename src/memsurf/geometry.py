"""Analytic target surfaces with oriented normals, projections, and charts.

Every surface is a smooth oriented 2-manifold embedded in R^3 in one fixed
frame with one normal field: the plane z = 0 with normal +e3, the sphere
centered at 0 and the torus around the z axis, both with outward normals.
Each has a signed-distance implicit description and a closest-point
projection in closed form.  All point-valued operations accept any (..., 3)
array (one point, a batch or a stack of batches) and are pure, so surfaces
are safe to share between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AmbiguousProjectionError, OffSurfaceError, _is_real

__all__ = [
    "Surface",
    "Plane",
    "Sphere",
    "Torus",
    "Chart",
    "make_surface",
]

def _row_norms(x, keepdims=False):
    """Euclidean norms over the last axis (length 2 or 3) of ``x``.

    The squares are summed left to right as written, which is how
    ``np.linalg.norm(x, axis=-1)`` adds them, so the bits are its bits
    without its per-call overhead.
    """
    if x.ndim == 1:
        # One vector: the same sum and root in Python floats, without a
        # dozen 0-d array operations (and without ``sum``, which compensates
        # float sums from Python 3.12 on).
        c = x.tolist()
        s = c[0] * c[0] + c[1] * c[1]
        if len(c) == 3:
            s += c[2] * c[2]
        s = math.sqrt(s)
        return np.array([s]) if keepdims else np.float64(s)
    s = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
    if x.shape[-1] == 3:
        s += x[..., 2] * x[..., 2]
    s = np.sqrt(s)
    return s[..., None] if keepdims else s


def _dots(a, b):
    """Dot products (..., 1) of (..., 3) arrays, added in coordinate order
    from +0.0 as BLAS ``ddot`` adds them, so a sum of zeros is +0.0.

    Written out rather than left to BLAS, so a row's bits depend neither on
    the CPU's BLAS kernel nor on the stack the row sits in.
    """
    s = a[..., 0] * b[..., 0]
    s += 0.0
    s += a[..., 1] * b[..., 1]
    s += a[..., 2] * b[..., 2]
    return s[..., None]


# Coordinate k's successors k + 1, then k + 2 (mod 3), for k = 0, 1, 2.
_CROSS = np.array([1, 2, 0, 2, 0, 1])
_EYE = np.eye(3)


def _orthonormal_frame(n):
    """Deterministic right-handed frame (t1, t2, n) for unit vectors n (..., 3)."""
    axis = _EYE[np.argmin(np.abs(n), axis=-1)]
    t1 = axis - _dots(axis, n) * n
    t1 /= np.sqrt(_dots(t1, t1))
    # n x t1 as (n1 t2 - n2 t1, n2 t0 - n0 t2, n0 t1 - n1 t0): the bits of
    # np.cross, without its per-call overhead.
    a, b = n[..., _CROSS], t1[..., _CROSS]
    return t1, a[..., :3] * b[..., 3:] - a[..., 3:] * b[..., :3]


class Surface:
    """Base class: oriented surface with closest-point projection.

    Subclasses provide a signed-distance implicit description, whose
    gradient direction is the unit normal used everywhere, and a
    closed-form projection.
    """

    kind = "abstract"

    # -- implicit description ------------------------------------------------
    def implicit(self, p):
        """Signed distance to the surface, positive on the normal's side."""
        raise NotImplementedError

    def implicit_grad(self, p):
        """Gradient of ``implicit``, the outward or +e3 normal direction."""
        raise NotImplementedError

    # -- scale-derived tolerances --------------------------------------------
    @property
    def curvature_radius(self):
        """Smallest principal radius of curvature (scale for tolerances)."""
        raise NotImplementedError

    @property
    def on_surface_tol(self):
        return 1e-9 * self.curvature_radius

    @property
    def medial_tol(self):
        return 1e-3 * self.curvature_radius

    # -- core operations -----------------------------------------------------
    def distance(self, p):
        """Unsigned distance to the surface, |implicit|."""
        return np.abs(self.implicit(p))

    def _require_on_surface(self, y):
        d = self.distance(y)
        if not (d <= self.on_surface_tol).all():
            raise OffSurfaceError(
                f"point at distance {float(np.max(d)):.3e} from {self.kind} "
                f"surface exceeds tolerance {self.on_surface_tol:.3e}"
            )

    def normal_unchecked(self, p):
        """Oriented unit normal field extended to near-surface points."""
        g = self.implicit_grad(p)
        return g / _row_norms(g, keepdims=True)

    def project(self, p):
        """Closest point on the surface (raises near the medial axis)."""
        raise NotImplementedError

    def projected_normal(self, p):
        """``normal_unchecked(project(p))``: the oriented unit normal at the
        closest point, raising where ``project`` raises."""
        return self.normal_unchecked(self.project(p))

    def tangent_project_unchecked(self, y, v):
        """Tangent projection at near-surface y, one normal per point of y.

        ``v`` has y's shape, or stacks j such fields as (j, n, 3); the
        normals are evaluated once for the whole stack.
        """
        v = np.asarray(v, dtype=float)
        n = self.normal_unchecked(y)
        vn = v[..., 0] * n[..., 0] + v[..., 1] * n[..., 1] + v[..., 2] * n[..., 2]
        out = vn[..., None] * n
        return np.subtract(v, out, out=out)

    # -- charts ----------------------------------------------------------------
    def chart_at(self, y):
        """Oriented tangent-plane chart centered at on-surface y (..., 3); a stack
        of centers gives one chart per center (centers (n, 1, 3) map (n, k, 3))."""
        self._require_on_surface(y)
        y = np.asarray(y, dtype=float)
        t1, t2 = _orthonormal_frame(self.normal_unchecked(y))
        return Chart(y, t1, t2, self.chart_radius)

    @property
    def chart_radius(self):
        """Chord-distance validity radius of charts (inf for a global chart)."""
        raise NotImplementedError


class Plane(Surface):
    """The plane z = 0 with normal +e3 and frame (t1, t2) = (e1, e2)."""

    kind = "plane"
    _n = np.array([0.0, 0.0, 1.0])
    t1, t2 = _orthonormal_frame(_n)

    def implicit(self, p):
        return _dots(np.asarray(p, dtype=float), self._n)[..., 0]

    def implicit_grad(self, p):
        return np.broadcast_to(self._n, np.shape(p)).copy()

    @property
    def curvature_radius(self):
        return 1.0

    def project(self, p):
        p = np.asarray(p, dtype=float)
        return p - self.implicit(p)[..., None] * self._n

    def embed(self, x):
        """Map reference coordinates (..., 2) into the plane."""
        x = np.asarray(x, dtype=float)
        # The 0.0 makes z +0.0 where both products are -0.0 (x < 0).
        return 0.0 + x[..., :1] * self.t1 + x[..., 1:2] * self.t2

    @property
    def chart_radius(self):
        return np.inf


class Sphere(Surface):
    """Sphere of radius R centered at 0."""

    kind = "sphere"

    def __init__(self, radius=1.0):
        if not (_is_real(radius) and 0 < radius < np.inf):
            raise ValueError(f"sphere radius must be finite and positive, got {radius!r}")
        self.radius = float(radius)

    def implicit(self, p):
        return _row_norms(np.asarray(p, dtype=float)) - self.radius

    def implicit_grad(self, p):
        p = np.asarray(p, dtype=float)
        return p / np.maximum(_row_norms(p, keepdims=True), 1e-300)

    @property
    def curvature_radius(self):
        return self.radius

    def _radial(self, p):
        """p and its norms (..., 1); raises near the center, where no point is closest."""
        p = np.asarray(p, dtype=float)
        r = _row_norms(p, keepdims=True)
        if np.any(r < self.medial_tol):
            raise AmbiguousProjectionError("projection queried at the sphere center")
        return p, r

    def project(self, p):
        p, r = self._radial(p)
        return self.radius * p / r

    def projected_normal(self, p):
        # The closest point's normal is p's own direction.
        p, r = self._radial(p)
        return p / r

    @property
    def chart_radius(self):
        return 0.9 * self.radius


class Torus(Surface):
    """Torus around the z axis: ring radius R, tube radius r (R > r > 0)."""

    kind = "torus"

    def __init__(self, major_radius=2.0, minor_radius=0.5):
        if not (
            _is_real(major_radius)
            and _is_real(minor_radius)
            and np.inf > major_radius > minor_radius > 0
        ):
            raise ValueError("torus requires finite major_radius > minor_radius > 0")
        self.major_radius = float(major_radius)
        self.minor_radius = float(minor_radius)

    def _ring_point(self, p):
        """Nearest core-circle point q, the displacement p - q and the axis distance."""
        p = np.asarray(p, dtype=float)
        rho = _row_norms(p[..., :2], keepdims=True)
        q = np.zeros_like(p)
        q[..., :2] = self.major_radius * p[..., :2] / np.maximum(rho, 1e-300)
        return q, p - q, rho

    def implicit(self, p):
        return _row_norms(self._ring_point(p)[1]) - self.minor_radius

    def implicit_grad(self, p):
        d = self._ring_point(p)[1]
        return d / np.maximum(_row_norms(d, keepdims=True), 1e-300)

    @property
    def curvature_radius(self):
        return self.minor_radius

    def _tube_offset(self, p):
        """Core-circle point q, offset d = p - q and its norms |d| (..., 1);
        raises on the axis or the core circle, where no point is closest."""
        q, d, rho = self._ring_point(p)
        nd = _row_norms(d, keepdims=True)
        if np.any(rho < self.medial_tol) or np.any(nd < self.medial_tol):
            raise AmbiguousProjectionError(
                "projection queried on the torus axis or core circle"
            )
        return q, d, nd

    def project(self, p):
        q, d, nd = self._tube_offset(p)
        return q + self.minor_radius * d / nd

    def projected_normal(self, p):
        # The closest point's normal is the direction from the core circle.
        _, d, nd = self._tube_offset(p)
        return d / nd

    def from_angles(self, psi, theta):
        psi = np.asarray(psi, dtype=float)
        theta = np.asarray(theta, dtype=float)
        w = self.major_radius + self.minor_radius * np.cos(psi)
        return np.stack(
            [w * np.cos(theta), w * np.sin(theta), self.minor_radius * np.sin(psi)],
            axis=-1,
        )

    @property
    def chart_radius(self):
        return 0.75 * self.minor_radius


class Chart:
    """Planar chart p -> ((p - c) . t1, (p - c) . t2) about on-surface c.

    ``t1, t2`` span the tangent plane at c and ``t1 x t2`` lies on the side
    of the oriented normal, so chart areas carry the orientation of the
    surface.  The chart is valid for points within chord distance
    ``radius`` of the center.  Points (..., 3) broadcast against the center
    and frame (each may be a stack) and map to (..., 2), each row as alone.
    """

    def __init__(self, center, t1, t2, radius):
        self.center = np.asarray(center, dtype=float)
        self.t1 = np.asarray(t1, dtype=float)
        self.t2 = np.asarray(t2, dtype=float)
        self.radius = float(radius)

    def inverse_map(self, points):
        return self._coordinates(np.asarray(points, dtype=float) - self.center)

    def contains(self, points):
        return _row_norms(np.asarray(points, dtype=float) - self.center) < self.radius

    def locate(self, points):
        """``inverse_map`` and ``contains`` of points, from one offset from the center."""
        d = np.asarray(points, dtype=float) - self.center
        return self._coordinates(d), _row_norms(d) < self.radius

    def _coordinates(self, d):
        return np.concatenate([_dots(d, self.t1), _dots(d, self.t2)], axis=-1)


# The kinds a run configuration may name.
SURFACE_KINDS = {"plane": Plane, "sphere": Sphere, "torus": Torus}


def make_surface(kind, **params):
    """Construct a surface by family name (used by the run configuration)."""
    try:
        cls = SURFACE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown surface kind {kind!r}; expected one of {sorted(SURFACE_KINDS)}"
        ) from None
    return cls(**params)
