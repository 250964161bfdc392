"""Analytic target surfaces with oriented normals, projections, and charts.

Every surface is a smooth oriented 2-manifold embedded in R^3, described in
closed form (plane, sphere, torus, ellipsoid, polynomial height graph).  All
point-valued operations accept any (..., 3) array (one point, a batch or a
stack of batches) and are pure, so surfaces are safe to share between
threads.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AmbiguousProjectionError,
    NoConvergenceError,
    OffSurfaceError,
)

__all__ = [
    "Surface",
    "Plane",
    "Sphere",
    "Torus",
    "Ellipsoid",
    "GraphSurface",
    "Chart",
    "make_surface",
]

# Residual tolerance and iteration cap of the Newton closest-point solves
# (ellipsoid, height graph).
_PROJECT_TOL = 1e-12
_PROJECT_MAX_ITER = 50


def _dots(a, b):
    """Dot products (..., 1) of (..., 3) arrays, each taken as ``np.dot`` takes it."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def _orthonormal_frame(n):
    """Deterministic right-handed frame (t1, t2, n) for unit vectors n (..., 3)."""
    axis = (np.arange(3) == np.argmin(np.abs(n), axis=-1)[..., None]).astype(float)
    t1 = axis - _dots(axis, n) * n
    t1 /= np.sqrt(_dots(t1, t1))
    return t1, np.cross(n, t1)


class Surface:
    """Base class: oriented surface with closest-point projection.

    Subclasses provide the implicit description and closed-form (or Newton)
    projections.  ``orientation_sign`` selects which of the two continuous
    unit-normal fields is used everywhere.
    """

    kind = "abstract"

    def __init__(self, orientation_sign=1):
        if orientation_sign not in (1, -1):
            raise ValueError("orientation_sign must be +1 or -1")
        self.orientation_sign = int(orientation_sign)

    # -- implicit description ------------------------------------------------
    def implicit(self, p):
        """Level-set value, zero on the surface."""
        raise NotImplementedError

    def implicit_grad(self, p):
        """Gradient of the level-set function (not normalized)."""
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
        """Approximate unsigned distance to the surface."""
        dg = np.linalg.norm(self.implicit_grad(p), axis=-1)
        return np.abs(self.implicit(p)) / np.maximum(dg, 1e-300)

    def _require_on_surface(self, y):
        d = self.distance(y)
        if not np.all(d <= self.on_surface_tol):
            raise OffSurfaceError(
                f"point at distance {float(np.max(d)):.3e} from {self.kind} "
                f"surface exceeds tolerance {self.on_surface_tol:.3e}"
            )

    def normal_unchecked(self, p):
        """Oriented unit normal field extended to near-surface points."""
        g = self.implicit_grad(p)
        return self.orientation_sign * (g / np.linalg.norm(g, axis=-1, keepdims=True))

    def project(self, p):
        """Closest point on the surface (raises near the medial axis)."""
        raise NotImplementedError

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
        """Oriented tangent-plane chart centered at on-surface y."""
        self._require_on_surface(y)
        y = np.asarray(y, dtype=float)
        t1, t2 = _orthonormal_frame(self.normal_unchecked(y))
        return Chart(y, t1, t2, self.chart_radius)

    @property
    def chart_radius(self):
        """Chord-distance validity radius of charts (inf for a global chart)."""
        raise NotImplementedError


class Plane(Surface):
    """Affine plane {p : p . normal_dir = offset}."""

    kind = "plane"

    def __init__(self, normal_dir=(0.0, 0.0, 1.0), offset=0.0, orientation_sign=1):
        super().__init__(orientation_sign)
        n = np.asarray(normal_dir, dtype=float)
        norm = np.linalg.norm(n)
        if n.shape != (3,) or not 0 < norm < np.inf:
            raise ValueError("plane normal_dir must be a finite nonzero 3-vector")
        if not np.isfinite(offset):
            raise ValueError(f"plane offset must be finite, got {offset!r}")
        self._n = n / norm
        self.offset = float(offset)
        self.origin = self.offset * self._n
        self.t1, self.t2 = _orthonormal_frame(self._n)

    def implicit(self, p):
        return np.asarray(p, dtype=float) @ self._n - self.offset

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
        return self.origin + x[..., :1] * self.t1 + x[..., 1:2] * self.t2

    def chart_at(self, y):
        self._require_on_surface(y)
        return Chart(y, self.t1, self.orientation_sign * self.t2, np.inf)

    @property
    def chart_radius(self):
        return np.inf


class Sphere(Surface):
    """Sphere of radius R centered at the origin."""

    kind = "sphere"

    def __init__(self, radius=1.0, orientation_sign=1):
        super().__init__(orientation_sign)
        if not 0 < radius < np.inf:
            raise ValueError(f"sphere radius must be finite and positive, got {radius!r}")
        self.radius = float(radius)

    def implicit(self, p):
        return np.linalg.norm(p, axis=-1) - self.radius

    def implicit_grad(self, p):
        p = np.asarray(p, dtype=float)
        return p / np.maximum(np.linalg.norm(p, axis=-1, keepdims=True), 1e-300)

    @property
    def curvature_radius(self):
        return self.radius

    def project(self, p):
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        if np.any(r < self.medial_tol):
            raise AmbiguousProjectionError("projection queried at the sphere center")
        return self.radius * p / r

    @property
    def chart_radius(self):
        return 0.9 * self.radius


class Torus(Surface):
    """Torus around the z axis: ring radius R, tube radius r (R > r > 0)."""

    kind = "torus"

    def __init__(self, major_radius=2.0, minor_radius=0.5, orientation_sign=1):
        super().__init__(orientation_sign)
        if not (np.inf > major_radius > minor_radius > 0):
            raise ValueError("torus requires finite major_radius > minor_radius > 0")
        self.major_radius = float(major_radius)
        self.minor_radius = float(minor_radius)

    def _ring_point(self, p):
        """Nearest core-circle point q, the offset p - q and the axis distance."""
        p = np.asarray(p, dtype=float)
        rho = np.linalg.norm(p[..., :2], axis=-1, keepdims=True)
        q = np.zeros_like(p)
        q[..., :2] = self.major_radius * p[..., :2] / np.maximum(rho, 1e-300)
        return q, p - q, rho

    def implicit(self, p):
        return np.linalg.norm(self._ring_point(p)[1], axis=-1) - self.minor_radius

    def implicit_grad(self, p):
        d = self._ring_point(p)[1]
        return d / np.maximum(np.linalg.norm(d, axis=-1, keepdims=True), 1e-300)

    @property
    def curvature_radius(self):
        return self.minor_radius

    def project(self, p):
        q, d, rho = self._ring_point(p)
        nd = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.any(rho < self.medial_tol) or np.any(nd < self.medial_tol):
            raise AmbiguousProjectionError(
                "projection queried on the torus axis or core circle"
            )
        return q + self.minor_radius * d / nd

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


class Ellipsoid(Surface):
    """Axis-aligned ellipsoid sum((p_i/a_i)^2) = 1."""

    kind = "ellipsoid"

    def __init__(self, semi_axes=(1.0, 1.0, 1.0), orientation_sign=1):
        super().__init__(orientation_sign)
        axes = np.asarray(semi_axes, dtype=float)
        if axes.shape != (3,) or not np.all((axes > 0) & (axes < np.inf)):
            raise ValueError("semi_axes must be three finite positive numbers")
        self.semi_axes = axes

    def implicit(self, p):
        return np.sum((p / self.semi_axes) ** 2, axis=-1) - 1.0

    def implicit_grad(self, p):
        return 2.0 * np.asarray(p, dtype=float) / self.semi_axes**2

    @property
    def curvature_radius(self):
        return float(np.min(self.semi_axes) ** 2 / np.max(self.semi_axes))

    def project(self, p):
        """Newton solve of the closest-point condition y_i = p_i a_i^2/(a_i^2+mu).

        The root mu in (-min(a_i^2), inf) is unique and yields the nearest
        point for queries away from the interior medial region.
        """
        p = np.asarray(p, dtype=float)
        if np.any(np.linalg.norm(p, axis=-1) < self.medial_tol):
            raise AmbiguousProjectionError(
                "projection queried near the ellipsoid center"
            )
        a2 = self.semi_axes**2
        lo = np.full(p.shape[:-1], -a2.min() * (1.0 - 1e-12))
        # h is decreasing in mu; h(hi) < 0 needs hi > |p| a_max^2.
        hi = (np.linalg.norm(p, axis=-1) + 1.0) * a2.max()
        mu = np.where(self.implicit(p) >= 0, 0.0, 0.5 * lo)

        def h_and_dh(mu):
            den = a2 + mu[..., None]
            h = np.sum((p**2) * a2 / den**2, axis=-1) - 1.0
            dh = -2.0 * np.sum((p**2) * a2 / den**3, axis=-1)
            return h, dh

        for _ in range(_PROJECT_MAX_ITER):
            h, dh = h_and_dh(mu)
            converged = np.abs(h) < _PROJECT_TOL
            if np.all(converged):
                break
            lo = np.where(h > 0, np.maximum(lo, mu), lo)
            hi = np.where(h < 0, np.minimum(hi, mu), hi)
            step = h / np.where(np.abs(dh) > 1e-300, dh, 1.0)
            mu_new = mu - step
            bad = (mu_new <= lo) | (mu_new >= hi) | ~np.isfinite(mu_new)
            mu_new = np.where(bad, 0.5 * (lo + hi), mu_new)
            mu = np.where(converged, mu, mu_new)
        else:
            h, _ = h_and_dh(mu)
            if np.any(np.abs(h) > np.sqrt(_PROJECT_TOL)):
                raise NoConvergenceError("ellipsoid projection did not converge")
        return p * a2 / (a2 + mu[..., None])

    @property
    def chart_radius(self):
        return 0.6 * self.curvature_radius


def _poly_dx(c):
    if c.shape[0] == 1:
        return np.zeros((1, 1))
    return c[1:, :] * np.arange(1, c.shape[0])[:, None]


def _poly_dy(c):
    if c.shape[1] == 1:
        return np.zeros((1, 1))
    return c[:, 1:] * np.arange(1, c.shape[1])[None, :]


class GraphSurface(Surface):
    """Height graph z = sum_ij c[i][j] x^i y^j over the whole (x, y) plane."""

    kind = "graph"

    def __init__(self, coeffs=((0.0,),), orientation_sign=1, extent=2.0):
        super().__init__(orientation_sign)
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("graph coeffs must be finite")
        if not 0 < extent < np.inf:
            raise ValueError(f"graph extent must be finite and positive, got {extent!r}")
        self.extent = float(extent)
        self._cx = _poly_dx(self.coeffs)
        self._cy = _poly_dy(self.coeffs)
        self._cxx = _poly_dx(self._cx)
        self._cxy = _poly_dy(self._cx)
        self._cyy = _poly_dy(self._cy)
        # Sampled curvature bound over the working box [-extent, extent]^2.
        s = np.linspace(-self.extent, self.extent, 41)
        hxx, hxy, hyy = self.height_hess(*np.meshgrid(s, s))
        kappa = np.abs(hxx) + np.abs(hyy) + 2 * np.abs(hxy)
        self._curvature_radius = float(min(1.0, 1.0 / max(np.max(kappa), 1e-6)))

    def height(self, x, y):
        return np.polynomial.polynomial.polyval2d(x, y, self.coeffs)

    def height_grad(self, x, y):
        hx = np.polynomial.polynomial.polyval2d(x, y, self._cx)
        hy = np.polynomial.polynomial.polyval2d(x, y, self._cy)
        return hx, hy

    def height_hess(self, x, y):
        hxx = np.polynomial.polynomial.polyval2d(x, y, self._cxx)
        hxy = np.polynomial.polynomial.polyval2d(x, y, self._cxy)
        hyy = np.polynomial.polynomial.polyval2d(x, y, self._cyy)
        return hxx, hxy, hyy

    def implicit(self, p):
        p = np.asarray(p, dtype=float)
        return p[..., 2] - self.height(p[..., 0], p[..., 1])

    def implicit_grad(self, p):
        p = np.asarray(p, dtype=float)
        hx, hy = self.height_grad(p[..., 0], p[..., 1])
        return np.stack([-hx, -hy, np.ones_like(hx)], axis=-1)

    @property
    def curvature_radius(self):
        return self._curvature_radius

    def _sqdist_grad(self, uv, p):
        """Squared distance to p (halved), its gradient and Hessian in (u, v)."""
        z = self.height(uv[:, 0], uv[:, 1])
        hx, hy = self.height_grad(uv[:, 0], uv[:, 1])
        dz = z - p[:, 2]
        du = uv[:, 0] - p[:, 0]
        dv = uv[:, 1] - p[:, 1]
        d2 = 0.5 * (du**2 + dv**2 + dz**2)
        ru = du + dz * hx
        rv = dv + dz * hy
        hxx, hxy, hyy = self.height_hess(uv[:, 0], uv[:, 1])
        j11 = 1.0 + hx * hx + dz * hxx
        j12 = hx * hy + dz * hxy
        j22 = 1.0 + hy * hy + dz * hyy
        return d2, ru, rv, j11, j12, j22

    def project(self, p):
        """Damped Newton on the stationarity condition of |y(u, v) - p|^2.

        Each point iterates on its own, so the solve runs on the (k, 3) rows.
        """
        shape = np.shape(p)
        p = np.asarray(p, dtype=float).reshape(-1, 3)
        uv = p[:, :2].copy()
        scale = max(1.0, self.extent)
        for _ in range(_PROJECT_MAX_ITER):
            d2, ru, rv, j11, j12, j22 = self._sqdist_grad(uv, p)
            res = np.hypot(ru, rv)
            if np.all(res < _PROJECT_TOL * scale):
                break
            # Newton direction; fall back to gradient when H is not SPD.
            det = j11 * j22 - j12 * j12
            spd = (det > 1e-300) & (j11 > 0)
            du = np.where(spd, (j22 * ru - j12 * rv) / np.where(spd, det, 1.0), ru)
            dv = np.where(spd, (j11 * rv - j12 * ru) / np.where(spd, det, 1.0), rv)
            # Backtrack on the squared distance far from the solution; close
            # to it the distance hits the float floor, so take full steps.
            step = np.ones(uv.shape[0])
            active = res >= _PROJECT_TOL * scale
            guarded = active & (res >= 1e-6 * scale)
            for _ in range(40):
                trial = uv - step[:, None] * np.column_stack([du, dv])
                d2_new = self._sqdist_grad(trial, p)[0]
                worse = guarded & (d2_new > d2)
                if not np.any(worse):
                    break
                step = np.where(worse, 0.5 * step, step)
            else:
                raise NoConvergenceError(
                    "graph projection did not converge: a damped step no "
                    "longer decreases the distance"
                )
            moved = np.where(active[:, None], uv - step[:, None] * np.column_stack([du, dv]), uv)
            # Each point's iteration depends on its own (u, v) alone, so a
            # point that did not move would repeat this step forever.
            if np.any(active & np.all(moved == uv, axis=1)):
                raise NoConvergenceError(
                    "graph projection did not converge: a point stopped "
                    "moving short of the tolerance"
                )
            uv = moved
        else:
            raise NoConvergenceError("graph projection did not converge")
        z = self.height(uv[:, 0], uv[:, 1])
        return np.column_stack([uv, z]).reshape(shape)

    def chart_at(self, y):
        """Global (x, y) chart, offset to y."""
        self._require_on_surface(y)
        e1, e2 = np.eye(3)[:2]
        return Chart(y, e1, self.orientation_sign * e2, np.inf)

    @property
    def chart_radius(self):
        return np.inf


class Chart:
    """Planar chart p -> ((p - c) . t1, (p - c) . t2) about on-surface c.

    ``t1, t2`` span the tangent plane at c (the (x, y) plane on a height
    graph) and ``t1 x t2`` lies on the side of the oriented normal, so chart
    areas carry the orientation of the surface.  The chart is valid for
    points within chord distance ``radius`` of the center.
    """

    def __init__(self, center, t1, t2, radius):
        self.center = np.asarray(center, dtype=float)
        self.t1 = np.asarray(t1, dtype=float)
        self.t2 = np.asarray(t2, dtype=float)
        self.radius = float(radius)

    def inverse_map(self, points):
        d = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        return np.column_stack([d @ self.t1, d @ self.t2])

    def contains(self, points):
        d = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        return np.linalg.norm(d, axis=-1) < self.radius


# The kinds a run configuration may name: those an initial map in ``maps``
# accepts.  Ellipsoid and GraphSurface are library surfaces only.
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
