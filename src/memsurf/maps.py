"""Closed-form boundary/initial placement maps for the builtin surfaces."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, _is_real
from .geometry import Plane, Sphere, Torus

__all__ = ["make_initial_map"]


def identity_map(surface):
    """Embed reference coordinates directly into a plane."""
    if not isinstance(surface, Plane):
        raise ConfigError("identity initial map requires a plane surface")
    return lambda x: surface.embed(np.atleast_2d(x))


def affine_map(surface, matrix):
    """x -> A x embedded into a plane (det A < 0 yields reversed elements)."""
    if not isinstance(surface, Plane):
        raise ConfigError("affine initial map requires a plane surface")
    A = np.asarray(matrix, dtype=float)
    if A.shape != (2, 2) or not np.all(np.isfinite(A)):
        raise ConfigError("affine initial map needs a finite 2x2 matrix")

    def f0(x):
        # x A^T written out: a matmul would hand it to BLAS.
        x = np.atleast_2d(x)
        return surface.embed(x[..., :1] * A[:, 0] + x[..., 1:2] * A[:, 1])

    return f0


def stereographic_cap_map(surface, latitude=np.pi / 3):
    """Inverse stereographic placement of the unit disk onto a polar cap.

    ``latitude`` is the polar (colatitude) angle of the cap boundary; the
    unit circle |x| = 1 lands on that latitude circle, the disk center on
    the pole.  The map is conformal, hence orientation preserving.
    """
    if not isinstance(surface, Sphere):
        raise ConfigError("stereographic_cap initial map requires a sphere")
    if not (_is_real(latitude) and 0 < latitude < np.pi):
        raise ConfigError("cap latitude must lie in (0, pi)")
    s = np.tan(0.5 * latitude)
    R = surface.radius

    def f0(x):
        t = s * np.atleast_2d(x)
        den = 1.0 + np.sum(t**2, axis=1)
        return np.column_stack(
            [
                2.0 * R * t[:, 0] / den,
                2.0 * R * t[:, 1] / den,
                R * (1.0 - np.sum(t**2, axis=1)) / den,
            ]
        )

    return f0


def torus_band_map(surface, theta_range=(0.0, np.pi / 2), psi_range=(-np.pi / 3, np.pi / 3)):
    """Map the unit square onto an angular band of the torus.

    x1 sweeps the azimuth range, x2 the tube-angle range; positive spans
    give positively oriented elements for the outward normal field.
    """
    if not isinstance(surface, Torus):
        raise ConfigError("torus_band initial map requires a torus")
    th0, th1 = map(float, theta_range)
    ps0, ps1 = map(float, psi_range)
    if not (np.inf > th1 > th0 > -np.inf and np.inf > ps1 > ps0 > -np.inf):
        raise ConfigError(
            "torus band theta_range and psi_range must be finite and increasing"
        )

    def f0(x):
        x = np.atleast_2d(x)
        theta = th0 + (th1 - th0) * x[:, 0]
        psi = ps0 + (ps1 - ps0) * x[:, 1]
        return surface.from_angles(psi, theta)

    return f0


MAP_KINDS = {
    "identity": identity_map,
    "affine": affine_map,
    "stereographic_cap": stereographic_cap_map,
    "torus_band": torus_band_map,
}


def make_initial_map(surface, kind, **params):
    """Initial-map factory; ``params`` are the keywords of ``MAP_KINDS[kind]``."""
    try:
        build = MAP_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown initial map kind {kind!r}; expected one of {sorted(MAP_KINDS)}"
        ) from None
    return build(surface, **params)
