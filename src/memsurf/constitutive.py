"""Isotropic membrane energy densities and their stresses.

The model is one split density of the principal stretches l1 >= l2 >= 0 of
a 3x2 deformation gradient F and an independent area ratio J > 0,

    Phi(l1, l2, J) = sum_j b_j (l1^g_j + l2^g_j)  +  b (l1^2 + l2^2)/J  +  Theta(J),
    Theta(J) = c (J^q + J^(-r) - 2),

written once, in ``IsotropicModel.phi``.  Since l1^2 + l2^2 = F.F, Phi is
convex as a joint function of (F, J); the stored energy is
W(F) = Phi(l1, l2, l1*l2), which blows up as J -> 0+ and is frame
indifferent and isotropic by construction.  Each quantity has one batch
entry point over (n, 3, 2) gradients: ``energy_density_batch`` for W (with
the rank check), ``phi_split_batch`` for Phi(F, J) and ``pk1_batch`` for
the first Piola-Kirchhoff stress; ``IsotropicModel.scaled_stress_coefficients``
gives the principal Kirchhoff stresses.  The two energy entry points need
only the stretches (``_stretches``); the stress also needs the principal
directions (``_spectral_planes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidModelError,
    NonpositiveJError,
    RankDeficientError,
)

__all__ = [
    "ThetaModel",
    "IsotropicModel",
    "energy_density_batch",
    "pk1_batch",
    "phi_split_batch",
    "max_perturbation_delta",
]

# Relative threshold under which F is treated as rank deficient.
RANK_REL_TOL = 1e-12
# Relative stretch gap under which the spectral pair is treated as repeated.
REPEATED_STRETCH_REL = 1e-8
# The verify battery's perturbation size, which a model must admit
# (``max_perturbation_delta``); config parsing checks it.
PERTURBATION_DELTA = 0.01


@dataclass(frozen=True)
class ThetaModel:
    """Convex area-ratio penalty Theta(J) = c (J^q + J^(-r) - 2)."""

    c: float = 1.5
    q: float = 2.0
    r: float = 4.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise InvalidModelError("theta coefficient c must be finite and > 0")
        if not 1 < self.q < math.inf:
            raise InvalidModelError("theta exponent q must be finite and > 1")
        if not 0 < self.r < math.inf:
            raise InvalidModelError("theta exponent r must be finite and > 0")

    def value(self, J):
        J = np.asarray(J, dtype=float)
        return self.c * (J**self.q + J ** (-self.r) - 2.0)

    def j_times_derivative(self, J):
        """J Theta'(J) = c (q J^q - r J^(-r)), the area-ratio stress term."""
        J = np.asarray(J, dtype=float)
        return self.c * (self.q * J**self.q - self.r * J ** (-self.r))

    @property
    def argmin(self):
        """Location of the minimum of J^q + J^(-r) on (0, inf)."""
        return (self.r / self.q) ** (1.0 / (self.q + self.r))

    @property
    def minimum_value(self):
        """Exact minimum of Theta; zero iff q == r, negative otherwise."""
        return float(self.value(self.argmin))


@dataclass(frozen=True)
class IsotropicModel:
    """Two-dimensional isotropic stored energy with split structure.

    ``ogden_terms`` is a sequence of (coefficient, exponent) pairs with
    coefficient > 0 and exponent >= 1; ``b`` scales the convex (F.F)/J term.
    The model must keep the total density nonnegative, which holds whenever
    2 b + min Theta >= 0 (the remaining terms are nonnegative).  The
    defaults are stress free at the identity.
    """

    ogden_terms: tuple = ((1.0, 3.0),)
    b: float = 1.0
    theta: ThetaModel = field(default_factory=ThetaModel)

    def __post_init__(self):
        terms = tuple((float(bj), float(gj)) for bj, gj in self.ogden_terms)
        object.__setattr__(self, "ogden_terms", terms)
        if not terms:
            raise InvalidModelError("at least one ogden term is required")
        for bj, gj in terms:
            if not 0 < bj < math.inf:
                raise InvalidModelError("ogden coefficients must be finite and > 0")
            if not 1 <= gj < math.inf:
                raise InvalidModelError("ogden exponents must be finite and >= 1")
        if not 0 <= self.b < math.inf:
            raise InvalidModelError("shear coefficient b must be finite and >= 0")
        if 2.0 * self.b + self.theta.minimum_value < 0:
            raise InvalidModelError(
                "density can go negative: need 2*b + min(Theta) >= 0, got "
                f"{2.0 * self.b + self.theta.minimum_value:.6g}"
            )

    # -- derived exponents and admissibility flags -----------------------------
    @property
    def growth_exponent(self):
        """p = max_j gamma_j, the stretch growth rate of the density."""
        return max(gj for _, gj in self.ogden_terms)

    @property
    def coercivity_satisfied(self):
        """Coercivity flag: growth exponent above 4/3 (J^q term is built in)."""
        return self.growth_exponent > 4.0 / 3.0

    @property
    def strong_coercivity_satisfied(self):
        """Strengthened coercivity: p > 2 and r > p/(p - 2)."""
        p = self.growth_exponent
        return p > 2.0 and self.theta.r > p / (p - 2.0)

    def stress_bound_constant(self):
        """Analytic K with |(l1 Phi_1, l2 Phi_2)| <= K (Phi + 1) everywhere.

        Componentwise, |l g Phi_g| is bounded by gmax * Upsilon for the
        stretch terms, by the (F.F)/J term itself for the shear part (with
        opposite signs in the two components), and by max(q, r) (Theta + 2c)
        for the area term, giving

            |(l1 Phi_1, l2 Phi_2)| <= K0 Phi + K1,
            K0 = max(gmax, sqrt(2) max(q, r)),  K1 = 2 sqrt(2) c max(q, r).

        Since Phi >= Phi_min = max(0, 2b + min Theta), the ratio against
        Phi + 1 is maximized at Phi_min.
        """
        gmax = self.growth_exponent
        mqr = max(self.theta.q, self.theta.r)
        k0 = max(gmax, math.sqrt(2.0) * mqr)
        k1 = 2.0 * math.sqrt(2.0) * self.theta.c * mqr
        phi_min = max(0.0, 2.0 * self.b + self.theta.minimum_value)
        return max(k0, (k0 * phi_min + k1) / (phi_min + 1.0))

    # -- stretch-space evaluation (vectorized) ---------------------------------
    def upsilon(self, l1, l2):
        l1 = np.asarray(l1, dtype=float)
        l2 = np.asarray(l2, dtype=float)
        out = np.zeros(np.broadcast(l1, l2).shape)
        for bj, gj in self.ogden_terms:
            out = out + bj * (l1**gj + l2**gj)
        return out

    def phi(self, l1, l2, J):
        """Split density Phi(l1, l2, J) with the area ratio as its own argument."""
        l1 = np.asarray(l1, dtype=float)
        l2 = np.asarray(l2, dtype=float)
        J = np.asarray(J, dtype=float)
        shear = self.b * (l1**2 + l2**2) / J
        return self.upsilon(l1, l2) + shear + self.theta.value(J)

    def energy_from_stretches(self, l1, l2):
        """Stored energy W = Phi(l1, l2, l1*l2)."""
        l1 = np.asarray(l1, dtype=float)
        l2 = np.asarray(l2, dtype=float)
        return self.phi(l1, l2, l1 * l2)

    def scaled_stress_coefficients(self, l1, l2):
        """(l1 Phi_1, l2 Phi_2), the principal Kirchhoff stresses."""
        l1 = np.asarray(l1, dtype=float)
        l2 = np.asarray(l2, dtype=float)
        J = l1 * l2
        jtp = self.theta.j_times_derivative(J)
        ups1 = np.zeros(np.broadcast(l1, l2).shape)
        ups2 = np.zeros_like(ups1)
        for bj, gj in self.ogden_terms:
            ups1 = ups1 + bj * gj * l1**gj
            ups2 = ups2 + bj * gj * l2**gj
        shear = self.b * (l1**2 - l2**2) / J
        return ups1 + shear + jtp, ups2 - shear + jtp

    def to_dict(self):
        return {
            "ogden_terms": [{"b": bj, "gamma": gj} for bj, gj in self.ogden_terms],
            "b": self.b,
            "theta": {"c": self.theta.c, "q": self.theta.q, "r": self.theta.r},
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``; a missing key takes the class default."""
        kwargs = {}
        if "ogden_terms" in data:
            kwargs["ogden_terms"] = tuple(
                (t["b"], t["gamma"]) for t in data["ogden_terms"]
            )
        if "b" in data:
            kwargs["b"] = float(data["b"])
        if "theta" in data:
            kwargs["theta"] = ThetaModel(
                **{key: float(val) for key, val in data["theta"].items()}
            )
        return cls(**kwargs)


def max_perturbation_delta(model):
    """1/(2K): the perturbed stress bound needs delta strictly below it."""
    return 1.0 / (2.0 * model.stress_bound_constant())


def _plane_dot(x, y):
    """Column dot products (m,) of (d, m) planes, added over the d rows in
    order: x[0] y[0] + x[1] y[1] + ..."""
    s = x[0] * y[0]
    for r in range(1, len(x)):
        s += x[r] * y[r]
    return s


def _principal_parts(F):
    """Principal stretches of a batch of 3x2 matrices, with the C entries.

    Returns (l1, l2, a, b, c12, diff, rad, e1): l1 >= l2 >= 0, the columns
    a, b of F and the pieces of C = F^T F the eigenvectors are built from.
    The small eigenvalue is computed as det(C)/e1 to avoid cancellation.
    The radius sqrt(diff^2 + c12^2) uses no ``hypot``: ``det`` squares the
    same C entries, so the valid range stays |F| between about 1e-77 and
    1e77 either way.  The sums run in place on a few buffers, in the order
    of the written-out expressions, so the bits are theirs.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim == 2:  # one gradient: a batch of one, since scalar entries take no out=
        return tuple(x[0] for x in _principal_parts(F[None]))
    a, b = F[..., 0], F[..., 1]
    tmp = np.empty(F.shape[:-2])
    c11 = a[..., 0] * a[..., 0]
    c22 = b[..., 0] * b[..., 0]
    c12 = a[..., 0] * b[..., 0]
    for k in (1, 2):
        c11 += np.multiply(a[..., k], a[..., k], out=tmp)
        c22 += np.multiply(b[..., k], b[..., k], out=tmp)
        c12 += np.multiply(a[..., k], b[..., k], out=tmp)
    c12_sq = np.multiply(c12, c12, out=tmp)
    det = c11 * c22
    det -= c12_sq
    diff = c11 - c22
    diff *= 0.5
    rad = diff * diff
    rad += c12_sq
    np.sqrt(rad, out=rad)
    # e1 = (c11 + c22)/2 + rad, in c11's buffer.
    e1 = c11
    e1 += c22
    e1 *= 0.5
    e1 += rad
    # e2 = det/e1, left at det where e1 is not positive (det/1 in effect).
    l2 = np.divide(det, e1, out=det, where=e1 > 0)
    np.sqrt(np.clip(l2, 0.0, None, out=l2), out=l2)
    l1 = np.sqrt(np.clip(e1, 0.0, None, out=c22), out=c22)
    return l1, l2, a, b, c12, diff, rad, e1


def _stretches(F):
    """(l1, l2) of ``_spectral_planes`` without the eigenvectors, same bits."""
    return _principal_parts(F)[:2]


def _spectral_planes(F):
    """Closed-form spectral data of a (n, 3, 2) batch, or of one (3, 2) matrix.

    Returns (l1, l2, vx, vy, d1, d2): l1 >= l2 >= 0 (``_principal_parts``),
    the right eigenvector r1 = (vx, vy) of the larger stretch (r2 is
    (-vy, vx)), and the left directions d1 = F r1 / l1 and d2 = F r2 / l2 as
    (3, n) planes, one row per ambient component.  At repeated stretches the
    right pair defaults to the coordinate axes (any orthonormal pair is
    valid there).
    """
    l1, l2, _, _, c12, diff, rad, e1 = _principal_parts(F)
    repeated = rad <= REPEATED_STRETCH_REL * np.maximum(e1, 1e-300)
    # Eigenvector (vx, vy) of C for e1, branch chosen for conditioning.
    major = diff >= 0
    vx = np.where(repeated, 1.0, np.where(major, rad + diff, c12))
    vy = np.where(repeated, 0.0, np.where(major, c12, rad - diff))
    norm = np.sqrt(vx * vx + vy * vy)
    norm = np.where(norm > 0, norm, 1.0)
    vx /= norm
    vy /= norm
    # The columns of F as contiguous (3, n) planes, so each product below
    # runs one long loop over the batch instead of n length-3 ones.
    a, b = np.ascontiguousarray(np.asarray(F, dtype=float).T)
    d1 = a * vx
    d1 += b * vy
    d1 /= np.maximum(l1, 1e-300)
    d2 = b * vx
    d2 -= a * vy
    d2 /= np.maximum(l2, 1e-300)
    return l1, l2, vx, vy, d1, d2


def _check_rank(l1, l2):
    """Raise unless l1 l2 = sqrt(det C) clears the relative floor on tr C."""
    det = (l1 * l2) ** 2
    bad = det <= (RANK_REL_TOL * np.maximum(l1**2 + l2**2, 1e-300)) ** 2
    if np.any(bad):
        raise RankDeficientError(
            "deformation gradient is numerically rank deficient "
            f"(det C = {float(np.min(det)):.3e})"
        )


def energy_density_batch(model, F):
    """Vectorized stored energy over a (n, 3, 2) batch."""
    l1, l2 = _stretches(F)
    _check_rank(l1, l2)
    return model.energy_from_stretches(l1, l2)


def pk1_batch(model, F):
    """Vectorized PK1 stress over a (n, 3, 2) batch, or of one (3, 2) gradient.

    S = u1 (x) r1 + u2 (x) r2 with u_k = (s_k / l_k) d_k, formed column by
    column on (3, n) planes; the result is an (n, 3, 2) view of them.
    """
    l1, l2, vx, vy, u1, u2 = _spectral_planes(F)
    s1, s2 = model.scaled_stress_coefficients(l1, l2)
    u1 *= s1 / l1
    u2 *= s2 / l2
    S = np.empty((2, *u1.shape))
    np.multiply(u1, vx, out=S[0])
    S[0] -= u2 * vy
    np.multiply(u1, vy, out=S[1])
    S[1] += u2 * vx
    return S.T


def phi_split_batch(model, F, J):
    """Vectorized Phi(F, J) over batches; F may be rank deficient here."""
    F = np.asarray(F, dtype=float)
    J = np.asarray(J, dtype=float)
    if not np.all(J > 0):
        raise NonpositiveJError("Phi(F, J) requires J > 0")
    l1, l2 = _stretches(F)
    return model.phi(l1, l2, J)
