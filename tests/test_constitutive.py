import warnings
from fractions import Fraction

import numpy as np
import pytest

from memsurf import (
    InvalidModelError,
    IsotropicModel,
    NonpositiveJError,
    RankDeficientError,
    ThetaModel,
)
from memsurf.constitutive import (
    REPEATED_STRETCH_REL,
    _principal_parts,
    _spectral_planes,
    _stretches,
    energy_density_batch,
    phi_split_batch,
    pk1_batch,
)

F_IDENTITY = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def density(model, F):
    """Stored energy of one 3x2 gradient through the batch entry point."""
    return float(energy_density_batch(model, np.asarray(F)[None])[0])


def spectral(F):
    """(l1, l2, r1, r2, d1, d2) of ``_spectral_planes``, each direction as
    (n, 2) or (n, 3) rows: r1 = (vx, vy) and r2 = (-vy, vx)."""
    l1, l2, vx, vy, d1, d2 = _spectral_planes(F)
    return l1, l2, np.stack([vx, vy], axis=-1), np.stack([-vy, vx], axis=-1), d1.T, d2.T


def spectral_kirchhoff(model, F):
    """Independent spectral formula s1 d1 (x) d1 + s2 d2 (x) d2, batched."""
    l1, l2, _, _, d1, d2 = spectral(F)
    s1, s2 = model.scaled_stress_coefficients(l1, l2)
    return s1[:, None, None] * np.einsum("ni,nj->nij", d1, d1) + s2[
        :, None, None
    ] * np.einsum("ni,nj->nij", d2, d2)


def exact_default_energy(l1, l2):
    """Independent substitution oracle in exact rational arithmetic."""
    l1, l2 = Fraction(l1), Fraction(l2)
    J = l1 * l2
    upsilon = l1**3 + l2**3
    shear = (l1**2 + l2**2) / J
    theta = Fraction(3, 2) * (J**2 + 1 / J**4 - 2)
    return float(upsilon + shear + theta)


def random_gradients(rng, n, lo=0.05, hi=20.0):
    U = np.linalg.qr(rng.standard_normal((n, 3, 3)))[0][:, :, :2]
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), (n, 2)))
    V = np.linalg.qr(rng.standard_normal((n, 2, 2)))[0]
    return np.einsum("nik,nk,njk->nij", U, lam, V)


def wide_sample(seed, n=500):
    """Gradients that reach every branch of the closed-form spectral data.

    Gaussian rows, zero rows, rank-one rows, stretches 1e-4 to 1e4 apart,
    equal stretches on random frames and exactly repeated ones on the
    coordinate axes, shuffled.
    """
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, 3, 3)))[0][:, :, :2]
    V = np.linalg.qr(rng.standard_normal((n, 2, 2)))[0]
    lam = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), (n, 2)))
    wide = np.einsum("nik,nk,njk->nij", U, lam, V)
    equal = np.einsum("nik,n,njk->nij", U, lam[:, 0], V)
    axes = np.zeros((n, 3, 2))
    axes[:, 0, 0] = axes[:, 1, 1] = lam[:, 1]
    axes[1::2] *= -1.0
    rank_one = np.einsum("ni,nj->nij", rng.standard_normal((n, 3)), rng.standard_normal((n, 2)))
    F = np.concatenate(
        [rng.standard_normal((n, 3, 2)), np.zeros((n, 3, 2)), rank_one, wide, equal, axes]
    )
    return F[rng.permutation(len(F))]


def hypot_spectral(F):
    """The closed-form spectral data with the two radii taken by ``np.hypot``.

    The kernel's former formula, kept as the reference for the ``hypot``-free
    one: returns (l1, l2, v1, v2).
    """
    a, b = F[..., 0], F[..., 1]
    c11 = a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1] + a[..., 2] * a[..., 2]
    c22 = b[..., 0] * b[..., 0] + b[..., 1] * b[..., 1] + b[..., 2] * b[..., 2]
    c12 = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
    det = c11 * c22 - c12**2
    diff = 0.5 * (c11 - c22)
    rad = np.hypot(diff, c12)
    e1 = 0.5 * (c11 + c22) + rad
    e2 = np.clip(det / np.where(e1 > 0, e1, 1.0), 0.0, None)
    repeated = rad <= 1e-8 * np.maximum(e1, 1e-300)
    major = diff >= 0
    vx = np.where(repeated, 1.0, np.where(major, rad + diff, c12))
    vy = np.where(repeated, 0.0, np.where(major, c12, rad - diff))
    norm = np.hypot(vx, vy)
    norm = np.where(norm > 0, norm, 1.0)
    vx, vy = vx / norm, vy / norm
    l1, l2 = np.sqrt(np.clip(e1, 0.0, None)), np.sqrt(e2)
    return l1, l2, np.stack([vx, vy], axis=-1), np.stack([-vy, vx], axis=-1)


def _reference_spectral(F):
    """The stacked spectral data ``pk1_batch`` was first written on.

    Returns (l1, l2, r1, r2, d1, d2) with each direction as (n, 2) or (n, 3)
    rows, every d formed by (n, 3) x (n, 1) broadcasts: the oracle for the
    component-plane kernel, which must keep its bits.
    """
    l1, l2, a, b, c12, diff, rad, e1 = _principal_parts(F)
    repeated = rad <= REPEATED_STRETCH_REL * np.maximum(e1, 1e-300)
    major = diff >= 0
    vx = np.where(repeated, 1.0, np.where(major, rad + diff, c12))
    vy = np.where(repeated, 0.0, np.where(major, c12, rad - diff))
    norm = np.sqrt(vx * vx + vy * vy)
    norm = np.where(norm > 0, norm, 1.0)
    vx, vy = vx / norm, vy / norm
    v1 = np.stack([vx, vy], axis=-1)
    v2 = np.stack([-vy, vx], axis=-1)
    d1 = (a * vx[..., None] + b * vy[..., None]) / np.maximum(l1[..., None], 1e-300)
    d2 = (b * vx[..., None] - a * vy[..., None]) / np.maximum(l2[..., None], 1e-300)
    return l1, l2, v1, v2, d1, d2


def _reference_pk1(model, F):
    """PK1 as S = u1 (x) r1 + u2 (x) r2 on the stacked spectral data."""
    l1, l2, r1, r2, d1, d2 = _reference_spectral(F)
    s1, s2 = model.scaled_stress_coefficients(l1, l2)
    u1 = (s1 / l1)[..., None] * d1
    u2 = (s2 / l2)[..., None] * d2
    return np.stack(
        [u1 * r1[..., :1] + u2 * r2[..., :1], u1 * r1[..., 1:] + u2 * r2[..., 1:]],
        axis=-1,
    )


class TestStretches:
    def test_identity(self):
        l1, l2, *_ = spectral(F_IDENTITY[None])
        assert l1[0] == pytest.approx(1.0, abs=1e-14)
        assert l2[0] == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        l1, l2, *_ = spectral(np.array([[[2.0, 0.0], [0.0, 0.5], [0.0, 0.0]]]))
        assert l1[0] == pytest.approx(2.0, abs=1e-14)
        assert l2[0] == pytest.approx(0.5, abs=1e-14)

    def test_shear_golden_ratio(self):
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        l1, l2, *_ = spectral(np.array([[[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]]))
        assert l1[0] == pytest.approx(phi, abs=1e-12)
        assert l2[0] == pytest.approx(1.0 / phi, abs=1e-12)

    def test_frames(self):
        rng = np.random.default_rng(0)
        F = random_gradients(rng, 100)
        l1, l2, r1, r2, d1, d2 = spectral(F)
        assert np.all(np.abs(np.einsum("ni,ni->n", d1, d2)) < 1e-12)
        F_r1 = np.einsum("nij,nj->ni", F, r1)
        F_r2 = np.einsum("nij,nj->ni", F, r2)
        assert np.abs(F_r1 - l1[:, None] * d1).max() < 1e-10
        assert np.abs(F_r2 - l2[:, None] * d2).max() < 1e-10
        C = np.einsum("nki,nkj->nij", F, F)
        np.testing.assert_allclose(l1 * l2, np.sqrt(np.linalg.det(C)), rtol=1e-10)
        np.testing.assert_allclose(
            l1**2 + l2**2, np.trace(C, axis1=1, axis2=2), rtol=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stretches_bitwise_equal_spectral(self, seed):
        """The energy-only path gives the bits of the full spectral path."""
        F = wide_sample(seed)
        l1, l2 = spectral(F)[:2]
        for got, want in zip(_stretches(F), (l1, l2)):
            assert got.tobytes() == want.tobytes()
        # The sample does reach the exactly repeated and the zero branches.
        assert np.any(l1 == l2)
        assert np.any(l1 == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_four_ulp_of_hypot_formula(self, seed):
        """Dropping ``hypot`` moves the stretches and directions by rounding only."""
        F = wide_sample(seed)
        want = hypot_spectral(F)
        for got in (_stretches(F), spectral(F)[:4]):
            for g, w in zip(got, want):
                np.testing.assert_array_max_ulp(g, w, maxulp=4)

    def test_single_gradient_is_batch_row(self, model):
        """A (3, 2) gradient gives row 0 of the (1, 3, 2) batch, bit for bit."""
        F = random_gradients(np.random.default_rng(4), 1)
        assert energy_density_batch(model, F[0]) == energy_density_batch(model, F)[0]
        assert phi_split_batch(model, F[0], 0.7) == phi_split_batch(model, F, [0.7])[0]
        assert pk1_batch(model, F[0]).tobytes() == pk1_batch(model, F)[0].tobytes()

    @pytest.mark.parametrize("scale", [1e60, 1e-60])
    def test_stretches_scale_without_warning(self, scale):
        """No squared entry over- or underflows inside |F| from 1e-77 to 1e77."""
        rng = np.random.default_rng(3)
        n = 2000
        # Stretch ratios up to 4, so det(C) keeps its relative accuracy.
        F = random_gradients(rng, n, lo=0.5, hi=2.0)
        F[::100] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got, want in zip(spectral(scale * F)[:2], _stretches(F)):
                np.testing.assert_allclose(got, scale * want, rtol=1e-14, atol=0.0)

    def test_rank_deficient_raises(self, model):
        with pytest.raises(RankDeficientError):
            energy_density_batch(model, np.array([[[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]]))
        with pytest.raises(RankDeficientError):
            energy_density_batch(model, np.zeros((1, 3, 2)))


class TestEnergyDensity:
    def test_identity_value(self, model):
        assert density(model, F_IDENTITY) == pytest.approx(4.0, abs=1e-14)

    def test_thin_stretch_value(self, model):
        expected = exact_default_energy(1, Fraction(1, 10))
        got = model.energy_from_stretches(1.0, 0.1)
        assert got == pytest.approx(expected, rel=1e-12)
        F = np.array([[1.0, 0.0], [0.0, 0.1], [0.0, 0.0]])
        assert density(model, F) == pytest.approx(expected, rel=1e-10)

    def test_equibiaxial_value(self, model):
        expected = exact_default_energy(2, 2)
        F = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert density(model, F) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(39.005859375, abs=1e-12)

    def test_symmetric_in_stretches(self, model):
        rng = np.random.default_rng(1)
        l = np.exp(rng.uniform(np.log(0.05), np.log(20.0), (1000, 2)))
        a = model.energy_from_stretches(l[:, 0], l[:, 1])
        b = model.energy_from_stretches(l[:, 1], l[:, 0])
        assert np.array_equal(a, b)

    def test_objectivity(self, model):
        rng = np.random.default_rng(2)
        F = random_gradients(rng, 1000)
        Q = np.linalg.qr(rng.standard_normal((1000, 3, 3)))[0]
        Q[np.linalg.det(Q) < 0, :, 0] *= -1.0
        W0 = energy_density_batch(model, F)
        W1 = energy_density_batch(model, np.einsum("nij,njk->nik", Q, F))
        assert np.max(np.abs(W1 - W0) / (1.0 + W0)) <= 1e-9

    def test_isotropy(self, model):
        rng = np.random.default_rng(3)
        F = random_gradients(rng, 1000)
        ang = rng.uniform(0, 2 * np.pi, 1000)
        R = np.stack(
            [
                np.stack([np.cos(ang), -np.sin(ang)], -1),
                np.stack([np.sin(ang), np.cos(ang)], -1),
            ],
            -2,
        )
        W0 = energy_density_batch(model, F)
        W1 = energy_density_batch(model, np.einsum("nij,njk->nik", F, R))
        assert np.max(np.abs(W1 - W0) / (1.0 + W0)) <= 1e-9


class TestStress:
    def test_identity_stress_free(self, model):
        assert np.abs(pk1_batch(model, F_IDENTITY[None])).max() < 1e-14
        assert np.abs(spectral_kirchhoff(model, F_IDENTITY[None])).max() < 1e-14

    def test_matches_finite_differences(self, model):
        rng = np.random.default_rng(4)
        F = random_gradients(rng, 200, lo=0.05, hi=5.0)
        S = pk1_batch(model, F)
        h = 1e-5 * np.maximum(1.0, np.linalg.norm(F, axis=(1, 2)))
        for i in range(3):
            for j in range(2):
                Fp = F.copy()
                Fm = F.copy()
                Fp[:, i, j] += h
                Fm[:, i, j] -= h
                fd = (
                    energy_density_batch(model, Fp) - energy_density_batch(model, Fm)
                ) / (2 * h)
                scale = 1.0 + np.abs(S).max(axis=(1, 2))
                assert np.max(np.abs(S[:, i, j] - fd) / scale) < 1e-5

    def test_kirchhoff_relation(self, model):
        rng = np.random.default_rng(5)
        F = random_gradients(rng, 200)
        tau = spectral_kirchhoff(model, F)
        SFt = np.einsum("nij,nkj->nik", pk1_batch(model, F), F)
        scale = 1.0 + np.abs(tau).max(axis=(1, 2))
        assert np.max(np.abs(tau - SFt).max(axis=(1, 2)) / scale) < 1e-10
        # Cauchy relation J sigma = S F^T with J = sqrt(det C) and the
        # Cauchy stress sigma = tau / (l1 l2) from the stretches.
        l1, l2, *_ = spectral(F)
        cauchy = tau / (l1 * l2)[:, None, None]
        J = np.sqrt(np.linalg.det(np.einsum("nki,nkj->nij", F, F)))
        lhs = J[:, None, None] * cauchy
        assert np.max(np.abs(lhs - SFt).max(axis=(1, 2)) / scale) < 1e-10

    def test_kirchhoff_symmetric(self, model):
        rng = np.random.default_rng(6)
        F = random_gradients(rng, 100)
        SFt = np.einsum("nij,nkj->nik", pk1_batch(model, F), F)
        asym = np.abs(SFt - np.swapaxes(SFt, 1, 2)).max(axis=(1, 2))
        assert np.all(asym < 1e-10 * (1.0 + np.abs(SFt).max(axis=(1, 2))))

    def test_equibiaxial_isotropic_stress(self, model):
        lam = 1.7
        F = np.array([[[lam, 0.0], [0.0, lam], [0.0, 0.0]]])
        s = 3.0 * lam**3 + model.theta.j_times_derivative(lam**2)
        expected = s * np.diag([1.0, 1.0, 0.0])
        SFt = pk1_batch(model, F)[0] @ F[0].T
        assert np.abs(spectral_kirchhoff(model, F)[0] - expected).max() < 1e-10 * (
            1 + abs(s)
        )
        assert np.abs(SFt - expected).max() < 1e-10 * (1 + abs(s))

    def test_pure_shear_coaxial_with_b(self, model):
        F = np.array([[[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]])
        tau = spectral_kirchhoff(model, F)[0]
        B = F[0] @ F[0].T
        comm = tau @ B - B @ tau
        assert np.abs(comm).max() < 1e-12 * np.abs(tau).max()

    def test_repeated_stretches(self, model):
        F = np.array([[[1.0, 0.0], [0.0, 1.0 + 1e-12], [0.0, 0.0]]])
        assert np.abs(pk1_batch(model, F)).max() < 1e-9


def _oracle_batch(name):
    """Gradients that reach one branch of the spectral data, by name."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "wide":  # stretches from 1e-3 to 1e3
        return random_gradients(rng, 4000, lo=1e-3, hi=1e3)
    if name == "repeated":  # identity rows and rad <= 1e-8 e1 on random frames
        U = np.linalg.qr(rng.standard_normal((500, 3, 3)))[0][:, :, :2]
        V = np.linalg.qr(rng.standard_normal((500, 2, 2)))[0]
        lam = np.exp(rng.uniform(-2.0, 2.0, (500, 1)))
        lam = lam * (1.0 + np.column_stack([np.zeros(500), rng.uniform(-1e-9, 1e-9, 500)]))
        near = np.einsum("nik,nk,njk->nij", U, lam, V)
        return np.concatenate([np.repeat(F_IDENTITY[None], 8, axis=0), near])
    if name == "minor":  # c11 < c22: the diff < 0 branch
        F = random_gradients(rng, 1000)
        a2, b2 = np.sum(F[:, :, 0] ** 2, axis=1), np.sum(F[:, :, 1] ** 2, axis=1)
        return np.where((a2 < b2)[:, None, None], F, F[:, :, ::-1])
    if name == "thin":  # l2 from 1e-7 to 1e-4: l2 near 0 with det C still resolved
        U = np.linalg.qr(rng.standard_normal((1000, 3, 3)))[0][:, :, :2]
        V = np.linalg.qr(rng.standard_normal((1000, 2, 2)))[0]
        lam = np.column_stack(
            [rng.uniform(0.5, 2.0, 1000), np.exp(rng.uniform(np.log(1e-7), np.log(1e-4), 1000))]
        )
        return np.einsum("nik,nk,njk->nij", U, lam, V)
    raise ValueError(name)


class TestPk1MatchesReference:
    """The component-plane kernel keeps the bits of the stacked one."""

    @pytest.mark.parametrize("name", ["wide", "repeated", "minor", "thin"])
    def test_bit_equal(self, model, name):
        F = _oracle_batch(name)
        got, want = pk1_batch(model, F), _reference_pk1(model, F)
        assert got.shape == want.shape and np.array_equal(got, want)
        for g, w in zip(spectral(F), _reference_spectral(F)):
            assert np.array_equal(g, w)
        l1, l2, _, _, c12, diff, rad, e1 = _principal_parts(F)
        repeated = rad <= REPEATED_STRETCH_REL * np.maximum(e1, 1e-300)
        # Each batch does reach its branch.
        reached = {
            "wide": (l1 / l2).max() > 1e5,
            "repeated": repeated.all() and np.any(rad > 0),
            "minor": np.all(diff < 0),
            "thin": l2.max() < 1e-3,
        }
        assert reached[name]

    def test_one_row(self, model):
        F = _oracle_batch("wide")
        for k in range(0, len(F), 997):
            row = F[k : k + 1]
            assert np.array_equal(pk1_batch(model, row), _reference_pk1(model, row))
            assert np.array_equal(pk1_batch(model, F[k]), _reference_pk1(model, F[k]))


class TestPhiSplit:
    def test_zero_gradient(self, model):
        assert phi_split_batch(model, np.zeros((1, 3, 2)), np.ones(1))[0] == 0.0

    def test_consistency_with_density(self, model):
        assert phi_split_batch(model, F_IDENTITY[None], np.ones(1))[0] == pytest.approx(
            4.0, abs=1e-14
        )
        rng = np.random.default_rng(7)
        F = random_gradients(rng, 200)
        J = np.sqrt(np.linalg.det(np.einsum("nij,nik->njk", F, F)))
        a = phi_split_batch(model, F, J)
        b = energy_density_batch(model, F)
        assert np.max(np.abs(a - b) / (1.0 + np.abs(b))) < 1e-12
        # With J = l1*l2 all three entry points evaluate the one formula.
        l1, l2, *_ = spectral(F)
        W = energy_density_batch(model, F)
        assert np.array_equal(W, phi_split_batch(model, F, l1 * l2))
        assert np.array_equal(W, model.energy_from_stretches(l1, l2))

    def test_nonpositive_j_raises(self, model):
        with pytest.raises(NonpositiveJError):
            phi_split_batch(model, F_IDENTITY[None], np.zeros(1))
        with pytest.raises(NonpositiveJError):
            phi_split_batch(model, F_IDENTITY[None], -np.ones(1))

    def test_nan_j_raises(self, model):
        F = np.repeat(F_IDENTITY[None], 2, axis=0)
        with pytest.raises(NonpositiveJError, match=r"^Phi\(F, J\) requires J > 0$"):
            phi_split_batch(model, F, [np.nan, 1.0])


class TestThetaModel:
    def test_zero_at_one(self):
        th = ThetaModel()
        assert th.value(1.0) == 0.0

    def test_exact_minimum(self):
        th = ThetaModel(c=1.5, q=2.0, r=4.0)
        jstar = (4.0 / 2.0) ** (1.0 / 6.0)
        assert th.argmin == pytest.approx(jstar, rel=1e-14)
        gmin = 2.0 ** (1.0 / 3.0) + 2.0 ** (-2.0 / 3.0)
        assert th.minimum_value == pytest.approx(1.5 * (gmin - 2.0), rel=1e-13)
        # The minimum is negative for q != r and a true global lower bound.
        J = np.exp(np.linspace(np.log(1e-4), np.log(1e4), 20001))
        assert th.minimum_value < 0
        assert np.min(th.value(J)) >= th.minimum_value - 1e-12

    def test_nonnegative_when_exponents_match(self):
        th = ThetaModel(c=2.0, q=3.0, r=3.0)
        J = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 5001))
        assert th.minimum_value == pytest.approx(0.0, abs=1e-14)
        assert np.min(th.value(J)) >= -1e-14

    def test_convexity_sampled(self):
        th = ThetaModel()
        J = np.exp(np.linspace(np.log(1e-4), np.log(1e4), 5001))
        # Chord slopes increase along the grid.
        assert np.all(np.diff(np.diff(th.value(J)) / np.diff(J)) > 0)
        # midpoint convexity along the grid
        mid = th.value(0.5 * (J[:-1] + J[1:]))
        assert np.all(mid <= 0.5 * (th.value(J[:-1]) + th.value(J[1:])) + 1e-12)

    def test_blowup(self):
        th = ThetaModel()
        assert th.value(1e-6) > 1e10

    def test_j_theta_prime_bound(self):
        th = ThetaModel()
        J = np.exp(np.linspace(np.log(1e-5), np.log(1e5), 10001))
        lhs = np.abs(th.j_times_derivative(J))
        rhs = max(th.q, th.r) * (th.value(J) + 2.0 * th.c)
        assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_validation(self):
        with pytest.raises(InvalidModelError):
            ThetaModel(c=0.0)
        with pytest.raises(InvalidModelError):
            ThetaModel(q=1.0)
        with pytest.raises(InvalidModelError):
            ThetaModel(r=0.0)
        for name in ("c", "q", "r"):
            with pytest.raises(InvalidModelError, match=f"{name} must be finite"):
                ThetaModel(**{name: np.inf})


class TestIsotropicModel:
    def test_default_flags(self, model):
        assert model.growth_exponent == 3.0
        assert model.coercivity_satisfied
        assert model.strong_coercivity_satisfied

    def test_h1_fails_below_four_thirds(self):
        m = IsotropicModel(ogden_terms=((1.0, 1.2),))
        assert not m.coercivity_satisfied

    def test_strong_coercivity_fails_for_small_r(self):
        m = IsotropicModel(theta=ThetaModel(c=1.5, q=2.0, r=2.0))
        assert m.growth_exponent == 3.0
        assert not m.strong_coercivity_satisfied  # needs r > p/(p-2) = 3

    def test_parameter_validation(self):
        with pytest.raises(InvalidModelError):
            IsotropicModel(ogden_terms=((0.0, 3.0),))
        with pytest.raises(InvalidModelError):
            IsotropicModel(ogden_terms=((1.0, 0.5),))
        with pytest.raises(InvalidModelError):
            IsotropicModel(b=-1.0)
        with pytest.raises(InvalidModelError):
            IsotropicModel(ogden_terms=())
        for b in (np.inf, np.nan):
            with pytest.raises(InvalidModelError, match="b must be finite"):
                IsotropicModel(b=b)
        for term in ((np.inf, 3.0), (1.0, np.inf)):
            with pytest.raises(InvalidModelError, match="must be finite"):
                IsotropicModel(ogden_terms=(term,))

    def test_rejects_negative_density_models(self):
        # With b = 0 the Theta dip can push the density negative.
        with pytest.raises(InvalidModelError):
            IsotropicModel(ogden_terms=((1e-6, 3.0),), b=0.0)

    def test_density_nonnegative_sampled(self, model):
        rng = np.random.default_rng(8)
        l = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (5000, 2)))
        W = model.energy_from_stretches(l[:, 0], l[:, 1])
        assert np.min(W) >= 0.0

    def test_stress_bound_constant_dominates_sampled(self, model):
        K = model.stress_bound_constant()
        rng = np.random.default_rng(9)
        l = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (20000, 2)))
        s1, s2 = model.scaled_stress_coefficients(l[:, 0], l[:, 1])
        phi = model.energy_from_stretches(l[:, 0], l[:, 1])
        assert np.max(np.hypot(s1, s2) / (phi + 1.0)) <= K

    def test_roundtrip_dict(self, model):
        d = model.to_dict()
        m2 = IsotropicModel.from_dict(d)
        assert m2 == model

    def test_from_dict_missing_keys_take_class_defaults(self, model):
        # Each missing key falls back to the IsotropicModel / ThetaModel
        # default, so a partial dict of the default values is the default.
        for missing in ("ogden_terms", "b", "theta"):
            d = model.to_dict()
            del d[missing]
            assert IsotropicModel.from_dict(d) == IsotropicModel(), missing
        partial = IsotropicModel.from_dict({"theta": {"c": 2.0}})
        assert partial.theta == ThetaModel(c=2.0)
        assert IsotropicModel.from_dict({}) == IsotropicModel()
