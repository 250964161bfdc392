from fractions import Fraction

import numpy as np
import pytest

from memsurf import (
    InvalidModelError,
    IsotropicModel,
    NonpositiveJError,
    RankDeficientError,
    ThetaModel,
    default_model,
    energy_density,
    phi_split,
    pk1_stress,
    stretches,
)
from memsurf.constitutive import energy_density_batch, pk1_batch

F_IDENTITY = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


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


class TestStretches:
    def test_identity(self):
        pair = stretches(F_IDENTITY)
        assert pair.lam1 == pytest.approx(1.0, abs=1e-14)
        assert pair.lam2 == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        pair = stretches(np.array([[2.0, 0.0], [0.0, 0.5], [0.0, 0.0]]))
        assert pair.lam1 == pytest.approx(2.0, abs=1e-14)
        assert pair.lam2 == pytest.approx(0.5, abs=1e-14)

    def test_shear_golden_ratio(self):
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        pair = stretches(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
        assert pair.lam1 == pytest.approx(phi, abs=1e-12)
        assert pair.lam2 == pytest.approx(1.0 / phi, abs=1e-12)

    def test_frames(self):
        rng = np.random.default_rng(0)
        for F in random_gradients(rng, 100):
            pair = stretches(F)
            assert abs(pair.d1 @ pair.d2) < 1e-12
            assert np.abs(F @ pair.r1 - pair.lam1 * pair.d1).max() < 1e-10
            assert np.abs(F @ pair.r2 - pair.lam2 * pair.d2).max() < 1e-10
            C = F.T @ F
            assert pair.lam1 * pair.lam2 == pytest.approx(
                np.sqrt(np.linalg.det(C)), rel=1e-10
            )
            assert pair.lam1**2 + pair.lam2**2 == pytest.approx(
                np.trace(C), rel=1e-12
            )

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            stretches(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(RankDeficientError):
            stretches(np.zeros((3, 2)))


class TestEnergyDensity:
    def test_identity_value(self, model):
        assert energy_density(model, F_IDENTITY) == pytest.approx(4.0, abs=1e-14)

    def test_thin_stretch_value(self, model):
        expected = exact_default_energy(1, Fraction(1, 10))
        got = model.energy_from_stretches(1.0, 0.1)
        assert got == pytest.approx(expected, rel=1e-12)
        F = np.array([[1.0, 0.0], [0.0, 0.1], [0.0, 0.0]])
        assert energy_density(model, F) == pytest.approx(expected, rel=1e-10)

    def test_equibiaxial_value(self, model):
        expected = exact_default_energy(2, 2)
        F = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert energy_density(model, F) == pytest.approx(expected, rel=1e-12)
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
        state = pk1_stress(model, F_IDENTITY)
        assert np.abs(state.pk1).max() < 1e-14
        assert np.abs(state.kirchhoff).max() < 1e-14

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
        for F in random_gradients(rng, 200):
            state = pk1_stress(model, F)
            scale = 1.0 + np.abs(state.kirchhoff).max()
            assert np.abs(state.kirchhoff - state.pk1 @ F.T).max() / scale < 1e-10
            assert (
                np.abs(state.cauchy * stretches(F).area_ratio - state.kirchhoff).max()
                / scale
                < 1e-10
            )

    def test_kirchhoff_symmetric(self, model):
        rng = np.random.default_rng(6)
        for F in random_gradients(rng, 100):
            state = pk1_stress(model, F)
            asym = np.abs(state.kirchhoff - state.kirchhoff.T).max()
            assert asym < 1e-10 * (1.0 + np.abs(state.kirchhoff).max())

    def test_equibiaxial_isotropic_stress(self, model):
        lam = 1.7
        F = np.array([[lam, 0.0], [0.0, lam], [0.0, 0.0]])
        state = pk1_stress(model, F)
        s = 3.0 * lam**3 + model.theta.j_times_derivative(lam**2)
        expected = s * np.diag([1.0, 1.0, 0.0])
        assert np.abs(state.kirchhoff - expected).max() < 1e-10 * (1 + abs(s))

    def test_pure_shear_coaxial_with_b(self, model):
        F = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        state = pk1_stress(model, F)
        B = F @ F.T
        comm = state.kirchhoff @ B - B @ state.kirchhoff
        assert np.abs(comm).max() < 1e-12 * np.abs(state.kirchhoff).max()

    def test_repeated_stretches(self, model):
        F = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-12], [0.0, 0.0]])
        state = pk1_stress(model, F)
        assert np.abs(state.pk1).max() < 1e-9


class TestPhiSplit:
    def test_zero_gradient(self, model):
        assert phi_split(model, np.zeros((3, 2)), 1.0) == 0.0

    def test_consistency_with_density(self, model):
        assert phi_split(model, F_IDENTITY, 1.0) == pytest.approx(4.0, abs=1e-14)
        rng = np.random.default_rng(7)
        F = random_gradients(rng, 200)
        J = np.sqrt(np.linalg.det(np.einsum("nij,nik->njk", F, F)))
        from memsurf.constitutive import phi_split_batch

        a = phi_split_batch(model, F, J)
        b = energy_density_batch(model, F)
        assert np.max(np.abs(a - b) / (1.0 + np.abs(b))) < 1e-12
        # With J = l1*l2 all three entry points evaluate the one formula.
        from memsurf.constitutive import _spectral_batch

        l1, l2, *_ = _spectral_batch(F)
        W = energy_density_batch(model, F)
        assert np.array_equal(W, phi_split_batch(model, F, l1 * l2))
        assert np.array_equal(W, model.energy_from_stretches(l1, l2))

    def test_nonpositive_j_raises(self, model):
        with pytest.raises(NonpositiveJError):
            phi_split(model, F_IDENTITY, 0.0)
        with pytest.raises(NonpositiveJError):
            phi_split(model, F_IDENTITY, -1.0)


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
        assert np.all(th.second_derivative(J) > 0)
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
