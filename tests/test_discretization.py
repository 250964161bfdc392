import numpy as np
import pytest

from memsurf import (
    OffSurfaceError,
    build_mesh,
    energy_gradient,
    interpolate,
)
import memsurf.constitutive as constitutive_module
from memsurf.constitutive import pk1_batch
from memsurf.discretization import (
    _kinematics,
    oriented_area_ratios,
    trial_energy,
)
from memsurf.maps import make_initial_map
from memsurf import Plane, Sphere, Torus

F_ID = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def identity_config(plane, mesh):
    return interpolate(plane, mesh, make_initial_map(plane, "identity"))


def energy(model, mesh, surface, cfg):
    """Total stored energy of a feasible configuration via ``trial_energy``."""
    E, _, feasible, _ = trial_energy(model, mesh, surface, cfg)
    assert feasible
    return E


def element_gradients(mesh, surface, cfg):
    """Per-element deformation gradients F (m, 3, 2) of ``cfg``."""
    return _kinematics(mesh, surface, cfg)[0]


def gradient(model, mesh, surface, cfg):
    """Assembled energy gradient at ``cfg`` from its deformation gradients."""
    return energy_gradient(model, mesh, element_gradients(mesh, surface, cfg))


class TestElementKinematics:
    def test_identity_gradients(self, plane, square_mesh):
        cfg = identity_config(plane, square_mesh)
        F = element_gradients(square_mesh, plane, cfg)
        assert np.abs(F - F_ID).max() < 1e-14
        J = oriented_area_ratios(square_mesh, plane, cfg)
        assert np.abs(J - 1.0).max() < 1e-14

    def test_uniform_dilation(self, model, plane, square_mesh):
        cfg = interpolate(
            plane, square_mesh, make_initial_map(plane, "affine", matrix=2 * np.eye(2))
        )
        F = element_gradients(square_mesh, plane, cfg)
        assert np.abs(F - 2 * F_ID).max() < 1e-14
        J = oriented_area_ratios(square_mesh, plane, cfg)
        assert np.abs(J - 4.0).max() < 1e-14

    def test_reflection_flips_sign(self, plane, square_mesh):
        cfg = interpolate(
            plane,
            square_mesh,
            make_initial_map(plane, "affine", matrix=np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        J = oriented_area_ratios(square_mesh, plane, cfg)
        assert np.all(J < 0)
        assert np.abs(np.abs(J) - 1.0).max() < 1e-14

    def test_area_ratio_vs_stretch_product(self, model, sphere):
        disk = build_mesh("disk", 0.2)
        cfg = interpolate(
            sphere, disk, make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        )
        from memsurf.constitutive import _stretches

        F = element_gradients(disk, sphere, cfg)
        J = oriented_area_ratios(disk, sphere, cfg)
        l1, l2 = _stretches(F)
        cross_mag = np.linalg.norm(np.cross(F[:, :, 0], F[:, :, 1]), axis=1)
        # |f_,1 x f_,2| equals the stretch product exactly; the oriented J
        # chordally undershoots it on a curved surface.
        assert np.abs(cross_mag - l1 * l2).max() < 1e-10
        assert np.all(J <= l1 * l2 + 1e-14)

    def test_off_surface_map_rejected(self, sphere, square_mesh):
        with pytest.raises(OffSurfaceError):
            interpolate(
                sphere, square_mesh, lambda x: np.column_stack([x, np.ones(len(x))])
            )

    def test_nan_row_is_off_surface(self, sphere):
        disk = build_mesh("disk", 0.2)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)

        def f0_with_nan(x):
            pos = f0(x)
            pos[3] = np.nan
            return pos

        with pytest.raises(OffSurfaceError):
            interpolate(sphere, disk, f0_with_nan)

    def test_nan_node_is_infeasible(self, model, plane, square_mesh):
        cfg = identity_config(plane, square_mesh)
        cfg[np.flatnonzero(square_mesh.interior_mask())[0]] = np.nan
        energy, min_j, feasible, _ = trial_energy(model, square_mesh, plane, cfg)
        assert not feasible and energy == np.inf and np.isnan(min_j)

    def test_failed_centroid_projection_is_infeasible(self, model, sphere, square_mesh):
        # Every centroid at the sphere center: the projection is ambiguous.
        origin = np.zeros((square_mesh.num_vertices, 3))
        energy, min_j, feasible, F = trial_energy(model, square_mesh, sphere, origin)
        assert not feasible and energy == np.inf and np.isnan(min_j)
        assert F is None

    def test_trial_returns_its_gradients(self, model, plane, sphere, square_mesh):
        cfg = identity_config(plane, square_mesh)
        F = element_gradients(square_mesh, plane, cfg)
        _, _, _, F_trial = trial_energy(model, square_mesh, plane, cfg)
        assert np.array_equal(F_trial, F)
        # A trial rejected at the floor (here an inverted, reversed-affine
        # configuration) still hands back the F it formed.
        inverted = interpolate(
            plane,
            square_mesh,
            make_initial_map(plane, "affine", matrix=np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        _, min_j, feasible, F_rejected = trial_energy(model, square_mesh, plane, inverted)
        assert not feasible and min_j < 0
        assert np.array_equal(F_rejected, element_gradients(square_mesh, plane, inverted))
        disk = build_mesh("disk", 0.2)
        cap = interpolate(
            sphere, disk, make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        )
        _, min_j, feasible, F = trial_energy(model, disk, sphere, cap)
        assert feasible and np.array_equal(F, element_gradients(disk, sphere, cap))
        assert min_j == float(np.min(oriented_area_ratios(disk, sphere, cap)))

    def test_trial_forms_no_eigenvectors(self, model, plane, sphere, square_mesh, monkeypatch):
        # The energy of a trial, accepted or rejected, comes from the
        # stretches alone; its bits are those of the spectral stretches.
        disk = build_mesh("disk", 0.2)
        cap = interpolate(
            sphere, disk, make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        )
        F = element_gradients(disk, sphere, cap)
        l1, l2, *_ = constitutive_module._spectral_planes(F)
        expected = float(np.sum(disk.ref_area * model.energy_from_stretches(l1, l2)))
        inverted = interpolate(
            plane,
            square_mesh,
            make_initial_map(plane, "affine", matrix=np.array([[0.0, 1.0], [1.0, 0.0]])),
        )

        def forbidden(F):
            raise AssertionError("a trial formed eigenvectors")

        monkeypatch.setattr(constitutive_module, "_spectral_planes", forbidden)
        energy, _, feasible, _ = trial_energy(model, disk, sphere, cap)
        assert feasible and energy == expected
        assert not trial_energy(model, square_mesh, plane, inverted)[2]

    def test_degenerate_flag(self, model, plane, square_mesh):
        cfg = identity_config(plane, square_mesh)
        assert trial_energy(model, square_mesh, plane, cfg)[2]
        squeezed = interpolate(
            plane,
            square_mesh,
            make_initial_map(plane, "affine", matrix=np.diag([1.0, 1e-9])),
        )
        assert not trial_energy(model, square_mesh, plane, squeezed)[2]


class TestTotalEnergy:
    def test_identity_energy(self, model, plane, square_mesh):
        cfg = identity_config(plane, square_mesh)
        assert energy(model, square_mesh, plane, cfg) == pytest.approx(4.0, abs=1e-12)

    def test_affine_exactness_any_mesh(self, model, plane):
        A = np.array([[1.2, 0.3], [-0.1, 0.9]])
        lam = np.sqrt(np.linalg.eigvalsh(A.T @ A))
        WA = float(model.energy_from_stretches(lam[1], lam[0]))
        for mesh in (build_mesh("unit_square", 0.5), build_mesh("unit_square", 0.11)):
            cfg = interpolate(plane, mesh, make_initial_map(plane, "affine", matrix=A))
            E = energy(model, mesh, plane, cfg)
            assert E == pytest.approx(mesh.total_area * WA, rel=1e-12)

    def test_sphere_cap_refinement_convergence(self, model, sphere):
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        coarse = build_mesh("disk", 0.2)
        fine = build_mesh("disk", 0.02)
        e_coarse = energy(model, coarse, sphere, interpolate(sphere, coarse, f0))
        e_fine = energy(model, fine, sphere, interpolate(sphere, fine, f0))
        assert abs(e_coarse - e_fine) / abs(e_fine) < 0.02


class TestEnergyGradient:
    def test_zero_at_stress_free_identity(self, model, plane, square_mesh):
        cfg = identity_config(plane, square_mesh)
        g = gradient(model, square_mesh, plane, cfg)
        assert np.abs(g).max() < 1e-13

    def test_scatter_matches_add_at(self, model, sphere):
        disk = build_mesh("disk", 0.2)
        cap = interpolate(
            sphere, disk, make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        )
        F = element_gradients(disk, sphere, cap)
        # Reference: the same per-element rows A_t S_t g_{t,v}, summed per
        # node with np.add.at.
        SA = disk.ref_area[:, None, None] * pk1_batch(model, F)
        G = disk.shape_grads
        rows = G[:, :, None, 0] * SA[:, None, :, 0] + G[:, :, None, 1] * SA[:, None, :, 1]
        reference = np.zeros((disk.num_vertices, 3))
        np.add.at(reference, disk.triangles, rows)
        assert np.array_equal(energy_gradient(model, disk, F), reference)

    @pytest.mark.parametrize("surface_kind", ["plane", "sphere", "torus"])
    def test_matches_finite_differences(self, model, surface_kind):
        rng = np.random.default_rng(11)
        if surface_kind == "plane":
            surf = Plane()
            mesh = build_mesh("unit_square", 0.25)
            f0 = make_initial_map(
                surf, "affine", matrix=np.array([[1.1, 0.2], [0.0, 0.9]])
            )
        elif surface_kind == "sphere":
            surf = Sphere(1.0)
            mesh = build_mesh("disk", 0.25)
            f0 = make_initial_map(surf, "stereographic_cap", latitude=np.pi / 3)
        else:
            surf = Torus(2.0, 0.5)
            mesh = build_mesh("unit_square", 0.25)
            f0 = make_initial_map(surf, "torus_band")
        base = interpolate(surf, mesh, f0)
        h = 1e-6
        worst = 0.0
        # 20 random feasible states per surface, tangentially perturbed.
        for _ in range(20):
            bump = 0.02 * surf.curvature_radius * rng.standard_normal(base.shape)
            cfg = surf.project(base + surf.tangent_project_unchecked(base, bump))
            _, _, feasible, F = trial_energy(model, mesh, surf, cfg)
            if not feasible:
                continue
            g = energy_gradient(model, mesh, F)
            for _ in range(4):
                i = int(rng.integers(0, mesh.num_vertices))
                d = rng.standard_normal(3)
                d /= np.linalg.norm(d)
                pp = cfg.copy()
                pm = cfg.copy()
                pp[i] += h * d
                pm[i] -= h * d
                ep, _, okp, _ = trial_energy(model, mesh, surf, pp)
                em, _, okm, _ = trial_energy(model, mesh, surf, pm)
                assert okp and okm
                fd = (ep - em) / (2 * h)
                an = float(g[i] @ d)
                worst = max(worst, abs(fd - an) / (1.0 + abs(an)))
        assert worst < 1e-5

    def test_rotation_invariant_norm(self, model, plane, square_mesh):
        A = np.array([[1.2, 0.0], [0.0, 0.9]])
        f0 = make_initial_map(plane, "affine", matrix=A)
        cfg = interpolate(plane, square_mesh, f0)
        rng = np.random.default_rng(12)
        cfg[square_mesh.interior_mask()] += 0.02 * plane.tangent_project_unchecked(
            cfg[square_mesh.interior_mask()],
            rng.standard_normal((int(square_mesh.interior_mask().sum()), 3)),
        )
        g1 = gradient(model, square_mesh, plane, cfg)
        ang = 0.7
        Q = np.array(
            [
                [np.cos(ang), -np.sin(ang), 0.0],
                [np.sin(ang), np.cos(ang), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        rotated = cfg @ Q.T
        g2 = gradient(model, square_mesh, plane, rotated)
        assert np.linalg.norm(g1) == pytest.approx(np.linalg.norm(g2), rel=1e-10)

    def test_mirror_negates_j(self, plane, square_mesh):
        # x -> -x reverses the orientation against the fixed normal +e3, and
        # every J it gives is the negated J of the unmirrored map, bit for bit.
        A = np.array([[1.1, 0.2], [0.0, 0.9]])
        cfg = interpolate(plane, square_mesh, make_initial_map(plane, "affine", matrix=A))
        J = oriented_area_ratios(square_mesh, plane, cfg)
        mirrored = oriented_area_ratios(square_mesh, plane, cfg * [-1.0, 1.0, 1.0])
        assert np.all(J > 0)
        assert mirrored.tobytes() == (-J).tobytes()
