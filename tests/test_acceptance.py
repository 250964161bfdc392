"""Acceptance suite: one test per release criterion, with stated budgets.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from memsurf import (
    boundary_winding,
    brouwer_degree,
    build_mesh,
    check_isotropy,
    check_perturbed_stress_bound,
    check_midpoint_convexity,
    check_negative_control,
    check_objectivity,
    check_stress_growth,
    first_variation_residual,
    initialize,
    injectivity_check,
    interpolate,
    minimize,
    rank_one_counterexample,
)
from memsurf.cli import main as cli_main
from memsurf.constitutive import (
    _spectral_planes,
    energy_density_batch,
    phi_split_batch,
    pk1_batch,
)
from memsurf.discretization import oriented_area_ratios
from memsurf.maps import make_initial_map
from memsurf import Plane, Sphere


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@pytest.fixture(scope="module")
def cap_state(model, sphere):
    """Shared converged sphere-cap run at the acceptance resolution."""
    mesh = build_mesh("disk", 0.05)
    f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
    t0 = time.perf_counter()
    cfg, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
    elapsed = time.perf_counter() - t0
    return mesh, f0, cfg, report, elapsed


def test_criterion_1_rank_one_convexity_failure(model):
    with criterion(1, "rank-one convexity failure with gap > 1e4, monotone in eps"):
        t0 = time.perf_counter()
        w = rank_one_counterexample(model, lam=1.0, mu=1.0, eps=0.1)
        assert w.W_plus == pytest.approx(4.0, abs=1e-12)
        assert w.W_minus == pytest.approx(4.0, abs=1e-12)
        assert w.W_bar > 0.5 * (w.W_plus + w.W_minus)
        assert w.gap > 1e4
        gaps = [
            rank_one_counterexample(model, 1.0, 1.0, e).gap
            for e in (0.2, 0.1, 0.05, 0.01)
        ]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_split_convexity_certificate(model):
    with criterion(2, "split convexity: 1e5 clean samples, negative control violated"):
        t0 = time.perf_counter()
        rep = check_midpoint_convexity(
            lambda F, J: phi_split_batch(model, F, J), n=100_000, seed=44
        )
        assert rep.details["violations"] == 0
        assert rep.passed
        neg = check_negative_control(n=100_000, seed=44)
        assert neg.details["violations"] >= 1
        assert neg.passed
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_objectivity_isotropy(model):
    with criterion(3, "objectivity and isotropy within 1e-9 over 1e3 samples"):
        rep_o = check_objectivity(model, n=1000, seed=42)
        rep_i = check_isotropy(model, n=1000, seed=43)
        assert rep_o.worst_violation <= 1e-9
        assert rep_i.worst_violation <= 1e-9


def test_criterion_4_stress_consistency(model):
    with criterion(4, "spectral PK1 matches finite differences; sigma = S F^T"):
        rng = np.random.default_rng(42)
        n = 1000
        U = np.linalg.qr(rng.standard_normal((n, 3, 3)))[0][:, :, :2]
        lam = np.exp(rng.uniform(np.log(0.05), np.log(10.0), (n, 2)))
        V = np.linalg.qr(rng.standard_normal((n, 2, 2)))[0]
        F = np.einsum("nik,nk,njk->nij", U, lam, V)
        S = pk1_batch(model, F)
        h = 1e-5 * np.maximum(1.0, np.linalg.norm(F, axis=(1, 2)))
        scale = 1.0 + np.abs(S).max(axis=(1, 2))
        for i in range(3):
            for j in range(2):
                Fp = F.copy()
                Fm = F.copy()
                Fp[:, i, j] += h
                Fm[:, i, j] -= h
                fd = (
                    energy_density_batch(model, Fp) - energy_density_batch(model, Fm)
                ) / (2 * h)
                assert np.max(np.abs(S[:, i, j] - fd) / scale) <= 1e-5
        kirchhoff = np.einsum("nij,nkj->nik", S, F)
        sym = np.abs(kirchhoff - np.swapaxes(kirchhoff, 1, 2)).max(axis=(1, 2))
        assert np.max(sym / (1.0 + np.abs(kirchhoff).max(axis=(1, 2)))) <= 1e-10
        # Cauchy relation J sigma = S F^T, with sigma built from the independent
        # spectral formula s1 d1 (x) d1 + s2 d2 (x) d2 over the stretch product.
        J = lam[:, 0] * lam[:, 1]
        l1, l2, _, _, d1, d2 = _spectral_planes(F)
        s1, s2 = model.scaled_stress_coefficients(l1, l2)
        tau = s1[:, None, None] * np.einsum("in,jn->nij", d1, d1) + s2[
            :, None, None
        ] * np.einsum("in,jn->nij", d2, d2)
        cauchy = tau / (l1 * l2)[:, None, None]
        lhs = J[:, None, None] * cauchy
        err = np.abs(lhs - kirchhoff).max(axis=(1, 2))
        assert np.all(err <= 1e-10 * (1.0 + np.abs(kirchhoff).max(axis=(1, 2))))


def test_criterion_5_stress_growth_bounds(model):
    with criterion(5, "stress growth bound with derived K; perturbed bound at delta 0.01"):
        rep = check_stress_growth(model, n=100_000, seed=45)
        assert rep.passed
        assert rep.empirical_constant <= rep.details["K_declared"]
        lem = check_perturbed_stress_bound(model, delta=0.01, n=10_000, seed=46)
        assert lem.passed
        K = model.stress_bound_constant()
        assert lem.details["C"] == pytest.approx(2 * K / (1 - 2 * K * 0.01), rel=1e-12)


def test_criterion_6_affine_dirichlet(model, plane):
    with criterion(6, "affine data: homogeneous minimizer, restarts never beat it"):
        t0 = time.perf_counter()
        A = np.array([[1.2, 0.0], [0.0, 0.9]])
        mesh = build_mesh("unit_square", 1.0 / 32.0)
        assert mesh.num_triangles == 2048
        WA = float(model.energy_from_stretches(1.2, 0.9))
        target_energy = mesh.total_area * WA
        f0 = make_initial_map(plane, "affine", matrix=A)
        cfg, report = minimize(model, plane, mesh, initialize(plane, mesh, f0))
        assert report.status == "converged"
        assert report.energy_history[-1] == pytest.approx(target_energy, rel=1e-6)
        target_nodes = plane.embed(mesh.vertices @ A.T)
        interior = mesh.interior_mask()
        assert np.abs(cfg[interior] - target_nodes[interior]).max() <= 1e-6
        e = report.energy_history
        assert all(b <= a for a, b in zip(e, e[1:]))

        rng = np.random.default_rng(123)
        base = target_nodes
        best_seen = np.inf
        restarts = 0
        while restarts < 20:
            pos = base.copy()
            pos[interior, :2] += (0.10 / 32.0) * rng.standard_normal(
                (int(interior.sum()), 2)
            )
            if np.min(oriented_area_ratios(mesh, plane, pos)) <= 1e-8:
                continue
            restarts += 1
            _, rep = minimize(model, plane, mesh, pos)
            run_min = min(rep.energy_history)
            best_seen = min(best_seen, run_min)
            e = rep.energy_history
            assert all(b <= a for a, b in zip(e, e[1:]))
        assert best_seen >= target_energy - 1e-10
        assert time.perf_counter() - t0 < 30.0


def test_criterion_7_sphere_cap_run(model, sphere, cap_state):
    with criterion(
        7, "sphere cap: converged, injective, degree 1 at 100 targets, small residuals"
    ):
        mesh, f0, cfg, report, solve_time = cap_state
        t0 = time.perf_counter()
        assert report.status == "converged"
        # The Sobolev-preconditioned L-BFGS needs 19 iterations here; the
        # iteration cap is a guard, far above any converging run.
        assert report.iterations <= 30
        assert report.min_j_history[-1] > 1e-8
        assert min(report.min_j_history) > 1e-8

        overlap = injectivity_check(sphere, mesh, cfg)
        assert overlap.injective
        assert overlap.overlapping_pairs == 0

        rng = np.random.default_rng(7)
        P = cfg[mesh.triangles]
        areas = np.abs(oriented_area_ratios(mesh, sphere, cfg)) * mesh.ref_area
        prob = areas / areas.sum()
        idx = rng.choice(len(prob), size=100, p=prob)
        w = rng.uniform(0.2, 0.6, size=(100, 3))
        w /= w.sum(axis=1, keepdims=True)
        targets = sphere.project(np.einsum("nv,nvi->ni", w, P[idx]))
        agree = 0
        for y in targets:
            res = brouwer_degree(sphere, mesh, cfg, y)
            assert res.degree == 1
            agree += int(res.methods_agree)
        assert agree >= 99

        grad_tol = report.grad_tol
        results = first_variation_residual(model, sphere, mesh, cfg, 12, seed=0)
        assert len(results) == 12
        for r in results:
            assert abs(r.lagrangian_residual) / r.normalization <= 10 * grad_tol
        total = solve_time + (time.perf_counter() - t0)
        assert total < 60.0


def test_criterion_8_degree_oracle_equivalence(plane):
    with criterion(8, "degree suite (-1, 1, 2) matches the boundary-winding oracle"):
        rng = np.random.default_rng(8)
        disk = build_mesh("disk", 0.12)
        annulus = build_mesh("annulus", 0.07, inner_radius=0.5, outer_radius=1.0)

        def doubled(x):
            r = np.linalg.norm(x, axis=1)
            th = np.arctan2(x[:, 1], x[:, 0])
            return plane.embed(
                np.column_stack([r * np.cos(2 * th), r * np.sin(2 * th)])
            )

        cases = [
            (disk, make_initial_map(plane, "identity"), lambda: rng.uniform(0.0, 0.85), 1),
            (
                disk,
                make_initial_map(
                    plane, "affine", matrix=np.array([[0.0, 1.0], [1.0, 0.0]])
                ),
                lambda: rng.uniform(0.0, 0.85),
                -1,
            ),
            (annulus, doubled, lambda: rng.uniform(0.58, 0.92), 2),
        ]
        for mesh, f0, rdraw, expected in cases:
            cfg = interpolate(plane, mesh, f0)
            for _ in range(15):
                ang = rng.uniform(0, 2 * np.pi)
                rr = rdraw()
                y = np.array([rr * np.cos(ang), rr * np.sin(ang), 0.0])
                res = brouwer_degree(plane, mesh, cfg, y)
                oracle = boundary_winding(plane, mesh, cfg, y)
                assert oracle == expected
                assert res.degree == oracle
                assert res.methods_agree
                assert round(res.mollified_integral) == oracle


def test_criterion_9_residual_identity(model, plane, sphere, cap_state):
    with criterion(9, "Lagrangian and Eulerian residuals agree to 1e-10 relative"):
        mesh_cap, f0_cap, cfg_cap, _, _ = cap_state
        configs = [(sphere, mesh_cap, cfg_cap)]
        configs.append((sphere, mesh_cap, interpolate(sphere, mesh_cap, f0_cap)))
        sq = build_mesh("unit_square", 0.1)
        A = np.array([[1.2, 0.0], [0.0, 0.9]])
        configs.append(
            (
                plane,
                sq,
                interpolate(plane, sq, make_initial_map(plane, "affine", matrix=A)),
            )
        )
        from memsurf import Torus

        torus = Torus(2.0, 0.5)
        tb = build_mesh("unit_square", 0.2)
        configs.append(
            (
                torus,
                tb,
                interpolate(torus, tb, make_initial_map(torus, "torus_band")),
            )
        )
        for surface, mesh, config in configs:
            for r in first_variation_residual(model, surface, mesh, config, 12, seed=9):
                assert abs(r.lagrangian_residual - r.eulerian_residual) <= 1e-10 * max(
                    r.normalization, 1e-30
                )


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "fixed seed reproduces bitwise-identical CSV outputs"):
        out = tmp_path / "run"
        cfg = tmp_path / "cap.yaml"
        cfg.write_text(
            f"""
surface: {{kind: sphere, radius: 1.0}}
domain: {{kind: disk, resolution: 0.2}}
initial_map: {{kind: stereographic_cap, latitude: 1.0471975511965976}}
minimize: {{grad_tol: 1.0e-06}}
diagnostics: {{injectivity: true, degree_points: 25, residual_fields: 12}}
output_dir: "{out}"
seed: 42
"""
        )
        csvs = ("energy_history.csv", "degree.csv", "residuals.csv", "verify_summary.csv")
        assert cli_main(["minimize", str(cfg)]) == 0
        assert cli_main(["verify", str(cfg)]) == 0
        first = {name: (out / name).read_bytes() for name in csvs}
        assert cli_main(["minimize", str(cfg)]) == 0
        assert cli_main(["verify", str(cfg)]) == 0
        for name in csvs:
            assert (out / name).read_bytes() == first[name]
