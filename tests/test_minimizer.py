import math

import numpy as np
import pytest

from conftest import outputs_at_blas_threads
from memsurf import (
    InfeasibleStartError,
    Sphere,
    TriMesh,
    build_mesh,
    initialize,
    interpolate,
    minimize,
)
from memsurf.discretization import (
    J_FLOOR,
    _dot,
    _kinematics,
    energy_gradient,
    oriented_area_ratios,
    trial_energy,
)
from memsurf.maps import make_initial_map
from memsurf.errors import AmbiguousProjectionError
import memsurf.minimizer as minimizer_module
from memsurf.minimizer import LBFGS_MEMORY, _curvature_step, _lbfgs_direction
from memsurf.stiffness import StiffnessSolver
from test_stiffness import _dense_stiffness


class TestInitialize:
    def test_plane_identity_feasible(self, plane, square_mesh):
        cfg = initialize(plane, square_mesh, make_initial_map(plane, "identity"))
        assert cfg.shape == (square_mesh.num_vertices, 3)

    def test_stereographic_cap_feasible(self, sphere):
        disk = build_mesh("disk", 0.2)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        cfg = initialize(sphere, disk, f0)
        assert np.all(oriented_area_ratios(disk, sphere, cfg) > 1e-8)

    def test_collapsed_triangle_infeasible(self, plane, square_mesh):
        def collapse(x):
            y = plane.embed(np.atleast_2d(x))
            y[0] = y[1]
            return y

        with pytest.raises(InfeasibleStartError) as err:
            initialize(plane, square_mesh, collapse)
        assert len(err.value.elements) >= 1

    def test_reversed_affine_infeasible(self, model, plane, square_mesh):
        f0 = make_initial_map(
            plane, "affine", matrix=np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        with pytest.raises(InfeasibleStartError) as err:
            initialize(plane, square_mesh, f0)
        assert len(err.value.elements) == square_mesh.num_triangles
        # minimize checks its start positions against the same floor.
        with pytest.raises(InfeasibleStartError) as err:
            minimize(model, plane, square_mesh, interpolate(plane, square_mesh, f0))
        assert len(err.value.elements) == square_mesh.num_triangles


    def test_centroid_without_closest_point_is_infeasible(self, model):
        # Element 0 is a chord triangle through the sphere's center, where
        # its centroid has no closest point; trial_energy counts it
        # infeasible, and so do both entry points.
        sphere = Sphere(1.0)
        s = math.sqrt(3.0) / 2.0
        images = np.array([[1.0, 0.0, 0.0], [-0.5, s, 0.0], [-0.5, -s, 0.0], [0.0, 0.0, -1.0]])
        mesh = TriMesh.from_arrays(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[0, 1, 2], [1, 3, 2]]
        )
        assert not trial_energy(model, mesh, sphere, images)[2]
        with pytest.raises(InfeasibleStartError, match="no closest point") as err:
            initialize(sphere, mesh, lambda x: images)
        assert err.value.elements == [0]
        with pytest.raises(InfeasibleStartError, match="no closest point") as err:
            minimize(model, sphere, mesh, images)
        assert err.value.elements == [0]


class TestOptions:
    @pytest.mark.parametrize("grad_tol", [0.0, -1e-5, np.inf, np.nan, True, np.True_, "0.1"])
    def test_validation(self, model, plane, square_mesh, grad_tol):
        identity = initialize(plane, square_mesh, make_initial_map(plane, "identity"))
        with pytest.raises(ValueError, match="grad_tol must be finite and positive"):
            minimize(model, plane, square_mesh, identity, grad_tol)

    def test_default_grad_tol_scales_with_area(self, model, plane, square_mesh):
        identity = initialize(plane, square_mesh, make_initial_map(plane, "identity"))
        _, report = minimize(model, plane, square_mesh, identity)
        assert report.grad_tol == pytest.approx(1e-7 * square_mesh.total_area)
        _, report = minimize(model, plane, square_mesh, identity, grad_tol=1e-5)
        assert report.grad_tol == 1e-5


class TestMinimizePlane:
    def test_identity_converges_immediately(self, model, plane, square_mesh):
        identity = initialize(plane, square_mesh, make_initial_map(plane, "identity"))
        cfg, report = minimize(model, plane, square_mesh, identity)
        assert report.status == "converged"
        assert report.iterations <= 1
        assert report.energy_history[-1] == pytest.approx(4.0, abs=1e-12)
        ident = plane.embed(square_mesh.vertices)
        assert np.abs(cfg - ident).max() < 1e-10

    def test_converged_start_without_iterations(
        self, model, plane, square_mesh, monkeypatch
    ):
        # The gradient of the last iterate is checked against the tolerance
        # even when no iteration is left.
        monkeypatch.setattr(minimizer_module, "MAX_ITER", 0)
        identity = initialize(plane, square_mesh, make_initial_map(plane, "identity"))
        _, report = minimize(model, plane, square_mesh, identity)
        assert report.status == "converged"
        assert report.iterations == 0
        assert len(report.grad_history) == 1 and not report.step_history

    def test_affine_data_homogeneous_minimizer(self, model, plane):
        A = np.array([[1.2, 0.0], [0.0, 0.9]])
        mesh = build_mesh("unit_square", 0.2)
        f0 = make_initial_map(plane, "affine", matrix=A)
        cfg, report = minimize(model, plane, mesh, initialize(plane, mesh, f0))
        WA = float(model.energy_from_stretches(1.2, 0.9))
        assert report.status == "converged"
        assert report.energy_history[-1] == pytest.approx(WA, rel=1e-6)
        target = plane.embed(mesh.vertices @ A.T)
        assert np.abs(cfg - target).max() < 1e-6

    def test_perturbed_start_recovers_homogeneous_energy(self, model, plane):
        A = np.array([[1.2, 0.0], [0.0, 0.9]])
        mesh = build_mesh("unit_square", 0.1)
        WA = float(model.energy_from_stretches(1.2, 0.9))
        rng = np.random.default_rng(17)
        interior = mesh.interior_mask()
        start = plane.embed(mesh.vertices @ A.T)
        start[interior, :2] += 0.012 * rng.standard_normal((int(interior.sum()), 2))

        cfg, report = minimize(model, plane, mesh, start)
        assert report.energy_history[0] > WA
        assert report.energy_history[-1] == pytest.approx(WA, rel=1e-8)
        # Homogeneous-state optimality: no iterate ever beats the bound.
        assert min(report.energy_history) >= WA * mesh.total_area - 1e-10


@pytest.fixture(scope="module")
def cap_run(model, sphere):
    mesh = build_mesh("disk", 0.12)
    f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
    cfg, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
    return mesh, f0, cfg, report


class TestReportInvariants:
    def test_sphere_cap_converges(self, cap_run, sphere):
        mesh, f0, cfg, report = cap_run
        assert report.status == "converged"
        assert report.grad_history[-1] <= 1e-7 * mesh.total_area
        assert report.min_j_history[-1] > 1e-8

    def test_energy_history_monotone(self, cap_run):
        _, _, _, report = cap_run
        e = report.energy_history
        assert all(b <= a for a, b in zip(e, e[1:]))

    def test_min_j_positive_along_run(self, cap_run):
        _, _, _, report = cap_run
        assert all(j > 1e-8 for j in report.min_j_history)

    def test_history_lengths_consistent(self, cap_run):
        _, _, _, report = cap_run
        assert len(report.energy_history) == report.iterations + 1
        assert len(report.grad_history) == report.iterations + 1
        assert len(report.min_j_history) == report.iterations + 1
        assert len(report.step_history) == report.iterations
        assert len(report.backtracks) == report.iterations
        assert len(report.infeasible_trials) == report.iterations
        assert len(report.projection_failures) == report.iterations

    def test_about_one_trial_per_iteration(self, cap_run):
        # L-BFGS directions are well scaled, so the unit step is nearly
        # always accepted; a deterministic count, not a timing.
        _, _, _, report = cap_run
        assert report.trials == report.iterations + sum(report.backtracks)
        assert report.trials <= 1.3 * report.iterations

    def test_boundary_nodes_pinned_bitwise(self, model, sphere, cap_run):
        mesh, f0, cfg, _ = cap_run
        expected = np.asarray(f0(mesh.vertices))
        b = mesh.boundary_vertices
        assert np.array_equal(cfg[b], expected[b])

    def test_nodes_stay_on_surface(self, sphere, cap_run):
        _, _, cfg, _ = cap_run
        assert np.max(sphere.distance(cfg)) <= sphere.on_surface_tol

    def test_final_energy_not_above_start(self, model, sphere, cap_run):
        mesh, f0, cfg, report = cap_run
        start = interpolate(sphere, mesh, f0)
        assert report.energy_history[-1] <= trial_energy(model, mesh, sphere, start)[0]
        assert trial_energy(model, mesh, sphere, cfg)[0] == pytest.approx(
            report.energy_history[-1], rel=1e-12
        )


class TestCurvatureMemory:
    """Each curvature pair is stored once, as it was measured, and never changed."""

    def test_pairs_kept_as_measured(self, model, sphere, monkeypatch):
        mesh = build_mesh("disk", 0.12)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        calls = []
        lbfgs_direction = minimizer_module._lbfgs_direction

        def direction(g, s, y, *rest):
            d, kept_s, kept_y, kept_sks = lbfgs_direction(g, s, y, *rest)
            calls.append((g, s, y, len(kept_s)))
            return d, kept_s, kept_y, kept_sks

        monkeypatch.setattr(minimizer_module, "_lbfgs_direction", direction)
        _, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
        assert report.status == "converged"
        # Every iteration but the first and the converged last takes one.
        assert len(calls) == report.iterations - 1
        checked = 0
        for (g0, s0, y0, kept), (g1, s1, y1, _) in zip(calls, calls[1:]):
            # The new y is the difference of the two tangent gradients.
            assert np.array_equal(y1[-1], g1 - g0)
            if kept == len(s0) and len(s1) > 1:
                # Nothing dropped or cleared: the rows kept come back bit for
                # bit, with the new pair last.
                old = len(s0) + 1 - len(s1)
                assert np.array_equal(s1[:-1], s0[old:])
                assert np.array_equal(y1[:-1], y0[old:])
                checked += 1
        assert checked >= LBFGS_MEMORY

    def test_pair_curvature_is_the_stiffness_norm_of_the_step(self, model, sphere, monkeypatch):
        # The s.Ks that scales H0 is taken from the two iterates' F; it is
        # the K-norm of the step, with K the dense stiffness of the free nodes.
        mesh = build_mesh("disk", 0.12)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        calls = []
        lbfgs_direction = minimizer_module._lbfgs_direction

        def direction(g, s, y, sks, solve):
            out = lbfgs_direction(g, s, y, sks, solve)
            calls.append(((s, y, sks), out[1:]))
            return out

        monkeypatch.setattr(minimizer_module, "_lbfgs_direction", direction)
        _, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
        assert report.status == "converged"
        assert len(calls) == report.iterations - 1
        K = _dense_stiffness(mesh)
        # The memory passed in, and the memory kept.
        for s, y, sks in (memory for call in calls for memory in call):
            assert len(s) == len(y) == len(sks)
            for step, got in zip(s, sks):
                want = np.einsum("ic,ic->", step, K @ step)
                assert abs(got - want) <= 1e-9 * want


def _recomputed_grad_norm(model, surface, mesh, cfg):
    """Free-row tangent gradient norm recomputed from the positions alone."""
    grad = energy_gradient(model, mesh, _kinematics(mesh, surface, cfg)[0])
    free = mesh.interior_mask()
    gt = surface.tangent_project_unchecked(cfg[free], grad[free])
    return math.sqrt(_dot(gt, gt))


class TestAcceptedStateHandoff:
    """The reported final gradient and min J belong to the final positions."""

    @pytest.mark.parametrize("max_iter", [10, 5000])
    def test_last_history_entries_match_final_positions(
        self, model, sphere, max_iter, monkeypatch
    ):
        mesh = build_mesh("disk", 0.2)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        monkeypatch.setattr(minimizer_module, "MAX_ITER", max_iter)
        cfg, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
        assert report.status == ("max_iter" if max_iter == 10 else "converged")
        assert report.grad_history[-1] == _recomputed_grad_norm(
            model, sphere, mesh, cfg
        )
        assert report.min_j_history[-1] == float(
            np.min(oriented_area_ratios(mesh, sphere, cfg))
        )


class TestRejectedTrials:
    def test_failed_trial_projection_backtracks(self, model, monkeypatch):
        # The first retractions of the first line search fail (injected, as
        # for a trial on the medial axis); each is a rejected trial, not fatal.
        sphere = Sphere(1.0)  # of its own, since its projection is patched
        mesh = build_mesh("disk", 0.2)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        project = sphere.project
        line_search = minimizer_module._line_search
        searching = []
        failed = []

        def flaky(p):
            # A failed retraction skips the trial's centroid projection, so
            # the first calls inside the line search are all retractions.
            if searching and len(failed) < 5:
                failed.append(len(p))
                raise AmbiguousProjectionError("trial retraction failed")
            return project(p)

        def searched(*args):
            searching.append(True)
            return line_search(*args)

        monkeypatch.setattr(sphere, "project", flaky)
        monkeypatch.setattr(minimizer_module, "_line_search", searched)
        cfg, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
        assert report.status == "converged"
        e = report.energy_history
        assert all(b <= a for a, b in zip(e, e[1:]))
        b = mesh.boundary_vertices
        assert np.array_equal(cfg[b], f0(mesh.vertices)[b])
        assert failed == [int(mesh.interior_mask().sum())] * 5
        assert report.projection_failures[0] == 5
        assert sum(report.projection_failures) == 5


class TestLineSearchFailure:
    """A failed line search is retried once without the curvature memory; a
    failed retry, or a failure with no memory to clear, stalls the run, which
    returns the last accepted iterate and its report."""

    @staticmethod
    def _patched(monkeypatch, fails):
        """Record every ``_line_search`` call as (direction, counts after it);
        the calls whose 1-based number ``fails`` accepts reject three trials
        at the J floor and give up."""
        line_search = minimizer_module._line_search
        calls = []

        def search(model, mesh, surface, free, positions, energy, g, d, counts):
            if fails(len(calls) + 1):
                counts["backtracks"] += 3
                counts["infeasible_trials"] += 3
                found = None
            else:
                found = line_search(model, mesh, surface, free, positions, energy, g, d, counts)
            calls.append((d, g, positions[free], dict(counts)))
            return found

        monkeypatch.setattr(minimizer_module, "_line_search", search)
        return calls

    def test_failure_with_memory_retries_along_preconditioned_gradient(
        self, model, sphere, monkeypatch
    ):
        mesh = build_mesh("disk", 0.12)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        memory = []
        lbfgs_direction = minimizer_module._lbfgs_direction

        def direction(gt, mem_s, *rest):
            memory.append(len(mem_s))
            return lbfgs_direction(gt, mem_s, *rest)

        monkeypatch.setattr(minimizer_module, "_lbfgs_direction", direction)
        # Call 2 is iteration 1's search, the first with a curvature pair.
        calls = self._patched(monkeypatch, lambda call: call == 2)
        cfg, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
        assert report.status == "converged"
        e = report.energy_history
        assert all(b <= a for a, b in zip(e, e[1:]))
        assert len(calls) == report.iterations + 1
        # The retry searched along -P K^-1 g_T, and iteration 2 held only
        # the pair of the step it found.
        d, g, x, counts = calls[2]
        free = mesh.interior_mask()
        solve = StiffnessSolver(mesh).solve
        assert np.array_equal(d, -sphere.tangent_project_unchecked(x, solve(g)))
        assert memory[:2] == [1, 1]
        # Iteration 1's counters hold the failed search's rejections and the retry's.
        assert report.backtracks[1] == counts["backtracks"] >= 3
        assert report.infeasible_trials[1] == counts["infeasible_trials"] >= 3
        assert report.trials == report.iterations + sum(report.backtracks)
        assert np.array_equal(cfg[~free], f0(mesh.vertices)[~free])

    @staticmethod
    def _check_stalled(model, sphere, mesh, start, cfg, report, calls):
        """The stalled run's report and positions end at the last accepted iterate."""
        assert report.status == "stalled"
        assert len(report.energy_history) == len(report.grad_history) == report.iterations + 1
        e = report.energy_history
        assert all(b <= a for a, b in zip(e, e[1:]))
        # The failed search started from the last accepted iterate.
        free = mesh.interior_mask()
        assert np.array_equal(cfg[free], calls[-1][2])
        assert np.array_equal(cfg[~free], start[~free])
        assert trial_energy(model, mesh, sphere, cfg)[0] == e[-1]

    def test_failed_retry_stalls(self, model, sphere, monkeypatch):
        mesh = build_mesh("disk", 0.2)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        start = initialize(sphere, mesh, f0)
        calls = self._patched(monkeypatch, lambda call: call > 1)
        cfg, report = minimize(model, sphere, mesh, start)
        assert len(calls) == 3          # iteration 0, then iteration 1 and its retry
        assert report.iterations == 1
        self._check_stalled(model, sphere, mesh, start, cfg, report, calls)

    def test_failure_without_memory_stalls(self, model, sphere, monkeypatch):
        mesh = build_mesh("disk", 0.2)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        start = initialize(sphere, mesh, f0)
        calls = self._patched(monkeypatch, lambda call: True)
        cfg, report = minimize(model, sphere, mesh, start)
        assert len(calls) == 1
        assert report.iterations == 0
        self._check_stalled(model, sphere, mesh, start, cfg, report, calls)
        assert np.array_equal(cfg, start)

    def test_stall_counts_every_trial(self, model, sphere, monkeypatch):
        # A tolerance below the energy's float64 noise floor stalls the run
        # unpatched; the trials its failed search and retry rejected count too.
        mesh = build_mesh("disk", 0.3)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        start = initialize(sphere, mesh, f0)
        evaluations = []
        evaluate = minimizer_module.trial_energy

        def counted(*args):
            evaluations.append(args)
            return evaluate(*args)

        monkeypatch.setattr(minimizer_module, "trial_energy", counted)
        _, report = minimize(model, sphere, mesh, start, grad_tol=1e-300)
        assert report.status == "stalled"
        assert sum(report.projection_failures) == 0    # every trial was evaluated
        # Every evaluation but the start's is a trial, most of them rejected
        # by the failed search and its retry.
        assert report.trials == len(evaluations) - 1
        assert len(report.backtracks) == len(report.step_history) + 1 == report.iterations + 1
        assert report.backtracks[-1] > 0

    @staticmethod
    def _plane_state(model, plane):
        mesh = build_mesh("unit_square", 0.25)
        free = mesh.interior_mask()
        positions = interpolate(plane, mesh, make_initial_map(plane, "identity"))
        positions[free, :2] += 0.01
        return mesh, free, positions, trial_energy(model, mesh, plane, positions)[0]

    def test_direction_below_float_resolution(self, model, plane, monkeypatch):
        # No trial moves a node, so none is evaluated.
        mesh, free, positions, energy = self._plane_state(model, plane)
        d = np.zeros((int(free.sum()), 3))
        d[:, :2] = 1e-300
        evaluated = []
        monkeypatch.setattr(
            minimizer_module, "trial_energy", lambda *args: evaluated.append(args)
        )
        counts = dict.fromkeys(("backtracks", "infeasible_trials", "projection_failures"), 0)
        found = minimizer_module._line_search(
            model, mesh, plane, free, positions, energy, -d, d, counts
        )
        assert found is None
        assert evaluated == []
        assert set(counts.values()) == {0}

    def test_step_underflow(self, model, plane, monkeypatch):
        # Every trial is rejected at the J floor until the step underflows.
        mesh, free, positions, energy = self._plane_state(model, plane)
        d = np.zeros((int(free.sum()), 3))
        d[:, :2] = 1e3
        monkeypatch.setattr(
            minimizer_module, "trial_energy", lambda *args: (0.0, 0.0, False, "F")
        )
        counts = dict.fromkeys(("backtracks", "infeasible_trials", "projection_failures"), 0)
        found = minimizer_module._line_search(
            model, mesh, plane, free, positions, energy, -d, d, counts
        )
        assert found is None
        # Steps 2^-k for k = 0, ..., 53: the first below STEP_UNDERFLOW is 2^-54.
        assert 2.0**-53 >= minimizer_module.STEP_UNDERFLOW > 2.0**-54
        assert counts == {"backtracks": 54, "infeasible_trials": 54, "projection_failures": 0}


class TestCurvatureStep:
    """The first step minimizes the energy's quadratic model along d."""

    @pytest.fixture
    def cap_start(self, model):
        # A sphere of its own, since a test patches its projection.
        sphere = Sphere(1.0)
        mesh = build_mesh("disk", 0.2)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        positions = interpolate(sphere, mesh, f0)
        free = mesh.interior_mask()
        _, _, _, F = trial_energy(model, mesh, sphere, positions)
        grad = energy_gradient(model, mesh, F)[free]
        g = sphere.tangent_project_unchecked(positions[free], grad)
        return sphere, mesh, free, positions, g

    def test_matches_central_difference_curvature(self, model, cap_start):
        sphere, mesh, free, positions, g = cap_start
        d = -g
        step = _curvature_step(model, mesh, sphere, free, positions, g, d)

        def energy_along(t):
            moved = positions.copy()
            moved[free] = sphere.project(positions[free] + t * d)
            return trial_energy(model, mesh, sphere, moved)[0]

        h = 1e-4
        curvature = (energy_along(h) - 2 * energy_along(0.0) + energy_along(-h)) / h**2
        expected = -float(np.vdot(g, d)) / curvature
        assert step == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("failing_call", [1, 2], ids=["retraction", "centroids"])
    def test_failed_probe_projection_gives_unit_step(
        self, model, cap_start, monkeypatch, failing_call
    ):
        # The probe's retraction calls ``project``; its element centroids
        # are projected by ``projected_normal``.
        sphere, mesh, free, positions, g = cap_start
        calls = []

        def flaky(method):
            def call(p):
                calls.append(len(p))
                if len(calls) == failing_call:
                    raise AmbiguousProjectionError("probe projection failed")
                return method(p)

            return call

        monkeypatch.setattr(sphere, "project", flaky(sphere.project))
        monkeypatch.setattr(sphere, "projected_normal", flaky(sphere.projected_normal))
        assert _curvature_step(model, mesh, sphere, free, positions, g, -g) == 1.0
        assert len(calls) == failing_call


def _identity(v):
    return v


class TestLbfgsDirection:
    """The two-loop recursion on plain vectors, with K = I and P = I."""

    def test_no_pairs_is_steepest_descent(self):
        g = np.array([1.0, -2.0, 0.5])
        d, s, y, sks = _lbfgs_direction(
            g, np.empty((0, 3)), np.empty((0, 3)), np.empty(0), _identity
        )
        assert np.array_equal(d, -g) and len(s) == len(y) == len(sks) == 0

    def test_pair_without_positive_curvature_is_dropped(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(4)
        good_s, good_y = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        good_y += 3.0 * good_s                   # s.y > 0 for both
        good_sks = np.einsum("ki,ki->k", good_s, good_s)   # s.Ks with K = I
        bad_s = rng.standard_normal(4)
        for bad_y in (-bad_s, np.zeros(4)):      # s.y < 0, then s.y = 0
            s = np.stack([good_s[0], bad_s, good_s[1]])
            y = np.stack([good_y[0], bad_y, good_y[1]])
            sks = np.array([good_sks[0], bad_s @ bad_s, good_sks[1]])
            d, s_kept, y_kept, sks_kept = _lbfgs_direction(g, s, y, sks, _identity)
            assert np.array_equal(s_kept, good_s) and np.array_equal(y_kept, good_y)
            assert np.array_equal(sks_kept, good_sks)
            assert np.array_equal(
                d, _lbfgs_direction(g, good_s, good_y, good_sks, _identity)[0]
            )
            assert g @ d < 0

    def test_non_descent_direction_resets_to_minus_gradient(self):
        # A pair whose curvature overflows passes the s.y > 0 test but makes
        # the scale of H0 NaN, so g.d < 0 fails.
        g = np.array([1.0, 2.0])
        s = np.array([[1e300, 0.0]])
        y = np.array([[1e300, 1e300]])
        with np.errstate(over="ignore", invalid="ignore"):
            sks = np.einsum("ki,ki->k", s, s)   # s.Ks with K = I: inf
            d, s_kept, y_kept, sks_kept = _lbfgs_direction(g, s, y, sks, _identity)
        assert np.array_equal(d, -g)
        assert s_kept.shape == y_kept.shape == (0, 2)
        assert sks_kept.shape == (0,)

    def test_quadratic_inverse_hessian_after_dim_pairs(self):
        # Pairs of an SPD quadratic along A-conjugate steps (the steps of
        # exact line searches): with memory >= dim, H is A^-1 after dim pairs.
        dim = 6
        assert LBFGS_MEMORY >= dim
        rng = np.random.default_rng(4)
        M = rng.standard_normal((dim, dim))
        A = M @ M.T + dim * np.eye(dim)
        s = []
        for v in rng.standard_normal((dim, dim)):
            for u in s:
                v = v - (u @ A @ v) / (u @ A @ u) * u
            s.append(v)
        s = np.array(s)
        y = s @ A                                # y_i = A s_i
        g = rng.standard_normal(dim)
        d, s_kept, _, _ = _lbfgs_direction(g, s, y, np.einsum("ki,ki->k", s, s), _identity)
        assert len(s_kept) == dim
        expected = -np.linalg.solve(A, g)
        assert np.abs(d - expected).max() <= 1e-10 * np.abs(expected).max()


    def test_initial_matrix_is_scaled_stiffness_solve(self):
        # For g with s.g = 0 the recursion reduces to d = -(r - (y.r / s.y) s)
        # with r = gamma K^-1 g and gamma = s.Ks / s.y.
        k = np.array([1.0, 4.0, 9.0])
        s = np.array([[1.0, 1.0, 0.0]])
        y = np.array([[2.0, 1.0, 3.0]])
        g = np.array([1.0, -1.0, 2.0])

        def solve(v):
            return v / k

        sks = np.array([s[0] @ (k * s[0])])
        d, _, _, _ = _lbfgs_direction(g, s, y, sks, solve)
        sy = float(s[0] @ y[0])
        r = sks[0] / sy * g / k
        assert np.allclose(d, -(r - (y[0] @ r) / sy * s[0]), rtol=1e-15, atol=0)


class TestMeshIndependence:
    def test_cap_iterations_do_not_grow_with_refinement(self, model, sphere):
        # With H0 = gamma P K^-1 P the iteration count follows the energy's
        # spectrum relative to K, which does not change with h; with H0 = I it
        # doubled at each halving of h (117, then 230 iterations).
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        iterations = []
        for h in (0.1, 0.05):
            mesh = build_mesh("disk", h)
            _, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
            assert report.status == "converged"
            iterations.append(report.iterations)
        assert iterations[1] <= 1.5 * iterations[0]


class TestFrameCovariance:
    def test_sphere_equivariance(self, model, sphere):
        mesh = build_mesh("disk", 0.2)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        start = initialize(sphere, mesh, f0)
        cfg, _ = minimize(model, sphere, mesh, start)
        ang = 0.9
        Q = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, np.cos(ang), -np.sin(ang)],
                [0.0, np.sin(ang), np.cos(ang)],
            ]
        )
        cfg_rot, _ = minimize(model, sphere, mesh, start @ Q.T)
        assert np.abs(cfg_rot - cfg @ Q.T).max() < 1e-6


def _base_map(surface, kind):
    """Closed-form feasible placement of the reference mesh on one family."""
    if kind == "plane":
        return make_initial_map(
            surface, "affine", matrix=np.array([[1.2, 0.1], [0.0, 0.9]])
        )
    if kind == "sphere":
        return make_initial_map(surface, "stereographic_cap", latitude=np.pi / 3)
    return make_initial_map(surface, "torus_band")


INVARIANT_CASES = [
    ("plane", "plane", "unit_square"),
    ("plane", "plane", "disk"),
    ("sphere", "sphere", "disk"),
    ("torus", "torus", "unit_square"),
]


class TestInvariantsAllSurfaces:
    """Feasibility, monotone energy and pinned boundary on every family."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind,fixture,domain", INVARIANT_CASES)
    def test_minimizer_invariants(self, request, model, kind, fixture, domain, seed):
        surface = request.getfixturevalue(fixture)
        mesh = build_mesh(domain, 0.25)
        base = np.asarray(_base_map(surface, kind)(mesh.vertices), dtype=float)
        # Seeded tangential jitter of the interior nodes, then back onto the
        # surface; boundary rows keep the closed-form values exactly.
        rng = np.random.default_rng(seed)
        interior = mesh.interior_mask()
        jitter = 0.02 * rng.standard_normal(base.shape)
        start = base.copy()
        start[interior] = surface.project(
            base[interior]
            + surface.tangent_project_unchecked(base[interior], jitter[interior])
        )

        cfg, report = minimize(model, surface, mesh, start)
        assert len(report.min_j_history) == report.iterations + 1
        assert all(j > J_FLOOR for j in report.min_j_history)
        e = report.energy_history
        assert all(b <= a for a, b in zip(e, e[1:]))
        b = mesh.boundary_vertices
        assert np.array_equal(cfg[b], base[b])


_REDUCTION_BITS = """
import hashlib
import numpy as np
from memsurf.discretization import _dot
from memsurf.minimizer import _lbfgs_direction
rng = np.random.default_rng(5)
g = rng.standard_normal((10000, 3))
s = rng.standard_normal((4, 10000, 3))
y = s + 0.1 * rng.standard_normal(s.shape)
sks = 2.0 * np.einsum("kij,kij->k", s, s)
d, kept, _, _ = _lbfgs_direction(g, s, y, sks, lambda v: 0.5 * v)
print(len(kept), _dot(g, d).hex(), _dot(g, g).hex(), hashlib.sha256(d.tobytes()).hexdigest())
"""


def test_reductions_do_not_depend_on_blas_threads():
    # 30 000 entries: above the size where OpenBLAS ddot splits its sum
    # across threads.  The L-BFGS recursion's inner products and the
    # gradient norm's sum must give the same bits at one and two threads.
    outputs = outputs_at_blas_threads(_REDUCTION_BITS)
    assert outputs[0][0] == "4"
    assert outputs[0] == outputs[1]
