import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from memsurf import (
    CheckReport,
    DeltaTooLargeError,
    InvalidEpsilonError,
    IsotropicModel,
    ThetaModel,
    check_growth,
    check_stress_growth,
    check_isotropy,
    check_perturbed_stress_bound,
    check_midpoint_convexity,
    check_negative_control,
    check_objectivity,
    check_rank_one,
    rank_one_counterexample,
    run_all_checks,
)
from memsurf import verification
from memsurf.constitutive import energy_density_batch, phi_split_batch
from memsurf.verification import (
    CONVEXITY_SLACK,
    SWEEP_BLOCK_ROWS,
    WEIGHTS_PER_PAIR,
    _sample_fj_pairs,
    shear_over_j_squared,
)


def shear_over_j(F, J):
    """(F.F)/J, jointly convex on J > 0."""
    return np.einsum("nij,nij->n", F, F) / J


def all_nan(F, J):
    return np.full(len(J), np.nan)


def half_nan_nonconvex(F, J):
    """The non-convex negative-control functional, NaN on every other sample."""
    out = shear_over_j_squared(F, J)
    out[::2] = np.nan
    return out


class TestObjectivityIsotropy:
    def test_objectivity_default(self, model):
        rep = check_objectivity(model, n=1000, seed=42)
        assert rep.passed
        assert rep.worst_violation <= 1e-9

    def test_isotropy_default(self, model):
        rep = check_isotropy(model, n=1000, seed=42)
        assert rep.passed
        assert rep.worst_violation <= 1e-9

    def test_identity_rotation_no_deviation(self, model):
        F = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        Q = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        W = energy_density_batch(model, np.stack([Q @ F, F]))
        assert W[0] == pytest.approx(W[1], abs=1e-14)


class TestMidpointConvexity:
    def test_shear_over_j_convex(self):
        rep = check_midpoint_convexity(shear_over_j, n=100_000, seed=1)
        assert rep.passed
        assert rep.details["violations"] == 0

    def test_negative_control_finds_violation(self):
        rep = check_negative_control(n=20000, seed=1)
        assert rep.passed
        assert rep.details["violations"] >= 1
        # Witness is a genuine violation of midpoint convexity.
        w = rep.worst_witness
        F1, F2 = np.array(w["F1"]), np.array(w["F2"])
        J1, J2, t = w["J1"], w["J2"], w["weight"]
        lhs = shear_over_j_squared(
            (t * F1 + (1 - t) * F2)[None], np.array([t * J1 + (1 - t) * J2])
        )[0]
        rhs = t * shear_over_j_squared(F1[None], np.array([J1]))[0] + (
            1 - t
        ) * shear_over_j_squared(F2[None], np.array([J2]))[0]
        assert lhs > rhs

    def test_default_model_split_convex(self, model):
        rep = check_midpoint_convexity(
            lambda F, J: phi_split_batch(model, F, J), n=20000, seed=2
        )
        assert rep.passed
        assert rep.details["violations"] == 0

    @pytest.mark.parametrize("phi", [all_nan, half_nan_nonconvex])
    def test_nan_functional_fails(self, phi):
        rep = check_midpoint_convexity(phi, n=1000, seed=0)
        assert np.isnan(rep.worst_violation)
        assert not rep.passed
        assert "passed: false" in rep.to_text()

    @pytest.mark.parametrize("phi", [all_nan, half_nan_nonconvex])
    def test_nan_negative_control_fails(self, phi, monkeypatch):
        monkeypatch.setattr(verification, "shear_over_j_squared", phi)
        rep = check_negative_control(n=1000, seed=0)
        assert np.isnan(rep.worst_violation)
        assert not rep.passed


def sweep_segments(n, seed):
    """The sweep's (F1, J1, F2, J2): each block's own draw, concatenated in row order."""
    blocks = []
    for start in range(0, n, SWEEP_BLOCK_ROWS):
        rng = np.random.default_rng([seed, start])
        rows = min(SWEEP_BLOCK_ROWS, n - start)
        blocks.append(_sample_fj_pairs(rng, rows) + _sample_fj_pairs(rng, rows))
    return [np.concatenate(parts) for parts in zip(*blocks)]


def sequential_sweep(n, seed, *phis):
    """The convexity sweep as one pass over all rows: the blocked sweep's reference."""
    F1, J1, F2, J2 = sweep_segments(n, seed)
    ends = []
    for phi in phis:
        p1 = np.asarray(phi(F1, J1))
        p2 = np.asarray(phi(F2, J2))
        ends.append((p1, p2, CONVEXITY_SLACK * (1.0 + p1 + p2)))
    rng = np.random.default_rng(seed)
    weights = np.concatenate([[0.5], rng.uniform(0.0, 1.0, WEIGHTS_PER_PAIR)])
    worst = [-np.inf] * len(phis)
    witness = [{}] * len(phis)
    violations = [0] * len(phis)
    for w in weights:
        Fm = w * F1 + (1.0 - w) * F2
        Jm = w * J1 + (1.0 - w) * J2
        for k, (phi, (p1, p2, slack)) in enumerate(zip(phis, ends)):
            excess = np.asarray(phi(Fm, Jm)) - (w * p1 + (1.0 - w) * p2) - slack
            violations[k] += int(np.count_nonzero(excess > 0))
            nonfinite = np.flatnonzero(~np.isfinite(excess))
            i = int(nonfinite[0]) if nonfinite.size else int(np.argmax(excess))
            value = math.nan if nonfinite.size else float(excess[i])
            if not math.isnan(worst[k]) and not value <= worst[k]:
                worst[k] = value
                witness[k] = {
                    "F1": F1[i].tolist(),
                    "J1": float(J1[i]),
                    "F2": F2[i].tolist(),
                    "J2": float(J2[i]),
                    "weight": float(w),
                    "excess": float(excess[i]),
                }
    return [
        CheckReport(
            check_name="split_convexity",
            samples=n,
            seed=seed,
            tolerance=0.0,
            worst_violation=worst[k],
            worst_witness=witness[k],
            details={"violations": violations[k], "weights_per_pair": WEIGHTS_PER_PAIR},
        )
        for k in range(len(phis))
    ]


B = SWEEP_BLOCK_ROWS


class TestBlockedSweep:
    """The blocked, threaded sweep reproduces the single pass for any core count."""

    @pytest.fixture(scope="class")
    def phis(self, model):
        def phi_model(F, J):
            return phi_split_batch(model, F, J)

        return (phi_model, shear_over_j, shear_over_j_squared, all_nan, half_nan_nonconvex)

    @pytest.mark.parametrize("n", [1, 7, B - 1, B, B + 1, 3 * B + 5])
    def test_reports_equal_single_pass(self, phis, n, monkeypatch):
        expected = [rep.to_text() for rep in sequential_sweep(n, 5, *phis)]
        for cores in (1, 2, 3):
            monkeypatch.setattr(verification, "_usable_cores", lambda: cores)
            got = [rep.to_text() for rep in verification._convexity_sweep(n, 5, phis)[0]]
            assert got == expected, f"{cores} usable cores"

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_error_is_single_pass_error(self, cores, monkeypatch):
        n = 3 * B + 5
        J1 = sweep_segments(n, 5)[1]
        # Marked rows in the second and fourth blocks; a pass over all rows
        # names the first of them, as must the blocked sweep.
        marked = J1[[B + 3, 3 * B + 1]]

        def raises_on_marked(F, J):
            hit = np.isin(J, marked)
            if hit.any():
                raise ValueError(f"marked J {float(J[hit][0])!r}")
            return shear_over_j(F, J)

        with pytest.raises(ValueError) as single:
            sequential_sweep(n, 5, shear_over_j, raises_on_marked)
        monkeypatch.setattr(verification, "_usable_cores", lambda: cores)
        before = threading.active_count()
        with pytest.raises(ValueError) as blocked:
            verification._convexity_sweep(n, 5, [shear_over_j, raises_on_marked])
        assert str(blocked.value) == str(single.value) == f"marked J {float(marked[0])!r}"
        assert threading.active_count() == before

    def test_no_more_workers_than_blocks(self, phis, monkeypatch):
        # Eight usable cores: a one-block sweep starts no thread, a
        # four-block one starts three.
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(verification, "_usable_cores", lambda: 8)
        rep = check_midpoint_convexity(shear_over_j, n=1000, seed=5)
        assert started == []
        assert rep.to_text() == sequential_sweep(1000, 5, shear_over_j)[0].to_text()
        n = 3 * B + 5
        got = [rep.to_text() for rep in verification._convexity_sweep(n, 5, phis)[0]]
        assert len(started) == 3
        assert got == [rep.to_text() for rep in sequential_sweep(n, 5, *phis)]

    def test_each_block_taken_once_under_thread_switches(self, monkeypatch):
        # Six threads on small blocks, switching as often as the interpreter
        # allows: a block taken twice or skipped shows in the record.
        taken = []
        sweep_block = verification._sweep_block

        def recording_block(phis, seed, weights, n, start):
            taken.append(start)
            return sweep_block(phis, seed, weights, n, start)

        monkeypatch.setattr(verification, "SWEEP_BLOCK_ROWS", 64)
        monkeypatch.setattr(verification, "_sweep_block", recording_block)
        texts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 6):
                monkeypatch.setattr(verification, "_usable_cores", lambda: cores)
                taken.clear()
                reports = verification._convexity_sweep(64 * 40 + 3, 5, [shear_over_j])[0]
                texts.append(reports[0].to_text())
                assert sorted(taken) == list(range(0, 64 * 40 + 3, 64))
        finally:
            sys.setswitchinterval(interval)
        assert texts[0] == texts[1]


class TestBatteryThreads:
    def test_battery_sweep_spans_several_blocks(self):
        assert verification.CONVEXITY_SAMPLES > 2 * B

    def test_checks_run_on_main_thread(self, model, monkeypatch):
        monkeypatch.setattr(verification, "_usable_cores", lambda: 3)
        calls = []

        def on_main(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread() is threading.main_thread()))
                return fn(*args, **kwargs)

            return wrapper

        names = [name for name in vars(verification) if name.startswith("check_")]
        for name in names + ["pk1_batch"]:
            monkeypatch.setattr(verification, name, on_main(name, getattr(verification, name)))
        run_all_checks(model, seed=42)
        called = {name for name, _ in calls}
        assert called == set(names) - {"check_midpoint_convexity", "check_negative_control"} | {
            "pk1_batch"
        }
        assert all(main for _, main in calls)

    def test_reports_equal_for_one_and_two_cores(self, model, monkeypatch):
        texts = []
        for cores in (1, 2):
            monkeypatch.setattr(verification, "_usable_cores", lambda: cores)
            texts.append([rep.to_text() for rep in run_all_checks(model, seed=42)])
        assert len(texts[0]) == 8
        assert texts[0] == texts[1]

    def test_check_error_waits_for_sweep_error(self, model, monkeypatch):
        # The sweep comes first in the battery's order, so its error wins.
        def sweep_fails(F, J):
            raise ValueError("sweep failed")

        def check_fails(*args, **kwargs):
            raise RuntimeError("check failed")

        monkeypatch.setattr(verification, "_usable_cores", lambda: 2)
        monkeypatch.setattr(verification, "shear_over_j_squared", sweep_fails)
        monkeypatch.setattr(verification, "check_growth", check_fails)
        before = threading.active_count()
        with pytest.raises(ValueError, match="sweep failed"):
            run_all_checks(model, seed=42)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [1, 2])
    def test_check_error_raised_after_sweep(self, model, cores, monkeypatch):
        def check_fails(*args, **kwargs):
            raise RuntimeError("check failed")

        monkeypatch.setattr(verification, "_usable_cores", lambda: cores)
        monkeypatch.setattr(verification, "check_growth", check_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="check failed"):
            run_all_checks(model, seed=42)
        assert threading.active_count() == before


class TestSweepDraw:
    """Each block draws its own segments, on the thread that takes it."""

    def test_worker_block_overlaps_checks(self, model, monkeypatch):
        # The first check waits until a worker has drawn a block, since this
        # thread takes no block before every check is done.
        drawn, threads = threading.Event(), []

        def recording_draw(rng, n):
            out = _sample_fj_pairs(rng, n)
            threads.append(threading.current_thread())
            # Both halves of a block, F1, J1 and F2, J2, drawn by a worker.
            if sum(thread is not threading.main_thread() for thread in threads) >= 2:
                drawn.set()
            return out

        def waits_for_block(*args, **kwargs):
            assert drawn.wait(timeout=60)
            return check_objectivity(*args, **kwargs)

        blocks = len(range(0, verification.CONVEXITY_SAMPLES, B))
        monkeypatch.setattr(verification, "_usable_cores", lambda: 2)
        monkeypatch.setattr(verification, "_sample_fj_pairs", recording_draw)
        monkeypatch.setattr(verification, "check_objectivity", waits_for_block)
        texts = [rep.to_text() for rep in run_all_checks(model, seed=42)]
        assert len(threads) == 2 * blocks
        assert any(thread is not threading.main_thread() for thread in threads)
        monkeypatch.setattr(verification, "check_objectivity", check_objectivity)
        monkeypatch.setattr(verification, "_usable_cores", lambda: 1)
        threads.clear()
        assert [rep.to_text() for rep in run_all_checks(model, seed=42)] == texts
        assert threads == [threading.main_thread()] * (2 * blocks)

    def test_one_core_sweep_holds_no_full_draw(self, model, monkeypatch):
        # One full draw of (F1, J1, F2, J2) is 14 floats per row; the blocks
        # together must never hold it.
        def phi_model(F, J):
            return phi_split_batch(model, F, J)

        n = verification.CONVEXITY_SAMPLES
        monkeypatch.setattr(verification, "_usable_cores", lambda: 1)
        tracemalloc.start()
        try:
            verification._convexity_sweep(n, 44, [phi_model, shear_over_j_squared])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 14 * 8

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_draw_error_raised_from_reports(self, model, cores, monkeypatch):
        def draw_fails(rng, n):
            raise ValueError("draw failed")

        monkeypatch.setattr(verification, "_usable_cores", lambda: cores)
        monkeypatch.setattr(verification, "_sample_fj_pairs", draw_fails)
        before = threading.active_count()
        with pytest.raises(ValueError, match="draw failed"):
            verification._convexity_sweep(3 * B + 5, 5, [shear_over_j])
        with pytest.raises(ValueError, match="draw failed"):
            run_all_checks(model, seed=42)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [1, 2])
    def test_interrupt_in_a_check_stays_an_interrupt(self, model, cores, monkeypatch):
        # The sweep joins its workers and builds no report from the blocks
        # left undone.
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(verification, "_usable_cores", lambda: cores)
        monkeypatch.setattr(verification, "check_growth", interrupted)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_all_checks(model, seed=42)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [1, 2])
    def test_interrupt_beats_a_failed_block(self, model, cores, monkeypatch):
        # With a worker, the interrupt comes after a block has failed; it
        # must stay an interrupt, not become the block's error.
        block_failed = threading.Event()

        def sweep_fails(F, J):
            block_failed.set()
            raise ValueError("sweep failed")

        def interrupted(*args, **kwargs):
            if cores > 1:
                assert block_failed.wait(timeout=60)
            raise KeyboardInterrupt

        monkeypatch.setattr(verification, "_usable_cores", lambda: cores)
        monkeypatch.setattr(verification, "shear_over_j_squared", sweep_fails)
        monkeypatch.setattr(verification, "check_growth", interrupted)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_all_checks(model, seed=42)
        assert threading.active_count() == before


class TestRankOne:
    def test_witness_values(self, model):
        w = rank_one_counterexample(model, 1.0, 1.0, 0.1)
        assert w.W_plus == pytest.approx(4.0, abs=1e-12)
        assert w.W_minus == pytest.approx(4.0, abs=1e-12)
        # Midpoint energy at stretches (1, 0.1): independent value from the
        # constitutive tests' rational oracle.
        assert w.W_bar == pytest.approx(15008.116, abs=1e-9)
        assert w.gap == pytest.approx(15004.116, abs=1e-9)
        assert w.gap > 1e4

    def test_structure(self, model):
        w = rank_one_counterexample(model, 1.3, 0.8, 0.25)
        diff = w.F_plus - w.F_minus
        assert np.linalg.matrix_rank(diff) == 1
        C = w.F_plus.T @ w.F_plus
        assert np.abs(C - np.diag([1.3**2, 0.8**2])).max() < 1e-12
        Cm = w.F_minus.T @ w.F_minus
        assert np.abs(Cm - C).max() < 1e-12
        Cbar = w.F_bar.T @ w.F_bar
        assert np.abs(Cbar - np.diag([1.3**2, (0.25 * 0.8) ** 2])).max() < 1e-12

    def test_gap_positive_at_half(self, model):
        w = rank_one_counterexample(model, 1.0, 1.0, 0.5)
        assert w.gap == pytest.approx(21.0, abs=1e-12)

    def test_gap_grows_as_eps_shrinks(self, model):
        gaps = [
            rank_one_counterexample(model, 1.0, 1.0, e).gap
            for e in (0.2, 0.1, 0.05, 0.01)
        ]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_invalid_epsilon(self, model):
        with pytest.raises(InvalidEpsilonError):
            rank_one_counterexample(model, 1.0, 1.0, 0.0)
        with pytest.raises(InvalidEpsilonError):
            rank_one_counterexample(model, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "lam, mu",
        [
            (True, 1.0),
            (1.0, True),
            (np.True_, 1.0),
            (math.inf, 1.0),
            (1.0, math.inf),
            (math.nan, 1.0),
            (0.0, 1.0),
            (1.0, -2.0),
        ],
    )
    def test_invalid_stretches(self, model, lam, mu):
        with pytest.raises(ValueError, match="lam and mu must be positive and finite"):
            rank_one_counterexample(model, lam, mu, 0.1)

    def test_check_report(self, model):
        rep = check_rank_one(model, seed=0)
        assert rep.passed
        assert rep.details["gaps"][0] < rep.details["gaps"][-1]


class TestStressGrowth:
    def test_default_model_passes(self, model):
        rep = check_stress_growth(model, n=20000, seed=3)
        assert rep.passed
        assert rep.details["K_declared"] == pytest.approx(
            model.stress_bound_constant()
        )
        assert rep.empirical_constant <= rep.details["K_declared"]

    def test_identity_ratio_zero(self, model):
        s1, s2 = model.scaled_stress_coefficients(1.0, 1.0)
        assert np.hypot(s1, s2) == pytest.approx(0.0, abs=1e-14)

    def test_equibiaxial_large_stretch_ratio(self, model):
        # Frozen asymptote: the area term dominates, so the ratio tends to
        # sqrt(2) * q = 2.8284..., observed at t = 1e3 as 2.827486.
        t = 1e3
        s1, s2 = model.scaled_stress_coefficients(t, t)
        phi = model.energy_from_stretches(t, t)
        ratio = float(np.hypot(s1, s2) / (phi + 1.0))
        assert ratio == pytest.approx(2.827486, abs=1e-5)
        assert ratio <= model.stress_bound_constant()

    def test_degenerate_stretch_ratio(self, model):
        # Frozen asymptote: sqrt(2) * r as the small stretch vanishes.
        s1, s2 = model.scaled_stress_coefficients(1.0, 1e-3)
        phi = model.energy_from_stretches(1.0, 1e-3)
        ratio = float(np.hypot(s1, s2) / (phi + 1.0))
        assert ratio == pytest.approx(4.0 * np.sqrt(2.0), rel=1e-3)
        assert ratio <= model.stress_bound_constant()


class TestPerturbedStressBound:
    def test_default_passes(self, model):
        rep = check_perturbed_stress_bound(model, delta=0.01, n=5000, seed=4)
        assert rep.passed
        K = model.stress_bound_constant()
        assert rep.details["C"] == pytest.approx(2 * K / (1 - 2 * K * 0.01))

    def test_identity_perturbation_reduces_to_base_bound(self, model):
        rep = check_perturbed_stress_bound(model, delta=1e-12, n=2000, seed=5)
        assert rep.passed
        # At T ~ 1 the ratio collapses to the unperturbed growth ratio, below K <= C.
        assert rep.empirical_constant <= rep.details["K_declared"] * (1 + 1e-6)

    def test_near_degenerate_samples_included(self, model):
        rep = check_perturbed_stress_bound(model, delta=0.01, n=5000, seed=6)
        assert rep.passed

    def test_delta_too_large(self, model):
        with pytest.raises(DeltaTooLargeError):
            check_perturbed_stress_bound(model, delta=0.06, n=10, seed=0)

    @pytest.mark.parametrize("delta", [-0.01, -1.0, True, False, np.True_])
    def test_negative_or_boolean_delta_rejected(self, model, delta):
        with pytest.raises(ValueError, match=re.escape("must be a real number in [0, 1/(2K))")):
            check_perturbed_stress_bound(model, delta=delta, n=10, seed=0)

    def test_zero_delta_is_the_base_bound(self, model):
        rep = check_perturbed_stress_bound(model, delta=0.0, n=100, seed=0)
        assert rep.passed
        assert rep.details["C"] == 2.0 * model.stress_bound_constant()


class TestWrittenOutProducts:
    """The broadcast products and the draw's norm give their NumPy forms' bits."""

    N = 10_000

    @pytest.fixture(scope="class")
    def factors(self):
        return verification._random_svd_factors(
            np.random.default_rng(0), self.N, verification.STRESS_STRETCH_RANGE
        )

    def test_svd_product(self, factors):
        U, lam, V = factors
        np.testing.assert_array_max_ulp(
            verification._svd_product(U, lam, V),
            np.einsum("nik,nk,njk->nij", U, lam, V),
            maxulp=0,
        )

    def test_perturbed_svd_product(self, factors):
        U, lam, V = factors
        T = np.eye(2) + 0.01 * np.random.default_rng(1).standard_normal((self.N, 2, 2))
        np.testing.assert_array_max_ulp(
            verification._perturbed_svd_product(U, T, lam, V),
            np.einsum("nik,nkl,nl,nml->nim", U, T, lam, V),
            maxulp=0,
        )

    def test_times_transpose(self, factors):
        A = verification._svd_product(*factors)
        S = np.random.default_rng(2).standard_normal((self.N, 3, 2))
        np.testing.assert_array_max_ulp(
            verification._times_transpose(S, A), np.einsum("nij,nkj->nik", S, A), maxulp=0
        )

    def test_sample_normalization(self):
        F, J = _sample_fj_pairs(np.random.default_rng(3), self.N)
        # The draw, normalized by np.linalg.norm.
        rng = np.random.default_rng(3)
        G = rng.standard_normal((self.N, 3, 2))
        G /= np.linalg.norm(G, axis=(1, 2), keepdims=True)
        want = G * (10.0 * rng.uniform(0.0, 1.0, (self.N, 1, 1)))
        np.testing.assert_array_max_ulp(F, want, maxulp=0)
        assert J.tobytes() == verification._log_uniform(rng, 0.05, 20.0, self.N).tobytes()


class TestGrowth:
    def test_default_passes(self, model):
        rep = check_growth(model, n=20000, seed=7)
        assert rep.passed
        assert rep.details["coercivity_satisfied"]
        assert rep.details["strong_coercivity_satisfied"]
        assert rep.details["theta_blowup_at_1e-6"] >= 1e10

    def test_small_exponent_flagged(self):
        m = IsotropicModel(ogden_terms=((1.0, 1.2),))
        rep = check_growth(m, n=2000, seed=8)
        assert not rep.passed
        assert not rep.details["coercivity_satisfied"]

    def test_small_r_flagged(self):
        m = IsotropicModel(theta=ThetaModel(c=1.5, q=2.0, r=2.0))
        rep = check_growth(m, n=2000, seed=9)
        assert not rep.passed
        assert not rep.details["strong_coercivity_satisfied"]


def whole_sample_worst_rows(model, n, seed):
    """The worst rows of check_stress_growth (seed) and check_growth (seed + 1),
    each taken on its whole (n, 2) sample at once: the reference for the
    blocked checks."""
    def stretches(rng, lo, hi, rows):
        lam = np.exp(rng.uniform(np.log(lo), np.log(hi), (rows, 2)))
        return np.maximum(lam[:, 0], lam[:, 1]), np.minimum(lam[:, 0], lam[:, 1])

    lo, hi = verification.STRESS_STRETCH_RANGE
    l1, l2 = stretches(np.random.default_rng(seed), lo, hi, n)
    l1 = np.concatenate([l1, [lo, hi, hi, hi, 1.0]])
    l2 = np.concatenate([l2, [lo, hi, lo, lo, 1.0]])
    s1, s2 = model.scaled_stress_coefficients(l1, l2)
    ratios = np.hypot(s1, s2) / (model.energy_from_stretches(l1, l2) + 1.0)
    i = int(np.argmax(ratios))
    stress = {"l1": float(l1[i]), "l2": float(l2[i]), "ratio": float(ratios[i])}

    l1, l2 = stretches(np.random.default_rng(seed + 1), *verification.GROWTH_STRETCH_RANGE, n)
    W = model.energy_from_stretches(l1, l2)
    c1 = 0.5 * min(min(bj for bj, _ in model.ogden_terms), model.theta.c)
    lower = c1 * (np.hypot(l1, l2) ** model.growth_exponent + (l1 * l2) ** (-model.theta.r))
    shortfall = (lower - 4.0 * model.theta.c - W) / (1.0 + np.abs(W))
    i = int(np.argmax(shortfall))
    growth = {"l1": float(l1[i]), "l2": float(l2[i]), "W": float(W[i])}
    return stress, growth, float(shortfall[i])


class TestBlockedStressChecks:
    """check_stress_growth and check_growth take their draws one block of
    SWEEP_BLOCK_ROWS rows at a time, from one generator, and find the row
    np.argmax finds on the whole sample."""

    @pytest.mark.parametrize("rows", [64, 1000, SWEEP_BLOCK_ROWS])
    @pytest.mark.parametrize(
        "model",
        [IsotropicModel(), IsotropicModel(ogden_terms=((1.0, 1.2), (0.5, 4.0)), b=0.3)],
        ids=["default", "two_terms"],
    )
    def test_worst_rows_equal_whole_sample(self, model, rows, monkeypatch):
        monkeypatch.setattr(verification, "SWEEP_BLOCK_ROWS", rows)
        n, seed = 5000, 11
        stress, growth, shortfall = whole_sample_worst_rows(model, n, seed)
        rep = check_stress_growth(model, n, seed)
        assert rep.worst_witness == stress
        assert rep.samples == n + 5
        assert rep.worst_violation == stress["ratio"] - model.stress_bound_constant()
        rep = check_growth(model, n, seed + 1)
        assert rep.worst_witness == growth
        assert rep.details["sampled_bound_shortfall"] == shortfall

    @pytest.mark.parametrize(
        "blocks",
        [
            [[1.0, 3.0], [3.0, 2.0]],                  # the first of equal maxima
            [[1.0, 2.0], [5.0], [4.0, 5.0]],
            [[1.0, np.nan], [np.nan, 5.0]],            # the first NaN
            [[np.inf, 1.0], [2.0, np.nan]],            # a NaN beats an infinity
            [[-np.inf], [-np.inf, -1.0]],
        ],
    )
    def test_first_largest_is_argmax(self, blocks):
        rows = np.concatenate(blocks)
        i = int(np.argmax(rows))
        ends = np.cumsum([len(b) for b in blocks])
        # Blocks of row indices, scored by their rows and witnessed by themselves.
        indices = [np.arange(end - len(b), end) for b, end in zip(blocks, ends)]
        value, (index,) = verification._first_largest(indices, lambda idx: (rows[idx], [idx]))
        assert index == i
        assert value == rows[i] or (math.isnan(value) and math.isnan(rows[i]))


SAMPLED_CHECKS = {
    "objectivity": lambda model, n: check_objectivity(model, n, 0),
    "isotropy": lambda model, n: check_isotropy(model, n, 0),
    "midpoint_convexity": lambda model, n: check_midpoint_convexity(shear_over_j, n, 0),
    "negative_control": lambda model, n: check_negative_control(n, 0),
    "stress_growth": lambda model, n: check_stress_growth(model, n, 0),
    "perturbed_stress_bound": lambda model, n: check_perturbed_stress_bound(model, 0.01, n, 0),
    "growth": lambda model, n: check_growth(model, n, 0),
}


@pytest.mark.parametrize("n", [0, -5, 2.5, True])
@pytest.mark.parametrize("check", SAMPLED_CHECKS)
def test_sampled_checks_reject_bad_sample_count(model, check, n, monkeypatch):
    # Rejected before any draw, with the argument and its value named.
    def no_draw(seed=None):
        raise AssertionError("drew samples")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=re.escape(f"n = {n!r} must be an integer >= 1")):
        SAMPLED_CHECKS[check](model, n)


SEEDED_CHECKS = {
    "objectivity": lambda model, seed: check_objectivity(model, 10, seed),
    "isotropy": lambda model, seed: check_isotropy(model, 10, seed),
    "midpoint_convexity": lambda model, seed: check_midpoint_convexity(shear_over_j, 10, seed),
    "negative_control": lambda model, seed: check_negative_control(10, seed),
    "rank_one": lambda model, seed: check_rank_one(model, seed),
    "stress_growth": lambda model, seed: check_stress_growth(model, 10, seed),
    "perturbed_stress_bound": lambda model, seed: check_perturbed_stress_bound(
        model, 0.01, 10, seed
    ),
    "growth": lambda model, seed: check_growth(model, 10, seed),
    "run_all_checks": lambda model, seed: run_all_checks(model, seed),
}


@pytest.mark.parametrize("seed", [None, True, -1, 2.5])
@pytest.mark.parametrize("check", SEEDED_CHECKS)
def test_checks_reject_bad_seed(model, check, seed, monkeypatch):
    # Rejected before any draw, with the argument and its value named: a
    # report must name the seed that re-draws its samples.
    def no_draw(seed=None):
        raise AssertionError("drew samples")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=re.escape(f"seed = {seed!r} must be an integer >= 0")):
        SEEDED_CHECKS[check](model, seed)


def test_checks_accept_numpy_integer_seed(model):
    assert check_objectivity(model, 10, np.int64(3)) == check_objectivity(model, 10, 3)
    assert check_rank_one(model, np.uint8(0)).seed == 0


class TestReports:
    def test_deterministic_given_seed(self, model):
        a = check_perturbed_stress_bound(model, delta=0.01, n=2000, seed=11)
        b = check_perturbed_stress_bound(model, delta=0.01, n=2000, seed=11)
        assert a == b
        assert a.to_text() == b.to_text()

    def test_passed_iff_within_tolerance(self, model):
        reps = run_all_checks(model, seed=42)
        assert len(reps) == 8
        for rep in reps:
            assert rep.passed == (rep.worst_violation <= rep.tolerance)
            assert rep.passed

    def test_battery_convexity_reports_equal_standalone(self, model):
        """One sweep gives the reports of the two separate checks."""
        n = verification.CONVEXITY_SAMPLES
        reps = run_all_checks(model, seed=42)
        split = check_midpoint_convexity(lambda F, J: phi_split_batch(model, F, J), n=n, seed=44)
        assert reps[2].to_text() == split.to_text()
        assert reps[3].to_text() == check_negative_control(n=n, seed=44).to_text()

    def test_battery_samples_are_the_module_constants(self, model):
        reps = {rep.check_name: rep for rep in run_all_checks(model, seed=42)}
        assert {name: rep.samples for name, rep in reps.items()} == {
            "objectivity": verification.ROTATION_SAMPLES,
            "isotropy": verification.ROTATION_SAMPLES,
            "split_convexity": verification.CONVEXITY_SAMPLES,
            "split_convexity_negative_control": verification.CONVEXITY_SAMPLES,
            "rank_one_failure": len(verification.RANK_ONE_EPS_GRID),
            # The draw plus the five corners of the stretch range.
            "stress_growth": verification.STRESS_GROWTH_SAMPLES + 5,
            "perturbed_stress_bound": verification.PERTURBATION_SAMPLES,
            "coercivity_and_blowup": verification.GROWTH_SAMPLES,
        }
        assert reps["perturbed_stress_bound"].details["delta"] == verification.PERTURBATION_DELTA

    def test_passed_derived_from_tolerance(self):
        def report(worst):
            return CheckReport("c", samples=1, seed=0, tolerance=0.5, worst_violation=worst)

        assert report(0.5).passed
        assert not report(0.5000001).passed
        assert "passed: false" in report(1.0).to_text()

    def test_to_text_contains_outcome(self, model):
        rep = check_objectivity(model, n=100, seed=12)
        text = rep.to_text()
        assert "check: objectivity" in text
        assert "passed: true" in text
