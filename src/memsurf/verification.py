"""Randomized certificates for the constitutive hypotheses.

Each check draws a deterministic sample set from its seed, measures the
worst violation of the inequality it certifies, and passes when that is
within a fixed tolerance (``CheckReport.passed``).  ``run_all_checks``
derives each check's seed from its own; the battery's sample counts, the
perturbation size and the sampled ranges are the module constants below.
Re-running with the same (seed, n) is bitwise reproducible.  The convexity
sweep's row blocks, each drawn from (seed, block start) alone, run on worker
threads beside the other checks, so its reports match for any core count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .constitutive import (
    PERTURBATION_DELTA,
    IsotropicModel,
    _plane_dot,
    energy_density_batch,
    max_perturbation_delta,
    pk1_batch,
    phi_split_batch,
)
from .errors import DeltaTooLargeError, InvalidEpsilonError, _is_real

__all__ = [
    "CheckReport",
    "RankOneWitness",
    "check_objectivity",
    "check_isotropy",
    "check_midpoint_convexity",
    "check_negative_control",
    "rank_one_counterexample",
    "check_rank_one",
    "check_stress_growth",
    "check_perturbed_stress_bound",
    "check_growth",
    "run_all_checks",
    "max_perturbation_delta",
    "shear_over_j_squared",
]

# The battery's sample counts (``run_all_checks``); its perturbation size,
# PERTURBATION_DELTA, is constitutive's, beside the bound a model sets on it.
CONVEXITY_SAMPLES = 100_000
ROTATION_SAMPLES = 1000
STRESS_GROWTH_SAMPLES = 100_000
PERTURBATION_SAMPLES = 10_000
GROWTH_SAMPLES = 100_000
# Relative energy change allowed under a rotation (objectivity, isotropy).
INVARIANCE_TOLERANCE = 1e-9
CONVEXITY_SLACK = 1e-10
# Random convex weights tested per (F, J) pair, beside the midpoint.
WEIGHTS_PER_PAIR = 10
# Rows per block of the convexity sweep: a block's endpoint and combination
# batches stay cache-sized, and the blocks spread over the usable cores.
# Each block draws its own rows, so this also fixes how the sample is split.
# The stress-growth and coercivity checks take their draws in blocks of the
# same size, each from its one generator, which leaves their samples as they
# were.
SWEEP_BLOCK_ROWS = 16384
# Stretch pair (lam, mu) of the rank-one witnesses and the eps grid,
# decreasing, along which their gap must grow.
RANK_ONE_STRETCHES = (1.0, 1.0)
RANK_ONE_EPS_GRID = (0.2, 0.1, 0.05, 0.01)
# Log-uniform stretch ranges: the invariance checks, the two stress bounds
# and the coercivity bound.
INVARIANCE_STRETCH_RANGE = (0.05, 20.0)
STRESS_STRETCH_RANGE = (1e-3, 1e3)
GROWTH_STRETCH_RANGE = (1e-4, 1e4)


@dataclass
class CheckReport:
    """Outcome of one randomized certificate."""

    check_name: str
    samples: int
    seed: int
    tolerance: float
    worst_violation: float
    worst_witness: dict = field(default_factory=dict)
    empirical_constant: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return bool(self.worst_violation <= self.tolerance)

    def to_text(self):
        lines = [
            f"check: {self.check_name}",
            f"passed: {str(self.passed).lower()}",
            f"samples: {self.samples}",
            f"seed: {self.seed}",
            f"tolerance: {self.tolerance!r}",
            f"worst_violation: {self.worst_violation!r}",
        ]
        if self.empirical_constant is not None:
            lines.append(f"empirical_constant: {self.empirical_constant!r}")
        for key in sorted(self.details):
            lines.append(f"{key}: {self.details[key]!r}")
        if self.worst_witness:
            lines.append("witness:")
            for key in sorted(self.worst_witness):
                lines.append(f"  {key}: {self.worst_witness[key]!r}")
        return "\n".join(lines) + "\n"


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _log_uniform_blocks(rng, lo, hi, n):
    """The rows of ``_log_uniform(rng, lo, hi, (n, 2))`` in blocks of SWEEP_BLOCK_ROWS.

    The draws fill the rows in order, so the blocks hold the same rows; a
    check that takes one block at a time holds one block's temporaries.
    """
    for start in range(0, n, SWEEP_BLOCK_ROWS):
        yield _log_uniform(rng, lo, hi, (min(SWEEP_BLOCK_ROWS, n - start), 2))


def _first_largest(blocks, score):
    """The row ``np.argmax`` picks on the concatenated blocks, one block at a time.

    ``score(block)`` returns the block's scores and its per-row witness
    arrays.  Returns (score, witness values) at the first largest score, or
    at the first NaN, which wins over every number.
    """
    best = None
    for block in blocks:
        scores, columns = score(block)
        i = int(np.argmax(scores))
        value = float(scores[i])
        if best is None or (not math.isnan(best[0]) and (math.isnan(value) or value > best[0])):
            best = (value, [float(c[i]) for c in columns])
    return best


def _orthonormal_columns(A, columns):
    """The first ``columns`` columns of Q in A = QR, R with a positive
    diagonal, for a batch A (n, d, d) of normal draws; (n, d, columns).

    Modified Gram-Schmidt with reorthogonalization, written out on
    contiguous (d, n) planes rather than LAPACK ``qr``, so the bits depend
    on neither the CPU's BLAS kernel nor its thread count.  Q is Haar
    distributed on the orthogonal group.
    """
    Q = np.ascontiguousarray(A.T[:columns])  # Q[k, i] = A[:, i, k], one plane per column

    for k in range(columns):
        # Two passes keep Q orthonormal to rounding ("twice is enough").
        for j in [*range(k)] * 2:
            Q[k] -= _plane_dot(Q[j], Q[k]) * Q[j]
        Q[k] /= np.sqrt(_plane_dot(Q[k], Q[k]))
    return np.ascontiguousarray(Q.T)


def _random_svd_factors(rng, n, stretch_range):
    """U (n, 3, 2), stretches (n, 2) and V (n, 2, 2) of F = U diag(lam) V^T."""
    U = _orthonormal_columns(rng.standard_normal((n, 3, 3)), 2)
    lam = _log_uniform(rng, *stretch_range, (n, 2))
    V = _orthonormal_columns(rng.standard_normal((n, 2, 2)), 2)
    return U, lam, V


# The three batched products below are written out as broadcast products
# in the summation order of their ``np.einsum`` forms, which they match bit
# for bit (checked on NumPy 2.4.6) without the einsum's generic inner loop.
def _svd_product(U, lam, V):
    """U diag(lam) V^T, row by row: ``einsum("nik,nk,njk->nij", U, lam, V)``."""

    def term(k):
        return (U[:, :, k, None] * lam[:, k, None, None]) * V[:, None, :, k]

    return term(0) + term(1)


def _perturbed_svd_product(U, T, lam, V):
    """U T diag(lam) V^T, row by row: ``einsum("nik,nkl,nl,nml->nim", U, T, lam, V)``."""

    def term(k, l):
        scaled = (U[:, :, k, None] * T[:, k, l, None, None]) * lam[:, l, None, None]
        return scaled * V[:, None, :, l]

    return (term(0, 0) + term(0, 1)) + (term(1, 0) + term(1, 1))


def _times_transpose(S, A):
    """S A^T, row by row, for (n, 3, 2) batches: ``einsum("nij,nkj->nik", S, A)``."""
    return S[:, :, None, 0] * A[:, None, :, 0] + S[:, :, None, 1] * A[:, None, :, 1]


def _random_gradients(rng, n):
    """Full-rank 3x2 gradients with stretches in INVARIANCE_STRETCH_RANGE."""
    return _svd_product(*_random_svd_factors(rng, n, INVARIANCE_STRETCH_RANGE))


def _sorted_stretches(lam):
    """(l1, l2) with l1 >= l2 from an (n, 2) stretch array."""
    return np.maximum(lam[:, 0], lam[:, 1]), np.minimum(lam[:, 0], lam[:, 1])


def _random_rotations(rng, n):
    """Haar-random rotations (n, 3, 3): orthonormalized draws with the first
    column negated where the determinant q0 . (q1 x q2) is negative."""
    Q = _orthonormal_columns(rng.standard_normal((n, 3, 3)), 3)
    q0, q1, q2 = Q.transpose(2, 1, 0)
    det = (
        q0[0] * (q1[1] * q2[2] - q1[2] * q2[1])
        + q0[1] * (q1[2] * q2[0] - q1[0] * q2[2])
        + q0[2] * (q1[0] * q2[1] - q1[1] * q2[0])
    )
    q0[:, det < 0] *= -1.0
    return Q


def _check_samples(n):
    """Raise ValueError unless the sample count n is an integer >= 1 (not a boolean)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n = {n!r} must be an integer >= 1")


def _check_seed(seed):
    """Raise ValueError unless seed is an integer >= 0 (not a boolean), so the
    seed a report records re-draws its samples."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed = {seed!r} must be an integer >= 0")


def _invariance_report(name, model, n, seed, F, moved, **witness):
    """Report of max |W(moved) - W(F)| / (1 + W(F)) over the rows; its
    witness holds the worst row of F and of each ``witness`` array."""
    W0 = energy_density_batch(model, F)
    dev = np.abs(energy_density_batch(model, moved) - W0) / (1.0 + W0)
    i = int(np.argmax(dev))
    return CheckReport(
        check_name=name,
        samples=n,
        seed=seed,
        tolerance=INVARIANCE_TOLERANCE,
        worst_violation=float(dev[i]),
        worst_witness={key: rows[i].tolist() for key, rows in {"F": F, **witness}.items()},
    )


def check_objectivity(model, n, seed):
    """max_F,Q |W(QF) - W(F)| / (1 + W(F)) over random rotations."""
    _check_samples(n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    F = _random_gradients(rng, n)
    Q = _random_rotations(rng, n)
    QF = np.einsum("nij,njk->nik", Q, F)
    return _invariance_report("objectivity", model, n, seed, F, QF, Q=Q)


def check_isotropy(model, n, seed):
    """max_F,R |W(F R) - W(F)| / (1 + W(F)) over random in-plane rotations."""
    _check_samples(n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    F = _random_gradients(rng, n)
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    ca, sa = np.cos(ang), np.sin(ang)
    R = np.stack([np.stack([ca, -sa], axis=-1), np.stack([sa, ca], axis=-1)], axis=-2)
    FR = np.einsum("nij,njk->nik", F, R)
    return _invariance_report("isotropy", model, n, seed, F, FR, angle=ang)


def _sample_fj_pairs(rng, n):
    """|F| uniform in [0, 10] along random directions, J log-uniform in [0.05, 20]."""
    G = rng.standard_normal((n, 3, 2))
    # |G| as six sequential adds of the squares: the bits of
    # ``np.linalg.norm(G, axis=(1, 2))``, on two (n,) buffers.
    g = G.reshape(n, 6)
    norm = g[:, 0] * g[:, 0]
    square = np.empty(n)
    for k in range(1, 6):
        norm += np.multiply(g[:, k], g[:, k], out=square)
    G /= np.sqrt(norm, out=norm)[:, None, None]
    F = G * (10.0 * rng.uniform(0.0, 1.0, (n, 1, 1)))
    J = _log_uniform(rng, 0.05, 20.0, n)
    return F, J


def shear_over_j_squared(F, J):
    """(F.F)/J^2, not jointly convex."""
    return np.einsum("nij,nij->n", F, F) / J**2


def _usable_cores():
    """Cores this process may run on: the sweep's worker threads plus the caller."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # platforms without CPU affinity (macOS, Windows)


def _convex_combination(w, x1, x2, out, scratch):
    """w x1 + (1 - w) x2 written into ``out``, with that expression's bits."""
    np.multiply(x1, w, out=out)
    out += np.multiply(x2, 1.0 - w, out=scratch)
    return out


def _sweep_block(phis, seed, weights, n, start):
    """The sweep's per-weight, per-functional summaries on one row block.

    The block draws its own ``min(SWEEP_BLOCK_ROWS, n - start)`` rows from
    ``default_rng([seed, start])``: F1, J1, then F2, J2.  Each summary is
    (violations, value, witness) at the block's first non-finite excess,
    whose value is NaN, or else at its first largest one.  The combinations
    of every weight share one set of buffers.
    """
    rng = np.random.default_rng([seed, start])
    rows = min(SWEEP_BLOCK_ROWS, n - start)
    F1, J1 = _sample_fj_pairs(rng, rows)
    F2, J2 = _sample_fj_pairs(rng, rows)
    ends = []
    for phi in phis:
        p1 = np.asarray(phi(F1, J1))
        p2 = np.asarray(phi(F2, J2))
        ends.append((p1, p2, CONVEXITY_SLACK * (1.0 + p1 + p2)))
    Fm, F_scratch = np.empty_like(F1), np.empty_like(F1)
    Jm, mix, scratch = np.empty_like(J1), np.empty_like(J1), np.empty_like(J1)
    summaries = []
    for w in weights:
        _convex_combination(w, F1, F2, Fm, F_scratch)
        _convex_combination(w, J1, J2, Jm, scratch)
        row = []
        for phi, (p1, p2, slack) in zip(phis, ends):
            excess = np.asarray(phi(Fm, Jm)) - _convex_combination(w, p1, p2, mix, scratch)
            excess -= slack
            nonfinite = np.flatnonzero(~np.isfinite(excess))
            i = int(nonfinite[0]) if nonfinite.size else int(np.argmax(excess))
            value = math.nan if nonfinite.size else float(excess[i])
            witness = {
                "F1": F1[i].tolist(),
                "J1": float(J1[i]),
                "F2": F2[i].tolist(),
                "J2": float(J2[i]),
                "weight": float(w),
                "excess": float(excess[i]),
            }
            row.append((int(np.count_nonzero(excess > 0)), value, witness))
        summaries.append(row)
    return summaries


def _convexity_sweep(n, seed, phis, meanwhile=lambda: None):
    """One split-convexity report per functional in ``phis``, and ``meanwhile()``.

    Every functional is evaluated on the same (F, J) pairs and the same
    convex combinations of them: the midpoint and ``WEIGHTS_PER_PAIR``
    random weights, drawn once from ``default_rng(seed)``.  An excess above
    the rounding slack 1e-10 (1 + phi1 + phi2) counts as a violation; a
    non-finite excess makes the worst violation NaN, which fails the check
    and its negative control.

    The functionals must be row-wise (row i of the result depends only on
    row i of F and J): the rows are evaluated in blocks of
    ``SWEEP_BLOCK_ROWS``, and ``_sweep_block`` draws each block's rows from
    (seed, block start) alone.  One worker thread per usable core beyond
    the first, and per block beyond the first, takes blocks from a shared
    iterator, NumPy releasing the GIL in its loops; the calling thread runs
    ``meanwhile``, then takes blocks too, and joins the workers.  The blocks
    merge in row order, so the reports are the same for any core count.  A
    block that raises drains the iterator.  An interrupt stays itself and
    lets no thread take another block; otherwise the first block error in
    row order is raised, and then ``meanwhile``'s own exception.
    """
    rng = np.random.default_rng(seed)
    weights = np.concatenate([[0.5], rng.uniform(0.0, 1.0, WEIGHTS_PER_PAIR)])
    starts = range(0, n, SWEEP_BLOCK_ROWS)
    # Per block: its summaries, or the exception it raised.
    results = [None] * len(starts)
    blocks = iter(range(len(starts)))
    lock = threading.Lock()

    def take():
        with lock:
            return next(blocks, None)

    def drain():
        for _ in iter(take, None):
            pass

    def work():
        for b in iter(take, None):
            try:
                results[b] = _sweep_block(phis, seed, weights, n, starts[b])
            except Exception as exc:
                results[b] = exc
                drain()

    threads = min(_usable_cores(), len(starts)) - 1
    workers = [threading.Thread(target=work, daemon=True) for _ in range(threads)]
    for worker in workers:
        worker.start()
    failed = None
    try:
        try:
            done = meanwhile()
        except Exception as exc:
            failed = exc
        work()
    finally:
        drain()
        for worker in workers:
            worker.join()
    for error in (*results, failed):
        if isinstance(error, Exception):
            raise error
    reports = []
    for k in range(len(phis)):
        worst, witness, violations = -math.inf, {}, 0
        for j in range(len(weights)):
            for count, value, cell_witness in (summary[j][k] for summary in results):
                violations += count
                # Once NaN, always NaN: no later finite excess can clear it.
                if not math.isnan(worst) and not value <= worst:
                    worst, witness = value, cell_witness
        reports.append(
            CheckReport(
                check_name="split_convexity",
                samples=n,
                seed=seed,
                tolerance=0.0,
                worst_violation=worst,
                worst_witness=witness,
                details={"violations": violations, "weights_per_pair": WEIGHTS_PER_PAIR},
            )
        )
    return reports, done


def _negative_control(inner):
    """The control's report from the convexity report of (F.F)/J^2."""
    return CheckReport(
        check_name="split_convexity_negative_control",
        samples=inner.samples,
        seed=inner.seed,
        tolerance=0.0,
        # Negative of the best excess: passing means a violation was found.
        worst_violation=-inner.worst_violation,
        worst_witness=inner.worst_witness,
        details={"violations": inner.details["violations"]},
    )


def check_midpoint_convexity(phi, n, seed):
    """Sampled convexity of a (F, J) functional along random segments.

    ``phi`` maps ((k, 3, 2), (k,)) batches to (k,) values and must be
    row-wise: value i depends only on F[i] and J[i], since the sweep
    evaluates blocks of rows.  It must not keep F or J, whose buffers the
    sweep reuses.  See ``_convexity_sweep`` for the samples and the slack.
    """
    _check_samples(n)
    _check_seed(seed)
    return _convexity_sweep(n, seed, [phi])[0][0]


def check_negative_control(n, seed):
    """(F.F)/J^2 must exhibit at least one midpoint-convexity violation."""
    _check_samples(n)
    _check_seed(seed)
    return _negative_control(_convexity_sweep(n, seed, [shear_over_j_squared])[0][0])


@dataclass(frozen=True)
class RankOneWitness:
    """Rank-one connected pair with a convexity gap at the midpoint."""

    lam: float
    mu: float
    eps: float
    F_plus: np.ndarray
    F_minus: np.ndarray
    F_bar: np.ndarray
    W_plus: float
    W_minus: float
    W_bar: float

    @property
    def gap(self):
        return self.W_bar - 0.5 * (self.W_plus + self.W_minus)


def rank_one_counterexample(model, lam, mu, eps):
    """Build the rank-one connected pair whose midpoint raises the energy.

    F+ and F- share the same stretch pair (lam, mu) while their average has
    stretches (lam, eps * mu); the area-ratio blowup makes the midpoint
    energy exceed the endpoint average for small eps.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidEpsilonError("eps must lie in (0, 1)")
    if not all(_is_real(x) and 0 < x < math.inf for x in (lam, mu)):
        raise ValueError("lam and mu must be positive and finite")
    root = math.sqrt(1.0 - eps**2)
    F_plus = np.array([[lam, 0.0], [0.0, eps * mu], [0.0, mu * root]])
    F_minus = np.array([[lam, 0.0], [0.0, eps * mu], [0.0, -mu * root]])
    F_bar = 0.5 * (F_plus + F_minus)
    W = energy_density_batch(model, np.stack([F_plus, F_minus, F_bar]))
    return RankOneWitness(
        lam=lam,
        mu=mu,
        eps=eps,
        F_plus=F_plus,
        F_minus=F_minus,
        F_bar=F_bar,
        W_plus=float(W[0]),
        W_minus=float(W[1]),
        W_bar=float(W[2]),
    )


def check_rank_one(model, seed):
    """Positive gaps across RANK_ONE_EPS_GRID, growing as eps shrinks.

    The check draws nothing; ``seed`` is only recorded in the report.
    """
    _check_seed(seed)
    lam, mu = RANK_ONE_STRETCHES
    witnesses = [rank_one_counterexample(model, lam, mu, e) for e in RANK_ONE_EPS_GRID]
    gaps = [w.gap for w in witnesses]
    required_positive = list(gaps)
    # Monotonicity: smaller eps must give a strictly larger gap.
    required_positive += [b - a for a, b in zip(gaps, gaps[1:])]
    w0 = witnesses[0]
    return CheckReport(
        check_name="rank_one_failure",
        samples=len(RANK_ONE_EPS_GRID),
        seed=seed,
        tolerance=0.0,
        worst_violation=-float(min(required_positive)),
        worst_witness={
            "lam": lam,
            "mu": mu,
            "eps": w0.eps,
            "F_plus": w0.F_plus.tolist(),
            "F_bar": w0.F_bar.tolist(),
        },
        details={
            "eps_grid": list(RANK_ONE_EPS_GRID),
            "gaps": [float(g) for g in gaps],
            "W_endpoints": [float(w.W_plus) for w in witnesses],
        },
    )


def check_stress_growth(model, n, seed):
    """Kirchhoff-stress growth |(l1 Phi_1, l2 Phi_2)| <= K (Phi + 1).

    K is the model's analytic bound, so the check is an inequality test, not
    an empirical sup chase; the empirical sup is recorded alongside.  The
    corners of STRESS_STRETCH_RANGE are sampled too.
    """
    _check_samples(n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    lo, hi = STRESS_STRETCH_RANGE
    corners = np.array([[lo, lo], [hi, hi], [lo, hi], [hi, lo], [1.0, 1.0]])

    def ratios(lam):
        l1, l2 = _sorted_stretches(lam)
        s1, s2 = model.scaled_stress_coefficients(l1, l2)
        return np.hypot(s1, s2) / (model.energy_from_stretches(l1, l2) + 1.0), (l1, l2)

    # The drawn rows, then the corners.
    blocks = itertools.chain(_log_uniform_blocks(rng, lo, hi, n), [corners])
    ratio, (l1, l2) = _first_largest(blocks, ratios)
    K = model.stress_bound_constant()
    return CheckReport(
        check_name="stress_growth",
        samples=n + len(corners),
        seed=seed,
        tolerance=0.0,
        worst_violation=ratio - K,
        worst_witness={"l1": l1, "l2": l2, "ratio": ratio},
        empirical_constant=ratio,
        details={"K_declared": K},
    )


def check_perturbed_stress_bound(model, delta, n, seed):
    """Perturbed stress bound |W_F(TA) A^T| <= C (W(A) + 1), C = 2K/(1-2K delta).

    T ranges over linear maps of the range of A with |T - 1| < delta; delta
    must lie in [0, ``max_perturbation_delta(model)``) for C to make sense.
    """
    _check_samples(n)
    _check_seed(seed)
    bound = max_perturbation_delta(model)
    if not (_is_real(delta) and delta >= 0):
        raise ValueError(
            f"delta = {delta!r} must be a real number in [0, 1/(2K)) = [0, {bound:.6g})"
        )
    if not delta < bound:
        raise DeltaTooLargeError(f"delta = {delta} must be below 1/(2K) = {bound:.6g}")
    K = model.stress_bound_constant()
    C = 2.0 * K / (1.0 - 2.0 * K * delta)
    rng = np.random.default_rng(seed)
    U, lam, V = _random_svd_factors(rng, n, STRESS_STRETCH_RANGE)
    A = _svd_product(U, lam, V)
    E = rng.standard_normal((n, 2, 2))
    norms = np.linalg.norm(E, axis=(1, 2), keepdims=True)
    E *= (delta * 0.999 * rng.uniform(0.0, 1.0, (n, 1, 1))) / norms
    T2 = np.broadcast_to(np.eye(2), (n, 2, 2)) + E
    # T acts on range(A): TA = U T2 U^T A, and U^T A = diag(lam) V^T.
    TA = _perturbed_svd_product(U, T2, lam, V)
    S = pk1_batch(model, TA)
    lhs = np.linalg.norm(_times_transpose(S, A), axis=(1, 2))
    rhs = energy_density_batch(model, A) + 1.0
    ratios = lhs / rhs
    i = int(np.argmax(ratios))
    l1, l2 = _sorted_stretches(lam)
    (e00, e01), (e10, e11) = E[i].tolist()
    return CheckReport(
        check_name="perturbed_stress_bound",
        samples=n,
        seed=seed,
        tolerance=0.0,
        worst_violation=float(ratios[i] - C),
        worst_witness={
            "l1": float(l1[i]),
            "l2": float(l2[i]),
            "T_deviation": math.sqrt(((e00 * e00 + e01 * e01) + e10 * e10) + e11 * e11),
            "ratio": float(ratios[i]),
        },
        empirical_constant=float(ratios[i]),
        details={"delta": delta, "K_declared": K, "C": C},
    )


def check_growth(model, n, seed):
    """Coercivity flags plus the sampled lower bound W >= C1(|F|^p + J^-r) + C2.

    The fitted constants are C1 = min(min_j b_j, c)/2 and C2 = -4c; the
    stretches span GROWTH_STRETCH_RANGE, and the blowup of Theta is probed
    at J = 1e-6 against the 1e10 floor.
    """
    _check_samples(n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    p = model.growth_exponent
    r = model.theta.r
    c1 = 0.5 * min(min(bj for bj, _ in model.ogden_terms), model.theta.c)
    c2 = -4.0 * model.theta.c

    def shortfalls(lam):
        l1, l2 = _sorted_stretches(lam)
        W = model.energy_from_stretches(l1, l2)
        fnorm = np.hypot(l1, l2)
        J = l1 * l2
        lower = c1 * (fnorm**p + J ** (-r)) + c2
        return (lower - W) / (1.0 + np.abs(W)), (l1, l2, W)

    blocks = _log_uniform_blocks(rng, *GROWTH_STRETCH_RANGE, n)
    shortfall, (l1, l2, W) = _first_largest(blocks, shortfalls)
    blowup = float(model.theta.value(1e-6))
    worst = shortfall
    for ok in (model.coercivity_satisfied, model.strong_coercivity_satisfied, blowup >= 1e10):
        if not ok:
            worst = max(worst, 1.0)
    return CheckReport(
        check_name="coercivity_and_blowup",
        samples=n,
        seed=seed,
        tolerance=0.0,
        worst_violation=worst,
        worst_witness={"l1": l1, "l2": l2, "W": W},
        details={
            "coercivity_satisfied": model.coercivity_satisfied,
            "strong_coercivity_satisfied": model.strong_coercivity_satisfied,
            "sampled_bound_shortfall": shortfall,
            "theta_blowup_at_1e-6": blowup,
            "C1": c1,
            "C2": c2,
            "growth_exponent": p,
        },
    )


def run_all_checks(model: IsotropicModel, seed):
    """The full certificate battery in a fixed order (eight reports).

    The sample counts and the perturbation size are the module constants.
    """
    _check_seed(seed)

    def phi_model(F, J):
        return phi_split_batch(model, F, J)

    def other_checks():
        return [
            check_objectivity(model, n=ROTATION_SAMPLES, seed=seed),
            check_isotropy(model, n=ROTATION_SAMPLES, seed=seed + 1),
            check_rank_one(model, seed=seed),
            check_stress_growth(model, n=STRESS_GROWTH_SAMPLES, seed=seed + 3),
            check_perturbed_stress_bound(
                model, delta=PERTURBATION_DELTA, n=PERTURBATION_SAMPLES, seed=seed + 4
            ),
            check_growth(model, n=GROWTH_SAMPLES, seed=seed + 5),
        ]

    # The convexity check and its negative control share one sweep, whose
    # workers overlap the other checks; those run on the calling thread.
    (split, control), (objectivity, isotropy, *rest) = _convexity_sweep(
        CONVEXITY_SAMPLES, seed + 2, [phi_model, shear_over_j_squared], other_checks
    )
    return [objectivity, isotropy, split, _negative_control(control), *rest]
