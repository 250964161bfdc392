"""Command-line driver: verify, minimize, degree, residual.

Every run is specified by one YAML configuration file; the only positional
arguments are the subcommand and that path.  Outputs land in the config's
``output_dir``: CSV tables for machine reading, structured-text summaries
for humans, and Wavefront-style meshes for viewers.  All files carry the
configuration hash in a leading comment line, and repeated runs with the
same file are byte-identical except for recorded wall time in summaries.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import parse_config_file
from .diagnostics import (
    brouwer_degree,
    first_variation_residual,
    injectivity_check,
)
from .discretization import interpolate, oriented_area_ratios
from .errors import (
    AmbiguousProjectionError,
    ConfigError,
    InfeasibleStartError,
    MemsurfError,
)
from .mesh import save_mesh
from .minimizer import initialize, minimize
from .verification import run_all_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MAX_ITER = 3
EXIT_INFEASIBLE = 4
EXIT_RUNTIME = 5
# A stalled line search is a runtime failure whose tables are still written.
STATUS_EXIT = {"converged": EXIT_OK, "max_iter": EXIT_MAX_ITER, "stalled": EXIT_RUNTIME}


def _write_csv(path, config_hash, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    repr(float(x)) if isinstance(x, (float, np.floating)) else x
                    for x in row
                ]
            )


def _write_text(path, config_hash, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(text)


def _cmd_verify(config, out):
    reports = run_all_checks(config.model(), seed=config.seed)
    rows = [
        (r.check_name, r.samples, r.worst_violation, str(r.passed).lower())
        for r in reports
    ]
    _write_csv(
        os.path.join(out, "verify_summary.csv"),
        config.config_hash,
        ["check_name", "samples", "worst_violation", "passed"],
        rows,
    )
    for r in reports:
        _write_text(
            os.path.join(out, f"verify_{r.check_name}.txt"),
            config.config_hash,
            r.to_text(),
        )
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.check_name}  worst_violation={r.worst_violation!r}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _sample_degree_targets(surface, mesh, positions, n, seed):
    """Deterministic interior target points: random barycentric draws."""
    rng = np.random.default_rng(seed)
    P = positions[mesh.triangles]
    areas = np.abs(oriented_area_ratios(mesh, surface, positions)) * mesh.ref_area
    prob = areas / areas.sum()
    idx = rng.choice(len(prob), size=n, p=prob)
    # Barycentric weights in (0.2, 0.6) before normalizing put each target
    # well inside its drawn element; the degree count needs no such margin.
    w = rng.uniform(0.2, 0.6, size=(n, 3))
    w /= w.sum(axis=1, keepdims=True)
    return np.einsum("nv,nvi->ni", w, P[idx])


def _write_degrees(path, config, results):
    """Write a degree table from DegreeResults, one row per target point."""
    rows = [
        (
            *map(float, res.target_point),
            res.degree,
            res.mollified_integral,
            str(res.methods_agree).lower(),
        )
        for res in results
    ]
    _write_csv(
        path,
        config.config_hash,
        ["x", "y", "z", "degree", "mollified_integral", "methods_agree"],
        rows,
    )


def _write_residuals(path, config, results):
    """Write a residual table; returns the worst normalized Lagrangian residual."""
    rows = [
        (
            r.test_field_id,
            r.lagrangian_residual,
            r.eulerian_residual,
            r.normalization,
            str(r.admissible).lower(),
        )
        for r in results
    ]
    _write_csv(
        path,
        config.config_hash,
        [
            "test_field_id",
            "lagrangian_residual",
            "eulerian_residual",
            "normalization",
            "admissible",
        ],
        rows,
    )
    return max(abs(r.lagrangian_residual) / max(r.normalization, 1e-300) for r in results)


def _run_diagnostics(config, model, surface, mesh, positions, out, grad_tol):
    diag = config.diagnostics_params()
    lines = []
    if diag["injectivity"]:
        rep = injectivity_check(surface, mesh, positions)
        lines.append(f"injectivity_checked_pairs: {rep.checked_pairs}")
        lines.append(f"injectivity_overlapping_pairs: {rep.overlapping_pairs}")
        lines.append(f"injectivity_overlap_area: {rep.total_overlap_area!r}")
        lines.append(f"injective: {str(rep.injective).lower()}")
    if diag["degree_points"] > 0:
        targets = surface.project(
            _sample_degree_targets(
                surface, mesh, positions, diag["degree_points"], config.seed
            )
        )
        # One call per target: perfbench's traced run counts degree calls
        # as targets (perfbench/test_perfbench.py).
        results = []
        for i, y in enumerate(targets):
            try:
                results.append(brouwer_degree(surface, mesh, positions, y))
            except MemsurfError as exc:
                where = ", ".join(f"{c:.6g}" for c in y)
                raise type(exc)(f"degree target {i} at [{where}]: {exc}") from exc
        agree = sum(res.methods_agree for res in results)
        _write_degrees(os.path.join(out, "degree.csv"), config, results)
        lines.append(f"degree_points: {len(results)}")
        lines.append(f"degree_method_agreement: {agree}/{len(results)}")
    if diag["residual_fields"] > 0:
        results = first_variation_residual(
            model,
            surface,
            mesh,
            positions,
            family_size=diag["residual_fields"],
            seed=config.seed,
        )
        worst = _write_residuals(os.path.join(out, "residuals.csv"), config, results)
        lines.append(f"residual_fields: {len(results)}")
        lines.append(f"max_normalized_residual: {worst!r}")
        lines.append(f"residual_within_10_grad_tol: {str(worst <= 10 * grad_tol).lower()}")
    return lines


def _cmd_minimize(config, out):
    surface = config.surface()
    model = config.model()
    mesh = config.mesh()
    f0 = config.initial_map(surface)
    positions, report = minimize(
        model, surface, mesh, initialize(surface, mesh, f0), config.grad_tol()
    )

    rows = zip(
        range(len(report.energy_history)),
        report.energy_history,
        report.grad_history,
        report.min_j_history,
        [0.0] + report.step_history,
        [0] + report.backtracks,
        [0] + report.infeasible_trials,
        [0] + report.projection_failures,
    )
    _write_csv(
        os.path.join(out, "energy_history.csv"),
        config.config_hash,
        [
            "iteration",
            "energy",
            "grad_norm",
            "min_J",
            "step",
            "backtracks",
            "infeasible_trials",
            "projection_failures",
        ],
        rows,
    )
    save_mesh(
        os.path.join(out, "reference_mesh.obj"),
        mesh.vertices,
        mesh.triangles,
        comments=[f"config_hash={config.config_hash}", "reference domain (z = 0)"],
    )
    save_mesh(
        os.path.join(out, "final_config.obj"),
        positions,
        mesh.triangles,
        comments=[f"config_hash={config.config_hash}", "deformed configuration"],
    )

    lines = [
        f"status: {report.status}",
        f"iterations: {report.iterations}",
        f"trials: {report.trials}",
        f"backtracks: {sum(report.backtracks)}",
        f"infeasible_trials: {sum(report.infeasible_trials)}",
        f"projection_failures: {sum(report.projection_failures)}",
        f"energy: {report.energy_history[-1]!r}",
        f"final_grad_norm: {report.grad_history[-1]!r}",
        f"grad_tol: {report.grad_tol!r}",
        f"min_element_J: {report.min_j_history[-1]!r}",
        f"vertices: {mesh.num_vertices}",
        f"triangles: {mesh.num_triangles}",
        f"wall_time_s: {report.wall_time:.3f}",
    ]
    if report.status == "converged":
        lines += _run_diagnostics(config, model, surface, mesh, positions, out, report.grad_tol)
    _write_text(
        os.path.join(out, "summary.txt"), config.config_hash, "\n".join(lines) + "\n"
    )
    for line in lines:
        print(line)
    if report.status == "stalled":
        print(
            f"error: line search underflowed at iteration {report.iterations} "
            f"(|g_T| = {report.grad_history[-1]:.3e}, tol = {report.grad_tol:.3e})",
            file=sys.stderr,
        )
    return STATUS_EXIT[report.status]


def _cmd_degree(config, out, point):
    surface = config.surface()
    mesh = config.mesh()
    f0 = config.initial_map(surface)
    positions = interpolate(surface, mesh, f0)
    try:
        y = surface.project(np.asarray(point, dtype=float))
    except AmbiguousProjectionError as exc:
        shown = " ".join(map(repr, point))
        print(
            f"error: --point {shown} has no closest point on the surface: {exc}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    res = brouwer_degree(surface, mesh, positions, y)
    _write_degrees(os.path.join(out, "initial_degree.csv"), config, [res])
    print(f"degree: {res.degree}")
    print(f"mollified_integral: {res.mollified_integral!r}")
    print(f"methods_agree: {str(res.methods_agree).lower()}")
    return EXIT_OK


def _cmd_residual(config, out):
    surface = config.surface()
    model = config.model()
    mesh = config.mesh()
    f0 = config.initial_map(surface)
    positions = interpolate(surface, mesh, f0)
    diag = config.diagnostics_params()
    results = first_variation_residual(
        model,
        surface,
        mesh,
        positions,
        family_size=max(1, diag["residual_fields"]),
        seed=config.seed,
    )
    worst = _write_residuals(os.path.join(out, "initial_residuals.csv"), config, results)
    print(f"test_fields: {len(results)}")
    print(f"max_normalized_residual: {worst!r}")
    return EXIT_OK


def _as_point_values(argv):
    """argv with the three tokens after ``--point`` read as values.

    argparse takes a token such as ``-inf`` or ``-nan`` (unlike ``-0.5``)
    for an option flag.  A leading space makes any token a value, and
    ``float`` ignores it, so a non-finite point reaches the finite check.
    """
    argv = list(argv)
    for i, token in enumerate(argv):
        if token != "--point":
            continue
        for j in range(i + 1, min(i + 4, len(argv))):
            try:
                float(argv[j])
            except ValueError:
                continue
            argv[j] = " " + argv[j]
    return argv


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="memsurf",
        description="Surface-constrained membrane energies: verification, "
        "minimization, and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "minimize", "residual"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the YAML run configuration")
    degree = sub.add_parser("degree")
    degree.add_argument("config", help="path to the YAML run configuration")
    degree.add_argument(
        "--point",
        nargs=3,
        type=float,
        required=True,
        metavar=("X", "Y", "Z"),
        help="ambient target point (projected onto the surface)",
    )
    args = parser.parse_args(_as_point_values(sys.argv[1:] if argv is None else argv))
    if args.command == "degree" and not np.all(np.isfinite(args.point)):
        degree.error(f"--point must be finite, got {' '.join(map(repr, args.point))}")

    try:
        config = parse_config_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = config.output_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"config error: output_dir {out!r}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "verify":
            return _cmd_verify(config, out)
        if args.command == "minimize":
            return _cmd_minimize(config, out)
        if args.command == "degree":
            return _cmd_degree(config, out, args.point)
        if args.command == "residual":
            return _cmd_residual(config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleStartError as exc:
        print(f"infeasible start: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
