"""Correctness gate for one CLI invocation; the same for every seed.

Each check returns a list of problems; an empty list means the run passed.
A run with any problem counts as failed, and its timings are kept.
"""

import csv
import os

# Final energies of the shipped configs at the commit that defined this
# benchmark.  The minimizer uses no randomness, so they hold for every seed.
EXPECTED_ENERGY = {
    "sphere_cap": 12.783908421658683,
    "plane_affine": 4.392478112528012,
    "torus_band": 80.21659793722893,
}
ENERGY_RTOL = 1e-6
VERIFY_CHECKS = 8


def _read_table(path):
    """CSV rows as dicts, skipping the leading ``# config_hash`` line."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _read_summary(path):
    fields = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or ": " not in line:
                continue
            key, value = line.rstrip("\n").split(": ", 1)
            fields[key] = value
    return fields


def check_minimize(out_dir, workload, exit_code):
    """Problems with a ``memsurf minimize`` run of ``workload``."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        summary = _read_summary(os.path.join(out_dir, "summary.txt"))
        degrees = _read_table(os.path.join(out_dir, "degree.csv"))
    except OSError as exc:
        return problems + [f"missing output: {exc}"]
    for key, want in (
        ("status", "converged"),
        ("injective", "true"),
        ("injectivity_overlapping_pairs", "0"),
        ("residual_within_10_grad_tol", "true"),
    ):
        if summary.get(key) != want:
            problems.append(f"{key} is {summary.get(key)!r}, want {want!r}")
    agreed, _, total = summary.get("degree_method_agreement", "").partition("/")
    if not (total.isdigit() and int(total) > 0 and agreed == total):
        problems.append(f"degree_method_agreement is {agreed}/{total}")
    if not degrees or str(len(degrees)) != total:
        problems.append(f"degree.csv has {len(degrees)} rows, summary says {total}")
    for i, row in enumerate(degrees):
        if row.get("degree") != "1" or row.get("methods_agree") != "true":
            problems.append(
                f"degree.csv row {i}: degree {row.get('degree')}, "
                f"methods_agree {row.get('methods_agree')}"
            )
    want = EXPECTED_ENERGY[workload]
    try:
        energy = float(summary.get("energy", "nan"))
    except ValueError:
        energy = float("nan")
    if not abs(energy - want) <= ENERGY_RTOL * abs(want):
        problems.append(f"energy {energy!r} differs from {want!r} by more than {ENERGY_RTOL}")
    return problems


def check_verify(out_dir, exit_code):
    """Problems with a ``memsurf verify`` run."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        rows = _read_table(os.path.join(out_dir, "verify_summary.csv"))
    except OSError as exc:
        return problems + [f"missing output: {exc}"]
    if len(rows) != VERIFY_CHECKS:
        problems.append(f"verify_summary.csv has {len(rows)} rows, want {VERIFY_CHECKS}")
    for row in rows:
        if row.get("passed") != "true":
            problems.append(f"check {row.get('check_name')} passed={row.get('passed')}")
    return problems
