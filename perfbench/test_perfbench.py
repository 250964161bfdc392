"""Tests of the benchmark itself: the correctness gate and the metric names.

Run with ``python -m pytest perfbench``; they need no benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gate
import layers
import run

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

GOOD_SUMMARY = """\
# config_hash=0000000000000000
status: converged
iterations: 452
energy: 12.783908421658683
injectivity_checked_pairs: 11330
injectivity_overlapping_pairs: 0
injectivity_overlap_area: 0.0
injective: true
degree_points: 2
degree_method_agreement: 2/2
residual_fields: 12
residual_within_10_grad_tol: true
"""

GOOD_DEGREES = """\
# config_hash=0000000000000000
x,y,z,degree,mollified_integral,methods_agree
0.1,0.2,0.97,1,1.0000095829061748,true
0.3,0.1,0.94,1,0.9999949805394139,true
"""

VERIFY_ROWS = [
    "objectivity,1000,5.6e-13,true",
    "isotropy,1000,5.7e-13,true",
    "split_convexity,100000,-0.00016,true",
    "split_convexity_negative_control,100000,-354.5,true",
    "rank_one_failure,4,-936.7,true",
    "stress_growth,100005,-3.99,true",
    "perturbed_stress_bound,10000,-17.9,true",
    "coercivity_and_blowup,100000,-0.5,true",
]


def _minimize_output(path, summary=GOOD_SUMMARY, degrees=GOOD_DEGREES):
    path.mkdir()
    (path / "summary.txt").write_text(summary)
    (path / "degree.csv").write_text(degrees)
    return str(path)


def _verify_output(path, rows=VERIFY_ROWS):
    path.mkdir()
    header = "# config_hash=0000000000000000\ncheck_name,samples,worst_violation,passed\n"
    (path / "verify_summary.csv").write_text(header + "\n".join(rows) + "\n")
    return str(path)


def test_gate_passes_good_minimize_output(tmp_path):
    assert gate.check_minimize(_minimize_output(tmp_path / "out"), "sphere_cap", 0) == []


@pytest.mark.parametrize(
    "summary, degrees, exit_code",
    [
        (GOOD_SUMMARY.replace("injective: true", "injective: false"), GOOD_DEGREES, 0),
        (GOOD_SUMMARY, GOOD_DEGREES.replace(",1,0.99", ",0,0.99"), 0),
        (
            GOOD_SUMMARY.replace("12.783908421658683", repr(12.783908421658683 * (1 + 1e-3))),
            GOOD_DEGREES,
            0,
        ),
        (GOOD_SUMMARY, GOOD_DEGREES, 3),
        (GOOD_SUMMARY.replace("status: converged", "status: max_iter"), GOOD_DEGREES, 0),
        (GOOD_SUMMARY.replace("agreement: 2/2", "agreement: 1/2"), GOOD_DEGREES, 0),
        (GOOD_SUMMARY.replace("overlapping_pairs: 0", "overlapping_pairs: 1"), GOOD_DEGREES, 0),
        (GOOD_SUMMARY.replace("tol: true", "tol: false"), GOOD_DEGREES, 0),
    ],
    ids=[
        "not_injective",
        "degree_zero",
        "energy_off_1e-3",
        "nonzero_exit",
        "not_converged",
        "methods_disagree",
        "overlapping_pair",
        "residual_too_large",
    ],
)
def test_gate_rejects_bad_minimize_output(tmp_path, summary, degrees, exit_code):
    out = _minimize_output(tmp_path / "out", summary, degrees)
    assert gate.check_minimize(out, "sphere_cap", exit_code)


def test_gate_rejects_missing_minimize_output(tmp_path):
    assert gate.check_minimize(str(tmp_path / "absent"), "plane_affine", 0)


def test_gate_verify(tmp_path):
    assert gate.check_verify(_verify_output(tmp_path / "good"), 0) == []
    assert gate.check_verify(_verify_output(tmp_path / "exit"), 1)
    failing = VERIFY_ROWS[:-1] + [VERIFY_ROWS[-1].replace("true", "false")]
    assert gate.check_verify(_verify_output(tmp_path / "failing", failing), 0)
    assert gate.check_verify(_verify_output(tmp_path / "short", VERIFY_ROWS[:7]), 0)


def test_end_to_end_names_match_spec():
    # The speed probe ran at half its nominal speed, so times read half.
    slow = {"probe_s": [2 * run.PROBE_S] * 4, "probe_at_setup_end": 2, "probe_in_solve": [1, 3]}
    runs = [{"wall_s": 1.0, "rss_mb": 50.0, "setup_s": 0.3, "marks": dict(slow, solve_s=0.5)}]
    metrics = run.end_to_end_metrics(runs, [{"setup_s": 0.2, "marks": {}}])
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit, _, _) in metrics.items()} == spec
    assert metrics["setup_s"][3] == [0.2, 0.3]
    # The set-up probe took no sample, so it is scaled as the others are.
    assert metrics["setup_s"][0] == pytest.approx([0.1, 0.15])
    assert metrics["run_s"][2] == pytest.approx(0.5)
    assert metrics["solve_s"][2] == pytest.approx(0.25)
    assert metrics["peak_rss_mb"][2] == 50.0


TINY_CONFIG = """\
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.25, radius: 1.0}
initial_map: {kind: stereographic_cap, latitude: 1.0471975511965976}
diagnostics: {injectivity: true, degree_points: 3, residual_fields: 3}
output_dir: out
seed: 5
"""


def test_traced_run_gives_every_per_layer_metric(tmp_path):
    """Trace a small real run; the wrappers must fit the package as it is."""
    (tmp_path / "tiny.yaml").write_text(TINY_CONFIG)
    marks = tmp_path / "marks.json"
    argv = [sys.executable, run.LAUNCH, "trace", run.SRC, str(marks), "--"]
    proc = subprocess.run(
        argv + ["minimize", "tiny.yaml"], cwd=tmp_path, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    spans = json.loads(marks.read_text())["spans"]
    metrics = layers.layer_metrics(spans, 2.0, 1.5)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec
    for name in (
        "minimizer.iterations",
        "discretization.trial_energy.calls",
        "constitutive.pk1_batch.rows",
        "geometry.project.points",
        "geometry.chart.builds",
        "diagnostics.injectivity.checked_pairs",
        "mesh.triangles",
    ):
        assert metrics[name][0] > 0, name
    assert metrics["diagnostics.degree.calls"][0] == 3
    assert metrics["diagnostics.residual.fields"][0] == 3
    # Self times add up to the root span: nothing is counted twice.
    total = sum(end - start for name, start, end, parent, info in spans if parent < 0)
    assert metrics["trace.layer_self_s"][0] == pytest.approx(total, rel=1e-9)


def test_spec_contract():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plane_affine", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
