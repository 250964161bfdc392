"""Outputs that repeat: across BLAS kernels, and across runs of the hard-cap ensemble."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SRC

ROOT = os.path.dirname(SRC)
HARD_CAPS = os.path.join(ROOT, "scripts", "hard_caps.py")

# The OpenBLAS kernel a fresh process runs, as the loaded library names it.
CORENAME = f"import sys; sys.path.insert(0, {os.path.dirname(HARD_CAPS)!r}); " \
    "import hard_caps; print(hard_caps.openblas_core())"

CAP = """
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.1, radius: 1.0}
initial_map: {kind: stereographic_cap, latitude: 2.2}
diagnostics: {injectivity: true, degree_points: 10, residual_fields: 6}
output_dir: runs/cap
seed: 3
"""
TABLES = ("energy_history.csv", "degree.csv", "residuals.csv", "final_config.obj")


def _run(args, cwd, coretype=None):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.skipif(
    np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name") != "scipy-openblas",
    reason="OPENBLAS_CORETYPE picks kernels in NumPy's scipy-openblas build only",
)
def test_minimize_tables_equal_on_prescott_kernels(tmp_path):
    # NumPy cannot switch BLAS kernels once loaded, so each kernel gets its
    # own process; no product on the solver or diagnostic paths runs in BLAS,
    # so the SSE3 kernels give the default kernel's bytes.
    if _run(["-c", CORENAME], tmp_path, "Prescott") == _run(["-c", CORENAME], tmp_path):
        pytest.skip("the default OpenBLAS kernel is the Prescott one")
    (tmp_path / "cap.yaml").write_text(CAP)
    tables = []
    for coretype in (None, "Prescott"):
        _run(["-W", "error", "-m", "memsurf", "minimize", "cap.yaml"], tmp_path, coretype)
        out = tmp_path / "runs" / "cap"
        tables.append({name: (out / name).read_bytes() for name in TABLES})
        out.rename(tmp_path / "runs" / f"cap-{coretype}")
    assert tables[0] == tables[1]


def test_hard_cap_rows_repeat(tmp_path):
    # One cap, two starts (the interpolated one and one shifted by 1e-12):
    # two runs of the script give the same rows, counters and stall kinds.
    args = [HARD_CAPS, "--latitudes", "2.8", "--resolutions", "0.1", "--starts", "2"]
    first, second = (json.loads(_run(args, tmp_path)) for _ in range(2))
    assert [row["start"] for row in first["rows"]] == [0, 1]
    assert first["rows"] == second["rows"]
    assert first["caps"] == second["caps"] and first["totals"] == second["totals"]
    assert first["totals"]["runs"] == 2
