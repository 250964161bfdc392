"""Hard-cap ensemble: the minimizer's yardstick on spherical caps near its limits.

Which hard runs converge is decided by rounding, so one run per cap cannot
judge a solver change.  This script runs each cap from several starts and
counts.  Each run is library ``minimize`` on ``Sphere(1.0)`` with a disk
domain and the ``stereographic_cap`` start, at the default model and
gradient tolerance.  Start 0 is the interpolated start.  Start k >= 1 moves
the free rows x by 1e-12 along a random tangent field and projects them
back: ``surface.project(x + 1e-12 * tangent_project_unchecked(x,
default_rng(k).standard_normal(x.shape)))``.

    python3 scripts/hard_caps.py --out hard.json           # the full grid, 84 runs
    python3 scripts/hard_caps.py --latitudes 2.8 --resolutions 0.1 --starts 2
    python3 scripts/hard_caps.py --first-start 6 --starts 24   # held-out starts 6 to 29

The full grid is latitudes 2.4 to 3.0 in steps of 0.1, at h = 0.1 and
h = 0.05, with 6 starts per cap.  BLAS runs on one thread.  The JSON result
holds one row per run, the totals per cap and overall, and the OpenBLAS
kernel the process ran on.  A stalled or ``max_iter`` run is classed by its
final min J: ``j_floor`` below ``STALL_J_SPLIT`` (such runs end at the area
floor, min J about 1e-8), ``noise_floor`` otherwise (they end at the energy's
minimum, min J 0.49 or more).
"""

import os

# One BLAS thread, fixed before NumPy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from memsurf.constitutive import IsotropicModel  # noqa: E402
from memsurf.geometry import Sphere  # noqa: E402
from memsurf.maps import make_initial_map  # noqa: E402
from memsurf.mesh import build_mesh  # noqa: E402
from memsurf.minimizer import initialize, minimize  # noqa: E402

LATITUDES = tuple(round(2.4 + 0.1 * i, 1) for i in range(7))
RESOLUTIONS = (0.1, 0.05)
STARTS = 6
START_SHIFT = 1e-12
# Final min J below which a run that did not converge stalled on the area floor.
STALL_J_SPLIT = 1e-4


def openblas_core():
    """The OpenBLAS kernel this process runs, or None when NumPy's BLAS is
    not a scipy-openblas build found beside NumPy."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if config.get("name") != "scipy-openblas":
        return None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def start_positions(surface, mesh, latitude, start):
    """Start ``start`` of the cap at ``latitude``, as the module docstring defines it."""
    positions = initialize(
        surface, mesh, make_initial_map(surface, "stereographic_cap", latitude=latitude)
    )
    if start:
        free = mesh.interior_mask()
        x = positions[free]
        field = np.random.default_rng(start).standard_normal(x.shape)
        positions[free] = surface.project(
            x + START_SHIFT * surface.tangent_project_unchecked(x, field)
        )
    return positions


def stall_kind(status, min_j):
    if status == "converged":
        return None
    return "j_floor" if min_j < STALL_J_SPLIT else "noise_floor"


def run_cap(model, latitude, resolution, starts):
    """One row per start in ``starts`` of the cap at ``latitude`` on a disk
    mesh of ``resolution``."""
    surface = Sphere(1.0)
    mesh = build_mesh("disk", resolution)
    rows = []
    for start in starts:
        _, report = minimize(model, surface, mesh, start_positions(surface, mesh, latitude, start))
        min_j = report.min_j_history[-1]
        rows.append(
            {
                "latitude": latitude,
                "resolution": resolution,
                "start": start,
                "status": report.status,
                "iterations": report.iterations,
                "backtracks": sum(report.backtracks),
                "infeasible_trials": sum(report.infeasible_trials),
                "grad_norm": report.grad_history[-1],
                "energy": report.energy_history[-1],
                "min_j": min_j,
                "stall": stall_kind(report.status, min_j),
            }
        )
    return rows


def totals(rows):
    """Run, convergence and stall counts, and the backtrack and infeasible
    totals over the converged runs."""
    converged = [r for r in rows if r["status"] == "converged"]
    return {
        "runs": len(rows),
        "converged": len(converged),
        "j_floor": sum(r["stall"] == "j_floor" for r in rows),
        "noise_floor": sum(r["stall"] == "noise_floor" for r in rows),
        "backtracks": sum(r["backtracks"] for r in converged),
        "infeasible_trials": sum(r["infeasible_trials"] for r in converged),
    }


def ensemble(latitudes=LATITUDES, resolutions=RESOLUTIONS, starts=STARTS, first_start=0):
    """Rows, per-cap totals and overall totals of the grid, over the starts
    ``first_start`` to ``first_start + starts - 1`` of each cap."""
    model = IsotropicModel()
    rows, caps = [], []
    for resolution in resolutions:
        for latitude in latitudes:
            cap = run_cap(model, latitude, resolution, range(first_start, first_start + starts))
            rows += cap
            caps.append({"latitude": latitude, "resolution": resolution, **totals(cap)})
    return {
        "openblas_core": openblas_core(),
        "numpy": np.__version__,
        "grid": {
            "latitudes": list(latitudes),
            "resolutions": list(resolutions),
            "starts": starts,
            "first_start": first_start,
        },
        "rows": rows,
        "caps": caps,
        "totals": totals(rows),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latitudes", type=float, nargs="+", default=LATITUDES)
    parser.add_argument("--resolutions", type=float, nargs="+", default=RESOLUTIONS)
    parser.add_argument("--starts", type=int, default=STARTS)
    parser.add_argument(
        "--first-start", type=int, default=0,
        help="number of the first start (default 0, the interpolated start); "
        "a later one gives a disjoint set of shifted starts",
    )
    parser.add_argument("--out", help="write the JSON result here (default: stdout)")
    args = parser.parse_args(argv)
    result = ensemble(args.latitudes, args.resolutions, args.starts, args.first_start)
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for cap in result["caps"]:
        print(
            f"latitude {cap['latitude']:.1f} h {cap['resolution']}: "
            f"{cap['converged']}/{cap['runs']} converged, "
            f"{cap['j_floor']} j_floor, {cap['noise_floor']} noise_floor",
            file=sys.stderr,
        )
    print(f"totals: {json.dumps(result['totals'])}", file=sys.stderr)


if __name__ == "__main__":
    main()
