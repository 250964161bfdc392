import os
import subprocess
import sys

import numpy as np
import pytest

from memsurf import build_mesh
from memsurf.stiffness import StiffnessSolver

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _dense_stiffness(mesh):
    """K on the free nodes, assembled element by element into a dense matrix."""
    n = mesh.num_vertices
    K = np.zeros((n, n))
    G = mesh.shape_grads
    for t, tri in enumerate(mesh.triangles):
        K[np.ix_(tri, tri)] += mesh.ref_area[t] * G[t] @ G[t].T
    free = mesh.interior_mask()
    return K[np.ix_(free, free)]


# The annulus has two boundary loops: its levels grow from both and meet.
@pytest.mark.parametrize(
    "domain,resolution", [("disk", 0.05), ("unit_square", 1 / 32), ("annulus", 0.05)]
)
def test_level_solve_is_exact(domain, resolution):
    mesh = build_mesh(domain, resolution)
    solver = StiffnessSolver(mesh)
    K = _dense_stiffness(mesh)
    b = np.random.default_rng(7).standard_normal((len(K), 3))
    x = solver.solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert np.abs(solver.apply(b) - K @ b).max() <= 1e-13 * np.abs(K).max()


def test_levels_follow_the_edges():
    # Breadth-first levels from the boundary: every free node next to the
    # boundary is in level 0, and each mesh edge joins nodes of the same or
    # of adjacent levels, so K is block tridiagonal.
    mesh = build_mesh("annulus", 0.1)
    solver = StiffnessSolver(mesh)
    free = np.flatnonzero(mesh.interior_mask())
    level = np.empty(mesh.num_vertices, dtype=int)
    level[free[solver.perm]] = np.repeat(
        np.arange(len(solver.offsets) - 1), np.diff(solver.offsets)
    )
    level[mesh.boundary_vertices] = -1
    tri = mesh.triangles
    for a, b in ((0, 1), (1, 2), (2, 0)):
        assert np.abs(level[tri[:, a]] - level[tri[:, b]]).max() <= 1
    touches_boundary = np.isin(tri, mesh.boundary_vertices).any(axis=1)
    near = np.setdiff1d(tri[touches_boundary].ravel(), mesh.boundary_vertices)
    assert np.all(level[near] == 0)


_FACTOR_BYTES = """
import hashlib, sys
import numpy as np
from memsurf import build_mesh
from memsurf.stiffness import StiffnessSolver
solver = StiffnessSolver(build_mesh("disk", 0.025))
b = np.random.default_rng(3).standard_normal((solver.perm.size, 3))
digest = hashlib.sha256()
for block in solver._inverses:
    digest.update(block.tobytes())
digest.update(solver.solve(b).tobytes())
print(max(len(block) for block in solver._inverses), digest.hexdigest())
"""


def test_factor_and_solve_bits_do_not_depend_on_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _FACTOR_BYTES],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout.split())
    # The largest level block is where a threaded BLAS would split the work.
    assert int(outputs[0][0]) >= 200
    assert outputs[0] == outputs[1]
