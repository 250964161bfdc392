import numpy as np
import pytest

from conftest import outputs_at_blas_threads
from memsurf import build_mesh
from memsurf.mesh import TriMesh
from memsurf.stiffness import LEAF_SIZE, StiffnessSolver


def _dense_stiffness(mesh):
    """K on the free nodes, assembled element by element into a dense matrix."""
    n = mesh.num_vertices
    K = np.zeros((n, n))
    G = mesh.shape_grads
    for t, tri in enumerate(mesh.triangles):
        K[np.ix_(tri, tri)] += mesh.ref_area[t] * G[t] @ G[t].T
    free = mesh.interior_mask()
    return K[np.ix_(free, free)]


# The annulus has two boundary loops.
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


def _tree_nodes(solver, n):
    """(depth, part) of each free node from the fronts' own-node indices."""
    depth = np.full(n, -1)
    part = np.full(n, -1)
    for d, (own, _, _) in enumerate(reversed(solver._fronts)):
        front, slot = np.nonzero(own < n)
        assert np.all(depth[own[front, slot]] == -1)    # each node in one front
        depth[own[front, slot]] = d
        part[own[front, slot]] = front
    assert np.all(depth >= 0)
    return depth, part


@pytest.mark.parametrize("domain,resolution", [("disk", 0.05), ("annulus", 0.05)])
def test_dissection_separates_sibling_subtrees(domain, resolution):
    # Every K entry joins two nodes of one front's own set, or a node and a
    # separator node of one of its ancestors; so no entry crosses between
    # sibling subtrees, and each front's ancestor set holds the ancestor
    # nodes its subtree touches.
    mesh = build_mesh(domain, resolution)
    solver = StiffnessSolver(mesh)
    K = _dense_stiffness(mesh)
    depth, part = _tree_nodes(solver, len(K))
    assert len(solver._fronts) > 3
    i, j = np.nonzero(K)
    deep = depth[i] >= depth[j]
    i, j = i[deep], j[deep]
    assert np.all(part[i] >> (depth[i] - depth[j]) == part[j])
    top = len(solver._fronts) - 1
    for d, (_, anc, _) in enumerate(reversed(solver._fronts)):
        inside = (depth[i] >= d) & (depth[j] < d)
        front = part[i[inside]] >> (depth[i[inside]] - d)
        touched = set(zip(front.tolist(), j[inside].tolist()))
        kept = {(p, v) for p, row in enumerate(anc.tolist()) for v in row if v < len(K)}
        assert touched == kept, d
    assert np.bincount(part[depth == top]).max() <= LEAF_SIZE


def test_free_node_in_no_triangle_raises():
    # A free vertex that no triangle uses has a zero row in K.
    mesh = build_mesh("disk", 0.2)
    lone = TriMesh.from_arrays(np.vstack([mesh.vertices, [[0.01, 0.02]]]), mesh.triangles)
    with pytest.raises(ValueError, match="every free node must be connected to the boundary"):
        StiffnessSolver(lone)


_FACTOR_BYTES = """
import hashlib, sys
import numpy as np
from memsurf import build_mesh
from memsurf.stiffness import StiffnessSolver
mesh = build_mesh("disk", 0.0125)
solver = StiffnessSolver(mesh)
b = np.random.default_rng(3).standard_normal((int(mesh.interior_mask().sum()), 3))
digest = hashlib.sha256()
for _, _, block in solver._fronts:
    digest.update(block.tobytes())
digest.update(solver.solve(b).tobytes())
print(solver._fronts[-1][2].shape[1], digest.hexdigest())
"""


def test_factor_and_solve_bits_do_not_depend_on_blas_threads():
    outputs = outputs_at_blas_threads(_FACTOR_BYTES)
    # The root front's dense inverse is where a threaded BLAS would split
    # the work.
    assert int(outputs[0][0]) >= 150
    assert outputs[0] == outputs[1]
