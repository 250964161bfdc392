import numpy as np
import pytest

from conftest import outputs_at_blas_threads
from memsurf import build_mesh
from memsurf.mesh import TriMesh
from memsurf.stiffness import LEAF_SIZE, StiffnessSolver, _free_entries, _spd_inverse


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


def _reference_entries(mesh):
    """K on the free nodes as a COO list, assembled by np.unique and np.bincount."""
    free = mesh.interior_mask()
    tri = mesh.triangles
    G = mesh.shape_grads
    local = mesh.ref_area[:, None, None] * np.einsum("tad,tbd->tab", G, G)
    i = np.repeat(tri, 3, axis=1).ravel()
    j = np.tile(tri, (1, 3)).ravel()
    nf = int(np.count_nonzero(free))
    index = np.cumsum(free) - 1
    inside = free[i] & free[j]
    keys, inverse = np.unique(index[i[inside]] * nf + index[j[inside]], return_inverse=True)
    return nf, keys // nf, keys % nf, np.bincount(inverse, local.ravel()[inside])


def _reference_dissect(xy, rows, cols, depth):
    """Nested dissection with per-part extents by np.minimum.at and a lexsort per depth."""
    nf = len(xy)
    level = np.full(nf, depth)
    part = np.zeros(nf, dtype=np.int64)
    active = np.ones(nf, dtype=bool)
    for d in range(depth):
        nodes = np.flatnonzero(active)
        by_part = part[nodes]
        lo = np.full((1 << d, 2), np.inf)
        hi = np.full((1 << d, 2), -np.inf)
        np.minimum.at(lo, by_part, xy[nodes])
        np.maximum.at(hi, by_part, xy[nodes])
        axis = np.argmax(hi - lo, axis=1)
        order = nodes[np.lexsort((xy[nodes, axis[by_part]], by_part))]
        count = np.bincount(by_part, minlength=1 << d)
        start = np.cumsum(count) - count
        seg = np.repeat(np.arange(1 << d), count)
        upper = np.zeros(nf, dtype=bool)
        upper[order] = np.arange(nodes.size) - start[seg] >= count[seg] // 2
        part[order] = 2 * seg + upper[order]
        separator = np.zeros(nf, dtype=bool)
        separator[rows[active[rows] & active[cols] & ~upper[rows] & upper[cols]]] = True
        level[separator] = d
        part[separator] >>= 1
        active &= ~separator
    return level, part


def _reference_fronts(mesh):
    """The factor's fronts, set up one depth at a time with a slot search per lookup."""
    nf, rows, cols, vals = _reference_entries(mesh)
    depth = (-(-nf // LEAF_SIZE) - 1).bit_length() if nf else 0
    level, part = _reference_dissect(mesh.vertices[mesh.interior_mask()], rows, cols, depth)
    tree = (1 << level) - 1 + part
    count = np.bincount(tree, minlength=(2 << depth) - 1)
    order = np.argsort(tree, kind="stable")
    own_slot = np.empty(nf, dtype=np.int64)
    own_slot[order] = np.arange(nf) - (np.cumsum(count) - count)[tree[order]]
    deeper = np.where(level[rows] >= level[cols], rows, cols)
    fronts = []
    children = None
    for d in range(depth, -1, -1):
        b = 1 << d
        own = count[b - 1 : 2 * b - 1]
        mI = int(own.max())
        below = (level[rows] >= d) & (level[cols] < d)
        key = np.sort((part[rows[below]] >> (level[rows[below]] - d)) * nf + cols[below])
        key = key[np.diff(key, prepend=-1) > 0]
        front, node = key // nf, key % nf
        n_anc = np.bincount(front, minlength=b)
        first = np.cumsum(n_anc) - n_anc
        mA = int(n_anc.max())
        m = mI + mA

        def slot(p, v):
            return np.where(
                level[v] == d, own_slot[v], mI + np.searchsorted(key, p * nf + v) - first[p]
            )

        own_idx = np.full((b, mI), nf)
        mine = np.flatnonzero(level == d)
        own_idx[part[mine], own_slot[mine]] = mine
        anc_idx = np.full((b, mA), nf)
        anc_idx[front, np.arange(key.size) - first[front]] = node
        F = np.zeros((b, m + 1, m + 1))
        e = np.flatnonzero(level[deeper] == d)
        p = part[deeper[e]]
        F[p, slot(p, rows[e]), slot(p, cols[e])] = vals[e]
        if children is not None:
            child_anc, update = children
            valid = child_anc < nf
            s = np.full_like(child_anc, m)
            s[valid] = slot(np.nonzero(valid)[0] >> 1, child_anc[valid])
            for half in (0, 1):
                c = s[half::2]
                F[np.arange(b)[:, None, None], c[:, :, None], c[:, None, :]] += update[half::2]
        pad_front, pad_slot = np.nonzero(np.arange(mI) >= own[:, None])
        F[pad_front, pad_slot, pad_slot] = 1.0
        F = F[:, :m, :m]
        inverse = _spd_inverse(F[:, :mI, :mI])
        L = np.einsum("bai,bji->baj", F[:, mI:, :mI], inverse)
        children = (anc_idx, F[:, mI:, mI:] - np.einsum("bai,bci->bac", L, F[:, mI:, :mI]))
        fronts.append((own_idx, anc_idx, np.concatenate([inverse, L], axis=1)))
    return fronts


def _same_bits(got, want):
    """Equal shape, dtype and bytes: a -0.0 for a +0.0 fails too."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# Two resolutions of each domain, and a unit square whose nine free nodes
# make a single leaf (depth 0).
_ORACLE_MESHES = [
    ("disk", 0.1),
    ("disk", 0.05),
    ("unit_square", 1 / 16),
    ("unit_square", 1 / 32),
    ("annulus", 0.1),
    ("annulus", 0.05),
    ("unit_square", 0.25),
]


@pytest.mark.parametrize("domain,resolution", _ORACLE_MESHES)
def test_setup_keeps_the_reference_bits(domain, resolution):
    # The entries and every front array are those of the one-depth-at-a-time
    # set-up.
    mesh = build_mesh(domain, resolution)
    entries = _reference_entries(mesh)
    assert all(_same_bits(g, w) for g, w in zip(_free_entries(mesh)[1:], entries[1:]))
    solver = StiffnessSolver(mesh)
    want = _reference_fronts(mesh)
    assert len(solver._fronts) == len(want)
    if resolution == 0.25:
        assert len(want) == 1 and entries[0] <= LEAF_SIZE
    for got_front, want_front in zip(solver._fronts, want):
        assert all(_same_bits(g, w) for g, w in zip(got_front, want_front))
