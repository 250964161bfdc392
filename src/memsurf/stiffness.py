"""Reference stiffness of the free nodes and its exact nested-dissection solve.

K is the P1 stiffness matrix of the reference mesh, sum_t A_t G_t G_t^T,
restricted to the free (interior) nodes, so the boundary nodes carry a
homogeneous Dirichlet condition.  It acts on each coordinate of an (nf, p)
nodal field in the order of ``mesh.interior_mask()``.

The free nodes are ordered by nested dissection (George 1973; Lipton, Rose &
Tarjan 1979): each part of the reference domain is split at the median of
its longer coordinate extent, and the lower-half nodes with a K entry into
the upper half form the part's separator, so no entry of K joins two sibling
subtrees.  The 2^D leaf parts hold at most ``LEAF_SIZE`` nodes each.  A
multifrontal factor then eliminates the tree deepest first.  The front of a
tree node holds its own nodes I and the ancestor-separator nodes A next to
its subtree, assembled from K and its children's update matrices; its
elimination keeps S^-1 (S = F_II) and L = F_AI S^-1, and hands
F_AA - L F_AI^T to the parent.  The fronts of one depth are padded to one
size and eliminated as one batch, so the factor and each sweep of a solve
take one batched step per depth.  The set-up finds every front's ancestor
nodes and every entry's slots in one pass over all depths; only assembly
and elimination run depth by depth.  K itself is not kept: the factor and
its solve are all that the minimizer needs.  Dense products go through
``np.einsum`` and the solve scatters through ``np.bincount``.  Neither
calls BLAS, so the bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StiffnessSolver"]

# Blocks up to this size are inverted by a Gauss-Jordan sweep; larger ones
# split in two, each half a Schur complement of the other.
SWEEP_SIZE = 16
# The dissection stops once its parts hold at most this many nodes.
LEAF_SIZE = 48


def _sweep_inverse(A):
    """Inverses of a (b, n, n) batch of small SPD matrices by Gauss-Jordan elimination."""
    A = A.copy()
    for k in range(A.shape[1]):
        p = 1.0 / A[:, k, k]
        col = A[:, :, k] * p[:, None]
        row = A[:, k].copy()
        A -= col[:, :, None] * row[:, None, :]
        A[:, k] = row * p[:, None]
        A[:, :, k] = -col
        A[:, k, k] = p
    return A


def _spd_inverse(A):
    """Inverses of a (b, n, n) batch of SPD matrices by recursive 2 x 2 block elimination."""
    n = A.shape[1]
    if n <= SWEEP_SIZE:
        return _sweep_inverse(A)
    h = n // 2
    X = _spd_inverse(A[:, :h, :h])
    T = np.einsum("bij,bjk->bik", X, A[:, :h, h:])
    Y = _spd_inverse(A[:, h:, h:] - np.einsum("bji,bjk->bik", A[:, :h, h:], T))
    TY = np.einsum("bij,bjk->bik", T, Y)
    out = np.empty_like(A)
    out[:, :h, :h] = X + np.einsum("bij,bkj->bik", TY, T)
    out[:, :h, h:] = -TY
    out[:, h:, :h] = -TY.transpose(0, 2, 1)
    out[:, h:, h:] = Y
    return out


def _free_entries(mesh):
    """K on the free nodes as a COO list sorted by row, then column: (nf, rows, cols, vals).

    Each entry sums its elements' terms from zero in element order, the
    order in which np.bincount adds them.
    """
    free = mesh.interior_mask()
    nf = int(np.count_nonzero(free))
    # A_t g_a . g_b on (3, 3, m) planes.  It is symmetric in (a, b) bit for
    # bit, so its transpose is the (m, 3, 3) stack in element order.  (Its
    # zeros may be -0.0 where einsum's are +0.0; a sum started from zero
    # does not see the sign of a zero term.)
    gx, gy = np.ascontiguousarray(mesh.shape_grads.T)
    local = gx[:, None] * gx
    local += gy[:, None] * gy
    local *= mesh.ref_area
    index = np.cumsum(free) - 1                     # free index of each vertex
    corner = index[mesh.triangles]
    inside = free[mesh.triangles]
    inside = (inside[:, :, None] & inside[:, None, :]).ravel()
    key = ((corner * nf)[:, :, None] + corner[:, None, :]).ravel()[inside]
    # A stable sort keeps the terms of each entry in element order.
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    vals = np.bincount(np.cumsum(first) - 1, local.T.reshape(-1)[inside][order])
    key = key[first]
    rows = key // nf
    if np.any(np.bincount(rows, minlength=nf) == 0):   # a free vertex in no triangle
        raise ValueError("every free node must be connected to the boundary")
    return nf, rows, key % nf, vals


def _dissect(xy, rows, cols, depth):
    """Nested dissection of the nodes at xy over the K entries (rows, cols).

    Returns (level, part): node k belongs to the separator of part part[k]
    at depth level[k] of the tree, or to leaf part[k] when level[k] == depth.
    """
    nf = len(xy)
    level = np.full(nf, depth)
    part = np.zeros(nf, dtype=np.int64)
    active = np.ones(nf, dtype=bool)
    grouped = np.arange(nf)                         # the active nodes, by part
    for d in range(depth):
        nodes = np.flatnonzero(active)
        # The narrowest integer type, so the stable sort by part is a radix sort.
        by_part = part[nodes].astype(np.min_scalar_type((1 << d) - 1))
        count = np.bincount(by_part, minlength=1 << d)
        start = np.cumsum(count) - count
        # Extents of the parts that hold nodes (an empty part splits nothing).
        held = count > 0
        extent = np.zeros((1 << d, 2))
        pts = xy[grouped]
        extent[held] = np.maximum.reduceat(pts, start[held]) - np.minimum.reduceat(pts, start[held])
        axis = np.argmax(extent, axis=1)            # the longer extent, x on a tie
        # By part, then coordinate, then node: both sorts are stable.
        order = np.argsort(xy[nodes, axis[by_part]], kind="stable")
        order = nodes[order[np.argsort(by_part[order], kind="stable")]]
        seg = np.repeat(np.arange(1 << d), count)   # the part at each sorted position
        upper = np.zeros(nf, dtype=bool)
        upper[order] = np.arange(nodes.size) - start[seg] >= count[seg] // 2
        part[order] = 2 * seg + upper[order]
        # Active nodes of different parts share no entry, so an entry from
        # a lower-half node to an upper-half one stays inside one part.
        separator = np.zeros(nf, dtype=bool)
        separator[rows[(active & ~upper)[rows] & upper[cols]]] = True
        level[separator] = d
        part[separator] >>= 1
        active &= ~separator
        grouped = order[active[order]]
    return level, part


def _ancestor_keys(level, part, rows, cols, nf):
    """Sorted keys h * nf + v of the ancestor nodes v of every front h.

    Front h (heap numbering: front p of depth d is 2^d - 1 + p) holds,
    beside its own nodes, each node of an ancestor separator that shares a
    K entry with its subtree.  So an entry from a node at depth l to one at
    a shallower depth k puts the second node in the fronts above the first
    at depths k + 1 to l.  The keys are deduplicated by sort: a plain
    np.unique imports numpy.ma.
    """
    row_level, col_level = level[rows], level[cols]
    cross = np.flatnonzero(row_level > col_level)
    reach = row_level[cross] - col_level[cross]
    e = np.repeat(cross, reach)
    up = np.arange(e.size) - np.repeat(np.cumsum(reach) - reach, reach)   # depths above the row
    d = row_level[e] - up
    key = np.sort(((1 << d) - 1 + (part[rows[e]] >> up)) * nf + cols[e])
    return key[np.diff(key, prepend=-1) > 0]


def _bounds(counts):
    """Start of each group, then the end of the last: cumsum with a leading 0."""
    return np.concatenate(([0], np.cumsum(counts)))


class StiffnessSolver:
    """The factor of K on the free nodes of a mesh: ``solve`` is K^-1 b.

    Fields are (nf, p) arrays over the free nodes, in the order of
    ``mesh.interior_mask()``.  The factor keeps, for each tree depth from
    the deepest, the fronts' own and ancestor nodes as (fronts, slots) index
    arrays padded with nf, and their [S^-1; L] blocks stacked in one
    (fronts, own + ancestor slots, own slots) array.
    """

    def __init__(self, mesh):
        nf, rows, cols, vals = _free_entries(mesh)
        # The least depth D with nf <= LEAF_SIZE * 2^D.
        depth = (-(-nf // LEAF_SIZE) - 1).bit_length() if nf else 0
        level, part = _dissect(mesh.vertices[mesh.interior_mask()], rows, cols, depth)
        # Each node is an own node of front tree[k], in heap numbering.
        # Sorts by front run on the narrowest integer type, a radix sort.
        tree = (1 << level) - 1 + part
        count = np.bincount(tree, minlength=(2 << depth) - 1)
        narrow = np.min_scalar_type(count.size)
        order = np.argsort(tree.astype(narrow), kind="stable")
        own = _bounds(count)
        # Slot of each node among the own nodes of its front, in node order.
        own_slot = np.empty(nf, dtype=np.int64)
        own_slot[order] = np.arange(nf) - own[tree[order]]
        # The ancestor nodes of every front; their slots follow the own
        # slots of the widest front of the depth.
        key = _ancestor_keys(level, part, rows, cols, nf)
        front, node = key // nf, key % nf
        n_anc = np.bincount(front, minlength=count.size)
        anc = _bounds(n_anc)
        anc_slot = np.arange(key.size) - anc[front]
        depth_start = (1 << np.arange(depth + 1)) - 1
        own_width = np.maximum.reduceat(count, depth_start)
        anc_width = np.maximum.reduceat(n_anc, depth_start)
        front_depth = np.repeat(np.arange(depth + 1), 1 << np.arange(depth + 1))
        anc_offset = own_width[front_depth] - anc[:-1]

        def slot(h, v):
            """Slots of the nodes v in the fronts h."""
            s = own_slot[v]
            up = np.flatnonzero(tree[v] != h)
            s[up] = np.searchsorted(key, h[up] * nf + v[up]) + anc_offset[h[up]]
            return s

        # Each entry is assembled in the front of its deeper node, the one
        # with the larger heap number: its flat index into the (fronts,
        # m + 1, m + 1) stack of that depth, entries in front order.  Each
        # ancestor node of a front is passed up in the front's update.
        home = np.maximum(tree[rows], tree[cols])
        by_home = np.argsort(home.astype(narrow), kind="stable")
        home = home[by_home]
        side = (own_width + anc_width + 1)[front_depth[home]]
        row_slot, col_slot = slot(home, rows[by_home]), slot(home, cols[by_home])
        entry_at = ((home - depth_start[front_depth[home]]) * side + row_slot) * side + col_slot
        vals = vals[by_home]
        entry = _bounds(np.bincount(home, minlength=count.size))
        parent_slot = slot((front - 1) >> 1, node)
        # Only the flat indices and values go on: the rest would add to the
        # peak memory of the fronts.
        del rows, cols, home, by_home, side, row_slot, col_slot
        self._fronts = []
        children = None                             # (keys, updates) one depth down
        for d in range(depth, -1, -1):
            # Fronts b - 1 to 2b - 2 make up this depth.
            b = 1 << d
            mI, mA = int(own_width[d]), int(anc_width[d])
            m = mI + mA
            mine = order[own[b - 1] : own[2 * b - 1]]
            own_idx = np.full((b, mI), nf)
            own_idx[part[mine], own_slot[mine]] = mine
            here = slice(anc[b - 1], anc[2 * b - 1])
            anc_idx = np.full((b, mA), nf)
            anc_idx[front[here] - (b - 1), anc_slot[here]] = node[here]
            # Each front takes its entries, then its even child's update,
            # then its odd child's, in that order of summation, and a unit
            # diagonal in each empty own slot.  The spare last row and column
            # take the children's padding, which holds exact zeros.  Values
            # go in by flat index into the (b, m + 1, m + 1) stack.
            F = np.zeros((b, m + 1, m + 1))
            flat = F.reshape(-1)
            e = slice(entry[b - 1], entry[2 * b - 1])
            flat[entry_at[e]] = vals[e]
            if children is not None:
                below, update = children
                s = np.full(update.shape[:2], m)
                s[front[below] - (2 * b - 1), anc_slot[below]] = parent_slot[below]
                row = s + (np.arange(2 * b) >> 1)[:, None] * (m + 1)
                for half in (0, 1):
                    flat[row[half::2, :, None] * (m + 1) + s[half::2, None, :]] += update[half::2]
            pad_front, pad_slot = np.nonzero(np.arange(mI) >= count[b - 1 : 2 * b - 1, None])
            F[pad_front, pad_slot, pad_slot] = 1.0
            F = F[:, :m, :m]
            inverse = _spd_inverse(F[:, :mI, :mI])
            L = np.einsum("bai,bji->baj", F[:, mI:, :mI], inverse)
            children = (here, F[:, mI:, mI:] - np.einsum("bai,bci->bac", L, F[:, mI:, :mI]))
            self._fronts.append((own_idx, anc_idx, np.concatenate([inverse, L], axis=1)))

    def solve(self, b):
        """K^-1 b for a field b over the free nodes."""
        nf, p = b.shape
        # Columns of w are the free nodes and one zero slot for the padding.
        w = np.zeros((p, nf + 1))
        w[:, :nf] = b.T
        shift = np.arange(p)[:, None, None] * (nf + 1)
        # Forward, deepest first: y_I = S^-1 w_I, and w_A -= L w_I.
        for own_idx, anc_idx, block in self._fronts:
            out = np.einsum("bij,cbj->cbi", block, w.take(own_idx, axis=1))
            mI = own_idx.shape[1]
            w[:, own_idx] = out[:, :, :mI]
            if anc_idx.size:
                w -= np.bincount(
                    (anc_idx + shift).ravel(), out[:, :, mI:].ravel(), minlength=w.size
                ).reshape(w.shape)
        # Backward, root first: x_I = y_I - L^T x_A.
        for own_idx, anc_idx, block in reversed(self._fronts):
            if anc_idx.size:
                L = block[:, own_idx.shape[1] :]
                w[:, own_idx] = w.take(own_idx, axis=1) - np.einsum(
                    "bai,cba->cbi", L, w.take(anc_idx, axis=1)
                )
        return w[:, :nf].T.copy()
