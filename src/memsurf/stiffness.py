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
take one batched step per depth.  Dense products go through ``np.einsum``
and sparse ones through ``np.bincount``, never through BLAS, so the bits do
not depend on the BLAS thread count.
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
    """K on the free nodes as a COO list sorted by row, then column: (nf, rows, cols, vals)."""
    free = mesh.interior_mask()
    tri = mesh.triangles
    G = mesh.shape_grads
    local = mesh.ref_area[:, None, None] * np.einsum("tad,tbd->tab", G, G)
    i = np.repeat(tri, 3, axis=1).ravel()
    j = np.tile(tri, (1, 3)).ravel()
    nf = int(np.count_nonzero(free))
    index = np.cumsum(free) - 1                     # free index of each vertex
    inside = free[i] & free[j]
    keys, inverse = np.unique(
        index[i[inside]] * nf + index[j[inside]], return_inverse=True
    )
    vals = np.bincount(inverse, local.ravel()[inside])
    rows = keys // nf
    if np.any(np.bincount(rows, minlength=nf) == 0):   # a free vertex in no triangle
        raise ValueError("every free node must be connected to the boundary")
    return nf, rows, keys % nf, vals


def _dissect(xy, rows, cols, depth):
    """Nested dissection of the nodes at xy over the K entries (rows, cols).

    Returns (level, part): node k belongs to the separator of part part[k]
    at depth level[k] of the tree, or to leaf part[k] when level[k] == depth.
    """
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
        axis = np.argmax(hi - lo, axis=1)           # the longer extent, x on a tie
        order = nodes[np.lexsort((xy[nodes, axis[by_part]], by_part))]
        count = np.bincount(by_part, minlength=1 << d)
        start = np.cumsum(count) - count
        seg = np.repeat(np.arange(1 << d), count)   # the part at each sorted position
        upper = np.zeros(nf, dtype=bool)
        upper[order] = np.arange(nodes.size) - start[seg] >= count[seg] // 2
        part[order] = 2 * seg + upper[order]
        # Active nodes of different parts share no entry, so an entry from
        # a lower-half node to an upper-half one stays inside one part.
        separator = np.zeros(nf, dtype=bool)
        separator[rows[active[rows] & active[cols] & ~upper[rows] & upper[cols]]] = True
        level[separator] = d
        part[separator] >>= 1
        active &= ~separator
    return level, part


class StiffnessSolver:
    """K on the free nodes of a mesh: ``apply`` is K v and ``solve`` K^-1 b.

    Fields are (nf, p) arrays over the free nodes, in the order of
    ``mesh.interior_mask()``.  The factor keeps, for each tree depth from
    the deepest, the fronts' own and ancestor nodes as (fronts, slots)
    index arrays padded with nf, and their [S^-1; L] blocks stacked in one
    (fronts, own + ancestor slots, own slots) array.
    """

    def __init__(self, mesh):
        nf, rows, cols, vals = _free_entries(mesh)
        self._entries = (rows, cols, vals)
        # The least depth D with nf <= LEAF_SIZE * 2^D.
        depth = (-(-nf // LEAF_SIZE) - 1).bit_length() if nf else 0
        level, part = _dissect(mesh.vertices[mesh.interior_mask()], rows, cols, depth)
        # Slot of each node among the own nodes of its front, in node order.
        tree = (1 << level) - 1 + part              # heap numbering of the tree
        count = np.bincount(tree, minlength=(2 << depth) - 1)
        order = np.argsort(tree, kind="stable")
        own_slot = np.empty(nf, dtype=np.int64)
        own_slot[order] = np.arange(nf) - (np.cumsum(count) - count)[tree[order]]
        # Each entry is assembled in the front of its deeper node.
        deeper = np.where(level[rows] >= level[cols], rows, cols)
        self._fronts = []
        children = None                             # (ancestor nodes, updates) one depth down
        for d in range(depth, -1, -1):
            b = 1 << d
            own = count[b - 1 : 2 * b - 1]
            mI = int(own.max())
            # Ancestor nodes next to each subtree, sorted by (front, node) and
            # deduplicated by sort: a plain np.unique imports numpy.ma.
            below = (level[rows] >= d) & (level[cols] < d)
            key = np.sort((part[rows[below]] >> (level[rows[below]] - d)) * nf + cols[below])
            key = key[np.diff(key, prepend=-1) > 0]
            front, node = key // nf, key % nf
            n_anc = np.bincount(front, minlength=b)
            first = np.cumsum(n_anc) - n_anc
            mA = int(n_anc.max())
            m = mI + mA

            def slot(p, v):
                """Slot of node v in front p of this depth."""
                return np.where(
                    level[v] == d, own_slot[v], mI + np.searchsorted(key, p * nf + v) - first[p]
                )

            own_idx = np.full((b, mI), nf)
            mine = np.flatnonzero(level == d)
            own_idx[part[mine], own_slot[mine]] = mine
            anc_idx = np.full((b, mA), nf)
            anc_idx[front, np.arange(key.size) - first[front]] = node
            # Each front takes its entries, then its even child's update,
            # then its odd child's, in that order of summation, and a unit
            # diagonal in each empty own slot.  The spare last row and column
            # take the children's padding, which holds exact zeros.
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
            self._fronts.append((own_idx, anc_idx, np.concatenate([inverse, L], axis=1)))

    def apply(self, v):
        """K v for a field v over the free nodes."""
        rows, cols, vals = self._entries
        nf, p = v.shape
        index = (np.arange(p)[:, None] * nf + rows).ravel()
        Kv = np.bincount(index, (v.T[:, cols] * vals).ravel(), minlength=p * nf)
        return Kv.reshape(p, nf).T

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
