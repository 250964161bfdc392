"""Reference stiffness of the free nodes and its exact level-by-level solve.

K is the P1 stiffness matrix of the reference mesh, sum_t A_t G_t G_t^T,
restricted to the free (interior) nodes, so the boundary nodes carry a
homogeneous Dirichlet condition.  It acts on each coordinate of an (nf, 3)
nodal field in the order of ``mesh.interior_mask()``.

Breadth-first levels from the boundary (level 0 holds the free nodes that
share an element with a boundary node) make K block tridiagonal, because a
mesh edge joins nodes of the same or of adjacent levels (the level structure
of Cuthill & McKee 1969).  Block elimination then needs only the dense
inverses of the Schur complements S_0 = K_00 and
S_k = K_kk - B_k S_{k-1}^-1 B_k^T, where B_k = K_{k,k-1} stays sparse; a
solve is one forward and one backward sweep over the levels.  Dense products
go through ``np.einsum`` and sparse ones through ``np.bincount``, never
through BLAS, so the bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StiffnessSolver"]

# Blocks up to this size are inverted by a Gauss-Jordan sweep; larger ones
# split in two, each half a Schur complement of the other.
SWEEP_SIZE = 16


def _sweep_inverse(A):
    """Inverse of a small SPD matrix by Gauss-Jordan elimination."""
    A = A.copy()
    for k in range(len(A)):
        p = 1.0 / A[k, k]
        col = A[:, k].copy()
        row = A[k].copy()
        A -= np.multiply.outer(col * p, row)
        A[k] = row * p
        A[:, k] = -col * p
        A[k, k] = p
    return A


def _spd_inverse(A):
    """Inverse of an SPD matrix by recursive 2 x 2 block elimination."""
    n = len(A)
    if n <= SWEEP_SIZE:
        return _sweep_inverse(A)
    h = n // 2
    X = _spd_inverse(A[:h, :h])
    T = np.einsum("ij,jk->ik", X, A[:h, h:])
    Y = _spd_inverse(A[h:, h:] - np.einsum("ji,jk->ik", A[:h, h:], T))
    TY = np.einsum("ij,jk->ik", T, Y)
    out = np.empty_like(A)
    out[:h, :h] = X + np.einsum("ij,kj->ik", TY, T)
    out[:h, h:] = -TY
    out[h:, :h] = -TY.T
    out[h:, h:] = Y
    return out


def _times_transpose(rows, cols, vals, M, n):
    """M B^T for the (p, .) array M and the COO matrix B with n rows."""
    p = M.shape[0]
    index = (np.arange(p)[:, None] * n + rows).ravel()
    weights = (M[:, cols] * vals).ravel()
    return np.bincount(index, weights, minlength=p * n).reshape(p, n)


def _levels(num_vertices, i, j, free):
    """Breadth-first level of each vertex over the pairs (i, j): -1 on the
    boundary, 0 next to it, and so on."""
    level = np.where(free, -2, -1)                  # -2: not reached yet
    frontier = ~free
    k = 0
    while frontier.any():
        reached = np.zeros(num_vertices, dtype=bool)
        reached[j[frontier[i]]] = True
        frontier = reached & (level == -2)
        level[frontier] = k
        k += 1
    if np.any(level == -2):
        raise ValueError("every free node must be connected to the boundary")
    return level


def _level_ordered_entries(mesh):
    """K on the free nodes, numbered level by level, as a sorted COO list.

    Returns (perm, sizes, rows, cols, vals): ``perm[p]`` is the free index
    of the node at level-ordered position p, ``sizes`` the level sizes, and
    the entries are sorted by row, then column.
    """
    free = mesh.interior_mask()
    tri = mesh.triangles
    G = mesh.shape_grads
    local = mesh.ref_area[:, None, None] * np.einsum("tad,tbd->tab", G, G)
    i = np.repeat(tri, 3, axis=1).ravel()
    j = np.tile(tri, (1, 3)).ravel()
    free_vertices = np.flatnonzero(free)
    level = _levels(mesh.num_vertices, i, j, free)[free_vertices]
    perm = np.argsort(level, kind="stable")
    nf = free_vertices.size
    position = np.full(mesh.num_vertices, -1)
    position[free_vertices[perm]] = np.arange(nf)
    pi, pj = position[i], position[j]
    inside = (pi >= 0) & (pj >= 0)
    keys, inverse = np.unique(pi[inside] * nf + pj[inside], return_inverse=True)
    vals = np.bincount(inverse, local.ravel()[inside])
    return perm, np.bincount(level), keys // nf, keys % nf, vals


class StiffnessSolver:
    """K on the free nodes of a mesh: ``apply`` is K v and ``solve`` K^-1 b.

    Fields are (nf, p) arrays over the free nodes, in the order of
    ``mesh.interior_mask()``.  The factor keeps the dense S_k^-1 in one
    contiguous buffer and the couplings B_k as coordinate lists.
    """

    def __init__(self, mesh):
        self.perm, sizes, rows, cols, vals = _level_ordered_entries(mesh)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._entries = (self.perm[rows], self.perm[cols], vals)

        lev = np.repeat(np.arange(sizes.size), sizes)
        row_level = lev[rows]
        steps = np.arange(sizes.size + 1)
        diag = np.flatnonzero(row_level == lev[cols])
        diag_ptr = np.searchsorted(row_level[diag], steps)
        lower = np.flatnonzero(row_level == lev[cols] + 1)
        lower_ptr = np.searchsorted(row_level[lower], steps)
        buffer = np.empty(int(np.sum(sizes * sizes)))
        self._inverses = []    # S_k^-1, views into one contiguous buffer
        self._couplings = []   # B_1, B_2, ...: (rows, columns, values) in-level
        for k, n in enumerate(sizes):
            o = self.offsets[k]
            d = diag[diag_ptr[k] : diag_ptr[k + 1]]
            S = np.zeros((n, n))
            S[rows[d] - o, cols[d] - o] = vals[d]
            if k:
                b = lower[lower_ptr[k] : lower_ptr[k + 1]]
                B = (rows[b] - o, cols[b] - self.offsets[k - 1], vals[b])
                X = _times_transpose(*B, self._inverses[-1], n)   # S_{k-1}^-1 B_k^T
                S -= _times_transpose(*B, X.T, n).T
                self._couplings.append(B)
            inverse = buffer[: n * n].reshape(n, n)
            buffer = buffer[n * n :]
            inverse[...] = _spd_inverse(S)
            self._inverses.append(inverse)

    def apply(self, v):
        """K v for a field v over the free nodes."""
        return _times_transpose(*self._entries, v.T, self.perm.size).T

    def solve(self, b):
        """K^-1 b for a field b over the free nodes."""
        # Columns of w are nodes in level order, so each block product runs
        # over contiguous rows.
        w = np.ascontiguousarray(b[self.perm].T)
        o = self.offsets
        levels = len(self._inverses)
        # Forward: w_k = S_k^-1 (b_k - B_k w_{k-1}).
        for k, inverse in enumerate(self._inverses):
            z = w[:, o[k] : o[k + 1]]
            if k:
                previous = w[:, o[k - 1] : o[k]]
                z = z - _times_transpose(*self._couplings[k - 1], previous, len(inverse))
            w[:, o[k] : o[k + 1]] = np.einsum("ij,cj->ci", inverse, z)
        # Backward: x_k = w_k - S_k^-1 B_{k+1}^T x_{k+1}.
        for k in range(levels - 2, -1, -1):
            rows, cols, vals = self._couplings[k]
            inverse = self._inverses[k]
            t = _times_transpose(cols, rows, vals, w[:, o[k + 1] : o[k + 2]], len(inverse))
            w[:, o[k] : o[k + 1]] -= np.einsum("ij,cj->ci", inverse, t)
        x = np.empty_like(b)
        x[self.perm] = w.T
        return x
