"""Reference triangulations of the planar domain and mesh file I/O.

Meshes are conforming triangulations with consistently counterclockwise
triangles.  Files use a minimal Wavefront-style text format: ``v x y z``
vertex records and ``f i j k`` one-based face records, ASCII with LF line
endings; lines starting with ``#`` are comments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElementError, _is_real

__all__ = ["TriMesh", "build_mesh", "save_mesh"]

AREA_TOL = 1e-14


@dataclass(frozen=True)
class TriMesh:
    """Triangulated reference domain with per-element shape data.

    ``shape_grads[t, i]`` is the constant gradient of the linear shape
    function of local vertex i on triangle t, so the gradient of a nodal
    field y is sum_i y_i (x) shape_grads[t, i].  It is an (m, 3, 2) view of
    (2, 3, m) component planes, ``shape_grads.T``.
    """

    vertices: np.ndarray          # (n, 2)
    triangles: np.ndarray         # (m, 3) int, counterclockwise
    boundary_vertices: np.ndarray  # sorted int indices
    ref_area: np.ndarray          # (m,)
    shape_grads: np.ndarray       # (m, 3, 2)
    boundary_loops: tuple = field(default=(), compare=False)

    @classmethod
    def from_arrays(cls, vertices, triangles):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be (n, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be (m, 3)")
        e1 = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
        e2 = vertices[triangles[:, 2]] - vertices[triangles[:, 0]]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= AREA_TOL):
            bad = np.nonzero(det <= AREA_TOL)[0]
            raise DegenerateElementError(
                f"{bad.size} reference triangles have non-positive area "
                f"(first: {int(bad[0])})"
            )
        area = 0.5 * det
        # Rows of the inverse edge matrix give the non-corner shape gradients,
        # kept as (2 components, 3 corners, m) planes: the kernels read each
        # component of each corner as one contiguous row.
        inv_det = 1.0 / det
        planes = np.empty((2, 3, len(det)))
        planes[:, 1] = e2[:, 1] * inv_det, -e2[:, 0] * inv_det
        planes[:, 2] = -e1[:, 1] * inv_det, e1[:, 0] * inv_det
        planes[:, 0] = -(planes[:, 1] + planes[:, 2])
        loops = _boundary_loops(vertices.shape[0], triangles)
        # Each boundary vertex lies on exactly one loop, once (_boundary_loops
        # checks it), so sorting is np.unique without importing numpy.ma.
        bverts = np.sort(np.concatenate(loops) if loops else np.empty(0, np.int64))
        return cls(
            vertices=vertices,
            triangles=triangles,
            boundary_vertices=bverts,
            ref_area=area,
            shape_grads=planes.T,
            boundary_loops=tuple(tuple(int(v) for v in l) for l in loops),
        )

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def total_area(self):
        return float(np.sum(self.ref_area))

    def interior_mask(self):
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return mask


def _boundary_loops(num_vertices, triangles):
    """Ordered boundary loops, with the domain on the left of each edge.

    Raises ValueError unless each boundary vertex has one outgoing and one
    incoming boundary edge: at a bowtie vertex (two triangles that share it
    without a fan between them), a triangle listed twice or an edge of three
    triangles, the loops are not well defined.
    """
    # Directed edges (a, b), (b, c), (c, a) of each triangle, in triangle order.
    edges = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=-1).reshape(-1, 2)
    keys = edges.min(axis=1) * num_vertices + edges.max(axis=1)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    src, dst = edges[counts[inverse] == 1].T
    outgoing = np.bincount(src, minlength=num_vertices)
    incoming = np.bincount(dst, minlength=num_vertices)
    if np.any(outgoing > 1):
        raise ValueError(
            f"vertex {int(np.argmax(outgoing > 1))} has two outgoing boundary edges "
            "(a bowtie vertex); the boundary is not a set of loops"
        )
    if np.any(incoming != outgoing):
        v = int(np.argmax(incoming != outgoing))
        raise ValueError(
            f"vertex {v} has {incoming[v]} incoming and {outgoing[v]} outgoing "
            "boundary edges; the boundary is not a set of loops"
        )
    # Each boundary vertex has one successor, so each walk closes its loop.
    nxt = dict(zip(src.tolist(), dst.tolist()))
    loops = []
    for start in sorted(nxt):
        if start in nxt:
            loops.append([start])
            while (cur := nxt.pop(loops[-1][-1])) != start:
                loops[-1].append(cur)
    return loops


def _square_mesh(resolution):
    n = max(1, round(1.0 / resolution))
    s = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(s, s, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            # Diagonal along the square's main diagonal keeps the mesh
            # symmetric under coordinate swap.
            tris.append((a, b, c))
            tris.append((a, c, d))
    return TriMesh.from_arrays(verts, np.asarray(tris))


def _ring_count(radius, resolution, sagitta_limited=False):
    m = max(6, math.ceil(2.0 * math.pi * radius / resolution))
    if sagitta_limited:
        # Keep the chordal sagitta below resolution^2 / 8.
        arg = min(1.0, resolution / (4.0 * math.sqrt(radius)))
        m = max(m, math.ceil(math.pi / (2.0 * math.asin(arg))))
    return m


def _ring(radius, count, stagger):
    ang = 2.0 * np.pi * np.arange(count) / count
    if stagger:
        ang = ang + np.pi / count
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def _stitch(inner_ids, outer_ids, angles_inner, angles_outer, tris):
    """Triangulate the strip between two concentric rings by angle merge."""
    mi, mo = len(inner_ids), len(outer_ids)
    i = j = 0
    off_o = np.mod(angles_outer - angles_inner[0], 2.0 * np.pi)
    off_i = np.mod(angles_inner - angles_inner[0], 2.0 * np.pi)
    order_o = np.argsort(off_o, kind="stable")
    off_o = off_o[order_o]
    outer_ids = [outer_ids[k] for k in order_o]
    while i < mi or j < mo:
        next_i = off_i[(i + 1) % mi] if (i + 1) < mi else 2.0 * np.pi
        next_j = off_o[(j + 1) % mo] if (j + 1) < mo else 2.0 * np.pi
        a = inner_ids[i % mi]
        b = outer_ids[j % mo]
        if (next_i <= next_j and i < mi) or j >= mo:
            a2 = inner_ids[(i + 1) % mi]
            tris.append((a, b, a2))
            i += 1
        else:
            b2 = outer_ids[(j + 1) % mo]
            tris.append((a, b, b2))
            j += 1


def _ring_mesh(radii, resolution, center):
    """Triangulate concentric rings at ``radii``, stitched strip by strip.

    Ring k is staggered by half its spacing when k is odd.  The boundary
    rings keep their chordal sagitta small: the last ring, and the first
    unless ``center`` replaces it by one vertex at (0, 0), fanned to
    ring 1.
    """
    verts, ring_ids, ring_angles = [], [], []
    nv = 0
    last = len(radii) - 1
    for k, rk in enumerate(radii):
        if center and k == 0:
            pts = np.zeros((1, 2))
        else:
            boundary = k == last or (k == 0 and not center)
            m = _ring_count(rk, resolution, sagitta_limited=boundary)
            pts = _ring(rk, m, stagger=(k % 2 == 1))
        verts.append(pts)
        ring_ids.append(list(range(nv, nv + len(pts))))
        ring_angles.append(np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi))
        nv += len(pts)
    tris = []
    if center:
        first = ring_ids[1]
        tris.extend((0, a, b) for a, b in zip(first, first[1:] + first[:1]))
    for k in range(int(center), last):
        _stitch(ring_ids[k], ring_ids[k + 1], ring_angles[k], ring_angles[k + 1], tris)
    return TriMesh.from_arrays(np.concatenate(verts), np.asarray(tris))


def _disk_mesh(resolution, radius=1.0):
    if not (_is_real(radius) and 0 < radius < np.inf):
        raise ValueError("disk radius must be finite and positive")
    n_rings = max(1, round(radius / resolution))
    dr = radius / n_rings
    return _ring_mesh([k * dr for k in range(n_rings + 1)], resolution, center=True)


def _annulus_mesh(resolution, inner_radius=0.5, outer_radius=1.0):
    if not (
        _is_real(inner_radius)
        and _is_real(outer_radius)
        and 0 < inner_radius < outer_radius < np.inf
    ):
        raise ValueError("annulus requires 0 < inner_radius < outer_radius < inf")
    n_rings = max(1, round((outer_radius - inner_radius) / resolution))
    radii = np.linspace(inner_radius, outer_radius, n_rings + 1)
    return _ring_mesh(radii, resolution, center=False)


DOMAIN_KINDS = {
    "unit_square": _square_mesh,
    "disk": _disk_mesh,
    "annulus": _annulus_mesh,
}


def build_mesh(domain, resolution, **params):
    """Triangulate one of the builtin domains at a target edge length.

    ``params`` are the keyword arguments of the domain's builder in
    ``DOMAIN_KINDS``: ``radius`` for a disk, ``inner_radius`` and
    ``outer_radius`` for an annulus.
    """
    if not (_is_real(resolution) and 0 < resolution < np.inf):
        raise ValueError("resolution must be finite and positive")
    try:
        build = DOMAIN_KINDS[domain]
    except KeyError:
        raise ValueError(
            f"unknown domain {domain!r}; expected one of {sorted(DOMAIN_KINDS)}"
        ) from None
    return build(resolution, **params)


def save_mesh(path, positions, triangles, comments=()):
    """Write a Wavefront-style mesh; positions may be (n, 2) or (n, 3).

    Records print from ``tolist`` rows (Python floats and ints), 1024 rows at
    a time, so no list of the whole mesh's Python objects is held."""
    positions = np.asarray(positions, dtype=float)
    faces = np.asarray(triangles, dtype=np.int64) + 1
    # Checked before the file is opened, so a bad call leaves no partial file.
    if positions.ndim != 2 or positions.shape[1] not in (2, 3):
        raise ValueError(f"mesh positions must have shape (n, 2) or (n, 3), got {positions.shape}")
    if faces.size and (faces.ndim != 2 or faces.shape[1] != 3):
        raise ValueError(f"mesh triangles must have shape (m, 3), got {faces.shape}")
    if positions.shape[1] == 2:
        positions = np.column_stack([positions, np.zeros(positions.shape[0])])
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        for s in range(0, len(positions), 1024):
            fh.writelines(f"v {x!r} {y!r} {z!r}\n" for x, y, z in positions[s:s + 1024].tolist())
        for s in range(0, len(faces), 1024):
            fh.writelines(f"f {i} {j} {k}\n" for i, j, k in faces[s:s + 1024].tolist())

