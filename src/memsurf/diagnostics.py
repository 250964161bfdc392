"""Topological and variational certificates on computed configurations.

Covers the integer degree of the piecewise-linear map at surface target
points (exact signed cover counts plus a mollified chart-plane integral),
pairwise image-overlap detection as an almost-everywhere injectivity
certificate, and the discrete first-variation / spatial equilibrium
residuals of a configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import _plane_dot, _stretches, pk1_batch
from .discretization import J_FLOOR, _assemble, _dot, _kinematics
from .errors import (
    AmbiguousProjectionError,
    BoundaryTooCloseError,
    ChartSpanFailureError,
    MemsurfError,
)
from .geometry import _row_norms

__all__ = [
    "DegreeResult",
    "OverlapReport",
    "ResidualResult",
    "brouwer_degree",
    "boundary_winding",
    "injectivity_check",
    "first_variation_residual",
]

# Targets closer than this to the boundary image are rejected by the degree.
DEGREE_MARGIN = 1e-6
# Overlap area above which an element pair breaks injectivity.
OVERLAP_AREA_TOL = 1e-12
# Overlapping pairs kept in an OverlapReport, worst first.
MAX_RECORDED_OVERLAPS = 100
# Sorted elements per block of the injectivity sweep (bounds its temporaries).
_SWEEP_BLOCK = 128
# Random tangent directions per residual test-field anchor.
_TEST_DIRECTIONS = 3


# integral over [0, 1) of exp(-1/(1-s^2)) s ds (a test re-derives it by quadrature).
_BUMP_C0 = 0.07424775338834423


def _bump_sums(s2):
    """Row sums of exp(-1/(1 - s2)) where s2 < 1, else 0, over (k, m) ``s2``.

    No mask gathers or scatters: the other entries take exp(-1), so every
    exp is a finite one, and are then multiplied by 0.  Overwrites ``s2``.
    """
    u = np.subtract(1.0, s2, out=s2)
    inside = u > 0.0
    u = np.where(inside, u, 1.0)
    np.divide(-1.0, u, out=u)
    np.exp(u, out=u)
    u *= inside
    return u.sum(axis=1)


@dataclass(frozen=True)
class DegreeResult:
    """Degree of the configuration at one target point, by two methods."""

    target_point: np.ndarray
    degree: int                      # signed cover count
    mollified_integral: float
    mollifier_radius: float
    methods_agree: bool


def _extent(a, b, c):
    """Elementwise (min, max) of three arrays, faster than a length-3 axis reduction."""
    return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)


def _segment_distances(point, starts, ends):
    """Distances from point to the segments from rows ``starts`` to rows ``ends``
    (2-D or 3-D)."""
    d = ends - starts
    d2 = np.einsum("ij,ij->i", d, d)
    t = np.einsum("ij,ij->i", point - starts, d) / np.where(d2 > 0, d2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    closest = starts + t[:, None] * d
    return _row_norms(point - closest)


class _Image:
    """What every degree target reads of one configuration, on any surface.

    The node coordinates (three contiguous rows), the corner-index columns,
    contiguous so a target's vertex distances are three gathers, the element
    diameters and mean edge, the segments of every boundary loop stacked
    into one array of their (start, end) nodes and one of their (start, end)
    points, half the longest segment, the largest coordinate magnitude and
    the orientation sign of every element on the surface.  ``_image_of``
    keeps the last one and builds a new one when the mesh, the surface or
    the positions differ.
    """

    def __init__(self, mesh, surface, positions):
        self.mesh, self.surface = mesh, surface
        # A private copy, stored as three contiguous coordinate rows.
        self.columns = np.array(np.asarray(positions, dtype=float).T, order="C")
        self.positions = self.columns.T
        self.extent = float(np.max(np.abs(self.positions), initial=0.0))
        self.signs = np.sign(_kinematics(mesh, surface, self.positions)[1]).astype(int)
        self.corners = tuple(np.ascontiguousarray(c) for c in mesh.triangles.T)
        P = self.positions[mesh.triangles]              # (m, 3, 3)
        edge_len = _row_norms(P[:, [1, 2, 0]] - P)
        self.diam = edge_len.max(axis=1)
        self.longest = float(np.max(self.diam, initial=0.0))
        self.mean_edge = float(np.mean(edge_len))
        loops = [np.asarray(loop, dtype=np.intp) for loop in mesh.boundary_loops]
        loops = loops or [np.empty(0, dtype=np.intp)]
        self.segments = np.stack(
            [np.concatenate(loops), np.concatenate([np.roll(loop, -1) for loop in loops])]
        )
        self.segment_ends = self.positions[self.segments]   # (2, s, 3)
        lengths = _row_norms(self.segment_ends[1] - self.segment_ends[0])
        self.half_segment = 0.5 * float(np.max(lengths, initial=0.0))

    def distances(self, y):
        """Distances from y (3,) to every node, with ``_row_norms``'s bits."""
        d = self.columns - y[:, None]
        np.multiply(d, d, out=d)
        s = np.add(d[0], d[1], out=d[0])
        s += d[2]
        return np.sqrt(s, out=s)


_last_image = None


def _image_of(mesh, surface, positions):
    """The _Image of (mesh, surface, positions): the last one built when it matches."""
    global _last_image
    image = _last_image
    if (
        image is None
        or image.mesh is not mesh
        or image.surface is not surface
        or image.positions.shape != np.shape(positions)
        or not (image.columns == np.transpose(positions)).all()
    ):
        image = _last_image = _Image(mesh, surface, positions)
    return image


# Shewchuk's (1997) static error bound of the float orient2d, relative to
# |left| + |right|.
_ORIENT_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _orient2d(p, q, w):
    """Exact signs of orient(p, q, w) = (q - p) x (w - p) over (k, ..., 2) points.

    The float determinant left - right, with left = (q_x - p_x)(w_y - p_y)
    and right = (q_y - p_y)(w_x - p_x), decides the rows where its magnitude
    exceeds ``_ORIENT_BOUND`` (|left| + |right|) plus 2^-1070, which covers
    the absolute rounding error of products that underflow.  The other rows
    are evaluated in exact rationals of the float inputs.  An exact zero takes the sign at w moved
    to w + (delta, delta^2) (Edelsbrunner & Muecke 1990): sign(p_y - q_y),
    or sign(q_x - p_x) when p_y = q_y.  So 0 is left only where p = q, and
    orient(q, p, w) = -orient(p, q, w) on every row.
    """
    qp, wp = q - p, w - p
    left = qp[..., 0] * wp[..., 1]
    right = qp[..., 1] * wp[..., 0]
    det = left - right
    sign = np.sign(det)
    undecided = np.abs(det) <= _ORIENT_BOUND * (np.abs(left) + np.abs(right)) + 2.0**-1070
    if undecided.any():
        from fractions import Fraction   # only rows the filter cannot decide pay for it

        p, q, w = np.broadcast_arrays(p, q, w)
        for i in map(tuple, np.argwhere(undecided)):
            (px, py), (qx, qy), (wx, wy) = (map(Fraction, a[i].tolist()) for a in (p, q, w))
            exact = (qx - px) * (wy - py) - (qy - py) * (wx - px)
            sign[i] = (exact > 0) - (exact < 0)
    if sign.all():
        return sign.astype(int)
    dy, dx = -qp[..., 1], qp[..., 0]                  # p_y - q_y and q_x - p_x, exactly
    return np.where(sign != 0, sign, np.sign(np.where(dy != 0, dy, dx))).astype(int)


# The corners of _subdivide's four children in the points (a, b, c, ab, bc, ca),
# and its gather table: out[v, coord, q] is row 2 s + coord of the (6 points x 2
# coords) stack, where point s is corner v of child q.
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])
_SPLIT_ROWS = 2 * _CHILDREN.T[:, None] + np.arange(2)[:, None]


def _subdivide(tris):
    """One midpoint split of k triangles stored by corner, (3, 2, k) -> (3, 2, 4k).

    The four children of every triangle keep its orientation; child q of
    triangle t is column q * k + t.
    """
    a, b, c = tris
    k = tris.shape[2]
    pts = np.empty((6, 2, k))
    pts[:3] = tris
    pts[3], pts[4], pts[5] = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return pts.reshape(12, k)[_SPLIT_ROWS].reshape(3, 2, 4 * k)


def _distances(tris, w):
    """Distances from w to the centroids of triangles stored by corner."""
    d = (tris[0] + tris[1] + tris[2]) / 3.0 - w[:, None]
    return np.sqrt(d[0] * d[0] + d[1] * d[1])


def _signed_areas(tris):
    """Signed areas of triangles stored by corner."""
    e1 = tris[1] - tris[0]
    e2 = tris[2] - tris[0]
    return 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])


def _centroid_stencil():
    """Barycentric centroid weights (64, 3) of the children of three midpoint
    splits of one triangle, row j for ``_subdivide``'s child column j.

    The splits run on the identity triangle (0, 0), (1, 0), (0, 1), whose
    corners are its own last two barycentric coordinates; every child corner
    then sits on the 1/8 grid, so its first coordinate 1 - u - v and the sum
    of three corners are exact, and each weight is one rounded division.
    """
    tris = np.array([[[0.0], [0.0]], [[1.0], [0.0]], [[0.0], [1.0]]])
    for _ in range(3):
        tris = _subdivide(tris)
    bary = np.concatenate([1.0 - tris.sum(axis=1, keepdims=True), tris], axis=1)
    return ((bary[0] + bary[1] + bary[2]) / 3.0).T


# Child j of an element with chart corners (a, b, c) has centroid
# _STENCIL[j] . (a, b, c) after three midpoint splits, and 1/64 of its area.
_STENCIL = _centroid_stencil()


def brouwer_degree(surface, mesh, positions, y):
    """Degree of the nodal map at the on-surface point y (3,), by two methods.

    One call takes one target.  The per-configuration work (node coordinate
    rows, edge lengths, boundary segments, element orientation signs) is
    done once and reused by later calls on the same mesh and surface objects
    and equal positions.  A target then pays for its numpy calls more than
    for its rows: every node distance, one chart map of the nodes it reads,
    and the elements near it.  Two prefilters skip work that cannot change
    the result: a boundary clearance is evaluated only when its lower bound
    (the nearest segment end's distance less half the longest segment, in
    space or in the chart) does not clear the bump radius and the margin,
    and the near nodes are checked against the chart radius only when one
    can lie past it.

    y must lie at least ``DEGREE_MARGIN`` from the boundary image in the
    chart at y, where the degree is counted and integrated: from the chart
    images of the boundary segments the chart covers (a boundary chord can
    pass off the surface, so a target can clear it in space and not in the
    chart).  The bump radius is min(3 mean edge, 0.9 spatial clearance,
    chart clearance, chart radius / 4).

    Both methods read only the near elements whose chart centroid lies
    within the bump radius plus 0.7 of their longest chart side of y: no
    other element can hold y, have it on an edge or reach the bump.  The
    signed cover count sums the orientation signs of those whose chart
    image covers the chart coordinates of y (exact for PL maps).  The
    mollified integral integrates a unit-mass bump against the signed chart
    area of the image by midpoint quadrature on the 64 children of three
    midpoint splits of every element: their centroids come from a fixed
    barycentric stencil and each has 1/64 of its element's signed area.
    While the children are wider than the bump the elements are first split
    at their edge midpoints, halving their width each time, and only the
    sub-elements that can reach it are kept.  Each (sub-)element's children
    are summed alone and the element sums exactly, so the integral does not
    depend on which elements that add 0 are skipped.

    The cover test reads exact edge signs (``_orient2d``).  A target on an
    edge is moved symbolically off it, to the same side for both elements
    that share the edge, since their shared corners have the same chart
    coordinates.  So a target on an image edge or vertex is counted at a
    point infinitesimally near it, where the degree is the same because y
    clears the boundary image.  ChartSpanFailureError names the first
    element near y that the chart at y does not cover.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (3,):
        raise ValueError(
            f"brouwer_degree takes one target point of shape (3,), got shape "
            f"{y.shape}; call it once per target"
        )
    image = _image_of(mesh, surface, positions)
    node_dist = image.distances(y)
    chart = surface.chart_at(y)
    mean_edge, diam = image.mean_edge, image.diam
    # Bump radius: a few image edges, clamped inside the chart's validity
    # radius and both boundary clearances (where the degree is constant).
    # Each clearance is evaluated unless its lower bound, less a rounding
    # ``slack``, clears what it could bind (a NaN clears nothing).
    radius = min(3.0 * mean_edge, 0.25 * surface.chart_radius)
    slack = 1e-9 * (image.extent + max(map(abs, y.tolist())))
    end_dist = node_dist[image.segments]
    bounded = not 0.9 * (end_dist[0].min(initial=np.inf) - image.half_segment - slack) >= radius
    if bounded:
        bdist = float(_segment_distances(y, *image.segment_ends).min(initial=np.inf))
        radius = min(radius, 0.9 * bdist)
    c0, c1, c2 = image.corners
    vert_dist = np.minimum(np.minimum(node_dist[c0], node_dist[c1]), node_dist[c2])
    near = np.flatnonzero(vert_dist <= diam + 1.6 * radius + mean_edge)
    near_tris = image.mesh.triangles[near]              # (k, 3) near corners

    # One chart map of y (row 0) and of the nodes of the near elements and of
    # the boundary segments the chart covers (both ends within chord
    # distance chart.radius of y); ``slot`` gives a node's row.
    ends = image.segments[:, (end_dist < chart.radius).all(axis=0)]
    needed = np.zeros(len(node_dist), dtype=bool)
    needed[near_tris] = True
    needed[ends] = True
    nodes = np.flatnonzero(needed)
    slot = np.empty(len(node_dist), dtype=np.intp)
    slot[nodes] = np.arange(1, nodes.size + 1)
    uv_nodes = chart.inverse_map(np.concatenate([y[None], image.positions[nodes]]))
    w = uv_nodes[0]

    # The clearance of w from the chart images of the covered segments, at
    # once where the spatial one was evaluated.  The chart contracts
    # distances, so a covered segment within the margin in space is within
    # it here too; an uncovered one that close belongs to a near element the
    # chart misses, which raises ChartSpanFailureError below.
    ends_uv = uv_nodes[slot[ends]]                      # (2, c, 2)
    if bounded or not (
        _row_norms(ends_uv - w).min(initial=np.inf) - image.half_segment - slack
        >= max(radius, DEGREE_MARGIN)
    ):
        clearance = float(_segment_distances(w, *ends_uv).min(initial=np.inf))
        if clearance < DEGREE_MARGIN:
            raise BoundaryTooCloseError(
                f"target point is {clearance:.3e} from the boundary image in its chart "
                f"(margin {DEGREE_MARGIN:.1e})"
            )
        if clearance < radius:
            radius = clearance
            nearer = vert_dist[near] <= diam[near] + 1.6 * radius + mean_edge
            near, near_tris = near[nearer], near_tris[nearer]

    # A node of a near element lies within vert_dist + diam, so below
    # 2 longest + 1.6 radius + mean edge, of y: only then can one lie past
    # the chart's validity.  Elements that do contribute only if their image
    # can reach the bump support; those that provably cannot are outside
    # the local planar representative and are dropped.
    if not 2.0 * image.longest + 1.6 * radius + mean_edge + slack < chart.radius:
        ok = (node_dist[near_tris] < chart.radius).all(axis=1)
        bad = near[~ok]
        reaching = bad[vert_dist[bad] <= diam[bad] + 1.3 * radius]
        if reaching.size:
            t = int(reaching[0])
            farthest = float(np.max(node_dist[image.mesh.triangles[t]]))
            raise ChartSpanFailureError(
                f"near element {t} reaches past the {surface.kind} chart radius "
                f"{surface.chart_radius:.4g} (its vertices lie at chords "
                f"{vert_dist[t]:.4g} to {farthest:.4g} from the target point); "
                "the mesh is too coarse for a chart-local degree here; use a "
                "smaller domain.resolution"
            )
        near, near_tris = near[ok], near_tris[ok]
    if near.size == 0:
        return DegreeResult(y, 0, 0.0, radius, methods_agree=True)
    tris = np.ascontiguousarray(uv_nodes[slot[near_tris.T]].transpose(0, 2, 1))  # (3, 2, k)

    # Every point of an element lies within 2/3 of its longest side of the
    # element centroid.  So an element farther than radius + 0.7 its longest
    # side from w (0.7 > 2/3 covers rounding) neither holds w, nor has it on
    # an edge, nor reaches the bump: only the kept elements are counted and
    # integrated.  8 size is the longest near side.
    e = tris - tris[[2, 0, 1]]
    sq = e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]
    longest = np.sqrt(np.maximum(np.maximum(sq[0], sq[1]), sq[2]))
    size = float(longest.max()) / 8
    kept = np.flatnonzero(_distances(tris, w) <= radius + 0.7 * longest)
    tris = tris.take(kept, axis=2)

    # Exact edge signs (k, 3) of the kept elements: an element covers w
    # when its three signs agree.
    uv = tris.transpose(2, 0, 1)
    edge_signs = _orient2d(uv, uv[:, [1, 2, 0]], w)
    inside = np.abs(edge_signs.sum(axis=1)) == 3
    count = int(image.signs[near[kept[inside]]].sum())

    # Mollified integral over the signed chart image.  While the children
    # (at most size wide) are wider than the bump, the elements are split at
    # their edge midpoints, halving their width, and the sub-elements whose
    # centroid lies farther than radius + their width (8 size) from w, which
    # cannot reach it, are dropped.
    while size > radius:
        size /= 2
        tris = _subdivide(tris)
        tris = tris.take(np.flatnonzero(_distances(tris, w) <= radius + 8.0 * size), axis=2)
    # Child centroids relative to w, (2, k, 64), and their squared distances
    # in units of the bump radius.  Every child has 1/64 of its element's
    # signed area, so the 64 joins the bump's mass.
    d = np.einsum("vdt,jv->dtj", tris - w[:, None], _STENCIL)
    np.multiply(d, d, out=d)
    s2 = np.add(d[0], d[1], out=d[0])
    s2 *= 1.0 / radius**2
    per_element = _bump_sums(s2) * _signed_areas(tris)
    mass = 64.0 * 2.0 * np.pi * _BUMP_C0 * radius**2
    integral = math.fsum(per_element.tolist()) / mass

    return DegreeResult(
        y, count, integral, radius, methods_agree=bool(abs(integral - count) < 0.5)
    )


def boundary_winding(surface, mesh, positions, y):
    """Independent degree oracle: winding of the boundary image around y.

    Uses the chart at y and the boundary loops oriented with the domain on
    the left; exact for polygonal loops away from the target.
    """
    chart = surface.chart_at(np.asarray(y, dtype=float))
    w = chart.inverse_map(y)
    total = 0.0
    for loop in mesh.boundary_loops:
        pts = chart.inverse_map(positions[np.asarray(loop)]) - w
        nxt = np.roll(pts, -1, axis=0)
        cross = pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]
        dot = np.einsum("ij,ij->i", pts, nxt)
        total += float(np.sum(np.arctan2(cross, dot)))
    return int(np.rint(total / (2.0 * np.pi)))


@dataclass
class OverlapReport:
    """Pairwise image-overlap summary over non-adjacent elements."""

    checked_pairs: int
    overlapping_pairs: int
    total_overlap_area: float
    injective: bool
    pairs: list = field(default_factory=list)   # (t1, t2, area), worst first


def _cycle(k, width):
    """Of polygons in (n, width) slots, the first k (n,) live: each slot's
    flat index of the next live vertex (slot + 1, or 0 after the last), and
    which slots are live."""
    slot = np.arange(width)
    live = slot < k[:, None]
    nxt = np.where(slot + 1 < k[:, None], slot + 1, 0) + width * np.arange(len(k))[:, None]
    return nxt.ravel(), live


def _clip(xy, k, corner, normal):
    """One Sutherland-Hodgman step over polygons ``xy`` (2, n, K), of which
    the first k (n,) vertices are live: keep the part with
    normal . (p - corner) <= 0, ``corner`` and ``normal`` (2, n).

    Vertex p emits itself when inside, then the crossing on its edge to the
    next vertex q when that edge crosses the line, as the scalar loop does:
    d = normal . (p - corner) at both ends, t = dp / (dp - dq), p + t (q - p).
    """
    n, width = xy.shape[1:]
    nxt, live = _cycle(k, width)
    prod = normal[:, :, None] * (xy - corner[:, :, None])
    dp = (prod[0] + prod[1]).ravel()
    dq = dp[nxt]
    inside = dp <= 0
    cross = np.where(inside, dq > 0, dq <= 0) & live.ravel()
    inside &= live.ravel()
    emitted = (inside.view(np.int8) + cross).reshape(n, width)
    k = emitted.sum(axis=1)
    width = int(k.max(initial=0))
    at = (np.cumsum(emitted, axis=1) - emitted + width * np.arange(n)[:, None]).ravel()
    xy = xy.reshape(2, -1)
    out = np.zeros((2, n * width))
    kept, crossing = np.flatnonzero(inside), np.flatnonzero(cross)
    out[:, at[kept]] = xy[:, kept]
    p, dp = xy[:, crossing], dp[crossing]
    t = dp / (dp - dq[crossing])
    out[:, at[crossing] + inside[crossing]] = p + t * (xy[:, nxt[crossing]] - p)
    return out.reshape(2, n, width), k


def _overlap_areas(uv):
    """Intersection areas of the 2D triangle pairs ``uv`` (n, 6, 2), rows 0-2
    vs 3-5, all clipped at once (Sutherland & Hodgman 1974).

    Each triangle is made counterclockwise (corners 1 and 2 swapped unless
    its cross product is >= 0); the first is clipped by the inward sides of
    the three edges of the second, and the area is half the absolute
    shoelace sum, its terms added in vertex order.  Every pair goes through
    the float operations of a pair clipped alone, in the same order.
    """
    uv = np.array(uv, dtype=float)
    for tri in (uv[:, :3], uv[:, 3:]):
        e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
        cw = np.flatnonzero(~(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] >= 0))
        tri[cw, 1:] = tri[cw, :0:-1]
    uv = uv.transpose(2, 0, 1)                          # (2, n, 6)
    xy, k = np.ascontiguousarray(uv[:, :, :3]), np.full(uv.shape[1], 3)
    for i in range(3):
        a, b = uv[:, :, 3 + i], uv[:, :, 3 + (i + 1) % 3]
        xy, k = _clip(xy, k, a, np.stack([b[1] - a[1], -(b[0] - a[0])]))
    nxt, live = _cycle(k, xy.shape[2])
    x, y = xy.reshape(2, -1)
    terms = (x * y[nxt] - x[nxt] * y).reshape(live.shape)
    area = np.zeros(len(k))
    for term in np.where(live, terms, 0.0).T:
        area += term
    return 0.5 * np.abs(area)


def _separated(uv):
    """Separating-axis test of triangle pairs ``uv`` (n, 6, 2), rows 0-2 vs 3-5.

    True where an edge normal of either triangle separates the two (Ericson
    2004, ch. 4-5).  Touching counts as separated: such pairs share no area.
    """
    tri = uv.reshape(-1, 2, 3, 2)
    edges = tri[:, :, [1, 2, 0]] - tri
    nx = edges[..., 1].reshape(-1, 6, 1)
    ny = -edges[..., 0].reshape(-1, 6, 1)
    proj = nx * uv[:, None, :, 0] + ny * uv[:, None, :, 1]    # (n, 6 normals, 6 points)
    a_min, a_max = _extent(proj[..., 0], proj[..., 1], proj[..., 2])
    b_min, b_max = _extent(proj[..., 3], proj[..., 4], proj[..., 5])
    return ((a_max <= b_min) | (b_max <= a_min)).any(axis=1)


def _sweep_pairs(stop, start, end):
    """Sweep pairs (ii, jj) of sorted elements ii in [start, end), ii < jj < stop[ii]."""
    ii = np.arange(start, end)
    counts = stop[start:end] - ii - 1
    first = np.repeat(ii, counts)
    ranks = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return first, first + 1 + ranks


def injectivity_check(surface, mesh, positions):
    """Image-overlap scan of all non-adjacent element pairs.

    A sweep over the elements sorted by their lowest image x gives the
    candidate pairs.  The checked pairs are those whose axis-aligned image
    boxes intersect on all three axes, the test applied first and on every
    candidate, and that, among those, share fewer than two vertices.  Each
    checked pair is mapped into the tangent-plane chart ``Surface.chart_at``
    gives at the projection of the pair's vertex mean, so its overlap area
    does not depend on which element sorts first, and a separating-axis
    test drops the pairs whose chart images are disjoint or only touch.
    The rest, from every block, are clipped exactly in one batch
    (``_overlap_areas``) and recorded in sweep order.  Overlap areas are
    chart areas; any diffeomorphic chart preserves zero vs positive.  A
    clean report (no overlap area above ``OVERLAP_AREA_TOL``) is the
    discrete injectivity certificate.  Raises ChartSpanFailureError, naming
    the first such pair in sweep order, when that chart does not cover a
    checked pair.
    """
    tris = mesh.triangles
    P = positions[tris]
    lo = P.min(axis=1)
    hi = P.max(axis=1)
    order = np.argsort(lo[:, 0], kind="stable")
    # Per-axis rows in sweep order, so the box test gathers contiguous columns.
    lo_s, hi_s = np.ascontiguousarray(lo[order].T), np.ascontiguousarray(hi[order].T)
    stop = np.searchsorted(lo_s[0], hi_s[0], side="right")

    checked = 0
    # Separating-axis survivors (first, second, chart corners) of every block.
    survivors = [(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty((0, 6, 2)))]
    for start in range(0, len(P), _SWEEP_BLOCK):
        first, second = _sweep_pairs(stop, start, min(start + _SWEEP_BLOCK, len(P)))
        # Box test, in negated form so a NaN coordinate keeps the pair, on y
        # and z: the sweep's order and stop already overlap the x extents.
        apart = np.zeros(len(first), dtype=bool)
        for lo_a, hi_a in zip(lo_s[1:], hi_s[1:]):
            apart |= (lo_a[second] > hi_a[first]) | (lo_a[first] > hi_a[second])
        i, j = order[first[~apart]], order[second[~apart]]
        # Edge-adjacent pairs share two vertices; point contacts stay.
        ti, tj = tris[i].T, tris[j].T
        shared = sum((ti[a] == tj[b]).view(np.int8) for a in range(3) for b in range(3))
        keep = shared < 2
        i, j = i[keep], j[keep]
        checked += len(i)

        pts = np.concatenate([P[i], P[j]], axis=1)   # (n, 6, 3)
        # The vertex mean, its six points added in order as pts.mean(axis=1) adds them.
        mean = pts[:, 0] + pts[:, 1]
        for k in range(2, 6):
            mean += pts[:, k]
        charts = surface.chart_at(surface.project(mean[:, None] / 6.0))
        uv, covered = charts.locate(pts)
        uncovered = np.flatnonzero(~covered.all(axis=1))
        if uncovered.size:
            q = uncovered[0]
            chord = _row_norms(pts[q][:, None] - pts[q][None]).max()
            raise ChartSpanFailureError(
                f"element pair ({int(i[q])}, {int(j[q])}) is not covered by "
                f"a single chart: its largest chord {chord:.4g} is too long "
                f"for the {surface.kind} chart radius {surface.chart_radius:.4g}; "
                "use a smaller domain.resolution"
            )
        q = np.flatnonzero(~_separated(uv))
        survivors.append((i[q], j[q], uv[q]))
    i, j, uv = (np.concatenate(column) for column in zip(*survivors))
    areas = _overlap_areas(uv)
    overlaps = []
    total = 0.0
    for q in np.flatnonzero(areas > OVERLAP_AREA_TOL):
        overlaps.append((int(i[q]), int(j[q]), float(areas[q])))
        total += float(areas[q])
    overlaps.sort(key=lambda rec: -rec[2])
    return OverlapReport(
        checked, len(overlaps), total, total <= OVERLAP_AREA_TOL, overlaps[:MAX_RECORDED_OVERLAPS]
    )


@dataclass(frozen=True)
class ResidualResult:
    """First-variation residual of one admissible test field."""

    test_field_id: int
    direction: np.ndarray
    anchor: np.ndarray
    cutoff_radius: float
    lagrangian_residual: float
    eulerian_residual: float
    normalization: float
    admissible: bool


def _test_fields(surface, mesh, positions, family_size, seed):
    """Tangent test fields beta(y) P_T(y) v vanishing on the boundary image.

    beta is the C^1 squared-distance bump (1 - |y - y0|^2 / Rc^2)_+^2 around
    interior anchor nodes, with Rc inside the boundary-image clearance.
    """
    rng = np.random.default_rng(seed)
    interior = np.nonzero(mesh.interior_mask())[0]
    if interior.size == 0:
        raise MemsurfError("the mesh has no interior vertex to anchor a residual test field")
    boundary_pts = positions[mesh.boundary_vertices]
    n_cut = max(1, -(-family_size // _TEST_DIRECTIONS))
    anchors = []
    attempts = 0
    while len(anchors) < n_cut and attempts < 100 * n_cut:
        attempts += 1
        idx = int(rng.choice(interior))
        y0 = positions[idx]
        clearance = float(np.min(_row_norms(boundary_pts - y0)))
        if clearance <= 1e-12:
            continue
        anchors.append((y0, 0.95 * clearance))
    if not anchors:
        raise MemsurfError(
            "no interior vertex clears the boundary image to anchor a residual test field"
        )
    dirs = rng.standard_normal((_TEST_DIRECTIONS, 3))
    dirs /= _row_norms(dirs, keepdims=True)
    # Each direction's tangent field, projected once as a (j, n, 3) stack.
    tangent = surface.tangent_project_unchecked(
        positions, np.broadcast_to(dirs[:, None], (_TEST_DIRECTIONS, *positions.shape))
    )
    fields = []
    for k in range(family_size):
        v = dirs[k % _TEST_DIRECTIONS]
        y0, rc = anchors[(k // _TEST_DIRECTIONS) % len(anchors)]
        d2 = np.sum((positions - y0) ** 2, axis=1)
        beta = np.maximum(0.0, 1.0 - d2 / rc**2) ** 2
        fields.append((k, v, y0, rc, beta[:, None] * tangent[k % _TEST_DIRECTIONS]))
    return fields


def _admissible(mesh, surface, positions, elements=slice(None)):
    """Whether the ``elements`` (all by default) of the configuration, or of
    every one in a (j, n, 3) stack, keep their oriented J above ``J_FLOOR``
    and their centroids project: ``trial_energy``'s feasibility, without the energy."""
    for config in positions.reshape(-1, *positions.shape[-2:]):
        try:
            J = _kinematics(mesh, surface, config, elements)[1]
        except AmbiguousProjectionError:
            return False
        if J.size and not np.min(J) > J_FLOOR:
            return False
    return True


def first_variation_residual(model, surface, mesh, positions, family_size, seed):
    """Discrete stationarity residuals for a family of tangent test fields.

    Both pair the nodal test-field values psi with a nodal vector assembled
    once: the Lagrangian residual with the energy gradient sum_t A_t S_t g_t
    (the exact derivative of the energy along the induced piecewise-linear
    variation), the Eulerian one with the same sum of A_t J_t sigma_t F_t^+T
    through the spatial Cauchy stress sigma, so the two agree to rounding
    error.  A variation is admissible when at tau = +/- 1e-3 the elements it
    moves keep their oriented J above ``J_FLOOR`` and their centroids
    project, and the others already do; no energy is evaluated.
    """
    # The fields first: a mesh without an anchor fails before any stress.
    fields = _test_fields(surface, mesh, positions, family_size, seed)
    F, J = _kinematics(mesh, surface, positions)
    S = pk1_batch(model, F)
    l1, l2 = _stretches(F)
    area_ratio = l1 * l2
    lagrangian = _assemble(mesh, mesh.ref_area[:, None, None] * S)
    # The Eulerian stress A J sigma F^+T on (3, m) planes, one row per ambient
    # component: the columns a, b of F and s, u of S.  F^+T = F C^-1 with
    # C = F^T F, whose inverse is its adjugate over det C.
    a, b = F.T
    s, u = S.T
    c11, c12, c22 = _plane_dot(a, a), _plane_dot(a, b), _plane_dot(b, b)
    det = c11 * c22 - c12 * c12
    p = (a * c22 - b * c12) / det                   # F^+T e1
    q = (b * c11 - a * c12) / det                   # F^+T e2
    weight = mesh.ref_area * area_ratio
    T = np.empty((2, *a.shape))
    for i in range(3):
        # Row i of A J sigma, sigma = S F^T / J the Cauchy stress.
        row = (s[i] * a + u[i] * b) / area_ratio
        row *= weight
        T[0, i] = _plane_dot(row, p)
        T[1, i] = _plane_dot(row, q)
    eulerian = _assemble(mesh, T.T)

    results = []
    for k, v, y0, rc, psi in fields:
        # Only the elements with a node where psi != 0 move; the others keep J.
        moved = np.flatnonzero(np.any(np.any(psi != 0, axis=1)[mesh.triangles], axis=1))
        steps = positions + np.multiply.outer((1e-3, -1e-3), psi)
        unmoved_ok = bool(np.all(np.delete(J, moved) > J_FLOOR))
        admissible = unmoved_ok and _admissible(mesh, surface, steps, moved)
        lag, eul = float(np.sum(psi * lagrangian)), float(np.sum(psi * eulerian))
        norm = math.sqrt(_dot(psi, psi))
        results.append(ResidualResult(k, v, y0, rc, lag, eul, norm, admissible))
    return results
