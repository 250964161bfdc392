import copy
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from memsurf import (
    BoundaryTooCloseError,
    ChartSpanFailureError,
    MemsurfError,
    Plane,
    Sphere,
    boundary_winding,
    brouwer_degree,
    build_mesh,
    first_variation_residual,
    initialize,
    injectivity_check,
    interpolate,
    minimize,
)
from memsurf import diagnostics
from memsurf.diagnostics import (
    _BUMP_C0,
    DEGREE_MARGIN,
    OVERLAP_AREA_TOL,
    DegreeResult,
    OverlapReport,
    _admissible,
    _distances,
    _overlap_areas,
    _test_fields,
)
from memsurf.constitutive import _stretches, pk1_batch
from memsurf.discretization import J_FLOOR, _dot, _kinematics, oriented_area_ratios, trial_energy
from memsurf.errors import AmbiguousProjectionError
from memsurf.maps import make_initial_map
from memsurf.mesh import TriMesh

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def disk_identity(plane):
    mesh = build_mesh("disk", 0.15)
    cfg = interpolate(plane, mesh, make_initial_map(plane, "identity"))
    return mesh, cfg


def _square_onto(surface):
    """Orientation-preserving embedding of the unit square into a surface patch."""
    if surface.kind == "torus":
        return make_initial_map(surface, "torus_band")
    return surface.embed


@pytest.fixture(scope="module")
def annulus_winding(plane):
    mesh = build_mesh("annulus", 0.07, inner_radius=0.5, outer_radius=1.0)

    def doubled_angle(x):
        r = np.linalg.norm(x, axis=1)
        th = np.arctan2(x[:, 1], x[:, 0])
        return plane.embed(np.column_stack([r * np.cos(2 * th), r * np.sin(2 * th)]))

    cfg = interpolate(plane, mesh, doubled_angle)
    return mesh, cfg


@pytest.fixture(scope="module")
def plane_suite(plane, disk_identity, annulus_winding):
    """(mesh, config, targets, expected degree): identity, reflection, winding 2."""
    rng = np.random.default_rng(20)
    mesh_i, cfg_i = disk_identity
    cfg_r = interpolate(
        plane,
        mesh_i,
        make_initial_map(plane, "affine", matrix=np.array([[0.0, 1.0], [1.0, 0.0]])),
    )
    mesh_w, cfg_w = annulus_winding
    suite = []
    for mesh, cfg, rmap, expected in [
        (mesh_i, cfg_i, lambda r: r * 0.85, 1),
        (mesh_i, cfg_r, lambda r: r * 0.85, -1),
        (mesh_w, cfg_w, lambda r: 0.55 + 0.4 * r, 2),
    ]:
        targets = []
        for _ in range(10):
            ang = rng.uniform(0, 2 * np.pi)
            rr = rmap(rng.uniform(0.05, 0.95))
            targets.append([rr * np.cos(ang), rr * np.sin(ang), 0.0])
        suite.append((mesh, cfg, np.array(targets), expected))
    return suite


@pytest.fixture(scope="module")
def cap_targets(model, sphere):
    """Converged cap on a 0.15 disk mesh and ten targets inside its image."""
    mesh = build_mesh("disk", 0.15)
    f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
    cfg, _ = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
    rng = np.random.default_rng(22)
    targets = np.array([f0(rng.uniform(-0.5, 0.5, 2)[None])[0] for _ in range(10)])
    return mesh, cfg, targets


@pytest.fixture(scope="module")
def torus_band_start(torus):
    """The shipped torus band's initial configuration and ten targets in its image."""
    mesh = build_mesh("unit_square", 0.03)
    f0 = make_initial_map(
        torus, "torus_band", theta_range=(0.0, np.pi / 2), psi_range=(-np.pi / 3, np.pi / 3)
    )
    targets = f0(np.random.default_rng(24).uniform(0.05, 0.95, (10, 2)))
    return mesh, interpolate(torus, mesh, f0), targets


@pytest.fixture(scope="module")
def cap_minimizer(model, sphere):
    """The shipped sphere cap's minimizer (disk 0.05)."""
    mesh = build_mesh("disk", 0.05)
    f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
    return mesh, minimize(model, sphere, mesh, initialize(sphere, mesh, f0))[0]


@pytest.fixture(scope="module")
def torus_minimizer(model, torus):
    """The shipped torus band's minimizer (unit square 0.03)."""
    mesh = build_mesh("unit_square", 0.03)
    f0 = make_initial_map(
        torus, "torus_band", theta_range=(0.0, np.pi / 2), psi_range=(-np.pi / 3, np.pi / 3)
    )
    return mesh, minimize(model, torus, mesh, initialize(torus, mesh, f0))[0]


def _inside_boundary(surface, mesh, cfg, gaps):
    """Targets ``gap`` inside the midpoint of boundary edge (loop[0], loop[1]):
    moved toward the third corner of that edge's element, then projected."""
    a, b = mesh.boundary_loops[0][:2]
    tri = next(t for t in mesh.triangles.tolist() if a in t and b in t)
    (c,) = set(tri) - {a, b}
    mid = 0.5 * (cfg[a] + cfg[b])
    inward = (cfg[c] - mid) / np.linalg.norm(cfg[c] - mid)
    return [surface.project(mid + gap * inward) for gap in gaps]


def _splits(monkeypatch):
    """A list that records the element count of every midpoint split."""
    splits = []
    subdivide = diagnostics._subdivide

    def counted(tris):
        splits.append(tris.shape[2])
        return subdivide(tris)

    monkeypatch.setattr(diagnostics, "_subdivide", counted)
    return splits


class TestDegree:
    def test_identity_disk_origin(self, plane, disk_identity):
        mesh, cfg = disk_identity
        res = brouwer_degree(plane, mesh, cfg, np.zeros(3))
        assert res.degree == 1
        assert res.methods_agree
        assert abs(res.mollified_integral - 1.0) < 0.5

    def test_reflection_gives_minus_one(self, plane, disk_identity):
        mesh, _ = disk_identity
        cfg = interpolate(
            plane,
            mesh,
            make_initial_map(plane, "affine", matrix=np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        y = np.array([0.2, 0.1, 0.0])
        res = brouwer_degree(plane, mesh, cfg, y)
        assert res.degree == -1
        assert res.methods_agree
        assert boundary_winding(plane, mesh, cfg, y) == -1

    def test_double_winding(self, plane, annulus_winding):
        mesh, cfg = annulus_winding
        y = np.array([0.7, 0.05, 0.0])
        res = brouwer_degree(plane, mesh, cfg, y)
        assert res.degree == 2
        assert res.methods_agree
        assert boundary_winding(plane, mesh, cfg, y) == 2

    def test_degree_zero_outside_image(self, plane, annulus_winding):
        mesh, cfg = annulus_winding
        y = np.array([0.05, 0.0, 0.0])  # inside the hole
        res = brouwer_degree(plane, mesh, cfg, y)
        assert res.degree == 0
        assert res.mollified_integral == pytest.approx(0.0, abs=1e-9)
        assert boundary_winding(plane, mesh, cfg, y) == 0

    def test_oracle_matches_both_methods_on_suite(self, plane, plane_suite):
        for mesh, cfg, targets, expected in plane_suite:
            for y in targets:
                res = brouwer_degree(plane, mesh, cfg, y)
                oracle = boundary_winding(plane, mesh, cfg, y)
                assert res.degree == oracle == expected
                assert res.methods_agree

    def test_boundary_proximity_rejected(self, plane, disk_identity):
        mesh, cfg = disk_identity
        loop = mesh.boundary_loops[0]
        on_edge = 0.5 * (cfg[loop[0]] + cfg[loop[1]])
        with pytest.raises(BoundaryTooCloseError):
            brouwer_degree(plane, mesh, cfg, on_edge)

    def test_targets_close_to_boundary_edge(self, plane, disk_identity):
        # The bump radius shrinks with the boundary clearance; the quadrature
        # must keep resolving it down to the degree margin.
        mesh, cfg = disk_identity
        loop = mesh.boundary_loops[0]
        a, b = cfg[loop[0]], cfg[loop[1]]
        d = b - a
        inward = np.array([-d[1], d[0], 0.0]) / np.linalg.norm(d)
        for gap in (1e-3, 1e-5, 2e-6):
            res = brouwer_degree(plane, mesh, cfg, 0.5 * (a + b) + gap * inward)
            assert res.degree == 1
            assert res.methods_agree

    def test_invariant_under_interior_perturbation(self, plane, disk_identity):
        mesh, _ = disk_identity
        rng = np.random.default_rng(21)
        y = np.array([0.3, 0.2, 0.0])
        base = interpolate(plane, mesh, make_initial_map(plane, "identity"))
        d0 = brouwer_degree(plane, mesh, base, y).degree
        interior = mesh.interior_mask()
        for _ in range(10):
            cfg = base.copy()
            cfg[interior, :2] += 0.002 * rng.standard_normal(
                (int(interior.sum()), 2)
            )
            res = brouwer_degree(plane, mesh, cfg, y)
            assert res.degree == d0 == 1

    def test_invariant_under_radius_halving(self, plane, disk_identity):
        mesh, cfg = disk_identity
        y = np.array([0.25, -0.15, 0.0])
        r0 = brouwer_degree(plane, mesh, cfg, y)
        r1 = _reference_degree(plane, mesh, cfg, y, mollifier_radius=r0.mollifier_radius / 2)
        assert r0.degree == r1.degree
        assert round(r0.mollified_integral) == round(r1.mollified_integral)

    def test_on_sphere_cap(self, sphere, cap_targets):
        mesh, cfg, targets = cap_targets
        for y in targets:
            res = brouwer_degree(sphere, mesh, cfg, y)
            assert res.degree == 1
            assert res.methods_agree

    def test_far_target_is_degree_zero(self, sphere, cap_targets):
        # No element of the cap lies near the south pole.
        mesh, cfg, _ = cap_targets
        y = np.array([0.0, 0.0, -1.0])
        res = brouwer_degree(sphere, mesh, cfg, y)
        assert (res.degree, res.mollified_integral, res.methods_agree) == (0, 0.0, True)
        assert _outcome(brouwer_degree, sphere, mesh, cfg, y) == _outcome(
            _reference_degree, sphere, mesh, cfg, y
        )

    def test_clearance_measured_in_the_chart(self, torus, torus_band_start):
        # A boundary chord of the torus band's start passes about 3e-4 off
        # the surface: this target is that far from it in space, but on its
        # chart image, where the degree is counted and integrated.
        mesh, cfg, _ = torus_band_start
        y = torus.project(np.array([2.248884557689365, 0.05353343547302427, -0.4332885344537498]))
        in_space, in_chart = _reference_boundary_distances(y, mesh, cfg, torus.chart_at(y))
        assert in_space > 3e-4 > 1e-15 > in_chart
        with pytest.raises(BoundaryTooCloseError, match=r"e-16 from the boundary image in its chart"):
            brouwer_degree(torus, mesh, cfg, y)
        assert _outcome(_reference_degree, torus, mesh, cfg, y) is BoundaryTooCloseError

    def test_curved_targets_near_boundary(
        self, sphere, torus, cap_minimizer, torus_minimizer
    ):
        # The bump stays inside the chart clearance, so its integral is the degree.
        for surface, (mesh, cfg) in ((sphere, cap_minimizer), (torus, torus_minimizer)):
            targets = _inside_boundary(surface, mesh, cfg, (3e-4, 1e-4))
            for y in targets:
                res = brouwer_degree(surface, mesh, cfg, y)
                assert res.degree == 1
                assert abs(res.mollified_integral - 1.0) < 0.1
            _assert_as_reference(surface, mesh, cfg, targets)

    @pytest.mark.parametrize("shape", [(1, 3), (4, 3), (2,)])
    def test_one_target_per_call(self, plane, disk_identity, shape):
        mesh, cfg = disk_identity
        with pytest.raises(ValueError, match="call it once per target"):
            brouwer_degree(plane, mesh, cfg, np.zeros(shape))


class _OnEdge(Exception):
    """The reference's float containment test found the target on an image edge."""


def _reference_point_in_triangles(w, tri_uv, edge_eps):
    """Containment mask of point w in 2D triangles, raising on-edge hits, with
    float edge tests on every element.  With the nudge of ``_reference_degree``
    it is an oracle independent of the module's exact signs, which move a
    target on an edge off it in another direction."""
    a, b, c = tri_uv[:, 0], tri_uv[:, 1], tri_uv[:, 2]

    def edge(p, q):
        return (q[:, 0] - p[:, 0]) * (w[1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (
            w[0] - p[:, 0]
        )

    e0, e1, e2 = edge(a, b), edge(b, c), edge(c, a)
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    scale = np.abs(det) + 1e-300
    inside_pos = (e0 > 0) & (e1 > 0) & (e2 > 0)
    inside_neg = (e0 < 0) & (e1 < 0) & (e2 < 0)
    near_edge = (
        (np.abs(e0) <= edge_eps * scale)
        | (np.abs(e1) <= edge_eps * scale)
        | (np.abs(e2) <= edge_eps * scale)
    )
    boxed = (
        (w[0] >= tri_uv[:, :, 0].min(axis=1) - edge_eps)
        & (w[0] <= tri_uv[:, :, 0].max(axis=1) + edge_eps)
        & (w[1] >= tri_uv[:, :, 1].min(axis=1) - edge_eps)
        & (w[1] <= tri_uv[:, :, 1].max(axis=1) + edge_eps)
    )
    if np.any(near_edge & boxed):
        raise _OnEdge("target point lies on an image edge")
    return inside_pos | inside_neg


def _reference_subdivide(tris):
    """One midpoint split (3, d, k) -> (3, d, 4k), child q of triangle t at
    column q * k + t, written slice by slice (the module's version before its
    one-gather rewrite)."""
    a, b, c = tris
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    d, k = tris.shape[1:]
    out = np.empty((3, d, 4 * k))
    children = ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))
    for q, child in enumerate(children):
        for v, corner in enumerate(child):
            out[v, :, q * k:(q + 1) * k] = corner
    return out


def _reference_stencil():
    """Barycentric centroids (64, 3) of the children of three explicit
    midpoint splits of the identity triangle, child j at row j."""
    tris = np.eye(3)[:, :, None]        # corner v at barycentric e_v
    for _ in range(3):
        tris = _reference_subdivide(tris)
    return ((tris[0] + tris[1] + tris[2]) / 3.0).T


def _reference_segment_distance(w, starts, ends):
    """Distance from w to the segments from rows ``starts`` to rows ``ends``."""
    d = ends - starts
    denom = np.einsum("ij,ij->i", d, d)
    t = np.einsum("ij,ij->i", w - starts, d) / np.where(denom > 0, denom, 1.0)
    closest = starts + np.clip(t, 0.0, 1.0)[:, None] * d
    return float(np.min(np.linalg.norm(w - closest, axis=1), initial=np.inf))


def _reference_boundary_distances(y, mesh, positions, chart):
    """Distances from y to the polygonal boundary image, loop by loop, in
    space and in the chart, there over the segments whose ends it covers."""
    dist = chart_dist = np.inf
    for loop in mesh.boundary_loops:
        starts = positions[np.asarray(loop)]
        ends = np.roll(starts, -1, axis=0)
        dist = min(dist, _reference_segment_distance(y, starts, ends))
        covered = chart.contains(starts) & chart.contains(ends)
        chart_dist = min(
            chart_dist,
            _reference_segment_distance(
                chart.inverse_map(y),
                chart.inverse_map(starts[covered]),
                chart.inverse_map(ends[covered]),
            ),
        )
    return dist, chart_dist


def _reference_profile(s2):
    """exp(-1/(1 - s2)) where s2 < 1, else 0."""
    out = np.zeros_like(s2)
    out[s2 < 1.0] = np.exp(-1.0 / (1.0 - s2[s2 < 1.0]))
    return out


def _reference_degree(surface, mesh, positions, y, mollifier_radius=None, stencil=True):
    """The degree of one target as computed before the per-target pruning.

    Orientation signs of every element, the mesh-wide vertex distances from
    the corner array, per-corner chart coordinates, the containment test on
    every near element and the quadrature of every near element before any
    is dropped; nothing is shared with an earlier call.  The quadrature is
    the 64-child centroid stencil, after splitting the elements while the
    children are wider than the bump, or with ``stencil=False`` the three
    and more materialised midpoint splits it replaced.  The bump radius is
    derived from the boundary clearances in space and in the chart unless
    ``mollifier_radius`` gives it.
    """
    P = positions[mesh.triangles]
    edges = np.stack([P[:, 1] - P[:, 0], P[:, 2] - P[:, 1], P[:, 0] - P[:, 2]], axis=1)
    edge_len = np.linalg.norm(edges, axis=2)
    diam = edge_len.max(axis=1)
    mean_edge = float(np.mean(edge_len))
    signs = np.sign(oriented_area_ratios(mesh, surface, positions)).astype(int)
    chart = surface.chart_at(y)
    bdist, chart_bdist = _reference_boundary_distances(y, mesh, positions, chart)
    if min(bdist, chart_bdist) < DEGREE_MARGIN:
        raise BoundaryTooCloseError("too close")
    vert_dist = np.linalg.norm(P - y, axis=2).min(axis=1)
    if mollifier_radius is None:
        radius = min(3.0 * mean_edge, 0.9 * bdist, chart_bdist)
        if np.isfinite(surface.chart_radius):
            radius = min(radius, 0.25 * surface.chart_radius)
    else:
        radius = float(mollifier_radius)
    near_idx = np.nonzero(vert_dist <= diam + 1.6 * radius + mean_edge)[0]
    ok = chart.contains(P[near_idx]).all(axis=1)
    if not np.all(ok):
        bad = near_idx[~ok]
        if np.any(vert_dist[bad] <= diam[bad] + 1.3 * radius):
            raise ChartSpanFailureError("chart span")
        near_idx = near_idx[ok]
    if near_idx.size == 0:
        return DegreeResult(y, 0, 0.0, radius, True)
    uv = chart.inverse_map(P[near_idx])
    w = chart.inverse_map(y)
    local_scale = float(np.median(np.linalg.norm(uv[:, 1] - uv[:, 0], axis=1)))
    offset = local_scale * 1e-7 * np.array([np.cos(0.7), np.sin(0.7)])
    shift = np.zeros(2)
    for attempt in range(4):
        try:
            inside = _reference_point_in_triangles(w + shift, uv, edge_eps=1e-12)
            break
        except _OnEdge:
            if attempt == 3:
                raise
            shift = offset * 2.0**attempt
    count = int(np.sum(signs[near_idx][inside]))
    tris = np.ascontiguousarray(uv.transpose(1, 2, 0))
    size = float(np.max(np.linalg.norm(uv - np.roll(uv, 1, axis=1), axis=2))) / 8
    if stencil:
        # Split while the children are wider than the bump, dropping the
        # sub-elements whose centroid is farther than bump + width (8 size);
        # then each element's 64 children summed alone, the element sums exactly.
        while size > radius:
            size /= 2
            tris = _reference_subdivide(tris)
            tris = tris[:, :, _distances(tris, w) <= radius + 8.0 * size]
        d = np.einsum("vdt,jv->dtj", tris - w[:, None], _reference_stencil())
        bump = _reference_profile((d[0] * d[0] + d[1] * d[1]) * (1.0 / radius**2))
        e1 = tris[1] - tris[0]
        e2 = tris[2] - tris[0]
        per_element = bump.sum(axis=1) * (0.5 * (e1[0] * e2[1] - e1[1] * e2[0]))
        integral = math.fsum(per_element) / (64.0 * 2.0 * np.pi * _BUMP_C0 * radius**2)
        return DegreeResult(y, count, integral, radius, bool(abs(integral - count) < 0.5))
    for _ in range(3):
        tris = _reference_subdivide(tris)
    while size > radius:
        tris = _reference_subdivide(tris[:, :, _distances(tris, w) <= radius + size])
        size /= 2
    e1 = tris[1] - tris[0]
    e2 = tris[2] - tris[0]
    signed_area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    bump = _reference_profile((_distances(tris, w) / radius) ** 2)
    integral = float(np.sum(signed_area * (bump / (2.0 * np.pi * _BUMP_C0 * radius**2))))
    return DegreeResult(y, count, integral, radius, bool(abs(integral - count) < 0.5))


def _near_elements(mesh, cfg, y, res):
    """Mask of the elements near y for the bump radius of the DegreeResult res."""
    P = cfg[mesh.triangles]
    edge_len = np.linalg.norm(P[:, [1, 2, 0]] - P, axis=2)
    reach = edge_len.max(axis=1) + 1.6 * res.mollifier_radius + np.mean(edge_len)
    return np.linalg.norm(P - y, axis=2).min(axis=1) <= reach


def _outcome(compute, *args, **kwargs):
    """A degree result as comparable values (the integral by its bits), or the error type."""
    try:
        res = compute(*args, **kwargs)
    except MemsurfError as exc:
        return type(exc)
    return res.degree, res.mollified_integral.hex(), res.methods_agree, res.mollifier_radius


def _assert_as_reference(surface, mesh, cfg, targets, **kwargs):
    for y in targets:
        assert _outcome(brouwer_degree, surface, mesh, cfg, y, **kwargs) == _outcome(
            _reference_degree, surface, mesh, cfg, y, **kwargs
        )


class TestDegreeEquivalence:
    """The pruned, memoized degree is bit for bit the whole-mesh computation."""

    def test_sphere_cap_targets(self, sphere, cap_targets, cap_minimizer, monkeypatch):
        mesh, cfg, targets = cap_targets
        _assert_as_reference(sphere, mesh, cfg, targets)
        # Near the boundary the bump is narrower than the children: the kept
        # elements are split twice (gap 3e-3) and four times (gap 1e-3).
        mesh, cfg = cap_minimizer
        splits = _splits(monkeypatch)
        for y, count in zip(_inside_boundary(sphere, mesh, cfg, (3e-3, 1e-3)), (2, 4)):
            splits.clear()
            brouwer_degree(sphere, mesh, cfg, y)
            assert len(splits) == count
            _assert_as_reference(sphere, mesh, cfg, [y])

    def test_plane_suite(self, plane, plane_suite):
        for mesh, cfg, targets, _ in plane_suite:
            _assert_as_reference(plane, mesh, cfg, targets)

    def test_torus_band_start(self, torus, torus_band_start, torus_minimizer, monkeypatch):
        # Tangent-plane charts of finite radius, on a surface of two curvatures.
        mesh, cfg, targets = torus_band_start
        assert torus.chart_radius == 0.375
        assert [brouwer_degree(torus, mesh, cfg, y).degree for y in targets] == [1] * 10
        _assert_as_reference(torus, mesh, cfg, targets)
        mesh, cfg = torus_minimizer
        splits = _splits(monkeypatch)
        for y, count in zip(_inside_boundary(torus, mesh, cfg, (1e-2, 3e-3)), (2, 4)):
            splits.clear()
            brouwer_degree(torus, mesh, cfg, y)
            assert len(splits) == count
            _assert_as_reference(torus, mesh, cfg, [y])

    def test_extra_splits_and_errors(self, plane, sphere, disk_identity, cap_minimizer, monkeypatch):
        mesh, cfg = disk_identity
        loop = mesh.boundary_loops[0]
        a, b = cfg[loop[0]], cfg[loop[1]]
        d = b - a
        inward = np.array([-d[1], d[0], 0.0]) / np.linalg.norm(d)
        near_boundary = [0.5 * (a + b) + gap * inward for gap in (1e-3, 1e-5, 2e-6, 0.0)]
        splits = _splits(monkeypatch)
        brouwer_degree(plane, mesh, cfg, near_boundary[0])
        assert splits                    # the bump is narrower than the children
        _assert_as_reference(plane, mesh, cfg, near_boundary)
        _assert_as_reference(plane, mesh, cfg, [np.zeros(3)])  # a target on image edges
        cap_mesh, cap_cfg = cap_minimizer
        targets = _inside_boundary(sphere, cap_mesh, cap_cfg, (1e-3, 1e-4, 0.0))
        splits.clear()
        brouwer_degree(sphere, cap_mesh, cap_cfg, targets[0])
        assert splits
        _assert_as_reference(sphere, cap_mesh, cap_cfg, targets)

    def test_count_sees_only_kept_elements(self, sphere, cap_targets, monkeypatch):
        rows = []
        orient2d = diagnostics._orient2d

        def counted(p, q, w):
            rows.append(len(p))
            return orient2d(p, q, w)

        mesh, cfg, targets = cap_targets
        monkeypatch.setattr(diagnostics, "_orient2d", counted)
        res = brouwer_degree(sphere, mesh, cfg, targets[0])
        assert 0 < rows[0] < int(_near_elements(mesh, cfg, targets[0], res).sum())
        _assert_as_reference(sphere, mesh, cfg, targets[:1])


def _exact_orient(p, q, w):
    """orient(p, q, w) of one row of float points in exact rationals."""
    (px, py), (qx, qy), (wx, wy) = ([Fraction(float(c)) for c in a] for a in (p, q, w))
    return (qx - px) * (wy - py) - (qy - py) * (wx - px)


def _covers(uv, w):
    """Elements (k, 3, 2) whose exact edge signs all agree about w."""
    return np.abs(diagnostics._orient2d(uv, uv[:, [1, 2, 0]], w).sum(axis=1)) == 3


_RANDOM_TARGET_MODULES = """
import sys
import numpy as np
before = set(sys.modules)
from memsurf import Sphere, brouwer_degree, build_mesh, interpolate, make_initial_map
sphere = Sphere(1.0)
mesh = build_mesh("disk", 0.1)
f0 = make_initial_map(sphere, "stereographic_cap", latitude=1.0)
cfg = interpolate(sphere, mesh, f0)
targets = f0(np.random.default_rng(7).uniform(-0.6, 0.6, (100, 2)))
print(sorted({brouwer_degree(sphere, mesh, cfg, y).degree for y in targets}),
      sorted({"fractions", "decimal"} & (set(sys.modules) - before)))
"""


class TestExactCount:
    """Exact edge signs give the degree at targets on image edges and vertices."""

    def test_vertex_targets_match_reference(
        self, plane, sphere, torus, disk_identity, cap_targets, torus_band_start
    ):
        rng = np.random.default_rng(26)
        cases = [(plane, disk_identity), (sphere, cap_targets), (torus, torus_band_start)]
        for surface, (mesh, cfg, *_) in cases:
            vertices = cfg[rng.choice(np.flatnonzero(mesh.interior_mask()), 10, replace=False)]
            assert [brouwer_degree(surface, mesh, cfg, y).degree for y in vertices] == [1] * 10
            _assert_as_reference(surface, mesh, cfg, vertices)

    def test_interior_edge_target_covered_once(self, plane):
        # Under the identity every node and edge midpoint of this grid has
        # dyadic chart coordinates, so each midpoint lies exactly on its edge.
        mesh = build_mesh("unit_square", 0.125)
        cfg = interpolate(plane, mesh, make_initial_map(plane, "identity"))
        sides = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2), axis=2)
        keys = sides[..., 0] * mesh.num_vertices + sides[..., 1]
        edges, counts = np.unique(keys, return_counts=True)
        interior = edges[counts == 2]
        assert len(interior) == 176
        targets = []
        for key in interior:
            a, b = divmod(int(key), mesh.num_vertices)
            pair = np.flatnonzero((keys == key).any(axis=1))
            y = 0.5 * (cfg[a] + cfg[b])
            chart = plane.chart_at(y)
            uv, w = chart.inverse_map(cfg[mesh.triangles[pair]]), chart.inverse_map(y)
            assert _exact_orient(*chart.inverse_map(cfg[[a, b]]), w) == 0
            assert _covers(uv, w).sum() == 1
            targets.append(y)
        assert [brouwer_degree(plane, mesh, cfg, y).degree for y in targets] == [1] * 176
        _assert_as_reference(plane, mesh, cfg, targets[::16])

    def test_zero_length_edge_covers_nothing(self):
        rng = np.random.default_rng(3)
        a, c = rng.uniform(-1, 1, (2, 2))
        uv = np.array([[a, a, c], [a, c, a], [c, a, a]])
        for w in [a, c, 0.5 * (a + c), *rng.uniform(-1, 1, (20, 2))]:
            assert not _covers(uv, w).any()
        assert np.all(diagnostics._orient2d(a, a, rng.uniform(-1, 1, (20, 2))) == 0)

    def test_signs_antisymmetric_on_near_collinear_rows(self):
        # Targets computed on the lines pq, so nearly collinear, and 400 at p
        # or q, exact zeros that the tie rule decides; swapping p and q flips
        # every sign.
        rng = np.random.default_rng(4)
        p, q = rng.uniform(-1, 1, (2, 2000, 2))
        w = p + rng.uniform(-0.5, 1.5, (2000, 1)) * (q - p)
        w[:200], w[200:400] = p[:200], q[200:400]
        forward, backward = diagnostics._orient2d(p, q, w), diagnostics._orient2d(q, p, w)
        assert np.all(forward == -backward) and np.all(forward != 0)
        exact = [_exact_orient(*row) for row in zip(p, q, w)]
        zero = np.array([e == 0 for e in exact])
        assert zero.sum() >= 400
        assert all(s == (e > 0) - (e < 0) for s, e, z in zip(forward, exact, zero) if not z)
        # On a tie, the move of w to w + (delta, delta^2) decides: the y's, then the x's.
        tie = np.sign(p[:, 1] - q[:, 1])
        tie[p[:, 1] == q[:, 1]] = np.sign(q[:, 0] - p[:, 0])[p[:, 1] == q[:, 1]]
        assert np.array_equal(forward[zero], tie[zero])

    def test_exact_branch_decides_float_zeros(self):
        # Shewchuk's near-collinear points: the exact orient is -12 (j - i) 2^-53.
        i, j = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        w = np.stack([0.5 + i * 2.0**-53, 0.5 + j * 2.0**-53], axis=-1)
        p, q = np.array([24.0, 24.0]), np.array([12.0, 12.0])
        det = (q[0] - p[0]) * (w[..., 1] - p[1]) - (q[1] - p[1]) * (w[..., 0] - p[0])
        float_zero = (det == 0) & (i != j)
        assert float_zero.sum() == 11492
        signs = diagnostics._orient2d(p, q, w)
        assert np.array_equal(signs, np.where(i == j, 1, np.sign(i - j)))

    def test_underflowing_products_decided_exactly(self):
        # Both products underflow, so their rounding error is absolute, not
        # relative: the float determinant is the least subnormal, clears
        # Shewchuk's relative bound, and has the wrong sign.
        p, q, w = (
            np.array([[float.fromhex(x), float.fromhex(y)]])
            for x, y in [
                ("-0x1.e9f63c1d668c8p-567", "0x1.4f59e91429a0ep-582"),
                ("-0x1.28bc8d4a1821bp-513", "0x1.942ae6495e615p-513"),
                ("0x1.86d253396fef8p-513", "-0x1.0a285d8caf70fp-512"),
            ]
        )
        left = (q[0, 0] - p[0, 0]) * (w[0, 1] - p[0, 1])
        right = (q[0, 1] - p[0, 1]) * (w[0, 0] - p[0, 0])
        assert max(abs(left), abs(right)) < np.finfo(float).tiny
        assert left - right > diagnostics._ORIENT_BOUND * (abs(left) + abs(right))
        assert left - right > 0 > _exact_orient(p[0], q[0], w[0])
        assert diagnostics._orient2d(p, q, w).tolist() == [-1]

    def test_random_targets_load_no_rationals(self):
        # Only targets the float filter cannot decide may import fractions
        # (and decimal with it); random interior targets never need them.
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", _RANDOM_TARGET_MODULES],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[1] []"


class TestDegreeStencil:
    """The 64-child stencil is the quadrature of three midpoint splits."""

    def test_weights_are_three_split_centroids(self):
        assert np.array_equal(diagnostics._STENCIL, _reference_stencil())
        assert np.all(np.abs(diagnostics._STENCIL.sum(axis=1) - 1.0) <= np.finfo(float).eps)

    def test_matches_three_split_quadrature(
        self, plane, sphere, torus, cap_targets, plane_suite, torus_band_start,
        cap_minimizer, torus_minimizer,
    ):
        # Near the boundary the bumps are narrower than the children: the
        # kept elements are split two and four times before the stencil.
        cases = [(sphere, *cap_targets[:2], cap_targets[2])]
        cases += [(torus, *torus_band_start[:2], torus_band_start[2])]
        cases += [(plane, mesh, cfg, targets) for mesh, cfg, targets, _ in plane_suite]
        for surface, (mesh, cfg), gaps in (
            (sphere, cap_minimizer, (3e-3, 1e-3)),
            (torus, torus_minimizer, (1e-2, 3e-3)),
        ):
            cases += [(surface, mesh, cfg, _inside_boundary(surface, mesh, cfg, gaps))]
        for surface, mesh, cfg, targets in cases:
            for y in targets:
                res = brouwer_degree(surface, mesh, cfg, y)
                ref = _reference_degree(surface, mesh, cfg, y, stencil=False)
                assert res.degree == ref.degree
                assert abs(res.mollified_integral - ref.mollified_integral) <= 1e-14


_MIRROR_X = np.array([-1.0, 1.0, 1.0])


class TestDegreeMemo:
    """A single call after another on a changed configuration sees the change."""

    def test_positions_edited_in_place(self, plane, disk_identity):
        mesh, base = disk_identity
        cfg = base.copy()
        y = np.array([0.3, 0.2, 0.0])
        before = brouwer_degree(plane, mesh, cfg, y)
        interior = mesh.interior_mask()
        cfg[interior, :2] += 0.01 * np.random.default_rng(23).standard_normal(
            (int(interior.sum()), 2)
        )
        after = _outcome(brouwer_degree, plane, mesh, cfg, y)
        assert after == _outcome(_reference_degree, plane, mesh, cfg, y)
        assert after[1] != before.mollified_integral.hex()

    def test_equal_mesh_copy(self, sphere, cap_targets):
        mesh, cfg, targets = cap_targets
        brouwer_degree(sphere, mesh, cfg, targets[0])
        _assert_as_reference(sphere, copy.deepcopy(mesh), cfg.copy(), targets[:3])

    def test_mirror_back_to_back(self, sphere, cap_targets):
        # Same mesh, the mirrored positions: the element signs must be those
        # of the new configuration, not of the last image built.
        mesh, cfg, targets = cap_targets
        for y in targets[:2]:
            degrees = [
                brouwer_degree(sphere, mesh, c, w).degree
                for c, w in ((cfg, y), (cfg * _MIRROR_X, y * _MIRROR_X), (cfg, y))
            ]
            assert degrees == [1, -1, 1]

    def test_mirrored_cap_flips_degree(self, sphere, cap_targets):
        # The cap mirrored by x -> -x reverses the outward orientation.
        mesh, cfg, targets = cap_targets
        mirrored = cfg * _MIRROR_X
        for y in targets[:3]:
            up = brouwer_degree(sphere, mesh, cfg, y)
            down = _outcome(brouwer_degree, sphere, mesh, mirrored, y * _MIRROR_X)
            assert down == _outcome(_reference_degree, sphere, mesh, mirrored, y * _MIRROR_X)
            assert down[0] == -up.degree == -1


def _clearance_calls(monkeypatch):
    """A list that records the dimension of the point (3 in space, 2 in the
    chart) of every exact boundary-clearance evaluation."""
    calls = []
    segment_distances = diagnostics._segment_distances

    def counted(point, starts, ends):
        calls.append(len(point))
        return segment_distances(point, starts, ends)

    monkeypatch.setattr(diagnostics, "_segment_distances", counted)
    return calls


class TestDegreeShortcuts:
    """The degree skips only evaluations that cannot change a bit of it."""

    def test_far_target_evaluates_no_clearance(self, sphere, cap_minimizer, monkeypatch):
        # Near the cap's pole both lower bounds clear the bump radius.
        mesh, cfg = cap_minimizer
        y = sphere.project(cfg.mean(axis=0))
        calls = _clearance_calls(monkeypatch)
        res = brouwer_degree(sphere, mesh, cfg, y)
        assert calls == []
        assert res.mollifier_radius == 3.0 * diagnostics._image_of(mesh, sphere, cfg).mean_edge
        _assert_as_reference(sphere, mesh, cfg, [y])

    def test_spatial_clearance_binds_the_radius(self, sphere, cap_minimizer, monkeypatch):
        mesh, cfg = cap_minimizer
        calls = _clearance_calls(monkeypatch)
        for y in _inside_boundary(sphere, mesh, cfg, (3e-3, 1e-3)):
            calls.clear()
            res = brouwer_degree(sphere, mesh, cfg, y)
            assert calls == [3, 2]
            in_space, in_chart = _reference_boundary_distances(y, mesh, cfg, sphere.chart_at(y))
            assert res.mollifier_radius == pytest.approx(0.9 * in_space, rel=1e-12)
            assert res.mollifier_radius < in_chart
            _assert_as_reference(sphere, mesh, cfg, [y])

    def test_chart_clearance_binds_below_the_spatial(self, torus, torus_band_start, monkeypatch):
        # 1e-4 inside the inclined boundary chord of
        # test_clearance_measured_in_the_chart, along the chart's second axis:
        # about 1e-4 from its chart image, 3.3e-4 from it in space.
        mesh, cfg, _ = torus_band_start
        on_chord = torus.project(
            np.array([2.248884557689365, 0.05353343547302427, -0.4332885344537498])
        )
        y = torus.project(on_chord + 1e-4 * torus.chart_at(on_chord).t2)
        in_space, in_chart = _reference_boundary_distances(y, mesh, cfg, torus.chart_at(y))
        assert DEGREE_MARGIN < in_chart < 0.9 * in_space
        calls = _clearance_calls(monkeypatch)
        res = brouwer_degree(torus, mesh, cfg, y)
        assert calls == [3, 2]
        assert res.mollifier_radius == pytest.approx(in_chart, rel=1e-12)
        _assert_as_reference(torus, mesh, cfg, [y])

    def test_vertex_target_passes_the_box_prefilter(
        self, plane, sphere, torus, disk_identity, cap_targets, torus_band_start, monkeypatch
    ):
        # Every element around a target vertex has it as a corner, so its
        # closed chart box holds the target and its edges are tested.
        rows = []
        orient2d = diagnostics._orient2d

        def recorded(p, q, w):
            rows.append(int(np.sum(np.any(np.all(p == w, axis=-1), axis=-1))))
            return orient2d(p, q, w)

        monkeypatch.setattr(diagnostics, "_orient2d", recorded)
        rng = np.random.default_rng(34)
        cases = [(plane, disk_identity), (sphere, cap_targets), (torus, torus_band_start)]
        for surface, (mesh, cfg, *_) in cases:
            for v in rng.choice(np.flatnonzero(mesh.interior_mask()), 5, replace=False):
                rows.clear()
                brouwer_degree(surface, mesh, cfg, cfg[v])
                assert rows == [int(np.sum(np.any(mesh.triangles == v, axis=1)))]
                _assert_as_reference(surface, mesh, cfg, [cfg[v]])


def test_bump_mass_constant_matches_quadrature():
    # integral over [0, 1) of exp(-1/(1-s^2)) s ds, by substitution u = 1-s^2.
    u = np.linspace(1e-12, 1.0, 200_001)
    c0 = 0.5 * float(np.trapezoid(np.exp(-1.0 / u), u))
    assert abs(_BUMP_C0 - c0) <= math.ulp(c0)

def _clip_polygon(subject, cx, cy, nx, ny):
    """Keep the part of polygon ``subject`` with n . (p - c) <= 0."""
    out = []
    k = len(subject)
    for i in range(k):
        p = subject[i]
        q = subject[(i + 1) % k]
        dp = nx * (p[0] - cx) + ny * (p[1] - cy)
        dq = nx * (q[0] - cx) + ny * (q[1] - cy)
        if dp <= 0:
            out.append(p)
            if dq > 0:
                t = dp / (dp - dq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif dq <= 0:
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _triangle_overlap_area(t1, t2):
    """Intersection area of two 2D triangles, one pair at a time (the module's
    scalar Sutherland-Hodgman clip before the batched ``_overlap_areas``)."""

    def ccw(t):
        e1 = (t[1][0] - t[0][0], t[1][1] - t[0][1])
        e2 = (t[2][0] - t[0][0], t[2][1] - t[0][1])
        return t if e1[0] * e2[1] - e1[1] * e2[0] >= 0 else (t[0], t[2], t[1])

    t1 = ccw([tuple(p) for p in t1])
    t2 = ccw([tuple(p) for p in t2])
    poly = list(t1)
    for i in range(3):
        a = t2[i]
        b = t2[(i + 1) % 3]
        # Inward normal of edge (a, b) of a CCW triangle is to its left.
        nx, ny = (b[1] - a[1]), -(b[0] - a[0])
        poly = _clip_polygon(poly, a[0], a[1], nx, ny)
        if not poly:
            return 0.0
    area = 0.0
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        area += x0 * y1 - x1 * y0
    return 0.5 * abs(area)


def _reference_overlaps(surface, mesh, cfg):
    """Brute-force injectivity scan: (checked pairs, {(i, j): overlap area}).

    Every element pair whose image boxes intersect and that shares fewer
    than two vertices is clipped exactly, in the chart at the projection of
    the pair's vertex mean; a pair that chart does not cover raises.
    """
    P = cfg[mesh.triangles]
    lo, hi = P.min(axis=1), P.max(axis=1)
    rank = np.empty(len(P), dtype=int)
    rank[np.argsort(lo[:, 0], kind="stable")] = np.arange(len(P))
    checked, overlaps = 0, {}
    for a in range(len(P)):
        for b in range(a + 1, len(P)):
            if np.any(lo[a] > hi[b]) or np.any(lo[b] > hi[a]):
                continue
            if len(set(mesh.triangles[a]) & set(mesh.triangles[b])) >= 2:
                continue
            checked += 1
            i, j = (a, b) if rank[a] < rank[b] else (b, a)
            pts = np.concatenate([P[i], P[j]])
            chart = surface.chart_at(surface.project(pts.mean(axis=0)))
            if not np.all(chart.contains(pts)):
                raise ChartSpanFailureError(f"element pair ({i}, {j})")
            uv = chart.inverse_map(pts)
            area = _triangle_overlap_area(uv[:3], uv[3:])
            if area > OVERLAP_AREA_TOL:
                overlaps[(i, j)] = area
    return checked, overlaps


def _assert_matches_reference(surface, mesh, cfg):
    rep = injectivity_check(surface, mesh, cfg)
    checked, ref = _reference_overlaps(surface, mesh, cfg)
    assert rep.checked_pairs == checked
    assert rep.overlapping_pairs == len(ref) <= 100
    assert {(i, j) for i, j, _ in rep.pairs} == set(ref)
    for i, j, area in rep.pairs:
        assert area == pytest.approx(ref[(i, j)], rel=1e-12, abs=1e-15)
    assert rep.total_overlap_area == pytest.approx(sum(ref.values()), rel=1e-12)
    return rep


def _offset(tri):
    """A triangle moved off the dyadic grid, so its pairs round."""
    return [(0.37 * x + 1 / 3, 0.37 * y + 2 / 7) for x, y in tri]


_UNIT = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
# Triangle pairs the batched clip must take through the scalar clip's bits.
_CLIP_PAIRS = {
    "shared vertex": (_UNIT, [(0.0, 0.0), (1.0, 0.5), (0.5, 1.0)]),
    "collinear shared edge, apart": (_UNIT, [(0.0, 0.0), (1.0, 0.0), (0.5, -0.5)]),
    "collinear shared edge, folded": (_UNIT, [(1.0, 0.0), (0.0, 0.0), (0.5, 0.3)]),
    "point touch": (_UNIT, [(1.0, 0.0), (2.0, 0.0), (1.5, 1.0)]),
    "identical": (_UNIT, _UNIT),
    "identical, other first corner": (_UNIT, _UNIT[1:] + _UNIT[:1]),
    "nested": (_UNIT, [(0.2, 0.2), (0.5, 0.2), (0.2, 0.5)]),
    "opposite orientations": (_UNIT, [(0.6, 0.6), (0.9, -0.2), (-0.2, 0.1)]),
    "sliver": ([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-9)], [(0.25, -1.0), (0.75, -1.0), (0.5, 1.0)]),
}


class TestOverlapClip:
    """The batched clip gives the areas of the scalar clip, bit for bit."""

    @pytest.mark.parametrize("moved", [False, True])
    def test_named_pairs(self, moved):
        pairs = [
            (_offset(a) + _offset(b)) if moved else (a + b) for a, b in _CLIP_PAIRS.values()
        ]
        areas = _overlap_areas(np.array(pairs))
        expected = [float(_triangle_overlap_area(p[:3], p[3:])) for p in pairs]
        assert [a.hex() for a in areas.tolist()] == [a.hex() for a in expected]
        assert dict(zip(_CLIP_PAIRS, areas.tolist()))["point touch"] == 0.0

    def test_random_pairs(self):
        # Gaussian pairs, and pairs on a coarse grid, where corners coincide,
        # edges are collinear and polygons degenerate.
        rng = np.random.default_rng(34)
        pairs = np.concatenate(
            [rng.standard_normal((1000, 6, 2)), rng.integers(-2, 3, (1000, 6, 2)) / 2.0]
        )
        expected = [float(_triangle_overlap_area(p[:3], p[3:])).hex() for p in pairs]
        assert [a.hex() for a in _overlap_areas(pairs).tolist()] == expected
        assert _overlap_areas(np.empty((0, 6, 2))).shape == (0,)

    def test_folded_cap_report_equals_reference(self, sphere):
        # A cap of 288 elements folded across the diagonal: its overlapping
        # pairs start in several 128-element blocks of the sweep, and their
        # areas, recorded in sweep order, are those of the scalar clip.
        mesh = build_mesh("unit_square", 1 / 12)
        square = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        interior = mesh.interior_mask()
        x = np.column_stack([mesh.vertices.max(axis=1), mesh.vertices.min(axis=1)])
        x[interior] += 0.02 * np.random.default_rng(6).standard_normal((int(interior.sum()), 2))
        cfg = square(x)
        checked, ref = _reference_overlaps(sphere, mesh, cfg)
        rank = np.empty(len(mesh.triangles), dtype=int)
        rank[np.argsort(cfg[mesh.triangles].min(axis=1)[:, 0], kind="stable")] = np.arange(
            len(rank)
        )
        in_sweep = sorted(ref.items(), key=lambda rec: (rank[rec[0][0]], rank[rec[0][1]]))
        assert len({rank[i] // diagnostics._SWEEP_BLOCK for (i, _), _ in in_sweep}) >= 2
        total = 0.0
        for _, area in in_sweep:
            total += area
        worst = sorted(((i, j, area) for (i, j), area in in_sweep), key=lambda rec: -rec[2])
        expected = OverlapReport(checked, len(ref), total, total <= OVERLAP_AREA_TOL, worst[:100])
        assert injectivity_check(sphere, mesh, cfg) == expected


def _pair_mesh(surface, image):
    """A mesh whose only checked pair is triangles (0, 1, 2) and the last one.

    Five image points give a fan of three triangles around vertex 0, whose
    first and last share only that vertex; six give two separate triangles.
    """
    image = np.asarray(image, dtype=float)
    if len(image) == 5:
        vertices = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
        triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4)]
    else:
        vertices = [(0, 0), (1, 0), (0, 1), (2, 0), (3, 0), (2, 1)]
        triangles = [(0, 1, 2), (3, 4, 5)]
    mesh = TriMesh.from_arrays(vertices, triangles)
    return mesh, np.column_stack([image, np.zeros(len(image))])


class TestInjectivity:
    def test_identity_clean(self, plane, disk_identity):
        mesh, cfg = disk_identity
        rep = injectivity_check(plane, mesh, cfg)
        assert rep.injective
        assert rep.overlapping_pairs == 0
        assert rep.total_overlap_area == 0.0
        assert rep.checked_pairs > 0

    def test_square_clean(self, plane, torus):
        # Each pair in the chart at its own midpoint; the torus band's
        # elements are long enough that a chart centered on one element
        # would not cover some pairs.
        mesh = build_mesh("unit_square", 1 / 16)
        for surface in (plane, torus):
            cfg = interpolate(surface, mesh, _square_onto(surface))
            rep = injectivity_check(surface, mesh, cfg)
            assert rep.injective
            assert rep.overlapping_pairs == 0
            assert rep.checked_pairs > 0

    def test_fold_overlap_area(self, plane, torus):
        mesh = build_mesh("unit_square", 1 / 16)
        for surface in (plane, torus):
            square = _square_onto(surface)

            def fold(x):
                u = np.maximum(x[:, 0], x[:, 1])
                v = np.minimum(x[:, 0], x[:, 1])
                return square(np.column_stack([u, v]))

            cfg = interpolate(surface, mesh, fold)
            rep = injectivity_check(surface, mesh, cfg)
            assert not rep.injective
            assert rep.overlapping_pairs > 0
            if surface.kind != "torus":
                # Half the square is folded over in the (x, y) chart; the strip
                # of edge-adjacent mirror elements along the diagonal is
                # excluded from the pair scan.
                h = 1 / 16
                assert 0.5 - 2 * h <= rep.total_overlap_area <= 0.5 + 1e-12

    def test_coarse_torus_names_pair_and_chart_radius(self, torus):
        mesh = build_mesh("unit_square", 1 / 8)
        cfg = interpolate(torus, mesh, make_initial_map(torus, "torus_band"))
        with pytest.raises(ChartSpanFailureError) as err:
            injectivity_check(torus, mesh, cfg)
        msg = str(err.value)
        assert re.search(r"element pair \(\d+, \d+\)", msg)
        assert "largest chord" in msg
        assert f"chart radius {torus.chart_radius:.4g}" in msg
        assert "domain.resolution" in msg

    @pytest.mark.parametrize("kind", ["plane", "sphere", "torus"])
    def test_filter_matches_brute_force(self, kind, plane, sphere, torus):
        surface = {"plane": plane, "sphere": sphere, "torus": torus}[kind]
        if kind == "torus":
            square = make_initial_map(
                torus, "torus_band", theta_range=(0.0, 0.2), psi_range=(-0.3, 0.3)
            )
        elif kind == "sphere":
            square = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        else:
            square = _square_onto(surface)
        mesh = build_mesh("unit_square", 0.25)
        interior = mesh.interior_mask()
        overlapping = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            x = mesh.vertices.copy()
            if seed % 2:
                # Folded across the diagonal, then jittered.
                x = np.column_stack([x.max(axis=1), x.min(axis=1)])
                x[interior] += 0.05 * rng.standard_normal((int(interior.sum()), 2))
            else:
                # Jittered past inversion.
                x[interior] += 0.15 * rng.standard_normal((int(interior.sum()), 2))
            cfg = square(x)
            overlapping += _assert_matches_reference(surface, mesh, cfg).overlapping_pairs
        assert overlapping > 0

    @pytest.mark.parametrize("kind", ["sphere", "torus"])
    def test_mirror_reports_same_overlaps(self, kind, sphere, torus):
        # A folded, jittered cap and its mirror x -> -x, which reverses the
        # x sweep order of many pairs, report the same pairs and areas.
        surface = {"sphere": sphere, "torus": torus}[kind]
        if kind == "torus":
            square = make_initial_map(
                torus, "torus_band", theta_range=(-0.1, 0.1), psi_range=(-0.3, 0.3)
            )
        else:
            square = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        mesh = build_mesh("unit_square", 0.25)
        interior = mesh.interior_mask()
        x = np.column_stack([mesh.vertices.max(axis=1), mesh.vertices.min(axis=1)])
        x[interior] += 0.05 * np.random.default_rng(1).standard_normal((int(interior.sum()), 2))
        cfg = square(x)
        rep = injectivity_check(surface, mesh, cfg)
        rep_m = injectivity_check(surface, mesh, cfg * np.array([-1.0, 1.0, 1.0]))
        assert rep.overlapping_pairs > 0
        assert rep_m.checked_pairs == rep.checked_pairs
        assert rep_m.overlapping_pairs == rep.overlapping_pairs
        areas = {(min(i, j), max(i, j)): area for i, j, area in rep.pairs}
        mirrored = {(min(i, j), max(i, j)): area for i, j, area in rep_m.pairs}
        assert mirrored.keys() == areas.keys()
        for key, area in areas.items():
            assert mirrored[key] == pytest.approx(area, rel=1e-12, abs=1e-15)

    def test_touching_pairs_and_real_overlaps(self, plane):
        # One shared vertex: images that only touch there, then overlap.
        touch = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
        fold = [(0, 0), (1, 0), (0, 1), (1, 0.5), (0.5, 1)]
        # No shared vertex: an edge lying along an edge, apex out, then in.
        along = [(0, 0), (1, 0), (0, 1), (0.2, 0), (0.8, 0), (0.5, -0.5)]
        across = [(0, 0), (1, 0), (0, 1), (0.2, 0), (0.8, 0), (0.5, 0.3)]
        for image, overlaps in [(touch, 0), (fold, 1), (along, 0), (across, 1)]:
            mesh, cfg = _pair_mesh(plane, image)
            rep = _assert_matches_reference(plane, mesh, cfg)
            assert rep.checked_pairs == 1
            assert rep.overlapping_pairs == overlaps

    def test_converged_cap_injective(self, model, sphere):
        mesh = build_mesh("disk", 0.15)
        f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
        cfg, _ = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
        rep = injectivity_check(sphere, mesh, cfg)
        assert rep.injective
        assert rep.total_overlap_area <= 1e-12

    def test_image_area_additivity_for_injective_affine(self, model, plane):
        mesh = build_mesh("unit_square", 0.1)
        A = np.array([[1.1, 0.2], [0.0, 0.9]])
        cfg = interpolate(plane, mesh, make_initial_map(plane, "affine", matrix=A))
        J = oriented_area_ratios(mesh, plane, cfg)
        image_area = float(np.sum(mesh.ref_area * np.abs(J)))
        assert image_area == pytest.approx(abs(np.linalg.det(A)), abs=1e-8)

    def test_folded_map_double_counts_area(self, model, plane):
        mesh = build_mesh("unit_square", 0.1)

        def fold(x):
            u = np.maximum(x[:, 0], x[:, 1])
            v = np.minimum(x[:, 0], x[:, 1])
            return plane.embed(np.column_stack([u, v]))

        cfg = interpolate(plane, mesh, fold)
        J = oriented_area_ratios(mesh, plane, cfg)
        image_area = float(np.sum(mesh.ref_area * np.abs(J)))
        # Covered region has area 1/2 but is traversed twice.
        assert image_area == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def cap(model, sphere):
    mesh = build_mesh("disk", 0.12)
    f0 = make_initial_map(sphere, "stereographic_cap", latitude=np.pi / 3)
    cfg, report = minimize(model, sphere, mesh, initialize(sphere, mesh, f0))
    return mesh, f0, cfg, report


def _reference_residuals(model, surface, mesh, positions, family_size, seed):
    """Per-field (lagrangian, eulerian, normalization, admissible), element by element.

    The residuals as sums over every element of A_t S:Psi_t and of
    A_t J_t sigma:D_t with D_t = Psi_t F_t^+, and admissibility from the
    full-mesh ``_admissible`` of both varied configurations.
    """
    F = _kinematics(mesh, surface, positions)[0]
    S = pk1_batch(model, F)
    l1, l2 = _stretches(F)
    area_ratio = l1 * l2
    cauchy = np.einsum("tij,tkj->tik", S, F) / area_ratio[:, None, None]
    Fplus = np.linalg.inv(np.einsum("tij,tik->tjk", F, F)) @ np.swapaxes(F, 1, 2)
    out = []
    for *_, psi in _test_fields(surface, mesh, positions, family_size, seed):
        Psi = np.einsum("tva,tvb->tab", psi[mesh.triangles], mesh.shape_grads)
        lag = float(np.sum(mesh.ref_area * np.einsum("tab,tab->t", S, Psi)))
        D = np.einsum("tab,tbj->taj", Psi, Fplus)
        eul = float(np.sum(mesh.ref_area * area_ratio * np.einsum("tij,tij->t", cauchy, D)))
        admissible = all(_admissible(mesh, surface, positions + t * psi) for t in (1e-3, -1e-3))
        out.append((lag, eul, math.sqrt(_dot(psi, psi)), admissible))
    return out


class TestResiduals:
    def test_converged_residual_small(self, model, sphere, cap):
        mesh, _, cfg, report = cap
        grad_tol = 1e-7 * mesh.total_area
        results = first_variation_residual(model, sphere, mesh, cfg, 12, seed=0)
        assert len(results) == 12
        worst = max(abs(r.lagrangian_residual) / r.normalization for r in results)
        assert worst <= 10 * grad_tol

    def test_lagrangian_equals_eulerian(self, model, sphere, plane, cap):
        mesh, f0, cfg, _ = cap
        for surface, config in [
            (sphere, cfg),
            (sphere, interpolate(sphere, mesh, f0)),
        ]:
            for r in first_variation_residual(model, surface, mesh, config, 8, seed=3):
                assert abs(r.lagrangian_residual - r.eulerian_residual) <= 1e-10 * max(
                    r.normalization, 1e-30
                )

    def test_nonstationary_residual_large(self, model, sphere, cap):
        mesh, f0, _, _ = cap
        grad_tol = 1e-7 * mesh.total_area
        cfg0 = interpolate(sphere, mesh, f0)
        results = first_variation_residual(model, sphere, mesh, cfg0, 12, seed=0)
        worst = max(abs(r.lagrangian_residual) / r.normalization for r in results)
        assert worst > 1e3 * grad_tol

    def test_stress_free_identity_zero_residual(self, model, plane):
        mesh = build_mesh("disk", 0.2)
        cfg = interpolate(plane, mesh, make_initial_map(plane, "identity"))
        for r in first_variation_residual(model, plane, mesh, cfg, 6, seed=1):
            assert abs(r.lagrangian_residual) < 1e-12

    def test_variations_admissible(self, model, sphere, cap):
        mesh, _, cfg, _ = cap
        results = first_variation_residual(model, sphere, mesh, cfg, 12, seed=0)
        assert all(r.admissible for r in results)

    def test_admissible_is_trial_feasibility(self, model, sphere, cap):
        # Without the energy, the same verdict as trial_energy: a small
        # variation stays feasible, a large one folds elements below J_FLOOR,
        # and the two steps that bracket the floor (by bisection) split.
        mesh, _, cfg, _ = cap
        psi = _test_fields(sphere, mesh, cfg, 1, seed=0)[0][4]
        lo, hi = 1e-3, 0.3
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.min(oriented_area_ratios(mesh, sphere, cfg + mid * psi)) > J_FLOOR:
                lo = mid
            else:
                hi = mid
        verdicts = set()
        for tau in (1e-3, -1e-3, lo, hi, 1.0, 3.0, -3.0):
            moved = cfg + tau * psi
            ok = _admissible(mesh, sphere, moved)
            assert ok is trial_energy(model, mesh, sphere, moved)[2]
            if not ok:
                assert not np.min(oriented_area_ratios(mesh, sphere, moved)) > J_FLOOR
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_failed_projection_is_inadmissible(self, model, cap, monkeypatch):
        # The base configuration projects; every varied one lands on the
        # medial axis, which makes the variation inadmissible, not an error.
        # The element centroids are projected by ``projected_normal``.
        mesh, _, cfg, _ = cap
        surface = Sphere(1.0)
        projected_normal, calls = surface.projected_normal, []

        def medial(p):
            calls.append(1)
            if len(calls) > 1:
                raise AmbiguousProjectionError("point on the medial axis")
            return projected_normal(p)

        monkeypatch.setattr(surface, "projected_normal", medial)
        results = first_variation_residual(model, surface, mesh, cfg, 6, seed=0)
        assert len(results) == 6 and not any(r.admissible for r in results)
        assert _admissible(mesh, surface, cfg) is trial_energy(model, mesh, surface, cfg)[2] is False

    def test_assembled_residuals_match_per_element_sums(
        self, model, sphere, torus, plane, cap, torus_band_start
    ):
        square = build_mesh("unit_square", 0.05)

        def bent(x):
            u, v = x[:, 0], x[:, 1]
            return plane.embed(np.column_stack([u * (1 + 0.2 * v), v + 0.1 * u**2]))

        cases = [
            (sphere, cap[0], cap[2]),
            (torus, *torus_band_start[:2]),
            (plane, square, interpolate(plane, square, bent)),
        ]
        worst = []
        for surface, mesh, cfg in cases:
            results = first_variation_residual(model, surface, mesh, cfg, 12, seed=0)
            reference = _reference_residuals(model, surface, mesh, cfg, 12, seed=0)
            assert len(results) == 12
            for r, (lag, eul, norm, admissible) in zip(results, reference):
                assert r.normalization == norm > 0
                assert abs(r.lagrangian_residual - lag) <= 1e-14 * norm
                assert abs(r.eulerian_residual - eul) <= 1e-14 * norm
                assert r.admissible is admissible
            worst.append(max(abs(lag) / norm for lag, _, norm, _ in reference))
        # The converged cap, then two starts far from stationary.
        assert worst[0] < 1e-6 and min(worst[1:]) > 1e-3

    def test_admissible_only_moved_elements_recomputed(self, model):
        # Each field's verdict must be the full-mesh one at both steps: on a
        # clean square, with a folded element that no field moves, and with
        # a nearly flat element on the rim of a support, which that field folds.
        plane = Plane()
        mesh = build_mesh("unit_square", 0.1)
        clean = plane.embed(mesh.vertices)

        folded = clean.copy()
        corner = int(np.flatnonzero(np.all(mesh.vertices == [1.0, 0.0], axis=1))[0])
        folded[corner, :2] = [0.94, 0.06]       # across its triangle's far edge
        bad = np.flatnonzero(oriented_area_ratios(mesh, plane, folded) <= J_FLOOR)
        assert len(bad) == 1
        for *_, psi in _test_fields(plane, mesh, folded, 12, seed=0):
            assert not psi[mesh.triangles[bad]].any()    # outside every support

        # An element t on the rim of the first field's support: psi vanishes
        # at its interior vertex w, which goes almost onto the far edge.
        on = np.any(_test_fields(plane, mesh, clean, 1, seed=0)[0][4] != 0, axis=1)
        interior = mesh.interior_mask()
        t, w = next(
            (t, w)
            for t, tri in enumerate(mesh.triangles)
            if on[tri].any()
            for w in tri
            if not on[w] and interior[w]
        )
        thin = clean.copy()
        mid = clean[[u for u in mesh.triangles[t] if u != w]].mean(axis=0)
        thin[w] = mid + 1e-4 * (clean[w] - mid)   # J_t about 1e-4
        assert 0 < oriented_area_ratios(mesh, plane, thin)[t] < 1e-3
        on = np.any(_test_fields(plane, mesh, thin, 1, seed=0)[0][4] != 0, axis=1)
        assert 0 < on[mesh.triangles[t]].sum() < 3

        verdicts = []
        for cfg in (clean, folded, thin):
            results = first_variation_residual(model, plane, mesh, cfg, 12, seed=0)
            flags = [r.admissible for r in results]
            reference = _reference_residuals(model, plane, mesh, cfg, 12, seed=0)
            assert flags == [admissible for *_, admissible in reference]
            verdicts.append(set(flags))
        assert verdicts == [{True}, {False}, {True, False}]

    def test_fields_vanish_on_boundary(self, model, sphere, cap):
        mesh, _, cfg, _ = cap
        for _, _, _, _, psi in _test_fields(sphere, mesh, cfg, 12, seed=0):
            assert np.abs(psi[mesh.boundary_vertices]).max() == 0.0
            n = sphere.normal_unchecked(cfg)
            assert np.abs(np.einsum("ij,ij->i", psi, n)).max() < 1e-12
