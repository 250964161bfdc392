import numpy as np
import pytest

from memsurf import (
    AmbiguousProjectionError,
    OffSurfaceError,
    Plane,
    Sphere,
    Torus,
    build_mesh,
    make_surface,
)
from memsurf.geometry import _orthonormal_frame, _row_norms

from conftest import surface_samples


def test_sphere_normal_radial(sphere):
    assert np.allclose(sphere.normal_unchecked([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0], atol=1e-14)


def test_plane_normal(plane):
    assert np.allclose(plane.normal_unchecked([3.0, -2.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-14)


def test_torus_normal_outer_equator(torus):
    n = torus.normal_unchecked([2.5, 0.0, 0.0])
    assert np.allclose(n, [1.0, 0.0, 0.0], atol=1e-13)


def test_torus_normal_matches_levelset_gradient(torus):
    rng = np.random.default_rng(0)
    pts = surface_samples(torus, rng, 50)
    n = torus.normal_unchecked(pts)
    h = 1e-6
    for k in range(3):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, k] += h
        dm[:, k] -= h
        fd = (torus.implicit(dp) - torus.implicit(dm)) / (2 * h)
        grad_norm = np.linalg.norm(torus.implicit_grad(pts), axis=1)
        assert np.abs(fd - n[:, k] * grad_norm).max() < 1e-7


def test_normal_unit_length(all_surfaces):
    rng = np.random.default_rng(1)
    for surf in all_surfaces:
        pts = surface_samples(surf, rng, 200)
        n = surf.normal_unchecked(pts)
        assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("y", [[0.0, 0.0, 1.5], [0.0, np.nan, 1.0]])
def test_chart_off_surface_raises(sphere, y):
    with pytest.raises(OffSurfaceError):
        sphere.chart_at(y)


def _normal_lipschitz(surf):
    """Bound on |n(y1) - n(y2)| / |y1 - y2| at close range."""
    if surf.kind == "plane":
        return 0.0
    return 1.0 / surf.curvature_radius


def test_normal_continuity_lipschitz(all_surfaces):
    rng = np.random.default_rng(2)
    for surf in all_surfaces:
        L = _normal_lipschitz(surf)
        pts = surface_samples(surf, rng, 300)
        h = 1e-3 * surf.curvature_radius
        t = rng.standard_normal((300, 3))
        t = surf.tangent_project_unchecked(pts, t)
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        nearby = surf.project(pts + h * t)
        dn = np.linalg.norm(surf.normal_unchecked(nearby) - surf.normal_unchecked(pts), axis=1)
        dy = np.linalg.norm(nearby - pts, axis=1)
        assert np.all(dn <= 1.5 * L * dy + 1e-12)


def test_projection_examples(plane, sphere, torus):
    assert np.allclose(sphere.project([0.0, 0.0, 2.0]), [0.0, 0.0, 1.0])
    assert np.allclose(plane.project([1.0, 2.0, 3.0]), [1.0, 2.0, 0.0])
    assert np.allclose(torus.project([3.0, 0.0, 0.0]), [2.5, 0.0, 0.0])


def test_projection_idempotent(all_surfaces):
    rng = np.random.default_rng(3)
    for surf in all_surfaces:
        base = surface_samples(surf, rng, 300)
        offsets = rng.uniform(-0.3, 0.6, (300, 1)) * surf.curvature_radius
        p = base + offsets * surf.normal_unchecked(base)
        y = surf.project(p)
        assert np.abs(surf.project(y) - y).max() < 1e-10
        assert np.max(surf.distance(y)) < 1e-10 * max(1.0, surf.curvature_radius)


def test_projection_optimality_sampled(all_surfaces):
    # 1e4 ambient points per surface, each compared against 100 random
    # on-surface candidates.
    rng = np.random.default_rng(4)
    n = 10_000
    for surf in all_surfaces:
        base = surface_samples(surf, rng, n)
        p = base + rng.uniform(-0.3, 0.6, (n, 1)) * surf.curvature_radius * surf.normal_unchecked(base)
        y = surf.project(p)
        d_proj = np.linalg.norm(y - p, axis=1)
        alt = surface_samples(surf, rng, 100)
        # (n, 100) pairwise distances against the candidate pool.
        d_alt = np.linalg.norm(p[:, None, :] - alt[None, :, :], axis=2)
        assert np.all(d_proj[:, None] <= d_alt + 1e-12)


def test_projection_residual_parallel_to_normal(plane, sphere, torus):
    rng = np.random.default_rng(5)
    for surf in (plane, sphere, torus):
        base = surface_samples(surf, rng, 200)
        p = base + rng.uniform(0.05, 0.4, (200, 1)) * surf.curvature_radius * surf.normal_unchecked(base)
        y = surf.project(p)
        w = p - y
        wn = np.linalg.norm(w, axis=1)
        cosang = np.abs(np.einsum("ij,ij->i", w, surf.normal_unchecked(y))) / wn
        assert np.min(cosang) > 1.0 - 1e-8


def test_medial_axis_errors(sphere, torus):
    with pytest.raises(AmbiguousProjectionError):
        sphere.project([0.0, 0.0, 0.0])
    with pytest.raises(AmbiguousProjectionError):
        torus.project([0.0, 0.0, 0.7])  # on the axis
    with pytest.raises(AmbiguousProjectionError):
        torus.project([2.0, 0.0, 0.0])  # on the core circle


def _assert_shape_contract(f, stack):
    """f on one point equals its row of the batch call, and f on a (j, n, ...)
    stack equals the per-slice calls, bit for bit."""
    flat = stack.reshape(-1, stack.shape[-1])
    batch = f(flat)
    for i, x in enumerate(flat):
        assert np.array_equal(f(x), batch[i])
    assert np.array_equal(f(stack), np.stack([f(s) for s in stack]))


def test_point_operations_accept_any_leading_shape(all_surfaces):
    rng = np.random.default_rng(11)
    for surf in all_surfaces:
        base = surface_samples(surf, rng, 14)
        off = rng.uniform(-0.2, 0.2, (14, 1)) * surf.curvature_radius
        pts = (base + off * surf.normal_unchecked(base)).reshape(2, 7, 3)
        for f in (surf.project, surf.implicit, surf.implicit_grad, surf.distance, surf.normal_unchecked):
            _assert_shape_contract(f, pts)
        v = rng.standard_normal((2, 7, 3))
        both = np.concatenate([pts, v], axis=-1)
        _assert_shape_contract(lambda yv: surf.tangent_project_unchecked(yv[..., :3], yv[..., 3:]), both)
        normals = surf.normal_unchecked(pts)
        _assert_shape_contract(lambda n: np.stack(_orthonormal_frame(n), axis=-2), normals)
        chart = surf.chart_at(base[0])
        _assert_shape_contract(chart.inverse_map, pts)
        _assert_shape_contract(chart.contains, pts)
    plane = all_surfaces[0]
    _assert_shape_contract(plane.embed, rng.uniform(-2.0, 2.0, (2, 7, 2)))


def test_frame_cross_product_bits_are_np_cross():
    # Random unit normals plus the six axis directions, whose frames take
    # the exact zeros np.cross must reproduce.
    rng = np.random.default_rng(31)
    n = rng.standard_normal((20_000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    n[:6] = np.concatenate([np.eye(3), -np.eye(3)])
    t1, t2 = _orthonormal_frame(n)
    assert t2.shape == (20_000, 3)
    assert t2.tobytes() == np.cross(n, t1).tobytes()
    for row in n[:50]:
        t1, t2 = _orthonormal_frame(row)
        assert t2.shape == (3,)
        assert t2.tobytes() == np.cross(row, t1).tobytes()


def _chart_map(surf):
    return surf.chart_at(surf.project([0.9, 0.4, 0.6])).inverse_map


_SURFACES = {"plane": Plane(), "sphere": Sphere(1.0), "torus": Torus(2.0, 0.5)}


@pytest.mark.parametrize(
    "f",
    [_chart_map(s) for s in _SURFACES.values()],
    ids=[f"{kind}_chart" for kind in _SURFACES],
)
def test_chart_rows_independent_of_batch(f):
    # Charts with a frame of no zero entries on a long batch: a BLAS
    # matrix-vector product would round some rows differently by their
    # position in the batch.
    pts = np.random.default_rng(11).uniform(-2.0, 2.0, (2, 450, 3))
    _assert_shape_contract(f, pts)


@pytest.mark.parametrize("op", ["implicit", "project", "distance", "normal_unchecked"])
@pytest.mark.parametrize("kind", list(_SURFACES))
def test_point_rows_independent_of_batch(kind, op):
    # The same long batch through every point operation: each row is the
    # row of a single-point call, bit for bit.
    pts = np.random.default_rng(11).uniform(-2.0, 2.0, (2, 450, 3))
    _assert_shape_contract(getattr(_SURFACES[kind], op), pts)


@pytest.mark.parametrize(
    "surf, point",
    [
        (Sphere(1.0), [0.0, 0.0, 0.0]),
        (Torus(2.0, 0.5), [0.0, 0.0, 0.7]),
        (Torus(2.0, 0.5), [2.0, 0.0, 0.0]),
        (Torus(2.0, 0.5), [0.0, 0.0, 0.0]),
    ],
    ids=["sphere_center", "torus_axis", "torus_core_circle", "torus_center"],
)
def test_medial_axis_error_alike_for_point_and_batch(surf, point):
    good = surf.project([3.0, 1.0, 0.5])
    messages = set()
    for p in (point, [good, point], [[good, point], [good, good]]):
        with pytest.raises(AmbiguousProjectionError) as info:
            surf.project(p)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_tangent_project(sphere, plane):
    out = sphere.tangent_project_unchecked([0.0, 0.0, 1.0], [1.0, 0.0, 5.0])
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
    n = sphere.normal_unchecked([0.0, 0.0, 1.0])
    assert np.allclose(sphere.tangent_project_unchecked([0.0, 0.0, 1.0], n), 0.0, atol=1e-12)
    out = plane.tangent_project_unchecked([0.5, -1.0, 0.0], [3.0, 4.0, 5.0])
    assert np.allclose(out, [3.0, 4.0, 0.0], atol=1e-12)


def test_tangent_project_orthogonal(all_surfaces):
    rng = np.random.default_rng(6)
    for surf in all_surfaces:
        pts = surface_samples(surf, rng, 100)
        v = rng.standard_normal((100, 3))
        t = surf.tangent_project_unchecked(pts, v)
        n = surf.normal_unchecked(pts)
        assert np.abs(np.einsum("ij,ij->i", t, n)).max() < 1e-12


def test_chart_center_maps_to_origin(all_surfaces):
    rng = np.random.default_rng(7)
    for surf in all_surfaces:
        for center in surface_samples(surf, rng, 5):
            chart = surf.chart_at(center)
            assert np.array_equal(chart.inverse_map(center), np.zeros(2))


def test_chart_area_sign_follows_normal(all_surfaces):
    """Chart areas of small on-surface triangles carry the sign of n.(e1 x e2)."""
    rng = np.random.default_rng(8)
    for surf in all_surfaces:
        h = 0.02 * surf.curvature_radius
        for center in surface_samples(surf, rng, 10):
            step = h * rng.standard_normal((2, 3))
            tri = surf.project(center + np.vstack([np.zeros(3), step]))
            cross = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            uv = surf.chart_at(center).inverse_map(tri)
            e1, e2 = uv[1] - uv[0], uv[2] - uv[0]
            area = e1[0] * e2[1] - e1[1] * e2[0]
            triple = surf.normal_unchecked(center) @ cross
            assert abs(triple) > 1e-3 * np.linalg.norm(cross)
            assert np.sign(area) == np.sign(triple)


def test_chart_contains_within_radius(all_surfaces):
    rng = np.random.default_rng(9)
    for surf in all_surfaces:
        center = surface_samples(surf, rng, 1)[0]
        chart = surf.chart_at(center)
        assert chart.contains(center).all()
        radius = surf.chart_radius
        if np.isfinite(radius):
            pts = surface_samples(surf, rng, 200)
            chord = np.linalg.norm(pts - center, axis=1)
            assert np.any(chord >= radius) and np.any(chord < radius)
            assert np.array_equal(chart.contains(pts), chord < radius)


def test_stacked_charts_map_as_single_charts(all_surfaces):
    # Charts built at (n, 1, 3) centers map (n, k, 3) points, each row as the
    # chart at that center alone maps it.
    rng = np.random.default_rng(13)
    for surf in all_surfaces:
        centers = surface_samples(surf, rng, 5)[:, None]
        pts = centers + 0.5 * surf.curvature_radius * rng.standard_normal((5, 6, 3))
        charts = surf.chart_at(centers)
        uv, inside = charts.inverse_map(pts), charts.contains(pts)
        assert uv.shape == (5, 6, 2) and inside.shape == (5, 6)
        # locate gives both from one offset, with their bits.
        located = charts.locate(pts)
        assert located[0].tobytes() == uv.tobytes() and np.array_equal(located[1], inside)
        for center, p, u, k in zip(centers, pts, uv, inside):
            chart = surf.chart_at(center[0])
            assert np.array_equal(chart.inverse_map(p), u)
            assert np.array_equal(chart.contains(p), k)


def test_plane_chart_global(plane):
    rng = np.random.default_rng(10)
    pts = plane.embed(rng.uniform(-1e3, 1e3, (20, 2)))
    assert plane.chart_radius == np.inf
    assert plane.chart_at(surface_samples(plane, rng, 1)[0]).contains(pts).all()


def test_plane_chart_frame_is_plane_frame(plane):
    # Every plane chart, at one center or a stack of them, has the plane's
    # own frame (t1, t2) = (e1, e2), bit for bit.
    assert np.array_equal(plane.t1, [1.0, 0.0, 0.0]) and np.array_equal(plane.t2, [0.0, 1.0, 0.0])
    centers = plane.embed(np.random.default_rng(12).uniform(-3.0, 3.0, (4, 1, 2)))
    for chart in (plane.chart_at(centers[0, 0]), plane.chart_at(centers)):
        assert np.array_equal(chart.t1, np.broadcast_to(plane.t1, chart.t1.shape))
        assert np.array_equal(chart.t2, np.broadcast_to(plane.t2, chart.t2.shape))


def test_plane_embed_gives_no_negative_zero(plane):
    # Every disk vertex lands at z = +0.0, also where both reference
    # coordinates are negative, and projecting it back keeps its bits.
    y = plane.embed(build_mesh("disk", 0.3).vertices)
    assert np.array_equal(y[:, 2], np.zeros(len(y)))
    assert not np.signbit(y[:, 2]).any()
    assert plane.project(y).tobytes() == y.tobytes()


def test_plane_project_keeps_tangent_bits(plane):
    # Projection onto z = 0 keeps every nonzero x and y bit for bit and
    # lands every point off the plane at z = +0.0; a point on the plane,
    # z = -0.0 included, projects to itself.
    p = np.random.default_rng(13).uniform(-3.0, 3.0, (200, 3))
    p[:20, :2] = -0.0
    p[20:40, 2] = -0.0
    y = plane.project(p)
    assert np.array_equal(y[:, :2], p[:, :2])
    assert y[20:, :2].tobytes() == p[20:, :2].tobytes()
    assert y[20:40].tobytes() == p[20:40].tobytes()
    off = np.r_[0:20, 40:200]
    assert np.array_equal(y[off, 2], np.zeros(len(off)))
    assert not np.signbit(y[off, 2]).any()
    assert plane.project(y).tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", list(_SURFACES))
def test_distance_is_distance_to_projection(kind):
    # Every implicit is an exact signed distance, so |implicit| is the
    # distance to the closest point.
    surf = _SURFACES[kind]
    rng = np.random.default_rng(14)
    base = surface_samples(surf, rng, 300)
    offsets = rng.uniform(-0.6, 0.6, (300, 1)) * surf.curvature_radius
    p = base + offsets * surf.normal_unchecked(base)
    d = surf.distance(p)
    assert d.tobytes() == np.abs(surf.implicit(p)).tobytes()
    assert np.allclose(d, np.linalg.norm(p - surf.project(p), axis=1), rtol=1e-12, atol=1e-14)
    assert np.allclose(d, np.abs(offsets[:, 0]), rtol=1e-9, atol=1e-12)


def _enclosed_side(surf, y):
    """A point strictly inside the sphere or the torus tube from on-surface y,
    or below the plane."""
    if surf.kind == "plane":
        return y - [0.0, 0.0, 1.0]
    if surf.kind == "sphere":
        return 0.5 * y
    return surf._ring_point(y)[0]


@pytest.mark.parametrize("kind", list(_SURFACES))
def test_normal_points_away_from_enclosed_side(kind):
    # One normal field per surface: +e3 on the plane, outward on the sphere
    # and the torus, and the implicit grows along it.
    surf = _SURFACES[kind]
    rng = np.random.default_rng(15)
    y = surface_samples(surf, rng, 200)
    n = surf.normal_unchecked(y)
    inward = _enclosed_side(surf, y) - y
    assert np.all(np.einsum("ij,ij->i", n, inward) < -0.4 * np.linalg.norm(inward, axis=1))
    h = 1e-3 * surf.curvature_radius
    assert np.all(surf.implicit(y + h * n) > 0) and np.all(surf.implicit(y - h * n) < 0)
    if kind == "plane":
        assert np.array_equal(n, np.broadcast_to([0.0, 0.0, 1.0], n.shape))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Plane(normal_dir=(0.0, 0.0, -1.0)), "Plane() takes no arguments"),
        (lambda: Plane(offset=0.45), "Plane() takes no arguments"),
        (lambda: Plane(origin=(0.0, 0.0, 0.45)), "Plane() takes no arguments"),
        (lambda: Plane(orientation_sign=-1), "Plane() takes no arguments"),
        (lambda: Sphere(1.0, orientation_sign=-1), "keyword argument 'orientation_sign'"),
        (lambda: Torus(2.0, 0.5, orientation_sign=-1), "keyword argument 'orientation_sign'"),
    ],
    ids=["plane_normal_dir", "plane_offset", "plane_origin", "plane_sign", "sphere_sign", "torus_sign"],
)
def test_surfaces_take_no_placement_or_orientation(build, message):
    # The frame and the normal field are fixed per kind; nothing moves or
    # flips them.
    with pytest.raises(TypeError) as info:
        build()
    assert message in str(info.value)


def test_make_surface_factory():
    s = make_surface("sphere", radius=2.0)
    assert isinstance(s, Sphere) and s.radius == 2.0
    with pytest.raises(ValueError):
        make_surface("cone")
    # Surface families this package does not define are unknown kinds.
    for kind in ("ellipsoid", "graph"):
        with pytest.raises(ValueError, match=r"expected one of \['plane', 'sphere', 'torus'\]"):
            make_surface(kind)


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: Sphere(np.nan), "radius"),
        (lambda: Sphere(np.inf), "radius"),
        (lambda: Torus(np.inf, 0.5), "major_radius"),
        (lambda: Torus(2.0, np.nan), "minor_radius"),
        (lambda: Sphere(True), "radius"),
        (lambda: Sphere(np.True_), "radius"),
        (lambda: Torus(True, 0.5), "major_radius"),
        (lambda: Torus(2.0, True), "minor_radius"),
    ],
    ids=[
        "sphere_nan_radius",
        "sphere_inf_radius",
        "torus_inf_major",
        "torus_nan_minor",
        "sphere_true_radius",
        "sphere_np_true_radius",
        "torus_true_major",
        "torus_true_minor",
    ],
)
def test_surfaces_reject_non_finite_parameters(build, key):
    # Booleans too: 0 < True < inf holds, so one would pass the range test as 1.0.
    with pytest.raises(ValueError, match=key):
        build()


@pytest.mark.parametrize("width", [3, 2])
def test_row_norms_of_one_vector_are_the_batch_bits(width):
    # A single vector takes a Python-float path; it must give the bits the
    # batch gives that row, 0, inf, NaN and overflowing squares included.
    rng = np.random.default_rng(32)
    x = rng.standard_normal((300, width)) * 10.0 ** rng.uniform(-150, 150, (300, 1))
    x[:6, 0] = [0.0, np.inf, -np.inf, np.nan, 1e200, -1e200]
    with np.errstate(over="ignore"):
        batch = _row_norms(x)
    for row, want in zip(x, batch):
        got, kept = _row_norms(row), _row_norms(row, keepdims=True)
        assert type(got) is np.float64 and got.tobytes() == want.tobytes()
        assert kept.shape == (1,) and kept.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(500, 3), (200, 6, 3), (500, 2)])
def test_row_norms_are_linalg_norm_bits(shape):
    # Random rows at many scales, each of comparable entries (so the order
    # of the sum shows in the bits), and rows holding 0, inf, NaN and 1e200
    # (whose square overflows).
    rng = np.random.default_rng(31)
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, (*shape[:-1], 1))
    flat = x.reshape(-1, shape[-1])
    for i, value in enumerate([0.0, np.inf, -np.inf, np.nan, 1e200, -1e200]):
        flat[i] = 0.0
        flat[10 + i, i % shape[-1]] = value
        flat[20 + i] = value
    for keepdims in (False, True):
        with np.errstate(over="ignore"):
            got = _row_norms(x, keepdims=keepdims)
            want = np.linalg.norm(x, axis=-1, keepdims=keepdims)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
