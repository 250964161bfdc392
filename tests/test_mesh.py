import os
import subprocess
import sys

import numpy as np
import pytest

from memsurf import DegenerateElementError, TriMesh, build_mesh, save_mesh
from memsurf.mesh import _boundary_loops

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def euler_characteristic(mesh):
    sides = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges = np.unique(sides, axis=0)
    return mesh.num_vertices - len(edges) + mesh.num_triangles


def test_unit_square_minimal():
    m = build_mesh("unit_square", 1.0)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert len(m.boundary_vertices) == 4
    assert m.total_area == pytest.approx(1.0, abs=1e-15)


def test_unit_square_area_and_orientation():
    m = build_mesh("unit_square", 0.2)
    assert m.total_area == pytest.approx(1.0, rel=1e-12)
    assert np.all(m.ref_area > 0)


@pytest.mark.parametrize("resolution", [0.5, 0.2, 0.1])
def test_disk_euler_formula(resolution):
    m = build_mesh("disk", resolution)
    assert euler_characteristic(m) == 1
    assert np.all(m.ref_area > 0)
    assert len(m.boundary_loops) == 1


@pytest.mark.parametrize("resolution", [0.2, 0.1])
def test_annulus_euler_formula(resolution):
    m = build_mesh("annulus", resolution, inner_radius=0.5, outer_radius=1.0)
    assert euler_characteristic(m) == 0
    assert len(m.boundary_loops) == 2


def assert_boundary_sagitta(mesh, radii, resolution):
    """Each boundary loop lies on one of the circles ``radii``, and its chords
    stay within resolution^2 / 8 of that circle."""
    assert len(mesh.boundary_loops) == len(radii)
    for loop in mesh.boundary_loops:
        pts = mesh.vertices[np.asarray(loop)]
        r = np.linalg.norm(pts, axis=1)
        radius = min(radii, key=lambda R: abs(R - r[0]))
        assert np.abs(r - radius).max() < 1e-12
        mids = 0.5 * (pts + np.roll(pts, -1, axis=0))
        sagitta = radius - np.linalg.norm(mids, axis=1)
        assert sagitta.max() <= resolution**2 / 8 + 1e-12


@pytest.mark.parametrize("resolution", [0.5, 0.2, 0.1])
def test_disk_boundary_hausdorff(resolution):
    assert_boundary_sagitta(build_mesh("disk", resolution), [1.0], resolution)


@pytest.mark.parametrize("radii", [(0.5, 1.0), (0.2, 1.7)])
@pytest.mark.parametrize("resolution", [0.2, 0.1, 0.05])
def test_annulus_boundary_hausdorff(radii, resolution):
    m = build_mesh("annulus", resolution, inner_radius=radii[0], outer_radius=radii[1])
    assert_boundary_sagitta(m, radii, resolution)


def test_boundary_loop_orientation():
    m = build_mesh("annulus", 0.2, inner_radius=0.5, outer_radius=1.0)
    for loop in m.boundary_loops:
        pts = m.vertices[np.asarray(loop)]
        x, y = pts[:, 0], pts[:, 1]
        signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        radius = np.linalg.norm(pts, axis=1).mean()
        # Domain lies to the left: outer loop is CCW, the hole is CW.
        if radius > 0.75:
            assert signed > 0
        else:
            assert signed < 0


def test_boundary_detection_square():
    m = build_mesh("unit_square", 0.25)
    on_edge = (
        (np.abs(m.vertices[:, 0]) < 1e-12)
        | (np.abs(m.vertices[:, 0] - 1) < 1e-12)
        | (np.abs(m.vertices[:, 1]) < 1e-12)
        | (np.abs(m.vertices[:, 1] - 1) < 1e-12)
    )
    assert np.array_equal(np.sort(np.nonzero(on_edge)[0]), m.boundary_vertices)


_MINIMIZE_MODULES = """
import sys
import numpy as np
before = set(sys.modules)
from memsurf import IsotropicModel, Plane, build_mesh, initialize, make_initial_map, minimize
plane = Plane()
mesh = build_mesh("disk", 0.3)
start = initialize(plane, mesh, make_initial_map(plane, "identity"))
minimize(IsotropicModel(), plane, mesh, start)
print(sorted(name for name in set(sys.modules) - before if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_minimize_loads_no_numpy_ma():
    # numpy.ma costs milliseconds to import; a bare np.unique loads it on
    # NumPy 2.4.  Compared with what ``import numpy`` itself loaded, so an
    # older NumPy that imports numpy.ma eagerly passes too.
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _MINIMIZE_MODULES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_boundary_vertices_sorted_and_unique():
    for domain in ("disk", "annulus", "unit_square"):
        m = build_mesh(domain, 0.2)
        loops = np.concatenate([np.asarray(loop) for loop in m.boundary_loops])
        assert np.array_equal(m.boundary_vertices, np.unique(loops))
        assert m.boundary_vertices.dtype == np.int64


def test_shape_gradients_sum_to_zero():
    for m in (build_mesh("unit_square", 0.2), build_mesh("disk", 0.2)):
        assert np.abs(m.shape_grads.sum(axis=1)).max() < 1e-12


def test_boundary_edges_belong_to_one_triangle():
    m = build_mesh("disk", 0.2)
    counts = {}
    for tri in m.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    boundary = {k for k, v in counts.items() if v == 1}
    loop_edges = set()
    for loop in m.boundary_loops:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            loop_edges.add((min(a, b), max(a, b)))
    assert boundary == loop_edges


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateElementError):
        TriMesh.from_arrays(verts, np.array([[0, 1, 2]]))
    with pytest.raises(DegenerateElementError):
        # Clockwise triangle has negative signed area.
        TriMesh.from_arrays(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 2, 1]])
        )


def test_bowtie_vertex_rejected():
    # Two triangles meeting only at vertex 0: its boundary loops are ambiguous.
    with pytest.raises(ValueError, match="vertex 0"):
        TriMesh.from_arrays(
            [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1, 2), (0, 3, 4)]
        )


def test_triangle_listed_twice_rejected():
    # The doubled triangle's edges are no longer boundary edges, so the
    # boundary stops at vertex 2 instead of closing at vertex 0.
    with pytest.raises(ValueError, match="vertex 0 has 0 incoming and 1 outgoing"):
        TriMesh.from_arrays(
            [(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3), (0, 2, 3)]
        )


def test_vertex_with_two_incoming_boundary_edges_rejected():
    # Edge (0, 2) is shared by three triangles: vertex 0 has two incoming
    # boundary edges and vertex 2 none, so a walk from vertex 1 would enter
    # the loop 0 -> 3 -> 4 -> 0 and never return.
    with pytest.raises(ValueError, match="vertex 0 has 2 incoming and 1 outgoing"):
        _boundary_loops(5, np.array([[2, 0, 3], [1, 0, 2], [2, 3, 4], [4, 0, 2]]))


def test_unknown_domain():
    with pytest.raises(ValueError):
        build_mesh("hexagon", 0.1)
    with pytest.raises(ValueError):
        build_mesh("disk", -0.1)
    with pytest.raises(ValueError, match="radius"):
        build_mesh("disk", 0.2, radius=0.0)
    with pytest.raises(TypeError, match="radiuss"):
        build_mesh("disk", 0.2, radiuss=3.0)


@pytest.mark.parametrize(
    "domain, resolution, params, message",
    [
        ("disk", True, {}, "resolution"),
        ("unit_square", np.True_, {}, "resolution"),
        ("disk", 0.2, {"radius": True}, "disk radius"),
        ("annulus", 0.2, {"inner_radius": True, "outer_radius": 2.0}, "annulus"),
        ("annulus", 0.2, {"outer_radius": True}, "annulus"),
    ],
    ids=["disk_resolution", "square_resolution", "disk_radius", "annulus_inner", "annulus_outer"],
)
def test_boolean_sizes_rejected(domain, resolution, params, message):
    # 0 < True holds, so a boolean would pass the range test as 1.
    with pytest.raises(ValueError, match=message):
        build_mesh(domain, resolution, **params)


def _read_records(path):
    """The comment lines, the v records (n, 3) and the f records (m, 3) as
    0-based indices of an OBJ file, by a plain line split."""
    rows = [line.split() for line in path.read_text().splitlines()]
    return (
        [" ".join(r[1:]) for r in rows if r[0] == "#"],
        np.array([r[1:] for r in rows if r[0] == "v"], dtype=float).reshape(-1, 3),
        np.array([r[1:] for r in rows if r[0] == "f"], dtype=np.int64).reshape(-1, 3) - 1,
    )


def test_wavefront_roundtrip(tmp_path):
    m = build_mesh("disk", 0.3)
    path = tmp_path / "mesh.obj"
    save_mesh(path, m.vertices, m.triangles, comments=["config_hash=abc123"])
    assert path.read_text().splitlines()[0] == "# config_hash=abc123"
    comments, pos, tri = _read_records(path)
    assert comments == ["config_hash=abc123"]
    assert np.array_equal(tri, m.triangles)
    assert pos[:, :2].tobytes() == m.vertices.tobytes()
    assert np.all(pos[:, 2] == 0.0)


def test_wavefront_3d_positions(tmp_path):
    # repr() of each float reads back to the same bits.
    pos = np.random.default_rng(3).standard_normal((40, 3)) * [1e-3, 1.0, 1e3]
    tri = np.array([[0, 1, 2], [39, 38, 0]])
    path = tmp_path / "deformed.obj"
    save_mesh(path, pos, tri)
    comments, pos2, tri2 = _read_records(path)
    assert comments == []
    assert pos2.tobytes() == pos.tobytes()
    assert np.array_equal(tri2, tri)


def _row_by_row_records(positions, triangles):
    """The records as save_mesh used to format them, one numpy row at a time."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape[1] == 2:
        positions = np.column_stack([positions, np.zeros(positions.shape[0])])
    lines = [f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in positions]
    lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in np.asarray(triangles, dtype=np.int64)]
    return lines


@pytest.mark.parametrize(
    "positions, triangles",
    [
        ([[-0.0, 5e-324, 1e308], [0.1 + 0.2, -1e-300, 1.0], [2.0, -0.0, 3.5]], [[0, 1, 2]]),
        (np.array([[0.5, -0.0], [0.1 + 0.2, 5e-324], [1e308, 2.0]]), np.array([[2, 1, 0]])),
        ([[1.0, 2.0, 3.0]], np.empty((0, 3), dtype=int)),
        ([[1.0, 2.0, 3.0]], []),
        (
            np.random.default_rng(0).standard_normal((2500, 3)) * 1e3,
            np.random.default_rng(1).integers(0, 2500, (3000, 3)),
        ),
    ],
    ids=["edge_floats", "two_columns", "no_faces", "empty_list", "several_blocks"],
)
def test_wavefront_records_match_row_by_row_format(tmp_path, positions, triangles):
    path = tmp_path / "mesh.obj"
    save_mesh(path, positions, triangles, comments=["config_hash=abc123"])
    expected = ["# config_hash=abc123", *_row_by_row_records(positions, triangles)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


@pytest.mark.parametrize(
    "positions, triangles, shape",
    [
        (np.zeros((3, 4)), [[0, 1, 2]], r"positions .* got \(3, 4\)"),
        (np.zeros(3), [[0, 1, 2]], r"positions .* got \(3,\)"),
        (np.zeros((3, 3)), [[0, 1, 2, 0]], r"triangles .* got \(1, 4\)"),
        (np.zeros((3, 3)), [0, 1, 2], r"triangles .* got \(3,\)"),
    ],
    ids=["four_columns", "one_dimensional", "four_corners", "flat_faces"],
)
def test_save_mesh_rejects_bad_shapes_before_writing(tmp_path, positions, triangles, shape):
    path = tmp_path / "mesh.obj"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match=shape):
        save_mesh(path, positions, triangles, comments=["config_hash=abc123"])
    assert path.read_bytes() == b"kept\n"


def test_lf_line_endings(tmp_path):
    path = tmp_path / "mesh.obj"
    save_mesh(path, np.zeros((1, 3)), np.empty((0, 3), dtype=int))
    raw = path.read_bytes()
    assert b"\r" not in raw
