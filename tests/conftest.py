import numpy as np
import pytest

from memsurf import (
    Ellipsoid,
    GraphSurface,
    IsotropicModel,
    Plane,
    Sphere,
    Torus,
    build_mesh,
)


@pytest.fixture(scope="session")
def model():
    return IsotropicModel()


@pytest.fixture(scope="session")
def plane():
    return Plane()


@pytest.fixture(scope="session")
def sphere():
    return Sphere(1.0)


@pytest.fixture(scope="session")
def torus():
    return Torus(2.0, 0.5)


@pytest.fixture(scope="session")
def ellipsoid():
    return Ellipsoid((1.5, 1.0, 0.75))


@pytest.fixture(scope="session")
def graph_surface():
    return GraphSurface([[0.0, 0.0, 0.1], [0.0, 0.2, 0.0], [0.05, 0.0, 0.0]])


@pytest.fixture(scope="session")
def all_surfaces(plane, sphere, torus, ellipsoid, graph_surface):
    return [plane, sphere, torus, ellipsoid, graph_surface]


@pytest.fixture(scope="session")
def square_mesh():
    return build_mesh("unit_square", 0.25)


@pytest.fixture(scope="session")
def disk_mesh():
    return build_mesh("disk", 0.15)


def surface_samples(surface, rng, n):
    """Deterministic on-surface sample points for a builtin surface."""
    if surface.kind == "plane":
        return surface.embed(rng.uniform(-2.0, 2.0, (n, 2)))
    if surface.kind == "sphere":
        w = rng.standard_normal((n, 3))
        return surface.radius * w / np.linalg.norm(w, axis=1, keepdims=True)
    if surface.kind == "torus":
        return surface.from_angles(
            rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n)
        )
    if surface.kind == "ellipsoid":
        w = rng.standard_normal((n, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        return surface.project(2.0 * np.max(surface.semi_axes) * w)
    if surface.kind == "graph":
        uv = rng.uniform(-surface.extent, surface.extent, (n, 2))
        return np.column_stack([uv, surface.height(uv[:, 0], uv[:, 1])])
    raise ValueError(surface.kind)
