import numpy as np
import pytest

from memsurf import (
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
def all_surfaces(plane, sphere, torus):
    return [plane, sphere, torus]


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
    raise ValueError(surface.kind)
