import os
import subprocess
import sys

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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def outputs_at_blas_threads(script):
    """The stdout words of a Python script run in a subprocess at one and at
    two BLAS threads, in that order."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout.split())
    return outputs
