"""Shared helpers: random state generators with fixed seeds, and a
fixture that makes small scans run on the thread pool."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import settings

from spinsqueeze import (EulerAngles, HalfInt, SpinDensity, _kernel,
                         from_tensors, scan, to_tensors)
from spinsqueeze.angular import wigner_d_matrix

# Property tests draw the same examples on every run and never fail on
# timing, so a tier-1 result does not depend on .hypothesis/ or load.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")


def random_density(rng, twice_s: int, pure: bool = False,
                   trace: float = 1.0) -> SpinDensity:
    """Random physical density matrix; full rank unless pure."""
    n = twice_s + 1
    if pure:
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        mat = np.outer(psi, psi.conj())
    else:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
    return SpinDensity(HalfInt(twice_s), mat * trace)


def random_hermitian_state(rng, twice_s: int) -> SpinDensity:
    """Random Hermitian matrix with positive trace (not necessarily PSD)."""
    n = twice_s + 1
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2
    h += np.eye(n) * (abs(np.trace(h).real) + 1.0)
    return SpinDensity(HalfInt(twice_s), h)


def random_oriented(rng, twice_s: int) -> tuple[SpinDensity, np.ndarray, np.ndarray]:
    """Diagonal populations quantized along a random axis.

    Returns (state, axis, populations ordered m = s..-s).
    """
    n = twice_s + 1
    p = rng.dirichlet(np.ones(n))
    theta = np.arccos(rng.uniform(-1, 1))
    phi = rng.uniform(0, 2 * np.pi)
    u = wigner_d_matrix(HalfInt(twice_s), EulerAngles(phi, theta, 0.0))
    mat = u @ np.diag(p).astype(complex) @ u.conj().T
    axis = np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi), np.cos(theta)])
    return SpinDensity(HalfInt(twice_s), mat), axis, p


def random_polarization(rng, min_mag: float = 0.0, max_mag: float = 1.0) -> np.ndarray:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(min_mag, max_mag)


def rotate_state(rng, rho: SpinDensity) -> SpinDensity:
    """Apply a random frame rotation to a state (via its tensors)."""
    from spinsqueeze import rotate_tensors
    angles = EulerAngles(rng.uniform(0, 2 * np.pi),
                         np.arccos(rng.uniform(-1, 1)),
                         rng.uniform(0, 2 * np.pi))
    return from_tensors(rotate_tensors(to_tensors(rho), angles))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Kernel blocks of 64 points, so that a grid of a few thousand points
    spans many blocks, and the max_workers of every thread pool that
    evaluate_points starts, in order."""
    sizes = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(_kernel, "BLOCK", 64)
    monkeypatch.setattr(scan, "ThreadPoolExecutor", RecordingExecutor)
    return sizes
