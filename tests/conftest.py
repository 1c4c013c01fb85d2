"""Shared helpers: seeded random matrices and common states."""

import numpy as np
import pytest
from hypothesis import settings

from eqm_lab.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    projector,
    re_im_view,
)

# Property tests draw the same examples on every run; each example of a
# flow property integrates at up to MAX_DIM, so few are drawn by default.
settings.register_profile("eqm-lab", derandomize=True, deadline=None, max_examples=10)
settings.load_profile("eqm-lab")


def matrix_to_pairs(mat):
    """Inverse of hilbert.matrix_from_pairs: nested rows of [re, im] pairs, for documents."""
    rows, cols = np.shape(mat)
    return re_im_view(mat).reshape(rows, cols, 2).tolist()


def random_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * 0.5 * (g + g.conj().T))


def random_traceless_hermitian(rng, dim, scale=1.0):
    mat = random_hermitian(rng, dim, scale).matrix.copy()
    mat -= np.trace(mat) / dim * np.eye(dim)
    return HermitianOperator(mat)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def random_interior_density(rng, dim, mix=0.5):
    """A state bounded away from the cone boundary, safe for perturbation."""
    return DensityMatrix((1 - mix) * np.eye(dim) / dim + mix * random_density(rng, dim).matrix)


def random_pure(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return projector(StateVector(vec / np.linalg.norm(vec)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def sx():
    return HermitianOperator(SIGMA_X)


@pytest.fixture
def sy():
    return HermitianOperator(SIGMA_Y)


@pytest.fixture
def sz():
    return HermitianOperator(SIGMA_Z)


@pytest.fixture
def qubit_up():
    return DensityMatrix(np.diag([1.0, 0.0]).astype(complex))


@pytest.fixture
def qubit_plus():
    return projector(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
