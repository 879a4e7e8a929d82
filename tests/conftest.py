"""Shared fixtures: the three-state worked example and random model factories."""

import numpy as np
import pytest

from girsanov import FiniteSymmetricModel

# regions that no continuum entry accepts: reversed, empty, NaN, unbounded,
# three numbers and none
BAD_REGIONS = [(8.0, -8.0), (1.0, 1.0), (float("nan"), 1.0), (-8.0, float("inf")), (1.0, 2.0, 3.0), None]

CHAIN3_Q = np.array([
    [0.0, 1.0, 0.0],
    [1.0, 0.0, 2.0],
    [0.0, 2.0, 0.0],
])


@pytest.fixture
def chain3():
    """Three-state reversible chain with unit weights and rates 1, 2."""
    return FiniteSymmetricModel(m=np.ones(3), q=CHAIN3_Q.copy())


@pytest.fixture
def chain3_killed():
    return FiniteSymmetricModel(m=np.ones(3), q=CHAIN3_Q.copy(), k=np.array([0.0, 1.0, 0.0]))


@pytest.fixture
def rho121():
    return np.array([1.0, 2.0, 1.0])


@pytest.fixture
def phi3():
    """Symmetric jump tilt: +1 on the (0,1) edge, -1/2 on the (1,2) edge."""
    return np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, -0.5],
        [0.0, -0.5, 0.0],
    ])


def make_reversible(rng, n, with_killing=False):
    """Random detailed-balance model: symmetric flux divided by the weights."""
    m = rng.uniform(0.5, 2.0, size=n)
    flux = np.triu(rng.uniform(0.0, 1.5, size=(n, n)), 1)
    flux[flux < 0.4] = 0.0
    flux = flux + flux.T
    q = flux / m[:, None]
    k = rng.uniform(0.0, 1.0, size=n) if with_killing else None
    return FiniteSymmetricModel(m=m, q=q, k=k)


def make_symmetric_phi(rng, n, lo=-0.9, hi=3.0):
    phi = np.triu(rng.uniform(lo, hi, size=(n, n)), 1)
    phi = phi + phi.T
    np.fill_diagonal(phi, 0.0)
    return phi


def make_consistent_pair(rng, model):
    """A (rho, phi) pair satisfying the jump-measure consistency relation.

    Built from ``1 + phi(x, y) = sigma(x, y) * rho(y) / rho(x)`` with a
    symmetric positive ``sigma``, which makes ``rho(x)^2 (1 + phi(x, y))``
    symmetric by construction.
    """
    n = model.n
    rho = rng.uniform(0.5, 2.0, size=n)
    sigma = np.triu(rng.uniform(0.5, 1.5, size=(n, n)), 1)
    sigma = sigma + sigma.T + np.eye(n)
    phi = sigma * rho[None, :] / rho[:, None] - 1.0
    np.fill_diagonal(phi, 0.0)
    return rho, phi
