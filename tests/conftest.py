import numpy as np
import pytest

from gausscalc import HermiteExpansion, gauss_hermite_grid, gen_family


@pytest.fixture(scope="session")
def grid1d():
    return gauss_hermite_grid(1, 40)


@pytest.fixture(scope="session")
def grid2d():
    return gauss_hermite_grid(2, 13)


@pytest.fixture(scope="session")
def family1d():
    return gen_family(seed=7, d=1, M=20, N=8)


@pytest.fixture(scope="session")
def family2d():
    return gen_family(seed=7, d=2, M=10, N=8)


@pytest.fixture
def h(request):
    """Shorthand basis factory: h((2,)) etc."""
    return HermiteExpansion.basis


@pytest.fixture(scope="session")
def mixed1d():
    # fixed mixed expansion used across modules: orders 0, 1, 2, 4
    return HermiteExpansion(1, {(0,): 0.5, (1,): -1.0, (2,): 0.75, (4,): 0.3})


def rng(stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((1234, stream))))
