"""Shared fixtures.

Ambient mpmath precision is raised above the kernels' working precision so
that argument arithmetic done in tests (Moebius images, reference values)
never limits the residuals being measured.
"""

import mpmath as mp
import pytest
from hypothesis import settings

from periodlab import PrecisionContext, cusp_form, delta, weakly_holomorphic_m10

mp.mp.dps = 70

# property tests draw the same examples on every run and write no database
settings.register_profile("periodlab", derandomize=True, deadline=None, database=None)
settings.load_profile("periodlab")


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext()


@pytest.fixture(scope="session")
def f_delta():
    return delta(64)


@pytest.fixture(scope="session")
def f_cusp16():
    return cusp_form(16, 64)


@pytest.fixture(scope="session")
def f_wh():
    return weakly_holomorphic_m10(170)


@pytest.fixture(scope="session")
def f_delta_long():
    # long window for Dirichlet oracles
    return delta(700)
