"""Shared fixtures: one acceptance context per session.

The heavy artifacts (tuned amplitude, time sweep, Wronskian roots, the
eigenvalue curve) are computed once and shared by the unit tests and the
acceptance gate, exactly the objects the CLI ``verify`` command uses.
"""

import pytest

from viscoshear import calibrate
from viscoshear.acceptance import AcceptanceContext
from viscoshear.config import Config
from viscoshear.flow import FlowParams, FlowState


@pytest.fixture(autouse=True)
def cold_pair_cache():
    """Empty calibrate's eigenvalue-pair cache around every test.

    A test that swaps in a fake eigensolver then neither reads real pairs
    cached by an earlier test nor leaves fake ones for a later test.
    """
    calibrate._lambda_pair.cache_clear()
    yield
    calibrate._lambda_pair.cache_clear()


@pytest.fixture(scope="session")
def cfg():
    return Config()


@pytest.fixture(scope="session")
def ctx(cfg):
    return AcceptanceContext(cfg)


@pytest.fixture(scope="session")
def couette_state():
    return FlowState(FlowParams(0.0, 0.15, 0.03, 0.8, 1e-3), 0.0)


@pytest.fixture(scope="session")
def spec_point_params():
    """The parameter point used for the closed-form literal examples."""
    return FlowParams(1.0, 0.1, 0.05, 0.4, 1e-3)
