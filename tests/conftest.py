"""Shared fixtures: the expensive solves are session-scoped and shared
between the module tests and the acceptance suite."""

import pytest

from bosegas.verification import Workspace


@pytest.fixture(scope="session")
def workspace():
    """Verification workspace caching the benchmark solves (c=1, h=1)."""
    return Workspace()


@pytest.fixture(scope="session")
def gs(workspace):
    """Ground state at the benchmark coupling c=1, h=1."""
    return workspace.ground_state()


@pytest.fixture(scope="session")
def plan(workspace):
    """Amplitude plan of the benchmark ground state (default contour)."""
    return workspace.plan()


@pytest.fixture(scope="session")
def gs_free(workspace):
    """Ground state deep in the free-fermion regime c=1e6, h=1."""
    return workspace.ground_state(c=1e6)
