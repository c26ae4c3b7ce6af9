"""Shared test configuration.

Hypothesis: disable deadlines globally (simulation-backed properties have
legitimately variable wall time) and fix a generous example budget so the
suite stays deterministic across machines.

The sweep result cache lives in a per-session temporary directory, so the
suite neither fills nor reads the user's ``~/.cache/pvfs-sim``.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True, scope="session")
def _session_result_cache(tmp_path_factory):
    """Point ``$PVFS_SIM_CACHE`` at a temporary directory for the whole
    session (subprocesses inherit it); the old value comes back after."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PVFS_SIM_CACHE", str(tmp_path_factory.mktemp("pvfs-sim-cache")))
        yield
