import pytest
from hypothesis import settings

import reedcheck as rc

# the same examples on every run, and no example database on disk
settings.register_profile("reedcheck", derandomize=True, database=None)
settings.load_profile("reedcheck")

EXPECTED_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


@pytest.fixture(scope="session")
def graphs_by_n():
    """All canonical graphs for n = 0..8 (memoized once per session)."""
    return {n: tuple(rc.enumerate_graphs(n)) for n in range(9)}


@pytest.fixture(scope="session")
def flagc_family():
    return rc.FAMILIES["p5-flagc"]


@pytest.fixture(scope="session")
def audited_theorem_sweep(flagc_family):
    """The headline audited sweep: every family member with n <= 8."""
    return rc.sweep(flagc_family, 8, audit=True, workers=4)
