import pytest

from .catalog import biconnected_catalog


@pytest.fixture(scope="session")
def catalog7():
    """All unlabeled biconnected graphs with up to seven vertices."""
    return biconnected_catalog(7)
