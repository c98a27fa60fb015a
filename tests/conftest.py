import pytest

from entwit.channel import build_ks_channel, confusability_graph
from entwit.ks import bundled_basis_set


@pytest.fixture(scope="session")
def bundled():
    return bundled_basis_set()


@pytest.fixture(scope="session")
def channel(bundled):
    return build_ks_channel(bundled)


@pytest.fixture(scope="session")
def graph(channel):
    return confusability_graph(channel)
