import pytest

from checker import Channel
from entwit.channel import build_ks_channel, confusability_graph
from entwit.ks import bundled_basis_set
from helpers import BUNDLED_RAYS


@pytest.fixture(scope="session")
def bundled():
    return bundled_basis_set()


@pytest.fixture(scope="session")
def channel(bundled):
    return build_ks_channel(bundled)


@pytest.fixture(scope="session")
def graph(channel):
    return confusability_graph(channel)


@pytest.fixture(scope="session")
def rays():
    """The bundled channel as the checker builds it from the ray file."""
    return Channel.from_rays(BUNDLED_RAYS)
