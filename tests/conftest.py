import pytest

from agifl import scenario


@pytest.fixture(autouse=True)
def cold_federation_store():
    """Start every test with no cohort drawn and no repeat trained, so a test
    that counts draws or training sees its own runs' work only."""
    scenario._store.cache_clear()
