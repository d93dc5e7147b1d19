import pytest

from tubelat import cli


@pytest.fixture(autouse=True)
def fresh_reversal():
    """cli._reversal caches by n what it read through gc.relabel_reverse
    and cli._poset, which tests patch; every test starts without it."""
    cli._reversal.cache_clear()
