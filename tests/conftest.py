import pytest

from tubelat import cli


@pytest.fixture(autouse=True)
def fresh_caches():
    """cli._reversal and cli._quotient cache by n what they read through
    gc.relabel_reverse, cl.cut, cl.sew, cl._path_tubing and cli._poset,
    which tests patch; every test starts without them."""
    for cache in (cli._reversal, cli._quotient):
        cache.cache_clear()
