import pytest

from chaincat import verify


@pytest.fixture
def fresh_builds():
    """Empty verify's memoized builds before and after, so that a planted
    defect reaches every structure and no damaged one outlives the test."""

    def clear():
        for value in vars(verify).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    clear()
    yield
    clear()
