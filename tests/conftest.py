import pytest

from entrolab.logistic import CenterCache


@pytest.fixture(scope="session")
def session_cache(tmp_path_factory):
    """One center cache shared by the whole run; repeated enumerations of
    the same periods are then loaded instead of recomputed."""
    path = tmp_path_factory.mktemp("cache") / "centers.jsonl"
    return CenterCache(path)
