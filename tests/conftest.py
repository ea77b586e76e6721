import pytest

from entrolab import logistic
from entrolab.logistic import CenterCache


@pytest.fixture(scope="session")
def session_cache(tmp_path_factory):
    """One center cache shared by the whole run; repeated enumerations of
    the same periods are then loaded instead of recomputed."""
    path = tmp_path_factory.mktemp("cache") / "centers.jsonl"
    return CenterCache(path)


@pytest.fixture(autouse=True)
def fresh_center_memos():
    """Each test starts with empty per-process memos of center proofs and
    entropies, so counts of the work a call does do not hang on which
    tests ran before it."""
    logistic._prove.cache_clear()
    logistic._center_model.cache_clear()
