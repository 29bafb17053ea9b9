"""Session fixtures: the corpora, and the one cache of specialized
patterns that the test modules share."""

from functools import lru_cache

import pytest

from miniscp import harness
from miniscp.harness import Corpus, default_corpus


@pytest.fixture(scope="session")
def full_corpus() -> Corpus:
    return default_corpus(seed=7)


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    # same shape as the default corpus, scaled down for module tests
    return Corpus(("a", "ab", "aa", "aab", "ababa"), exhaustive_len=6,
                  random_count=120, random_max_len=60, seed=7)


@pytest.fixture(scope="session")
def artifacts():
    """harness.artifacts, kept for the whole session: the one cache of
    specialized patterns that the test modules share.  harness itself keeps
    nothing past a pattern."""
    return lru_cache(maxsize=None)(harness.artifacts)


@pytest.fixture(scope="session")
def aab(artifacts):
    return artifacts("aab")


@pytest.fixture(scope="session")
def ababa(artifacts):
    return artifacts("ababa")
