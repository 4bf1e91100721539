import pytest

from orbicalc import corpus


@pytest.fixture
def fresh_groups(monkeypatch):
    """Corpus groups loaded anew for this test, with nothing cached on them:
    every per-group cache (hom classes, the quotient category's arrows and
    checked triples) starts empty, and is dropped after the test."""
    monkeypatch.setattr(corpus, "_GROUP_CACHE", {})
