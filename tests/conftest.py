import random

import pytest

from turaevgenus import adgraph, corpus


@pytest.fixture
def rng():
    return random.Random(20240815)


@pytest.fixture(scope="session")
def named():
    return corpus.named_diagrams()


@pytest.fixture
def planarity_calls(monkeypatch):
    """The list that gets one entry per planarity search.  Every caller
    of ``adgraph.planar_embedding`` reaches ``adgraph._left_right``,
    also ``census``, which imports ``planar_embedding`` by name."""
    calls = []
    real = adgraph._left_right

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(adgraph, "_left_right", counted)
    return calls
