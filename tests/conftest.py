"""Fixtures shared by the test modules."""

from collections import OrderedDict

import pytest

from erfkit import transition


@pytest.fixture
def transition_state(monkeypatch):
    """An empty grid cache (and so no held exponentials or search records) for one test, then restored."""
    monkeypatch.setattr(transition, "_REF_GRID_CACHE", OrderedDict())
