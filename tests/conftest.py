"""Fixtures shared by the test modules."""

from collections import OrderedDict

import pytest

from erfkit import transition


@pytest.fixture
def transition_state(monkeypatch):
    """Empty grid cache, held exponentials and transition record for one test, then restored."""
    monkeypatch.setattr(transition, "_REF_GRID_CACHE", OrderedDict())
    monkeypatch.setattr(transition, "_GRID_EXPS", OrderedDict())
    monkeypatch.setattr(transition, "_INNER_ERRORS", None)
