"""Fixtures shared by the test modules."""

import sys

import pytest

from pastdra import formula as F


@pytest.fixture
def deepest_make(monkeypatch):
    """``deepest_make(call)``: the deepest stack, in frames, from which
    ``call()`` calls ``formula.make``."""
    def measure(call):
        make, deepest = F.make, [0]

        def recording(*args, **kwargs):
            depth, frame = 0, sys._getframe()
            while frame is not None:
                depth, frame = depth + 1, frame.f_back
            deepest[0] = max(deepest[0], depth)
            return make(*args, **kwargs)
        monkeypatch.setattr(F, "make", recording)
        call()
        monkeypatch.setattr(F, "make", make)
        return deepest[0]
    return measure
