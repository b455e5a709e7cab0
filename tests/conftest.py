import random
import sys

import pytest

import thermoshift.max_face as max_face


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def max_plus_passes(monkeypatch):
    """A list that grows by one on each exact max-plus pass
    (``max_face.max_mean_data``), through every module that has bound it."""
    calls = []
    passes = max_face.max_mean_data

    def counting(*args):
        calls.append(1)
        return passes(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "max_mean_data", None) is passes:
            monkeypatch.setattr(module, "max_mean_data", counting)
    return calls
