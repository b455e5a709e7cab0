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
    (``max_face._max_mean``, which ``max_mean_data`` calls too), through
    every module that has bound it."""
    calls = []
    passes = max_face._max_mean

    def counting(*args):
        calls.append(1)
        return passes(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "_max_mean", None) is passes:
            monkeypatch.setattr(module, "_max_mean", counting)
    return calls
