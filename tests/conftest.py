import random
import sys

import pytest

import thermoshift.max_face as max_face


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def karp_calls(monkeypatch):
    """A list that grows by one on each run of Karp's max-mean algorithm,
    through every module that has bound ``karp_max_mean``."""
    calls = []
    karp = max_face.karp_max_mean

    def counting(*args):
        calls.append(1)
        return karp(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "karp_max_mean", None) is karp:
            monkeypatch.setattr(module, "karp_max_mean", counting)
    return calls
