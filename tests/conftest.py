import random
import sys

import pytest

import thermoshift.core_sft as core_sft
import thermoshift.max_face as max_face


@pytest.fixture
def rng():
    return random.Random(20260823)


def _count_calls(monkeypatch, name, func):
    """A list that grows by one on each call of func, through every
    module that has bound it to ``name``."""
    calls = []

    def counting(*args):
        calls.append(1)
        return func(*args)

    for module in list(sys.modules.values()):
        if getattr(module, name, None) is func:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def max_plus_passes(monkeypatch):
    """A list that grows by one on each exact max-plus pass
    (``max_face._max_mean``, which ``max_mean_data`` calls too)."""
    return _count_calls(monkeypatch, "_max_mean", max_face._max_mean)


@pytest.fixture
def scc_splits(monkeypatch):
    """A list that grows by one on each split of an edge set into its
    nontrivial SCCs (``core_sft._cyclic_components``), the recoding's own
    split (``RecodedSft._split``) included."""
    return _count_calls(monkeypatch, "_cyclic_components", core_sft._cyclic_components)
