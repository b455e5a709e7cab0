import random
import sys

import pytest

import thermoshift.core_sft as core_sft
from thermoshift.cache import CACHE_ENV


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    """No test reads or writes the on-disk orbit cache unless it sets
    THERMOSHIFT_CACHE itself."""
    monkeypatch.setenv(CACHE_ENV, "off")


@pytest.fixture
def rng():
    return random.Random(20260823)


def _count_calls(monkeypatch, name, func):
    """A list that grows by the arguments of each call of func, through
    every module that has bound it to ``name``."""
    calls = []

    def counting(*args):
        calls.append(args)
        return func(*args)

    for module in list(sys.modules.values()):
        if getattr(module, name, None) is func:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def max_plus_passes(monkeypatch):
    """A list that grows by one on each exact max-plus pass
    (``core_sft._max_plus_pass``): a potential's, a face's or a support
    query's, a transfer's own, a coupling matrix's, and the one that
    balances several critical classes."""
    return _count_calls(monkeypatch, "_max_plus_pass", core_sft._max_plus_pass)


@pytest.fixture
def scc_splits(monkeypatch):
    """A list that grows by one on each split of an edge set into its
    nontrivial SCCs (``core_sft._cyclic_components``), the recoding's own
    split (``RecodedSft._split``) included."""
    return _count_calls(monkeypatch, "_cyclic_components", core_sft._cyclic_components)


@pytest.fixture
def howard_runs(monkeypatch):
    """A list that grows by the arguments (succ, nodes) of each run of
    Howard policy iteration (``core_sft._howard``)."""
    return _count_calls(monkeypatch, "_howard", core_sft._howard)
