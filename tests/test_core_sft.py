import math
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (brute_recoded_graph, critical_edges, cyclic_components, edge_classes,
                     karp_max_mean, kleene_potentials)
from thermoshift import (EmptyShiftError, InvalidArgumentError, ResourceLimitError, Sft,
                         core_sft, get_potential, is_transitive, recode_to_one_step,
                         strongly_connected_components)
from thermoshift.builtins import potential_names
from thermoshift.core_sft import (TIGHT_TOL, _cyclic_components, _int_weights, _max_plus_pass,
                                  _potentials, matrix_edges, scc_of_edges)
from thermoshift.spectral import Transfer


def test_full_shift_basics():
    s = Sft.full(3)
    assert s.d == 3
    assert s.labels == ("0", "1", "2")
    assert all(all(v == 1 for v in row) for row in s.transition)
    with pytest.raises(InvalidArgumentError):
        Sft.full(0)


def test_from_matrix_prunes_dead_symbols():
    s = Sft.from_matrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert s.d == 2
    assert s.labels == ("0", "1")
    # symbol 2 only reaches the component, never returns: prune drops it
    s2 = Sft.from_matrix([[1, 1, 0], [1, 1, 0], [1, 0, 0]])
    assert s2.d == 2


def test_empty_shift_raises():
    with pytest.raises(EmptyShiftError):
        Sft.from_matrix([[0]])
    with pytest.raises(EmptyShiftError):
        Sft.from_matrix([[0, 1], [0, 0]])


def test_transitivity():
    assert is_transitive(Sft.from_matrix([[1, 1], [1, 0]]))
    assert not is_transitive(Sft.from_matrix([[1, 0], [0, 1]]))
    comps = strongly_connected_components(Sft.from_matrix([[1, 0], [0, 1]]))
    assert [c.states for c in comps] == [(0,), (1,)]
    assert all(c.is_nontrivial for c in comps)


def _reach(n, edges):
    """Reflexive-transitive closure by repeated relaxation."""
    reach = [{v} for v in range(n)]
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if not reach[b] <= reach[a]:
                reach[a] |= reach[b]
                changed = True
    return reach


def test_scc_matches_mutual_reachability(rng):
    for _ in range(200):
        n = rng.randint(1, 40)
        p = rng.choice((0.0, 0.02, 0.05, 0.1, 0.3))
        edges = [(a, b) for a in range(n) for b in range(n) if rng.random() < p]
        rng.shuffle(edges)
        reach = _reach(n, edges)
        comps = scc_of_edges(n, edges)
        expected = sorted({tuple(sorted(w for w in reach[v] if v in reach[w]))
                           for v in range(n)})
        # partition, in order of smallest state, each sorted
        assert [c.states for c in comps] == expected
        eset = set(edges)
        for c in comps:
            assert c.is_nontrivial == (len(c.states) > 1 or
                                       (c.states[0], c.states[0]) in eset)
    # deep chain: an iterative pass needs no recursion headroom
    n = 5000
    chain = [(i, i + 1) for i in range(n - 1)]
    assert len(scc_of_edges(n, chain)) == n
    ring = scc_of_edges(n, chain + [(n - 1, 0)])
    assert len(ring) == 1 and ring[0].is_nontrivial


def test_cyclic_components_match_the_oracle(rng):
    # the split that follows the edges gives the components and inner
    # edges of the split over every state, on graphs with isolated
    # states, self-loops, empty edge sets and edges among a few states of
    # a large graph
    assert _cyclic_components([]) == cyclic_components(5, []) == ([], [])
    assert _cyclic_components([(3, 3), (1, 2)]) == ([[3]], [(3, 3)])
    for trial in range(400):
        n = rng.randint(1, 40)
        p = rng.choice((0.0, 0.02, 0.05, 0.1, 0.3))
        edges = [(a, b) for a in range(n) for b in range(n) if rng.random() < p]
        rng.shuffle(edges)
        if trial % 4 == 0:      # the same graph spread over 40 n states
            spread = rng.sample(range(40 * n), n)
            edges = [(spread[a], spread[b]) for a, b in edges]
            n *= 40
        got = _cyclic_components(edges)
        assert got == cyclic_components(n, edges)
        assert got[0] == [list(c.states) for c in scc_of_edges(n, edges) if c.is_nontrivial]


def test_import_leaves_networkx_unloaded():
    # neither the import nor the census, the symmetry shortcut or the CLI
    # may load networkx
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from thermoshift import (Sft, classify, cli, elementary_orbits,\n"
        "                         get_potential, symmetry_coefficients)\n"
        "assert len(elementary_orbits(Sft.full(3), 2)) == 148\n"
        "phi = get_potential('twofix')\n"
        "assert symmetry_coefficients(phi, classify(phi)) is not None\n"
        "assert cli.main(['classify', '--potential', 'threefix_a']) == 0\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n")
    subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                   stdout=subprocess.DEVNULL)


def test_recode_block_counts_follow_fibonacci():
    # golden-mean shift: admissible k-blocks count 2, 3, 5, 8, 13, ...
    golden = Sft.from_matrix([[1, 1], [1, 0]])
    counts = [recode_to_one_step(golden, k).n for k in range(1, 7)]
    assert counts == [2, 3, 5, 8, 13, 21]
    for a, b, c in zip(counts, counts[1:], counts[2:]):
        assert c == a + b


def test_recode_structure():
    full2 = Sft.full(2)
    rec = recode_to_one_step(full2, 2)
    assert rec.states == ((0, 0), (0, 1), (1, 0), (1, 1))
    # overlap edges only
    idx = rec.block_index()
    assert (idx[(0, 1)], idx[(1, 0)]) in rec.edges()
    assert (idx[(0, 1)], idx[(0, 0)]) not in rec.edges()
    rec1 = recode_to_one_step(full2, 1)
    assert rec1.states == ((0,), (1,))
    assert rec1.edges() == tuple(full2.edges())
    with pytest.raises(InvalidArgumentError):
        recode_to_one_step(full2, 0)


def test_recode_edges_match_the_oracle():
    # random shifts up to d = 5, some of whose symbols prune away, at
    # windows up to 8 on up to 3 symbols: blocks joined from two halves
    rng = random.Random(11)
    pruned = 0
    for _ in range(300):
        d = rng.randint(1, 5)
        rows = [[int(rng.random() < 0.6) for _ in range(d)] for _ in range(d)]
        try:
            sft = Sft.from_matrix(rows)
        except EmptyShiftError:
            continue
        pruned += sft.d < d
        assert recode_to_one_step(sft, 1).edges() == tuple(sft.edges())
        k = rng.randint(1, 8 if sft.d <= 3 else 4)
        blocks, succ = brute_recoded_graph(sft.transition, k)
        rec = recode_to_one_step(sft, k)
        assert rec.states == tuple(blocks)
        assert rec.edges() == tuple(sorted((i, j) for i, out in succ.items() for j in out)), \
            (rows, k)
    assert pruned > 20


def test_recode_time_follows_the_blocks():
    # two k-blocks at every k: each length is built once from its halves,
    # where extending every block by one symbol per step copied k^2 symbols
    two_cycle = Sft.from_matrix([[0, 1], [1, 0]])
    start = time.perf_counter()
    rec = recode_to_one_step.__wrapped__(two_cycle, 200_000)
    assert time.perf_counter() - start < 2.0
    assert [blk[:3] for blk in rec.states] == [(0, 1, 0), (1, 0, 1)]
    assert rec.edges() == ((0, 1), (1, 0))


def test_recode_memory_is_linear_in_the_edges():
    # full2 at k = 11: 2048 states, 4096 edges; an n x n matrix alone is 32 MB
    tracemalloc.start()
    try:
        recode_to_one_step.__wrapped__(Sft.full(2), 11).edges()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_recode_refuses_a_window_over_the_state_cap(monkeypatch):
    with pytest.raises(ResourceLimitError, match=f"{2 ** 64} states"):
        recode_to_one_step(Sft.full(2), 64)
    assert recode_to_one_step.__wrapped__(Sft.full(2), 13).n == 8192
    monkeypatch.setattr(core_sft, "RECODE_STATE_CAP", 8)
    assert recode_to_one_step.__wrapped__(Sft.full(2), 3).n == 8
    with pytest.raises(ResourceLimitError, match="16 states, over cap 8"):
        recode_to_one_step.__wrapped__(Sft.full(2), 4)


def test_recode_refuses_a_window_over_the_symbol_cap(monkeypatch):
    # the count is held at 2^1024, exact below it; n * k symbols over
    # RECODE_SYMBOL_CAP are refused before any block is built
    golden = Sft.from_matrix([[1, 1], [1, 0]])
    counts = [2, 3]                 # golden-mean k-blocks, k = 1, 2, ...
    while len(counts) < 3000:
        counts.append(counts[-1] + counts[-2])
    past = next(k for k, c in enumerate(counts, 1) if c >= 1 << 1024)
    for k in (1, 2, 3, 10, 64, past - 1, past, past + 1, 3000):
        want = min(counts[k - 1], 1 << 1024)
        assert core_sft._block_count(golden.transition, k) == want
    cycle = Sft.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ResourceLimitError, match="6000000 symbols, over cap 4194304"):
        recode_to_one_step.__wrapped__(cycle, 3 * 10 ** 6)
    assert recode_to_one_step.__wrapped__(cycle, 1000).n == 2
    monkeypatch.setattr(core_sft, "RECODE_SYMBOL_CAP", 20)
    assert recode_to_one_step.__wrapped__(Sft.full(2), 2).n == 4
    with pytest.raises(ResourceLimitError, match="24 symbols, over cap 20"):
        recode_to_one_step.__wrapped__(Sft.full(2), 3)
    with pytest.raises(ResourceLimitError, match="2000 symbols, over cap 20"):
        recode_to_one_step.__wrapped__(cycle, 1000)


def test_perron_closed_forms():
    # zero weights: the Perron root of the 0/1 matrix and its Parry kernel
    for rows, lam in (([[1, 1], [1, 0]], (1 + math.sqrt(5)) / 2),
                      ([[1, 0, 1], [0, 1, 1], [1, 1, 1]], 1 + math.sqrt(2)),
                      ([[1, 1, 1]] * 3, 3.0)):
        n, edges = len(rows), matrix_edges(rows)
        sol = Transfer(n, edges, [0] * len(edges)).solve()
        assert abs(math.exp(sol.log_lam) - lam) < 1e-12
        assert sol.precision == "double" and sol.stationary.min() > 0
        P = sol.transition
        assert np.all((P > 0) == np.array(rows, dtype=bool))
        assert np.abs(P.sum(axis=1) - 1).max() < 1e-14
        assert np.abs(sol.stationary @ P - sol.stationary).max() < 1e-14


def test_json_round_trip():
    s = Sft.from_matrix([[1, 0, 1], [0, 1, 1], [1, 1, 1]], labels=["a", "b", "c"])
    s2 = Sft.from_json(s.to_json())
    assert s2 == s
    with pytest.raises(InvalidArgumentError):
        Sft.from_json("{not json")
    with pytest.raises(InvalidArgumentError):
        Sft.from_json('{"d": 2}')
    for bad in ('{"transition": 5}', '{"transition": [[1]], "labels": 3}',
                '{"transition": [5]}', '[1, 2]'):
        with pytest.raises(InvalidArgumentError):
            Sft.from_json(bad)


def _planted_ties(rng, classes):
    """(n, edges, w) of an irreducible digraph whose edge a -> b weighs
    w[a], with ``classes`` planted critical cycles (lengths 1 to 3, one
    mean) joined only through lighter hub states."""
    top = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
    s = rng.randint(0, 3)
    while True:
        cycles, w = [], []
        for _ in range(classes):
            devs = rng.choice(((0,), (s, -s), (s, 0, -s)))
            cycles.append(list(range(len(w), len(w) + len(devs))))
            w += [top + d for d in devs]
        hubs = list(range(len(w), len(w) + rng.randint(1, 4)))
        w += [top - s - rng.randint(1, 4) for _ in hubs]
        edges = {(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))}
        edges |= {(v, rng.choice(hubs)) for c in cycles for v in c if rng.random() < 0.6}
        edges |= {(h, rng.randrange(len(w))) for h in hubs for _ in range(3)}
        n = len(w)
        if _is_irreducible_oracle(n, edges):
            return n, sorted(edges), w


def _is_irreducible_oracle(n, edges):
    reach = [{v} for v in range(n)]
    for _ in range(n):
        for a, b in edges:
            reach[a] |= reach[b]
    return all(len(r) == n for r in reach)


def _check_potentials(n, edges, w, tol=0):
    """The engine's potentials of state weights w against the oracles:
    the right and left max-plus eigen-equations, the slack of each edge,
    the classes of the critical edges (to tol), no tight path between
    classes for either, and, for exact binary values, the balanced Kleene
    construction up to a constant, all in exact arithmetic."""
    ew = [w[a] for a, _ in edges]
    mx = _max_plus_pass(n, _cyclic_components(edges), _int_weights(ew))
    h, g, den, classes, inside, slack = _potentials(n, edges, mx)
    mean = mx[0]
    h, g = ([Fraction(x, den) for x in v] for v in (h, g))
    want_mean, want_h, _ = kleene_potentials(n, edges, ew)
    # exact, or for float weights the exact mean of their binary values rounded once
    assert mean == (float(want_mean) if any(isinstance(x, float) for x in w) else want_mean)
    mean = want_mean
    # the max-plus eigen-equation, to tol (a class tied within tol of the
    # top is balanced as one)
    best = [None] * n
    for (a, b), x in zip(edges, ew):
        if best[a] is None or Fraction(x) - mean + h[b] > best[a]:
            best[a] = Fraction(x) - mean + h[b]
    assert all(abs(x - y) <= Fraction(tol) for x, y in zip(best, h))
    # the left one, g[b] = max_a g[a] + w - mean, to tol, and the slack of
    # every edge against h, exactly
    best = [None] * n
    for (a, b), x in zip(edges, ew):
        if best[b] is None or g[a] + Fraction(x) - mean > best[b]:
            best[b] = g[a] + Fraction(x) - mean
    assert all(abs(x - y) <= Fraction(tol) for x, y in zip(best, g))
    assert [Fraction(s, den) for s in slack] == [
        Fraction(x) - mean + h[b] - h[a] for (a, b), x in zip(edges, ew)]
    crit = critical_edges(n, edges, w, want_mean, tol)
    assert classes == edge_classes(crit)
    # no path of tight edges leads from one class to another, for h and,
    # walked backwards, for g; g + h is constant on each exact class
    tight = [(a, b) for (a, b), x in zip(edges, ew)
             if Fraction(x) - mean + h[b] - h[a] >= -Fraction(tol)]
    left = [(b, a) for (a, b), x in zip(edges, ew)
            if g[a] + Fraction(x) - mean - g[b] >= -Fraction(tol)]
    for walk in (tight, left):
        for c in classes:
            reach, todo = set(c), list(c)
            while todo:
                v = todo.pop()
                for a, b in walk:
                    if a == v and b not in reach:
                        reach.add(b)
                        todo.append(b)
            assert all(reach.isdisjoint(k) for k in classes if k is not c)
    if not tol:
        assert all(len({g[a] + h[a] for a in c}) == 1 for c in classes)
    # the tight edges kept with the classes are those inside one class
    class_of = {a: i for i, c in enumerate(classes) for a in c}
    assert inside == [(a, b) for a, b in tight if a in class_of and class_of[a] == class_of.get(b)]
    if not tol:
        assert len({x - y for x, y in zip(h, want_h)}) == 1
    return len(classes)


def test_potentials_match_the_kleene_oracle():
    rng = random.Random(13)
    seen = set()
    for trial in range(60):
        n, edges, w = _planted_ties(rng, 1 + trial % 3)
        seen.add(_check_potentials(n, edges, w))
        assert _check_potentials(n, edges, [float(x) for x in w]) == 1 + trial % 3
        # floats off the binary grid: ties hold to rounding, within TIGHT_TOL
        thirds = [float(x + Fraction(1, 3)) for x in w]
        _check_potentials(n, edges, thirds, TIGHT_TOL * (1 + max(map(abs, thirds))))
    assert seen == {1, 2, 3}
    for name in potential_names():
        phi = get_potential(name)
        if phi.m != 1:
            continue
        rec = recode_to_one_step(phi.sft, phi.k)
        vals = [x for (x,) in phi.state_values()]
        beta = karp_max_mean(rec.n, rec.edges(), vals)
        _check_potentials(rec.n, rec.edges(), [x - beta for x in vals])


def test_the_recoding_split_matches_a_search(rng, scc_splits):
    # a recoding of a transitive shift is one SCC and is never searched;
    # any other recoding is, and both splits are what the search gives
    kinds = set()
    for _ in range(300):
        d = rng.randint(1, 4)
        try:
            sft = Sft.from_matrix([[int(rng.random() < 0.45) for _ in range(d)]
                                   for _ in range(d)])
        except EmptyShiftError:
            continue
        transitive = is_transitive(sft)
        assert transitive == _is_irreducible_oracle(sft.d, list(sft.edges()))
        assert sft.__dict__["_transitive"] is transitive       # kept with the shift
        for k in (1, 2, 3):
            recoded = recode_to_one_step.__wrapped__(sft, k)    # not split yet
            del scc_splits[:]
            got = recoded._split
            assert (len(scc_splits) == 1) != transitive
            assert got == _cyclic_components(list(recoded.edges()))
            kinds.add((transitive, got[0] == [list(range(recoded.n))]))
    assert kinds == {(True, True), (False, False)}


def test_the_block_graph_is_the_recoding_one_window_down(rng):
    # the (k-1)-block graph read off a k-block recoding: its vertices are
    # the states of the recoding at k - 1, and edge i runs from state i's
    # prefix to its suffix, so its edge list is that recoding's, in order
    for _ in range(150):
        d = rng.randint(1, 4)
        try:
            sft = Sft.from_matrix([[int(rng.random() < 0.55) for _ in range(d)]
                                   for _ in range(d)])
        except EmptyShiftError:
            continue
        for k in (2, 3, 4):
            rec, down = recode_to_one_step(sft, k), recode_to_one_step(sft, k - 1)
            index = down.block_index()
            n, edges = rec._block_graph
            assert n == down.n and edges == list(down.edges())
            assert edges == [(index[b[:-1]], index[b[1:]]) for b in rec.states]


def test_float_slack_past_the_double_range_is_not_tight():
    # the float tight test divides the slack, and each SCC's mean gap, by
    # the unit: on finite weights these may leave the double range
    big = [1e308, 1e308, -1e308, -1e308]    # the full 2-shift's edges, by source
    full = [(0, 0), (0, 1), (1, 0), (1, 1)]
    beta, tight = _max_plus_pass(2, ([[0, 1]], full), _int_weights(big))[:2]
    assert beta == 1e308 and tight == [(0, 0), (1, 0)]    # (0, 1) falls 2e308 short
    beta, tight = _max_plus_pass(2, ([[0], [1]], [(0, 0), (1, 1)]),
                                 _int_weights([1e308, -1e308]))[:2]
    assert beta == 1e308 and tight == [(0, 0)]
