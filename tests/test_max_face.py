import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (LOG_GOLDEN, LOG_SILVER, brute_max_cycle_mean,
                     critical_edges, fraction_orbit_averages, karp_max_mean,
                     random_rational_values, random_transitive_sft)
from property_suites import suite_potentials
from thermoshift import (InvalidArgumentError, PotentialLC, Sft,
                         equilibrium_markov, face_subshift, get_potential,
                         max_entropy_components, max_mean_data,
                         elementary_orbits, potential_names, recode_to_one_step)
from thermoshift.core_sft import _is_irreducible, matrix_edges
from thermoshift.max_face import extreme_cycle
from thermoshift.spectral import _CW_TOL, Transfer
from thermoshift.thermodynamics import markov_entropy


def test_max_cycle_mean_matches_brute_force(rng):
    for _ in range(100):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        vals = random_rational_values(rng, sft, k)
        phi = PotentialLC.from_block_values(sft, k, vals)
        face = face_subshift(phi)
        assert face.beta == brute_max_cycle_mean(sft.transition, vals, k)


def test_golden_mean_face():
    face = face_subshift(get_potential("gold0"))
    assert face.beta == Fraction(2)
    assert not face.is_whole_shift
    assert len(face.components) == 1
    comp = face.components[0]
    assert set(comp.labels()) == {"00", "01", "10"}
    assert comp.entropy == pytest.approx(LOG_GOLDEN, abs=1e-12)
    assert face.entropy == pytest.approx(LOG_GOLDEN, abs=1e-12)


def test_hub_face_is_transitive_with_silver_entropy():
    face = face_subshift(get_potential("hubmax"))
    assert face.beta == Fraction(2)
    assert not face.is_whole_shift
    assert len(face.components) == 1
    comp = face.components[0]
    assert set(comp.labels()) == {"00", "02", "20", "22", "11", "12", "21"}
    assert comp.entropy == pytest.approx(LOG_SILVER, abs=1e-12)


def test_two_fixed_point_face():
    face = face_subshift(get_potential("twofix"))
    assert face.beta == Fraction(1)
    assert len(face.components) == 2
    assert [c.labels() for c in face.components] == [("00",), ("11",)]
    assert all(c.entropy == 0.0 for c in face.components)
    ids, flagged = max_entropy_components(face)
    assert ids == (0, 1)
    assert not flagged


def test_coboundary_face_is_everything():
    face = face_subshift(get_potential("cob1"))
    assert face.beta == Fraction(1)
    assert face.is_whole_shift
    assert len(face.components) == 1
    assert face.entropy == pytest.approx(math.log(2), abs=1e-12)


def test_three_tied_zero_entropy_components():
    face = face_subshift(get_potential("threefix_c"))
    assert face.beta == Fraction(4)
    assert len(face.components) == 3
    assert [c.labels() for c in face.components] == [("00",), ("11",), ("22",)]
    ids, flagged = max_entropy_components(face)
    assert ids == (0, 1, 2)
    assert not flagged


def test_vector_potential_face_in_a_direction():
    # pushing down in the second coordinate keeps only the two low strips
    face = face_subshift(get_potential("trivec"), alpha=(0, -1))
    assert face.beta == Fraction(0)
    assert len(face.components) == 2
    labels = [set(c.labels()) for c in face.components]
    assert {"00", "01", "10", "11"} in labels
    assert {"33", "34", "43", "44"} in labels
    for c in face.components:
        assert c.entropy == pytest.approx(math.log(2), abs=1e-12)


def test_direction_validation():
    with pytest.raises(InvalidArgumentError):
        face_subshift(get_potential("trivec"))
    with pytest.raises(InvalidArgumentError):
        face_subshift(get_potential("trivec"), alpha=(1, 0, 0))


def test_float_mode_face_matches_exact():
    vals = {(0, 0): 2.0, (0, 1): 3.0, (1, 0): 1.0, (1, 1): 0.0}
    phi = PotentialLC.from_block_values(Sft.full(2), 2, vals, mode="float")
    face = face_subshift(phi)
    assert face.beta == pytest.approx(2.0, abs=1e-9)
    assert len(face.components) == 1
    assert set(face.components[0].labels()) == {"00", "01", "10"}


def test_lex_extreme_cycle_refines_ties(rng):
    # one tilted direction does what a lexicographic refinement did: on
    # the rows (1, 0) and (1, 1) every cycle ties along (1, 0), and (3, 1)
    # or (3, -1) breaks the tie either way
    recoded = recode_to_one_step(Sft.full(2), 1)
    rows = [(1, 0), (1, 1)]
    cyc, total = extreme_cycle(recoded, rows, (1, 0))
    assert total[0] == len(cyc)
    assert extreme_cycle(recoded, rows, (3, 1)) == ([1], (1, 1))
    assert extreme_cycle(recoded, rows, (3, -1)) == ([0], (1, 0))
    # on random planar potentials, u tilted by v past the spread of v gives
    # the orbit average that is largest along u and then along v
    for _ in range(40):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        Phi = PotentialLC.from_block_values(sft, k, random_rational_values(rng, sft, k, m=2), m=2)
        rows, L = Phi._int_rows
        u, v = rng.sample([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, -1)], 2)
        n = len(rows)
        tilt = 2 * n * n * max(abs(v[0] * x + v[1] * y) for x, y in rows) + 1
        d = tuple(tilt * a + b for a, b in zip(u, v))
        cyc, total = extreme_cycle(Phi._recoded, rows, d)
        avgs = fraction_orbit_averages(Phi, elementary_orbits(sft, k))
        want = max(avgs, key=lambda a: (u[0] * a[0] + u[1] * a[1], v[0] * a[0] + v[1] * a[1]))
        assert tuple(Fraction(x, len(cyc) * L) for x in total) == want


def _random_digraph(rng, n, density):
    return [(a, b) for a in range(n) for b in range(n) if rng.random() < density]


def _tied_cycles(rng):
    # a loop, a 2-cycle and a 3-cycle of one mean, half the time joined
    # into one SCC, fed by lighter states that no cycle returns to: ties
    # between cycles of different lengths
    n = rng.randint(6, 10)
    top = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    s = Fraction(rng.randint(-3, 3), 2)
    w = [top, top + s, top - s, top + s, top, top - s]
    w += [top - rng.randint(1, 6) for _ in range(n - 6)]
    edges = {(0, 0), (1, 2), (2, 1), (3, 4), (4, 5), (5, 3)}
    if rng.random() < 0.5:
        edges |= {(0, 1), (2, 0), (0, 3), (5, 0)}
    edges |= {e for e in _random_digraph(rng, n, 0.25) if e[0] >= 6}
    return n, sorted(edges), w


def _check_pass(n, edges, w):
    """max_mean_data against the Karp oracle and the critical-edge oracle;
    False when the graph has no cycle."""
    want = karp_max_mean(n, edges, [Fraction(x) for x in w])
    if want is None:
        with pytest.raises(InvalidArgumentError):
            max_mean_data(n, edges, w)
        return False
    beta, rec, sccs = max_mean_data(n, edges, w)
    if all(isinstance(x, Fraction) for x in w):
        assert beta == want
    else:                       # the exact mean of the binary values, rounded once
        assert beta == float(want)
    crit = critical_edges(n, edges, w, want)
    assert rec == [e for e in edges if e in crit]
    reach = {v: {v} for v in range(n)}
    for _ in range(n):
        for a, b in rec:
            reach[a] |= reach[b]
    classes = {tuple(sorted(u for u in reach[v] if v in reach[u]))
               for e in rec for v in e}
    assert sorted(map(tuple, sccs)) == sorted(classes)
    return True


def test_max_plus_pass_matches_karp_oracle():
    rng = random.Random(20261018)
    checked = 0
    for trial in range(1100):
        kind = trial % 5
        if kind == 0:           # any digraph, often reducible, sometimes acyclic
            n = rng.randint(1, 12)
            edges = _random_digraph(rng, n, rng.uniform(0.1, 0.5))
            w = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(n)]
        elif kind == 1:         # irreducible recodings, small integers: many ties
            sft = random_transitive_sft(rng)
            k = rng.choice((1, 2))
            recoded = recode_to_one_step(sft, k)
            vals = {b: Fraction(rng.randint(0, 2)) for b in recoded.states}
            n, edges, w = recoded.n, list(recoded.edges()), [vals[b] for b in recoded.states]
            if n <= 9:
                assert max_mean_data(n, edges, w)[0] == brute_max_cycle_mean(
                    sft.transition, vals, k)
        elif kind == 2:         # edge subsets of recodings: reducible
            recoded = recode_to_one_step(random_transitive_sft(rng), rng.choice((2, 3)))
            n = recoded.n
            edges = [e for e in recoded.edges() if rng.random() < 0.6]
            w = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
        elif kind == 3:
            n, edges, w = _tied_cycles(rng)
        else:                   # float weights, generic or dyadic (exact ties)
            n = rng.randint(1, 12)
            edges = _random_digraph(rng, n, rng.uniform(0.15, 0.5))
            w = [rng.uniform(-5, 5) if trial % 2 else rng.randint(-8, 8) / 4.0
                 for _ in range(n)]
        checked += _check_pass(n, edges, w)
    # lex refinement: each direction restricts to the previous tight edges
    for trial in range(60):
        sft = random_transitive_sft(rng)
        recoded = recode_to_one_step(sft, rng.choice((1, 2, 3)))
        vecs = [tuple(Fraction(rng.randint(0, 2)) for _ in range(3)) for _ in recoded.states]
        edges = list(recoded.edges())
        for _ in range(3):
            d = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
            w = [sum(a * x for a, x in zip(d, v)) for v in vecs]
            checked += _check_pass(recoded.n, edges, w)
            edges = max_mean_data(recoded.n, edges, w)[1]
    assert checked >= 1000


def test_face_labels_separate_two_digit_symbols():
    # on full12, the states (1, 11) and (11, 1) must not both print "111"
    sft = Sft.full(12)
    vals = {b: (1 if b in ((1, 11), (11, 1)) else 0,)
            for b in recode_to_one_step(sft, 2).states}
    phi = PotentialLC.from_block_values(sft, 2, vals)
    (comp,) = face_subshift(phi).components
    assert comp.labels() == ("1,11", "11,1")
    mu = equilibrium_markov(phi)
    assert tuple(mu.state_labels[i] for i in comp.state_ids) == comp.labels()


# -- exact Parry data of cycle components -----------------------------------

def _assert_cycle_matches_engine(comp):
    """A cycle component's exact Parry data against the Perron engine's
    solve of its 0/1 matrix; log_lam and the gap of the engine carry the
    rounding of its eigensolve, about n ulps."""
    n = len(comp.matrix)
    assert comp.is_cycle and comp.entropy == 0.0
    got = comp.perron_solve
    want = Transfer(n, matrix_edges(comp.matrix), [0] * sum(map(sum, comp.matrix))).solve()
    tol = max(1e-15, n * 2.0 ** -52)
    assert got.log_lam == 0.0 and abs(want.log_lam) <= tol
    assert abs(got.gap - want.gap) <= tol * want.gap
    assert n > 6 or got.gap == want.gap == 1.0      # the engine's clamp, exactly
    assert got.precision == want.precision == "double"
    for a, b in ((got.transition, want.transition), (got.stationary, want.stationary)):
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= 1e-15 * np.abs(b))
    assert markov_entropy(got.stationary, got.transition) == 0.0


def test_cycle_parry_data_matches_the_engine_on_n_cycles():
    # the gap is 2 sin(pi/n), clamped to 1 for n <= 6 as the engine's is
    # (2 sin(pi/6) rounds 1 ulp below 1)
    rng = random.Random(17)
    for n in range(1, 41):
        order = rng.sample(range(n), n)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[order[i]][order[(i + 1) % n]] = 1
        (comp,) = face_subshift(PotentialLC.constant(Sft.from_matrix(rows), 0)).components
        assert comp.matrix == tuple(map(tuple, rows))
        _assert_cycle_matches_engine(comp)


def _faces():
    for name in potential_names():
        phi = get_potential(name)
        if phi.m == 1:
            yield face_subshift(phi)
        else:
            for alpha in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
                yield face_subshift(phi, alpha)
    for phi, alpha in suite_potentials():
        yield face_subshift(phi, alpha)


def test_cycle_components_match_the_engine():
    # every cycle component of the builtins and the property-suite potentials
    cycles = 0
    for face in _faces():
        for comp in face.components:
            assert comp.is_cycle == all(sum(row) == 1 for row in comp.matrix)
            if comp.is_cycle:
                _assert_cycle_matches_engine(comp)
                cycles += 1
    assert cycles >= 1000


def test_support_query_walks_the_unsplit_tight_edges(rng, max_plus_passes, scc_splits):
    # one support query is one max-plus pass and no SCC split, and the
    # walk on its tight edges, which may lead out of the recurrent ones,
    # always closes a cycle of maximum mean: on small-integer rows with
    # many ties, and rows with one vector planted on many blocks
    for _ in range(300):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        recoded = recode_to_one_step(sft, k)
        m = rng.choice((2, 3))
        rows = [tuple(rng.randint(0, 2) for _ in range(m)) for _ in range(recoded.n)]
        if rng.random() < 0.5:
            top = rows[0]
            rows = [top if rng.random() < 0.6 else row for row in rows]
        d = tuple(rng.randint(-3, 3) for _ in range(m))
        recoded._split
        max_plus_passes.clear()
        scc_splits.clear()
        cyc, total = extreme_cycle(recoded, rows, d)
        assert len(max_plus_passes) == 1 and not scc_splits
        edges = set(recoded.edges())
        assert all((a, b) in edges for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        assert len(set(cyc)) == len(cyc)
        w = [sum(x * y for x, y in zip(d, row)) for row in rows]
        beta = karp_max_mean(recoded.n, recoded.edges(), [Fraction(x) for x in w])
        assert Fraction(sum(x * y for x, y in zip(d, total)), len(cyc)) == beta
        assert total == tuple(map(sum, zip(*(rows[v] for v in cyc))))


# -- exact entropy of regular components ------------------------------------

def _whole_component(rows):
    """The one face component of the zero potential on an irreducible 0/1
    matrix: the matrix itself."""
    (comp,) = face_subshift(PotentialLC.constant(Sft.from_matrix(rows), 0)).components
    assert comp.matrix == tuple(map(tuple, rows))
    return comp


def _irreducible(rows):
    return _is_irreducible(len(rows), matrix_edges(rows))


def _regular_components(rng):
    """(component, r) for components whose 0/1 matrix has all row sums or
    all column sums equal to r >= 2."""
    # k-block recodings of the full shift on an r-letter sub-alphabet of
    # full d: the face of the potential that is 0 on its blocks, -1 elsewhere
    for d, r, k in ((3, 2, 1), (3, 2, 3), (4, 3, 2), (5, 2, 4), (5, 4, 2), (6, 5, 2)):
        sub = set(rng.sample(range(d), r))
        sft = Sft.full(d)
        vals = {b: (0 if set(b) <= sub else -1,) for b in recode_to_one_step(sft, k).states}
        (comp,) = face_subshift(PotentialLC.from_block_values(sft, k, vals)).components
        assert len(comp.matrix) == r ** k
        yield comp, r
    # irreducible unions of r disjoint permutation matrices: row j holds
    # the columns pi[(tau[j] + c) mod n] for r distinct offsets c
    count = 0
    while count < 30:
        n = rng.randint(3, 12)
        r = rng.randint(2, n - 1)
        pi, tau = rng.sample(range(n), n), rng.sample(range(n), n)
        offsets = rng.sample(range(n), r)
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            for c in offsets:
                rows[j][pi[(tau[j] + c) % n]] = 1
        if _irreducible(rows):
            count += 1
            yield _whole_component(rows), r
    # column-regular, not row-regular: transposes of matrices whose rows
    # each hold r random ones and whose column sums differ
    count = 0
    while count < 30:
        n = rng.randint(3, 12)
        r = rng.randint(2, n - 1)
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            for b in rng.sample(range(n), r):
                rows[j][b] = 1
        cols = [list(c) for c in zip(*rows)]
        if _irreducible(cols) and len({sum(c) for c in cols}) > 1:
            count += 1
            yield _whole_component(cols), r


def test_regular_components_take_log_r_without_the_engine():
    # the engine certifies its root to _CW_TOL relative, so its log to
    # _CW_TOL absolute; its eigensolve rounds up to a few ulps per state
    comps = 0
    for comp, r in _regular_components(random.Random(23)):
        n = len(comp.matrix)
        assert comp.entropy == math.log(r)
        assert "perron_solve" not in vars(comp)        # no solve was run
        want = Transfer(n, matrix_edges(comp.matrix), [0] * sum(map(sum, comp.matrix))).solve().log_lam
        assert abs(comp.entropy - want) <= _CW_TOL
        comps += 1
    assert comps == 66


def test_irregular_components_call_the_engine():
    rng = random.Random(29)
    count = 0
    while count < 30:
        n = rng.randint(2, 10)
        rows = [[int(rng.random() < 0.4) for _ in range(n)] for _ in range(n)]
        if (not _irreducible(rows) or len({sum(r) for r in rows}) == 1
                or len({sum(c) for c in zip(*rows)}) == 1):
            continue
        comp = _whole_component(rows)
        h = comp.entropy
        assert "perron_solve" in vars(comp)            # entropy ran the solve
        want = Transfer(n, matrix_edges(comp.matrix), [0] * sum(map(sum, comp.matrix))).solve().log_lam
        assert h == comp.perron_solve.log_lam == want
        count += 1
