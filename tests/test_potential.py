import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

import thermoshift.core_sft as core_sft
import thermoshift.potential as potential
from oracles import (brute_max_cycle_mean, random_rational_values,
                     random_transitive_sft, word_average)
from property_suites import suite_potentials
from thermoshift import (CohomologyReport, InvalidArgumentError, NotTransitiveError,
                         PotentialLC, Sft, classify, cohomology_test, face_subshift,
                         get_potential, max_mean_data, potential_names, pressure,
                         recode_to_one_step, rotation_set, scalarize,
                         universal_potential)
from thermoshift.max_face import _state_pass, extreme_cycle


def test_block_coverage_is_validated():
    golden = Sft.from_matrix([[1, 1], [1, 0]])
    with pytest.raises(InvalidArgumentError):
        # block 11 is inadmissible on the golden-mean shift
        PotentialLC.from_block_values(golden, 2, {(0, 0): 1, (0, 1): 2,
                                                  (1, 0): 3, (1, 1): 4})
    with pytest.raises(InvalidArgumentError):
        PotentialLC.from_block_values(golden, 2, {(0, 0): 1, (0, 1): 2})
    phi = PotentialLC.from_matrix(golden, [[5, 7], [11, 99]])
    assert set(phi.values) == {(0, 0), (0, 1), (1, 0)}
    with pytest.raises(InvalidArgumentError):
        phi.value((1, 1))


def test_value_uses_leading_window():
    phi = PotentialLC.from_matrix(Sft.full(2), [[1, 2], [3, 4]])
    assert phi.value((0, 1)) == (Fraction(2),)
    assert phi.value((0, 1, 1, 0)) == (Fraction(2),)
    with pytest.raises(InvalidArgumentError):
        phi.value((0, 2))


def test_mode_enforcement():
    full2 = Sft.full(2)
    with pytest.raises(InvalidArgumentError):
        PotentialLC(full2, 1, 1, {(0,): (0.5,), (1,): (0.5,)}, "exact")
    with pytest.raises(InvalidArgumentError):
        PotentialLC(full2, 1, 1, {(0,): (Fraction(1),), (1,): (Fraction(1),)},
                    "float")
    with pytest.raises(InvalidArgumentError):
        PotentialLC(full2, 1, 1, {(0,): (0.0,), (1,): (0.0,)}, "fuzzy")


BAD_VALUES = [("float", math.nan), ("float", math.inf), ("float", -math.inf),
              ("float", "abc"), ("float", "1e400"), ("float", None),
              ("exact", math.nan), ("exact", math.inf), ("exact", -math.inf),
              ("exact", "abc"), ("exact", "1/0"), ("exact", None)]


@pytest.mark.parametrize("mode, value", BAD_VALUES)
def test_values_that_are_not_finite_numbers_are_input_errors(mode, value):
    full2 = Sft.full(2)
    with pytest.raises(InvalidArgumentError, match="at block"):
        PotentialLC.from_block_values(full2, 1, {(0,): value, (1,): 0}, mode=mode)
    with pytest.raises(InvalidArgumentError, match="at block"):
        PotentialLC.from_block_values(full2, 1, {(0,): (1, value), (1,): (0, 0)}, mode=mode)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_constructor_refuses_non_finite_floats(value):
    with pytest.raises(InvalidArgumentError, match="float potential holds"):
        PotentialLC(Sft.full(2), 1, 1, {(0,): (0.5,), (1,): (value,)}, "float")


@pytest.mark.parametrize("mode, text", [
    ("exact", '"1/0"'), ("exact", '"abc"'), ("exact", '"nan"'), ("exact", "NaN"),
    ("exact", "Infinity"), ("float", '"abc"'), ("float", "NaN"), ("float", "Infinity"),
    ("float", "-Infinity"), ("float", "1e400"), ("float", "[]")])
def test_potential_json_with_a_bad_value_is_an_input_error(mode, text):
    doc = '{"k": 1, "mode": "%s", "values": {"0": [%s], "1": [0]}}' % (mode, text)
    with pytest.raises(InvalidArgumentError):
        PotentialLC.from_json(doc, Sft.full(2))


def test_potentials_are_immutable():
    values = {(0,): (Fraction(1),), (1,): (Fraction(2),)}
    phi = PotentialLC(Sft.full(2), 1, 1, values, "exact")
    values[(0,)] = (Fraction(5),)          # the potential keeps its own copy
    assert phi.value((0,)) == (Fraction(1),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.k = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.values = {}
    with pytest.raises(TypeError):
        phi.values[(0,)] = (Fraction(3),)
    assert phi == PotentialLC(Sft.full(2), 1, 1, {(0,): (1,), (1,): (2,)}, "exact")
    pressure(phi, 1.0)
    for twin in (pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi)):
        assert twin == phi and pressure(twin, 1.0) == pressure(phi, 1.0)


def test_shared_solve_data_is_read_only():
    # a stage that wrote into the arrays every solve of the potential
    # shares would fail here rather than corrupt later solves
    phi = get_potential("twofix")
    pressure(phi, 40.0)
    transfer = phi._transfer
    h, classes = transfer.potentials

    def arrays(x):              # those of the aggregation frame too
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (tuple, list)):
            for y in x:
                yield from arrays(y)

    assert len(classes) == 2 and transfer._frames
    for a in (*transfer.exponents, *transfer.ends, h, *classes,
              *arrays(list(transfer._frames.values()))):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_scalarize_exact_and_float():
    full2 = Sft.full(2)
    Phi = PotentialLC.from_block_values(
        full2, 1, {(0,): (1, 0), (1,): (0, 1)}, m=2)
    s = scalarize(Phi, (Fraction(1, 2), Fraction(-1, 2)))
    assert s.mode == "exact" and s.m == 1
    assert s.value((0,)) == (Fraction(1, 2),)
    assert s.value((1,)) == (Fraction(-1, 2),)
    sf = scalarize(Phi, (0.5, -0.5))
    assert sf.mode == "float"
    assert sf.value((0,)) == (0.5,)
    with pytest.raises(InvalidArgumentError):
        scalarize(Phi, (1, 2, 3))


def test_json_round_trip_preserves_rationals():
    full2 = Sft.full(2)
    phi = PotentialLC.from_block_values(
        full2, 2, {(0, 0): Fraction(1, 3), (0, 1): Fraction(-2, 7),
                   (1, 0): 0, (1, 1): 5})
    again = PotentialLC.from_json(phi.to_json(), full2)
    assert again == phi
    assert again.value((0, 0)) == (Fraction(1, 3),)
    with pytest.raises(InvalidArgumentError):
        PotentialLC.from_json("{oops", full2)
    with pytest.raises(InvalidArgumentError):
        PotentialLC.from_json('{"values": {}}', full2)


def test_universal_potential_and_embedding():
    golden = Sft.from_matrix([[1, 1], [1, 0]])
    uni = universal_potential(golden, 2)
    assert uni.m == 3
    vecs = sorted(uni.values.values())
    assert vecs == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    # state i of the recoding carries the i-th basis vector
    assert uni.state_values() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ints = PotentialLC(golden, 1, 1, {(0,): (3,), (1,): (-1,)}, "exact")
    assert [type(x) for (x,) in ints.state_values()] == [Fraction, Fraction]


def test_cohomology_constant_detection():
    full2 = Sft.full(2)
    # all cycle means equal 1
    phi = PotentialLC.from_matrix(full2, [[1, 3], [-1, 1]])
    zero = PotentialLC.constant(full2, 0)
    rep = cohomology_test(phi, zero)
    assert isinstance(rep, CohomologyReport)
    assert rep.cohomologous and rep.constant == Fraction(1)
    assert rep.witness is None and rep.spread == 0.0


def test_cohomology_witness_on_failure():
    full2 = Sft.full(2)
    phi = PotentialLC.from_matrix(full2, [[1, 0], [0, 0]])
    zero = PotentialLC.constant(full2, 0)
    rep = cohomology_test(phi, zero)
    assert not rep.cohomologous and rep.constant is None
    assert rep.witness is not None and rep.spread == 1.0
    assert rep.witness[1] == (0,)       # the fixed point 0 has mean 1


def test_cohomology_float_tolerance_flag():
    full2 = Sft.full(2)
    eps = 1e-12
    vals = {(0, 0): 1.0 + eps, (0, 1): 3.0, (1, 0): -1.0, (1, 1): 1.0}
    phi = PotentialLC.from_block_values(full2, 2, vals, mode="float")
    zero = PotentialLC.constant(full2, 0.0, mode="float")
    rep = cohomology_test(phi, zero)
    assert rep.cohomologous and rep.tolerance_limited
    assert abs(rep.constant - 1.0) < 1e-9
    assert 0 < rep.spread <= 1e-9


def test_cohomology_matches_brute_cycle_means(rng):
    for trial in range(60):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        psi = PotentialLC.from_block_values(sft, 1, random_rational_values(rng, sft, 1))
        if trial % 2:
            # coboundary plus a constant, cohomologous to that constant
            g = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(sft.d)]
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 5)))
            blocks = recode_to_one_step(sft, 2).states
            phi = PotentialLC.from_block_values(
                sft, 2, {b: g[b[1]] - g[b[0]] + c + psi.value(b)[0] for b in blocks})
        else:
            phi = PotentialLC.from_block_values(sft, k, random_rational_values(rng, sft, k))
        k = max(phi.k, psi.k)
        w = {b: phi.value(b)[0] - psi.value(b)[0]
             for b in recode_to_one_step(sft, k).states}
        hi = brute_max_cycle_mean(sft.transition, w, k)
        lo = -brute_max_cycle_mean(sft.transition, {b: -x for b, x in w.items()}, k)
        rep = cohomology_test(phi, psi)
        assert rep.cohomologous == (lo == hi)
        assert rep.spread == float(hi - lo)
        if trial % 2:
            assert rep.cohomologous and rep.constant == c
        if rep.cohomologous:
            assert rep.constant == hi and rep.witness is None
        else:
            low, high = rep.witness
            assert word_average(low, w, k) == lo and word_average(high, w, k) == hi
            assert all(min(seg[r:] + seg[:r] for r in range(len(seg))) == seg
                       for seg in rep.witness)


def test_cohomology_requires_matching_shifts():
    phi = PotentialLC.constant(Sft.full(2), 1)
    psi = PotentialLC.constant(Sft.full(3), 1)
    with pytest.raises(InvalidArgumentError):
        cohomology_test(phi, psi)
    Phi2 = PotentialLC.from_block_values(
        Sft.full(2), 1, {(0,): (1, 0), (1,): (0, 1)}, m=2)
    with pytest.raises(InvalidArgumentError):
        cohomology_test(Phi2, PotentialLC.constant(Sft.full(2), 0))


def test_constant_mode_float():
    c = PotentialLC.constant(Sft.full(2), 0.25, k=2, mode="float")
    assert c.mode == "float" and all(v == (0.25,) for v in c.values.values())
    assert math.isclose(float(c.value((1, 0))[0]), 0.25)


# -- the recoding's SCC split ----------------------------------------------

def _split_cases():
    """(scalar potentials, vector potentials): every builtin and
    property-suite potential, vector ones also along the suite's or a few
    axis directions, and every scalar one in float mode too."""
    scalars, vectors = [], []
    named = [(get_potential(name), None) for name in potential_names()]
    for phi, alpha in named + list(suite_potentials()):
        if phi.m == 1:
            scalars.append(phi)
        else:
            vectors.append(phi)
            for d in [alpha] if alpha else [(1, 0), (0, -1), (1, 1)]:
                scalars.append(scalarize(phi, d))
    scalars += [PotentialLC(phi.sft, phi.k, 1, {b: (float(x),) for b, (x,) in phi.values.items()},
                            "float") for phi in scalars]
    return scalars, vectors


def test_the_recoding_split_gives_the_public_max_plus_pass():
    for phi in _split_cases()[0]:
        recoded = phi._recoded
        w = [x for (x,) in phi.state_values()]
        assert phi._max_plus == max_mean_data(recoded.n, recoded.edges(), w)


def test_cohomology_and_rotation_sets_do_not_depend_on_the_split(monkeypatch):
    def outputs():
        rng = random.Random(17)
        scalars, vectors = _split_cases()
        out = []
        for phi in scalars:
            psi = PotentialLC.from_block_values(phi.sft, 1, random_rational_values(rng, phi.sft, 1))
            out += [cohomology_test(phi, psi), cohomology_test(phi, phi)]
        for Phi in vectors:
            P = rotation_set(Phi)
            out.append((P.affine_dim, P.vertices, P.facets))
            for d in ((1, 0), (0, 1), (0, -1), (-1, -1), (3, 1)):
                out.append(extreme_cycle(Phi._recoded, Phi._int_rows[0], d))
        return out

    cached = outputs()
    fresh = []

    def own_split(recoded):
        fresh.append(1)
        return core_sft._cyclic_components(recoded.edges())

    monkeypatch.setattr(core_sft.RecodedSft, "_split", property(own_split))
    assert outputs() == cached and len(fresh) > len(cached)


def _bits(rep):
    return tuple(map(repr, dataclasses.astuple(rep)))


def test_cohomology_against_a_constant_matches_the_general_path_and_the_oracle(monkeypatch):
    # against a constant c of window <= k_phi (exact, or 0 in float mode)
    # the max side is phi's kept pass less c, and only the min side runs a
    # pass; the report is bit for bit the general path's, and its max and
    # min are the oracle's cycle means of phi - c
    scalars = _split_cases()[0]
    phis = scalars[:700] + scalars[-700:]       # the first exact, the last float ones
    cases = []
    for phi in phis:
        phi._pass
        for c in (Fraction(0), Fraction(1, 3)):
            for k in sorted({1, phi.k}):
                psi = PotentialLC.constant(phi.sft, c if phi.mode == "exact" else float(c),
                                           k=k, mode=phi.mode)
                cases.append((phi, psi, phi.mode == "exact" or c == 0))
    passes = []
    monkeypatch.setattr(potential, "_state_pass",
                        lambda *a: passes.append(1) or _state_pass(*a))
    fast = [_bits(cohomology_test(phi, psi)) for phi, psi, _ in cases]
    assert len(passes) == sum(1 if kept else 2 for *_, kept in cases)
    assert {(phi.mode, kept, psi.k < phi.k) for phi, psi, kept in cases} == {
        (mode, kept, lower) for mode in ("exact", "float") for kept in (True, False)
        for lower in (True, False)} - {("exact", False, True), ("exact", False, False)}
    monkeypatch.setattr(potential, "_constant_shift", lambda *a: None)
    assert [_bits(cohomology_test(phi, psi)) for phi, psi, _ in cases] == fast
    for (phi, psi, _), got in zip(cases, fast):
        if phi.mode == "float" or phi.sft.d > 3 or phi.k > 2:
            continue
        (c,) = next(iter(psi.values.values()))
        w = {b: x - c for b, (x,) in phi.values.items()}
        hi = brute_max_cycle_mean(phi.sft.transition, w, phi.k)
        lo = -brute_max_cycle_mean(phi.sft.transition, {b: -x for b, x in w.items()}, phi.k)
        rep = cohomology_test(phi, psi)
        assert (rep.cohomologous, rep.spread) == (lo == hi, float(hi - lo))
        assert rep.constant == (hi if lo == hi else None)


def test_a_transitive_recoding_is_never_split_and_a_reducible_one_once(scc_splits):
    recode_to_one_step.cache_clear()    # recodings no earlier test has split
    phi = get_potential("gold0")
    recoded = phi._recoded
    assert classify(phi).case == "UniqueTransitive"
    assert not cohomology_test(phi, PotentialLC.constant(phi.sft, 0, k=2)).cohomologous
    pressure(phi, 1.0)
    assert "_split" in vars(recoded)
    assert scc_splits and recoded.edges() not in [tuple(e) for e, in scc_splits]
    # two fixed points and the transient words between them
    sft = Sft.from_matrix([[1, 1], [0, 1]])
    psi = PotentialLC.from_block_values(sft, 2, {(0, 0): 1, (0, 1): 0, (1, 1): 2})
    with pytest.raises(NotTransitiveError):
        classify(psi)
    assert not cohomology_test(psi, PotentialLC.constant(sft, 0, k=2)).cohomologous
    assert face_subshift(psi).beta == 2 and face_subshift(psi, (1,)).beta == 2
    assert [tuple(e) for e, in scc_splits].count(psi._recoded.edges()) == 1


def test_a_transfer_takes_the_split_of_its_potential(scc_splits):
    # classify splits the tight edges of the potential's pass, and the
    # transfer of its first pressure takes that split instead of making its own
    named = get_potential("threefix_a")
    phi = PotentialLC(named.sft, named.k, named.m, dict(named.values), named.mode)
    classify(phi)
    pressure(phi, 1.0)
    tight = phi._pass[1]
    assert len(tight) == 9 and [edges is tight for edges, in scc_splits].count(True) == 1
