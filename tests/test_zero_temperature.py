import itertools
import math
import random
from fractions import Fraction

import pytest

import thermoshift.spectral as spectral
import thermoshift.zero_temperature as zero_temperature
from oracles import (LOG_GOLDEN, TIED_COMPONENTS, brute_recoded_graph,
                     brute_weighted_automorphisms, random_rational_values,
                     random_transitive_sft, tied_potential)
from property_suites import suite_potentials
from thermoshift import (EmptyShiftError, InvalidArgumentError, NotTransitiveError,
                         NumericError, PotentialLC, Sft, UnderflowError, classify,
                         equilibrium_markov, get_potential, get_shift, ground_state_check,
                         is_transitive, potential_names, pressure, recode_to_one_step,
                         symmetry_coefficients, zt_coefficients)
from thermoshift.thermodynamics import _measure
from thermoshift.zero_temperature import _weighted_automorphisms, component_parry


def test_non_finite_t_max_is_an_input_error():
    # nan first: a default schedule up to inf would never end
    for t_max in (math.nan, math.inf):
        for name in ("threefix_a", "fix0"):
            with pytest.raises(InvalidArgumentError, match="finite"):
                zt_coefficients(get_potential(name), t_max=t_max)


def test_sweeps_without_a_zero_temperature_limit_are_input_errors():
    # the limit is t -> +oo: t_max below 1 leaves the default schedule
    # empty, and t <= 0 runs toward the minimizing limit instead
    for t_max in (0.5, -4.0):
        for name in ("threefix_a", "fix0"):
            with pytest.raises(InvalidArgumentError, match="at least 1"):
                zt_coefficients(get_potential(name), t_max=t_max, method="sweep")
    out = zt_coefficients(get_potential("threefix_a"), t_max=1.0, method="sweep")
    assert out.t_values == [1.0]


def test_fixed_point_classifications():
    for name, label in (("fix0", "00"), ("fix1", "11")):
        res = classify(get_potential(name))
        assert res.case == "VertexPeriodic"
        assert len(res.limit) == 1
        w, mu = res.limit[0]
        assert w == 1
        assert mu.state_labels == (label,)
        assert mu.entropy == 0.0
        assert not res.tolerance_limited


def test_periodic_orbit_classification():
    res = classify(get_potential("alt01"))
    assert res.case == "VertexPeriodic"
    w, mu = res.limit[0]
    assert set(mu.state_labels) == {"01", "10"}
    assert mu.entropy == 0.0
    assert all(abs(float(x) - 0.5) < 1e-12 for x in mu.stationary)


def test_coboundary_classification():
    res = classify(get_potential("cob1"))
    assert res.case == "CohomologousToConstant"
    assert res.constant == Fraction(1)
    w, mu = res.limit[0]
    assert mu.entropy == pytest.approx(math.log(2), abs=1e-10)
    assert all(abs(float(x) - 0.25) < 1e-10 for x in mu.stationary)


def test_unique_transitive_classifications():
    for name in ("gold0", "gold1"):
        res = classify(get_potential(name))
        assert res.case == "UniqueTransitive"
        w, mu = res.limit[0]
        assert w == 1
        assert mu.entropy == pytest.approx(LOG_GOLDEN, abs=1e-10)


def test_two_component_symmetry():
    phi = get_potential("twofix")
    res = classify(phi)
    assert res.case == "MultiComponent"
    assert res.limit is None
    assert symmetry_coefficients(phi, res) == (Fraction(1, 2), Fraction(1, 2))
    out = zt_coefficients(phi, method="symmetry")
    assert out.method == "symmetry"
    assert out.coefficients == (Fraction(1, 2), Fraction(1, 2))
    assert [w for w, _ in out.limit] == [Fraction(1, 2), Fraction(1, 2)]


def test_three_component_symmetry():
    out = zt_coefficients(get_potential("threefix_b"), method="symmetry")
    assert out.coefficients == (Fraction(1, 3),) * 3


def test_symmetry_unavailable_raises_or_falls_back():
    phi = get_potential("threefix_a")
    res = classify(phi)
    assert symmetry_coefficients(phi, res) is None
    with pytest.raises(InvalidArgumentError):
        zt_coefficients(phi, method="symmetry")


def _generated_group(gens, n):
    """Every product of the permutations gens (tuples over range(n))."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[i] for i in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


@pytest.mark.parametrize("palette", [(0,), (0, 1), (0, 1, 2)])
def test_weighted_automorphisms_match_brute_force(palette):
    # the search only tries symbol permutations and returns generators;
    # the oracle tries every permutation of the recoded states, so
    # agreement of the groups pins the fact that the k-block recoding has
    # no automorphisms beyond the symbol ones
    rng = random.Random(len(palette))
    shifts = [get_shift(name) for name in ("full2", "full3", "golden", "hub3")]
    shifts += [random_transitive_sft(rng, 2, 4) for _ in range(8)]
    nontrivial = 0
    for sft in shifts:
        for k in range(1, 5):
            rec = recode_to_one_step(sft, k)
            if rec.n > 8:
                break
            vals = {b: rng.choice(palette) for b in rec.states}
            phi = PotentialLC.from_block_values(sft, k, vals)
            blocks, _ = brute_recoded_graph(sft.transition, k)
            pos = {b: i for i, b in enumerate(blocks)}
            idx = rec.block_index()
            gens = [tuple(pos[rec.states[sigma[idx[b]]]] for b in blocks)
                    for sigma in _weighted_automorphisms(phi)]
            got = _generated_group(gens, len(blocks))
            expected = brute_weighted_automorphisms(sft.transition, vals, k)
            assert got == expected, (sft.transition, k, vals)
            nontrivial += len(expected) > 1
    assert nontrivial > 0


def test_symmetry_on_a_large_symmetric_group():
    # full 8-shift, value 4 on the eight fixed points: the symmetric group
    # S_8 permutes them transitively
    values = {b: 4 if b[0] == b[1] else 0 for b in itertools.product(range(8), repeat=2)}
    phi = PotentialLC.from_block_values(Sft.full(8), 2, values)
    res = classify(phi)
    assert len(res.max_entropy_ids) == 8
    assert symmetry_coefficients(phi, res) == (Fraction(1, 8),) * 8


def test_trivial_coefficients_on_single_component():
    out = zt_coefficients(get_potential("fix0"))
    assert out.method == "trivial"
    assert out.coefficients == (Fraction(1),)
    assert out.case == "VertexPeriodic"


def test_sweep_without_symmetry():
    out = zt_coefficients(get_potential("twofix_skew"), t_max=2.0 ** 12)
    assert out.method == "sweep"
    assert out.converged
    assert out.coefficients == pytest.approx((0.5, 0.5), abs=1e-4)
    assert out.boundary_history[-1] < 1e-3


def test_sweep_with_feeding_edges():
    out = zt_coefficients(get_potential("threefix_a"), t_max=2.0 ** 12,
                          method="sweep")
    assert out.coefficients == pytest.approx((0.5, 0.25, 0.25), abs=1e-4)


def test_sweep_with_a_starved_component():
    out = zt_coefficients(get_potential("threefix_c"), t_max=2.0 ** 12,
                          method="sweep")
    assert out.coefficients == pytest.approx((0.5, 0.5, 0.0), abs=1e-4)


def test_sweep_runs_one_max_plus_pass_per_potential(max_plus_passes):
    # beta and the max-plus scaling are built by the first solve of a
    # potential and shared by every later one, whatever t: one pass on the
    # recoding, which also scales the transfer, and one that balances its
    # three critical classes
    phi = get_potential("threefix_a")
    out = zt_coefficients(phi, method="sweep")
    assert out.method == "sweep" and len(out.t_values) > 4
    for t in (0.5, 2.0, 8.0, 32.0):
        pressure(phi, t)
    assert [n for n, *_ in max_plus_passes] == [phi._recoded.n, 3]


@pytest.mark.parametrize("name", ["twofix", "twofix_skew", "threefix_a", "threefix_b",
                                  "threefix_c", *TIED_COMPONENTS])
def test_sweep_coefficients_are_convex_weights(name):
    # Aitken extrapolation takes a starved component's weight below 0
    # unless it is clipped: threefix_c's third fixed point gets none
    out = zt_coefficients(tied_potential(name)[0], method="sweep")
    assert out.method == "sweep"
    assert all(c >= 0.0 for c in out.coefficients)
    if name == "threefix_c":
        assert out.coefficients[2] == 0.0


def test_sweep_builds_the_aggregation_frame_once(monkeypatch):
    # the frame of the tied classes is built by the first solve that
    # aggregates and shared by every later one, whatever t
    phi = get_potential("threefix_a")
    classes = phi._transfer.potentials[1]
    builds = []
    build = spectral._frame

    def counting(n, cls, *edges):
        builds.append(cls is classes)   # not the frames of coupling matrices
        return build(n, cls, *edges)

    monkeypatch.setattr(spectral, "_frame", counting)
    out = zt_coefficients(phi, method="sweep")
    assert out.method == "sweep" and len(out.t_values) > 4
    for t in (8.0, 32.0):
        pressure(phi, t)
    assert builds.count(True) == 1


# (coefficients, last row of mass_history) of method="sweep", as the sweep
# gave them when every step built an equilibrium state and every
# aggregation round ran an exact max-plus pass on its coupling matrix.
# The last rows of twofix and twofix_skew (t = 8 and 4) are the masses of
# an mpmath solve rounded once; an engine that took the masses from state
# reduction of the kernel gave 0.49983232493493945 and 0.4998323249345942,
# 3.5e-13 off.
SWEEP_RESULTS = {
    "twofix": ((0.4999999999999991, 0.5000000000000009),
               (0.4998323249347668, 0.4998323249347668)),
    "twofix_skew": ((0.4999999999999991, 0.5000000000000009),
                    (0.4998323249347668, 0.4998323249347668)),
    "threefix_a": ((0.5000000000000001, 0.2499999999999999, 0.25),
                   (0.5000000000000001, 0.2499999999999999, 0.25)),
    "threefix_b": ((0.3333333333333584, 0.3333333333333208, 0.3333333333333208),
                   (0.3331098415277202, 0.3331098415276827, 0.3331098415276827)),
    "threefix_c": ((0.5, 0.5, 0.0), (0.5, 0.5, 8.01905445274319e-29)),
    "two 2-cycles": ((0.49999999999999944, 0.5000000000000006),
                     (0.49999999999999944, 0.5000000000000006)),
    "two golden means": ((1.0, 0.0), (0.9999999999999999, 8.60384658794569e-42)),
}


@pytest.mark.parametrize("name", SWEEP_RESULTS)
def test_sweep_masses_are_those_of_the_equilibrium_states(name):
    out = zt_coefficients(tied_potential(name)[0], method="sweep")
    coefficients, last = SWEEP_RESULTS[name]
    assert out.coefficients == pytest.approx(coefficients, rel=1e-13, abs=0.0)
    assert out.mass_history[-1] == pytest.approx(last, rel=1e-13, abs=0.0)
    phi = tied_potential(name)[0]
    state_sets = [classify(phi).components[i].state_ids for i in out.component_ids]
    for t, row in zip(out.t_values, out.mass_history):
        p = equilibrium_markov(phi, t).stationary
        assert row == pytest.approx([sum(p[s] for s in states) for states in state_sets],
                                    rel=1e-13, abs=0.0)


def test_classify_solves_each_face_component_once(monkeypatch):
    # the component's entropy and its Parry measure come from one solve
    calls = []
    solve = spectral.Transfer.solve

    def counting(self, *args):
        calls.append(1)
        return solve(self, *args)

    monkeypatch.setattr(spectral.Transfer, "solve", counting)
    res = classify(get_potential("gold0"))
    assert res.case == "UniqueTransitive"
    assert res.components[0].entropy == res.limit[0][1].pressure == pytest.approx(LOG_GOLDEN)
    assert len(calls) == 1


def _measure_bits(mu):
    arrays = (mu.stationary, mu.transition, mu.log_stationary)
    return (type(mu.state_labels), mu.state_labels, type(mu.blocks), mu.blocks,
            [(a.dtype, a.shape, a.tobytes(), a.flags.writeable, a.base is None) for a in arrays],
            [repr(x) for x in (mu.entropy, mu.pressure, mu.beta, mu.t, mu.gap, mu.precision)])


def test_periodic_limit_measures_are_those_of_the_exact_solve():
    # a cycle component's Parry measure is formed directly, with no
    # solve: it is the measure of the component's exact Perron solve,
    # bit for bit, and so is every VertexPeriodic limit
    cycles, vertex = 0, 0
    named = [get_potential(name) for name in potential_names()]
    # a 9-cycle with a loop at 0, with the cycle on top or the whole shift
    # one cycle: n > 6, where the gap 2 sin(pi/n) is not clamped
    loop = Sft.from_matrix([[int(j == (i + 1) % 9 or i == j == 0) for j in range(9)]
                            for i in range(9)])
    long = [PotentialLC.from_block_values(loop, 2, {b: int(b != (0, 0)) for b in
                                                    recode_to_one_step(loop, 2).states}),
            PotentialLC.constant(Sft.from_matrix([[int(j == (i + 1) % 7) for j in range(7)]
                                                  for i in range(7)]), 0)]
    for phi in long + named + [p for p, alpha in suite_potentials(500) if alpha is None]:
        if phi.m != 1 or not phi._irreducible:
            continue
        res = classify(phi)
        for i, comp in enumerate(res.face.components):
            if comp.is_cycle:
                got = component_parry(res.face, i)
                want = _measure(comp.perron_solve, comp.labels(), comp.blocks)
                assert _measure_bits(got) == _measure_bits(want), (phi, i)
                cycles += 1
        if res.case == "VertexPeriodic":
            (_, comp), = [(i, res.face.components[i]) for i in res.max_entropy_ids]
            want = _measure(comp.perron_solve, comp.labels(), comp.blocks)
            assert _measure_bits(res.limit[0][1]) == _measure_bits(want)
            vertex += 1
    assert cycles > 400 and vertex > 200


def _solves_fail_from(monkeypatch, t_fail, error):
    real = zero_temperature._solve

    def solve(phi, t, what):
        if t >= t_fail:
            raise error(f"no solve at t={t}")
        return real(phi, t, what)
    monkeypatch.setattr(zero_temperature, "_solve", solve)


def test_sweep_stops_at_the_first_failed_solve(monkeypatch):
    _solves_fail_from(monkeypatch, 8.0, UnderflowError)
    out = zt_coefficients(get_potential("threefix_a"), method="sweep")
    assert out.t_values == [1.0, 2.0, 4.0]
    assert any(f.startswith("sweep stopped at t=8.0") for f in out.flags)
    assert sum(out.coefficients) == pytest.approx(1.0)


def test_sweep_without_a_solve_is_a_numeric_error(monkeypatch):
    _solves_fail_from(monkeypatch, 1.0, NumericError)
    with pytest.raises(NumericError, match="produced no data"):
        zt_coefficients(get_potential("threefix_a"), method="sweep")


def test_short_schedule_reports_unconverged():
    out = zt_coefficients(get_potential("twofix_skew"), t_max=1.0)
    assert not out.converged
    assert "unconverged" in out.flags


def test_ground_state_checks():
    assert ground_state_check(get_potential("gold0"))["ok"]
    res = classify(get_potential("twofix"))
    assert ground_state_check(get_potential("twofix"), res) == {
        "undetermined": True}
    out = zt_coefficients(get_potential("twofix"))
    assert ground_state_check(get_potential("twofix"), out)["ok"]


def test_classification_is_scale_invariant():
    phi = get_potential("gold0")
    tripled = PotentialLC.from_block_values(
        phi.sft, phi.k, {b: 3 * v[0] for b, v in phi.values.items()})
    a, b = classify(phi), classify(tripled)
    assert a.case == b.case
    assert b.beta == 3 * a.beta
    assert [c.blocks for c in a.components] == [c.blocks for c in b.components]


def test_input_validation():
    with pytest.raises(InvalidArgumentError):
        classify(get_potential("trivec"))
    split = Sft.from_matrix([[1, 0], [0, 1]])
    with pytest.raises(NotTransitiveError):
        classify(PotentialLC.constant(split, 0))
    with pytest.raises(InvalidArgumentError):
        zt_coefficients(get_potential("twofix"), method="bogus")


@pytest.mark.parametrize("name", ["gold0", "fix0", "twofix"])
def test_an_unknown_method_is_refused_in_every_case(name):
    # the method is checked before classify: a case whose limit needs no
    # coefficients (gold0, fix0) refuses it as a tie does
    with pytest.raises(InvalidArgumentError, match="unknown method 'bogus'"):
        zt_coefficients(get_potential(name), method="bogus")


def test_the_recoding_decides_transitivity():
    # the k-block recoding of a pruned shift is irreducible exactly when
    # the shift is transitive, so classify and pressure read its split
    rng = random.Random(1717)
    reducible = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        try:
            sft = Sft.from_matrix([[int(rng.random() < 0.45) for _ in range(d)]
                                   for _ in range(d)])
        except EmptyShiftError:
            continue
        k = rng.choice((1, 2, 3))
        phi = PotentialLC.from_block_values(sft, k, random_rational_values(rng, sft, k))
        assert phi._irreducible == is_transitive(sft)
        if phi._irreducible:
            classify(phi)
            continue
        reducible += 1
        with pytest.raises(NotTransitiveError):
            classify(phi)
        with pytest.raises(NotTransitiveError):
            pressure(phi, 1.0)
    assert reducible >= 50
