import functools
import hashlib
import itertools
import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (GOLDEN, LOG_GOLDEN, LOG_SILVER, TIED_COMPONENTS,
                     longdouble_equilibrium, mp_equilibrium, numpy_pressure,
                     random_rational_values, random_transitive_sft, tied_potential)
from thermoshift import (InvalidArgumentError, NotTransitiveError, NumericError,
                         PotentialLC, Sft, UnderflowError, classify, equilibrium_markov,
                         get_potential, get_shift, parry_measure, potential_names,
                         pressure, recode_to_one_step)
import thermoshift.spectral as spectral
from thermoshift.spectral import GAP_FLOOR
from thermoshift.thermodynamics import markov_entropy

SQ5 = math.sqrt(5.0)
SQ2 = math.sqrt(2.0)


def test_pressure_of_constant_potentials():
    c = PotentialLC.constant(Sft.full(3), Fraction(1, 2))
    for t in (0.0, 0.7, 2.0):
        assert pressure(c, t) == pytest.approx(math.log(3) + 0.5 * t, abs=1e-12)
    zero = PotentialLC.constant(get_shift("golden"), 0)
    assert pressure(zero, 1.0) == pytest.approx(LOG_GOLDEN, abs=1e-12)


def test_pressure_full_shift_closed_form():
    a, b = Fraction(1, 3), Fraction(-1, 2)
    phi = PotentialLC.from_block_values(Sft.full(2), 1, {(0,): a, (1,): b})
    for t in (0.5, 1.0, 3.0):
        want = math.log(math.exp(t * float(a)) + math.exp(t * float(b)))
        assert pressure(phi, t) == pytest.approx(want, abs=1e-12)


def test_pressure_constant_shift_covariance():
    phi = get_potential("gold0")
    shifted = PotentialLC.from_block_values(
        phi.sft, phi.k, {b: v[0] + Fraction(7, 3) for b, v in phi.values.items()})
    for t in (0.5, 2.0):
        assert pressure(shifted, t) == pytest.approx(
            pressure(phi, t) + t * 7.0 / 3.0, abs=1e-10)


def test_equilibrium_is_bernoulli_on_full_shift():
    a, b = 1.0, -1.0
    phi = PotentialLC.from_block_values(
        Sft.full(2), 1, {(0,): a, (1,): b}, mode="float")
    t = 0.8
    mu = equilibrium_markov(phi, t)
    z = math.exp(t * a) + math.exp(t * b)
    p0 = math.exp(t * a) / z
    assert mu.precision == "double"
    assert mu.stationary[0] == pytest.approx(p0, abs=1e-12)
    # Bernoulli: every row of the kernel equals the stationary vector
    assert np.allclose(mu.transition, np.tile(mu.stationary, (2, 1)), atol=1e-12)
    h = -p0 * math.log(p0) - (1 - p0) * math.log(1 - p0)
    assert mu.entropy == pytest.approx(h, abs=1e-12)
    integral = p0 * a + (1 - p0) * b
    assert mu.entropy + t * integral == pytest.approx(mu.pressure, abs=1e-12)
    assert mu.pressure == pytest.approx(math.log(z), abs=1e-12)


def test_parry_measure_golden():
    mu = parry_measure(get_shift("golden"))
    assert mu.entropy == pytest.approx(LOG_GOLDEN, abs=1e-12)
    assert mu.stationary[0] == pytest.approx(GOLDEN / SQ5, abs=1e-12)
    assert mu.transition[0][0] == pytest.approx(1 / GOLDEN, abs=1e-12)
    assert mu.transition[1][0] == pytest.approx(1.0, abs=1e-12)


def test_parry_measure_hub():
    mu = parry_measure(get_shift("hub3"))
    assert mu.entropy == pytest.approx(LOG_SILVER, abs=1e-12)
    assert np.allclose(mu.stationary, [0.25, 0.25, 0.5], atol=1e-12)
    P = mu.transition
    assert P[0][0] == pytest.approx(SQ2 - 1, abs=1e-12)
    assert P[0][1] == pytest.approx(0.0, abs=1e-12)
    assert P[0][2] == pytest.approx(2 - SQ2, abs=1e-12)
    assert P[2][0] == pytest.approx(1 - SQ2 / 2, abs=1e-12)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_equilibrium_closed_form_three_symbols():
    # transfer matrix with tied diagonal and two feeding entries has an
    # explicit symbol marginal: ((s-1)/2s, (s+1)/4s, (s+1)/4s), s = sqrt(1+8e^t)
    phi = get_potential("threefix_a")
    t = 1.0
    mu = equilibrium_markov(phi, t)
    s = math.sqrt(1.0 + 8.0 * math.exp(t))
    want = ((s - 1) / (2 * s), (s + 1) / (4 * s), (s + 1) / (4 * s))
    marg = [0.0, 0.0, 0.0]
    for w, blk in zip(mu.stationary, mu.blocks):
        marg[blk[0]] += float(w)
    assert marg == pytest.approx(want, abs=1e-10)


def test_low_temperature_tie_solves_in_doubles():
    # twofix at t = 40: two tied fixed points, relative gap about 4e-18
    phi = get_potential("twofix")
    values = {b: v[0] for b, v in phi.values.items()}
    mu, _ = _assert_matches_oracle(phi, values, 40.0)
    assert mu.precision == "double"
    assert mu.mass((0, 0)) == pytest.approx(0.5, abs=1e-8)
    assert mu.mass((1, 1)) == pytest.approx(0.5, abs=1e-8)
    assert mu.mass((0, 1)) == pytest.approx(0.0, abs=1e-8)
    assert mu.entropy < 1e-6


def test_rotation_vector_of_a_measure():
    mu = parry_measure(Sft.full(2))
    Phi = PotentialLC.from_block_values(
        Sft.full(2), 1, {(0,): (1, 0), (1,): (0, 1)}, m=2)
    assert mu.rotation_vector(Phi) == pytest.approx((0.5, 0.5), abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        mu.mass((0, 0))


def test_reducible_and_vector_inputs_are_rejected():
    split = Sft.from_matrix([[1, 0], [0, 1]])
    zero = PotentialLC.constant(split, 0)
    with pytest.raises(NotTransitiveError):
        pressure(zero, 1.0)
    with pytest.raises(NotTransitiveError):
        equilibrium_markov(zero, 1.0)
    with pytest.raises(InvalidArgumentError):
        pressure(get_potential("trivec"), 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "1", None, 1 + 0j, 10**400],
                         ids=["nan", "inf", "-inf", "str", "None", "complex", "huge-int"])
def test_non_finite_t_is_an_input_error(t):
    for solve in (pressure, equilibrium_markov):
        with pytest.raises(InvalidArgumentError, match="finite"):
            solve(get_potential("twofix"), t)


@pytest.mark.parametrize("name", ["twofix", "gold0", "threefix_a"])
def test_exact_t_solves_as_its_float(name):
    # each potential is fresh, so neither result is the other's kept solve
    exact, double = get_potential(name), get_potential(name)
    assert pressure(exact, Fraction(1, 3)) == pressure(double, 1 / 3)
    mu, nu = equilibrium_markov(exact, Fraction(1, 3)), equilibrium_markov(double, 1 / 3)
    assert mu.stationary.tobytes() == nu.stationary.tobytes()
    assert mu.transition.tobytes() == nu.transition.tobytes()
    assert mu.pressure == nu.pressure


def test_extreme_t_underflows_cleanly():
    with pytest.raises(UnderflowError):
        equilibrium_markov(get_potential("twofix"), t=2.0e4)
    with pytest.raises(UnderflowError):
        pressure(get_potential("twofix"), t=2.0e4)


def test_uncertified_solve_in_the_double_range_is_a_numeric_error(monkeypatch):
    # neither the eigen solve nor the aggregation certifies: at t = 1 every
    # scaled exponent lies in the double range, at t = 2e4 some leave it
    monkeypatch.setattr(spectral, "_certify", lambda B, ok: (None, None, None, None, False))
    monkeypatch.setattr(spectral.Transfer, "_tied", lambda self, *args: None)
    with pytest.raises(NumericError, match="not certified in doubles"):
        pressure(get_potential("twofix"), t=1.0)
    with pytest.raises(UnderflowError, match="leaves the double range"):
        pressure(get_potential("twofix"), t=2.0e4)


def _assert_matches_oracle(phi, values, t):
    """Every stationary and kernel entry within 1e-10 relative of an
    mpmath solve; entries below the double range must read as tiny.
    Every log mass, those of masses below the double range too, within
    1e-10 of the oracle's, relative where its size exceeds 1 (a relative
    error of 1e-10 in the mass).  Returns the measure and the oracle's
    gap."""
    import mpmath as mp
    span = float(max(values.values()) - min(values.values()))
    p, P, gap = mp_equilibrium(phi.sft.transition, values, phi.k, t,
                               dps=30 + int(t * span / 2.3))
    mu = equilibrium_markov(phi, t)
    pairs = list(zip(mu.stationary, p))
    pairs += [(x, y) for row, want in zip(mu.transition, P)
              for x, y in zip(row, want)]
    for got, want in pairs:
        if want > 1e-300:
            assert abs(got - want) <= 1e-10 * want, (t, mu.precision, got, want)
        else:
            assert got < 1e-290
    for got, x in zip(mu.log_stationary, p):
        m, e = mp.frexp(x)          # mpmath's log misreads some of these mpfs
        want = math.log(float(m)) + e * math.log(2.0)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (t, got, want)
    return mu, gap


SEEDED_TEMPERATURES = (0.25, 1.0, 4.0, 16.0, 64.0)


def _seeded_full_shift_potentials(rng):
    """(phi, values) of seeded rational potentials on full shifts."""
    for d, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)):
        sft = Sft.full(d)
        values = random_rational_values(rng, sft, k)
        yield PotentialLC.from_block_values(sft, k, values), values


def test_equilibrium_matches_mp_oracle_entrywise(rng):
    # seeded full-shift potentials against an independent mpmath solve of
    # the unscaled transfer matrix; doubles are used, whatever the gap
    for phi, values in _seeded_full_shift_potentials(rng):
        for t in SEEDED_TEMPERATURES:
            mu, gap = _assert_matches_oracle(phi, values, t)
            assert mu.precision == "double", (phi.sft.d, phi.k, t, float(gap))


def test_n64_low_temperature_solve_stays_in_doubles(rng):
    sft = Sft.full(4)
    phi = PotentialLC.from_block_values(sft, 3, random_rational_values(rng, sft, 3))
    mu = equilibrium_markov(phi, 16.0)
    assert mu.precision == "double"
    p, P = mu.stationary, mu.transition
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-14
    assert np.all(np.abs(p @ P - p) <= 1e-12 * p)


# Fixed low-temperature benchmark potentials (full3 k=3, full2 k=4, full2
# k=2), block values in lexicographic block order.  Dense eig on the
# unscaled transfer matrix got their t = 4 masses wrong by 1e-4 relative
# while passing its positivity test.  At the last t of each, scaled
# entries fall below e^-700 and masses below the double range.
SILENT_ERROR_CASES = (
    (3, 3, "2/3 7/3 0 3/2 -5/2 -1 2 8 -5/3 -5/3 -3/2 7/3 -1 1/4 1 -4 1/3 2 0 "
           "-1/3 -4 -2 -3/2 4 6 7 7/4", (4.0, 64.0)),
    (2, 4, "-1/3 -3/4 4 -2/3 3/2 3/4 7/4 -1/2 1 -4 -1/2 0 3/2 2 -7/2 3/2",
     (4.0, 16.0, 128.0)),
    (2, 2, "-1/2 3/2 -1 -8", (4.0, 16.0, 128.0)),
    (2, 2, "-2 7/2 -3 4", (4.0, 16.0, 128.0)),
)


def _benchmark_potential(d, k, text):
    blocks = sorted(itertools.product(range(d), repeat=k))
    return PotentialLC.from_block_values(Sft.full(d), k, dict(zip(blocks, text.split())))


@pytest.mark.parametrize("d, k, text, temps", SILENT_ERROR_CASES)
def test_low_temperature_masses_are_entrywise_accurate(d, k, text, temps):
    phi = _benchmark_potential(d, k, text)
    values = {b: v[0] for b, v in phi.values.items()}
    for t in temps:
        mu, _ = _assert_matches_oracle(phi, values, t)
        assert mu.precision == "double"


def _fingerprint(phi, what, t):
    """Every output of one solve, as bytes or exact text."""
    if what == "pressure":
        return repr(pressure(phi, t))
    mu = equilibrium_markov(phi, t)
    return (mu.stationary.tobytes(), mu.transition.tobytes(), repr(mu.pressure),
            repr(mu.gap), mu.precision, repr(mu.entropy))


@pytest.mark.parametrize("name", ["benchmark 0", "benchmark 1", "benchmark 2",
                                  "benchmark 3", "threefix_a", "threefix_b",
                                  "threefix_c", "twofix", "twofix_skew", "gold0",
                                  "two golden means"])
def test_solves_sharing_a_potential_match_fresh_solves(name):
    # the data a potential keeps from its first solve (its aggregation
    # frame too, where its classes tie) gives, at every t and in any
    # order, the bits a solve of a new equal potential gives
    if name.startswith("benchmark"):
        d, k, text, _ = SILENT_ERROR_CASES[int(name.split()[1])]
        make = lambda: _benchmark_potential(d, k, text)      # noqa: E731
    else:
        make = lambda: tied_potential(name)[0]              # noqa: E731
    calls = [(what, 2.0 ** e) for what in ("pressure", "equilibrium")
             for e in range(-2, 7)]
    random.Random(name).shuffle(calls)
    shared = make()
    for what, t in calls:
        assert _fingerprint(shared, what, t) == _fingerprint(make(), what, t), (what, t)


def _outputs(phi, what, t):
    """Every output of one pressure or equilibrium state as bytes or exact
    text, or the error it raised."""
    try:
        if what == "pressure":
            return repr(pressure(phi, t))
        mu = equilibrium_markov(phi, t)
    except (NumericError, UnderflowError) as exc:
        return repr(exc)
    return (mu.stationary.tobytes(), mu.log_stationary.tobytes(), mu.transition.tobytes(),
            repr(mu.pressure), repr(mu.gap), mu.precision, repr(mu.entropy))


def _scalar_makers(seeded):
    """Builders of new equal potentials: the scalar builtins, the planted
    ties and ``seeded`` seeded potentials."""
    makers = [functools.partial(get_potential, name) for name in potential_names()
              if get_potential(name).m == 1]
    makers += [lambda name=name: tied_potential(name)[0] for name in TIED_COMPONENTS]
    return makers + [functools.partial(_fresh, phi) for phi in _seeded_scalar_potentials(seeded, 30)]


def test_kept_solves_give_the_bits_of_fresh_solves_in_either_order():
    # a pressure and an equilibrium state at one t share one kept solve,
    # pressure first or equilibrium first, and each gives the bits of a
    # new equal potential that solves it alone
    for make in _scalar_makers(60):
        first, second = make(), make()
        for t in SEEDED_TEMPERATURES:
            want = [_outputs(make(), what, t) for what in ("pressure", "equilibrium")]
            assert [_outputs(first, what, t) for what in ("pressure", "equilibrium")] == want
            assert [_outputs(second, what, t) for what in ("equilibrium", "pressure")] == want[::-1]
        assert len(first._transfer._solves) == len(SEEDED_TEMPERATURES)


def test_equilibria_after_a_sweep_give_the_bits_of_fresh_solves():
    # a sweep keeps its solves, and an equilibrium state at one of its t
    # reads the kept masses: the bits of a new equal potential
    from thermoshift import zt_coefficients
    swept = 0
    for make in _scalar_makers(0):
        phi = make()
        if classify(phi).case != "MultiComponent":
            continue
        z = zt_coefficients(phi, method="sweep")
        assert len(phi._transfer._solves) >= len(z.t_values) > 1
        for t in (z.t_values[0], z.t_values[len(z.t_values) // 2], z.t_values[-1]):
            assert _outputs(phi, "equilibrium", t) == _outputs(make(), "equilibrium", t), t
        swept += 1
    assert swept >= 7


@pytest.fixture
def certify_calls(monkeypatch):
    """A list that grows by one on each eigenvalue stage of the spectral
    engine (``spectral._certify``)."""
    calls = []
    certify = spectral._certify
    monkeypatch.setattr(spectral, "_certify", lambda *args: calls.append(1) or certify(*args))
    return calls


@pytest.mark.parametrize("name", ["gold0", "twofix", "threefix_c"])
def test_a_repeated_t_runs_no_stage(name, certify_calls):
    phi = tied_potential(name)[0]
    equilibrium_markov(phi, 8.0)
    pressure(phi, 2.0)
    assert certify_calls
    certify_calls.clear()
    for solve, t in ((pressure, 8.0), (equilibrium_markov, 8.0), (equilibrium_markov, 2.0),
                     (pressure, 2), (equilibrium_markov, np.float64(8.0))):
        solve(phi, t)
    assert not certify_calls


def test_an_unsolved_t_raises_on_every_call():
    phi = get_potential("twofix")
    for solve in (equilibrium_markov, pressure, equilibrium_markov, pressure):
        with pytest.raises(UnderflowError, match="t=20000.0 leaves the double range"):
            solve(phi, 2.0e4)
    assert not phi._transfer._solves


def test_kept_solves_are_bounded_and_hold_no_kernel(certify_calls):
    # the oldest t is dropped first, and a dropped t solves again to the
    # same bits; no kept solve holds a kernel, read or not
    phi = tied_potential("threefix_a")[0]
    temps = [0.5 * (i + 1) for i in range(40)]
    first = _outputs(phi, "equilibrium", temps[0])
    for t in temps[1:]:
        pressure(phi, t)
        if t < 10.0:
            equilibrium_markov(phi, t)
    kept = phi._transfer._solves
    assert list(kept) == temps[-spectral._KEPT_SOLVES:]
    assert not any("transition" in vars(sol) for sol in kept.values())
    certify_calls.clear()
    assert _outputs(phi, "equilibrium", temps[0]) == first
    assert certify_calls and temps[0] in kept and len(kept) == spectral._KEPT_SOLVES
    assert not any("transition" in vars(sol) for sol in kept.values())


def test_equal_temperatures_share_one_kept_solve():
    phi = get_potential("threefix_a")
    tr = phi._transfer
    got = [pressure(phi, 1), equilibrium_markov(phi, 1.0).pressure, pressure(phi, np.float64(1.0))]
    assert len(tr._solves) == 1 and tr.solve(1) is tr.solve(1.0) is tr.solve(np.float64(1.0))
    assert got[0] == got[1] == got[2] == pressure(get_potential("threefix_a"), 1.0)


def test_measures_own_their_arrays():
    # component Parry measures, the limit of a classification and
    # equilibrium states at a kept t each own their arrays: a write into
    # one leaves the others, and later results, unchanged; the arrays a
    # solve keeps are read-only
    from thermoshift.zero_temperature import component_parry
    phi = get_potential("hubmax")
    res = classify(phi)
    i = res.max_entropy_ids[0]
    pressure(phi, 2.0)

    def measures():
        return [component_parry(res.face, i), component_parry(res.face, i), res.limit[0][1],
                equilibrium_markov(phi, 2.0), equilibrium_markov(phi, 2.0)]

    def arrays(mu):
        return mu.stationary, mu.log_stationary, mu.transition

    got = measures()
    want = [tuple(a.tobytes() for a in arrays(mu)) for mu in got]
    for j, mu in enumerate(got):
        for a in arrays(mu):
            a.flat[0] = 99.0
        assert [tuple(a.tobytes() for a in arrays(x)) for x in got[j + 1:]] == want[j + 1:]
    assert [tuple(a.tobytes() for a in arrays(mu)) for mu in measures()[:2]] == want[:2]
    assert [tuple(a.tobytes() for a in arrays(mu)) for mu in measures()[3:]] == want[3:]
    for sol in (phi._transfer.solve(2.0), res.face.components[i].perron_solve):
        assert not (sol.stationary.flags.writeable or sol.log_stationary.flags.writeable)


# Solves at t = 64 that leave the double range (transition matrix, k and
# block values), which an earlier engine reran in mpmath.  On the first,
# mpmath eigenvectors at a precision sized from t miss their equations in
# the smallest entries; on the second, state reduction of the double
# kernel (Grassmann, Taksar and Heyman 1985) underflows.
ESCALATED_CASES = {
    "tiny eigenvector entries": (
        ((1, 0, 1), (1, 1, 1), (0, 1, 1)), 3,
        "000:2 002:0 021:-1 022:-1 100:-1 102:-1 110:-1 111:0 112:1 121:1 "
        "122:1 210:-1 211:-1 212:1 221:2 222:-2"),
    "state reduction underflow": (
        ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 0)), 2,
        "00:1 03:1 11:2 12:1 20:-2 21:-1 23:1 30:0 32:-2"),
}


def _escalated_potential(name):
    """(phi, values) of one of ``ESCALATED_CASES``."""
    rows, k, text = ESCALATED_CASES[name]
    values = {tuple(map(int, b)): Fraction(v)
              for b, v in (item.split(":") for item in text.split())}
    return PotentialLC.from_block_values(Sft.from_matrix(rows), k, values), values


@pytest.mark.parametrize("name", ESCALATED_CASES)
def test_escalated_solves_match_the_oracle_entrywise(name):
    mu, _ = _assert_matches_oracle(*_escalated_potential(name), 64.0)
    assert mu.precision == "double"


def test_nearly_uncoupled_fixed_points_stay_in_doubles():
    # two maximizing fixed points, 000 and 111, joined only through
    # blocks of value -2: at t = 4 and 5 the relative gap is about
    # exp(-2t), above GAP_FLOOR, and plain power steps would need 1e4 to
    # 1e5 steps to balance the two
    sft = Sft.full(2)
    blocks = sorted(itertools.product(range(2), repeat=3))
    values = dict(zip(blocks, map(Fraction, (0, -1, -2, -2, -2, 0, 0, 0))))
    phi = PotentialLC.from_block_values(sft, 3, values)
    for t in (4.0, 5.0):
        mu, gap = _assert_matches_oracle(phi, values, t)
        assert GAP_FLOOR < gap < 1e-3 and mu.precision == "double"


def test_a_certified_start_keeps_its_slow_modes():
    # full2 at k = 10 with seeded values: the start certifies to 6.2e-15
    # with a gap of 0.068, which bounds each slow mode's error below
    # _CW_TOL; filtering all 26 slow modes anyway broke its positivity
    rng = random.Random(15)
    blocks = recode_to_one_step(Sft.full(2), 10).states
    phi = PotentialLC.from_block_values(Sft.full(2), 10, {b: rng.randint(-5, 5) for b in blocks})
    mu = equilibrium_markov(phi, 1.0)
    recoded = phi._recoded
    src, dst = np.array(recoded.edges()).T
    # eps 1.1e-19 where longdouble is x87 extended; no better than the engine where it is double
    p, K = longdouble_equilibrium(recoded.n, recoded.edges(),
                                  [float(v[0]) for v in phi.state_values()], 1.0)
    assert np.all(np.abs(mu.stationary - p) <= 1e-12 * p)
    assert np.all(np.abs(mu.transition[src, dst] - K) <= 1e-12 * K)


@pytest.mark.parametrize("t", [16.0, 32.0])
def test_the_long_double_oracle_refuses_an_unsettled_split(t):
    # threefix_a's three fixed points decouple: each start meets the
    # Collatz-Wielandt stop long before the split between them settles,
    # and the two starts disagree on it
    phi = get_potential("threefix_a")
    rec = phi._recoded
    with pytest.raises(AssertionError, match="the two starts disagree"):
        longdouble_equilibrium(rec.n, rec.edges(), [float(v[0]) for v in phi.state_values()], t)


@pytest.mark.parametrize("t", [4.0, 16.0])
@pytest.mark.parametrize("eps", ["1/10000000", "1/1000000000"])
def test_near_ties_match_the_oracle_in_doubles(eps, t):
    # fixed points 00 and 11 whose values differ by eps, joined only through
    # blocks of value -5: the relative gap is about t eps, below GAP_FLOOR,
    # with one critical class, and the fixed point that falls short joins
    # the aggregation as a near tie
    values = {(0, 0): Fraction(0), (1, 1): -Fraction(eps),
              (0, 1): Fraction(-5), (1, 0): Fraction(-5)}
    phi = PotentialLC.from_block_values(Sft.full(2), 2, values)
    mu, gap = _assert_matches_oracle(phi, values, t)
    assert mu.precision == "double" and gap < GAP_FLOOR
    assert len(phi._transfer.potentials[1]) == 1


@pytest.mark.parametrize("t", [4.0, 8.0, 16.0, 32.0, 64.0])
@pytest.mark.parametrize("name", [*TIED_COMPONENTS, "threefix_a", "threefix_b",
                                  "threefix_c", "twofix_skew"])
def test_collapsed_gaps_match_the_oracle_in_doubles(name, t):
    # tied maximizing components decouple as t grows: the relative gap
    # falls from about 1e-6 at t = 4 to 1e-195 at t = 128 on threefix_a
    phi, values = tied_potential(name)
    mu, gap = _assert_matches_oracle(phi, values, t)
    assert mu.precision == "double"
    if t >= 8.0:
        assert gap < GAP_FLOOR


@pytest.mark.parametrize("name, t", [
    *(("twofix", t) for t in (4.0, 8.0, 32.0, 128.0)),
    *((name, 128.0) for name in (*TIED_COMPONENTS, "threefix_a", "threefix_b",
                                 "threefix_c", "twofix_skew"))])
def test_tied_solves_match_the_oracle(name, t):
    # the cases the test above cannot take: twofix certifies without
    # aggregating up to t = 8, and at t = 128 the planted ties leave the
    # double range; whether a round solves its coupling matrix as it is
    # or after an exact max-plus pass, the masses stay those of the oracle
    phi, values = tied_potential(name)
    _assert_matches_oracle(phi, values, t)


def _oracle_solves():
    """(phi, t) of every solve that the oracle tests above check at the
    temperatures where scaled entries leave the double range: the
    benchmark cases at their last t, the escalated cases, the planted and
    builtin ties at t = 128, and the seeded potentials at each t."""
    cases = [(_benchmark_potential(d, k, text), temps[-1])
             for d, k, text, temps in SILENT_ERROR_CASES]
    cases += [(_escalated_potential(name)[0], 64.0) for name in ESCALATED_CASES]
    cases += [(tied_potential(name)[0], 128.0) for name in (
        *TIED_COMPONENTS, "threefix_a", "threefix_b", "threefix_c", "twofix", "twofix_skew")]
    # the draws of the rng fixture, as test_equilibrium_matches_mp_oracle_entrywise makes them
    cases += [(phi, t) for phi, _ in _seeded_full_shift_potentials(random.Random(20260823))
              for t in SEEDED_TEMPERATURES]
    return cases


def _solve_digest():
    """A digest of the log masses and kernels of ``_oracle_solves``, each
    solved in doubles with every log mass finite."""
    digest = hashlib.sha256()
    for phi, t in _oracle_solves():
        mu = equilibrium_markov(phi, t)
        assert mu.precision == "double" and np.isfinite(mu.log_stationary).all(), t
        digest.update(mu.log_stationary.tobytes() + mu.transition.tobytes())
    return digest.hexdigest()


def test_solves_need_no_mpmath():
    # with mpmath unimportable, the solves that the oracle tests check give
    # the bits they give here, and the face curves match their oracle
    here = Path(__file__).resolve().parent
    code = ("import sys; sys.modules['mpmath'] = None; sys.path[:0] = sys.argv[1:]\n"
            "import test_boundary_entropy, test_thermodynamics\n"
            "test_boundary_entropy.test_face_curves_match_the_per_component_oracle()\n"
            "print(test_thermodynamics._solve_digest())")
    got = subprocess.run([sys.executable, "-c", code, str(here.parent / "src"), str(here)],
                         check=True, capture_output=True, text=True)
    assert got.stdout.split() == [_solve_digest()]


def _fresh(phi):
    """A copy of a potential with none of its data built yet."""
    return PotentialLC(phi.sft, phi.k, phi.m, dict(phi.values), phi.mode)


def _seeded_scalar_potentials(count, seed):
    """Exact potentials on transitive shifts (d <= 4, k <= 3, n <= 32)
    whose values tie often: small integers, small rationals, or fixed
    points planted at the top, so that many have several critical
    classes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sft = random_transitive_sft(rng, 2, 4)
        k = rng.randint(1, 3)
        states = recode_to_one_step(sft, k).states
        if len(states) > 32:
            continue
        kind = len(out) % 3
        vals = {b: Fraction(rng.randint(0, 2)) if kind == 0
                else Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) if kind == 1
                else Fraction(3) if len(set(b)) == 1 and rng.random() < 0.7
                else Fraction(rng.randint(-4, 2)) for b in states}
        phi = PotentialLC.from_block_values(sft, k, vals, m=1)
        if phi._irreducible:
            out.append(phi)
    return out


def test_a_scalar_potential_runs_one_howard_pass(howard_runs):
    # classify, pressure and equilibrium states read beta, the tight edges
    # and the transfer's scaling off the potential's own pass; only several
    # critical classes take more, on graphs of at most one state per class:
    # the pass that balances them and those of coupling matrices
    classes = []
    for name in potential_names():
        phi = get_potential(name)
        if phi.m != 1:
            continue
        phi = _fresh(phi)
        howard_runs.clear()
        classify(phi)
        for t in (1.0, 4.0, 16.0):
            pressure(phi, t)
            equilibrium_markov(phi, t)
        # the transfer runs on the (k-1)-block graph, from the same pass
        tr, n = phi._transfer, phi._recoded.n
        r = len(tr.potentials[1])
        runs = [len(succ) for succ, _ in howard_runs]
        assert runs[0] == n and all(x <= r <= tr.n < n for x in runs[1:])
        assert len(runs) > 1 if r > 1 else runs == [n]
        classes.append(r)
    assert classes.count(1) >= 5 and max(classes) == 3


def _block_transfer(phi):
    """The transfer of a scalar phi - beta on its k-block recoding, each
    edge weighing its target, as the engine built it at every window
    before it ran windows k >= 2 on the (k-1)-block graph: the reference
    of those transfers."""
    rec, beta = phi._recoded, phi._max_plus[0]
    w = [x - beta for (x,) in phi.state_values()]
    return spectral.Transfer(rec.n, rec.edges(), [w[b] for _, b in rec.edges()])


def test_potential_transfers_match_a_pass_of_their_own():
    # the transfer of phi - beta scaled by the potential's pass, which
    # found beta, is the transfer that runs its own pass on phi - beta on
    # the same graph, bit for bit, with one critical class or several: the
    # recoding at k = 1, and at k >= 2 the (k-1)-block graph, to which the
    # pass and the split of its tight edges are mapped
    cases = [_fresh(get_potential(name)) for name in potential_names()
             if get_potential(name).m == 1] + _seeded_scalar_potentials(400, 21)
    several, compressed = 0, 0
    for phi in cases:
        rec, beta = phi._recoded, phi._max_plus[0]
        got = phi._transfer
        w = [x - beta for (x,) in phi.state_values()]
        if phi.k == 1:
            n, edges, w = rec.n, rec.edges(), [w[b] for _, b in rec.edges()]
        else:
            n, edges = rec._block_graph
            assert n <= rec.n == len(edges)
            compressed += 1
        want = spectral.Transfer(n, edges, w)
        assert (got.n, list(got.edges)) == (n, list(edges))
        assert got.potentials[0].tobytes() == want.potentials[0].tobytes()
        assert [c.tolist() for c in got.potentials[1]] == [c.tolist() for c in want.potentials[1]]
        assert got._tight == want._tight
        for x, y in zip(got.exponents, want.exponents):
            assert x.tobytes() == y.tobytes()
        several += len(got.potentials[1]) > 1
    assert several >= 40 and compressed >= 250


def _planted_ties(count, seed):
    """Window-2 potentials on the full 2-, 3- and 4-shifts whose maximum
    is attained on two or more fixed points of one value and on no other
    cycle, as the low-temperature benchmark plants them."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        d = 2 + i % 3
        tied = rng.sample(range(d), rng.randint(2, d))
        vals = {b: Fraction(4) if b[0] == b[1] in tied else Fraction(rng.randint(-2, 3))
                for b in itertools.product(range(d), repeat=2)}
        out.append(PotentialLC.from_block_values(Sft.full(d), 2, vals))
    return out


def test_block_graph_solves_match_the_k_block_transfer():
    # a potential of window k >= 2 solves on its (k-1)-block graph, and
    # its measures on the k-blocks are formed from that solve; against the
    # k-block transfer (``_block_transfer``): every solve that certifies
    # there certifies here, the log roots agree to 1e-14 and the pressures
    # to that plus an ulp, and the masses, the log masses and the kernel
    # agree entry by entry to the certified accuracy of either solve,
    # 1e-13 (1 + 1 / gap) relative (the gap at least GAP_FLOOR unless the
    # solve aggregated), plus the rounding of exponents as large as t M,
    # M the largest scaled log weight or mass of either transfer, in the
    # log masses; window-1 solves are the reference's, bit for bit
    from thermoshift.thermodynamics import _measure
    eps = np.finfo(float).eps
    cases = [_fresh(get_potential(name)) for name in potential_names()
             if get_potential(name).m == 1] + _seeded_scalar_potentials(400, 21)
    cases += [tied_potential(name)[0] for name in TIED_COMPONENTS] + _planted_ties(12, 33)
    compared, refused, bits = 0, 0, 0
    for phi in cases:
        rec, beta, ref, tr = phi._recoded, phi._max_plus[0], _block_transfer(phi), phi._transfer
        M = max(np.abs(x).max() for x in (*ref.exponents, ref.potentials[0], *tr.exponents,
                                          tr.potentials[0]))
        for t in (0.25, 1.0, 4.0, 16.0, 64.0, 256.0):
            try:
                sol = ref.solve(t)
                want = _measure(sol, rec.labels, rec.states, t, beta)
            except (NumericError, UnderflowError):
                refused += 1
                continue
            got = equilibrium_markov(phi, t)
            compared += 1
            if phi.k == 1:
                assert got.pressure == want.pressure and got.gap == want.gap
                assert all(a.tobytes() == b.tobytes() for a, b in (
                    (got.stationary, want.stationary), (got.log_stationary, want.log_stationary),
                    (got.transition, want.transition)))
                bits += 1
                continue
            assert abs(tr.solve(t).log_lam - sol.log_lam) <= 1e-14
            assert abs(got.pressure - want.pressure) <= 1e-14 + np.spacing(abs(want.pressure))
            tol = 1e-13 * (1.0 + 1.0 / max(min(got.gap, want.gap), GAP_FLOOR)) + 8 * eps * t * M
            for a, b in ((got.stationary, want.stationary), (got.transition, want.transition)):
                assert np.array_equal(a > 0.0, b > 0.0)
                normal = b >= np.finfo(float).tiny      # subnormal masses keep no relative accuracy
                assert np.all(np.abs(a - b)[normal] <= tol * b[normal]), (phi, t)
            assert np.all(np.abs(got.log_stationary - want.log_stationary) <= tol), (phi, t)
            assert abs(got.entropy - want.entropy) <= tol * max(1.0, want.entropy)
    assert compared > 2400 and bits > 900 and refused < 60


@pytest.fixture
def coupling_passes(monkeypatch):
    """A list that grows by one on each exact max-plus pass of the
    spectral engine (``spectral._potentials``)."""
    calls = []
    passes = spectral._potentials

    def counting(*args):
        calls.append(1)
        return passes(*args)

    monkeypatch.setattr(spectral, "_potentials", counting)
    return calls


def test_coupling_rows_sharing_their_top_skip_the_max_plus_pass(monkeypatch,
                                                                coupling_passes):
    # threefix_a's balanced potentials leave every coupling matrix with
    # one top entry in each row, so no round needs an exact pass
    phi = get_potential("threefix_a")
    phi._transfer                   # the transfer's own pass is not counted
    coupling_passes.clear()
    rounds = []
    coupling = spectral._coupling

    def counting(C):
        rounds.append(len(C))
        return coupling(C)

    monkeypatch.setattr(spectral, "_coupling", counting)
    for t in (4.0, 8.0, 32.0, 128.0):
        assert equilibrium_markov(phi, t).precision == "double"
    assert len(rounds) >= 8 and set(rounds) == {3} and not coupling_passes


@pytest.mark.parametrize("C, delta, c", [
    # the rows do not share their top
    ([[1.0, 0.5], [0.25, 0.5]], (3.0 + math.sqrt(3.0)) / 4.0, (1.0, (math.sqrt(3.0) - 1.0) / 2.0)),
    # they do, but the gap collapses
    ([[1.0, 1e-20], [1e-20, 1.0]], 1.0, (1.0, 1.0)),
], ids=["rows without a shared top", "collapsed gap"])
def test_two_by_two_coupling_matrices_take_the_closed_form(coupling_passes, C, delta, c):
    got_delta, got_c, _ = spectral._coupling(np.array(C))
    assert not coupling_passes
    assert got_delta == pytest.approx(delta, rel=1e-14)
    assert got_c / got_c[0] == pytest.approx(c, rel=1e-14)


@pytest.mark.parametrize("C, delta, c", [
    # diag(1, 2, 4)^-1 J diag(1, 2, 4), J all ones: row maxima 4, 2 and 1
    ([[1.0, 2.0, 4.0], [0.5, 1.0, 2.0], [0.25, 0.5, 1.0]], 3.0, (1.0, 0.5, 0.25)),
    # the rows share their top, but the gap collapses: the pass finds
    # three classes, which aggregate
    ([[1.0, 1e-20, 1e-20], [1e-20, 1.0, 1e-20], [1e-20, 1e-20, 1.0]], 1.0, (1.0, 1.0, 1.0)),
], ids=["rows without a shared top", "collapsed gap"])
def test_coupling_matrices_outside_the_direct_case_take_the_exact_pass(
        coupling_passes, C, delta, c):
    got_delta, got_c, _ = spectral._coupling(np.array(C))
    assert len(coupling_passes) == 1
    assert got_delta == pytest.approx(delta, rel=1e-14)
    assert got_c / got_c[0] == pytest.approx(c, rel=1e-14)


def test_tied_solves_take_one_coupling_round_where_one_settles(monkeypatch, coupling_passes):
    # a round whose classes are single states stops once rho + delta
    # repeats, and the right problem starts from the root its eigenvalue
    # solve found: from t = 16 the three fixed points of each threefix
    # settle in one round per side; at t = 4 and 8 threefix_c's coupling
    # rows agree to GAP_FLOOR and need no exact pass
    rounds = []
    coupling = spectral._coupling
    monkeypatch.setattr(spectral, "_coupling", lambda C: rounds.append(len(C)) or coupling(C))
    for name in ("threefix_a", "threefix_b", "threefix_c"):
        phi = get_potential(name)
        phi._transfer                   # the transfer's own pass is not counted
        coupling_passes.clear()
        for t in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
            rounds.clear()
            phi._transfer.solve(t).stationary
            assert len(rounds) == 2 or t < 16.0 and 2 <= len(rounds) <= 3, (name, t, rounds)
        assert not coupling_passes, name


def _aggregate_by_the_old_rule(B, frame, e, delta=0.0):
    """``spectral._aggregate`` as it ran with the old round rule: every
    round, single-state classes too, stops only once delta and the shapes
    change by at most _CW_TOL relative."""
    rho, ix, back, tight, inner, of, L, member, s, shaped = frame
    m = len(s)
    on, row, col = tight
    B0 = B[ix]
    B0[row, col] = 0.0
    D = np.zeros((m, m))
    D[row, col] = -np.expm1(e[on])
    deficits, u = D.any(), s
    for _ in range(spectral._AGG_ROUNDS):
        S = B0.copy()
        for k in range(len(B) - 1, m - 1, -1):
            piv = rho + delta - S[k, k]
            if not piv > 0.0:
                return None
            S[k, :k] /= piv
            S[:k, :k] += S[:k, k, None] * S[k, :k]
        E = S[:m, :m]
        U = member * u[:, None]
        C, shift = L @ E @ U, 0.0
        if deficits:
            d = (L @ D @ U).diagonal()
            C, shift = C + np.diag(d.max() - d), d.max()
        got = spectral._coupling(C)
        if got is None:
            return None
        new_root, c, gap = got
        new_delta = new_root - shift
        f = np.where(inner, 0.0, E) @ (c[of] * u)
        new_u = s.copy()
        for i, cut, si, li, base, eye in shaped:
            k, Eii = len(si), E[cut, cut] - D[cut, cut]
            bordered = np.zeros((k + 1, k + 1))
            bordered[:k, :k] = base + (new_delta * eye - Eii)
            bordered[:k, k], bordered[k, :k] = si, li
            rhs = np.append(f[cut] / c[i] + Eii @ si - new_delta * si, 0.0)
            new_u[cut] = si + np.linalg.solve(bordered, rhs)[:k]
        done = (abs(new_delta - delta) <= spectral._CW_TOL * new_root
                and (np.abs(new_u - u) <= spectral._CW_TOL * u).all())
        delta, u = new_delta, new_u
        if done:
            break
    else:
        return None
    x = np.concatenate([c[of] * u, np.zeros(len(B) - m)])
    for k in range(m, len(B)):
        x[k] = S[k, :k] @ x[:k]
    y = x[back]
    r = B @ y / y
    if not (y.min() > 0.0 and r.max() / r.min() - 1.0 <= spectral._CW_TOL):
        return None
    return rho + delta, y, gap * new_root / (rho + delta), delta


def test_the_round_rule_changes_no_bit(monkeypatch):
    # the warm start, the exact stop of single-state rounds and the kernel
    # formed when read give the bits of the old rule, which starts the
    # right problem from delta = 0 and stops only on _CW_TOL: solves of
    # the oracle tests, of the builtins and planted ties, and of seeded
    # potentials from t = 2 to 128, and the sweeps of the ties.  Each run
    # builds its potentials afresh, and the sweeps have potentials of their
    # own, so that no solve is read from a kept one
    from thermoshift import zt_coefficients

    def scalar_potentials():
        phis = [get_potential(name) for name in potential_names()
                if get_potential(name).m == 1]
        return phis + [tied_potential(name)[0] for name in TIED_COMPONENTS]

    sweeps = [i for i, phi in enumerate(scalar_potentials())
              if classify(phi).case == "MultiComponent"]
    rounds = []
    coupling = spectral._coupling
    monkeypatch.setattr(spectral, "_coupling", lambda C: rounds.append(1) or coupling(C))

    def run():
        rounds.clear()
        out = []
        phis, seeded = scalar_potentials(), _seeded_scalar_potentials(400, 21)
        for phi, t in [*_oracle_solves(), *((phi, 2.0 ** j) for phi in phis for j in range(-2, 8)),
                       *((phi, 2.0 ** j) for phi in seeded for j in range(1, 8))]:
            try:
                mu = equilibrium_markov(phi, t)
            except (NumericError, UnderflowError) as exc:
                out.append(repr(exc))
                continue
            out.append((mu.pressure, mu.gap, mu.log_stationary.tobytes(),
                        mu.transition.tobytes()))
        phis = scalar_potentials()
        for i in sweeps:
            z = zt_coefficients(phis[i], method="sweep")
            out.append((z.t_values, z.mass_history, z.coefficients))
        return out, len(rounds)

    new, new_rounds = run()
    tied = spectral.Transfer._tied
    monkeypatch.setattr(spectral.Transfer, "_tied", lambda self, side, B, s, right, start:
                        tied(self, side, B, s, right, start if side else 0.0))
    monkeypatch.setattr(spectral, "_aggregate", _aggregate_by_the_old_rule)
    old, old_rounds = run()
    assert len(sweeps) >= 7 and new == old
    assert new_rounds < 0.8 * old_rounds


def test_lapack_helpers_change_no_bit(monkeypatch):
    # the engine's direct LAPACK calls give the bits of np.linalg.eigvals
    # and np.linalg.solve: the scalar builtins and planted ties at t =
    # 0.25 ... 128, seeded potentials, the builtin sweeps, the trivec and
    # kinkvec face curves and interior points, and stacks whose lanes mix
    # real and complex spectra: those of k-block transfers (``_block_transfer``),
    # whose zero eigenvalues come out as complex pairs, beside the potentials'
    # own.  Each run builds its potentials afresh, so that their aggregation
    # frames and solves are solved again too, and the sweeps have potentials
    # of their own
    from test_boundary_entropy import _bits
    from thermoshift import (face_entropy_curve, localized_entropy_interior, rotation_set,
                             zt_coefficients)
    names = [name for name in potential_names() if get_potential(name).m == 1]
    stacked = [0.25, 1.0, 2.0, 40.0]
    tr = _block_transfer(get_potential("twofix"))
    spectra = [spectral._eigvals(spectral._scale(t * tr.exponents[0], *tr.ends, tr.n)[0])
               for t in stacked]
    assert not np.iscomplexobj(spectra[0]) and np.iscomplexobj(spectra[1])

    def run():
        phis = [get_potential(name) for name in names]
        phis += [tied_potential(name)[0] for name in TIED_COMPONENTS]
        out = []
        for phi, t in [*((phi, 2.0 ** j) for phi in phis for j in range(-2, 8)),
                       *((phi, t) for phi in _seeded_scalar_potentials(300, 29)
                         for t in (0.5, 4.0, 32.0))]:
            try:
                mu = equilibrium_markov(phi, t)
            except (NumericError, UnderflowError) as exc:
                out.append(repr(exc))
                continue
            out.append((mu.pressure, mu.gap, mu.stationary.tobytes(),
                        mu.log_stationary.tobytes(), mu.transition.tobytes()))
        for phi in map(get_potential, names):    # sweeps that solve again
            if classify(phi).case == "MultiComponent":
                z = zt_coefficients(phi, method="sweep")
                out.append((z.t_values, z.mass_history, z.coefficients, z.flags))
        for name in ("trivec", "kinkvec"):
            Phi = get_potential(name)
            poly = rotation_set(Phi)
            out += [_bits(face_entropy_curve(Phi, f.normal, poly=poly)) for f in poly.facets]
            w = tuple(sum(x) / len(x) for x in zip(*poly.vertices))
            h, v, mu = localized_entropy_interior(Phi, w, poly=poly)
            out.append((h, v, mu.stationary.tobytes(), mu.transition.tobytes()))
        for name in ("twofix", "threefix_a", "gold1"):
            for tr in (get_potential(name)._transfer, _block_transfer(get_potential(name))):
                stack = spectral.perron_stack([tr] * 4, stacked)
                out.append(tuple(x.tobytes() for x in stack))
        return out

    new = run()
    monkeypatch.setattr(spectral, "_eigvals", np.linalg.eigvals)
    monkeypatch.setattr(spectral, "_solve", np.linalg.solve)
    monkeypatch.setattr(spectral, "_solve1", np.linalg.solve)
    assert new == run()


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])


@pytest.mark.parametrize("a, b", [(SINGULAR, np.ones(2)), (SINGULAR, np.ones((2, 1))),
                                  (np.stack([np.eye(2), SINGULAR]), np.ones((2, 2, 1)))])
def test_lapack_solves_raise_numpys_error(a, b):
    # a singular solve, with a vector, a column or a stack with one
    # singular lane, raises numpy's LinAlgError with its message, and no
    # RuntimeWarning escapes
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.solve(a, b)
    helper = spectral._solve1 if b.ndim == 1 else spectral._solve
    with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError) as got:
        warnings.simplefilter("error")
        helper(a, b)
    assert str(got.value) == str(want.value) == "Singular matrix"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lapack_eigenvalues_refuse_what_numpy_refuses(bad):
    a = np.eye(3)
    a[1, 2] = bad
    for x in (a, np.stack([np.eye(3), a])):
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.eigvals(x)
        with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError) as got:
            warnings.simplefilter("error")
            spectral._eigvals(x)
        assert str(got.value) == str(want.value)


def test_numpy_keeps_the_lapack_gufuncs_the_engine_calls():
    # the engine calls these private gufuncs of numpy.linalg by name and
    # signature: a numpy release that moves them fails here, not in a solve
    from numpy.linalg import _umath_linalg
    for name, shape, types in (("eigvals", "(m,m)->(m)", "d->D"),
                               ("solve", "(m,m),(m,n)->(m,n)", "dd->d"),
                               ("solve1", "(m,m),(m)->(m)", "dd->d")):
        gufunc = getattr(_umath_linalg, name)
        assert isinstance(gufunc, np.ufunc)
        assert gufunc.signature == shape and types in gufunc.types
    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    assert np.array_equal(spectral._eigvals(a), np.linalg.eigvals(a))
    assert np.array_equal(spectral._solve(a, a), np.linalg.solve(a, a))
    assert np.array_equal(spectral._solve1(a, a[0]), np.linalg.solve(a, a[0]))


@pytest.mark.parametrize("t", [4.0, 16.0, 64.0])
def test_symmetric_tie_keeps_its_symmetry(t):
    # threefix_b: the symmetric group permutes the three fixed points,
    # so their masses agree, and the pressure matches a dense eigensolve
    phi, values = tied_potential("threefix_b")
    mu = equilibrium_markov(phi, t)
    assert mu.precision == "double"
    masses = [mu.mass((s, s)) for s in range(3)]
    assert max(masses) - min(masses) <= 1e-12 * max(masses)
    want = numpy_pressure(phi.sft.transition, values, phi.k, t)
    assert mu.pressure == pytest.approx(want, rel=1e-12)


def test_sweeps_never_load_mpmath():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import thermoshift as ts\n"
            "for name in ('twofix', 'twofix_skew', 'threefix_a', 'threefix_b',"
            " 'threefix_c'):\n"
            "    ts.zt_coefficients(ts.get_potential(name), method='sweep')\n"
            "ts.equilibrium_markov(ts.get_potential('twofix'), 40.0)\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'")
    subprocess.run([sys.executable, "-c", code, str(src)], check=True)


def test_markov_entropy_matches_the_double_sum(rng):
    for _ in range(20):
        n = rng.randint(1, 12)
        P = np.array([[rng.random() if rng.random() < 0.6 else 0.0
                       for _ in range(n)] for _ in range(n)])
        P[np.arange(n), np.arange(n)] += 0.1
        P /= P.sum(axis=1, keepdims=True)
        p = np.array([rng.random() for _ in range(n)])
        p /= p.sum()
        want = -sum(p[i] * P[i, j] * math.log(P[i, j])
                    for i in range(n) for j in range(n) if P[i, j] > 0)
        assert math.isclose(markov_entropy(p, P), want, rel_tol=1e-15, abs_tol=1e-15)


def test_import_leaves_mpmath_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import thermoshift; "
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'")
    subprocess.run([sys.executable, "-c", code, str(src)], check=True)
