import math
import random
from fractions import Fraction

import numpy as np
import pytest

import thermoshift.boundary_entropy as boundary_entropy
import thermoshift.core_sft as core_sft
import thermoshift.max_face as max_face
import thermoshift.thermodynamics as thermodynamics
from oracles import (LOG_GOLDEN, dual_grid_entropy, numpy_pressure,
                     random_rational_values, random_transitive_sft)
from thermoshift import (DegenerateFaceError, InvalidArgumentError,
                         OutOfDomainError, PotentialLC, Sft,
                         UnsupportedDimensionError, differentiability_scan,
                         equilibrium_markov, face_entropy_curve, face_subshift,
                         get_potential, get_shift, localized_entropy_interior,
                         recode_to_one_step, rotation_set)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def test_two_strip_face_curve():
    curve = face_entropy_curve(get_potential("trivec"), (0, -1), n_samples=101)
    assert curve.e0 == (Fraction(0), Fraction(0))
    assert curve.e1 == (Fraction(1), Fraction(0))
    assert len(curve.component_labels) == 2
    # flat stretch at log 2 between the two component peaks
    for s in (0.26, 0.4, 0.5, 0.6, 0.74):
        assert abs(curve.envelope(s) - LOG2) <= 1e-3
    # strictly below log 2 near the ends, golden entropy at the left edge
    assert curve.envelope(0.05) < LOG2 - 1e-3
    assert curve.envelope(0.95) < LOG2 - 1e-3
    assert curve.envelope(0.0) == pytest.approx(LOG_GOLDEN, abs=1e-6)
    assert curve.envelope(1.0) == pytest.approx(LOG_GOLDEN, abs=1e-6)
    rep = differentiability_scan(curve)
    assert rep.smooth


def test_hub_and_spoke_kink_curve():
    # three components pinned at (0, log 2), (1/2, log 3), (1, 0): the
    # envelope is two exact segments with a corner at the middle point
    curve = face_entropy_curve(get_potential("kinkvec"), (0, -1))
    assert [p.kind for p in curve.hull] == ["point", "point", "point"]
    for s in (0.1, 0.25, 0.4):
        want = LOG2 + 2 * s * (LOG3 - LOG2)
        assert curve.envelope(s) == pytest.approx(want, abs=1e-6)
    for s in (0.6, 0.75, 0.9):
        want = 2 * (1 - s) * LOG3
        assert curve.envelope(s) == pytest.approx(want, abs=1e-6)
    rep = differentiability_scan(curve)
    assert len(rep.kinks) == 1
    s_kink, jump = rep.kinks[0]
    assert s_kink == pytest.approx(0.5, abs=1e-9)
    assert jump == pytest.approx(2 * (LOG3 - LOG2) + 2 * LOG3, abs=1e-9)


def _edge_face_potential():
    vals = {(0, 0): (0, 0), (0, 1): (1, -2), (1, 0): (0, 0), (1, 1): (1, 1)}
    return PotentialLC.from_block_values(Sft.full(2), 2, vals, m=2)


def test_single_component_face_curve():
    curve = face_entropy_curve(_edge_face_potential(), (-2, -1))
    assert curve.endpoint_values() == pytest.approx((0.0, 0.0), abs=1e-12)
    assert len(curve.component_labels) == 1
    # peak is the golden entropy, attained at the Parry rotation vector
    top = max(p.h for p in curve.hull)
    assert top <= LOG_GOLDEN + 1e-9
    s_star = 2.0 / (math.sqrt(5.0) * (1 + math.sqrt(5.0)) / 2.0)
    assert curve.envelope(s_star) == pytest.approx(LOG_GOLDEN, abs=5e-4)
    assert differentiability_scan(curve).smooth


def _tilted_equilibrium(Phi, curve, point):
    """(s, h) of the equilibrium state of v * psi on the point's face
    component, rebuilt as a PotentialLC and solved by equilibrium_markov."""
    comp = face_subshift(Phi, curve.direction).components[point.comp]
    tt = sum(t * t for t in curve.tangent)
    psi = [float(sum((x - a) * t for x, a, t in zip(Phi.value(b), curve.e0, curve.tangent)) / tt)
           for b in comp.blocks]
    th_max = math.atan(curve.vmax)
    v = math.tan(-th_max + 2.0 * th_max * point.idx / (curve.n_samples - 1))
    sub = Sft(comp.matrix, comp.labels())
    pot = PotentialLC(sub, 1, 1, {(j,): (v * x,) for j, x in enumerate(psi)}, "float")
    mu = equilibrium_markov(pot, t=1.0)
    return sum(float(p) * x for p, x in zip(mu.stationary, psi)), mu.entropy


@pytest.mark.parametrize("Phi, alpha", [
    (get_potential("trivec"), (0, -1)),
    (get_potential("trivec"), (2, 1)),
    (_edge_face_potential(), (-2, -1)),
])
def test_face_curve_samples_are_equilibrium_states(Phi, alpha):
    curve = face_entropy_curve(Phi, alpha)
    samples = [p for p in curve.points if p.kind == "sample"]
    assert samples
    for p in samples:
        s, h = _tilted_equilibrium(Phi, curve, p)
        assert abs(p.s - s) <= 1e-12 * max(1.0, abs(s))
        assert abs(p.h - h) <= 1e-12 * max(1.0, abs(h))


def test_face_curve_karp_runs_do_not_grow_with_samples(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return karp(*args)

    karp = max_face.karp_max_mean
    monkeypatch.setattr(max_face, "karp_max_mean", counting)
    monkeypatch.setattr(thermodynamics, "karp_max_mean", counting)
    Phi = get_potential("trivec")
    counts = []
    for n_samples in (9, 201):
        calls.clear()
        face_entropy_curve(Phi, (0, -1), n_samples=n_samples)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_face_curve_stacks_do_not_grow_with_samples(monkeypatch):
    # one stacked Perron solve per non-constant component, whatever the grid
    calls = []

    def counting(*args):
        calls.append(1)
        return stack(*args)

    stack = boundary_entropy.perron_stack
    monkeypatch.setattr(boundary_entropy, "perron_stack", counting)
    for Phi, alpha in ((get_potential("trivec"), (0, -1)),
                       (get_potential("trivec"), (2, 1)),
                       (get_potential("kinkvec"), (0, -1))):
        for n_samples in (9, 201):
            calls.clear()
            curve = face_entropy_curve(Phi, alpha, n_samples=n_samples)
            arcs = {p.comp for p in curve.points if p.kind == "sample"}
            assert len(calls) == len(arcs)


def _planar_facet_curves(count, seed):
    """Face curves on every edge of the rotation polygons of seeded m = 2
    potentials."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        Phi = PotentialLC.from_block_values(
            sft, k, random_rational_values(rng, sft, k, m=2), m=2)
        poly = rotation_set(Phi)
        if poly.affine_dim != 2:
            continue
        made += 1
        for f in poly.facets:
            face_entropy_curve(Phi, f.normal, poly=poly)


def test_stacked_lanes_match_single_solves(monkeypatch):
    # every lane of every stacked solve a face curve makes agrees entry by
    # entry with perron on that lane's weights alone.  The inputs include
    # lanes with tied critical classes, which stay in the stack unless
    # their gap collapses (then they leave for aggregation), and lanes
    # whose slow modes are deflated inside the stack
    stacks, alone, deflated = [], [], []

    def recording(n, edges, weights):
        got = stack(n, edges, weights)
        stacks.append((n, edges, np.array(weights), got))
        return got

    def leaving(n, edges, weights, t=1.0):
        alone.append((n, edges, list(weights)))
        core_sft._deflate = deflate     # deflations of single solves do not count
        try:
            return perron(n, edges, weights, t)
        finally:
            core_sft._deflate = counting_deflate

    def counting_deflate(*args):
        deflated.append(1)
        return deflate(*args)

    stack, perron, deflate = core_sft.perron_stack, core_sft.perron, core_sft._deflate
    monkeypatch.setattr(boundary_entropy, "perron_stack", recording)
    monkeypatch.setattr(core_sft, "perron", leaving)
    monkeypatch.setattr(core_sft, "_deflate", counting_deflate)
    face_entropy_curve(get_potential("trivec"), (0, -1))
    face_entropy_curve(get_potential("kinkvec"), (0, -1))
    face_entropy_curve(_edge_face_potential(), (-2, -1))
    _planar_facet_curves(20, seed=9)
    # twofix's tied fixed points decouple as t grows: aggregation, alone
    Phi = get_potential("twofix")
    recoded = recode_to_one_step(Phi.sft, Phi.k)
    vals = [x for (x,) in Phi.state_values()]
    beta = max_face.karp_max_mean(recoded.n, recoded.edges(), vals)
    recording(recoded.n, recoded.edges(),
              [[t * float(x - beta) for x in vals] for t in (1, 4, 16, 40)])
    monkeypatch.undo()

    lanes = 0
    for n, edges, weights, (log_lam, P, p) in stacks:
        for row, a, A, x in zip(weights, log_lam, P, p):
            sol = perron(n, edges, row)
            assert abs(a - sol.log_lam) <= 1e-13 * abs(sol.log_lam)
            assert np.all(np.abs(A - sol.transition) <= 1e-13 * sol.transition)
            assert np.all(np.abs(x - sol.stationary) <= 1e-13 * sol.stationary)
            lanes += 1
    assert lanes > 10000

    def tied(n, edges, row):
        W = np.full((n, n), -np.inf)
        for a, b in edges:
            W[a, b] = row[a]
        return len(core_sft._maxplus_potentials(W)[1]) > 1

    assert any(tied(*lane) for lane in alone)
    assert sum(tied(n, edges, row) for n, edges, weights, _ in stacks
               for row in weights) > len(alone)
    assert deflated


def test_affine_face_of_two_fixed_points():
    vals = {(0, 0): (0, 0), (1, 1): (1, 0),
            (0, 1): (Fraction(1, 2), 1), (1, 0): (Fraction(1, 2), 1)}
    Phi = PotentialLC.from_block_values(Sft.full(2), 2, vals, m=2)
    curve = face_entropy_curve(Phi, (0, -1))
    assert curve.endpoint_values() == (0.0, 0.0)
    assert curve.envelope(0.37) == pytest.approx(0.0, abs=1e-12)
    assert differentiability_scan(curve).smooth


def test_face_curve_validation():
    with pytest.raises(DegenerateFaceError):
        face_entropy_curve(get_potential("trivec"), (1, 1))
    with pytest.raises(InvalidArgumentError):
        face_entropy_curve(get_potential("trivec"), (0, -1), n_samples=5)
    with pytest.raises(UnsupportedDimensionError):
        face_entropy_curve(get_potential("fix0"), (0, -1))


def test_interior_entropy_at_the_parry_vector():
    tri = get_shift("tri6")
    Phi = get_potential("trivec")
    blocks = recode_to_one_step(tri, 2).states
    zero2 = PotentialLC.from_block_values(tri, 2, {b: 0 for b in blocks})
    mu = equilibrium_markov(zero2, t=1.0)
    w = mu.rotation_vector(Phi)
    h, v, nu = localized_entropy_interior(Phi, w)
    assert h == pytest.approx(mu.entropy, abs=1e-6)
    assert max(abs(v[0]), abs(v[1])) < 1e-4


def test_interior_entropy_matches_grid_duality():
    Phi = get_potential("trivec")
    w = (0.5, 0.5)
    h, v, nu = localized_entropy_interior(Phi, w)
    want = dual_grid_entropy(get_shift("tri6").transition, Phi.values, 2, w)
    assert h == pytest.approx(want, abs=1e-3)
    assert nu.rotation_vector(Phi) == pytest.approx(w, abs=1e-6)


def _segment_potential():
    return PotentialLC.from_block_values(
        Sft.full(2), 1, {(0,): (0, 0), (1,): (1, 2)}, m=2)


def test_interior_entropy_on_a_segment():
    phi = _segment_potential()
    h, v, nu = localized_entropy_interior(phi, (Fraction(1, 3), Fraction(2, 3)))
    want = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    assert h == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("Phi, w", [
    (get_potential("trivec"), (Fraction(1, 2), Fraction(1, 3))),
    (get_potential("trivec"), (Fraction(1, 4), Fraction(1, 10))),
    (get_potential("kinkvec"), (Fraction(1, 2), Fraction(1, 2))),
    (_segment_potential(), (Fraction(1, 3), Fraction(2, 3))),
])
def test_interior_certificate(Phi, w):
    # the measure has rotation vector w, and h = P(v . Phi) - v . w with
    # the pressure from an independent dense eigensolve
    h, v, mu = localized_entropy_interior(Phi, w)
    assert all(abs(r - float(x)) <= 1e-8 for r, x in zip(mu.rotation_vector(Phi), w))
    tilted = {b: sum(a * float(x) for a, x in zip(v, vec)) for b, vec in Phi.values.items()}
    P = numpy_pressure(Phi.sft.transition, tilted, Phi.k, 1.0)
    assert h == pytest.approx(P - sum(a * float(x) for a, x in zip(v, w)), abs=1e-9)


@pytest.mark.parametrize("name, w, solves", [
    ("trivec", (Fraction(1, 4), Fraction(1, 10)), 45),
    ("trivec", (Fraction(1, 2), Fraction(1, 3)), 26),
    ("kinkvec", (Fraction(1, 2), Fraction(1, 2)), 21),
])
def test_interior_solves_each_point_once(monkeypatch, name, w, solves):
    # the point a damped step accepts is the next Newton iterate, and its
    # equilibrium state is reused rather than solved again
    points = []

    def counting(Phi, w, v):
        points.append(v)
        return dual(Phi, w, v)

    dual = boundary_entropy._dual_value_grad
    monkeypatch.setattr(boundary_entropy, "_dual_value_grad", counting)
    localized_entropy_interior(get_potential(name), w)
    assert len(set(points)) == len(points) == solves


def test_interior_entropy_domain_errors():
    Phi = get_potential("trivec")
    with pytest.raises(OutOfDomainError):
        localized_entropy_interior(Phi, (Fraction(0), Fraction(0)))
    with pytest.raises(OutOfDomainError):
        localized_entropy_interior(Phi, (2.0, 0.0))
