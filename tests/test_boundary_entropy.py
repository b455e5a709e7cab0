import math
import random
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np
import pytest

import thermoshift.boundary_entropy as boundary_entropy
import thermoshift.spectral as spectral
from oracles import (LOG_GOLDEN, critical_edges, dual_grid_entropy, edge_classes,
                     fraction_face_curve, karp_max_mean, numpy_pressure,
                     random_rational_values, random_transitive_sft, tied_potential)
from thermoshift import (DegenerateFaceError, InvalidArgumentError,
                         OutOfDomainError, PotentialLC, Sft,
                         UnsupportedDimensionError, differentiability_scan,
                         equilibrium_markov, face_entropy_curve, face_subshift,
                         get_potential, get_shift, localized_entropy_interior,
                         potential_names, recode_to_one_step, rotation_set, scalarize)
from thermoshift.boundary_entropy import CurvePoint, FaceCurve
from thermoshift.core_sft import TIGHT_TOL

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


def test_face_curve_max_plus_passes_do_not_grow_with_samples(max_plus_passes):
    Phi = get_potential("trivec")
    # the potential keeps its polytope: build it before counting, or the
    # first curve's count would also pay for it
    rotation_set(Phi)
    counts = []
    for n_samples in (9, 201):
        max_plus_passes.clear()
        face_entropy_curve(Phi, (0, -1), n_samples=n_samples)
        counts.append(len(max_plus_passes))
    assert counts[0] == counts[1] > 0


def test_face_curve_anchors_run_one_pass_each(monkeypatch, howard_runs):
    # each anchor potential of a sampled component runs one Howard pass on
    # the component, which finds its anchor and scales its transfer; the
    # other passes run on graphs of its critical classes
    sampled = []
    curve_of = boundary_entropy._component_curve

    def recording(comp, *args):
        howard_runs.clear()
        pts = curve_of(comp, *args)
        if any(p.kind == "sample" for p in pts):
            sampled.append((len(comp.state_ids), [len(succ) for succ, _ in howard_runs]))
        return pts

    monkeypatch.setattr(boundary_entropy, "_component_curve", recording)
    for name in ("trivec", "kinkvec"):
        Phi = get_potential(name)
        poly = rotation_set(Phi)
        for alpha in [f.normal for f in poly.facets] + [(1, 0), (0, 1), (-1, 0), (0, -1)]:
            try:
                face_entropy_curve(Phi, alpha, n_samples=21, poly=poly)
            except DegenerateFaceError:
                continue
    assert len(sampled) >= 4
    for n, runs in sampled:
        assert runs.count(n) == 2 and all(x < n for x in runs if x != n)


def test_face_curve_stacks_do_not_grow_with_samples(monkeypatch):
    # one stacked Perron solve per non-constant component, whatever the grid
    calls = []

    def counting(*args):
        calls.append(1)
        return stack(*args)

    stack = spectral.perron_stack
    monkeypatch.setattr(spectral, "perron_stack", counting)
    for Phi, alpha in ((get_potential("trivec"), (0, -1)),
                       (get_potential("trivec"), (2, 1)),
                       (get_potential("kinkvec"), (0, -1))):
        for n_samples in (9, 201):
            calls.clear()
            curve = face_entropy_curve(Phi, alpha, n_samples=n_samples)
            arcs = {p.comp for p in curve.points if p.kind == "sample"}
            assert len(calls) == len(arcs)


def test_live_lanes_do_not_depend_on_a_lane_out(monkeypatch):
    # _start builds the bordered matrices from B itself when every lane
    # is live and gathers the live lanes when one is out (the tied fixed
    # points at t = 40 close its gap): either way the live lanes come out
    # bit for bit as in the all-live stack and as their own single solves
    masks = []
    start = spectral._start

    def recording(B, lam, ok):
        masks.append(np.array(ok))
        return start(B, lam, ok)

    monkeypatch.setattr(spectral, "_start", recording)
    for name in ("twofix", "threefix_a"):
        tr = get_potential(name)._transfer
        masks.clear()
        out = spectral.perron_stack([tr] * 4, [0.5, 3.0, 40.0, 1.0])
        assert any(m.any() and not m.all() for m in masks)
        masks.clear()
        live = spectral.perron_stack([tr] * 3, [0.5, 3.0, 1.0])
        assert masks and all(m.all() for m in masks)
        for got, want in zip(out, live):
            assert np.array_equal(got[[0, 1, 3]], want)
        for i, t in ((0, 0.5), (1, 3.0), (3, 1.0)):
            sol = tr.solve(t)
            assert out[0][i] == sol.log_lam
            assert np.array_equal(out[1][i], sol.transition)
            assert np.array_equal(out[2][i], sol.stationary)


def test_facet_curves_end_on_exact_points():
    # a sample whose s rounds onto or past its component's anchor is left
    # out, so the hull of every facet curve starts and ends on an exact
    # anchor or point (trivec's bottom face ended on a sample at s one ulp
    # past its anchor at 1)
    for name in ("trivec", "kinkvec"):
        Phi = get_potential(name)
        poly = rotation_set(Phi)
        for f in poly.facets:
            curve = face_entropy_curve(Phi, f.normal, poly=poly)
            assert {curve.hull[0].kind, curve.hull[-1].kind} <= {"anchor", "point"}
            anchors = {}
            for p in curve.points:
                if p.kind == "anchor":
                    anchors.setdefault(p.comp, []).append(p.s)
            for p in curve.points:
                if p.kind == "sample":
                    assert min(anchors[p.comp]) < p.s < max(anchors[p.comp])


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


def _seeded_planar_potentials(count, seed):
    """count exact m = 2 potentials whose rotation sets are polygons, on
    full and random transitive shifts with k = 1 or 2: small-integer or
    rational values, half of them with one vector planted on many blocks."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sft = random_transitive_sft(rng) if rng.random() < 0.5 else Sft.full(rng.choice((2, 3)))
        k = rng.choice((1, 2))
        blocks = recode_to_one_step(sft, k).states
        if rng.random() < 0.5:
            vals = {b: (Fraction(rng.randint(0, 2)), Fraction(rng.randint(0, 2))) for b in blocks}
        else:
            vals = random_rational_values(rng, sft, k, m=2)
        if rng.random() < 0.5:
            tie = vals[rng.choice(blocks)]
            vals.update(dict.fromkeys(rng.sample(blocks, rng.randint(1, len(blocks))), tie))
        Phi = PotentialLC.from_block_values(sft, k, vals, m=2)
        if rotation_set(Phi).affine_dim == 2:
            out.append(Phi)
    return out


def _three_cycle_faces(count, seed):
    """count potentials on the shift 0 -> 1 -> 2 -> 0, 0 <-> 3, 3 -> 3
    whose bottom edge (normal (0, -1)) is the face of the 3-cycle and the
    fixed point 3, each a cycle component; x values are random rationals."""
    rng = random.Random(seed)
    sft = Sft.from_matrix([[0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1]])
    y = (Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 4), Fraction(0))
    return [PotentialLC.from_block_values(
        sft, 1, {(i,): (Fraction(rng.randint(-999, 999), rng.choice((7, 11, 13))), y[i])
                 for i in range(4)}, m=2) for _ in range(count)]


def _as_float(Phi, rng):
    """Phi in float mode, each value moved off the 1e-9 grid half the time."""
    return PotentialLC.from_block_values(
        Phi.sft, Phi.k, {b: tuple(float(x) + rng.choice((0.0, rng.uniform(-1e-10, 1e-10)))
                                  for x in v) for b, v in Phi.values.items()},
        m=2, mode="float")


def _bits(curve):
    def num(x):
        return float.hex(x) if isinstance(x, float) else x

    def pts(points):
        return [(num(p.s), num(p.h), p.comp, p.kind, p.idx) for p in points]
    return (curve.direction, curve.e0, curve.e1, curve.tangent, num(curve.beta),
            curve.component_labels, pts(curve.points), pts(curve.hull), curve.n_samples,
            curve.vmax)


def test_face_curves_match_the_per_component_oracle():
    # every point and the hull bit for bit, and the face itself, against
    # the path that sent each component through its own sub-shift on
    # Fraction geometry: the planar builtins, 110 seeded potentials and 30
    # whose faces hold a 3-cycle (whose float mean a plain float sum can
    # round otherwise), each in exact and in float mode
    rng = random.Random(19)
    exact = [get_potential(n) for n in potential_names() if get_potential(n).m == 2]
    exact += _seeded_planar_potentials(110, 1919) + _three_cycle_faces(30, 1919)
    kinds = {}
    for Phi in exact + [_as_float(Phi, rng) for Phi in exact]:
        poly = rotation_set(Phi)
        for f in poly.facets:
            face, want = face_subshift(Phi, f.normal), face_subshift(scalarize(Phi, f.normal))
            assert (face.beta, face.tight_edges, face.is_whole_shift, face.mode) == (
                want.beta, want.tight_edges, want.is_whole_shift, want.mode)
            assert [(c.state_ids, c.matrix) for c in face.components] == [
                (c.state_ids, c.matrix) for c in want.components]
            curve = face_entropy_curve(Phi, f.normal, n_samples=21, poly=poly)
            assert _bits(curve) == _bits(fraction_face_curve(Phi, f.normal, 21, poly=poly))
            for p in curve.points:
                key = face.components[p.comp].is_cycle, p.kind
                kinds[key] = kinds.get(key, 0) + 1
    # cycles, tangentially constant components and sampled arcs all occur
    assert kinds[True, "point"] > 100 and kinds[False, "point"] and kinds[False, "anchor"]


def _seeded_potentials(count, seed, m):
    """count exact potentials in dimension m with values in {-2..2}^m, on
    full and random transitive shifts with k = 1 or 2, whose rotation sets
    are not a point."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sft = random_transitive_sft(rng) if rng.random() < 0.5 else Sft.full(rng.choice((2, 3)))
        k = rng.choice((1, 2))
        vals = {b: tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
                for b in recode_to_one_step(sft, k).states}
        Phi = PotentialLC.from_block_values(sft, k, vals, m=m)
        if rotation_set(Phi).affine_dim:
            out.append(Phi)
    return out


def test_edge_curves_in_three_dimensions_match_their_planar_image():
    # an edge of a 3-d rotation set, exposed by the sum of the normals of
    # the two facets through it, against its image under w -> (alpha . w,
    # T . w) for its tangent T: the same face, the same tangential
    # coordinates, so every point and the hull agree bit for bit.  A facet
    # normal exposes a 2-face
    def bits(points):
        return [(p.s.hex(), p.h.hex(), p.comp, p.kind, p.idx) for p in points]

    edges = 0
    for Phi in _seeded_potentials(100, 2626, 3):
        poly = rotation_set(Phi)
        if poly.affine_dim != 3:
            continue
        with pytest.raises(InvalidArgumentError, match="non-segment"):
            face_entropy_curve(Phi, poly.facets[0].normal, poly=poly)
        for f, g in combinations(poly.facets, 2):
            if len(set(f.vertex_ids) & set(g.vertex_ids)) < 2:
                continue
            alpha = tuple(a + b for a, b in zip(f.normal, g.normal))
            curve = face_entropy_curve(Phi, alpha, n_samples=21, poly=poly)
            image = PotentialLC.from_block_values(Phi.sft, Phi.k, {
                b: tuple(sum(a * x for a, x in zip(d, v)) for d in (alpha, curve.tangent))
                for b, v in Phi.values.items()}, m=2)
            want = face_entropy_curve(image, (1, 0), n_samples=21)
            assert bits(curve.points) == bits(want.points)
            assert bits(curve.hull) == bits(want.hull)
            edges += 1
    assert edges >= 300


def test_cycle_face_curve_runs_only_the_face_pass(max_plus_passes, scc_splits):
    # fixed points at the corners of a triangle and every other 2-block
    # inside it: each edge of the triangle is the face of two fixed points,
    # which take their exact means with no pass or split of their own
    corners = {0: (0, 0), 1: (1, 0), 2: (0, 1)}
    Phi = PotentialLC.from_block_values(
        Sft.full(3), 2, {(a, b): corners[a] if a == b else (Fraction(1, 4), Fraction(1, 4))
                         for a in range(3) for b in range(3)}, m=2)
    poly = rotation_set(Phi)
    assert len(poly.facets) == 3
    Phi._recoded._split
    for f in poly.facets:
        max_plus_passes.clear()
        scc_splits.clear()
        curve = face_entropy_curve(Phi, f.normal, poly=poly)
        assert len(max_plus_passes) == 1 and len(scc_splits) == 1
        assert [(p.s, p.h, p.kind) for p in curve.hull] == [(0.0, 0.0, "point"),
                                                            (1.0, 0.0, "point")]


def test_stacked_lanes_match_single_solves(monkeypatch):
    # every lane of every stacked solve a face curve makes agrees entry by
    # entry with perron on that lane's weights and t alone.  The inputs include
    # lanes with tied critical classes, which stay in the stack unless
    # their gap collapses (then they leave for aggregation), and lanes
    # whose slow modes are deflated inside the stack
    stacks, alone, deflated = [], [], []

    def recording(transfers, t):
        # a transfer solved while the stack runs is a lane that left it
        spectral.Transfer.solve = leaving
        try:
            got = stack(transfers, t)
        finally:
            spectral.Transfer.solve = solve
        stacks.append((transfers, t, got))
        return got

    def leaving(self, t=1.0):
        alone.append((self.n, self.edges, list(self.weights)))
        spectral._deflate = deflate     # deflations of single solves do not count
        try:
            return solve(self, t)
        finally:
            spectral._deflate = counting_deflate

    def counting_deflate(*args):
        deflated.append(1)
        return deflate(*args)

    stack, perron, deflate = spectral.perron_stack, spectral.perron, spectral._deflate
    solve = spectral.Transfer.solve
    monkeypatch.setattr(spectral, "perron_stack", recording)
    monkeypatch.setattr(spectral, "_deflate", counting_deflate)
    face_entropy_curve(get_potential("trivec"), (0, -1))
    face_entropy_curve(get_potential("kinkvec"), (0, -1))
    face_entropy_curve(_edge_face_potential(), (-2, -1))
    _planar_facet_curves(20, seed=9)
    # twofix's tied fixed points decouple as t grows: aggregation, alone
    recording([get_potential("twofix")._transfer] * 4, [1.0, 4.0, 16.0, 40.0])
    # two golden means at t = 2 and 4: slow modes deflated in the stack
    recording([tied_potential("two golden means")[0]._transfer] * 2, [2.0, 4.0])
    monkeypatch.undo()

    lanes = 0
    for transfers, t, (log_lam, P, p) in stacks:
        for tr, ti, a, A, x in zip(transfers, t, log_lam, P, p):
            sol = perron(tr.n, tr.edges, tr.weights, ti)
            assert abs(a - sol.log_lam) <= 1e-13 * abs(sol.log_lam)
            assert np.all(np.abs(A - sol.transition) <= 1e-13 * sol.transition)
            assert np.all(np.abs(x - sol.stationary) <= 1e-13 * sol.stationary)
            lanes += 1
    assert lanes > 10000

    def tied(n, edges, row):
        # critical classes to the engine's tolerance for float weights, of
        # edges that weigh row[i]: the oracles weigh each edge by its source,
        # so they run on the line graph, whose states are the edges
        line = [(i, j) for i, (_, b) in enumerate(edges) for j, (a, _) in enumerate(edges)
                if a == b]
        crit = critical_edges(len(edges), line, row, karp_max_mean(len(edges), line, row),
                              TIGHT_TOL * (1 + max(map(abs, row))))
        return len(edge_classes(crit)) > 1

    assert any(tied(*lane) for lane in alone)
    tied_lanes = (1 for transfers, t, _ in stacks for tr, ti in zip(transfers, t)
                  if tied(tr.n, tr.edges, [ti * float(x) for x in tr.weights]))
    assert sum(islice(tied_lanes, len(alone) + 1)) > len(alone)
    assert deflated


def test_affine_face_of_two_fixed_points():
    vals = {(0, 0): (0, 0), (1, 1): (1, 0),
            (0, 1): (Fraction(1, 2), 1), (1, 0): (Fraction(1, 2), 1)}
    Phi = PotentialLC.from_block_values(Sft.full(2), 2, vals, m=2)
    curve = face_entropy_curve(Phi, (0, -1))
    assert curve.endpoint_values() == (0.0, 0.0)
    assert curve.envelope(0.37) == pytest.approx(0.0, abs=1e-12)
    assert differentiability_scan(curve).smooth


def _hull_curve(hull):
    return FaceCurve((0, -1), (0, 0), (1, 0), (1, 0), 0, [], hull, hull, 9, 50.0)


def test_envelope_matches_np_interp_bit_for_bit():
    # seeded hulls of 1 to 40 points (heights with zeros among them) and
    # the hulls of builtin curves, at their own abscissae, at points
    # between, and outside [s0, s1]
    rng = random.Random(41)
    curves = [face_entropy_curve(get_potential("trivec"), a) for a in ((0, -1), (2, 1))]
    for n in [1] * 5 + [rng.randint(2, 40) for _ in range(60)]:
        xs = sorted({rng.uniform(-1.0, 2.0) for _ in range(n)})
        hull = [CurvePoint(x, rng.choice((0.0, rng.random())), 0, "sample", i)
                for i, x in enumerate(xs)]
        curves.append(_hull_curve(hull))
    checked = 0
    for curve in curves:
        xs = [p.s for p in curve.hull]
        hs = [p.h for p in curve.hull]
        span = xs[-1] - xs[0] + 1.0
        queries = xs + [xs[0] - span, xs[0] - 1e-300, xs[-1] + 1e-9, xs[-1] + span]
        queries += [rng.uniform(xs[0], xs[-1]) for _ in range(50)]
        for s in queries:
            assert curve.envelope(s).hex() == float(np.interp(s, xs, hs)).hex(), (xs, s)
            checked += 1
    assert checked > 4000


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


def _tetrahedron_potential():
    """m = 3 on full3 with k = 2: the fixed points 0, 1, 2 at the origin, e1
    and e2, the 2-cycle 01 at e3 and the other blocks at the origin, so
    that the rotation set is the simplex of 0, e1, e2 and e3."""
    corners = {(1, 1): (1, 0, 0), (2, 2): (0, 1, 0), (0, 1): (0, 0, 1), (1, 0): (0, 0, 1)}
    return PotentialLC.from_block_values(
        Sft.full(3), 2, {b: corners.get(b, (0, 0, 0)) for b in product(range(3), repeat=2)},
        m=3)


@pytest.mark.parametrize("Phi, w", [
    (get_potential("trivec"), (Fraction(1, 2), Fraction(1, 3))),
    (get_potential("trivec"), (Fraction(1, 4), Fraction(1, 10))),
    (get_potential("kinkvec"), (Fraction(1, 2), Fraction(1, 2))),
    (_segment_potential(), (Fraction(1, 3), Fraction(2, 3))),
    (get_potential("gold0"), (Fraction(1, 2),)),
    (get_potential("hubmax"), (Fraction(3, 2),)),
    (_tetrahedron_potential(), (Fraction(1, 4), Fraction(1, 5), Fraction(1, 6))),
])
def test_interior_certificate(Phi, w):
    # the measure has rotation vector w, and h = P(v . Phi) - v . w with
    # the pressure from an independent dense eigensolve
    h, v, mu = localized_entropy_interior(Phi, w)
    assert all(abs(r - float(x)) <= 1e-8 for r, x in zip(mu.rotation_vector(Phi), w))
    tilted = {b: sum(a * float(x) for a, x in zip(v, vec)) for b, vec in Phi.values.items()}
    P = numpy_pressure(Phi.sft.transition, tilted, Phi.k, 1.0)
    assert h == pytest.approx(P - sum(a * float(x) for a, x in zip(v, w)), abs=1e-9)


def test_interior_entropy_in_every_dimension():
    # at the vertex centroids of 120 seeded rotation sets in m = 1 and
    # m = 3, the measure hits w and its entropy is the dual value
    for m in (1, 3):
        for Phi in _seeded_potentials(60, 1313, m):
            poly = rotation_set(Phi)
            w = tuple(sum(x) / len(x) for x in zip(*poly.vertices))
            h, v, mu = localized_entropy_interior(Phi, w, poly=poly)
            assert all(abs(r - float(x)) <= 1e-7 for r, x in zip(mu.rotation_vector(Phi), w))
            assert h == pytest.approx(mu.entropy, abs=1e-8)


@pytest.mark.parametrize("name, w, solves", [
    ("trivec", (Fraction(1, 4), Fraction(1, 10)), 13),
    ("trivec", (Fraction(1, 2), Fraction(1, 3)), 6),
    ("kinkvec", (Fraction(1, 2), Fraction(1, 2)), 5),
])
def test_interior_solves_each_point_once(monkeypatch, max_plus_passes, name, w, solves):
    # the point a damped step accepts is the next Newton iterate, and its
    # equilibrium state is reused rather than solved again; the Hessian
    # comes from that state, not from more solves; each solve runs one
    # max-plus pass on the graph of its transfer, the (k-1)-block graph of
    # the recoding, and none for beta (a corner value), and the other
    # passes balance a transfer's classes
    Phi = get_potential(name)
    poly = rotation_set(Phi)
    max_plus_passes.clear()
    points = []

    def counting(*args):
        points.append(tuple(args[-1]))
        return dual(*args)

    dual = boundary_entropy._dual_value_grad
    monkeypatch.setattr(boundary_entropy, "_dual_value_grad", counting)
    localized_entropy_interior(Phi, w, poly=poly)
    assert len(set(points)) == len(points) == solves
    size = Phi._recoded._block_graph[0]
    assert all(n <= size for n, *_ in max_plus_passes)
    assert sum(n == size for n, *_ in max_plus_passes) == solves


@pytest.mark.parametrize("cholesky", [True, False])
def test_a_singular_hessian_takes_a_gradient_step(monkeypatch, cholesky):
    # a Hessian that is singular at the first iterate fails the Cholesky
    # test, or with that test skipped, the engine's solve, whose
    # LinAlgError the step catches: it falls back to the gradient and the
    # duality still converges to the same entropy and measure
    Phi, w = get_potential("trivec"), (Fraction(1, 2), Fraction(1, 3))
    want, _, nu = localized_entropy_interior(Phi, w)
    covariance, solve1 = boundary_entropy._covariance, spectral._solve1
    singular, failed = [], []

    def first_singular(p, P, X):
        G = covariance(p, P, X)
        if not singular:
            singular.append(G)
            return np.zeros_like(G)
        return G

    def recording(a, b):
        try:
            return solve1(a, b)
        except np.linalg.LinAlgError as exc:
            failed.append(str(exc))
            raise

    monkeypatch.setattr(boundary_entropy, "_covariance", first_singular)
    monkeypatch.setattr(spectral, "_solve1", recording)
    if not cholesky:
        monkeypatch.setattr(np.linalg, "cholesky", lambda H: H)
    h, _, mu = localized_entropy_interior(Phi, w)
    assert singular and failed == ([] if cholesky else ["Singular matrix"])
    assert h == pytest.approx(want, abs=1e-9)
    assert mu.rotation_vector(Phi) == pytest.approx(nu.rotation_vector(Phi), abs=1e-8)


def test_interior_entropy_domain_errors():
    Phi = get_potential("trivec")
    with pytest.raises(OutOfDomainError):
        localized_entropy_interior(Phi, (Fraction(0), Fraction(0)))
    with pytest.raises(OutOfDomainError):
        localized_entropy_interior(Phi, (2.0, 0.0))
