import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (FractionFrame, fraction_genericity, fraction_orbit_averages,
                     fraction_rotation_set, random_rational_values, random_transitive_sft)
import thermoshift
from thermoshift import (InvalidArgumentError, PotentialLC, ResourceLimitError, Sft,
                         birkhoff_average, cohomology_test, elementary_orbits, face_entropy_curve,
                         face_in_direction, genericity_check, get_potential,
                         get_shift, potential_names, recode_to_one_step, rotation_set,
                         universal_potential)
from thermoshift import rotation_geometry
from thermoshift.rotation_geometry import RotationPolytope, _AffineFrame, orbit_averages


def test_triangle_polytope_exact():
    poly = rotation_set(get_potential("trivec"))
    assert poly.affine_dim == 2
    assert set(poly.vertices) == {(Fraction(0), Fraction(0)),
                                  (Fraction(1), Fraction(0)),
                                  (Fraction(1, 2), Fraction(1))}
    assert len(poly.facets) == 3
    # outward normals: each facet supports the polytope from outside
    for f in poly.facets:
        assert all(
            sum(n * x for n, x in zip(f.normal, v)) <= f.offset
            for v in poly.vertices)
        touching = [v for v in poly.vertices
                    if sum(n * x for n, x in zip(f.normal, v)) == f.offset]
        assert len(touching) == 2


def test_membership_queries():
    poly = rotation_set(get_potential("trivec"))
    assert poly.membership((Fraction(1, 2), Fraction(1, 2))) == "interior"
    assert poly.membership((Fraction(1, 4), Fraction(0))) == "boundary"
    assert poly.membership((Fraction(0), Fraction(0))) == "boundary"
    assert poly.membership((Fraction(2), Fraction(0))) == "outside"
    # the frame and the facet normals have m = 2 coordinates: a point of
    # another length is refused, not read in its first two
    for point in ((Fraction(1, 4),), (Fraction(1, 4), Fraction(1, 10), 9)):
        with pytest.raises(InvalidArgumentError, match="point length"):
            poly.membership(point)


def test_face_in_direction_checks_the_direction_before_the_census(monkeypatch):
    def census(*args):
        raise AssertionError("census enumerated")

    monkeypatch.setattr(rotation_geometry, "elementary_orbits", census)
    for alpha in ((1,), (1, 0, 0)):
        with pytest.raises(InvalidArgumentError, match="direction length"):
            face_in_direction(get_potential("trivec"), alpha)


def test_scalar_interval():
    phi = PotentialLC.from_block_values(Sft.full(2), 1, {(0,): 0, (1,): 1})
    poly = rotation_set(phi)
    assert poly.affine_dim == 1
    assert set(poly.vertices) == {(Fraction(0),), (Fraction(1),)}


def test_point_polytope():
    c = PotentialLC.from_block_values(
        Sft.full(2), 1, {(0,): (1, 2), (1,): (1, 2)}, m=2)
    poly = rotation_set(c)
    assert poly.affine_dim == 0
    assert poly.vertices == [(Fraction(1), Fraction(2))]


def test_degenerate_segment_in_the_plane():
    # values on the line y = 2x: the hull is a segment, not a polygon
    phi = PotentialLC.from_block_values(
        Sft.full(2), 1, {(0,): (0, 0), (1,): (1, 2)}, m=2)
    poly = rotation_set(phi)
    assert poly.affine_dim == 1
    assert set(poly.vertices) == {(Fraction(0), Fraction(0)),
                                  (Fraction(1), Fraction(2))}


def _directions(m):
    if m == 2:
        return [(Fraction(a), Fraction(b))
                for a in range(-3, 4) for b in range(-3, 4)
                if (a, b) != (0, 0)]
    return [(Fraction(a), Fraction(b), Fraction(c))
            for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)
            if (a, b, c) != (0, 0, 0)]


@pytest.mark.parametrize("m", [2, 3])
def test_hull_is_exactly_the_hull_of_orbit_averages(rng, m):
    # certificate of hull equality: (a) every vertex is an orbit average,
    # (b) no orbit average falls outside, (c) support values over a grid
    # of integer directions agree exactly, (d) every reported vertex is
    # extreme: its vertex direction exposes it and no other point
    for _ in range(15):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        vals = random_rational_values(rng, sft, k, m=m)
        Phi = PotentialLC.from_block_values(sft, k, vals, m=m)
        orbits = elementary_orbits(sft, k)
        poly = rotation_set(Phi, orbits=orbits)
        pts = [tuple(birkhoff_average(o, Phi)) for o in orbits]
        assert set(poly.vertices) <= set(pts)
        assert all(poly.membership(p) != "outside" for p in pts)
        for d in _directions(m):
            sup_pts = max(sum(a * x for a, x in zip(d, p)) for p in pts)
            sup_verts = max(sum(a * x for a, x in zip(d, v))
                            for v in poly.vertices)
            assert sup_pts == sup_verts
        if poly.affine_dim == m:
            for i, v in enumerate(poly.vertices):
                d = poly.vertex_direction(i)
                vals = {p: sum(a * x for a, x in zip(d, p)) for p in pts}
                top = max(vals.values())
                assert [p for p, x in vals.items() if x == top] == [v]


def _assert_same_hull(Phi):
    # the support-query hull against the hull of the enumerated orbits
    orbits = elementary_orbits(Phi.sft, Phi.k)
    oracle, census = rotation_set(Phi), rotation_set(Phi, orbits=orbits)
    avgs = orbit_averages(Phi, orbits)
    assert oracle.generator_points == [] and census.generator_points
    assert oracle.affine_dim == census.affine_dim
    # facets are ambient and built from the vertices alone, so they agree
    # on degenerate hulls too; each supports the hull at its vertices
    assert oracle.vertices == census.vertices
    assert oracle.facets == census.facets
    for f in oracle.facets:
        vals = [sum(a * x for a, x in zip(f.normal, v)) for v in oracle.vertices]
        assert max(vals) == f.offset
        assert {i for i, x in enumerate(vals) if x == f.offset} == set(f.vertex_ids)
    assert all(oracle.membership(a) != "outside" for a in avgs)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_support_hull_matches_orbit_hull(rng, m):
    for _ in range(25):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        vals = random_rational_values(rng, sft, k, m=m)
        _assert_same_hull(PotentialLC.from_block_values(sft, k, vals, m=m))


def test_support_hull_matches_orbit_hull_on_degenerate_inputs(rng):
    for _ in range(15):
        # a segment in the plane: every value lies on one line
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        line = (rng.randint(-3, 3), rng.randint(1, 3))
        vals = {b: tuple(Fraction(x) * c for c in line)
                for b, x in random_rational_values(rng, sft, k).items()}
        _assert_same_hull(PotentialLC.from_block_values(sft, k, vals, m=2))
        # a 3-state shift with k = 1 has three values: a planar hull in Q^3
        sft3 = random_transitive_sft(rng, 3, 3)
        Phi = PotentialLC.from_block_values(
            sft3, 1, random_rational_values(rng, sft3, 1, m=3), m=3)
        _assert_same_hull(Phi)
    simplex = {(0,): (1, 0, 0), (1,): (0, 1, 0), (2,): (0, 0, 1)}
    planar = rotation_set(PotentialLC.from_block_values(Sft.full(3), 1, simplex, m=3))
    assert planar.affine_dim == 2 and len(planar.vertices) == 3


def test_float_support_hull_matches_orbit_hull(rng):
    # float values are snapped to the grid one by one on both paths
    for _ in range(10):
        sft = random_transitive_sft(rng)
        vals = random_rational_values(rng, sft, 2, m=2)
        fvals = {b: tuple(float(x) for x in v) for b, v in vals.items()}
        _assert_same_hull(PotentialLC.from_block_values(sft, 2, fvals, m=2, mode="float"))


def test_affine_frame_coords_reproduce_points(rng):
    # the integer frame of points X / den: basis[j] is corner j + 1 less
    # the origin, it has the dimension, corners and pivots of the Fraction
    # frame of the same points, every point lies on it at any scaling, and
    # its complement vectors are orthogonal to the basis and lead off it
    frame = _AffineFrame([(0, 0), (1, 1), (1, 3)], 1)
    assert (frame.dim, frame.corners, frame.complement()) == (2, [0, 1, 2], [])
    for _ in range(40):
        m = rng.randint(1, 5)
        span = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(rng.randint(1, m))]
        pts = []
        for _ in range(rng.randint(1, 8)):
            c = [rng.randint(-3, 3) for _ in span]
            pts.append(tuple(1 + sum(cj * v[i] for cj, v in zip(c, span)) for i in range(m)))
        den = rng.randint(1, 5)
        frame = _AffineFrame(pts, den)
        ref = FractionFrame([tuple(Fraction(x, den) for x in p) for p in pts])
        assert (frame.dim, frame.corners, frame.pivots) == (ref.dim, ref.corners, ref.pivots)
        assert frame.dim <= len(span)
        for j, c in enumerate(frame.corners[1:]):
            assert frame.basis[j] == tuple(a - b for a, b in zip(pts[c], frame.origin))
        for p in pts:
            assert frame.contains(p, den) and frame.contains([3 * x for x in p], 3 * den)
        normals = frame.complement()
        assert len(normals) == m - frame.dim
        for normal in normals:
            assert all(sum(a * b for a, b in zip(normal, v)) == 0 for v in frame.basis)
            assert not frame.contains(tuple(o + x for o, x in zip(frame.origin, normal)), den)


@pytest.mark.parametrize("shift,k", [("full2", 1), ("full2", 2), ("full2", 3),
                                     ("golden", 2), ("golden", 3), ("golden", 4),
                                     ("full3", 2)])
def test_universal_potential_hull(shift, k):
    # every m: each facet is tight on r affinely independent census
    # averages and holds for all of them; each vertex is a census average
    # exposed by its vertex direction
    Phi = universal_potential(get_shift(shift), k)
    orbits = elementary_orbits(Phi.sft, k)
    avgs = set(orbit_averages(Phi, orbits))
    poly = rotation_set(Phi)
    r = poly.affine_dim
    assert r == FractionFrame(sorted(avgs)).dim
    for f in poly.facets:
        vals = {a: sum(n * x for n, x in zip(f.normal, a)) for a in avgs}
        assert max(vals.values()) == f.offset
        assert FractionFrame(sorted(a for a, x in vals.items() if x == f.offset)).dim == r - 1
    for i, v in enumerate(poly.vertices):
        assert v in avgs
        d = poly.vertex_direction(i)
        vals = {a: sum(n * x for n, x in zip(d, a)) for a in avgs}
        assert [a for a, x in vals.items() if x == max(vals.values())] == [v]
        assert poly.membership(v) == "boundary"
    rep = genericity_check(Phi, orbits)
    assert rep.affine_dim == r


def test_hull_facet_cap(monkeypatch):
    monkeypatch.setattr(rotation_geometry, "HULL_FACET_CAP", 2)
    with pytest.raises(ResourceLimitError):
        rotation_set(get_potential("trivec"))


def test_geometry_and_cohomology_take_no_orbit_census(monkeypatch):
    vals = {b: (Fraction(b[0]), Fraction(b[0] * b[1]), Fraction(b[0] * b[1] * b[2]))
            for b in itertools.product(range(2), repeat=3)}
    solid = PotentialLC.from_block_values(Sft.full(2), 3, vals, m=3)
    want = rotation_set(solid, orbits=elementary_orbits(solid.sft, 3))
    assert want.affine_dim == 3

    def census(*args, **kwargs):
        raise AssertionError("orbit census taken")

    for module in [thermoshift, *vars(thermoshift).values()]:
        if hasattr(module, "elementary_orbits"):
            monkeypatch.setattr(module, "elementary_orbits", census)
    assert rotation_set(get_potential("trivec")).affine_dim == 2
    assert rotation_set(get_potential("kinkvec")).affine_dim == 2
    got = rotation_set(solid)
    assert got.vertices == want.vertices and got.facets == want.facets
    curve = face_entropy_curve(get_potential("kinkvec"), (0, -1))
    assert len(curve.hull) == 3
    fix0 = get_potential("fix0")
    assert not cohomology_test(fix0, PotentialLC.constant(fix0.sft, 0)).cohomologous


def _edge_face_potential():
    # hull is the triangle (0,0), (1,1), (1/2,-1); every cycle avoiding
    # the 11 block has its average on the edge (0,0) -> (1/2,-1), whose
    # outward normal is (-2,-1)
    vals = {(0, 0): (0, 0), (0, 1): (1, -2), (1, 0): (0, 0), (1, 1): (1, 1)}
    return PotentialLC.from_block_values(Sft.full(2), 2, vals, m=2)


def test_face_fingerprint_and_segment():
    Phi = _edge_face_potential()
    orbits = elementary_orbits(Phi.sft, 2)
    fp = face_in_direction(Phi, (Fraction(-2), Fraction(-1)))
    assert fp.max_value == Fraction(0)
    # the maximizing orbits are exactly those avoiding the 11 block
    on_face = set(fp.orbit_set)
    for i, o in enumerate(orbits):
        avoids = (1, 1) not in {tuple(b) for b in o.blocks(2)}
        assert (i in on_face) == avoids


def test_vertex_direction_exposes_vertex():
    Phi = _edge_face_potential()
    orbits = elementary_orbits(Phi.sft, 2)
    poly = rotation_set(Phi, orbits=orbits)
    for vid, v in enumerate(poly.vertices):
        alpha = poly.vertex_direction(vid)
        fp = face_in_direction(Phi, alpha, orbits=orbits)
        for i in fp.orbit_set:
            assert tuple(birkhoff_average(orbits[i], Phi)) == v


def test_genericity_check():
    # two fixed points with distinct cylinder sets share a hull vertex
    tied = PotentialLC.from_block_values(
        Sft.full(2), 2, {(0, 0): (1, 0), (1, 1): (1, 0),
                         (0, 1): (0, 0), (1, 0): (0, 0)}, m=2)
    rep = genericity_check(tied)
    assert not rep.generic
    assert rep.vertex_violations
    # an orbit average sitting on an edge off the vertices also violates
    edgy = PotentialLC.from_block_values(
        Sft.full(2), 2, {(0, 0): (0, 0), (1, 1): (1, 0),
                         (0, 1): (1, 2), (1, 0): (0, 0)}, m=2)
    rep2 = genericity_check(edgy)
    assert not rep2.generic
    assert rep2.boundary_violations
    clean = PotentialLC.from_block_values(
        Sft.full(2), 1, {(0,): (0, 0), (1,): (1, 1)}, m=2)
    assert genericity_check(clean).generic


def test_genericity_check_groups_averages_against_the_facets(monkeypatch):
    # each distinct average is tested once against the facets, with no
    # frame reduction: every generator lies in the hull
    def boom(*args):
        raise AssertionError("membership called")

    monkeypatch.setattr(RotationPolytope, "membership", boom)
    tied = PotentialLC.from_block_values(
        Sft.full(2), 2, {(0, 0): (1, 0), (1, 1): (1, 0),
                         (0, 1): (0, 0), (1, 0): (0, 0)}, m=2)
    rep = genericity_check(tied)
    assert (rep.vertex_violations, rep.boundary_violations) == ([(1, (0, 1))], [])
    edgy = PotentialLC.from_block_values(
        Sft.full(2), 2, {(0, 0): (0, 0), (1, 1): (1, 0),
                         (0, 1): (1, 2), (1, 0): (0, 0)}, m=2)
    rep = genericity_check(edgy)
    assert (rep.vertex_violations, rep.boundary_violations) == ([], [3, 4])


# -- the integer kernel against the Fraction oracle -------------------------

def _oracle_cases():
    """The builtins; 320 seeded potentials, m = 1..3 on full and random
    transitive shifts, small-integer (narrow) or rational (wide) values,
    half of them with one vector planted on several blocks; and 40 float
    potentials whose values lie off the 1e-9 grid."""
    cases = [get_potential(name) for name in potential_names()]
    rng = random.Random(18)
    for i in range(320):
        m = 1 + i % 3
        sft = random_transitive_sft(rng) if i % 2 else Sft.full(rng.choice((2, 3)))
        k = rng.choice((1, 2) if sft.d == 3 else (1, 2, 3))
        blocks = recode_to_one_step(sft, k).states
        if i % 4 < 2:
            vals = {b: tuple(Fraction(rng.randint(0, 2)) for _ in range(m)) for b in blocks}
        else:
            vals = {b: tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
                             for _ in range(m)) for b in blocks}
        if i % 8 < 4:
            tie = vals[rng.choice(blocks)]
            vals.update(dict.fromkeys(rng.sample(blocks, rng.randint(1, len(blocks))), tie))
        cases.append(PotentialLC.from_block_values(sft, k, vals, m=m))
    for _ in range(40):
        sft = random_transitive_sft(rng)
        k, m = rng.choice((1, 2)), rng.randint(1, 3)
        vals = {b: tuple(rng.randint(-4, 4) / rng.choice((3, 7)) + rng.uniform(-1e-8, 1e-8)
                         for _ in range(m)) for b in recode_to_one_step(sft, k).states}
        cases.append(PotentialLC.from_block_values(sft, k, vals, m=m, mode="float"))
    return cases


def _shape(poly):
    return poly.affine_dim, poly.vertices, [(f.vertex_ids, f.normal, f.offset) for f in poly.facets]


def test_integer_geometry_matches_the_fraction_oracle():
    # support hull, census hull, orbit averages and genericity reports are
    # identical to the Fraction path's, canonical order included
    censused = 0
    for Phi in _oracle_cases():
        want = fraction_rotation_set(Phi)
        assert _shape(rotation_set(Phi)) == (want.affine_dim, want.vertices, want.facets)
        try:
            orbits = elementary_orbits(Phi.sft, Phi.k, cap=5000)
        except ResourceLimitError:
            continue
        censused += 1
        avgs = fraction_orbit_averages(Phi, orbits)
        assert orbit_averages(Phi, orbits) == avgs
        poly = rotation_set(Phi, orbits)
        assert poly.generator_points == list(enumerate(avgs))
        want = fraction_rotation_set(Phi, orbits)
        assert _shape(poly) == (want.affine_dim, want.vertices, want.facets)
        rep = genericity_check(Phi, orbits)
        assert dataclasses.astuple(rep) == fraction_genericity(Phi, orbits)
    assert censused >= 300


def test_orbit_averages_over_another_window(rng):
    # orbits enumerated at a wider window than the potential's are read
    # block by block, as the Fraction oracle reads them; an orbit with a
    # block or state the potential's shift lacks is an input error
    for _ in range(20):
        sft = random_transitive_sft(rng)
        k = 1 if sft.d == 3 else rng.choice((1, 2))     # at most a few hundred orbits
        Phi = PotentialLC.from_block_values(sft, k, random_rational_values(rng, sft, k, m=2), m=2)
        orbits = elementary_orbits(sft, k + 1)
        assert orbit_averages(Phi, orbits) == fraction_orbit_averages(Phi, orbits)
        assert dataclasses.astuple(genericity_check(Phi, orbits)) == fraction_genericity(Phi, orbits)
    golden = PotentialLC.constant(get_shift("golden"), 0, k=2)
    for k in (2, 3):
        with pytest.raises(InvalidArgumentError):
            orbit_averages(golden, elementary_orbits(Sft.full(2), k))


def test_support_hulls_match_the_orbit_hull():
    # the hull grown from support queries, which walk unsplit tight edges,
    # is the hull of every orbit average: 240 seeded potentials, m = 2 and 3
    rng = random.Random(1919)
    checked = 0
    while checked < 240:
        m = 2 + checked % 2
        sft = random_transitive_sft(rng) if rng.random() < 0.5 else Sft.full(rng.choice((2, 3)))
        k = rng.choice((1, 2))
        blocks = recode_to_one_step(sft, k).states
        if rng.random() < 0.5:
            vals = {b: tuple(Fraction(rng.randint(0, 2)) for _ in range(m)) for b in blocks}
        else:
            vals = random_rational_values(rng, sft, k, m=m)
        if rng.random() < 0.5:
            tie = vals[rng.choice(blocks)]
            vals.update(dict.fromkeys(rng.sample(blocks, rng.randint(1, len(blocks))), tie))
        Phi = PotentialLC.from_block_values(sft, k, vals, m=m)
        try:
            orbits = elementary_orbits(sft, k, cap=3000)
        except ResourceLimitError:
            continue
        want = fraction_rotation_set(Phi, orbits)
        assert _shape(rotation_set(Phi)) == (want.affine_dim, want.vertices, want.facets)
        checked += 1


def test_orbit_lists_of_another_shift_are_rejected(monkeypatch):
    # the full 3-shift's orbits with segments (0, 2) and (0, 2, 1) are not
    # orbits of the 3-symbol shift without 0 -> 2: every caller-supplied
    # list is checked step by step, and the census of Phi's own shift is not
    sft = Sft.from_matrix([[1, 1, 0], [1, 1, 1], [1, 1, 1]])
    Phi = PotentialLC.from_block_values(
        sft, 1, {(0,): (0, 0), (1,): (1, 0), (2,): (0, 1)}, m=2)
    full = elementary_orbits(Sft.full(3), 1)
    own = elementary_orbits(sft, 1)
    assert {o.segment for o in full} - {o.segment for o in own} == {(0, 2), (0, 2, 1)}
    for orbits in (full, [o for o in full if o.segment == (0, 2, 1)]):
        for call in (lambda: rotation_set(Phi, orbits), lambda: orbit_averages(Phi, orbits),
                     lambda: genericity_check(Phi, orbits),
                     lambda: face_in_direction(Phi, (1, 0), orbits),
                     lambda: face_in_direction(Phi, (1.0, 0.0), orbits)):
            with pytest.raises(InvalidArgumentError, match="not an orbit"):
                call()
    # the same orbits read from the full shift's census where they are
    # orbits of this one
    shared = [o for o in full if o.segment not in {(0, 2), (0, 2, 1)}]
    assert orbit_averages(Phi, shared) == orbit_averages(Phi, own)
    assert _shape(rotation_set(Phi, shared)) == _shape(rotation_set(Phi, own))
    checks = []
    check = rotation_geometry._state_cycles
    monkeypatch.setattr(rotation_geometry, "_state_cycles",
                        lambda *args: checks.append(1) or check(*args))
    genericity_check(Phi)
    face_in_direction(Phi, (1, 0))
    face_in_direction(Phi, (1.0, 0.0))
    assert not checks
    genericity_check(Phi, own)
    face_in_direction(Phi, (1.0, 0.0), own)
    assert len(checks) == 2


def _vector_potential(*vecs):
    """Full shift on len(vecs) symbols, window 1, symbol i valued vecs[i]."""
    return PotentialLC.from_block_values(
        Sft.full(len(vecs)), 1, {(i,): v for i, v in enumerate(vecs)}, m=len(vecs[0]))


def test_membership_edge_cases():
    # denominators that do not divide L = 2, a prime one, floats snapped to
    # the grid, points off the affine hull, and hulls of dimension 0, 1, 2
    p = 10**9 + 7
    h = Fraction(1, 2)
    triangle = _vector_potential((0, 0), (1, 0), (h, 1))       # y >= 0, y <= 2x, 2x + y <= 2
    segment = _vector_potential((0, 0), (1, 2))                 # on the line y = 2x
    point = _vector_potential((h, Fraction(1, p)), (h, Fraction(1, p)))
    simplex = _vector_potential((1, 0, 0), (0, 1, 0), (0, 0, 1))  # a triangle in Q^3
    cases = [
        (triangle, [((Fraction(1, 7), Fraction(1, 7)), "interior"),
                   ((Fraction(1, 7), Fraction(2, 7)), "boundary"),
                   ((Fraction(1, 7), Fraction(3, 7)), "outside"),
                   ((Fraction(1, p), Fraction(1, p)), "interior"),
                   ((Fraction(1, p), Fraction(2, p)), "boundary"),
                   ((Fraction(1, p), Fraction(2 * p + 1, p * p)), "outside"),
                   ((0.5, 0.5), "interior"), ((0.25, 0.0), "boundary"),
                   ((0.1, 0.2), "boundary"), ((0.1 + 1e-12, 0.2), "boundary"),
                   ((0.1, 0.2 + 1e-8), "outside"), ((1, 0), "boundary"), ((2, 0), "outside")]),
        (segment, [((Fraction(1, 7), Fraction(2, 7)), "interior"),
                  ((Fraction(1, 7), Fraction(3, 7)), "outside"),
                  ((Fraction(1, p), Fraction(2, p)), "interior"),
                  ((Fraction(1, p), Fraction(2, p) + Fraction(1, p * p)), "outside"),
                  ((0, 0), "boundary"), ((1.0, 2.0), "boundary"), ((2, 4), "outside"),
                  ((0.25, 0.5), "interior"), ((0.25, 0.5 + 1e-8), "outside")]),
        (point, [((h, Fraction(1, p)), "interior"), ((0.5, 1 / p), "outside"),
                ((h, Fraction(1, p + 2)), "outside")]),
        (simplex, [((Fraction(1, 3),) * 3, "interior"),
                  ((Fraction(1, 7), Fraction(3, 7), Fraction(3, 7)), "interior"),
                  ((h, h, 0), "boundary"), ((1, 0, 0), "boundary"),
                  ((Fraction(1, 3), Fraction(1, 3), h), "outside"),
                  ((Fraction(1, p), Fraction(1, p), 1 - Fraction(2, p)), "interior"),
                  ((-Fraction(1, p), Fraction(1, p), 1), "outside")]),
    ]
    for Phi, queries in cases:
        poly, oracle = rotation_set(Phi), fraction_rotation_set(Phi)
        for pt, side in queries:
            assert poly.membership(pt) == oracle.membership(pt) == side, (pt, side)
    assert [rotation_set(Phi).affine_dim for Phi, _ in cases] == [2, 1, 0, 2]


def test_membership_matches_the_fraction_oracle(rng):
    # random points with denominators 1, 2, 7 and 10^9 + 7, and floats,
    # near random hulls of every affine dimension in Q^2 and Q^3
    dens = (1, 2, 7, 10**9 + 7)
    for _ in range(60):
        m = rng.choice((2, 3))
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        vals = random_rational_values(rng, sft, k, m=m)
        if rng.random() < 0.5:      # flatten onto a line or a point
            pick = rng.choice(list(vals))
            vals = {b: tuple(x if rng.random() < 0.5 else y for x, y in zip(v, vals[pick]))
                    if rng.random() < 0.5 else vals[pick] for b, v in vals.items()}
        Phi = PotentialLC.from_block_values(sft, k, vals, m=m)
        poly, oracle = rotation_set(Phi), fraction_rotation_set(Phi)
        for v in poly.vertices:
            for _ in range(4):
                q = rng.choice(dens)
                pt = tuple(x + Fraction(rng.randint(-2, 2), q) for x in v)
                if rng.random() < 0.3:
                    pt = tuple(float(x) for x in pt)
                assert poly.membership(pt) == oracle.membership(pt)


def test_vertex_direction_edge_cases():
    # dimension 0 gives the zero direction; on a segment, a triangle in the
    # plane or in Q^3, and with denominators 7 and 10^9 + 7, each vertex
    # direction is the sum of the Fraction oracle's normals at the vertex
    # and exposes that vertex alone among the vertices
    p = 10**9 + 7
    point = rotation_set(_vector_potential((1, 2), (1, 2)))
    assert point.vertex_direction(0) == (Fraction(0), Fraction(0))
    for Phi in [_vector_potential((0, 0), (1, 2)),
                _vector_potential((Fraction(1, 7), 0), (0, Fraction(1, p))),
                _vector_potential((0, 0), (1, 0), (Fraction(1, 2), 1)),
                _vector_potential((Fraction(1, p), 0), (1, Fraction(3, 7)), (0, 1)),
                _vector_potential((1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, p)))]:
        poly, oracle = rotation_set(Phi), fraction_rotation_set(Phi)
        for i, v in enumerate(poly.vertices):
            d = poly.vertex_direction(i)
            assert all(isinstance(x, Fraction) for x in d)
            assert d == tuple(map(sum, zip(*(n for ids, n, _ in oracle.facets if i in ids))))
            vals = [sum(a * x for a, x in zip(d, u)) for u in poly.vertices]
            assert [j for j, x in enumerate(vals) if x == max(vals)] == [i]


# -- one polytope per potential ---------------------------------------------

def _fresh(Phi):
    """A copy of Phi that keeps none of its built data."""
    return PotentialLC(Phi.sft, Phi.k, Phi.m, dict(Phi.values), Phi.mode)


def _built_rotation_set(Phi):
    """Phi's support-query polytope built afresh, bypassing the kept
    copy; its frame spans every support point over their common
    denominator."""
    points, den, (frame, verts, facets) = rotation_geometry._support_hull(Phi)
    return RotationPolytope(
        Phi.m, [], frame.dim, [tuple(Fraction(x, den) for x in points[i]) for i in verts],
        [rotation_geometry.Facet(ids, tuple(map(Fraction, a)), Fraction(b, den))
         for ids, a, b in facets], frame)


def _built_genericity(Phi):
    """genericity_check(Phi) on a census hull built afresh, bypassing the
    kept copy: each average is classified against it over the census's
    common denominator."""
    orbits = elementary_orbits(Phi.sft, Phi.k)
    X, den = rotation_geometry._scale(rotation_geometry._orbit_sums(Phi, orbits, True))
    points = sorted(set(X))
    frame, verts, facets = rotation_geometry._build_hull(points, den)
    at = {}
    for i, x in enumerate(X):
        at.setdefault(x, []).append(i)
    vertices = [points[i] for i in verts]
    vertex_violations = [(vidx, (a, b)) for vidx, v in enumerate(vertices)
                         for a, b in itertools.combinations(at[v], 2)
                         if orbits[a].cylinders != orbits[b].cylinders]
    boundary_violations = sorted(
        i for x, ids in at.items() if x not in vertices
        and any(sum(map(int.__mul__, a, x)) == b for _, a, b in facets) for i in ids)
    return (not vertex_violations and not boundary_violations, vertex_violations,
            boundary_violations, frame.dim)


def _polytope_data(poly):
    """Vertices, facets, affine dimension, generators, and the frame as
    rationals: its origin and basis over its denominator."""
    f = poly.frame
    return (poly.vertices, poly.facets, poly.affine_dim, poly.generator_points,
            tuple(Fraction(x, f.den) for x in f.origin),
            [tuple(Fraction(x, f.den) for x in b) for b in f.basis], f.pivots)


_SLOTS = ((2, 2, 2, "narrow"), (2, 2, 2, "wide"), (2, 2, 3, "narrow"),
          (2, 2, 3, "wide"), (2, 3, 1, "wide"), (2, 3, 2, "narrow"),
          (2, 3, 2, "wide"), (3, 2, 4, "narrow"), (3, 3, 2, "wide"))


def _slot_potentials():
    """The benchmark's vector slot shapes (m, d, k, palette) on the full
    d-shift, each with small-integer or rational values, and their
    float copies."""
    rng = random.Random(28)
    out = []
    for m, d, k, palette in _SLOTS:
        blocks = recode_to_one_step(Sft.full(d), k).states
        vals = {b: tuple(Fraction(rng.choice((0, 1, 2))) if palette == "narrow" else
                         Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
                         for _ in range(m)) for b in blocks}
        out.append(PotentialLC.from_block_values(Sft.full(d), k, vals, m=m))
        out.append(PotentialLC.from_block_values(
            Sft.full(d), k, {b: tuple(map(float, v)) for b, v in vals.items()},
            m=m, mode="float"))
    return out


def _seeded_by_dimension(per_dim=6):
    """Seeded potentials whose rotation sets have affine dimension 0, 1, 2
    and 3, per_dim of each: values on a point, a line, a plane or in
    general position in Q^3."""
    rng = random.Random(2828)
    out = {r: [] for r in range(4)}
    while any(len(v) < per_dim for v in out.values()):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        r = rng.randint(0, 3)
        base = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(3)]
        dirs = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(r)]
        vals = {b: tuple(x + sum(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) * d[c]
                                 for d in dirs) for c, x in enumerate(base))
                for b in recode_to_one_step(sft, k).states}
        Phi = PotentialLC.from_block_values(sft, k, vals, m=3)
        dim = _built_rotation_set(Phi).affine_dim
        if len(out[dim]) < per_dim:
            out[dim].append(Phi)
    return [Phi for r in range(4) for Phi in out[r]]


def _censused_builtins():
    out = []
    for name in potential_names():
        Phi = get_potential(name)
        try:
            elementary_orbits(Phi.sft, Phi.k, cap=20000)
        except ResourceLimitError:      # trivec and kinkvec
            continue
        out.append(Phi)
    return out


def test_kept_polytope_changes_no_result():
    # rotation_set(Phi) and genericity_check(Phi), alone or either after
    # the other, give what the two built on their own: the same vertices,
    # facets, affine dimension, rational frame and report
    cases = _censused_builtins() + _slot_potentials() + _seeded_by_dimension()
    assert len(cases) >= 10 + 18 + 24
    dims = set()
    for Phi in cases:
        want_poly = _polytope_data(_built_rotation_set(_fresh(Phi)))
        want_rep = _built_genericity(_fresh(Phi))
        dims.add(want_poly[2])
        a, b = _fresh(Phi), _fresh(Phi)
        got = [_polytope_data(rotation_set(a)), dataclasses.astuple(genericity_check(a)),
               dataclasses.astuple(genericity_check(b)), _polytope_data(rotation_set(b)),
               _polytope_data(rotation_set(a)), dataclasses.astuple(genericity_check(b))]
        assert got == [want_poly, want_rep, want_rep, want_poly, want_poly, want_rep]
        assert dataclasses.astuple(genericity_check(_fresh(Phi))) == want_rep
        # the frame is built over the vertices' own common denominator
        poly = rotation_set(b)
        assert poly.frame.den == math.lcm(*(x.denominator for v in poly.vertices for x in v))
    assert dims == {0, 1, 2, 3}


def test_an_orbit_sub_list_hulls_its_own_averages():
    # a strict sub-list that misses a vertex gets its own smaller hull,
    # whether or not the potential's own polytope is kept yet, and does
    # not become the potential's polytope
    for Phi in _slot_potentials()[::2] + _seeded_by_dimension(2)[2:]:
        orbits = elementary_orbits(Phi.sft, Phi.k)
        top = _built_rotation_set(_fresh(Phi))
        avgs = orbit_averages(Phi, orbits)
        sub = [o for o, a in zip(orbits, avgs) if a != top.vertices[0]]
        before = (_polytope_data(rotation_set(Phi, sub)),
                  dataclasses.astuple(genericity_check(Phi, sub)))
        assert top.vertices[0] not in before[0][0]
        assert set(before[0][0]) <= set(a for a in avgs if a != top.vertices[0])
        assert _polytope_data(rotation_set(Phi)) == _polytope_data(top)
        after = (_polytope_data(rotation_set(Phi, sub)),
                 dataclasses.astuple(genericity_check(Phi, sub)))
        assert after == before
        assert _polytope_data(rotation_set(Phi)) == _polytope_data(top)
        assert rotation_set(Phi, orbits).vertices == top.vertices


def test_returned_polytopes_are_fresh():
    # what a caller does to one polytope's lists leaves the next unchanged
    Phi = get_potential("trivec")
    want = _polytope_data(rotation_set(_fresh(Phi)))
    poly = rotation_set(Phi)
    poly.vertices.reverse()
    poly.vertices.append((Fraction(9), Fraction(9)))
    poly.facets.pop()
    poly.generator_points.append((0, (Fraction(0), Fraction(0))))
    poly.frame.basis.clear()
    assert _polytope_data(rotation_set(Phi)) == want
    assert rotation_set(Phi) is not rotation_set(Phi)


def test_rotation_set_after_genericity_runs_no_pass(max_plus_passes):
    # the census hull of genericity_check is the polytope rotation_set
    # reads: no support query runs
    for Phi in _slot_potentials()[:4]:
        genericity_check(Phi)
        max_plus_passes.clear()
        rotation_set(Phi)
        assert max_plus_passes == []
    Phi = _slot_potentials()[0]
    rotation_set(Phi)
    assert max_plus_passes
