import itertools
from fractions import Fraction

import pytest

from oracles import random_rational_values, random_transitive_sft
import thermoshift
from thermoshift import (PotentialLC, ResourceLimitError, Sft, birkhoff_average,
                         cohomology_test, elementary_orbits, face_entropy_curve,
                         face_in_direction, face_segment, genericity_check, get_potential,
                         get_shift, rotation_set, universal_potential)
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
    # origin + sum c[j] basis[j] == p for every point on the hull
    frame = _AffineFrame([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)),
                          (Fraction(1), Fraction(3))])
    assert frame.coords((Fraction(1), Fraction(3))) == (0, 1)
    for _ in range(40):
        m = rng.randint(1, 5)
        span = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(rng.randint(1, m))]
        pts = []
        for _ in range(rng.randint(1, 8)):
            c = [rng.randint(-3, 3) for _ in span]
            pts.append(tuple(1 + sum(cj * v[i] for cj, v in zip(c, span))
                             for i in range(m)))
        frame = _AffineFrame(pts)
        assert frame.dim <= len(span)
        for p in pts:
            c = frame.coords(p)
            assert tuple(o + sum(cj * b[i] for cj, b in zip(c, frame.basis))
                         for i, o in enumerate(frame.origin)) == p
        if frame.dim < m:
            normal = rotation_geometry._complement(frame.basis, m)[0]
            assert frame.coords(tuple(o + x for o, x in zip(frame.origin, normal))) is None


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
    assert r == _AffineFrame(sorted(avgs)).dim
    for f in poly.facets:
        vals = {a: sum(n * x for n, x in zip(f.normal, a)) for a in avgs}
        assert max(vals.values()) == f.offset
        assert _AffineFrame(sorted(a for a, x in vals.items() if x == f.offset)).dim == r - 1
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
    poly = rotation_set(Phi, orbits=orbits)
    avgs = orbit_averages(Phi, orbits)
    e0, e1, tangent = face_segment(poly, fp, avgs)
    assert {e0, e1} == {(Fraction(0), Fraction(0)),
                        (Fraction(1, 2), Fraction(-1))}
    # tangent is parallel to the edge
    assert tangent[0] * Fraction(-1) == tangent[1] * Fraction(1, 2)


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
