from fractions import Fraction

import pytest

from oracles import random_rational_values, random_transitive_sft
from thermoshift import (PotentialLC, ResourceLimitError, Sft, birkhoff_average,
                         elementary_orbits, face_in_direction, face_segment,
                         genericity_check, get_potential, rotation_set)
from thermoshift.rotation_geometry import orbit_averages


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


def test_support_oracle_fallback_matches_enumeration():
    Phi = get_potential("trivec")
    full = rotation_set(Phi)
    limited = rotation_set(Phi, cap=3)   # forces the support-function path
    assert limited.generator_points == []
    assert set(limited.vertices) == set(full.vertices)
    assert limited.affine_dim == 2


def test_support_oracle_unavailable_beyond_plane():
    sft = Sft.full(2)
    vals = {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (1, 0): (0, 0, 1),
            (1, 1): (0, 0, 0)}
    Phi = PotentialLC.from_block_values(sft, 2, vals, m=3)
    with pytest.raises(ResourceLimitError):
        rotation_set(Phi, cap=2)


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
