"""Rotation sets, faces, and genericity checks.

The rotation set of an m-vector potential is the convex hull of the
Birkhoff averages of the elementary periodic orbits.  All hull geometry
here runs in exact rational arithmetic; float-mode potentials are
snapped to a 1e-9 grid first.  Without an orbit list, support queries
(one max-cycle-mean run per direction) grow the affine span and then,
for m <= 3, certify every facet; vertex/facet structure is built for
m <= 3 (interval, monotone chain, incremental hull), larger m stays
query-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core_sft import recode_to_one_step
from .errors import DegenerateFaceError, InvalidArgumentError, UnsupportedDimensionError
from .max_face import lex_extreme_cycle
from .orbits import birkhoff_average, elementary_orbits
from .potential import PotentialLC

SNAP_DEN = 10**9


def _snap(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(round(float(x) * SNAP_DEN), SNAP_DEN)


def orbit_averages(Phi: PotentialLC, orbits) -> tuple[tuple[Fraction, ...], ...]:
    """Exact orbit averages of the values snapped to the grid: the points
    the support queries of rotation_set see."""
    snapped = [[tuple(map(_snap, Phi.value(b))) for b in o.blocks(Phi.k)] for o in orbits]
    return tuple(tuple(sum(c) / len(vs) for c in zip(*vs)) for vs in snapped)


# -- exact affine frame ----------------------------------------------------

class _AffineFrame:
    """Affine hull of a point set with exact coordinates in a basis."""

    def __init__(self, points):
        self.origin = points[0]
        m = len(self.origin)
        self.basis: list[tuple[Fraction, ...]] = []
        self._ech: list[tuple[list[Fraction], list[Fraction], int]] = []
        for p in points:
            diff = [a - b for a, b in zip(p, self.origin)]
            red, _ = self._reduce(diff)
            pivot = next((i for i, x in enumerate(red) if x != 0), None)
            if pivot is not None:
                coeffs = [Fraction(0)] * len(self.basis) + [Fraction(1)]
                for e, c, _ in self._ech:
                    c.append(Fraction(0))
                self.basis.append(tuple(diff))
                self._ech.append((red, coeffs, pivot))
        self.dim = len(self.basis)

    def _reduce(self, vec):
        v = list(vec)
        coeffs = [Fraction(0)] * len(self._ech)
        for idx, (e, c, pivot) in enumerate(self._ech):
            if v[pivot] != 0:
                f = v[pivot] / e[pivot]
                v = [a - f * b for a, b in zip(v, e)]
                coeffs[idx] = f
        return v, coeffs

    def coords(self, point):
        """Coordinates of a point in the basis, or None if off the hull."""
        diff = [a - b for a, b in zip(point, self.origin)]
        red, coeffs = self._reduce(diff)
        if any(x != 0 for x in red):
            return None
        out = [Fraction(0)] * self.dim
        for f, (_, c, _) in zip(coeffs, self._ech):
            for j, cj in enumerate(c):
                out[j] += f * cj
        return tuple(out)


# -- hulls in affine coordinates -------------------------------------------

def _cross2(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points):
    """Strict convex hull, CCW starting at the lexicographic minimum."""
    pts = sorted(set(points))
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _tri_normal(pts, tri):
    a, b, c = (pts[i] for i in tri)
    return _cross3(_sub3(b, a), _sub3(c, a))


def _hull_3d(points):
    """Incremental exact hull; returns outward triangles over point ids.

    Points inside a facet or on an edge may appear as triangle corners.
    """
    pts = list(points)
    n = len(pts)
    i0 = 0
    i1 = next(i for i in range(n) if pts[i] != pts[i0])
    i2 = next(i for i in range(n)
              if any(x != 0 for x in _cross3(_sub3(pts[i1], pts[i0]), _sub3(pts[i], pts[i0]))))
    norm = _cross3(_sub3(pts[i1], pts[i0]), _sub3(pts[i2], pts[i0]))
    i3 = next(i for i in range(n) if _dot(norm, _sub3(pts[i], pts[i0])) != 0)

    def outward(tri, inside):
        nrm = _tri_normal(pts, tri)
        if _dot(nrm, _sub3(pts[inside], pts[tri[0]])) > 0:
            return (tri[0], tri[2], tri[1])
        return tri

    faces = {outward((i0, i1, i2), i3), outward((i0, i1, i3), i2),
             outward((i0, i2, i3), i1), outward((i1, i2, i3), i0)}

    def visible(tri, p):
        nrm = _tri_normal(pts, tri)
        return _dot(nrm, _sub3(pts[p], pts[tri[0]])) > 0

    for p in range(n):
        if p in (i0, i1, i2, i3):
            continue
        vis = {f for f in faces if visible(f, p)}
        if not vis:
            continue
        edge_owner = {}
        for f in faces:
            a, b, c = f
            for e in ((a, b), (b, c), (c, a)):
                edge_owner[e] = f
        horizon = []
        for f in vis:
            a, b, c = f
            for e in ((a, b), (b, c), (c, a)):
                if edge_owner[(e[1], e[0])] not in vis:
                    horizon.append(e)
        faces -= vis
        for (u, v) in horizon:
            faces.add((u, v, p))
    return sorted(faces)


@dataclass(frozen=True)
class Facet:
    """A facet given by vertex indices, an outward normal, and its offset.

    The normal is ambient; for a degenerate hull it lies in the affine
    span and is built from the vertices alone, so the same point set
    always gives the same facets.
    """

    vertex_ids: tuple[int, ...]
    normal: tuple
    offset: Fraction


@dataclass
class RotationPolytope:
    """Convex hull of orbit rotation vectors."""

    m: int
    generator_points: list   # (orbit index, ambient m-vector)
    affine_dim: int
    vertices: list | None    # ambient exact points, canonical order
    facets: list | None
    query_only: bool
    frame: _AffineFrame | None = field(default=None, repr=False)

    def membership(self, point) -> str:
        """'interior', 'boundary', or 'outside' relative to the affine hull."""
        if self.query_only:
            raise UnsupportedDimensionError("membership needs an explicit hull (m <= 3)")
        pt = tuple(_snap(x) for x in point)
        if self.frame.coords(pt) is None:
            return "outside"
        if self.affine_dim == 0:
            return "interior"
        on_facet = False
        for f in self.facets:
            val = _dot(f.normal, pt)
            if val > f.offset:
                return "outside"
            if val == f.offset:
                on_facet = True
        return "boundary" if on_facet else "interior"

    def vertex_direction(self, vertex_id: int) -> tuple:
        """An ambient direction whose argmax face is exactly this vertex."""
        if self.query_only:
            raise UnsupportedDimensionError("vertex_direction needs an explicit hull")
        if self.affine_dim == 0:
            return tuple(Fraction(0) for _ in range(self.m))
        total = [Fraction(0)] * self.m
        for f in self.facets:
            if vertex_id in f.vertex_ids:
                for i, x in enumerate(f.normal):
                    total[i] += x
        if all(x == 0 for x in total):
            raise InvalidArgumentError(f"vertex {vertex_id} has no adjacent facets")
        return tuple(total)


def _build_hull(m, unique_points):
    frame = _AffineFrame(unique_points)
    r = frame.dim
    if r == 0:
        return frame, [unique_points[0]], []
    if r == 1:
        order = sorted(unique_points, key=lambda p: frame.coords(p)[0])
        lo, hi = order[0], order[-1]
        e = _primitive(tuple(b - a for a, b in zip(lo, hi)))
        neg = tuple(-x for x in e)
        return frame, [lo, hi], [Facet((0,), neg, _dot(neg, lo)),
                                 Facet((1,), e, _dot(e, hi))]
    if r == 2:
        # hull in the plane's own coordinates (the ambient ones when m = 2)
        # so that CCW order is meaningful
        work = {p: p if m == 2 else frame.coords(p) for p in unique_points}
        inv = {w: p for p, w in work.items()}
        verts = [inv[c] for c in _hull_2d(list(work.values()))]
        if m == 3:
            # the frame's orientation depends on which points built it:
            # start at the lex-min vertex, towards its lex-smaller neighbour
            i = verts.index(min(verts))
            verts = verts[i:] + verts[:i]
            if verts[-1] < verts[1]:
                verts = verts[:1] + verts[:0:-1]
        facets = []
        for i, a in enumerate(verts):
            j = (i + 1) % len(verts)
            b, c = verts[j], verts[(j + 1) % len(verts)]
            if m == 2:
                nrm = (b[1] - a[1], a[0] - b[0])
            else:
                # e x (e x (c - a)), e = b - a: in the plane, away from c
                e = _sub3(b, a)
                nrm = _primitive(_cross3(e, _cross3(e, _sub3(c, a))))
            facets.append(Facet((i, j), nrm, _dot(nrm, a)))
        return frame, verts, facets
    # r == 3 implies m == 3 (m > 3 never builds a hull): work in ambient
    pts = list(unique_points)
    triangles = _hull_3d(pts)
    groups: dict[tuple, set] = {}
    for tri in triangles:
        nrm = _primitive(_tri_normal(pts, tri))
        off = _dot(nrm, pts[tri[0]])
        groups.setdefault((nrm, off), set()).update(pts[i] for i in tri)
    # the triangulation may use points inside a facet or on an edge; the
    # corners of a facet are the 2-d hull of its points, projected along
    # an axis the facet is not parallel to
    corners = {}
    for (nrm, off), members in groups.items():
        axis = next(i for i, x in enumerate(nrm) if x != 0)
        flat = {p[:axis] + p[axis + 1:]: p for p in members}
        corners[nrm, off] = [flat[q] for q in _hull_2d(list(flat))]
    verts = sorted({p for cs in corners.values() for p in cs})
    vid = {p: i for i, p in enumerate(verts)}
    facets = [Facet(tuple(sorted(vid[p] for p in cs)), nrm, off)
              for (nrm, off), cs in sorted(corners.items())]
    return frame, verts, facets


def _primitive(vec):
    """Scale a nonzero rational vector to coprime integers, keeping sign."""
    from math import gcd, lcm
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    return tuple(Fraction(i // g) for i in ints)


def _complement(basis, m):
    """Exact basis of the orthogonal complement of span(basis) in Q^m:
    Gram-Schmidt over the basis, then over the unit vectors."""
    units = [tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m)]
    ortho = []
    for v in [*basis, *units]:
        for q in ortho:
            f = _dot(v, q) / _dot(q, q)
            v = tuple(a - f * b for a, b in zip(v, q))
        if any(v):
            ortho.append(v)
    return ortho[len(basis):]


def _support_hull(Phi: PotentialLC):
    """(frame, vertices, facets) of the rotation set from support queries,
    each the mean of one cycle maximizing d . Phi, asked once per
    direction; vertices and facets are None for m > 3."""
    recoded = recode_to_one_step(Phi.sft, Phi.k)
    vecs = [tuple(map(_snap, vec)) for vec in Phi.state_values()]
    answers = {}

    def support(d):
        d = _primitive(d)
        if d not in answers:
            answers[d] = lex_extreme_cycle(recoded, vecs, [d])[1]
        return answers[d]

    m = Phi.m
    pts = {support((1,) + (0,) * (m - 1))}
    while True:
        frame = _AffineFrame(sorted(pts))
        found = {support(tuple(s * x for x in v))
                 for v in _complement(frame.basis, m) for s in (1, -1)}
        pts |= found
        if all(frame.coords(p) is not None for p in found):
            break
    if m > 3:
        return frame, None, None
    while True:
        frame, verts, facets = _build_hull(m, sorted(pts))
        beyond = {p for f in facets for p in [support(f.normal)]
                  if _dot(f.normal, p) > f.offset}
        if not beyond:
            return frame, verts, facets
        pts |= beyond


def rotation_set(Phi: PotentialLC, orbits=None) -> RotationPolytope:
    """Rotation polytope of a vector potential.

    Given an orbit list, the hull of its averages, which generator_points
    lists.  Otherwise the hull comes from exact support queries and no
    orbit is enumerated; generator_points is then empty.
    """
    m, gens = Phi.m, []
    if orbits is None:
        frame, verts, facets = _support_hull(Phi)
    else:
        avgs = orbit_averages(Phi, orbits)
        gens, unique = list(enumerate(avgs)), sorted(set(avgs))
        frame, verts, facets = ((_AffineFrame(unique), None, None) if m > 3
                                else _build_hull(m, unique))
    return RotationPolytope(m, gens, frame.dim, verts, facets, m > 3, frame)


@dataclass
class FaceFingerprint:
    """Argmax data of a direction over the orbit averages."""

    direction: tuple
    max_value: object
    orbit_set: tuple[int, ...]


def face_in_direction(Phi: PotentialLC, alpha, orbits=None,
                      tol: float = 1e-9) -> FaceFingerprint:
    """Orbits whose averages maximize alpha . rv.

    Exact argmax for rational directions on exact potentials; float
    inputs are compared after a 1e-9 snap.
    """
    if orbits is None:
        orbits = elementary_orbits(Phi.sft, Phi.k)
    alpha = tuple(alpha)
    if len(alpha) != Phi.m:
        raise InvalidArgumentError("direction length must equal potential dimension")
    exact = Phi.mode == "exact" and all(isinstance(a, (int, Fraction)) for a in alpha)
    if exact:
        avgs = orbit_averages(Phi, orbits)
        vals = [_dot(alpha, v) for v in avgs]
        best = max(vals)
        ids = tuple(i for i, v in enumerate(vals) if v == best)
        return FaceFingerprint(alpha, best, ids)
    vals = [sum(float(a) * float(x) for a, x in zip(alpha, birkhoff_average(o, Phi)))
            for o in orbits]
    best = max(vals)
    ids = tuple(i for i, v in enumerate(vals) if v >= best - tol)
    return FaceFingerprint(alpha, best, ids)


@dataclass
class GenericityReport:
    generic: bool
    vertex_violations: list
    boundary_violations: list
    affine_dim: int


def genericity_check(Phi: PotentialLC, orbits=None) -> GenericityReport:
    """Check the open-dense genericity conditions for m <= 3.

    (a) orbits at a common hull vertex must share their cylinder set;
    (b) no orbit average may sit on the relative boundary off a vertex.
    """
    if Phi.m > 3:
        raise UnsupportedDimensionError("genericity check supports m <= 3 only")
    if orbits is None:
        orbits = elementary_orbits(Phi.sft, Phi.k)
    poly = rotation_set(Phi, orbits)
    avgs = orbit_averages(Phi, orbits)
    vertex_violations = []
    boundary_violations = []
    if poly.affine_dim == 0:
        at_vertex = list(range(len(orbits)))
        for i in range(len(at_vertex)):
            for j in range(i + 1, len(at_vertex)):
                a, b = at_vertex[i], at_vertex[j]
                if orbits[a].cylinders != orbits[b].cylinders:
                    vertex_violations.append((0, (a, b)))
        return GenericityReport(not vertex_violations, vertex_violations, [], 0)
    vset = {v: idx for idx, v in enumerate(poly.vertices)}
    for vtx, vidx in vset.items():
        at = [i for i, a in enumerate(avgs) if a == vtx]
        for i in range(len(at)):
            for j in range(i + 1, len(at)):
                a, b = at[i], at[j]
                if orbits[a].cylinders != orbits[b].cylinders:
                    vertex_violations.append((vidx, (a, b)))
    for i, a in enumerate(avgs):
        if a in vset:
            continue
        if poly.membership(a) == "boundary":
            boundary_violations.append(i)
    ok = not vertex_violations and not boundary_violations
    return GenericityReport(ok, vertex_violations, boundary_violations, poly.affine_dim)


def face_segment(poly: RotationPolytope, fingerprint: FaceFingerprint, avgs):
    """Endpoints of a one-dimensional face picked out by a fingerprint.

    Returns (e0, e1, tangent); raises DegenerateFaceError when the face
    is a single point.
    """
    pts = sorted({avgs[i] for i in fingerprint.orbit_set})
    frame = _AffineFrame(pts)
    if frame.dim == 0:
        raise DegenerateFaceError("face is a vertex, not a segment")
    if frame.dim > 1:
        raise InvalidArgumentError("face is not one-dimensional")
    tangent = frame.basis[0]
    keyed = sorted(pts, key=lambda p: frame.coords(p)[0])
    return keyed[0], keyed[-1], tangent
