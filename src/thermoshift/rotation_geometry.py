"""Rotation sets, faces, and genericity checks.

The rotation set of an m-vector potential is the convex hull of the
Birkhoff averages of the elementary periodic orbits.  All hull geometry
here is exact and runs on integer coordinates: each potential's values,
float ones snapped to a 1e-9 grid first, are scaled once to integer rows
over their common denominator L (``PotentialLC._int_rows``).  An orbit's
average is its integer row sum over period * L, a point set is put over
one common denominator D, and facet tests compare a . X against b in
ints; Fractions are made only for what is returned.  Without an orbit
list, support queries (one max-cycle-mean run per integer direction)
grow the affine span and then certify every facet.  One builder, double
description in the chart of the affine span, gives vertices and facets
for every m and every affine dimension.  A potential keeps its own
polytope once built, by rotation_set from support queries or by
genericity_check from its census, in a form that holds nothing but the
vertices and facets (``_canonical``); every later call reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .core_sft import _int_weights
from .errors import InvalidArgumentError, ResourceLimitError
from .max_face import extreme_cycle
from .orbits import birkhoff_average, elementary_orbits
from .potential import FLOAT_EQ_TOL, PotentialLC, _snap


def _state_cycles(Phi: PotentialLC, orbits):
    """Each orbit of a caller's list as its cycle of states of Phi's
    recoding, read block by block at Phi's window.  Raises
    InvalidArgumentError unless every block is a state and every step,
    the last back to the first included, is an edge of the recoding: the
    orbit is then one of Phi's shift."""
    recoded = Phi._recoded
    index, allowed = recoded.block_index(), set(recoded.edges())
    out = []
    for o in orbits:
        ids = [index.get(b) for b in o.blocks(Phi.k)]
        if None in ids or not allowed.issuperset(zip(ids, ids[1:] + ids[:1])):
            raise InvalidArgumentError(
                f"orbit {o.segment} is not an orbit of the potential's shift")
        out.append(ids)
    return out


def _orbit_sums(Phi: PotentialLC, orbits, census: bool = False):
    """Each average of orbits as (s, e), the int vector s over e: the sum
    of Phi's integer rows along the orbit's states over its period times
    L.  The census of Phi's own shift (``census``) is read by its
    ``state_cycle``s; any other list is checked by ``_state_cycles``."""
    rows, L = Phi._int_rows
    cycles = [o.state_cycle for o in orbits] if census else _state_cycles(Phi, orbits)
    return [(tuple(map(sum, zip(*(rows[v] for v in ids)))), len(ids) * L) for ids in cycles]


def _ratios(s, e) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, e) for x in s)


def _scale(points):
    """(X, D) for points (s, e), each the vector s / e: D is the lcm of
    the e, and X lists each point as the int vector s * (D / e)."""
    D = lcm(*(e for _, e in points))
    return [tuple(x * (D // e) for x in s) for s, e in points], D


def orbit_averages(Phi: PotentialLC, orbits) -> tuple[tuple[Fraction, ...], ...]:
    """Exact orbit averages of the values snapped to the grid: the points
    the support queries of rotation_set see.  Raises InvalidArgumentError
    for an orbit that is not one of Phi's shift (``_state_cycles``)."""
    return tuple(_ratios(s, e) for s, e in _orbit_sums(Phi, orbits))


# -- exact affine frame ----------------------------------------------------

def _primitive(v):
    g = gcd(*v)
    return [x // g for x in v]


class _AffineFrame:
    """Affine hull of integer points X, which stand for X / den.

    ``corners`` are the ids of the points that built it: the origin and
    one point per basis vector, basis[j] = points[corners[j + 1]] - origin.
    The span projects one to one onto the coordinates ``pivots``.
    """

    def __init__(self, points, den):
        self.origin, self.den = points[0], den
        self.basis: list[tuple[int, ...]] = []
        self.corners = [0]
        self.pivots: list[int] = []
        self._ech: list[list[int]] = []     # primitive, zero at the earlier pivots
        for i, p in enumerate(points):
            if len(self.basis) == len(p):
                break
            diff = [a - b for a, b in zip(p, self.origin)]
            red = self._reduce(diff)
            pivot = next((j for j, x in enumerate(red) if x), None)
            if pivot is not None:
                self.basis.append(tuple(diff))
                self.corners.append(i)
                self.pivots.append(pivot)
                self._ech.append(_primitive(red))
        self.dim = len(self.basis)

    def _reduce(self, v):
        """v less a combination of the echelon rows, times a nonzero int:
        zero exactly when v lies in the span."""
        for e, pivot in zip(self._ech, self.pivots):
            f = v[pivot]
            if f:
                g = e[pivot]
                v = [g * a - f * b for a, b in zip(v, e)]
        return v

    def contains(self, y, e) -> bool:
        """Whether the point y / e lies on the affine hull."""
        return not any(self._reduce([a * self.den - o * e for a, o in zip(y, self.origin)]))

    def complement(self) -> list[tuple[int, ...]]:
        """Primitive int vectors spanning the orthogonal complement of the
        span: the kernel of the echelon rows, read off once each pivot
        column is cleared from the other rows."""
        rows = [list(e) for e in self._ech]
        for j in reversed(range(self.dim)):
            pj, ej = self.pivots[j], rows[j]
            for i, row in enumerate(rows):
                if i != j and row[pj]:
                    rows[i] = _primitive([ej[pj] * a - row[pj] * b for a, b in zip(row, ej)])
        M = lcm(*(row[p] for row, p in zip(rows, self.pivots)))
        out = []
        for c in range(len(self.origin)):
            if c not in self.pivots:
                x = [0] * len(self.origin)
                x[c] = M
                for row, p in zip(rows, self.pivots):
                    x[p] = -row[c] * (M // row[p])
                out.append(tuple(_primitive(x)))
        return out


# -- exact hull by double description --------------------------------------

HULL_FACET_CAP = 5000   # rays (candidate facets) a hull build may hold at any step


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _int_inverse(rows):
    """A positive integer multiple of the inverse of a nonsingular integer
    matrix: Gauss-Jordan on [A | I], each row kept primitive."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p] = a[p], a[k]
        piv = a[k]
        for i in range(n):
            if i != k and a[i][k]:
                f, g = a[i][k], piv[k]
                row = [g * x - f * y for x, y in zip(a[i], piv)]
                d = gcd(*row)
                a[i] = [x // d for x in row]
    # [D | E] with E A = D diagonal: scale row i by den / D[i][i]
    den = lcm(*(row[i] for i, row in enumerate(a)))
    return [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(a)]


def _ray(a, b, zeros):
    g = gcd(b, *a)
    return [u // g for u in a], b // g, zeros


def _dd_facets(pts, corners):
    """Facets of the hull of integer points in Z^r whose affine hull is
    all of Q^r, with pts[corners[0]] = 0 and corners r + 1 affinely
    independent point ids.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996) of the cone {(a, b): a . x <= b for every point x}:
    its extreme rays are the facets.  It starts from the simplex on the
    corners and adds one point at a time; two rays are adjacent when no
    third ray's zero set contains their common one.  Returns [(a, b, bit
    mask of the point ids on the facet)], each (a, b) primitive.
    """
    r = len(pts[0])
    cols = list(zip(*_int_inverse([pts[i] for i in corners[1:]])))
    top = [sum(c) for c in zip(*cols)]
    rays = [_ray([-x for x in c], 0, 0) for c in cols]
    rays.append(_ray(top, _dot(top, pts[corners[1]]), 0))
    for i in corners + [i for i in range(len(pts)) if i not in corners]:
        x, bit = pts[i], 1 << i
        slack = [b - _dot(a, x) for a, b, _ in rays]
        masks = [z for _, _, z in rays]
        pos = [p for p, s in enumerate(slack) if s > 0]
        new = []
        for q, sq in enumerate(slack):
            if sq >= 0:
                continue
            for p in pos:
                common = masks[p] & masks[q]
                if common.bit_count() < r - 1 or any(
                        z & common == common for k, z in enumerate(masks)
                        if k != p and k != q):
                    continue
                (ap, bp, _), (aq, bq, _), sp = rays[p], rays[q], slack[p]
                a = [sp * u - sq * v for u, v in zip(aq, ap)]
                new.append(_ray(a, sp * bq - sq * bp, common | bit))
        rays = [(a, b, z | bit) if s == 0 else (a, b, z)
                for (a, b, z), s in zip(rays, slack) if s >= 0] + new
        if len(rays) > HULL_FACET_CAP:
            raise ResourceLimitError(f"hull build exceeded facet cap {HULL_FACET_CAP}")
    return rays


@dataclass(frozen=True)
class Facet:
    """A facet given by vertex indices, an outward normal, and its offset.

    The normal is the primitive outward integer vector in the span of the
    hull that is orthogonal to the facet, so the same point set always
    gives the same facets.
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
    vertices: list           # ambient exact points, canonical order
    facets: list
    frame: _AffineFrame | None = field(default=None, repr=False)

    def membership(self, point) -> str:
        """'interior', 'boundary', or 'outside' relative to the affine hull;
        InvalidArgumentError for a point whose length is not m."""
        point = tuple(point)
        if len(point) != self.m:
            raise InvalidArgumentError("point length must equal potential dimension")
        y, e = _int_weights([_snap(x) for x in point])[:2]
        if not self.frame.contains(y, e):
            return "outside"
        on_facet = False
        for f in self.facets:
            # normal . y / e against the offset p / q
            val = _dot([x.numerator for x in f.normal], y) * f.offset.denominator
            bound = f.offset.numerator * e
            if val > bound:
                return "outside"
            if val == bound:
                on_facet = True
        return "boundary" if on_facet else "interior"

    def vertex_direction(self, vertex_id: int) -> tuple:
        """An ambient direction whose argmax face is exactly this vertex."""
        if self.affine_dim == 0:
            return tuple(Fraction(0) for _ in range(self.m))
        total = [0] * self.m
        for f in self.facets:
            if vertex_id in f.vertex_ids:
                for i, x in enumerate(f.normal):
                    total[i] += x.numerator
        if not any(total):
            raise InvalidArgumentError(f"vertex {vertex_id} has no adjacent facets")
        return tuple(map(Fraction, total))


def _build_hull(points, den):
    """(frame, vertex ids, facets) of the hull of the distinct integer
    points X / den, given in sorted order; each facet is (the positions of
    its vertices in the vertex list, its normal a, its offset b), with
    a . X <= b on the hull.

    The facets come from _dd_facets in the chart of dimension r that keeps
    the frame's pivot coordinates of the points less the origin (all of
    them when r == m); each normal is the primitive outward vector in the
    span orthogonal to its facet.  A point is a vertex when the points on
    all of its facets are it alone.
    Canonical order: for r == 2 the polygon walked from its lex-min
    vertex, counterclockwise when m == 2 and otherwise towards the
    lex-smaller neighbour, edge i joining vertices i and i + 1; for any
    other r sorted vertices and facets sorted by (normal, offset).
    """
    m = len(points[0])
    frame = _AffineFrame(points, den)
    r = frame.dim
    if r == 0:
        return frame, [0], []
    axes = sorted(frame.pivots)
    chart = [tuple(p[k] - points[0][k] for k in axes) for p in points]
    lift = None
    if r < m:
        # a . x on the chart is n . x on the span for n the projection onto
        # the span of a placed on the axes: n = B^T (B B^T)^-1 B_axes a
        base = frame.basis
        ginv = _int_inverse([[_dot(u, v) for v in base] for u in base])
        proj = [[_dot(col, g) for g in zip(*ginv)] for col in zip(*base)]
        lift = [[_dot(row, [b[k] for b in base]) for k in axes] for row in proj]
    rays = _dd_facets(chart, frame.corners)
    ids = range(len(chart))
    cover = [-1] * len(chart)
    for _, _, z in rays:
        for i in ids:
            if z >> i & 1:
                cover[i] &= z
    # point ids follow the sorted order, so comparing ids compares points
    verts = [i for i in ids if cover[i] == 1 << i]
    found = {}
    for a, _, z in rays:
        n = tuple(_primitive(a if lift is None else [_dot(row, a) for row in lift]))
        on = tuple(i for i in verts if z >> i & 1)
        found[on] = (n, _dot(n, points[on[0]]))
    if r == 2:
        nbrs = {i: [] for i in verts}
        for p, q in found:
            nbrs[p].append(q)
            nbrs[q].append(p)
        s = verts[0]
        b, c = nbrs[s]
        (x0, y0), (x1, y1), (x2, y2) = chart[s], chart[b], chart[c]
        if c < b if m > 2 else (x1 - x0) * (y2 - y0) < (y1 - y0) * (x2 - x0):
            b = c
        verts = [s, b]
        while len(verts) < len(nbrs):
            verts.append(next(q for q in nbrs[verts[-1]] if q != verts[-2]))
        facets = []
        for i, p in enumerate(verts):
            j = (i + 1) % len(verts)
            facets.append(((i, j), *found[min(p, verts[j]), max(p, verts[j])]))
    else:
        vid = {p: i for i, p in enumerate(verts)}
        facets = sorted(((tuple(vid[p] for p in on), n, b) for on, (n, b) in found.items()),
                        key=lambda f: f[1:])
    return frame, verts, facets


def _support_hull(Phi: PotentialLC):
    """(points, den, hull) of the rotation set from support queries, each
    the mean of one cycle maximizing d . Phi for an integer direction d,
    asked once per direction; hull is ``_build_hull(points, den)``."""
    recoded = Phi._recoded
    rows, L = Phi._int_rows
    answers = {}

    def support(d):
        if d not in answers:
            cyc, s = extreme_cycle(recoded, rows, d)
            answers[d] = s, len(cyc) * L
        return answers[d]

    def frame(pts):
        X, D = _scale(pts)
        return _AffineFrame(sorted(set(X)), D)

    m = Phi.m
    pts = {support((1,) + (0,) * (m - 1))}
    span = frame(pts)
    while True:
        pts |= {support(tuple(s * x for x in v)) for v in span.complement() for s in (1, -1)}
        grown = frame(pts)
        if grown.dim == span.dim:
            break
        span = grown
    while True:
        X, D = _scale(pts)
        points = sorted(set(X))
        hull = _build_hull(points, D)
        beyond = {p for _, a, b in hull[2] for p in [support(a)]
                  if _dot(a, p[0]) * D > b * p[1]}
        if not beyond:
            return points, D, hull
        pts |= beyond


def _canonical(points, den, hull):
    """The hull (frame, vertex ids, facets) = ``_build_hull(points, den)``
    as a potential keeps it: (vertices, facets, den, affine dim), with the
    vertices in canonical order as int vectors over their own common
    denominator den and each facet as (vertex positions, normal, offset
    over den).  No point of the hull but its vertices shows in it, so it
    is the same whichever points it was built from."""
    frame, verts, facets = hull
    g = gcd(den, *(x for i in verts for x in points[i]))
    return (tuple(tuple(x // g for x in points[i]) for i in verts),
            tuple((ids, a, b // g) for ids, a, b in facets), den // g, frame.dim)


def _kept_hull(Phi: PotentialLC, build):
    """Phi's rotation hull in ``_canonical`` form, made by build() on
    first use and kept with Phi, like the rest of its shared data
    (``PotentialLC``)."""
    kept = vars(Phi)
    if "_rotation_hull" not in kept:
        kept["_rotation_hull"] = build()
    return kept["_rotation_hull"]


def _polytope(m: int, hull, gens=()) -> RotationPolytope:
    """A fresh RotationPolytope of a ``_canonical`` hull, with its frame
    built from the sorted vertices alone."""
    verts, facets, den, dim = hull
    return RotationPolytope(
        m, list(gens), dim, [_ratios(v, den) for v in verts],
        [Facet(ids, tuple(map(Fraction, a)), Fraction(b, den)) for ids, a, b in facets],
        _AffineFrame(sorted(verts), den))


def rotation_set(Phi: PotentialLC, orbits=None) -> RotationPolytope:
    """Rotation polytope of a vector potential.

    Without an orbit list, Phi's own polytope, built once per potential
    by whichever of rotation_set and genericity_check comes first and
    kept with Phi: here from exact support queries, with no orbit
    enumerated.  Every call returns a fresh polytope, whose
    generator_points is empty.  Given an orbit list, the hull of its own
    averages, which generator_points lists; it neither reads nor fills
    the kept polytope.  InvalidArgumentError for an orbit that is not
    one of Phi's shift.
    """
    if orbits is None:
        return _polytope(Phi.m, _kept_hull(Phi, lambda: _canonical(*_support_hull(Phi))))
    sums = _orbit_sums(Phi, orbits)
    X, den = _scale(sums)
    points = sorted(set(X))
    return _polytope(Phi.m, _canonical(points, den, _build_hull(points, den)),
                     [(i, _ratios(s, e)) for i, (s, e) in enumerate(sums)])


@dataclass
class FaceFingerprint:
    """Argmax data of a direction over the orbit averages."""

    direction: tuple
    max_value: object
    orbit_set: tuple[int, ...]


def face_in_direction(Phi: PotentialLC, alpha, orbits=None) -> FaceFingerprint:
    """Orbits whose averages maximize alpha . rv.

    Exact argmax for rational directions on exact potentials.  Otherwise
    alpha . rv is taken in doubles on each orbit's raw, unsnapped
    ``birkhoff_average``, and the orbits within FLOAT_EQ_TOL of the best
    are kept.  Without an orbit list, the census of Phi's shift; a given list
    must hold orbits of that shift (InvalidArgumentError otherwise).
    """
    alpha = tuple(alpha)
    if len(alpha) != Phi.m:
        raise InvalidArgumentError("direction length must equal potential dimension")
    census = orbits is None
    if census:
        orbits = elementary_orbits(Phi.sft, Phi.k)
    exact = Phi.mode == "exact" and all(isinstance(a, (int, Fraction)) for a in alpha)
    if exact:
        a, c = _int_weights([Fraction(x) for x in alpha])[:2]
        X, D = _scale(_orbit_sums(Phi, orbits, census))
        vals = [_dot(a, x) for x in X]
        best = max(vals)
        ids = tuple(i for i, v in enumerate(vals) if v == best)
        return FaceFingerprint(alpha, Fraction(best, c * D), ids)
    if not census:
        _state_cycles(Phi, orbits)
    vals = [sum(float(a) * float(x) for a, x in zip(alpha, birkhoff_average(o, Phi)))
            for o in orbits]
    best = max(vals)
    ids = tuple(i for i, v in enumerate(vals) if v >= best - FLOAT_EQ_TOL)
    return FaceFingerprint(alpha, best, ids)


@dataclass
class GenericityReport:
    generic: bool
    vertex_violations: list
    boundary_violations: list
    affine_dim: int


def genericity_check(Phi: PotentialLC, orbits=None) -> GenericityReport:
    """Check the open-dense genericity conditions.

    (a) orbits at a common hull vertex must share their cylinder set;
    (b) no orbit average may sit on the relative boundary off a vertex.
    Without an orbit list, the census of Phi's shift, classified against
    Phi's own polytope: it is built once per potential by whichever of
    rotation_set and genericity_check comes first and kept with Phi, here
    from the hull of the census averages.  A given list must hold orbits
    of that shift (InvalidArgumentError otherwise); the hull of its own
    averages is taken, and the kept polytope is neither read nor filled.
    """
    census = orbits is None
    if census:
        orbits = elementary_orbits(Phi.sft, Phi.k)
    X, den = _scale(_orbit_sums(Phi, orbits, census))

    def build():
        points = sorted(set(X))
        return _canonical(points, den, _build_hull(points, den))

    verts, facets, D, dim = _kept_hull(Phi, build) if census else build()
    # every vertex is one of the averages, so D divides den
    c = den // D
    vertices = [tuple(x * c for x in v) for v in verts]
    facets = [(a, b * c) for _, a, b in facets]
    at = {}                         # orbit indices by average
    for i, x in enumerate(X):
        at.setdefault(x, []).append(i)
    vertex_violations = [(vidx, (a, b)) for vidx, v in enumerate(vertices)
                         for a, b in combinations(at[v], 2)
                         if orbits[a].cylinders != orbits[b].cylinders]
    # every average lies in the hull: it is on the boundary when on a facet
    vertices = set(vertices)
    boundary_violations = sorted(
        i for x, ids in at.items() if x not in vertices
        and any(_dot(a, x) == b for a, b in facets) for i in ids)
    ok = not vertex_violations and not boundary_violations
    return GenericityReport(ok, vertex_violations, boundary_violations, dim)
