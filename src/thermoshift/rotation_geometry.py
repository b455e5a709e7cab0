"""Rotation sets, faces, and genericity checks.

The rotation set of an m-vector potential is the convex hull of the
Birkhoff averages of the elementary periodic orbits.  All hull geometry
here runs in exact rational arithmetic; float-mode potentials are
snapped to a 1e-9 grid first.  Without an orbit list, support queries
(one max-cycle-mean run per direction) grow the affine span and then
certify every facet.  One builder, double description in the chart of
the affine span, gives vertices and facets for every m and every affine
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .core_sft import recode_to_one_step
from .errors import DegenerateFaceError, InvalidArgumentError, ResourceLimitError
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
    """Affine hull of a point set with exact coordinates in a basis.

    ``corners`` are the ids of the points that built it: the origin and
    one point per basis vector, basis[j] = points[corners[j + 1]] - origin.
    The span projects one to one onto the coordinates ``pivots``.
    """

    def __init__(self, points):
        self.origin = points[0]
        self.basis: list[tuple[Fraction, ...]] = []
        self.corners = [0]
        self.pivots: list[int] = []
        # echelon rows: (reduced vector, its coefficients in the basis, pivot)
        self._ech: list[tuple[list[Fraction], list[Fraction], int]] = []
        for i, p in enumerate(points):
            diff = [a - b for a, b in zip(p, self.origin)]
            red, f = self._reduce(diff)
            pivot = next((j for j, x in enumerate(red) if x != 0), None)
            if pivot is not None:
                # red = diff - sum f[e] ech[e], and each ech[e] is a
                # combination of the earlier basis vectors
                coeffs = [Fraction(0)] * len(self.basis) + [Fraction(1)]
                for fe, (_, c, _) in zip(f, self._ech):
                    for j, cj in enumerate(c):
                        coeffs[j] -= fe * cj
                self.basis.append(tuple(diff))
                self.corners.append(i)
                self.pivots.append(pivot)
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
        """Coordinates c of a point in the basis, point = origin +
        sum c[j] basis[j], or None if off the hull."""
        diff = [a - b for a, b in zip(point, self.origin)]
        red, coeffs = self._reduce(diff)
        if any(x != 0 for x in red):
            return None
        out = [Fraction(0)] * self.dim
        for f, (_, c, _) in zip(coeffs, self._ech):
            for j, cj in enumerate(c):
                out[j] += f * cj
        return tuple(out)


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
        """'interior', 'boundary', or 'outside' relative to the affine hull."""
        pt = tuple(_snap(x) for x in point)
        if self.frame.coords(pt) is None:
            return "outside"
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
    """(frame, vertices, facets) of the hull of distinct exact points,
    given in sorted order.

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
    frame = _AffineFrame(unique_points)
    r = frame.dim
    if r == 0:
        return frame, [unique_points[0]], []
    den = lcm(*(x.denominator for p in unique_points for x in p))
    ints = [tuple(x.numerator * (den // x.denominator) for x in p) for p in unique_points]
    axes = sorted(frame.pivots)
    chart = [tuple(p[k] - ints[0][k] for k in axes) for p in ints]
    lift = None
    if r < m:
        # a . x on the chart is n . x on the span for n the projection onto
        # the span of a placed on the axes: n = B^T (B B^T)^-1 B_axes a
        base = [tuple(u - v for u, v in zip(ints[i], ints[0])) for i in frame.corners[1:]]
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
        n = a if lift is None else [_dot(row, a) for row in lift]
        g = gcd(*n)
        on = tuple(i for i in verts if z >> i & 1)
        found[on] = Facet(on, tuple(Fraction(x // g) for x in n),
                          Fraction(_dot(n, ints[on[0]]), den * g))
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
            f = found[min(p, verts[j]), max(p, verts[j])]
            facets.append(Facet((i, j), f.normal, f.offset))
    else:
        vid = {p: i for i, p in enumerate(verts)}
        facets = sorted((Facet(tuple(vid[p] for p in f.vertex_ids), f.normal, f.offset)
                         for f in found.values()), key=lambda f: (f.normal, f.offset))
    return frame, [unique_points[i] for i in verts], facets


def _primitive(vec):
    """Scale a nonzero rational vector to coprime integers, keeping sign."""
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
    direction."""
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
        frame, verts, facets = _build_hull(m, unique)
    return RotationPolytope(m, gens, frame.dim, verts, facets, frame)


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
    """Check the open-dense genericity conditions.

    (a) orbits at a common hull vertex must share their cylinder set;
    (b) no orbit average may sit on the relative boundary off a vertex.
    """
    if orbits is None:
        orbits = elementary_orbits(Phi.sft, Phi.k)
    poly = rotation_set(Phi, orbits)
    at = {}                         # orbit indices by average
    for i, a in poly.generator_points:
        at.setdefault(a, []).append(i)
    vertex_violations = [(vidx, (a, b)) for vidx, v in enumerate(poly.vertices)
                         for a, b in combinations(at[v], 2)
                         if orbits[a].cylinders != orbits[b].cylinders]
    # every average lies in the hull: it is on the boundary when on a facet
    vertices = set(poly.vertices)
    boundary_violations = sorted(
        i for a, ids in at.items() if a not in vertices
        and any(_dot(f.normal, a) == f.offset for f in poly.facets) for i in ids)
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
