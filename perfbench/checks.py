"""Output checks for the benchmark's ops.

No check calls the function it checks.  Expected values come from the
documented builtin examples, from the brute-force oracles in
``tests/oracles.py`` (simple-cycle search, numpy eigenvalues), and from
the exact certificates below (Bellman-Ford on integer-scaled weights,
support directions on brute-force orbit averages).  A failed check
raises ``CheckFailed`` with a short reason.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
from fractions import Fraction
from math import lcm

import numpy as np

COH = "CohomologousToConstant"
VP = "VertexPeriodic"
UT = "UniqueTransitive"
MC = "MultiComponent"

# case and beta of each scalar builtin, as documented in builtins.py
BUILTIN_CASES = {
    "fix0": (VP, 1), "fix1": (VP, 1), "alt01": (VP, 2), "cob1": (COH, 1),
    "gold0": (UT, 2), "gold1": (UT, 2), "hubmax": (UT, 2), "twofix": (MC, 1),
    "twofix_skew": (MC, 2), "threefix_a": (MC, 4), "threefix_b": (MC, 4),
    "threefix_c": (MC, 4),
}
BUILTIN_COEFFICIENTS = {
    "twofix": (0.5, 0.5), "twofix_skew": (0.5, 0.5),
    "threefix_a": (0.5, 0.25, 0.25), "threefix_b": (1 / 3, 1 / 3, 1 / 3),
    "threefix_c": (0.5, 0.5, 0.0),
}
SWEEP_TOL = 1e-4        # the sweep's documented agreement with the limit
ROUND_TOL = 1e-12       # float rounding allowed on a probability weight
MARKOV_TOL = 1e-9
PRESSURE_RTOL = 1e-7
BRUTE_MAX_STATES = 10   # simple-cycle search stays cheap up to here


class CheckFailed(Exception):
    """An op returned a wrong or malformed result."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def load_oracles(path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- exact max-mean certificates ---------------------------------------------

def _scaled(weights, shift):
    den = lcm(*(Fraction(w).denominator for w in weights),
              Fraction(shift).denominator)
    return [int((Fraction(w) - shift) * den) for w in weights]


def _longest_paths(n, edges, w):
    """Longest-path potentials from a virtual source, or None when a
    positive cycle exists (edge a -> b carries the weight of a)."""
    dist = [0] * n
    for _ in range(n + 1):
        changed = False
        for a, outs in edges.items():
            da = dist[a] + w[a]
            for b in outs:
                if da > dist[b]:
                    dist[b] = da
                    changed = True
        if not changed:
            return dist
    return None


def _has_cycle(n, edges) -> bool:
    state = [0] * n
    for root in range(n):
        if state[root]:
            continue
        stack = [(root, iter(edges.get(root, ())))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state[nxt] == 1:
                return True
            elif state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(edges.get(nxt, ()))))
    return False


def certify_max_mean(n, edges, weights, beta) -> bool:
    """True when beta is exactly the maximum cycle mean: no cycle has a
    positive weight under weights - beta, and a cycle of tight edges
    (mean exactly beta) exists."""
    w = _scaled(weights, beta)
    dist = _longest_paths(n, edges, w)
    if dist is None:
        return False
    tight = {a: [b for b in outs if dist[a] + w[a] == dist[b]]
             for a, outs in edges.items()}
    return _has_cycle(n, tight)


def is_coboundary_plus(n, edges, weights, c) -> bool:
    """True when every cycle mean equals c (no positive cycle under
    weights - c, and none under c - weights)."""
    w = _scaled(weights, c)
    return (_longest_paths(n, edges, w) is not None
            and _longest_paths(n, edges, [-x for x in w]) is not None)


# -- measures ----------------------------------------------------------------

def markov_entropy(p, P) -> float:
    h = 0.0
    for i in range(len(p)):
        for j in range(len(p)):
            if P[i][j] > 0.0:
                h -= float(p[i]) * float(P[i][j]) * math.log(float(P[i][j]))
    return h


def check_markov(mu, tol: float = MARKOV_TOL) -> None:
    p = np.asarray(mu.stationary, dtype=float)
    P = np.asarray(mu.transition, dtype=float)
    require(p.min() >= -tol and abs(p.sum() - 1.0) <= tol,
            f"stationary vector not a distribution (sum {p.sum()!r})")
    require(P.min() >= -tol, "negative transition probability")
    require(np.max(np.abs(P.sum(axis=1) - 1.0)) <= tol, "rows do not sum to 1")
    require(np.max(np.abs(p @ P - p)) <= tol, "stationary vector not invariant")


def _mean_under(mu, table, coord: int = 0) -> float:
    return sum(float(p) * float(table[tuple(b)][coord])
               for p, b in zip(mu.stationary, mu.blocks))


# -- scalar checks -----------------------------------------------------------

class Instance:
    """Plain-data view of a potential for the oracles."""

    def __init__(self, rows, k, table, oracles):
        self.rows, self.k, self.table, self.oracles = rows, k, table, oracles
        blocks, edges = oracles.brute_recoded_graph(rows, k)
        self.blocks, self.edges, self.n = blocks, edges, len(blocks)

    def weights(self, coord: int = 0):
        return [self.table[b][coord] for b in self.blocks]

    def scalar(self, coord: int = 0) -> dict:
        return {b: v[coord] for b, v in self.table.items()}


def check_beta(inst: Instance, beta) -> None:
    if inst.n <= BRUTE_MAX_STATES:
        want = inst.oracles.brute_max_cycle_mean(inst.rows, inst.scalar(),
                                                 inst.k)
        require(beta == want, f"beta {beta} != brute-force {want}")
    else:
        require(certify_max_mean(inst.n, inst.edges, inst.weights(), beta),
                f"beta {beta} is not the maximum cycle mean")


def check_classify(inst: Instance, res, builtin: str | None) -> None:
    if builtin is not None:
        case, beta = BUILTIN_CASES[builtin]
        require(res.case == case, f"case {res.case}, documented {case}")
        require(res.beta == beta, f"beta {res.beta}, documented {beta}")
    check_beta(inst, res.beta)
    coh = is_coboundary_plus(inst.n, inst.edges, inst.weights(), res.beta)
    require((res.case == COH) == coh,
            f"case {res.case} but cohomologous-to-constant is {coh}")
    if res.case == COH:
        require(res.constant == res.beta, "constant differs from beta")
    ids = res.max_entropy_ids
    if res.case == MC:
        require(len(ids) >= 2 and res.limit is None,
                "MultiComponent needs two or more components and no limit")
        return
    require(len(ids) == 1 and res.limit is not None and len(res.limit) == 1,
            "a determined case has one component and one limit measure")
    weight, mu = res.limit[0]
    require(weight == 1, "limit weight is not 1")
    check_markov(mu)
    avg = _mean_under(mu, inst.table)
    require(abs(avg - float(res.beta)) <= 1e-8 * max(1.0, abs(avg)),
            f"limit measure averages {avg}, not beta {res.beta}")
    h = markov_entropy(mu.stationary, mu.transition)
    if res.case == VP:
        require(h <= 1e-12, f"periodic limit has entropy {h}")
    elif res.case == UT:
        require(h > 1e-9, "transitive limit has zero entropy")


def check_symmetry(res, coeffs, builtin: str | None) -> None:
    if coeffs is None:
        require(builtin not in ("twofix", "threefix_b"),
                "documented symmetric tie found no symmetry")
        return
    require(len(coeffs) == len(res.max_entropy_ids), "one weight per component")
    require(all(isinstance(c, Fraction) and c >= 0 for c in coeffs),
            "weights must be non-negative rationals")
    require(sum(coeffs) == 1, "weights do not sum to 1")
    if builtin in BUILTIN_COEFFICIENTS:
        want = BUILTIN_COEFFICIENTS[builtin]
        require(tuple(float(c) for c in coeffs) == want,
                f"symmetry weights {coeffs} != documented {want}")


def check_cohomology(inst: Instance, report) -> None:
    hi = inst.oracles.brute_max_cycle_mean(inst.rows, inst.scalar(), inst.k)
    neg = {b: -v for b, v in inst.scalar().items()}
    lo = -inst.oracles.brute_max_cycle_mean(inst.rows, neg, inst.k)
    want = hi == lo
    require(report.cohomologous == want,
            f"cohomologous={report.cohomologous}, max/min means {hi}/{lo}")
    if want:
        require(report.constant == hi, f"constant {report.constant} != {hi}")
    else:
        require(report.spread > 0, "non-cohomologous with zero spread")


def check_equilibrium(inst: Instance, mu, t: float) -> None:
    check_markov(mu)
    want = inst.oracles.numpy_pressure(inst.rows, inst.scalar(), inst.k, t)
    tol = PRESSURE_RTOL * max(1.0, abs(want))
    require(abs(mu.pressure - want) <= tol,
            f"pressure {mu.pressure} != numpy {want}")
    h = markov_entropy(mu.stationary, mu.transition)
    free = h + t * _mean_under(mu, inst.table)
    require(abs(free - want) <= tol,
            f"h + t*mean = {free} misses the pressure {want}")


def check_pressure(inst: Instance, value: float, t: float) -> None:
    want = inst.oracles.numpy_pressure(inst.rows, inst.scalar(), inst.k, t)
    require(abs(value - want) <= PRESSURE_RTOL * max(1.0, abs(want)),
            f"pressure {value} != numpy {want}")


def check_zt(res, builtin: str | None) -> None:
    cs = [float(c) for c in res.coefficients]
    require(len(cs) == len(res.component_ids), "one coefficient per component")
    require(min(cs) >= -ROUND_TOL, f"negative coefficient in {cs}")
    require(abs(sum(cs) - 1.0) <= 1e-9, f"coefficients sum to {sum(cs)}")
    if builtin in BUILTIN_COEFFICIENTS:
        want = BUILTIN_COEFFICIENTS[builtin]
        require(max(abs(c - w) for c, w in zip(cs, want)) <= SWEEP_TOL,
                f"coefficients {cs} != documented {want}")


# -- rotation sets -----------------------------------------------------------

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _rank(vectors) -> int:
    rows = [list(v) for v in vectors]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _hull_2d(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _on_segment(p, a, b) -> bool:
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    return (cross == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


class OrbitHull:
    """Brute-force orbit averages of a vector potential and their exact
    hull, from ``brute_simple_cycle_segments``.

    Averages are scaled by the common denominator L so that all hull
    arithmetic is on integers.  Vertices are the extreme points.  A
    full-dimensional hull in 3-space is found from its facets: every
    plane through three candidate points with all averages on one side.
    Candidates are the vertices a call reported, after support queries
    in random directions have shown that they span the same hull."""

    def __init__(self, inst: Instance, m: int):
        self.m = m
        k = inst.k
        orbits = []
        for word in inst.oracles.brute_simple_cycle_segments(inst.rows, k):
            n = len(word)
            blocks = [tuple(word[(i + j) % n] for j in range(k))
                      for i in range(n)]
            avg = tuple(sum(Fraction(inst.table[b][c]) for b in blocks) / n
                        for c in range(m))
            orbits.append((avg, frozenset(blocks)))
        self.L = lcm(*(x.denominator for avg, _ in orbits for x in avg))
        self.orbits = [(self.scale(avg), cyl) for avg, cyl in orbits]
        self.points = sorted({a for a, _ in self.orbits})
        base = self.points[0]
        self.dim = _rank([tuple(Fraction(x - y) for x, y in zip(p, base))
                          for p in self.points[1:]])
        self.plane = list(range(m))
        if self.dim == 2 and m == 3:
            # drop a coordinate the plane projects onto bijectively
            for drop in range(m):
                keep = [c for c in range(m) if c != drop]
                proj = [tuple(Fraction(p[c]) for c in keep) for p in self.points]
                if _rank([tuple(x - y for x, y in zip(q, proj[0]))
                          for q in proj[1:]]) == 2:
                    self.plane = keep
                    break
        self.vertices = None
        self.facets = []            # (outward normal, offset) when dim == 3
        self.edges = []             # hull polygon edges when dim == 2

    def scale(self, point):
        out = tuple(Fraction(x) * self.L for x in point)
        require(all(x.denominator == 1 for x in out),
                f"{point} is not an orbit average")
        return tuple(int(x) for x in out)

    def project(self, p):
        return tuple(p[c] for c in self.plane)

    def solve(self, candidates, rng: random.Random) -> None:
        """Exact vertices (and facets); ``candidates`` must span the hull."""
        if self.vertices is not None:
            return
        pts = self.points
        cands = sorted({self.scale(v) for v in candidates})
        for _ in range(24):
            c = tuple(rng.randint(-9, 9) for _ in range(self.m))
            require(max(_dot(c, p) for p in pts) == max(_dot(c, v) for v in cands),
                    f"support in direction {c} differs from the orbit hull")
        if self.dim == 0:
            self.vertices = {pts[0]}
        elif self.dim == 1:
            u = tuple(b - a for a, b in zip(pts[0], pts[-1]))
            self.vertices = {min(pts, key=lambda p: _dot(u, p)),
                             max(pts, key=lambda p: _dot(u, p))}
        elif self.dim == 2:
            hull = _hull_2d([self.project(p) for p in pts])
            self.edges = list(zip(hull, hull[1:] + hull[:1]))
            corners = set(hull)
            self.vertices = {p for p in pts if self.project(p) in corners}
        else:
            self._solve_3d(cands)

    def _solve_3d(self, cands) -> None:
        pts = self.points
        seen = set()
        for a, b, c in itertools.combinations(cands, 3):
            u = [y - x for x, y in zip(a, b)]
            w = [y - x for x, y in zip(a, c)]
            nrm = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                   u[0] * w[1] - u[1] * w[0])
            if nrm == (0, 0, 0):
                continue
            off = _dot(nrm, a)
            vals = [_dot(nrm, p) - off for p in pts]
            if min(vals) >= 0:
                nrm, off = tuple(-x for x in nrm), -off
            elif max(vals) > 0:
                continue
            on = frozenset(p for p in pts if _dot(nrm, p) == off)
            if on not in seen:
                seen.add(on)
                self.facets.append((nrm, off))
        self.vertices = set()
        for v in cands:
            cone = [0, 0, 0]
            for nrm, off in self.facets:
                if _dot(nrm, v) == off:
                    cone = [x + y for x, y in zip(cone, nrm)]
            top = max(_dot(cone, p) for p in pts)
            if [p for p in pts if _dot(cone, p) == top] == [v]:
                self.vertices.add(v)

    def check_polytope(self, poly, rng: random.Random) -> None:
        require(poly.affine_dim == self.dim,
                f"affine dimension {poly.affine_dim}, orbit averages span {self.dim}")
        verts = [self.scale(v) for v in poly.vertices]
        require(set(verts) <= set(self.points), "a vertex is not an orbit average")
        require(len(set(verts)) == len(verts), "repeated vertex")
        self.solve(poly.vertices, rng)
        extra = len(set(verts) - self.vertices)
        missing = len(self.vertices - set(verts))
        require(not extra and not missing,
                f"{extra} reported vertices are not extreme points, "
                f"{missing} extreme points are missing")

    def on_relative_boundary(self, p) -> bool:
        if self.dim == 3:
            return any(_dot(nrm, p) == off for nrm, off in self.facets)
        q = self.project(p)
        return any(_on_segment(q, a, b) for a, b in self.edges)

    def check_genericity(self, rep) -> None:
        """Against the exact hull: orbits sharing a vertex must share their
        cylinders, and no average may sit on the relative boundary off a
        vertex."""
        at_vertex: dict = {}
        boundary = 0
        for avg, cyl in self.orbits:
            if avg in self.vertices:
                at_vertex.setdefault(avg, []).append(cyl)
            elif self.on_relative_boundary(avg):
                boundary += 1
        pairs = sum(1 for cyls in at_vertex.values()
                    for i in range(len(cyls)) for j in range(i + 1, len(cyls))
                    if cyls[i] != cyls[j])
        require(rep.affine_dim == self.dim, "genericity affine dimension differs")
        require(len(rep.vertex_violations) == pairs,
                f"{len(rep.vertex_violations)} vertex violations, brute force {pairs}")
        require(len(rep.boundary_violations) == boundary,
                f"{len(rep.boundary_violations)} boundary violations, "
                f"brute force {boundary}")
        require(rep.generic == (pairs == 0 and boundary == 0),
                "generic flag disagrees with the violations")


# -- face curves and interior points ------------------------------------------

def check_face_curve(curve, edge, alpha, d: int) -> None:
    require({tuple(curve.e0), tuple(curve.e1)} == set(edge),
            f"face endpoints {curve.e0}, {curve.e1} != edge {edge}")
    require(curve.beta == _dot(alpha, edge[0]), "face beta is not the support")
    hmax = math.log(d) + 1e-9
    hull = curve.hull
    require(len(hull) >= 1, "empty envelope")
    for p in hull:
        require(-1e-9 <= p.s <= 1 + 1e-9, f"envelope leaves the face at s={p.s}")
        require(-1e-9 <= p.h <= hmax, f"entropy {p.h} outside [0, log {d}]")
    for a, b, c in zip(hull, hull[1:], hull[2:]):
        cross = (b.s - a.s) * (c.h - a.h) - (b.h - a.h) * (c.s - a.s)
        require(cross <= 1e-12, "envelope is not concave")


def check_scan(scan, curve) -> None:
    require(scan.threshold > 0, "non-positive kink threshold")
    lo, hi = curve.hull[0].s, curve.hull[-1].s
    for s, jump in scan.kinks:
        require(lo <= s <= hi and jump > scan.threshold, f"bad kink at s={s}")


def check_interior(inst: Instance, got, w, d: int) -> None:
    h, v, mu = got
    check_markov(mu)
    rv = [_mean_under(mu, inst.table, c) for c in range(2)]
    require(max(abs(a - float(b)) for a, b in zip(rv, w)) <= 1e-6,
            f"rotation vector {rv} misses the target {w}")
    require(abs(h - markov_entropy(mu.stationary, mu.transition)) <= 1e-8,
            "reported entropy differs from the measure's")
    require(-1e-9 <= h <= math.log(d) + 1e-9, f"entropy {h} out of range")
    scal = {b: sum(float(a) * float(x) for a, x in zip(v, vec))
            for b, vec in inst.table.items()}
    dual = inst.oracles.numpy_pressure(inst.rows, scal, inst.k, 1.0) \
        - sum(float(a) * float(b) for a, b in zip(v, w))
    require(abs(dual - h) <= 1e-6, f"dual value {dual} != entropy {h}")


# -- CLI payloads -------------------------------------------------------------

LOG2, LOG3 = math.log(2.0), math.log(3.0)


def check_cli_rotset_trivec(payload) -> None:
    got = {tuple(Fraction(x) for x in v) for v in payload["vertices"]}
    want = {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1))}
    require(got == want, f"trivec vertices {got}")


def check_cli_facecurve_kinkvec(payload) -> None:
    kinks = payload["kinks"]
    ds = 1.0 / (payload["n_samples"] - 1)
    require(len(kinks) == 1 and abs(kinks[0]["s"] - 0.5) <= ds,
            f"kinkvec kinks {kinks}")
    for s, _, _, h, _ in payload["rows"]:
        want = LOG2 + 2 * s * (LOG3 - LOG2) if s <= 0.5 else 2 * (1 - s) * LOG3
        require(abs(h - want) <= 1e-6, f"envelope {h} at s={s}, want {want}")


def full_shift_histogram(d: int) -> list:
    """Elementary orbits of the full d-shift at window 1 are its simple
    cycles: C(d, p) (p - 1)! of period p."""
    return [[p, math.comb(d, p) * math.factorial(p - 1)] for p in range(1, d + 1)]


def check_cli_orbits(payload, d: int) -> None:
    want = full_shift_histogram(d)
    require(payload["histogram"] == want, f"histogram {payload['histogram']}")
    require(payload["count"] == sum(c for _, c in want) == len(payload["orbits"]),
            f"census count {payload['count']}")
