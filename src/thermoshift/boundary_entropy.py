"""Localized entropy inside and on the boundary of rotation sets.

Interior points go through Legendre duality: the maximal entropy at
rotation vector w is inf_v [P(v . Phi) - v . w], minimized by a damped
Newton iteration whose gradient is the rotation error of the current
equilibrium state and whose Hessian is the asymptotic covariance of Phi
under it.

Boundary faces need more care because the infimum is not attained
there.  A one-dimensional face is the rotation interval of its
maximizing subshift, from the face's one max-plus pass; its geometry
(vertices, ends, tangent and, for exact values, each state's tangential
coordinate psi) runs on integers over one denominator.  A component
that is one periodic orbit is one point, its exact tangential mean at
entropy 0, with no pass of its own.  A component that one pass finds
constant along the face is one point too, at its entropy: log r, exact,
when its 0/1 matrix is regular of degree r.  A face whose components
are all such points builds no array and loads neither numpy nor the
spectral engine.  Every other transitive component contributes the
curve (s(v), h(v)) of its equilibrium states for a tangential dual
parameter v, swept on a tan-spaced grid so the slope (which equals -v)
is resolved evenly.  The one spectral engine solves all samples of a
component as one stack (``spectral.perron_stack``); the interior Newton
steps are single solves.  Component endpoints are anchored exactly: the
extreme tangential mean is a max cycle mean, and the entropy there is
the top entropy of the sub-face it cuts out.  The entropy profile of the
whole face is the upper concave envelope of all contributions, and
corners of that envelope are reported by a slope-jump scan at junction
vertices.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core_sft import Sft, _int_weights
from .errors import (DegenerateFaceError, InvalidArgumentError, NumericError,
                     OutOfDomainError, UnsupportedDimensionError)
from .max_face import face_subshift
from .potential import PotentialLC, _snap
from .rotation_geometry import RotationPolytope, _dot, _scale, rotation_set

DEFAULT_SAMPLES = 201
DEFAULT_VMAX = 50.0
INTERIOR_TOL = 1e-9         # largest gradient entry of a converged dual
INTERIOR_MAX_ITER = 80      # Newton steps before NumericError


@dataclass(frozen=True)
class CurvePoint:
    s: float
    h: float
    comp: int
    kind: str        # "sample", "anchor", "point"
    idx: int         # grid index for samples, -1 otherwise


@dataclass
class DiffReport:
    kinks: list            # [(s, slope_jump)]
    threshold: float
    excluded_margin: float

    @property
    def smooth(self) -> bool:
        return not self.kinks


@dataclass
class FaceCurve:
    """Entropy profile along a one-dimensional face of the rotation set."""

    direction: tuple
    e0: tuple
    e1: tuple
    tangent: tuple
    beta: object
    component_labels: list
    points: list
    hull: list
    n_samples: int
    vmax: float

    def envelope(self, s):
        """The envelope at s: linear between hull points, held at the end
        heights outside [s0, s1], in the same doubles as ``np.interp``."""
        return self._segment(s)[1]

    def _segment(self, s):
        """(j, the envelope at s) for the last hull point j at or left of s."""
        hull, j = self.hull, bisect_right(self._abscissae, s) - 1
        if j < 0 or j == len(hull) - 1:
            return j, hull[max(j, 0)].h
        p, q = hull[j], hull[j + 1]
        return j, (q.h - p.h) / (q.s - p.s) * (s - p.s) + p.h

    @functools.cached_property
    def _abscissae(self) -> list:
        return [p.s for p in self.hull]

    def endpoint_values(self):
        return self.hull[0].h, self.hull[-1].h


def _component_curve(comp, psi, exact, n_samples):
    """Exact anchors and tan-grid samples (s(v), h(v)) of one component
    that is not a cycle, for the tangential coordinates psi of its states.

    v . psi less its max cycle mean is |v| (psi - s_hi) for v >= 0 and |v|
    (s_lo - psi) for v < 0, so each sample is an anchor's transfer solved
    at t = |v|, one lane of a stacked Perron solve.  Only samples strictly
    between the anchors are kept.
    """
    sub = Sft(comp.matrix, comp.labels())
    hi, lo = (PotentialLC(sub, 1, 1, {(i,): (sign * x,) for i, x in enumerate(psi)},
                          "exact" if exact else "float") for sign in (1, -1))
    hi_face = face_subshift(hi)
    if hi_face.is_whole_shift:
        # tangentially constant component: one exact point at its mean
        return [CurvePoint(float(hi_face.beta), comp.entropy, comp.index, "point", -1)]
    import numpy as np                  # numpy loads only for sampled curves
    from .spectral import perron_stack
    from .thermodynamics import markov_entropy
    lo_face = face_subshift(lo)
    s_hi, s_lo = float(hi_face.beta), -float(lo_face.beta)
    pts = [CurvePoint(s_lo, lo_face.entropy, comp.index, "anchor", -1),
           CurvePoint(s_hi, hi_face.entropy, comp.index, "anchor", -1)]
    psi = np.array([float(x) for x in psi])
    th_max = math.atan(DEFAULT_VMAX)
    v = np.array([math.tan(th) for th in np.linspace(-th_max, th_max, n_samples)])
    _, P, p = perron_stack([hi._transfer if x >= 0 else lo._transfer for x in v], np.abs(v))
    s = sum(p[:, i] * x for i, x in enumerate(psi))    # state by state, as p . psi sums
    h = markov_entropy(p, P)
    # s sums masses that add to 1 only to rounding: a sample that rounds
    # onto or past an anchor leaves the end to the exact anchor
    pts.extend(CurvePoint(float(a), float(b), comp.index, "sample", i)
               for i, (a, b) in enumerate(zip(s, h)) if s_lo < a < s_hi)
    return pts


def _upper_hull(points):
    best = {}
    for p in points:
        cur = best.get(p.s)
        if cur is None or p.h > cur.h:
            best[p.s] = p
    pts = sorted(best.values(), key=lambda p: p.s)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b.s - a.s) * (p.h - a.h) - (b.h - a.h) * (p.s - a.s)
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def face_entropy_curve(Phi: PotentialLC, alpha, n_samples: int = DEFAULT_SAMPLES,
                       poly: RotationPolytope | None = None) -> FaceCurve:
    """Entropy profile along the face of the rotation set exposed by alpha.

    The face must be one-dimensional: in m >= 3 alpha is any direction
    that exposes an edge.  Its subshift components each contribute a
    sampled equilibrium curve plus exact endpoint anchors.
    """
    if Phi.m < 2:
        raise UnsupportedDimensionError("face curves need a potential with m >= 2")
    if n_samples < 9:
        raise InvalidArgumentError("n_samples too small to resolve the face")
    n_samples |= 1      # odd count pins v = 0 on the grid
    alpha = tuple(_snap(a) for a in alpha)
    if len(alpha) != Phi.m:
        raise InvalidArgumentError("direction length must equal potential dimension")
    if poly is None:
        poly = rotation_set(Phi)
    if poly.affine_dim == 0:
        raise DegenerateFaceError("rotation set is a single point")
    # alpha as ints a / c and the vertices as int points over one denominator D
    a = _int_weights(alpha)[0]
    verts, D = _scale([_int_weights(v)[:2] for v in poly.vertices])
    vals = [_dot(a, v) for v in verts]
    top = max(vals)
    face_verts = [v for v, x in zip(verts, vals) if x == top]
    if len(face_verts) < 2:
        raise DegenerateFaceError("direction exposes a vertex, not an edge")
    if len(face_verts) > 2:
        raise InvalidArgumentError("direction exposes a non-segment face")
    E0, E1 = sorted(face_verts)
    T = [y - x for x, y in zip(E0, E1)]
    exact = Phi.mode == "exact"
    # each state's tangential coordinate psi = (x - e0) . t / t . t, for
    # e0 = E0 / D and t = T / D: exact values x = X / L give psi = P / Q in
    # ints; float values take the same steps in doubles
    if exact:
        rows, L = Phi._int_rows
        Q = L * _dot(T, T)
        base = [x * L for x in E0]
        psi = [_dot([x * D - y for x, y in zip(row, base)], T) for row in rows]
    else:
        origin, step = [x / D for x in E0], [x / D for x in T]
        tt = _dot(T, T) / D ** 2
        psi = [sum((x - y) * z for x, y, z in zip(vec, origin, step)) / tt
               for vec in Phi.state_values()]
    face = face_subshift(Phi, alpha)
    points = []
    for comp in face.components:
        vals = [psi[i] for i in comp.state_ids]
        if comp.is_cycle:
            # one periodic orbit: its exact tangential mean, rounded once, at entropy 0
            nums, den = (vals, Q) if exact else _int_weights(vals)[:2]
            points.append(CurvePoint(sum(nums) / (den * len(nums)), 0.0, comp.index,
                                     "point", -1))
        else:
            points.extend(_component_curve(
                comp, [Fraction(x, Q) for x in vals] if exact else vals, exact,
                n_samples))
    hull = _upper_hull(points)
    labels = [c.labels() for c in face.components]
    e0, e1, tangent = (tuple(Fraction(x, D) for x in v) for v in (E0, E1, T))
    return FaceCurve(alpha, e0, e1, tangent, face.beta, labels, points, hull,
                     n_samples, DEFAULT_VMAX)


def differentiability_scan(curve: FaceCurve) -> DiffReport:
    """Corners of the envelope, detected as slope jumps at junctions.

    On an arc the slope equals -v, so consecutive samples differ by one
    tan-grid step; a genuine corner jumps by an amount independent of
    the grid.  Only vertices adjacent to a non-arc (bridge) edge are
    candidates, and a boundary margin suppresses the log-divergent
    endpoint layers where the dual parameter runs off the grid.
    """
    dtheta = 2.0 * math.atan(curve.vmax) / max(curve.n_samples - 1, 1)
    threshold, margin = 10.0 * dtheta, 1.0 / max(curve.n_samples, 100)
    span = curve.hull[-1].s - curve.hull[0].s
    if span <= 0:
        return DiffReport([], threshold, margin)
    lo = curve.hull[0].s + margin * span
    hi = curve.hull[-1].s - margin * span

    def arc_adjacent(p, q):
        return (p.comp == q.comp and p.kind == "sample" and q.kind == "sample"
                and abs(p.idx - q.idx) == 1)

    kinks = []
    for i in range(1, len(curve.hull) - 1):
        a, b, c = curve.hull[i - 1], curve.hull[i], curve.hull[i + 1]
        if not (lo <= b.s <= hi):
            continue
        if arc_adjacent(a, b) and arc_adjacent(b, c):
            continue
        sl = (b.h - a.h) / (b.s - a.s)
        sr = (c.h - b.h) / (c.s - b.s)
        if abs(sr - sl) > threshold:
            kinks.append((b.s, abs(sr - sl)))
    return DiffReport(kinks, threshold, margin)


# -- interior duality ------------------------------------------------------

def _dual_value_grad(X, graph, on_edges, corners, w, v):
    """P(v . Phi) - v . w, its gradient (the rotation error of the
    equilibrium state of v . Phi), beta(v) and the Perron solve of
    v . Phi - beta(v), for the value rows X of the k-blocks of Phi, on the
    graph (n, edges, weighs) of its recoding's ``_transfer_graph``, whose
    measures lie on its edges where ``on_edges``.  beta(v), the maximum
    cycle mean of v . Phi, is the largest v . x over the corners x of the
    rotation set."""
    from .spectral import Transfer
    from .thermodynamics import _chain
    n, edges, weighs = graph
    beta = float((corners @ v).max())
    sol = Transfer(n, edges, (X @ v - beta)[weighs]).solve()
    p = _chain(sol, on_edges, False)[0]
    return float(sol.log_lam + beta - v @ w), p @ X - w, beta, sol


def _covariance(p, P, X):
    """Asymptotic covariance matrix of the Birkhoff sums of the columns of
    X (one row per state) under the stationary chain (p, P), which is the
    Hessian of the pressure (Parry and Pollicott 1990, ch. 4): G + G' -
    F' D F with G = F' D Z F, for the centred values F = X - p X, D =
    diag(p) and the fundamental matrix Z = (I - P + 1 p)^-1."""
    import numpy as np
    from .spectral import _solve
    F = X - p @ X
    DF = p[:, None] * F
    G = DF.T @ _solve(np.eye(len(p)) - P + p, F)
    return G + G.T - DF.T @ F


def localized_entropy_interior(Phi: PotentialLC, w, poly: RotationPolytope | None = None):
    """Maximal entropy among measures with rotation vector w, for w in
    the relative interior of the rotation set.

    Returns (entropy, dual_v, measure).  Raises OutOfDomainError for
    boundary or exterior w; boundary profiles come from the face curves.
    The dual v runs over the direction space of the rotation set, in
    orthonormal coordinates x: damped Newton steps on the exact Hessian
    (the asymptotic covariance of Phi under the current equilibrium
    state), or gradient steps where it is not positive definite.  Each
    point is one Perron solve of v . Phi - beta(v), on the graph of the
    recoding's ``_transfer_graph``, whose ``Transfer`` runs one exact
    max-plus pass.
    """
    import numpy as np
    from .spectral import _solve
    from .thermodynamics import _chain, _measure
    if poly is None:
        poly = rotation_set(Phi)
    side = poly.membership(tuple(_snap(x) for x in w))
    if side != "interior":
        raise OutOfDomainError(f"rotation vector is {side}; need interior")
    w = np.array([float(x) for x in w])
    r = poly.affine_dim
    # rows: an orthonormal basis of the directions of the affine hull
    Q = np.linalg.qr(np.array(poly.frame.basis, dtype=float).reshape(r, Phi.m).T)[0].T
    X = np.array(Phi.state_values(), dtype=float)
    corners = np.array(poly.vertices, dtype=float)
    graph, on_edges = Phi._recoded._transfer_graph, Phi.k > 1

    def at(x):
        g, grad, beta, sol = _dual_value_grad(X, graph, on_edges, corners, w, x @ Q)
        return g, Q @ grad, beta, sol

    x = np.zeros(r)
    point = at(x)
    for _ in range(INTERIOR_MAX_ITER):
        g, grad, beta, sol = point
        if np.abs(grad).max(initial=0.0) < INTERIOR_TOL:
            recoded = Phi._recoded
            return g, tuple(map(float, x @ Q)), _measure(sol, recoded.labels, recoded.states,
                                                          1.0, beta, on_edges)
        p, _, P = _chain(sol, on_edges)
        H = Q @ _covariance(p, P, X) @ Q.T
        try:
            np.linalg.cholesky(H)
            dx = _solve(H, -grad)
        except np.linalg.LinAlgError:
            dx = -grad
        step, point = _damped(lambda s: at(x + s * dx), g)
        x = x + step * dx
    raise NumericError("interior duality did not converge")


def _damped(evaluate, current):
    """(s, evaluate(s)) for the largest halved step s from 1, at most 40
    halvings, whose value (first item) does not exceed ``current``."""
    s = 1.0
    for _ in range(40):
        got = evaluate(s)
        if got[0] <= current + 1e-15 * (1.0 + abs(current)):
            return s, got
        s *= 0.5
    return s, evaluate(s)
