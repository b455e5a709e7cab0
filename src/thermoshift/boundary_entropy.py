"""Localized entropy inside and on the boundary of planar rotation sets.

Interior points go through Legendre duality: the maximal entropy at
rotation vector w is inf_v [P(v . Phi) - v . w], minimized by a damped
Newton iteration whose gradient is the rotation error of the current
equilibrium state.

Boundary faces need more care because the infimum is not attained
there.  A one-dimensional face is the rotation interval of its
maximizing subshift; each transitive component contributes the curve
(s(v), h(v)) of its equilibrium states for a tangential dual parameter
v, swept on a tan-spaced grid so the slope (which equals -v) is
resolved evenly.  The one spectral engine solves all samples of a
component as one stack (``core_sft.perron_stack``); the interior Newton
steps are single solves.  Component endpoints are anchored exactly: the
extreme tangential mean is a max cycle mean, and the entropy there is
the top entropy of the sub-face it cuts out.  The entropy profile of the whole
face is the upper concave envelope of all contributions, and corners of
that envelope are reported by a slope-jump scan at junction vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_sft import Sft, matrix_edges, perron_stack
from .errors import (DegenerateFaceError, InvalidArgumentError, NumericError,
                     OutOfDomainError, UnsupportedDimensionError)
from .max_face import face_subshift
from .potential import PotentialLC, scalarize
from .rotation_geometry import RotationPolytope, _snap, rotation_set
from .thermodynamics import equilibrium_markov, markov_entropy

DEFAULT_SAMPLES = 201
DEFAULT_VMAX = 50.0


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
        xs = [p.s for p in self.hull]
        hs = [p.h for p in self.hull]
        return float(np.interp(s, xs, hs))

    def endpoint_values(self):
        return self.hull[0].h, self.hull[-1].h


def _component_curve(comp, vecs, e0, tangent, exact, n_samples, vmax):
    """Exact anchors and tan-grid samples (s(v), h(v)) of one component.

    psi is the tangential coordinate of the values on the component; the
    equilibrium state of v . psi has max cycle mean v * s_hi for v >= 0
    and v * s_lo for v < 0, so each sample is one lane of a stacked
    Perron solve.
    """
    tt = sum(t * t for t in tangent)
    psi = []
    for i in comp.state_ids:
        num = sum((x - a) * t for x, a, t in zip(vecs[i], e0, tangent))
        psi.append(num / tt if exact else float(num) / float(tt))
    n = len(psi)
    sub = Sft(comp.matrix, comp.labels())

    def face(sign):
        vals = {(i,): (sign * x,) for i, x in enumerate(psi)}
        return face_subshift(PotentialLC(sub, 1, 1, vals, "exact" if exact else "float"))

    hi_face = face(1)
    if hi_face.is_whole_shift:
        # tangentially constant component: one exact point at its mean
        return [CurvePoint(float(hi_face.beta), comp.entropy, comp.index, "point", -1)]
    lo_face = face(-1)
    s_hi, s_lo = float(hi_face.beta), -float(lo_face.beta)
    pts = [CurvePoint(s_lo, lo_face.entropy, comp.index, "anchor", -1),
           CurvePoint(s_hi, hi_face.entropy, comp.index, "anchor", -1)]
    psi = np.array([float(x) for x in psi])
    th_max = math.atan(vmax)
    v = np.array([math.tan(th) for th in np.linspace(-th_max, th_max, n_samples)])
    beta = v * np.where(v >= 0, s_hi, s_lo)
    _, P, p = perron_stack(n, matrix_edges(comp.matrix), v[:, None] * psi - beta[:, None])
    s = sum(p[:, i] * x for i, x in enumerate(psi))    # state by state, as p . psi sums
    h = markov_entropy(p, P)
    pts.extend(CurvePoint(float(a), float(b), comp.index, "sample", i)
               for i, (a, b) in enumerate(zip(s, h)))
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
                       vmax: float = DEFAULT_VMAX,
                       poly: RotationPolytope | None = None) -> FaceCurve:
    """Entropy profile along the face of the rotation set exposed by alpha.

    The face must be one-dimensional; its subshift components each
    contribute a sampled equilibrium curve plus exact endpoint anchors.
    """
    if Phi.m != 2:
        raise UnsupportedDimensionError("face curves need a two-dimensional potential")
    if n_samples < 9:
        raise InvalidArgumentError("n_samples too small to resolve the face")
    n_samples |= 1      # odd count pins v = 0 on the grid
    alpha = tuple(_snap(a) for a in alpha)
    if poly is None:
        poly = rotation_set(Phi)
    if poly.affine_dim == 0:
        raise DegenerateFaceError("rotation set is a single point")
    support = max(sum(a * x for a, x in zip(alpha, v)) for v in poly.vertices)
    face_verts = [v for v in poly.vertices
                  if sum(a * x for a, x in zip(alpha, v)) == support]
    if len(face_verts) < 2:
        raise DegenerateFaceError("direction exposes a vertex, not an edge")
    if len(face_verts) > 2:
        raise InvalidArgumentError("direction exposes a non-segment face")
    e0, e1 = sorted(face_verts)
    tangent = tuple(b - a for a, b in zip(e0, e1))
    face = face_subshift(Phi, alpha)
    vecs = Phi.state_values()
    points = []
    for comp in face.components:
        points.extend(_component_curve(comp, vecs, e0, tangent, Phi.mode == "exact",
                                       n_samples, vmax))
    hull = _upper_hull(points)
    labels = [c.labels() for c in face.components]
    return FaceCurve(alpha, e0, e1, tangent, face.beta, labels, points, hull,
                     n_samples, vmax)


def differentiability_scan(curve: FaceCurve, threshold: float | None = None,
                           margin: float | None = None) -> DiffReport:
    """Corners of the envelope, detected as slope jumps at junctions.

    On an arc the slope equals -v, so consecutive samples differ by one
    tan-grid step; a genuine corner jumps by an amount independent of
    the grid.  Only vertices adjacent to a non-arc (bridge) edge are
    candidates, and a boundary margin suppresses the log-divergent
    endpoint layers where the dual parameter runs off the grid.
    """
    dtheta = 2.0 * math.atan(curve.vmax) / max(curve.n_samples - 1, 1)
    if threshold is None:
        threshold = 10.0 * dtheta
    if margin is None:
        margin = 1.0 / max(curve.n_samples, 100)
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

def _dual_value_grad(Phi, w, v):
    """P(v . Phi) - v . w, its gradient (the rotation error of the
    equilibrium state of v . Phi) and that state."""
    mu = equilibrium_markov(scalarize(Phi, v), t=1.0)
    g = mu.pressure - sum(a * b for a, b in zip(v, w))
    grad = tuple(ri - wi for ri, wi in zip(mu.rotation_vector(Phi), w))
    return g, grad, mu


def localized_entropy_interior(Phi: PotentialLC, w, tol: float = 1e-9,
                               max_iter: int = 80,
                               poly: RotationPolytope | None = None):
    """Maximal entropy among measures with rotation vector w, for w in
    the relative interior of the rotation set.

    Returns (entropy, dual_v, measure).  Raises OutOfDomainError for
    boundary or exterior w; boundary profiles come from the face curves.
    The dual v runs over the direction space of the rotation set, in
    orthonormal coordinates x: damped Newton steps on a central-difference
    Hessian of the gradient, or gradient steps where it is not positive
    definite.
    """
    if Phi.m != 2:
        raise UnsupportedDimensionError("interior duality implemented for m = 2")
    if poly is None:
        poly = rotation_set(Phi)
    side = poly.membership(tuple(_snap(x) for x in w))
    if side != "interior":
        raise OutOfDomainError(f"rotation vector is {side}; need interior")
    w = tuple(float(x) for x in w)
    r = poly.affine_dim
    # rows: an orthonormal basis of the directions of the affine hull
    Q = np.linalg.qr(np.array(poly.frame.basis, dtype=float).reshape(r, 2).T)[0].T

    def at(x):
        g, grad, mu = _dual_value_grad(Phi, w, tuple(map(float, x @ Q)))
        return g, Q @ grad, mu

    x = np.zeros(r)
    point = at(x)
    for _ in range(max_iter):
        g, grad, mu = point
        if np.abs(grad).max(initial=0.0) < tol:
            return g, tuple(map(float, x @ Q)), mu
        eps = 1e-5 * (1.0 + np.linalg.norm(x))
        H = np.column_stack([(at(x + eps * e)[1] - at(x - eps * e)[1]) / (2.0 * eps)
                             for e in np.eye(r)])
        H = 0.5 * (H + H.T)
        try:
            np.linalg.cholesky(H)
            dx = np.linalg.solve(H, -grad)
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
