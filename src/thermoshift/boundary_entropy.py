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
resolved evenly.  Component endpoints are anchored exactly: the extreme
tangential mean is a max cycle mean, and the entropy there is the top
entropy of the sub-face it cuts out.  The entropy profile of the whole
face is the upper concave envelope of all contributions, and corners of
that envelope are reported by a slope-jump scan at junction vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_sft import Sft
from .errors import (DegenerateFaceError, InvalidArgumentError, NumericError,
                     OutOfDomainError, UnsupportedDimensionError)
from .max_face import face_subshift
from .potential import PotentialLC
from .rotation_geometry import RotationPolytope, _snap, rotation_set
from .thermodynamics import equilibrium_markov, parry_measure

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


def _component_potentials(comp, Phi: PotentialLC):
    """Restricted shift of a face component and its vector values."""
    sub = Sft(tuple(tuple(row) for row in comp.matrix), comp.labels())
    vals = [Phi.value(b) for b in comp.blocks]
    return sub, vals


def _tangential_values(vals, e0, tangent, exact: bool):
    tt = sum(t * t for t in tangent)
    out = []
    for vec in vals:
        num = sum((x - a) * t for x, a, t in zip(vec, e0, tangent))
        out.append(num / tt if exact else float(num) / float(tt))
    return out


def _component_curve(comp_id, comp, Phi, e0, tangent, exact, n_samples, vmax):
    sub, vals = _component_potentials(comp, Phi)
    psi = _tangential_values(vals, e0, tangent, exact)
    n = len(psi)
    mode = "exact" if exact else "float"
    psi_pot = PotentialLC(sub, 1, 1, {(i,): (psi[i],) for i in range(n)}, mode)
    hi_face = face_subshift(psi_pot)
    pts = []
    if hi_face.is_whole_shift:
        # tangentially constant component: one exact point at its mean
        s0 = float(hi_face.beta)
        pts.append(CurvePoint(s0, comp.entropy, comp_id, "point", -1))
        return pts
    neg_pot = PotentialLC(sub, 1, 1, {(i,): (-psi[i],) for i in range(n)}, mode)
    lo_face = face_subshift(neg_pot)
    s_hi, h_hi = float(hi_face.beta), hi_face.entropy
    s_lo, h_lo = -float(lo_face.beta), lo_face.entropy
    pts.append(CurvePoint(s_lo, h_lo, comp_id, "anchor", -1))
    pts.append(CurvePoint(s_hi, h_hi, comp_id, "anchor", -1))
    th_max = math.atan(vmax)
    thetas = np.linspace(-th_max, th_max, n_samples)
    for i, th in enumerate(thetas):
        v = math.tan(th)
        pot_v = PotentialLC(sub, 1, 1,
                            {(j,): (v * float(psi[j]),) for j in range(n)},
                            "float")
        mu = equilibrium_markov(pot_v, t=1.0)
        s = float(sum(float(p) * float(ps)
                      for p, ps in zip(mu.stationary, psi)))
        pts.append(CurvePoint(s, mu.entropy, comp_id, "sample", i))
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
    exact = Phi.mode == "exact"
    points = []
    for comp in face.components:
        points.extend(_component_curve(comp.index, comp, Phi, e0, tangent,
                                       exact, n_samples, vmax))
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

def _scaled_potential(Phi: PotentialLC, v):
    vals = {}
    for b, vec in Phi.values.items():
        vals[b] = (float(sum(float(x) * float(y) for x, y in zip(v, vec))),)
    return PotentialLC(Phi.sft, Phi.k, 1, vals, "float")


def _dual_value_grad(Phi, w, v):
    mu = equilibrium_markov(_scaled_potential(Phi, v), t=1.0)
    r = mu.rotation_vector(Phi)
    g = mu.pressure - sum(a * b for a, b in zip(v, w))
    grad = tuple(ri - wi for ri, wi in zip(r, w))
    return g, grad, mu


def localized_entropy_interior(Phi: PotentialLC, w, tol: float = 1e-9,
                               max_iter: int = 80,
                               poly: RotationPolytope | None = None):
    """Maximal entropy among measures with rotation vector w, for w in
    the relative interior of the rotation set.

    Returns (entropy, dual_v, measure).  Raises OutOfDomainError for
    boundary or exterior w; boundary profiles come from the face curves.
    """
    if Phi.m != 2:
        raise UnsupportedDimensionError("interior duality implemented for m = 2")
    if poly is None:
        poly = rotation_set(Phi)
    w_exact = tuple(_snap(x) for x in w)
    side = poly.membership(w_exact)
    if side != "interior":
        raise OutOfDomainError(f"rotation vector is {side}; need interior")
    w = tuple(float(x) for x in w)
    if poly.affine_dim == 0:
        mu = parry_measure(Phi.sft)
        return mu.entropy, (0.0, 0.0), mu
    if poly.affine_dim == 1:
        basis = tuple(float(x) for x in poly.frame.basis[0])
        nb = math.hypot(*basis)
        tangent = (basis[0] / nb, basis[1] / nb)
        x = 0.0
        for _ in range(max_iter):
            v = (x * tangent[0], x * tangent[1])
            g, grad, mu = _dual_value_grad(Phi, w, v)
            gt = grad[0] * tangent[0] + grad[1] * tangent[1]
            if abs(gt) < tol:
                return g, v, mu
            eps = 1e-5 * (1.0 + abs(x))
            vp = ((x + eps) * tangent[0], (x + eps) * tangent[1])
            _, gp, _ = _dual_value_grad(Phi, w, vp)
            gpt = gp[0] * tangent[0] + gp[1] * tangent[1]
            curv = (gpt - gt) / eps
            step = -gt / curv if curv > 1e-14 else -gt
            x = x + _damped(lambda y: _dual_value_grad(
                Phi, w, (y * tangent[0], y * tangent[1]))[0], x, step, g)
        raise NumericError("interior duality did not converge")
    v = (0.0, 0.0)
    for _ in range(max_iter):
        g, grad, mu = _dual_value_grad(Phi, w, v)
        if max(abs(grad[0]), abs(grad[1])) < tol:
            return g, v, mu
        eps = 1e-5 * (1.0 + math.hypot(*v))
        H = [[0.0, 0.0], [0.0, 0.0]]
        for j in range(2):
            vp = list(v)
            vp[j] += eps
            _, gp, _ = _dual_value_grad(Phi, w, tuple(vp))
            vm = list(v)
            vm[j] -= eps
            _, gm, _ = _dual_value_grad(Phi, w, tuple(vm))
            for i in range(2):
                H[i][j] = (gp[i] - gm[i]) / (2.0 * eps)
        H[0][1] = H[1][0] = 0.5 * (H[0][1] + H[1][0])
        det = H[0][0] * H[1][1] - H[0][1] * H[1][0]
        if det > 1e-18 and H[0][0] > 0.0:
            dx = -(H[1][1] * grad[0] - H[0][1] * grad[1]) / det
            dy = -(H[0][0] * grad[1] - H[1][0] * grad[0]) / det
        else:
            dx, dy = -grad[0], -grad[1]
        scale = _damped(lambda s: _dual_value_grad(
            Phi, w, (v[0] + s * dx, v[1] + s * dy))[0], 0.0, 1.0, g)
        v = (v[0] + scale * dx, v[1] + scale * dy)
    raise NumericError("interior duality did not converge")


def _damped(value_at, base, step, current):
    """Largest halved step from ``base`` that does not increase the value."""
    s = step
    for _ in range(40):
        if value_at(base + s) <= current + 1e-15 * (1.0 + abs(current)):
            return s
        s *= 0.5
    return s
