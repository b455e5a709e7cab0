"""Zero-temperature classification of locally constant potentials.

As t grows, the equilibrium state of t*phi concentrates on the subshift
maximizing phi.  The limit is decided by the transitive components of
that subshift with maximal entropy: a single periodic one, a single
positive-entropy one, or several components sharing the top entropy, in
which case the limit is a convex combination of their Parry measures
whose coefficients are estimated by sweeping t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (InvalidArgumentError, NotTransitiveError, NumericError,
                     UnderflowError)
from .max_face import FaceSubshift, cycle_gap, face_subshift, max_entropy_components
from .potential import PotentialLC
from .thermodynamics import MarkovMeasure, _chain, _measure, _solve

CASE_COHOMOLOGOUS = "CohomologousToConstant"
CASE_VERTEX_PERIODIC = "VertexPeriodic"
CASE_UNIQUE_TRANSITIVE = "UniqueTransitive"
CASE_MULTI_COMPONENT = "MultiComponent"

CONVERGENCE_TOL = 1e-10
UNCONVERGED_TOL = 1e-6
BOUNDARY_MASS_TOL = 1e-3
GROUND_STATE_TOL = 1e-8


@dataclass
class ClassificationResult:
    """Outcome of the zero-temperature classification of a scalar potential."""

    case: str
    beta: object
    face: FaceSubshift
    max_entropy_ids: tuple[int, ...]
    tolerance_limited: bool
    constant: object | None
    limit: list | None           # [(weight, MarkovMeasure)] when determined

    @property
    def components(self):
        return self.face.components


def component_parry(face: FaceSubshift, index: int) -> MarkovMeasure:
    """The Parry measure of one face component.  A cycle's is exact and
    formed directly, with no Perron solve: the uniform masses on its n
    states, its 0/1 matrix as the kernel, entropy and pressure 0."""
    comp = face.components[index]
    if not comp.is_cycle:
        return _measure(comp.perron_solve, comp.labels(), comp.blocks)
    n = len(comp.matrix)
    return MarkovMeasure(comp.labels(), comp.blocks, np.full(n, 1.0 / n),
                         np.array(comp.matrix, dtype=float), 0.0, pressure=0.0,
                         gap=cycle_gap(n), log_stationary=np.full(n, -math.log(n)))


def classify(phi: PotentialLC) -> ClassificationResult:
    """Classify the zero-temperature limit of a scalar potential.

    The cohomology case is decided first (every transition tight, so all
    invariant measures share the same average); otherwise the maximal
    entropy components of the maximizing subshift decide the case.
    """
    if phi.m != 1:
        raise InvalidArgumentError("classify takes a scalar potential")
    if not phi._irreducible:
        raise NotTransitiveError("classification needs a transitive shift")
    face = face_subshift(phi)
    if face.is_whole_shift:
        # every measure has average beta; the equilibrium path is frozen
        # at the measure of maximal entropy
        limit = [(Fraction(1), component_parry(face, 0))]
        return ClassificationResult(CASE_COHOMOLOGOUS, face.beta, face,
                                    (0,), False, face.beta, limit)
    ids, flagged = max_entropy_components(face)
    if len(ids) == 1:
        comp = face.components[ids[0]]
        case = CASE_VERTEX_PERIODIC if comp.is_cycle else CASE_UNIQUE_TRANSITIVE
        limit = [(Fraction(1), component_parry(face, ids[0]))]
        return ClassificationResult(case, face.beta, face, ids, flagged,
                                    None, limit)
    return ClassificationResult(CASE_MULTI_COMPONENT, face.beta, face, ids,
                                flagged, None, None)


# -- symmetry shortcut -----------------------------------------------------

def _weighted_automorphisms(phi: PotentialLC):
    """A generating set of the automorphisms of the recoded graph that
    preserve the weight of each state, as permutations of state indices.

    The k-block recoding is the (k-1)-fold line digraph of the base
    graph, which has no sources or sinks, so its automorphisms are
    exactly the coordinatewise actions of the symbol permutations that
    preserve the transition matrix.  For each symbol a and image c > a,
    a backtracking search finds one that fixes the symbols before a and
    sends a to c, cutting a branch as soon as a block whose symbols are
    all assigned changes value; these coset representatives of the
    stabiliser chain generate the group (as in Schreier-Sims).
    """
    T, d = phi.sft.transition, phi.sft.d
    recoded = phi._recoded
    index, vals = recoded.block_index(), phi.state_values()
    closing = [[(i, blk) for i, blk in enumerate(recoded.states) if max(blk) == a]
               for a in range(d)]           # blocks whose largest symbol is a

    def fits(pi, c):
        a, pi = len(pi), pi + [c]
        return (c not in pi[:a]
                and all(T[c][p] == T[a][b] and T[p][c] == T[b][a]
                        for b, p in enumerate(pi))
                and all(vals[index[tuple(pi[s] for s in blk)]] == vals[i]
                        for i, blk in closing[a]))

    def complete(pi, choices=range(d)):
        if len(pi) == d:
            return pi
        for c in choices:
            if fits(pi, c):
                got = complete(pi + [c])
                if got is not None:
                    return got
        return None

    found = (complete(list(range(a)), [c]) for a in range(d) for c in range(a + 1, d))
    return [tuple(index[tuple(pi[s] for s in blk)] for blk in recoded.states)
            for pi in found if pi is not None]


def symmetry_coefficients(phi: PotentialLC, res: ClassificationResult):
    """Exact equal coefficients when weight-preserving graph symmetries
    act transitively on the maximal entropy components (a union-find
    over the generators: orbits are Schreier graph components); None
    otherwise."""
    if phi.mode != "exact":
        return None
    ids = res.max_entropy_ids
    if len(ids) < 2:
        return tuple(Fraction(1) for _ in ids)
    state_sets = {i: frozenset(res.face.components[i].state_ids) for i in ids}
    by_states = {s: i for i, s in state_sets.items()}
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sigma in _weighted_automorphisms(phi):
        for i in ids:
            j = by_states.get(frozenset(sigma[s] for s in state_sets[i]))
            if j is not None:
                parent[find(i)] = find(j)
    joined = len({find(i) for i in ids}) == 1
    return tuple(Fraction(1, len(ids)) for _ in ids) if joined else None


# -- numerical sweep -------------------------------------------------------

def _aitken(seq):
    """Aitken delta-squared extrapolation of the tail, guarded."""
    if len(seq) < 3:
        return seq[-1]
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    den = (x2 - x1) - (x1 - x0)
    if abs(den) < 1e-300:
        return x2
    acc = x2 - (x2 - x1) ** 2 / den
    if -0.1 <= acc <= 1.1:
        return acc
    return x2


def default_schedule(t_max: float = 2.0 ** 14):
    out = []
    t = 1.0
    while t <= t_max:
        out.append(t)
        t *= 2.0
    return out


@dataclass
class ZtCoefficients:
    """Convex coefficients of the zero-temperature limit."""

    case: str
    component_ids: tuple[int, ...]
    coefficients: tuple
    method: str                # "symmetry", "sweep", or "trivial"
    t_values: list = field(default_factory=list)
    mass_history: list = field(default_factory=list)
    boundary_history: list = field(default_factory=list)
    est_error: float = 0.0
    converged: bool = True
    flags: list = field(default_factory=list)
    limit: list | None = None


def zt_coefficients(phi: PotentialLC, t_max: float = 2.0 ** 14,
                    method: str = "auto") -> ZtCoefficients:
    """Coefficients of the component Parry measures in the t -> oo limit.

    ``method`` is "auto" (symmetry shortcut when available, else sweep),
    "symmetry" (fail to sweep if unavailable), or "sweep".  The sweep
    runs over t = 1, 2, 4, ... up to t_max, which is at least 1 since
    the limit is t -> +oo.
    """
    if not 1.0 <= t_max < math.inf:
        raise InvalidArgumentError(f"t_max must be finite and at least 1, got {t_max}")
    if method not in ("auto", "symmetry", "sweep"):
        raise InvalidArgumentError(f"unknown method {method!r}")
    res = classify(phi)
    ids = res.max_entropy_ids
    if res.case != CASE_MULTI_COMPONENT:
        limit = res.limit
        return ZtCoefficients(res.case, ids, (Fraction(1),), "trivial",
                              limit=limit)
    if method in ("auto", "symmetry"):
        sym = symmetry_coefficients(phi, res)
        if sym is not None:
            limit = [(c, component_parry(res.face, i)) for c, i in zip(sym, ids)]
            return ZtCoefficients(res.case, ids, sym, "symmetry", limit=limit,
                                  flags=["exact"])
        if method == "symmetry":
            raise InvalidArgumentError(
                "no transitive weight-preserving symmetry; use the sweep")
    state_sets = [res.face.components[i].state_ids for i in ids]
    t_used, masses, boundary = [], [], []
    flags = []
    coeffs_hist = []
    est_error = math.inf
    for t in default_schedule(t_max):
        try:
            p = _chain(_solve(phi, t, "equilibrium_markov")[1], phi.k > 1, False)[0]
        except (UnderflowError, NumericError) as exc:
            flags.append(f"sweep stopped at t={t}: {exc}")
            break
        row = [float(sum(p[s] for s in sset)) for sset in state_sets]
        total = sum(row)
        t_used.append(t)
        masses.append(row)
        boundary.append(max(0.0, 1.0 - total))
        coeffs_hist.append([r / total for r in row])
        if len(coeffs_hist) >= 2:
            est_error = max(abs(a - b) for a, b in
                            zip(coeffs_hist[-1], coeffs_hist[-2]))
            if est_error < CONVERGENCE_TOL and boundary[-1] < BOUNDARY_MASS_TOL:
                break
    if not coeffs_hist:
        raise NumericError("zero-temperature sweep produced no data")
    # a weight extrapolated below 0 (a starved component) is 0
    final = tuple(max(0.0, _aitken([c[j] for c in coeffs_hist]))
                  for j in range(len(ids)))
    s = sum(final)
    final = tuple(c / s for c in final)
    converged = est_error < UNCONVERGED_TOL
    if not converged:
        flags.append("unconverged")
    if boundary and boundary[-1] >= BOUNDARY_MASS_TOL:
        flags.append("boundary_mass_large")
    limit = [(c, component_parry(res.face, i)) for c, i in zip(final, ids)]
    return ZtCoefficients(res.case, ids, final, "sweep", t_used, masses,
                          boundary, est_error if est_error < math.inf else 1.0,
                          converged, flags, limit)


def ground_state_check(phi: PotentialLC, result=None) -> dict:
    """Consistency checks on a classification: the limit measures are
    supported on the maximizing subshift, average to beta, and agree in
    entropy across selected components, to GROUND_STATE_TOL."""
    if result is None:
        result = classify(phi)
    if isinstance(result, ZtCoefficients):
        limit = result.limit
        face = classify(phi).face
        ids = result.component_ids
    else:
        limit = result.limit
        face = result.face
        ids = result.max_entropy_ids
    checks = {"weights_sum_to_one": True, "averages_at_beta": True,
              "entropies_agree": True}
    if limit is None:
        return {"undetermined": True}
    total = sum(float(w) for w, _ in limit)
    checks["weights_sum_to_one"] = abs(total - 1.0) <= GROUND_STATE_TOL
    beta = float(face.beta)
    for _, mu in limit:
        avg = sum(float(p) * float(phi.value(b)[0])
                  for p, b in zip(mu.stationary, mu.blocks))
        if abs(avg - beta) > GROUND_STATE_TOL:
            checks["averages_at_beta"] = False
    if len(ids) > 1:
        hs = [face.components[i].entropy for i in ids]
        if max(hs) - min(hs) > 1e-6:
            checks["entropies_agree"] = False
    checks["ok"] = all(v for v in checks.values())
    return checks
