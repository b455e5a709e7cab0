"""Pressure, equilibrium states, and Parry measures.

Transfer operators here are weighted adjacency matrices on the one-step
recoding, with the weight of an edge attached to its source block.  To
keep entries bounded, the maximum cycle mean beta is subtracted from
the potential before exponentiating; the pressure gains t*beta back.

At low temperature (large t) the top of the spectrum can collapse: the
relative gap between the two leading eigenvalues decays exponentially
while double precision resolves only gaps above ~1e-16.  The spectral
engine therefore estimates the gap and silently escalates to mpmath
with a working precision sized from t and the weight range whenever
doubles cannot certify the leading eigenpair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .core_sft import Sft, matrix_edges, recode_to_one_step, scc_of_edges
from .errors import (InvalidArgumentError, NotTransitiveError, NumericError,
                     UnderflowError)
from .max_face import karp_max_mean
from .potential import PotentialLC

GAP_FLOOR = 1e-5         # below this relative gap, doubles are not trusted
DPS_CAP = 5000           # hard ceiling on escalated working precision
_EXP_SAFE = 700.0        # |exponent| beyond which doubles underflow


@dataclass
class MarkovMeasure:
    """A stationary Markov measure on a one-step shift.

    ``blocks`` are the underlying k-blocks of the states, ``stationary``
    the invariant distribution, ``transition`` the row-stochastic kernel.
    ``precision`` records how the spectral problem was solved.
    """

    state_labels: tuple[str, ...]
    blocks: tuple[tuple[int, ...], ...]
    stationary: np.ndarray
    transition: np.ndarray
    entropy: float
    pressure: float | None = None
    beta: object = None
    t: float | None = None
    gap: float | None = None
    precision: str = "double"

    def mass(self, block) -> float:
        """Measure of the cylinder of one state block."""
        block = tuple(block)
        for i, b in enumerate(self.blocks):
            if b == block:
                return float(self.stationary[i])
        raise InvalidArgumentError(f"block {block} is not a state of this measure")

    def rotation_vector(self, Phi: PotentialLC):
        """Integral of a vector potential, evaluated on the state blocks."""
        out = None
        for p, b in zip(self.stationary, self.blocks):
            vec = tuple(float(x) * float(p) for x in Phi.value(b))
            out = vec if out is None else tuple(a + c for a, c in zip(out, vec))
        return out


def markov_entropy(p, P) -> float:
    """Entropy rate of a stationary Markov chain, in nats."""
    h = 0.0
    n = len(p)
    for i in range(n):
        for j in range(n):
            if P[i][j] > 0.0:
                h -= float(p[i]) * float(P[i][j]) * math.log(float(P[i][j]))
    return h


def _require_irreducible(n: int, edges, what: str):
    if len(scc_of_edges(n, edges)) != 1:
        raise NotTransitiveError(f"{what} needs an irreducible transition structure")


def _spectral_double(M: np.ndarray):
    """(lam, right, left, relative separation) or None if not certified.

    The certificate is the relative distance from the leading eigenvalue
    to the rest of the spectrum: that, not the modulus gap, controls the
    conditioning of the eigenvector.  Periodic chains (peripheral
    spectrum of equal modulus but well separated) pass; the collapsing
    near-degenerate pairs of the low-temperature regime do not.
    """
    evals, evecs = np.linalg.eig(M)
    order = np.argsort(-evals.real)
    lam_c = evals[order[0]]
    lam = lam_c.real
    if lam <= 0.0 or abs(lam_c.imag) > 1e-9 * max(lam, 1.0):
        return None
    gap = min((abs(evals[i] - lam_c) for i in order[1:]), default=lam) / lam
    if gap < GAP_FLOOR:
        return None
    v = evecs[:, order[0]]
    if np.max(np.abs(v.imag)) > 1e-9 * np.max(np.abs(v)):
        return None
    v = v.real
    v = v * np.sign(v[np.argmax(np.abs(v))])
    if np.min(v) <= 0.0:
        return None
    evalsT, evecsT = np.linalg.eig(M.T)
    iT = int(np.argmin(np.abs(evalsT - lam_c)))
    u = evecsT[:, iT]
    if np.max(np.abs(u.imag)) > 1e-9 * np.max(np.abs(u)):
        return None
    u = u.real
    u = u * np.sign(u[np.argmax(np.abs(u))])
    if np.min(u) <= 0.0:
        return None
    v = v / v.sum()
    u = u / (u @ v)
    return lam, v, u, gap


def _mp_weight(w, t):
    if isinstance(w, Fraction):
        return mp.mpf(w.numerator) / w.denominator * t
    return mp.mpf(float(w)) * t


def _spectral_mp(adj, weights, t, dps):
    """Leading eigentriple of the shifted transfer matrix in mpmath."""
    n = len(adj)
    with mp.workdps(dps):
        ew = [mp.e ** _mp_weight(w, t) for w in weights]
        M = mp.zeros(n)
        for i in range(n):
            for j in range(n):
                if adj[i][j]:
                    M[i, j] = ew[i]
        E, ER = mp.eig(M)
        idx = max(range(n), key=lambda i: mp.re(E[i]))
        lam = mp.re(E[idx])
        sep = min((abs(E[i] - lam) for i in range(n) if i != idx), default=lam)
        gap = float(sep / lam) if lam > 0 else -1.0
        v = [mp.re(ER[i, idx]) for i in range(n)]
        big = max(range(n), key=lambda i: abs(v[i]))
        if v[big] < 0:
            v = [-x for x in v]
        ET, EL = mp.eig(M.T)
        idxT = min(range(n), key=lambda i: abs(ET[i] - lam))
        u = [mp.re(EL[i, idxT]) for i in range(n)]
        big = max(range(n), key=lambda i: abs(u[i]))
        if u[big] < 0:
            u = [-x for x in u]
        if lam <= 0 or min(v) <= 0 or min(u) <= 0:
            return None
        s = sum(v)
        v = [x / s for x in v]
        dot = sum(a * b for a, b in zip(u, v))
        u = [x / dot for x in u]
        return lam, v, u, gap


def _needed_dps(weights, t) -> int:
    span = max(float(w) for w in weights) - min(float(w) for w in weights)
    return min(DPS_CAP, 60 + int(0.55 * abs(t) * span) + 8 * len(weights))


def _beta_and_weights(phi: PotentialLC):
    recoded = recode_to_one_step(phi.sft, phi.k)
    exact = phi.mode == "exact"
    vals = [phi.value(b)[0] for b in recoded.states]
    if exact:
        vals = [Fraction(v) for v in vals]
    beta = karp_max_mean(recoded.n, recoded.edges(), lambda a, b: vals[a])
    weights = [v - beta for v in vals]
    return recoded, beta, weights


def pressure(phi: PotentialLC, t: float = 1.0) -> float:
    """Topological pressure of t * phi for a scalar potential."""
    if phi.m != 1:
        raise InvalidArgumentError("pressure takes a scalar potential")
    recoded, beta, weights = _beta_and_weights(phi)
    _require_irreducible(recoded.n, recoded.edges(), "pressure")
    n = recoded.n
    if all(abs(t * float(w)) < _EXP_SAFE for w in weights):
        M = np.array([[math.exp(t * float(weights[i])) if recoded.transition[i][j] else 0.0
                       for j in range(n)] for i in range(n)])
        lam = float(max(np.linalg.eigvals(M).real))
        if lam > 0.0:
            return math.log(lam) + t * float(beta)
    dps = _needed_dps(weights, t)
    if dps >= DPS_CAP:
        raise UnderflowError(f"pressure at t={t} needs more than {DPS_CAP} digits")
    with mp.workdps(dps):
        ew = [mp.e ** _mp_weight(w, t) for w in weights]
        M = mp.zeros(n)
        for i in range(n):
            for j in range(n):
                if recoded.transition[i][j]:
                    M[i, j] = ew[i]
        E, _ = mp.eig(M)
        lam = max(mp.re(x) for x in E)
        if lam <= 0:
            raise NumericError("transfer operator lost positivity")
        return float(mp.log(lam)) + t * float(beta)


def equilibrium_markov(phi: PotentialLC, t: float = 1.0) -> MarkovMeasure:
    """Equilibrium state of t * phi as a Markov measure on k-blocks.

    Doubles are used while the spectral gap supports them; otherwise the
    computation reruns in mpmath at a precision sized from t.
    """
    if phi.m != 1:
        raise InvalidArgumentError("equilibrium_markov takes a scalar potential")
    recoded, beta, weights = _beta_and_weights(phi)
    _require_irreducible(recoded.n, recoded.edges(), "equilibrium_markov")
    n = recoded.n
    adj = recoded.transition
    triple = None
    precision = "double"
    gap = None
    if all(abs(t * float(w)) < _EXP_SAFE for w in weights):
        M = np.array([[math.exp(t * float(weights[i])) if adj[i][j] else 0.0
                       for j in range(n)] for i in range(n)])
        got = _spectral_double(M)
        if got is not None:
            lam, v, u, gap = got
            triple = (float(lam), [float(x) for x in v], [float(x) for x in u])
    if triple is None:
        dps = _needed_dps(weights, t)
        if dps >= DPS_CAP:
            raise UnderflowError(
                f"equilibrium at t={t} needs more than {DPS_CAP} digits")
        for attempt in range(3):
            got = _spectral_mp(adj, weights, t, dps)
            if got is not None:
                lam_mp, v_mp, u_mp, gap = got
                if gap > 10.0 ** (-(dps - 25)):
                    break
            dps = min(DPS_CAP, dps * 2)
            got = None
        if got is None:
            raise NumericError(f"leading eigenpair not certified at t={t}")
        precision = f"mp[{dps}]"
        with mp.workdps(dps):
            triple = (lam_mp, v_mp, u_mp)
    lam, v, u = triple
    if precision == "double":
        P = np.zeros((n, n))
        for i in range(n):
            row_w = math.exp(t * float(weights[i]))
            for j in range(n):
                if adj[i][j]:
                    P[i, j] = row_w * v[j] / (lam * v[i])
        p = np.array([u[i] * v[i] for i in range(n)])
    else:
        with mp.workdps(dps):
            ew = [mp.e ** _mp_weight(w, t) for w in weights]
            Pm = [[ew[i] * v[j] / (lam * v[i]) if adj[i][j] else mp.mpf(0)
                   for j in range(n)] for i in range(n)]
            pm = [u[i] * v[i] for i in range(n)]
            P = np.array([[float(x) for x in row] for row in Pm])
            p = np.array([float(x) for x in pm])
            lam = float(lam)
    p = p / p.sum()
    P = P / P.sum(axis=1, keepdims=True)
    labels = tuple("".join(map(str, b)) if max(b) < 10 else ",".join(map(str, b))
                   for b in recoded.states)
    h = markov_entropy(p, P)
    return MarkovMeasure(labels, recoded.states, p, P, h,
                         pressure=math.log(lam) + t * float(beta),
                         beta=beta, t=t, gap=gap, precision=precision)


def parry_measure(sft: Sft) -> MarkovMeasure:
    """Measure of maximal entropy of an irreducible SFT."""
    zero = PotentialLC.constant(sft, 0)
    meas = equilibrium_markov(zero, t=1.0)
    return meas


def parry_from_matrix(matrix, labels=None, blocks=None) -> MarkovMeasure:
    """Parry measure from a raw 0/1 irreducible matrix.

    Convenience for maximizing-face components whose states are blocks
    of a larger shift.
    """
    n = len(matrix)
    _require_irreducible(n, matrix_edges(matrix), "parry_from_matrix")
    M = np.array(matrix, dtype=float)
    got = _spectral_double(M)
    if got is None:
        raise NumericError("Parry spectral data not certified in doubles")
    lam, v, u, gap = got
    P = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if matrix[i][j]:
                P[i, j] = v[j] / (lam * v[i])
    p = np.array([u[i] * v[i] for i in range(n)])
    p = p / p.sum()
    P = P / P.sum(axis=1, keepdims=True)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    if blocks is None:
        blocks = tuple((i,) for i in range(n))
    return MarkovMeasure(tuple(labels), tuple(blocks), p, P,
                         markov_entropy(p, P), pressure=float(np.log(lam)),
                         beta=None, t=None, gap=gap, precision="double")
