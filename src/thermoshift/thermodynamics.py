"""Pressure, equilibrium states, and Parry measures.

Transfer operators here are weighted adjacency matrices on the one-step
recoding, with the weight of an edge attached to its source block.  The
maximum cycle mean beta is subtracted from the potential, and the
pressure gains t*beta back.

Every spectral solve goes through one engine, ``core_sft.perron``.  It
scales the transfer matrix by max-plus potentials so that each entry is
at most 1, solves it in doubles, certifies the Perron vector entrywise
by a Collatz-Wielandt bound, and takes the stationary vector from GTH
state reduction, so that masses far below 1e-16 keep their relative
accuracy, also when tied maximizing components decouple at low
temperature (aggregation over them).  mpmath is used only when a scaled
entry leaves the double range or a solve does not certify; the precision
is then sized from t and the weight range and recorded as ``mp[digits]``.
The engine's stages also take a stack axis: ``core_sft.perron_stack``
solves many weight rows on one edge set at once (the face-curve samples),
and ``markov_entropy`` takes stacked chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_sft import Sft, matrix_edges, perron, recode_to_one_step, scc_of_edges
from .errors import InvalidArgumentError, NotTransitiveError
from .max_face import karp_max_mean
from .potential import PotentialLC


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
    """Entropy rate of a stationary Markov chain, in nats; for chains
    stacked on a leading axis, the array of their rates."""
    p = np.asarray(p, dtype=float)
    P = np.asarray(P, dtype=float)
    logs = np.log(P, out=np.zeros_like(P), where=P > 0.0)
    h = 0.0 - (p[..., :, None] * P * logs).sum(axis=(-2, -1))    # 0.0, never -0.0
    return float(h) if h.ndim == 0 else h


def _require_irreducible(n: int, edges, what: str):
    comps = scc_of_edges(n, edges)
    if len(comps) != 1 or not comps[0].is_nontrivial:
        raise NotTransitiveError(f"{what} needs an irreducible transition structure")


def _solve(phi: PotentialLC, t: float, what: str):
    """(recoding, beta, Perron solve) of t * phi on the one-step recoding."""
    if phi.m != 1:
        raise InvalidArgumentError(f"{what} takes a scalar potential")
    recoded = recode_to_one_step(phi.sft, phi.k)
    vals = [x for (x,) in phi.state_values()]
    edges = recoded.edges()
    _require_irreducible(recoded.n, edges, what)
    beta = karp_max_mean(recoded.n, edges, vals)
    return recoded, beta, perron(recoded.n, edges, [v - beta for v in vals], t)


def pressure(phi: PotentialLC, t: float = 1.0) -> float:
    """Topological pressure of t * phi for a scalar potential."""
    _, beta, sol = _solve(phi, t, "pressure")
    return sol.log_lam + t * float(beta)


def equilibrium_markov(phi: PotentialLC, t: float = 1.0) -> MarkovMeasure:
    """Equilibrium state of t * phi as a Markov measure on k-blocks.

    Doubles are used, whatever the spectral gap, unless a scaled entry
    leaves the double range or a solve does not certify; then the
    computation reruns in mpmath.
    """
    recoded, beta, sol = _solve(phi, t, "equilibrium_markov")
    labels = tuple("".join(map(str, b)) if max(b) < 10 else ",".join(map(str, b))
                   for b in recoded.states)
    return MarkovMeasure(labels, recoded.states, sol.stationary, sol.transition,
                         markov_entropy(sol.stationary, sol.transition),
                         pressure=sol.log_lam + t * float(beta),
                         beta=beta, t=t, gap=sol.gap, precision=sol.precision)


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
    edges = matrix_edges(matrix)
    _require_irreducible(n, edges, "parry_from_matrix")
    sol = perron(n, edges, [0] * n)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    if blocks is None:
        blocks = tuple((i,) for i in range(n))
    return MarkovMeasure(tuple(labels), tuple(blocks), sol.stationary, sol.transition,
                         markov_entropy(sol.stationary, sol.transition),
                         pressure=sol.log_lam, beta=None, t=None, gap=sol.gap,
                         precision=sol.precision)
