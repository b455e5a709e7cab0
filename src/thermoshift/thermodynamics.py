"""Pressure, equilibrium states, and Parry measures.

Transfer operators here are weighted adjacency matrices: at window 1 on
the one-step recoding, and at window k >= 2 on the (k-1)-block graph,
whose edges are the k-blocks, each weighted by the potential's value on
it, which has d times fewer states and the same nonzero spectrum as the
k-block recoding (``PotentialLC._transfer``); the measures on the
k-blocks are formed from that solve (``_chain``).  The maximum cycle
mean beta is subtracted from the potential, and the pressure gains
t*beta back.

Every spectral solve goes through one engine, ``spectral.Transfer``, in
doubles.  It scales the transfer matrix on both sides by max-plus
potentials (from the exact Howard pass that found beta), so that each
entry is at most 1, certifies the right and left Perron vectors of the
scaled matrices entrywise by Collatz-Wielandt bounds, aggregates over
tied maximizing components where they decouple at low temperature, and
forms the kernel and the masses from their exponents.  So masses far
below 1e-16 keep their relative accuracy, and those below the double
range keep it in ``MarkovMeasure.log_stationary``.  A solve that doubles
cannot certify raises UnderflowError or NumericError.

A potential is immutable and keeps what its solves share: the first
solve builds the recoding, the irreducibility check, beta (one exact
max-plus pass, as in ``max_face.max_mean_data``) and the scaled log
weights of phi - beta from that same pass (``spectral.Transfer``), and
every later ``pressure`` or ``equilibrium_markov`` call, at any finite
t, runs only the stages that depend on t.  The transfer keeps its
solves of the last 16 temperatures, so a pressure, an equilibrium state
and a sweep step of one potential at one t share one solve, in any
order; a kept solve holds its root, gap, right vector and, once read,
its masses, and each measure gets its own copy of the masses and a
kernel formed for it.  The engine's stages also take a stack axis:
``spectral.perron_stack`` solves transfers on one edge set, each at its
t, at once (face-curve samples); ``markov_entropy`` takes stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_sft import Sft
from .errors import InvalidArgumentError, NotTransitiveError
from .potential import PotentialLC


@dataclass
class MarkovMeasure:
    """A stationary Markov measure on a one-step shift.

    ``blocks`` are the underlying k-blocks of the states, ``stationary``
    the invariant distribution, ``transition`` the row-stochastic kernel.
    ``precision`` records how the spectral problem was solved, and
    ``log_stationary`` holds the log masses, which keep their value where
    a mass underflows to 0 in ``stationary``.
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
    log_stationary: np.ndarray | None = None

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


def _solve(phi: PotentialLC, t: float, what: str):
    """(beta, Perron solve) of t * phi on the one-step recoding; the
    recoding, the irreducibility check, beta and the max-plus scaling
    are the potential's own, built by its first solve, and the Perron
    solve is its transfer's, kept by t."""
    try:
        finite = math.isfinite(t)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise InvalidArgumentError(f"{what} needs a finite real t, got {t!r}")
    if phi.m != 1:
        raise InvalidArgumentError(f"{what} takes a scalar potential")
    if not phi._irreducible:
        raise NotTransitiveError(f"{what} needs an irreducible transition structure")
    return phi._max_plus[0], phi._transfer.solve(t)


def pressure(phi: PotentialLC, t: float = 1.0) -> float:
    """Topological pressure of t * phi for a scalar potential."""
    beta, sol = _solve(phi, t, "pressure")
    return sol.log_lam + t * float(beta)


def equilibrium_markov(phi: PotentialLC, t: float = 1.0) -> MarkovMeasure:
    """Equilibrium state of t * phi as a Markov measure on k-blocks.

    The solve runs in doubles, whatever the spectral gap (``spectral.Transfer``).
    """
    beta, sol = _solve(phi, t, "equilibrium_markov")
    return _measure(sol, phi._recoded.labels, phi._recoded.states, t, beta, phi.k > 1)


def _chain(sol, on_edges: bool = False, kernel: bool = True):
    """(p, log p, P) of the Markov chain that a Perron solve induces, each
    array its own (P None unless ``kernel``): on the states of its graph,
    or, ``on_edges``, on its edges, as for a potential of window k >= 2,
    whose transfer runs on its (k-1)-block graph (``PotentialLC._transfer``),
    whose edges are its k-blocks.  There, with p' the masses of the states
    and K(b) = B(b) y(suffix b) / (lam y(prefix b)) the kernel on edge b,
    p(b) = p'(prefix b) K(b) and P[a, b] = K(b) wherever b follows a,
    formed in log form, so that log p keeps the masses that underflow."""
    if not on_edges:
        return (sol.stationary.copy(), sol.log_stationary.copy(),
                sol.transition if kernel else None)
    src, dst, n = sol.graph
    lk = sol.log_kernel()
    lk -= np.log(np.bincount(src, np.exp(lk), n))[src]     # each state's edges sum to 1
    lp = sol.log_stationary[src] + lk
    return np.exp(lp), lp, np.where(dst[:, None] == src, np.exp(lk), 0.0) if kernel else None


def _measure(sol, labels, blocks, t=None, beta=None, on_edges=False) -> MarkovMeasure:
    """The Markov measure of a Perron solve on states, or on edges
    (``_chain``), with these labels and blocks, whose pressure is the
    solve's log root, plus t * beta for an equilibrium state of t * phi.
    The measure owns its arrays: the masses are copied out of the solve,
    which its transfer may keep, and the kernel is formed for it."""
    p, lp, P = _chain(sol, on_edges)
    return MarkovMeasure(tuple(labels), tuple(blocks), p, P, markov_entropy(p, P),
                         pressure=sol.log_lam if beta is None else sol.log_lam + t * float(beta),
                         beta=beta, t=t, gap=sol.gap, precision=sol.precision,
                         log_stationary=lp)


def parry_measure(sft: Sft) -> MarkovMeasure:
    """Measure of maximal entropy of an irreducible SFT."""
    zero = PotentialLC.constant(sft, 0)
    meas = equilibrium_markov(zero, t=1.0)
    return meas
