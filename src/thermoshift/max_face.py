"""Maximizing subshifts of a scalar potential via max cycle mean.

The states of X are the admissible k-blocks (the one-step recoding);
the weight of an edge is the potential value at its source block.
One exact max-plus pass, Howard policy iteration on integer-scaled
weights, gives the maximum cycle mean beta together with a max-plus
eigenvector h; the edges that h saturates at beta are the tight edges,
whose recurrent part carries every cycle of mean beta.  Every pass on a
recoding starts from its one SCC split (``RecodedSft._split``); a
pass's tight edges are split only where components are read, and a
support query walks them unsplit.  A face component whose 0/1 matrix
has all row sums, or all column sums, equal to r has the exact entropy
log r without a Perron solve; one periodic orbit (r = 1) takes exact
Parry data too (the uniform measure on the cycle).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from .core_sft import (TIGHT_TOL, RecodedSft, _cyclic_components, _howard, _int_weights,
                       matrix_edges)
from .errors import InvalidArgumentError

if TYPE_CHECKING:
    from .potential import PotentialLC
    from .spectral import PerronSolve


def max_mean_data(n: int, edges, w):
    """(beta, recurrent tight edges, SCC node lists) of the max cycle
    mean beta of edges a -> b weighing w[a]: ``_max_mean`` on the graph's
    own SCC split, its tight edges split in turn."""
    beta, tight = _max_mean(n, edges, w, _cyclic_components(edges))
    sccs, rec_edges = _cyclic_components(tight)
    return beta, rec_edges, sccs


def _max_mean(n: int, edges, w, split):
    """(beta, tight edges) of ``max_mean_data`` given ``split =
    _cyclic_components(edges)``, which a recoding keeps
    (``RecodedSft._split``) for every pass on it.

    ``_howard`` runs on the edges inside the nontrivial SCCs, each
    weighing w[b] (the same cycle sums, and a start at the heaviest
    successor), scaled to ints (a float by its exact binary value): beta
    is exact or rounded once, and h marks the tight edges: w[b] q - p +
    h[b] == h[a] on an SCC of mean beta = p/q, or for float weights within
    TIGHT_TOL of their scale.  They come unsplit, in the order of
    ``split``: the callers that read components (``face_subshift`` and
    the witnesses of ``cohomology_test``) split them.  Every source of a
    tight edge leaves by its policy edge, which is tight, to a state of
    the same mean, so a walk on them never stops.  Raises
    InvalidArgumentError when the graph has no cycle.
    """
    sccs, inner = split
    if not sccs:
        raise InvalidArgumentError("graph has no cycle")
    wi, scale, exact = _int_weights(w)
    succ = [[] for _ in range(n)]
    for a, b in inner:
        succ[a].append((b, wi[b]))
    p, q, h = _howard(succ, [v for comp in sccs for v in comp])
    means = {(p[c[0]], q[c[0]]) for c in sccs}
    bp, bq = max(means, key=lambda m: Fraction(*m))
    if exact:
        beta = Fraction(bp, bq * scale)
        tight = [(a, b) for (a, b) in inner
                 if p[a] == bp and q[a] == bq and wi[b] * bq - bp + h[b] == h[a]]
    else:
        beta = bp / (bq * scale)
        tol = TIGHT_TOL * (1.0 + max((abs(float(w[a])) for (a, _) in edges), default=0.0))
        top = Fraction(bp, bq)
        gap = {m: float((Fraction(*m) - top) / scale) for m in means}
        tight = [(a, b) for (a, b) in inner
                 if gap[p[a], q[a]] + (wi[b] * q[a] - p[a] + h[b] - h[a]) / (q[a] * scale)
                 >= -tol]
    return beta, tight


def find_cycle(edges):
    """A cycle in a nonempty edge set in which every target of an edge is
    a source too, as a node list: the walk from the least source along
    each state's first edge."""
    succ = {}
    for (a, b) in edges:
        succ.setdefault(a, []).append(b)
    start = min(succ)
    seen = {}
    path = [start]
    seen[start] = 0
    cur = start
    while True:
        nxt = succ[cur][0]
        if nxt in seen:
            return path[seen[nxt]:]
        seen[nxt] = len(path)
        path.append(nxt)
        cur = nxt


@dataclass(frozen=True)
class FaceComponent:
    """One transitive component of a maximizing subshift.  The Perron
    solve of its 0/1 matrix, which gives its Parry measure and, unless
    the matrix is regular, its entropy, runs once, on first use.  A cycle
    (``is_cycle``) needs none: its Parry data is exact."""

    index: int
    state_ids: tuple[int, ...]       # indices into the recoded state list
    blocks: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[int, ...], ...]
    recoded: RecodedSft = field(repr=False, compare=False)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.recoded.labels[v] for v in self.state_ids)

    @functools.cached_property
    def is_cycle(self) -> bool:
        """One periodic orbit: each state has one successor."""
        return all(sum(row) == 1 for row in self.matrix)

    @functools.cached_property
    def perron_solve(self) -> PerronSolve:
        import numpy as np                  # numpy loads only for Perron solves
        from .spectral import PerronSolve, Transfer
        n = len(self.matrix)
        if self.is_cycle:       # root 1, uniform measure, gap 2 sin(pi/n) clamped to 1
            return PerronSolve(0.0, np.array(self.matrix, dtype=float),
                               1.0 if n <= 6 else 2.0 * math.sin(math.pi / n),
                               "double", np.full(n, 1.0 / n))
        return Transfer(n, matrix_edges(self.matrix), [0] * n).solve()

    @functools.cached_property
    def entropy(self) -> float:
        """log r when every row, or every column, of the 0/1 matrix sums
        to r: the Perron root of an irreducible regular matrix is r, since
        the all-ones vector is a positive eigenvector of it or of its
        transpose (Lind and Marcus 1995, 4.2-4.4).  A cycle is r = 1.  Other
        components read it from the Perron solve."""
        for lines in (self.matrix, zip(*self.matrix)):
            sums = set(map(sum, lines))
            if len(sums) == 1:
                return math.log(sums.pop())
        return self.perron_solve.log_lam


@dataclass
class FaceSubshift:
    """Union of cycles maximizing the mean of a scalar potential."""

    direction: tuple | None
    beta: object
    recoded: RecodedSft
    tight_edges: tuple
    components: list[FaceComponent]
    is_whole_shift: bool
    mode: str

    @property
    def entropy(self) -> float:
        return max(c.entropy for c in self.components)


def _build_components(recoded, rec_edges, sccs):
    comps = []
    rec_set = set(rec_edges)
    for i, comp in enumerate(sccs):
        ids = tuple(comp)
        blocks = tuple(recoded.states[v] for v in ids)
        mat = tuple(tuple(1 if (a, b) in rec_set else 0 for b in ids) for a in ids)
        comps.append(FaceComponent(i, ids, blocks, mat, recoded))
    return comps


def face_subshift(phi: PotentialLC, alpha=None) -> FaceSubshift:
    """Maximizing subshift of alpha . Phi (or of a scalar phi directly).

    Components are listed by smallest recoded state; ``is_whole_shift``
    says whether every admissible transition is tight, i.e. the face is
    all of X.  For an exact Phi and a rational alpha the pass weighs each
    state by a . row, for Phi's exact values as int rows over their
    common denominator L and alpha as a / c: the same tight edges as
    alpha . Phi, and beta divided by c L, with no scalar potential built.
    """
    recoded = phi._recoded
    if alpha is None:
        if phi.m != 1:
            raise InvalidArgumentError("scalar potential required when no direction given")
        beta, rec_edges, sccs = phi._max_plus     # kept with phi
        direction, mode = None, phi.mode
    else:
        direction = tuple(alpha)
        if len(direction) != phi.m:
            raise InvalidArgumentError("direction length must equal potential dimension")
        if phi.mode == "exact" and all(isinstance(a, (int, Fraction)) for a in direction):
            a, c, _ = _int_weights(direction)
            rows, L = phi._int_rows         # exact values, nothing snapped
            w = [sum(map(mul, a, row)) for row in rows]
            beta, tight = _max_mean(recoded.n, recoded.edges(), w, recoded._split)
            beta /= c * L
            sccs, rec_edges = _cyclic_components(tight)
            mode = "exact"
        else:
            from .potential import scalarize    # potential imports this module
            beta, rec_edges, sccs = scalarize(phi, direction)._max_plus
            mode = "float"
    comps = _build_components(recoded, rec_edges, sccs)
    return FaceSubshift(direction, beta, recoded, tuple(sorted(rec_edges)),
                        comps, len(rec_edges) == len(recoded.edges()), mode)


def max_entropy_components(face: FaceSubshift, tol: float = TIGHT_TOL):
    """Indices of components with maximal entropy, plus a near-tie flag.

    The flag reports an unselected component within 1e-6 of the cut,
    where the float comparison stops being trustworthy evidence of a
    strict gap.
    """
    top = max(c.entropy for c in face.components)
    ids = tuple(c.index for c in face.components if c.entropy >= top - tol)
    flagged = any(top - 1e-6 < c.entropy < top - tol for c in face.components)
    return ids, flagged


def extreme_cycle(recoded: RecodedSft, rows, d):
    """A cycle of maximum mean of d . row, for one integer row per
    recoded state and an integer direction d; returns (cycle state ids,
    the sum of the rows along it).  One exact max-plus pass on the
    recoding's split, whose tight edges are walked as they are, with no
    split: the support query of rotation-set hulls.
    """
    w = [sum(map(mul, d, row)) for row in rows]
    _, tight = _max_mean(recoded.n, recoded.edges(), w, recoded._split)
    cyc = find_cycle(tight)
    return cyc, tuple(map(sum, zip(*(rows[v] for v in cyc))))
