"""Maximizing subshifts of a scalar potential via max cycle mean.

The states of X are the admissible k-blocks (the one-step recoding);
the weight of an edge is the potential value at its source block.
One exact max-plus pass (``core_sft._max_plus_pass``, Howard policy
iteration) gives the maximum cycle mean beta and a max-plus eigenvector
h, which also scales a potential's transfer; the edges that h saturates
at beta are the tight edges, whose recurrent part carries every cycle of
mean beta.  Every pass on a recoding starts from its one SCC split
(``RecodedSft._split``); a pass's tight edges are split only where
components are read, and a support query walks them unsplit.  A face
component whose 0/1 matrix has all row sums, or all column sums, equal
to r has the exact entropy log r without a Perron solve; one periodic
orbit (r = 1) takes exact Parry data too (the uniform measure on the
cycle).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from .core_sft import (TIGHT_TOL, RecodedSft, _cyclic_components, _int_weights,
                       _max_plus_pass, matrix_edges)
from .errors import InvalidArgumentError

if TYPE_CHECKING:
    from .potential import PotentialLC
    from .spectral import PerronSolve


def max_mean_data(n: int, edges, w):
    """(beta, recurrent tight edges, SCC node lists) of the max cycle
    mean beta of edges a -> b weighing w[a]: ``_state_pass`` on the
    graph's own SCC split, its tight edges split in turn."""
    beta, tight = _state_pass(n, _cyclic_components(edges), w)[:2]
    sccs, rec_edges = _cyclic_components(tight)
    return beta, rec_edges, sccs


def _state_pass(n: int, split, w):
    """``core_sft._max_plus_pass`` on an SCC split for edges a -> b weighing
    w[a], each weighing w[b] instead: the same cycle sums.  The n state
    weights are scaled to ints once (``_int_weights``), not once per
    in-edge."""
    wi, scale, exact = _int_weights(w)
    return _max_plus_pass(n, split, ([wi[b] for _, b in split[1]], scale, exact))


def find_cycle(edges):
    """A cycle in a nonempty edge set in which every target of an edge is
    a source too, as a node list: the walk from the least source along
    each state's first edge."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, b)
    path, seen, cur = [], {}, min(succ)
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = succ[cur]
    return path[seen[cur]:]


def cycle_gap(n: int) -> float:
    """The gap of the Perron root 1 of an n-cycle's matrix: 2 sin(pi/n),
    its distance to the next n-th root of unity, clamped to 1."""
    return 1.0 if n <= 6 else 2.0 * math.sin(math.pi / n)


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
        from .spectral import PerronSolve, Transfer, _ends
        n, edges = len(self.matrix), matrix_edges(self.matrix)
        if self.is_cycle:       # root 1, uniform measure, each edge taken surely
            return PerronSolve(0.0, cycle_gap(n),
                               lambda: (np.full(n, 1.0 / n), np.full(n, -math.log(n))),
                               lambda: np.zeros(n), (*_ends(edges), n))
        return Transfer(n, edges, [0] * len(edges)).solve()

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
    alpha . Phi, and beta divided by c L; otherwise the doubles that
    ``scalarize`` gives.  Either way no scalar potential is built.
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
            den, mode = c * L, "exact"
        else:
            w = [float(sum(float(x) * float(y) for x, y in zip(direction, vec)))
                 for vec in phi.state_values()]
            den, mode = 1, "float"
        beta, tight = _state_pass(recoded.n, recoded._split, w)[:2]
        beta /= den
        sccs, rec_edges = _cyclic_components(tight)
    comps = _build_components(recoded, rec_edges, sccs)
    return FaceSubshift(direction, beta, recoded, tuple(sorted(rec_edges)),
                        comps, len(rec_edges) == len(recoded.edges()), mode)


def max_entropy_components(face: FaceSubshift):
    """Indices of components with maximal entropy, plus a near-tie flag.

    The flag reports an unselected component within 1e-6 of the cut,
    where the float comparison stops being trustworthy evidence of a
    strict gap.
    """
    top = max(c.entropy for c in face.components)
    ids = tuple(c.index for c in face.components if c.entropy >= top - TIGHT_TOL)
    flagged = any(top - 1e-6 < c.entropy < top - TIGHT_TOL for c in face.components)
    return ids, flagged


def extreme_cycle(recoded: RecodedSft, rows, d):
    """A cycle of maximum mean of d . row, for one integer row per
    recoded state and an integer direction d; returns (cycle state ids,
    the sum of the rows along it).  One exact max-plus pass on the
    recoding's split, whose tight edges are walked as they are, with no
    split: the support query of rotation-set hulls.
    """
    w = [sum(map(mul, d, row)) for row in rows]
    _, tight = _state_pass(recoded.n, recoded._split, w)[:2]
    cyc = find_cycle(tight)
    return cyc, tuple(map(sum, zip(*(rows[v] for v in cyc))))
