"""Maximizing subshifts of a scalar potential via max cycle mean.

The states of X are the admissible k-blocks (the one-step recoding);
the weight of an edge is the potential value at its source block.
Karp's algorithm gives the maximum cycle mean beta exactly on rational
weights; node potentials from a longest-path relaxation then cut out
the tight edges, whose recurrent part carries every cycle of mean beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .core_sft import RecodedSft, matrix_edges, perron, scc_of_edges
from .errors import InvalidArgumentError

if TYPE_CHECKING:
    from .potential import PotentialLC

TIGHT_TOL = 1e-9


def _cyclic_components(n: int, edges):
    """Nontrivial SCCs as sorted state lists, plus a state -> component
    id lookup (-1 for states on no cycle)."""
    sccs = [list(c.states) for c in scc_of_edges(n, edges) if c.is_nontrivial]
    comp_of = [-1] * n
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i
    return sccs, comp_of


def karp_max_mean(n: int, edges, w):
    """Maximum cycle mean of a digraph whose edge a -> b weighs w[a].

    Weights are ints, Fractions or floats; exact in, exact out (exact
    weights are scaled to ints by the lcm of their denominators).
    Raises InvalidArgumentError when the graph has no cycle.
    """
    sccs, comp_of = _cyclic_components(n, edges)
    local = [0] * n
    for comp in sccs:
        for i, v in enumerate(comp):
            local[v] = i
    comp_edges = [[] for _ in sccs]
    for (a, b) in edges:
        c = comp_of[a]
        if c >= 0 and c == comp_of[b]:
            comp_edges[c].append((local[a], local[b]))
    exact = all(isinstance(x, (int, Fraction)) for x in w)
    if exact:
        scale = math.lcm(*(x.denominator for x in w))
        w = [x.numerator * (scale // x.denominator) for x in w]
    best = None
    for comp, cedges in zip(sccs, comp_edges):
        m = len(comp)
        wloc = [w[v] for v in comp]
        D = [[None] * m for _ in range(m + 1)]
        D[0][0] = 0
        for prev, cur in zip(D, D[1:]):     # one pass over the edges per level
            for a, b in cedges:
                x = prev[a]
                if x is not None:
                    x += wloc[a]
                    if cur[b] is None or x > cur[b]:
                        cur[b] = x
        lcm_m = math.lcm(*range(1, m + 1))   # exact means as ints over lcm(1..m)
        comp_best = None
        for v in range(m):
            if D[m][v] is None:
                continue
            vals = [(D[m][v] - D[k][v]) * (lcm_m // (m - k)) if exact
                    else (D[m][v] - D[k][v]) / (m - k)
                    for k in range(m) if D[k][v] is not None]
            lo = min(vals)
            comp_best = lo if comp_best is None else max(comp_best, lo)
        if comp_best is not None:
            if exact:
                comp_best = Fraction(comp_best, lcm_m * scale)
            best = comp_best if best is None else max(best, comp_best)
    if best is None:
        raise InvalidArgumentError("graph has no cycle")
    return best


def longest_path_potentials(n: int, edges, w, beta):
    """Node potentials u with u[b] >= u[a] + w[a] - beta for every edge.

    Bellman-Ford style relaxation from a zero baseline; converges since
    no reduced cycle is positive.
    """
    u = [0 * beta] * n
    for _ in range(n):
        changed = False
        for (a, b) in edges:
            cand = u[a] + w[a] - beta
            if cand > u[b]:
                u[b] = cand
                changed = True
        if not changed:
            break
    return u


def tight_recurrent_part(n: int, edges, w, beta, u, tol=0.0):
    """Tight edges and the nontrivial SCCs of the subgraph they span."""
    if tol:
        scale = 1.0 + max((abs(float(w[a])) for (a, _) in edges), default=0.0)
        tight = [(a, b) for (a, b) in edges
                 if abs(float(u[a] + w[a] - beta - u[b])) <= tol * scale]
    else:
        tight = [(a, b) for (a, b) in edges if u[a] + w[a] - beta == u[b]]
    sccs, comp_of = _cyclic_components(n, tight)
    rec_edges = [(a, b) for (a, b) in tight
                 if comp_of[a] >= 0 and comp_of[a] == comp_of[b]]
    return rec_edges, sccs


def max_mean_data(n: int, edges, w):
    """(beta, recurrent tight edges, SCC node lists) of the max cycle
    mean of edges a -> b weighing w[a].

    Exact weights are tested for tightness on the integers
    (w - beta) * den; float weights within TIGHT_TOL of their scale.
    """
    beta = karp_max_mean(n, edges, w)
    return (beta, *_tight_data(n, edges, w, beta))


def _tight_data(n: int, edges, w, beta):
    """(recurrent tight edges, SCC node lists) of ``max_mean_data`` for a
    known maximum cycle mean beta."""
    if isinstance(beta, Fraction):
        den = math.lcm(beta.denominator, *(x.denominator for x in w))
        r = [int((x - beta) * den) for x in w]
        u = longest_path_potentials(n, edges, r, 0)
        return tight_recurrent_part(n, edges, r, 0, u)
    u = longest_path_potentials(n, edges, w, beta)
    return tight_recurrent_part(n, edges, w, beta, u, TIGHT_TOL)


def find_cycle(edges):
    """Any cycle in a nonempty recurrent edge set, as a node list."""
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
    """One transitive component of a maximizing subshift."""

    index: int
    state_ids: tuple[int, ...]       # indices into the recoded state list
    blocks: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[int, ...], ...]
    entropy: float

    def labels(self) -> tuple[str, ...]:
        return tuple("".join(map(str, b)) for b in self.blocks)


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


def _component_entropy(matrix) -> float:
    n = len(matrix)
    if n == 1:
        return 0.0
    return perron(n, matrix_edges(matrix), [0] * n).log_lam


def _build_components(recoded, rec_edges, sccs):
    comps = []
    rec_set = set(rec_edges)
    for i, comp in enumerate(sccs):
        ids = tuple(comp)
        blocks = tuple(recoded.states[v] for v in ids)
        mat = tuple(tuple(1 if (a, b) in rec_set else 0 for b in ids) for a in ids)
        comps.append(FaceComponent(i, ids, blocks, mat, _component_entropy(mat)))
    return comps


def face_subshift(phi: PotentialLC, alpha=None) -> FaceSubshift:
    """Maximizing subshift of alpha . Phi (or of a scalar phi directly).

    Components are listed by smallest recoded state; ``is_whole_shift``
    says whether every admissible transition is tight, i.e. the face is
    all of X.
    """
    if alpha is not None:
        if len(tuple(alpha)) != phi.m:
            raise InvalidArgumentError("direction length must equal potential dimension")
        from .potential import scalarize    # potential imports this module
        phi = scalarize(phi, alpha)
        direction = tuple(alpha)
    else:
        if phi.m != 1:
            raise InvalidArgumentError("scalar potential required when no direction given")
        direction = None
    recoded = phi._recoded
    rec_edges, sccs = phi._tight      # beta and the tight edges, kept with phi
    comps = _build_components(recoded, rec_edges, sccs)
    return FaceSubshift(direction, phi._beta, recoded, tuple(sorted(rec_edges)),
                        comps, len(rec_edges) == len(recoded.edges()), phi.mode)


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


def lex_extreme_cycle(recoded: RecodedSft, vecs, directions):
    """A cycle maximizing the mean of vecs lexicographically in the
    given exact directions; returns (cycle state ids, mean vector).

    ``vecs`` is one rational m-vector per recoded state.  Used for
    support-oracle hull construction without orbit enumeration; each
    direction restricts the search to the recurrent tight edges of the
    previous one.
    """
    edges = recoded.edges()
    for d in directions:
        w = [sum(di * xi for di, xi in zip(d, vec)) for vec in vecs]
        _, edges, _ = max_mean_data(recoded.n, edges, w)
    cyc = find_cycle(edges)
    p = len(cyc)
    mean = tuple(sum(vecs[v][i] for v in cyc) / p for i in range(len(vecs[0])))
    return cyc, mean
