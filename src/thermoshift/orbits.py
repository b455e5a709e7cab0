"""Elementary periodic orbits via simple-cycle enumeration.

A periodic word of prime period n is k-elementary when the k-blocks
read off at its n positions are pairwise distinct.  Those orbits are
exactly the simple cycles of the recoded one-step graph, which are
listed by Johnson's algorithm ("Finding all the elementary circuits of
a directed graph", SIAM J. Comput. 1975) on successor lists, without
recursion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .core_sft import Sft, _cyclic_components, recode_to_one_step
from .errors import InvalidArgumentError, ResourceLimitError

DEFAULT_ORBIT_CAP = 10**6


@dataclass(frozen=True)
class ElementaryOrbit:
    """One k-elementary periodic orbit.

    ``segment`` is the lexicographically least rotation of a generating
    word; ``state_cycle`` gives the visited k-block state ids in the
    recoded graph, aligned with ``segment``; ``cylinders`` is the set of
    those ids (size equals the period).
    """

    k: int
    period: int
    segment: tuple[int, ...]
    state_cycle: tuple[int, ...]
    cylinders: frozenset[int]

    def blocks(self, width: int) -> list[tuple[int, ...]]:
        """The width-blocks read at each position of the periodic word."""
        n = self.period
        return [tuple(self.segment[(i + j) % n] for j in range(width))
                for i in range(n)]


def _circuits(n: int, edges):
    """Elementary circuits of the digraph on states 0..n-1, as tuples.

    A worklist holds nontrivial SCCs as sorted state lists.  Each round
    lists the circuits through a component's least state s with Johnson's
    blocked-set search, then queues the nontrivial SCCs left once s is
    removed, so each round only touches the states of its component.
    """
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    work = _cyclic_components(edges)[0]
    while work:
        comp = work.pop()
        local = {v: i for i, v in enumerate(comp)}
        adj = [[local[w] for w in succ[v] if w in local] for v in comp]
        # Johnson's search from local state 0: a blocked state stays off
        # the path until a circuit through it closes; waiting[w] lists
        # the states to unblock together with w
        blocked = [True] + [False] * (len(comp) - 1)
        waiting = [set() for _ in comp]
        stack = [[0, iter(adj[0]), False]]     # state, successors, closed
        while stack:
            top = stack[-1]
            for w in top[1]:
                if w == 0:
                    yield tuple(comp[f[0]] for f in stack)
                    top[2] = True
                elif not blocked[w]:
                    blocked[w] = True
                    stack.append([w, iter(adj[w]), False])
                    break
            else:
                v, _, closed = stack.pop()
                if not closed:
                    for w in adj[v]:
                        waiting[w].add(v)
                    continue
                if stack:
                    stack[-1][2] = True
                release = [v]
                while release:
                    u = release.pop()
                    if blocked[u]:
                        blocked[u] = False
                        release.extend(waiting[u])
                        waiting[u].clear()
        rest = [(a - 1, b - 1) for a in range(1, len(comp)) for b in adj[a] if b]
        work.extend([comp[v + 1] for v in c] for c in _cyclic_components(rest)[0])


@functools.lru_cache(maxsize=64)
def elementary_orbits(sft: Sft, k: int, cap: int = DEFAULT_ORBIT_CAP) -> tuple[ElementaryOrbit, ...]:
    """All k-elementary periodic orbits, sorted by (period, segment).

    Raises ResourceLimitError when more than ``cap`` orbits exist.
    """
    recoded = recode_to_one_step(sft, k)
    # count raw cycles first so a blown cap aborts cheaply, before any
    # orbit is built
    raw = []
    for count, cycle in enumerate(_circuits(recoded.n, recoded.edges())):
        if count >= cap:
            raise ResourceLimitError(f"orbit enumeration exceeded cap {cap}")
        raw.append(cycle)
    # each circuit starts at its least state, which is its least k-block
    # (states are sorted blocks, pairwise distinct along the orbit), so
    # the word read from there is already the least rotation
    states, out = recoded.states, []
    for cycle in raw:
        out.append(ElementaryOrbit(
            k=k, period=len(cycle), segment=tuple(states[s][0] for s in cycle),
            state_cycle=cycle, cylinders=frozenset(cycle)))
    out.sort(key=lambda o: (o.period, o.segment))
    return tuple(out)


def birkhoff_average(orbit: ElementaryOrbit, potential) -> tuple:
    """Average of the potential along the orbit, one entry per coordinate.

    Exact when the potential carries rationals.  The potential's window
    must not exceed the orbit's enumeration window.
    """
    if potential.k > orbit.k:
        raise InvalidArgumentError(
            f"potential window {potential.k} exceeds orbit enumeration window {orbit.k}")
    n = orbit.period
    totals = None
    for block in orbit.blocks(potential.k):
        vec = potential.value(block)
        totals = vec if totals is None else tuple(a + b for a, b in zip(totals, vec))
    if isinstance(totals[0], Fraction) or isinstance(totals[0], int):
        return tuple(Fraction(t, n) if not isinstance(t, Fraction) else t / n for t in totals)
    return tuple(t / n for t in totals)
