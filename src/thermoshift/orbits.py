"""Elementary periodic orbits via simple-cycle enumeration.

A periodic word of prime period n is k-elementary when the k-blocks
read off at its n positions are pairwise distinct.  Those orbits are
exactly the simple cycles of the recoded one-step graph, so enumeration
is Johnson-style cycle listing on that graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .core_sft import Sft, recode_to_one_step
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


@functools.lru_cache(maxsize=64)
def elementary_orbits(sft: Sft, k: int, cap: int = DEFAULT_ORBIT_CAP) -> tuple[ElementaryOrbit, ...]:
    """All k-elementary periodic orbits, sorted by (period, segment).

    Raises ResourceLimitError when more than ``cap`` orbits exist.
    """
    import networkx as nx       # loaded only when a census is taken
    recoded = recode_to_one_step(sft, k)
    g = nx.DiGraph()
    g.add_nodes_from(range(recoded.n))
    g.add_edges_from(recoded.edges())
    # count raw cycles first so a blown cap aborts cheaply, before any
    # canonicalization work
    raw = []
    for count, cycle in enumerate(nx.simple_cycles(g)):
        if count >= cap:
            raise ResourceLimitError(f"orbit enumeration exceeded cap {cap}")
        raw.append(cycle)
    out = []
    for cycle in raw:
        seg = tuple(recoded.states[s][0] for s in cycle)
        n = len(seg)
        # the least rotation is unique, since the period is prime
        r = min(range(n), key=lambda i: seg[i:] + seg[:i])
        segment = seg[r:] + seg[:r]
        state_cycle = tuple(cycle[r:] + cycle[:r])
        out.append(ElementaryOrbit(
            k=k, period=n, segment=segment,
            state_cycle=state_cycle, cylinders=frozenset(state_cycle)))
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


def permutability_classes(orbits) -> list[tuple[int, ...]]:
    """Group orbit indices by equal cylinder sets.

    Orbits in one class share their union of k-cylinders, hence their
    period.  Input orbits must come from a single enumeration.
    """
    ks = {o.k for o in orbits}
    if len(ks) > 1:
        raise InvalidArgumentError("orbits mix different enumeration windows")
    groups: dict[frozenset, list[int]] = {}
    for i, o in enumerate(orbits):
        groups.setdefault(o.cylinders, []).append(i)
    classes = [tuple(sorted(ids)) for ids in groups.values()]
    classes.sort(key=lambda c: c[0])
    return classes
