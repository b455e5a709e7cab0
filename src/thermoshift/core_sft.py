"""Transition-matrix subshifts, higher-block recoding, and max-plus potentials.

A subshift of finite type is stored as a 0/1 transition matrix over a
finite alphabet; a word is admissible when every adjacent pair of
symbols is allowed.  Potentials constant on k-cylinders become functions
of the state after recoding to the one-step shift whose states are the
admissible k-blocks, which is what every downstream module works on.
The one exact max-plus routine of the package runs on their SCC split
(``_max_plus_pass``).  The module is pure Python; the Perron engine that
solves transfer matrices on these graphs is ``spectral``.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from operator import itemgetter, mul

from .errors import EmptyShiftError, InvalidArgumentError, ResourceLimitError


def _prune(rows: list[list[int]], labels: list[str]) -> tuple[list[list[int]], list[str]]:
    """Iteratively drop symbols with no successor or no predecessor."""
    alive = list(range(len(rows)))
    changed = True
    while changed and alive:
        changed = False
        keep = []
        for i in alive:
            row_ok = any(rows[i][j] for j in alive)
            col_ok = any(rows[j][i] for j in alive)
            if row_ok and col_ok:
                keep.append(i)
            else:
                changed = True
        alive = keep
    if not alive:
        raise EmptyShiftError("transition matrix prunes to the empty subshift")
    new_rows = [[rows[i][j] for j in alive] for i in alive]
    new_labels = [labels[i] for i in alive]
    return new_rows, new_labels


@dataclass(frozen=True)
class Sft:
    """One-sided subshift of finite type over symbols 0..d-1.

    ``transition[i][j] == 1`` allows symbol j to follow symbol i.
    ``labels`` remembers the original symbol names across pruning.
    """

    transition: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    @property
    def d(self) -> int:
        return len(self.transition)

    @staticmethod
    def full(d: int) -> "Sft":
        if d < 1:
            raise InvalidArgumentError("full shift needs d >= 1")
        row = tuple(1 for _ in range(d))
        return Sft(tuple(row for _ in range(d)), tuple(str(i) for i in range(d)))

    @classmethod
    def from_matrix(cls, rows, labels=None) -> "Sft":
        mat = [[1 if v else 0 for v in row] for row in rows]
        n = len(mat)
        if n == 0 or any(len(row) != n for row in mat):
            raise InvalidArgumentError("transition matrix must be square and nonempty")
        if labels is None:
            labels = [str(i) for i in range(n)]
        labels = [str(x) for x in labels]
        if len(labels) != n:
            raise InvalidArgumentError("labels length must match matrix size")
        mat, labels = _prune(mat, labels)
        return cls(tuple(tuple(r) for r in mat), tuple(labels))

    def edges(self):
        for i, row in enumerate(self.transition):
            for j, v in enumerate(row):
                if v:
                    yield (i, j)

    @functools.cached_property
    def _transitive(self) -> bool:
        """Whether the transition graph is one nontrivial SCC, found once
        per shift: ``is_transitive`` and the split of every recoding of
        it (``RecodedSft._split``) read this."""
        return _is_irreducible(self.d, self.edges())

    def to_json(self) -> str:
        return json.dumps(
            {"d": self.d, "transition": [list(r) for r in self.transition],
             "labels": list(self.labels)},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Sft":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidArgumentError(f"invalid shift JSON: {e}") from e
        try:
            return cls.from_matrix(obj["transition"], obj.get("labels"))
        except (KeyError, TypeError) as e:
            raise InvalidArgumentError(f"shift JSON needs a 'transition' matrix ({e!r})") from e


@dataclass(frozen=True)
class SccComponent:
    """A strongly connected component; nontrivial means it carries an edge."""

    states: tuple[int, ...]
    is_nontrivial: bool


def _tarjan(succ):
    """The SCCs of the digraph on states 0..n-1 with successor lists
    succ, each as a sorted state list with whether it carries an edge.

    Iterative Tarjan (1972), O(n + m).  A finished component's states get
    low = n, so no on-stack flags are needed.
    """
    n = len(succ)
    todo = [iter(s) for s in succ]
    index, low, pos = [-1] * n, [0] * n, [0] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        work = [root] if index[root] < 0 else []
        while work:
            v = work[-1]
            if index[v] < 0:
                index[v] = low[v] = counter
                counter += 1
                pos[v] = len(stack)
                stack.append(v)
            for w in todo[v]:
                if index[w] < 0:
                    work.append(w)
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[v])
                if low[v] == index[v]:
                    comp = sorted(stack[pos[v]:])
                    del stack[pos[v]:]
                    for w in comp:
                        low[w] = n
                    yield comp, len(comp) > 1 or v in succ[v]


def scc_of_edges(n: int, edges) -> list[SccComponent]:
    """SCCs of the digraph on states 0..n-1, ordered by smallest state
    (``_tarjan``)."""
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    comps = [SccComponent(tuple(c), cyclic) for c, cyclic in _tarjan(succ)]
    comps.sort(key=lambda c: c.states[0])
    return comps


TIGHT_TOL = 1e-9    # relative slack under which float weights count as tied
RECODE_STATE_CAP = 1 << 20      # k-blocks a recoding may hold
RECODE_SYMBOL_CAP = 1 << 22     # symbols n * k its blocks may hold together


def _cyclic_components(edges):
    """The nontrivial SCCs of a set of edges as sorted state lists,
    ordered by smallest state, and the edges inside them, in the given
    order.  Only the sources of the edges can lie on a cycle, so
    ``_tarjan`` runs on them alone, renumbered in order: the cost follows
    the edges, not the states of the graph they came from."""
    ids = {v: i for i, v in enumerate(sorted({a for a, _ in edges}))}
    succ = [[] for _ in ids]
    for a, b in edges:
        if b in ids:
            succ[ids[a]].append(ids[b])
    states = list(ids)
    sccs = sorted([states[i] for i in c] for c, cyclic in _tarjan(succ) if cyclic)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    return sccs, [(a, b) for (a, b) in edges if a in comp_of and comp_of[a] == comp_of.get(b)]


def _int_weights(w):
    """(ints, scale, exact): the weights times the lcm of their denominators
    (a float's of its binary value), and whether all were exact."""
    types = set(map(type, w))
    if types <= {int}:
        return list(w), 1, True
    exact = types <= {Fraction, int} or all(issubclass(t, (int, Fraction)) for t in types)
    try:
        ratios = [(x if exact else float(x)).as_integer_ratio() for x in w]
    except (OverflowError, ValueError):
        raise InvalidArgumentError("weights must be finite") from None
    scale = math.lcm(*set(map(itemgetter(1), ratios)))
    return [a * (scale // d) for a, d in ratios], scale, exact


def _howard(succ, nodes):
    """Howard policy iteration (Cochet-Terrasson, Cohen, Gaubert,
    McGettrick and Quadrat 1998) over ``nodes``, a union of SCCs whose
    edges a -> b of int weight w are the pairs (b, w) of ``succ[a]``:
    (p, q, h) with, on each SCC, its maximum cycle mean p/q in lowest
    terms and h[a] = max over them of (w q - p + h[b]).

    Each state starts on its heaviest edge, takes the mean of the policy
    cycle it reaches and h[a] = w q - p + h[b] along its policy edge, 0 at
    the cycle's smallest state, so states of one mean have h in the same
    units 1/q.  Then states move to a successor of larger mean or, where
    none has one, to an edge of equal mean and larger w q + h[b], until
    none moves.
    """
    n = len(succ)
    policy = [max(s, key=itemgetter(1)) if s else None for s in succ]
    p, q, h = [0] * n, [1] * n, [0] * n
    while True:
        walk = [-1] * n
        for v in nodes:
            if walk[v] >= 0:
                continue
            path, u = [], v
            while walk[u] < 0:
                walk[u] = v
                path.append(u)
                u = policy[u][0]
            if walk[u] == v:            # the walk closed a new policy cycle at u
                i = path.index(u)
                cyc = path[i:]
                total = sum(policy[x][1] for x in cyc)
                g = math.gcd(total, len(cyc))
                u = min(cyc)
                p[u], q[u], h[u] = total // g, len(cyc) // g, 0
                r = cyc.index(u)
                path = path[:i] + cyc[r + 1:] + cyc[:r]
            pc, qc = p[u], q[u]
            for x in reversed(path):        # each after its successor
                b, wx = policy[x]
                p[x], q[x] = pc, qc
                h[x] = wx * qc - pc + h[b]
        moved = False
        for v in nodes if len(set(zip(p, q))) > 1 else ():    # one mean: no move
            pv, qv = p[v], q[v]
            for e in succ[v]:
                b = e[0]
                if p[b] * qv > pv * q[b]:
                    pv, qv, policy[v], moved = p[b], q[b], e, True
        if not moved:
            for v in nodes:
                pv, qv = p[v], q[v]
                best = h[v] + pv            # w q + h[b] on the policy edge
                for e in succ[v]:
                    b, wb = e
                    if wb * qv + h[b] > best and p[b] == pv and q[b] == qv:
                        best, policy[v], moved = wb * qv + h[b], e, True
        if not moved:
            return p, q, h


def _max_plus_pass(n: int, split, scaled):
    """(beta, tight, h, unit, slack) of the one exact max-plus pass, on
    the SCC split (sccs, inner) of a digraph with weight w[i] on inner[i],
    given scaled to ints as (ints, scale, exact) (``_int_weights``), so
    beta is exact or rounded once: ``_howard`` on the ints.  On an SCC of
    mean p/q, h[a] = max (w q - p + h[b]) over edges a -> b in units 1/(q
    scale) (``unit`` at beta), and slack[i] = w q - p + h[b] - h[a] on
    inner[i].  An edge is tight when its SCC has mean beta and its slack
    is 0, or for floats when they fall short by at most TIGHT_TOL (1 +
    max |w|), a shortfall past the double range never (``_below``); the
    tight edges come unsplit, and a walk on them never stops
    (each source leaves by its tight policy edge)."""
    sccs, inner = split
    if not sccs:
        raise InvalidArgumentError("graph has no cycle")
    wi, scale, exact = scaled
    if not any(wi):                 # a 0/1 matrix is its own scaling
        return Fraction(0) if exact else 0.0, list(inner), [0] * n, 1, [0] * len(inner)
    succ = [[] for _ in range(n)]
    for (a, b), x in zip(inner, wi):
        succ[a].append((b, x))
    p, q, h = _howard(succ, [v for comp in sccs for v in comp])
    means = {(p[c[0]], q[c[0]]) for c in sccs}
    bp, bq = max(means, key=lambda m: Fraction(*m))
    if exact:
        beta, tol = Fraction(bp, bq * scale), 0.0
    else:
        beta, tol = bp / (bq * scale), TIGHT_TOL * (1.0 + max(map(abs, wi)) / scale)
        gap = {m: _below(*((Fraction(*m) - Fraction(bp, bq)) / scale).as_integer_ratio())
               for m in means}
    slack = [x * q[a] - p[a] + h[b] - h[a] for (a, b), x in zip(inner, wi)]
    tight = [e for e, s in zip(inner, slack)
             if not s and p[e[0]] == bp and q[e[0]] == bq
             or tol and gap[p[e[0]], q[e[0]]] + _below(s, q[e[0]] * scale) >= -tol]
    return beta, tight, h, bq * scale, slack


def _below(a: int, b: int) -> float:
    """a / b for ints a <= 0 < b, as a double, or -inf where the quotient
    leaves the double range: a float slack that far below 0 is not tight."""
    try:
        return a / b
    except OverflowError:
        return -math.inf


def _cheapest(adj, c):
    """Dijkstra from c on the lists adj[v] of (next state, cost >= 0): the
    cost of the cheapest path to each state, None where there is none."""
    dist, heap = [None] * len(adj), [(0, c)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is None:
            dist[v] = d
            for b, cost in adj[v]:
                heapq.heappush(heap, (d + cost, b))
    return dist


def _potentials(n: int, edges, mx, split=None):
    """(h, g, unit, classes, tight, slack) of an irreducible digraph from
    mx, the ``_max_plus_pass`` of weights w on its edges, and the split of
    its tight edges (``_cyclic_components``), made here unless given:
    balanced right and left max-plus eigenvectors (h[a] = max_b w - mean +
    h[b], g[b] = max_a g[a] + w - mean), the critical classes, the tight
    edges inside them and slack[i] = w - mean + h[b] - h[a] <= 0, in units
    1/unit.  With one class h is the pass's own and g + h the heaviest
    slack path from the class (Dijkstra on the costs -slack).  With
    several, for D[a, b] the heaviest path of w - mean (Dijkstra to and
    from the least state c_i of each class), h = max_i (D[a, c_i] + x_i)
    and g = max_i (y_i + D[c_i, b]), x and y this routine's h and g on
    D[c_i, c_j] (i != j), so that no tight path joins two classes."""
    _, tight, h, unit, slack = mx
    classes, tight = split or (_cyclic_components(tight) if len(tight) < len(edges)
                               else ([list(range(n))], tight))      # all tight: one class
    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    for (a, b), s in zip(edges, slack):
        succ[a].append((b, -s))
        pred[b].append((a, -s))
    heads = [k[0] for k in classes]
    if len(classes) == 1:
        f = [-d for d in _cheapest(succ, heads[0])] if len(tight) < len(edges) else [0] * n
        return h, [x - y for x, y in zip(f, h)], unit, classes, tight, slack
    cols = [[h[a] - h[c] - d for a, d in enumerate(_cheapest(pred, c))] for c in heads]
    rows = [[h[c] - h[b] - d for b, d in enumerate(_cheapest(succ, c))] for c in heads]
    r = len(heads)
    pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
    x, y, den, *_ = _potentials(r, pairs, _max_plus_pass(
        r, ([list(range(r))], pairs), _int_weights([cols[j][heads[i]] for i, j in pairs])))
    hb = [max(col[a] * den + xi for col, xi in zip(cols, x)) for a in range(n)]
    g = [max(row[b] * den + yi for row, yi in zip(rows, y)) for b in range(n)]
    slack = [s * den + hb[b] - h[b] * den - hb[a] + h[a] * den
             for (a, b), s in zip(edges, slack)]
    return hb, g, unit * den, classes, tight, slack


def matrix_edges(M) -> list[tuple[int, int]]:
    """Edges (i, j) of the positive entries of a square matrix, given as
    nested lists or tuples or as an array, in row-major order."""
    return [(i, j) for i, row in enumerate(M) for j, v in enumerate(row) if v > 0]


def strongly_connected_components(sft: Sft) -> list[SccComponent]:
    """SCCs of the transition graph, ordered by smallest contained state."""
    return scc_of_edges(sft.d, sft.edges())


def is_transitive(sft: Sft) -> bool:
    """True when the transition graph is a single (nontrivial) SCC."""
    return sft._transitive


def _is_irreducible(n: int, edges) -> bool:
    """True when the digraph on states 0..n-1 is one nontrivial SCC."""
    return _cyclic_components(list(edges))[0] == [list(range(n))]


@dataclass(frozen=True)
class RecodedSft:
    """One-step recoding on the alphabet of admissible k-blocks.

    State ``(b1..bk)`` has an edge to ``(c1..ck)`` exactly when the
    overlap ``b2..bk == c1..c(k-1)`` holds and the base matrix allows
    ``bk -> ck``.  States are listed in lexicographic order; the graph is
    held as its list of edges, about d n of them.  Its SCC split
    (``_split``) is kept, whatever reads it: irreducibility checks and
    every exact max-plus pass on the recoding.  A recoding of a transitive
    shift is never searched for SCCs, since it is one SCC.
    """

    base: Sft
    k: int
    states: tuple[tuple[int, ...], ...]
    _edges: tuple[tuple[int, int], ...]
    _index: dict[tuple[int, ...], int] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.states)

    def block_index(self) -> dict[tuple[int, ...], int]:
        """State id of each k-block."""
        return self._index

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Transitions (i, j) in row-major order."""
        return self._edges

    @functools.cached_property
    def _split(self):
        """The nontrivial SCCs and the edges inside them, as
        ``_cyclic_components`` gives them.  Where the base shift is
        transitive (``Sft._transitive``) that is every state and every
        edge with no search, since a higher-block presentation of an
        irreducible graph is irreducible (Lind and Marcus 1995, section 2.3)."""
        if self.base._transitive:
            return [list(range(self.n))], list(self._edges)
        return _cyclic_components(self._edges)

    @functools.cached_property
    def _block_graph(self):
        """(n, edges) of the (k-1)-block graph of a recoding at k >= 2 (the
        higher block presentation, Lind and Marcus 1995, section 2.3): its
        vertices are the (k-1)-blocks in order, and its edge i runs from
        state i's prefix to its suffix, so that its edges are the states in
        order and the recoding is its line graph.  Read off the recoding:
        its states are sorted, so those of one prefix are consecutive, and
        a state's suffix is the prefix of each of its successors."""
        states = self.states
        pre = list(accumulate((a[:-1] != b[:-1] for a, b in zip(states, states[1:])),
                              initial=0))
        succ = dict(self._edges)
        return pre[-1] + 1, [(u, pre[succ[i]]) for i, u in enumerate(pre)]

    @functools.cached_property
    def _transfer_graph(self):
        """(n, edges, weighs): the graph that the transfers of weights w on
        the states run on, its edge i weighing w[weighs[i]]: the recoding at
        k = 1, each edge weighing its target as in a pass, and at k >= 2
        ``_block_graph``, d times smaller, whose edge i is state i, so that
        the measures of its solves lie on its edges."""
        if self.k == 1:
            return self.n, self._edges, [b for _, b in self._edges]
        return (*self._block_graph, range(self.n))

    def _block_pass(self, mx, split):
        """(mx, split) on ``_block_graph``: the pass mx of weights w on
        the states of an irreducible recoding at k >= 2, each edge a -> b
        weighing w[b] (``max_face._state_pass``), and the split of its
        tight edges, mapped to the graph whose edge b weighs w[b], with no
        pass of its own.  A state's successors are the blocks whose
        prefix is its suffix, so h[a] = max over them of (w[b] q - p + h[b])
        depends on a's suffix alone: H[suffix a] = h[a] is the graph's
        max-plus eigenvector in the same units, and the slack of edge b is
        that of each edge into b.  The tight edges inside its critical
        classes are the states of the recoding's classes, and each class's
        vertices are their prefixes."""
        n, edges = self._block_graph
        beta, _, h, unit, slack = mx
        H, s = [0] * n, [0] * len(edges)
        for (_, v), x in zip(edges, h):
            H[v] = x
        for (_, b), x in zip(self._split[1], slack):
            s[b] = x
        sccs = split[0]
        inner = [edges[b] for b in sorted(chain.from_iterable(sccs))]
        classes = [list(dict.fromkeys(edges[b][0] for b in comp)) for comp in sccs]
        return (beta, inner, H, unit, s), (classes, inner)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Each state's ``_block_label``, built once per recoding."""
        return tuple(map(_block_label, self.states))


def _block_label(blk) -> str:
    """A block as text: its symbols run together, or comma-separated when
    one of them has two digits or more."""
    return "".join(map(str, blk)) if max(blk) < 10 else ",".join(map(str, blk))


def _block_count(transition, k: int) -> int:
    """The number of admissible k-blocks, 1' T^(k-1) 1 by squaring in
    ints, or 2^1024 where it is larger: every entry is held at 2^1024 at
    most, which leaves it exact below that, and no int outgrows it."""
    top = 1 << 1024

    def times(rows, cols):
        cols = list(cols)
        return [[min(sum(map(mul, r, c)), top) for c in cols] for r in rows]

    row, power, e = [[1] * len(transition)], transition, k - 1
    while e:
        if e & 1:
            row = times(row, zip(*power))
        e >>= 1
        if e:
            power = times(power, zip(*power))
    return min(sum(row[0]), top)


@functools.lru_cache(maxsize=256)
def recode_to_one_step(sft: Sft, k: int) -> RecodedSft:
    """Recode to the one-step shift on admissible k-blocks.

    Where the d^k blocks, or the k d^k symbols they hold, could pass
    RECODE_STATE_CAP or RECODE_SYMBOL_CAP, the blocks are counted first
    (``_block_count``), and a count over either cap raises
    ResourceLimitError before any block is built.  The L-blocks are the
    joins x + y, in order, of the (L//2)-blocks x with the (L - L//2)-blocks
    y whose first symbol may follow x's last, so they come sorted, each
    length built once; block i's edges go to blk[1:] + (s,) in order.
    """
    if k < 1:
        raise InvalidArgumentError("recoding window k must be >= 1")
    succ = [[s for s, v in enumerate(row) if v] for row in sft.transition]
    reach = sft.d ** min(k, 64)     # d^k, or over both caps once k passes 64
    if reach > RECODE_STATE_CAP or reach * k > RECODE_SYMBOL_CAP:
        count = _block_count(sft.transition, k)
        if count > RECODE_STATE_CAP:
            # _block_count stops at 2^1024
            size = count if count.bit_length() <= 1024 else "at least 2^1024"
            raise ResourceLimitError(f"the {k}-block recoding has {size} states, "
                                     f"over cap {RECODE_STATE_CAP}")
        if count * k > RECODE_SYMBOL_CAP:
            raise ResourceLimitError(f"the {k}-block recoding holds {count * k} symbols, "
                                     f"over cap {RECODE_SYMBOL_CAP}")
    built = {1: [[(s,)] for s in range(sft.d)]}

    def by_first(length):       # the sorted length-blocks, listed by first symbol
        if length not in built:
            heads, tails = by_first(length // 2), by_first(length - length // 2)
            built[length] = [[x + y for x in group for s in succ[x[-1]] for y in tails[s]]
                             for group in heads]
        return built[length]

    blocks = [blk for group in by_first(k) for blk in group]
    if not blocks:
        raise EmptyShiftError("no admissible k-blocks")
    index = {blk: i for i, blk in enumerate(blocks)}
    edges = tuple((i, index[blk[1:] + (s,)])
                  for i, blk in enumerate(blocks) for s in succ[blk[-1]])
    return RecodedSft(sft, k, tuple(blocks), edges, index)
