"""Transition-matrix subshifts, higher-block recoding, and Perron data.

A subshift of finite type is stored as a 0/1 transition matrix over a
finite alphabet; a word is admissible when every adjacent pair of
symbols is allowed.  Potentials constant on k-cylinders become functions
of the state after recoding to the one-step shift whose states are the
admissible k-blocks, which is what every downstream module works on.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import itemgetter

import numpy as np

from .errors import (
    EmptyShiftError,
    InvalidArgumentError,
    NumericError,
    UnderflowError,
)


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
    def from_matrix(cls, rows, labels=None, prune: bool = True) -> "Sft":
        mat = [[1 if v else 0 for v in row] for row in rows]
        n = len(mat)
        if n == 0 or any(len(row) != n for row in mat):
            raise InvalidArgumentError("transition matrix must be square and nonempty")
        if labels is None:
            labels = [str(i) for i in range(n)]
        labels = [str(x) for x in labels]
        if len(labels) != n:
            raise InvalidArgumentError("labels length must match matrix size")
        if prune:
            mat, labels = _prune(mat, labels)
        elif not all(any(r) for r in mat) or not all(any(mat[i][j] for i in range(n)) for j in range(n)):
            raise InvalidArgumentError("dead symbols present and prune=False")
        return cls(tuple(tuple(r) for r in mat), tuple(labels))

    def matrix(self) -> np.ndarray:
        return np.array(self.transition, dtype=np.uint8)

    def edges(self):
        for i, row in enumerate(self.transition):
            for j, v in enumerate(row):
                if v:
                    yield (i, j)

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


def scc_of_edges(n: int, edges) -> list[SccComponent]:
    """SCCs of the digraph on states 0..n-1, ordered by smallest state.

    Iterative Tarjan (1972) on successor lists, O(n + m).  A finished
    component's states get low = n, so no on-stack flags are needed.
    """
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    todo = [iter(s) for s in succ]
    index, low, pos = [-1] * n, [0] * n, [0] * n
    stack: list[int] = []
    comps = []
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
                    comps.append(SccComponent(tuple(comp), len(comp) > 1 or v in succ[v]))
    comps.sort(key=lambda c: c.states[0])
    return comps


TIGHT_TOL = 1e-9    # relative slack under which float weights count as tied


def _cyclic_components(n: int, edges):
    """Nontrivial SCCs as sorted state lists, and the edges inside them,
    in the given order."""
    sccs = [list(c.states) for c in scc_of_edges(n, edges) if c.is_nontrivial]
    comp_of = [-1] * n
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i
    return sccs, [(a, b) for (a, b) in edges if comp_of[a] >= 0 and comp_of[a] == comp_of[b]]


def _int_weights(w):
    """(ints, scale, exact): the weights times the lcm of their denominators
    (a float's of its binary value), and whether all were exact."""
    exact = all(isinstance(x, (int, Fraction)) for x in w)
    try:
        ratios = [(x.numerator, x.denominator) if exact else float(x).as_integer_ratio()
                  for x in w]
    except (OverflowError, ValueError):
        raise InvalidArgumentError("weights must be finite") from None
    scale = math.lcm(*(d for _, d in ratios))
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
        for v in nodes:
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
                    if p[b] == pv and q[b] == qv and wb * qv + h[b] > best:
                        best, policy[v], moved = wb * qv + h[b], e, True
        if not moved:
            return p, q, h


def _potentials(n: int, edges, w):
    """(mean, h, den, classes) of an irreducible digraph with edge weights
    w, exact: the maximum cycle mean, a balanced max-plus eigenvector h /
    den of w - mean (h in ints) and the critical classes, the nontrivial
    SCCs of the edges of reduced weight w - mean + h[b] - h[a] = 0 (for
    floats, >= -TIGHT_TOL (1 + max |w|)).  With several classes h is max_i
    (D[a, c_i] + g_i): D[a, c] the heaviest path to the least state c_i of
    class i (Dijkstra on the reduced weights, all <= 0), g this routine's
    h on D[c_i, c_j] (i != j), so that no tight path joins two classes."""
    if not any(w):                  # a 0/1 matrix is its own scaling
        return Fraction(0), [0] * n, 1, [list(range(n))]
    wi, scale, exact = _int_weights(w)
    succ = [[] for _ in range(n)]
    for (a, b), x in zip(edges, wi):
        succ[a].append((b, x))
    p, q, h = _howard(succ, range(n))
    p, q = p[0], q[0]
    unit = q * scale                # of h and of the reduced weights
    tol = 0.0 if exact else TIGHT_TOL * (1.0 + max(abs(float(x)) for x in w))
    slack = [x * q - p + h[b] - h[a] for (a, b), x in zip(edges, wi)]
    classes = _cyclic_components(
        n, [e for e, s in zip(edges, slack) if not s or tol and s / unit >= -tol])[0]
    if len(classes) > 1:
        pred = [[] for _ in range(n)]
        for (a, b), s in zip(edges, slack):
            pred[b].append((a, -s))
        cols = []
        for c in (k[0] for k in classes):
            dist, heap = [None] * n, [(0, c)]
            while heap:
                d, v = heapq.heappop(heap)
                if dist[v] is None:
                    dist[v] = d
                    for a, cost in pred[v]:
                        heapq.heappush(heap, (d + cost, a))
            cols.append([h[a] - h[c] - d for a, d in enumerate(dist)])
        pairs = [(i, j) for i in range(len(cols)) for j in range(len(cols)) if i != j]
        _, g, den, _ = _potentials(len(cols), pairs, [cols[j][classes[i][0]] for i, j in pairs])
        h = [max(col[a] * den + gi for col, gi in zip(cols, g)) for a in range(n)]
        unit *= den
    return Fraction(p, q * scale), h, unit, classes


def matrix_edges(M) -> list[tuple[int, int]]:
    """Edges (i, j) of the positive entries of a square matrix."""
    rows, cols = np.nonzero(np.asarray(M) > 0)
    return list(zip(rows.tolist(), cols.tolist()))


def strongly_connected_components(sft: Sft) -> list[SccComponent]:
    """SCCs of the transition graph, ordered by smallest contained state."""
    return scc_of_edges(sft.d, sft.edges())


def is_transitive(sft: Sft) -> bool:
    """True when the transition graph is a single (nontrivial) SCC."""
    return _is_irreducible(sft.d, sft.edges())


def _is_irreducible(n: int, edges) -> bool:
    """True when the digraph on states 0..n-1 is one nontrivial SCC."""
    comps = scc_of_edges(n, edges)
    return len(comps) == 1 and comps[0].is_nontrivial


@dataclass(frozen=True)
class RecodedSft:
    """One-step recoding on the alphabet of admissible k-blocks.

    State ``(b1..bk)`` has an edge to ``(c1..ck)`` exactly when the
    overlap ``b2..bk == c1..c(k-1)`` holds and the base matrix allows
    ``bk -> ck``.  States are listed in lexicographic order.
    """

    base: Sft
    k: int
    states: tuple[tuple[int, ...], ...]
    transition: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.states)

    def matrix(self) -> np.ndarray:
        return np.array(self.transition, dtype=np.uint8)

    def block_index(self) -> dict[tuple[int, ...], int]:
        """State id of each k-block, built once per recoding."""
        return self._index

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Transitions (i, j) in row-major order, built once per recoding."""
        return self._edges

    @functools.cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        n = self.n
        return tuple((i, j) for i, row in enumerate(self.transition)
                     for j in compress(range(n), row))

    @functools.cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {blk: i for i, blk in enumerate(self.states)}

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Each state's ``_block_label``, built once per recoding."""
        return tuple(map(_block_label, self.states))


def _block_label(blk) -> str:
    """A block as text: its symbols run together, or comma-separated when
    one of them has two digits or more."""
    return "".join(map(str, blk)) if max(blk) < 10 else ",".join(map(str, blk))


@functools.lru_cache(maxsize=256)
def recode_to_one_step(sft: Sft, k: int) -> RecodedSft:
    """Recode to the one-step shift on admissible k-blocks.

    For k = 1 this is a trivial wrapper around the base matrix.
    """
    if k < 1:
        raise InvalidArgumentError("recoding window k must be >= 1")
    d = sft.d
    blocks: list[tuple[int, ...]] = [()]
    for pos in range(k):
        nxt = []
        for blk in blocks:
            if pos == 0:
                nxt.extend((s,) for s in range(d))
            else:
                last = blk[-1]
                nxt.extend(blk + (s,) for s in range(d) if sft.transition[last][s])
        blocks = nxt
    blocks.sort()
    if not blocks:
        raise EmptyShiftError("no admissible k-blocks")
    index = {blk: i for i, blk in enumerate(blocks)}
    n = len(blocks)
    rows = [[0] * n for _ in range(n)]
    for i, blk in enumerate(blocks):
        last = blk[-1]
        for s in range(d):
            if sft.transition[last][s]:
                tgt = blk[1:] + (s,)
                j = index.get(tgt)
                if j is not None:
                    rows[i][j] = 1
    return RecodedSft(sft, k, tuple(blocks), tuple(tuple(r) for r in rows))




# -- the Perron engine -------------------------------------------------------

GAP_FLOOR = 1e-5         # below this relative gap, doubles are not trusted
DPS_CAP = 5000           # hard ceiling on escalated working precision
_EXP_SAFE = 700.0        # |exponent| beyond which doubles underflow
_CW_TOL = 1e-13          # accepted Collatz-Wielandt excess of the vector
_POLISH_STEPS = 500      # bound on subtraction-free polishing steps
_SHIFTS = np.array([0.0, 0.125, 0.5, 1.0])   # candidate power-step shifts
_AGG_ROUNDS = 8          # bound on aggregation rounds


class PerronSolve:
    """Perron root of the transfer matrix exp(t * w[a]) on edges a -> b,
    with the Markov kernel it induces; the stationary vector of the
    kernel is computed when first read.  If its state reduction
    underflows, the solve is redone in mpmath and every field takes the
    values of that solve.

    ``gap`` is the relative distance from the root to the rest of the
    spectrum, at most 1 (estimated from the coupling matrix after
    aggregation); ``precision`` is "double" or "mp[digits]".
    """

    def __init__(self, log_lam: float, transition: np.ndarray, gap: float,
                 precision: str, stationary: np.ndarray | None = None,
                 escalate=None):
        self.log_lam = log_lam
        self.transition = transition
        self.gap = gap
        self.precision = precision
        self._escalate = escalate
        if stationary is not None:
            self.stationary = stationary

    @functools.cached_property
    def stationary(self) -> np.ndarray:
        p = _gth_stationary(self.transition)
        if np.isfinite(p).all():
            return p
        sol = self._escalate()
        self.log_lam, self.transition, self.gap, self.precision = (
            sol.log_lam, sol.transition, sol.gap, sol.precision)
        return sol.stationary


class Transfer:
    """The transfer matrix exp(t * w[a]) on the edges a -> b of an
    irreducible digraph, for weights w with maximum cycle mean 0, with
    the parts of its Perron solves that do not depend on t: the edge
    arrays, the log weights W and their balanced max-plus potentials and
    critical classes from one exact pass (``_potentials``).  They are
    built with the object and are read-only, so ``solve`` runs only the
    stages that depend on t.
    """

    def __init__(self, n: int, edges, weights):
        self.n, self.edges, self.weights = n, edges, weights
        src, dst = self.ends = _ends(edges)
        w = np.fromiter(map(float, weights), float, n)
        W = self.log_weights = np.full((n, n), -np.inf)
        W[src, dst] = w[src]
        # edges weigh their targets, as in max_mean_data; h then shifts by w - mean
        mean, h, den, classes = _potentials(n, edges, [weights[b] for _, b in edges])
        self.potentials = h, classes = (np.array([x / den for x in h]) + (w - float(mean)),
                                        list(map(np.array, classes)))
        _readonly(src, dst, W, h, *classes)

    def solve(self, t: float = 1.0) -> PerronSolve:
        """The Perron data of exp(t * w), as ``perron`` describes it."""
        escalate = functools.partial(_escalate, self.n, self.edges, self.weights, t)
        got = _perron_pair(self.log_weights, self.potentials, t, self.ends)
        if got is None:
            return escalate()
        B, lam, y, gap = got
        P, positive = _kernel(B, lam, y, *self.ends)
        if not positive:
            return escalate()
        return PerronSolve(math.log(lam), P, gap, "double", escalate=escalate)


def perron(n: int, edges, weights, t: float = 1.0) -> PerronSolve:
    """Perron data of exp(t * w) on an irreducible digraph, each entry to
    relative accuracy; the weights w have maximum cycle mean 0.

    The matrix is scaled by a balanced max-plus eigenvector h of w (h[a]
    = max_b w[a] + h[b]; a diagonal scaling is an exact similarity), so
    that every entry of B = exp(t (w[a] + h[b] - h[a])) is at most 1 and
    every row has a 1 (Akian, Bapat and Gaubert 1998); h comes from the
    exact pass ``_potentials``.  One dense eigensolve of B gives the root, the gap
    and a start vector, which power steps polish until the Collatz-Wielandt
    bounds min(By/y) <= lam <= max(By/y) agree to _CW_TOL; below GAP_FLOOR,
    or if that fails, tied critical classes go to ``_aggregate``.  The kernel is
    B[a, b] y[b] / (lam y[a]); its stationary vector comes from GTH state
    reduction (O'Cinneide 1993).  Escalates to mpmath when a scaled entry
    leaves the double range, the solve does not certify, or a kernel
    entry or the state reduction underflows.  A ``Transfer`` keeps the
    parts that do not depend on t for many solves; the same stages solve
    many of them, each at its own t, at once in ``perron_stack``.
    """
    return Transfer(n, edges, weights).solve(t)


def perron_stack(transfers, t):
    """(log_lam, transition, stationary) of ``transfers[i].solve(t[i])``
    for each lane i, as stacked arrays; the transfers share one edge set.

    Max-plus eigenvectors are homogeneous, so each lane scales by t[i]
    times its transfer's potentials, with no max-plus pass, and the lanes
    take the steps of their own solves together, stage by stage.  A lane
    leaves the stack and is solved by ``perron`` alone (aggregation, then
    mpmath) when a scaled entry leaves the double range, its gap is below
    GAP_FLOOR, its polish does not certify, or its kernel underflows.
    """
    t = np.asarray(t, dtype=float)
    n, (src, dst) = transfers[0].n, transfers[0].ends
    rows = {id(tr): (tr.log_weights[src, dst], tr.potentials[0]) for tr in transfers}
    w, h = (np.stack(x, axis=-1) for x in zip(*(rows[id(tr)] for tr in transfers)))
    B, ok = _scale(w, h, src, dst, t)
    lanes = np.flatnonzero(ok)
    B = B.transpose(2, 0, 1)[lanes]
    lam, y, _, ok = _certify(B)
    lanes, lam = lanes[ok], lam[ok]
    P, ok = _kernel(B[ok], lam[:, None], y[ok], src, dst)
    lanes, lam, P = lanes[ok], lam[ok], P[ok]
    log_lam = np.full(len(t), np.nan)
    kernel = np.zeros((len(t), n, n))
    p = np.full((len(t), n), np.nan)
    log_lam[lanes], kernel[lanes], p[lanes] = np.log(lam), P, _gth_stationary(P)
    for i in np.flatnonzero(~np.isfinite(p).all(axis=1)):
        sol = perron(n, transfers[i].edges, transfers[i].weights, t[i])
        log_lam[i], kernel[i], p[i] = sol.log_lam, sol.transition, sol.stationary
    return log_lam, kernel, p


def _ends(edges):
    """Arrays of the sources and the targets of a list of edges."""
    ends = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges))
    return ends[0::2], ends[1::2]


def _readonly(*arrays) -> None:
    """Mark arrays that many solves share read-only, so that a stage
    writing into one fails instead of changing later solves."""
    for a in arrays:
        a.setflags(write=False)


def _perron_pair(W: np.ndarray, potentials, t: float = 1.0, ends=None):
    """(B, lam, y, gap) of B = exp(t (W[a, b] + h[b] - h[a])) for log
    weights W (-inf off the edges) of maximal cycle mean 0 and their
    max-plus potentials (h, classes), with y certified entrywise; None
    when doubles cannot certify it.  The edge arrays of W are found
    unless given."""
    if W.shape == (1, 1):           # a loop of weight 0: its own Perron pair
        return np.ones((1, 1)), 1.0, np.ones(1), 1.0
    h, classes = potentials
    src, dst = np.nonzero(W > -np.inf) if ends is None else ends
    B, ok = _scale(W[src, dst], h, src, dst, t)
    if not ok:
        return None
    lam, y, gap, ok = _certify(B)
    if ok:
        return B, float(lam), y, float(gap)
    got = _aggregate(B, classes) if len(classes) > 1 else None
    return None if got is None else (B, *got)


# The stages below take one solve, or a stack of them (``perron_stack``):
# on the last axis in the scaling stage, where values with
# one entry per lane broadcast against it, and on the first axis from the
# eigensolve on, as in numpy.linalg, where such values take a trailing
# axis (lam[..., None]).  ``perron`` does not run as a stack of one: with
# the indexing that needs, the single solves of the low-temperature
# benchmark ran about a fifth slower.

def _lanes(i) -> tuple:
    """Index of every lane, to go with an index i per lane: () for one
    solve, (0..S-1,) for a stack."""
    return (np.arange(len(i)),) if i.ndim else ()


def _scale(w: np.ndarray, h: np.ndarray, src, dst, t: float):
    """B = exp(t (w + h[dst] - h[src])) on the edges, for edge weights w and
    potentials h, and whether every scaled entry stays inside the double
    range."""
    s = t * (w + h[dst] - h[src])
    ok = (s.min(axis=0) > -_EXP_SAFE) & (s.max(axis=0) < _EXP_SAFE)
    B = np.zeros((len(h),) + h.shape)
    B[src, dst] = np.exp(np.minimum(s, _EXP_SAFE))     # no overflow where not ok
    return B, ok


def _certify(B: np.ndarray):
    """(lam, y, gap, ok) of B: one eigensolve gives the root, the relative
    gap and a start vector, which ``_polish`` certifies where the gap is at
    least GAP_FLOOR (ok)."""
    evals, evecs = np.linalg.eig(B)
    i = evals.real.argmax(axis=-1)
    lanes = _lanes(i)
    lam = np.maximum(evals[(*lanes, i)].real, 1.0)     # B has a cycle of 1s
    mu = evals / lam[..., None]
    mu[(*lanes, i)] = 0.0           # the root's own mode: every step removes it
    gap = np.abs(mu - 1.0).min(axis=-1, initial=1.0)
    y, ok = _polish(B, np.abs(evecs[(*lanes, slice(None), i)].real), lam, mu,
                    gap >= GAP_FLOOR)
    return lam, y, gap, ok


def _aggregate(B: np.ndarray, classes):
    """(lam, y, gap) of B by iterative aggregation-disaggregation over
    its tied classes (Koury, McAllister and Stewart 1984), or None.  The
    dominant classes have 0/1 matrices A_i of tight edges with the top
    Perron root rho and vectors s_i, l_i (l_i s_i = 1).  Each round
    eliminates the other states from (rho + delta) I - B (only pivots
    subtract; row k keeps the multipliers of y[k]); with E the complement
    less the A_i, delta and the class weights are the Perron pair of C_ij
    = l_i E_ij u_j, sums of positive products (Meyer 1989), and a bordered
    solve of (rho - A_i) + (delta - E_ii) corrects each shape u_i.
    """
    top = []
    for K in classes:
        W_A = np.where(B[np.ix_(K, K)] > 1.0 - TIGHT_TOL, 0.0, -np.inf)
        flat = np.zeros(len(K)), [np.arange(len(K))]     # a 0/1 matrix is its own scaling
        right, left = _perron_pair(W_A, flat), _perron_pair(W_A.T, flat)
        if right is None or left is None:
            return None
        top.append((right[1], K, right[0], right[2], left[2] / (left[2] @ right[2])))
    rho = max(x[0] for x in top)
    top = [x for x in top if x[0] >= rho * (1.0 - TIGHT_TOL)]
    if len(top) < 2:
        return None
    rhos, Ks, As, ss, ls = zip(*top)
    m = sum(map(len, Ks))
    order = np.concatenate([*Ks, np.setdiff1d(np.arange(len(B)), np.concatenate(Ks))])
    ends = np.cumsum([0, *map(len, Ks)])
    cuts = [slice(a, b) for a, b in zip(ends, ends[1:])]
    B0 = B[np.ix_(order, order)]
    inner = np.zeros((m, m), dtype=bool)        # the diagonal blocks
    for cut, A in zip(cuts, As):
        B0[cut, cut][A == 1.0] = 0.0            # E leaves out the A_i
        inner[cut, cut] = True
    delta, u = 0.0, ss
    for _ in range(_AGG_ROUNDS):
        S = B0.copy()
        for k in range(len(B) - 1, m - 1, -1):
            piv = rho + delta - S[k, k]
            if not piv > 0.0:
                return None
            S[k, :k] /= piv
            S[:k, :k] += S[:k, k, None] * S[k, :k]
        E = S[:m, :m]
        C = np.array([[l @ E[ci, cj] @ uj for cj, uj in zip(cuts, u)]
                      for ci, l in zip(cuts, ls)])
        W = np.log(C, out=np.full(C.shape, -np.inf), where=C > 0.0)
        edges = matrix_edges(C)
        if len(scc_of_edges(len(C), edges)) != 1:
            return None                 # a coupling underflowed
        mean, h, den, classes = _potentials(len(C), edges, W[C > 0])
        h = np.array([x / den for x in h])
        got = _perron_pair(W - float(mean), (h, classes))
        if got is None:
            return None
        _, new_delta, c, gap = got
        new_delta, c = new_delta * math.exp(mean), np.exp(h - h.max()) * c
        f = np.where(inner, 0.0, E) @ np.concatenate([ci * ui for ci, ui in zip(c, u)])
        new_u = []
        for cut, ci, rho_i, A, s, l in zip(cuts, c, rhos, As, ss, ls):
            k, Eii = len(s), E[cut, cut]
            bordered = np.zeros((k + 1, k + 1))
            bordered[:k, :k] = rho_i * np.eye(k) - A + (new_delta * np.eye(k) - Eii)
            bordered[:k, k], bordered[k, :k] = s, l
            rhs = np.append(f[cut] / ci + Eii @ s - new_delta * s, 0.0)
            new_u.append(s + np.linalg.solve(bordered, rhs)[:k])
        done = abs(new_delta - delta) <= _CW_TOL * new_delta and all(
            np.all(np.abs(a - b) <= _CW_TOL * b) for a, b in zip(new_u, u))
        delta, u = new_delta, new_u
        if done:
            break
    else:
        return None
    x = np.concatenate([*(ci * ui for ci, ui in zip(c, u)), np.zeros(len(B) - m)])
    for k in range(m, len(B)):      # the eliminated states, last eliminated first
        x[k] = S[k, :k] @ x[:k]
    y = x[np.argsort(order)]
    r = B @ y / y                   # Collatz-Wielandt ratios, as in _polish
    if not (y.min() > 0.0 and r.max() / r.min() - 1.0 <= _CW_TOL):
        return None
    return rho + delta, y, gap * delta / (rho + delta)


def _polish(B: np.ndarray, y: np.ndarray, lam, mu: np.ndarray, ok):
    """(y, ok): positive y whose Collatz-Wielandt ratios By/y agree to
    _CW_TOL, and whether that was reached, for one solve or each lane of
    a stack; lanes not ok on entry fail at once, and the root's own entry
    of mu is 0.

    Power steps on B, alternating with steps on B + c lam I, are free of
    subtraction; the shift c is chosen from the other eigenvalues mu
    (over lam) to contract fastest.  Modes that contract by less than
    half in two steps (nearly uncoupled parts) would need about 1/gap
    steps, and with them a small excess bounds the error only by about
    excess / gap: once the other modes are gone (the excess is certified
    or stalls), the filter (B - m lam I) removes each such m, at a
    cancellation cost of lam / |lam - m|.  A lane fails if that fails.
    The lanes take the same steps and leave the stack when done; each
    lane's slow modes are filtered on their own.
    """
    if not np.count_nonzero(ok):
        return y, ok
    norm = 1.0 + _SHIFTS
    grow = np.abs(mu[..., None] * (mu[..., None] + _SHIFTS))   # |mu (mu + c)| for each c
    j = (grow / norm).max(axis=-2, initial=0.0).argmin(axis=-1)
    lanes = _lanes(j)
    slow = (grow > 0.5 * norm)[(*lanes, slice(None), j)] & (mu.imag >= 0.0)
    pending = np.count_nonzero(slow)    # slow modes still in y
    cl = (_SHIFTS[j] * lam)[..., None]
    older = last = np.inf * lam     # the last two excesses: a stall spans two steps
    out = None                      # y of a stack, once lanes have left it
    for step in range(_POLISH_STEPS):
        By = (B @ y[..., None])[..., 0]
        # a zero in y (only before y first turns positive) gives a nan
        # excess: neither certified nor a stall
        r = By / (y if y.min() > 0.0 else np.where(y > 0.0, y, np.nan))
        excess = r.max(axis=-1) / r.min(axis=-1) - 1.0
        done = ok & (excess <= _CW_TOL)
        gone = done | ~ok
        new = By + cl * y if step % 2 else By
        if pending:
            flat = ok & slow.any(axis=-1) & (done | (excess > 0.9 * older))
            if np.count_nonzero(flat):
                done, gone = done & ~flat, np.array(gone & ~flat)
                for i in np.ndindex(flat.shape):   # () for one solve
                    if flat[i]:
                        new[i] = _deflate(B[i], y[i], lam[i], mu[i][slow[i]])
                        gone[i] = not new[i].min() > 0.0
                        slow[i] = False
                pending = np.count_nonzero(slow)
        older, last = last, excess
        left = np.count_nonzero(gone)
        if left == gone.size:
            break
        if left:                    # some lanes of a stack leave
            if out is None:
                out, certified = np.empty_like(y), np.zeros(len(y), dtype=bool)
                live = np.arange(len(y))
            out[live[done]], certified[live[done]] = y[done], True
            keep = ~gone
            B, new, lam, mu, slow, cl, older, last, ok, live = (
                x[keep] for x in (B, new, lam, mu, slow, cl, older, last, ok, live))
        y = new / new.max(axis=-1, keepdims=True)
    else:
        done = np.zeros_like(ok)
    if out is None:
        return y, done
    out[live], certified[live] = y, done
    return out, certified


def _deflate(B: np.ndarray, y: np.ndarray, lam: float, modes) -> np.ndarray:
    """y with the eigencomponents of the eigenvalues lam * modes removed;
    a complex mode stands for its conjugate pair too."""
    for m in modes * lam:
        By = B @ y
        if m.imag == 0.0:
            y = By - m.real * y
        else:
            y = B @ By - 2.0 * m.real * By + abs(m) ** 2 * y
    return y


def _kernel(B: np.ndarray, lam, y: np.ndarray, src, dst):
    """Row-stochastic kernels B[a, b] y[b] / (lam y[a]) of B with leading
    stack axes, and whether each is positive on the edges; lam
    broadcasts against y."""
    P = B * y[..., None, :] / (lam * y)[..., None]
    P /= P.sum(axis=-1, keepdims=True)
    return P, P[..., src, dst].min(axis=-1) > 0.0


@np.errstate(divide="ignore", invalid="ignore")
def _gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix, or of each of
    a stack, by GTH state reduction (Grassmann, Taksar and Heyman 1985):
    the pivots are sums of off-diagonal entries, so nothing is subtracted.
    Where a pivot underflows to 0, the masses come out non-finite.
    It runs on a transposed view, which puts the lanes of a stack last,
    so that values of one lane broadcast and a single matrix runs on
    scalars."""
    A = P.copy().T                  # A[b, a] = P[a, b], P's memory layout
    n = len(A)
    for k in range(n - 1, 0, -1):
        row = A[:k, k]
        col = A[k, :k] / row.sum(axis=0)
        A[k, :k] = col
        A[:k, :k] += row[:, None] * col
    x = np.ones(A.shape[1:])
    for k in range(1, n):
        x[k] = np.vecdot(A[k, :k], x[:k], axis=0)
        if max(x[k].flat) > 1.0:    # keep the largest mass of each at 1: no overflow
            x[:k + 1] /= np.maximum(x[k], 1.0)
    return (x / x.sum(axis=0)).T


def _needed_dps(weights, t) -> int:
    span = max(float(w) for w in weights) - min(float(w) for w in weights)
    return min(DPS_CAP, 60 + int(0.55 * abs(t) * span) + 8 * len(weights))


def _escalate(n, edges, weights, t) -> PerronSolve:
    """Rerun in mpmath, from a precision sized from t and the weight span."""
    return _spectral_mp(n, edges, weights, t, _needed_dps(weights, t))


def _spectral_mp(n, edges, weights, t, dps) -> PerronSolve:
    """The same Perron data from mpmath eigensolves, from dps digits on.
    The digits double until both eigenvectors are positive and satisfy
    their equations to 1e-20 relative in every entry; past DPS_CAP digits
    it raises UnderflowError."""
    import mpmath as mp     # only the escalated path needs it

    def mpf(w):
        if isinstance(w, Fraction):
            return mp.mpf(w.numerator) / w.denominator
        return mp.mpf(float(w))

    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    while dps < DPS_CAP:
        with mp.workdps(dps):
            ew = [mp.e ** (mpf(w) * t) for w in weights]
            M = mp.zeros(n)
            for a, b in edges:
                M[a, b] = ew[a]
            E, EL, ER = mp.eig(M, left=True, right=True)
            idx = max(range(n), key=lambda i: mp.re(E[i]))
            lam = mp.re(E[idx])
            v = [mp.re(ER[i, idx]) for i in range(n)]
            u = [mp.re(EL[idx, i]) for i in range(n)]
            v, u = ([x if max(vec, key=abs) > 0 else -x for x in vec] for vec in (v, u))
            # (M v)[a] / (lam v[a]) and (u M)[b] / (lam u[b]), each to be 1
            right = (ew[a] * mp.fsum(v[b] for b in succ[a]) / (lam * v[a]) for a in range(n))
            left = (mp.fsum(u[a] * ew[a] for a in pred[b]) / (lam * u[b]) for b in range(n))
            tol = mp.mpf(10) ** -20
            if lam > 0 and min(v) > 0 and min(u) > 0 and all(
                    abs(r - 1) < tol for r in chain(right, left)):
                sep = min((abs(E[i] - lam) for i in range(n) if i != idx), default=lam)
                gap = float(sep / lam)
                if not gap > 10.0 ** (-(dps - 25)):
                    raise NumericError(f"leading eigenpair not certified at t={t}")
                P = np.zeros((n, n))
                for a, b in edges:
                    P[a, b] = float(ew[a] * v[b] / (lam * v[a]))
                z = mp.fsum(x * y for x, y in zip(u, v))
                p = np.array([float(x * y / z) for x, y in zip(u, v)])
                return PerronSolve(float(mp.log(lam)), P / P.sum(axis=1, keepdims=True),
                                   gap, f"mp[{dps}]", p)
        dps *= 2
    raise UnderflowError(f"Perron solve at t={t} needs more than {DPS_CAP} digits")
