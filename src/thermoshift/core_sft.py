"""Transition-matrix subshifts, higher-block recoding, and Perron data.

A subshift of finite type is stored as a 0/1 transition matrix over a
finite alphabet; a word is admissible when every adjacent pair of
symbols is allowed.  Potentials constant on k-cylinders become functions
of the state after recoding to the one-step shift whose states are the
admissible k-blocks, which is what every downstream module works on.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

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
        if "transition" not in obj:
            raise InvalidArgumentError("shift JSON needs a 'transition' field")
        return cls.from_matrix(obj["transition"], obj.get("labels"))


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


def matrix_edges(M) -> list[tuple[int, int]]:
    """Edges (i, j) of the positive entries of a square matrix."""
    rows, cols = np.nonzero(np.asarray(M) > 0)
    return list(zip(rows.tolist(), cols.tolist()))


def strongly_connected_components(sft: Sft) -> list[SccComponent]:
    """SCCs of the transition graph, ordered by smallest contained state."""
    return scc_of_edges(sft.d, sft.edges())


def is_transitive(sft: Sft) -> bool:
    """True when the transition graph is a single (nontrivial) SCC."""
    comps = strongly_connected_components(sft)
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
_TIE_TOL = 1e-9          # relative slack under which weights count as tied
_AGG_ROUNDS = 8          # bound on aggregation rounds


class PerronSolve:
    """Perron root of the transfer matrix exp(t * w[a]) on edges a -> b,
    with the Markov kernel it induces; the stationary vector of the
    kernel is computed when first read.

    ``gap`` is the relative distance from the root to the rest of the
    spectrum, at most 1 (estimated from the coupling matrix after
    aggregation); ``precision`` is "double" or "mp[digits]".
    """

    def __init__(self, log_lam: float, transition: np.ndarray, gap: float,
                 precision: str, stationary: np.ndarray | None = None):
        self.log_lam = log_lam
        self.transition = transition
        self.gap = gap
        self.precision = precision
        if stationary is not None:
            self.stationary = stationary

    @functools.cached_property
    def stationary(self) -> np.ndarray:
        p = _gth_stationary(self.transition)
        if not np.isfinite(p).all():
            raise NumericError("state reduction of the kernel underflowed")
        return p


def perron(n: int, edges, weights, t: float = 1.0) -> PerronSolve:
    """Perron data of exp(t * w) on an irreducible digraph, each entry to
    relative accuracy; the weights w have maximum cycle mean 0.

    The matrix is scaled by a balanced max-plus eigenvector h of w (h[a]
    = max_b w[a] + h[b]; a diagonal scaling is an exact similarity), so
    that every entry of B = exp(t (w[a] + h[b] - h[a])) is at most 1 and
    every row has a 1 (Akian, Bapat and Gaubert 1998).  One dense
    eigensolve of B gives the root, the relative gap and a start vector,
    which power steps polish until the Collatz-Wielandt bounds min(By/y)
    <= lam <= max(By/y) agree to _CW_TOL; below GAP_FLOOR, or if that
    fails, tied critical classes go to ``_aggregate``.  The kernel is
    B[a, b] y[b] / (lam y[a]); its stationary vector comes from GTH state
    reduction (O'Cinneide 1993).  Escalates to mpmath when a scaled entry
    leaves the double range, the solve does not certify, or a kernel
    entry underflows.
    """
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    src, dst = ends[:, 0], ends[:, 1]
    w = np.array([float(x) for x in weights])
    W = np.full((n, n), -np.inf)
    W[src, dst] = w[src]
    got = _perron_pair(W, t)
    if got is None:
        return _escalate(n, edges, weights, t)
    B, _, lam, y, gap = got
    P = B * y / (lam * y[:, None])
    P /= P.sum(axis=1, keepdims=True)
    if not P[src, dst].min() > 0.0:
        return _escalate(n, edges, weights, t)
    return PerronSolve(math.log(lam), P, gap, "double")


def _perron_pair(W: np.ndarray, t: float = 1.0):
    """(B, h, lam, y, gap) of B = exp(t (W[a, b] + h[b] - h[a])) for log
    weights W (-inf off the edges) of maximal cycle mean 0, with y
    certified entrywise; None when doubles cannot certify it."""
    h, classes = _maxplus_potentials(W)
    src, dst = np.nonzero(W > -np.inf)
    s = t * (W[src, dst] + h[dst] - h[src])
    if not -_EXP_SAFE < s.min() <= s.max() < _EXP_SAFE:
        return None
    B = np.zeros(W.shape)
    B[src, dst] = np.exp(s)
    evals, evecs = np.linalg.eig(B)
    i = int(np.argmax(evals.real))
    lam = max(float(evals[i].real), 1.0)    # B has a cycle of 1s
    mu = np.delete(evals, i) / lam
    gap = float(np.abs(mu - 1.0).min(initial=1.0))
    y = _polish(B, np.abs(evecs[:, i].real), lam, mu) if gap >= GAP_FLOOR else None
    if y is not None:
        return B, h, lam, y, gap
    got = _aggregate(B, classes) if len(classes) > 1 else None
    return None if got is None else (B, h, *got)


def _maxplus_potentials(W: np.ndarray):
    """A balanced max-plus eigenvector h = max_b (W[a, b] + h[b]) of log
    weights with maximal cycle mean 0, and the critical classes (states
    with D[a, b] + D[b, a] = 0 in the Kleene star D, up to rounding).  h
    is the max of the Kleene columns at one state c_i per class plus g, a
    max-plus eigenvector of D[c_i, c_j] less its maximal cycle mean, so
    that paths between classes keep equal slack and none is tight."""
    D = W.copy()
    for k in range(len(D)):                 # Floyd-Warshall, max-plus
        np.maximum(D, D[:, k, None] + D[k], out=D)
    diag = D.diagonal()
    c = int(diag.argmax())
    h = D[:, c].copy()
    h[c] = 0.0
    tol = _TIE_TOL * (1.0 - diag.min())
    crit = diag >= -tol
    if np.count_nonzero(h + D[c] >= -tol) == np.count_nonzero(crit):
        return h, [np.flatnonzero(crit)]    # one class
    crit = np.flatnonzero(crit)
    first = ((D + D.T)[crit][:, crit] >= -tol).argmax(axis=1)
    classes = [crit[first == f] for f in sorted(set(first.tolist()))]
    reps = [int(k[np.argmax(diag[k])]) for k in classes]
    M = D[reps][:, reps]
    np.fill_diagonal(M, -np.inf)
    g = _maxplus_potentials(M - _max_cycle_mean(M))[0]
    return (D[:, reps] + g).max(axis=1), classes


def _max_cycle_mean(M: np.ndarray) -> float:
    """Karp's maximal cycle mean of a strongly connected log-weight
    matrix, with walks allowed to start anywhere."""
    n = len(M)
    F = np.zeros((n + 1, n))        # F[k, v]: heaviest k-edge walk to v
    for k in range(n):
        F[k + 1] = (F[k, :, None] + M).max(axis=0)
    return float(((F[n] - F[:n]) / (n - np.arange(n))[:, None]).min(axis=0).max())


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
        W_A = np.where(B[np.ix_(K, K)] > 1.0 - _TIE_TOL, 0.0, -np.inf)
        right, left = _perron_pair(W_A), _perron_pair(W_A.T)
        if right is None or left is None:
            return None
        top.append((right[2], K, right[0], right[3], left[3] / (left[3] @ right[3])))
    rho = max(x[0] for x in top)
    top = [x for x in top if x[0] >= rho * (1.0 - _TIE_TOL)]
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
        if len(scc_of_edges(len(C), matrix_edges(C))) != 1:
            return None                 # a coupling underflowed
        mean = _max_cycle_mean(W)
        got = _perron_pair(W - mean)
        if got is None:
            return None
        _, h, new_delta, c, gap = got
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


def _polish(B: np.ndarray, y: np.ndarray, lam: float, mu: np.ndarray):
    """Positive y whose Collatz-Wielandt ratios By/y agree to _CW_TOL.

    Power steps on B, alternating with steps on B + c lam I, are free of
    subtraction; the shift c is chosen from the other eigenvalues mu
    (over lam) to contract fastest.  Modes that contract by less than
    half in two steps (nearly uncoupled parts) would need about 1/gap
    steps, and with them a small excess bounds the error only by about
    excess / gap: once the other modes are gone (the excess is certified
    or stalls), the filter (B - m lam I) removes each such m, at a
    cancellation cost of lam / |lam - m|.  None if that fails.
    """
    rates = np.abs(mu[:, None] * (mu[:, None] + _SHIFTS)) / (1.0 + _SHIFTS)
    c = _SHIFTS[np.argmin(rates.max(axis=0, initial=0.0))]
    slow = mu[(np.abs(mu * (mu + c)) > 0.5 * (1.0 + c)) & (mu.imag >= 0.0)]
    seen = [np.inf, np.inf]     # excesses so far; a stall spans two steps
    for step in range(_POLISH_STEPS):
        By = B @ y
        excess = np.inf
        if y.min() > 0.0:
            r = By / y
            excess = r.max() / r.min() - 1.0
        if slow.size and (excess <= _CW_TOL or excess > 0.9 * seen[-2]):
            y = _deflate(B, y, lam, slow)
            if not y.min() > 0.0:
                return None
            slow = slow[:0]
            y /= y.max()
            continue
        if excess <= _CW_TOL:
            return y
        seen.append(excess)
        y = By + c * lam * y if step % 2 else By
        y /= y.max()
    return None


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


def _gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix by GTH state
    reduction (Grassmann, Taksar and Heyman 1985): the pivots are sums of
    off-diagonal entries, so nothing is subtracted."""
    A = P.copy()
    n = len(A)
    for k in range(n - 1, 0, -1):
        row = A[k, :k]
        col = A[:k, k] / row.sum()
        A[:k, k] = col
        A[:k, :k] += col[:, None] * row
    x = np.ones(n)
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
        if x[k] > 1.0:          # keep the largest mass at 1: no overflow
            x[:k + 1] /= x[k]
    return x / x.sum()


def _needed_dps(weights, t) -> int:
    span = max(float(w) for w in weights) - min(float(w) for w in weights)
    return min(DPS_CAP, 60 + int(0.55 * abs(t) * span) + 8 * len(weights))


def _escalate(n, edges, weights, t) -> PerronSolve:
    """Rerun in mpmath at a precision sized from t and the weight span."""
    dps = _needed_dps(weights, t)
    if dps >= DPS_CAP:
        raise UnderflowError(f"Perron solve at t={t} needs more than {DPS_CAP} digits")
    got = _spectral_mp(n, edges, weights, t, dps)
    if got is None or not got.gap > 10.0 ** (-(dps - 25)):
        raise NumericError(f"leading eigenpair not certified at t={t}")
    return got


def _spectral_mp(n, edges, weights, t, dps) -> PerronSolve | None:
    """The same Perron data from mpmath eigensolves at dps digits."""
    import mpmath as mp     # only the escalated path needs it

    def mpf(w):
        if isinstance(w, Fraction):
            return mp.mpf(w.numerator) / w.denominator
        return mp.mpf(float(w))

    with mp.workdps(dps):
        ew = [mp.e ** (mpf(w) * t) for w in weights]
        M = mp.zeros(n)
        for a, b in edges:
            M[a, b] = ew[a]
        E, EL, ER = mp.eig(M, left=True, right=True)
        idx = max(range(n), key=lambda i: mp.re(E[i]))
        lam = mp.re(E[idx])
        sep = min((abs(E[i] - lam) for i in range(n) if i != idx), default=lam)
        gap = float(sep / lam) if lam > 0 else -1.0
        v = [mp.re(ER[i, idx]) for i in range(n)]
        u = [mp.re(EL[idx, i]) for i in range(n)]
        v, u = ([x if max(vec, key=abs) > 0 else -x for x in vec] for vec in (v, u))
        if lam <= 0 or min(v) <= 0 or min(u) <= 0:
            return None
        P = np.zeros((n, n))
        for a, b in edges:
            P[a, b] = float(ew[a] * v[b] / (lam * v[a]))
        z = mp.fsum(x * y for x, y in zip(u, v))
        p = np.array([float(x * y / z) for x, y in zip(u, v)])
        return PerronSolve(float(mp.log(lam)), P / P.sum(axis=1, keepdims=True),
                           gap, f"mp[{dps}]", p)
