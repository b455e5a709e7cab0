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
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import (
    EmptyShiftError,
    InvalidArgumentError,
    NumericError,
    ReducibleMatrixError,
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
        return _block_index(self)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Transitions (i, j) in row-major order, built once per recoding."""
        return self._edges

    @functools.cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        n = self.n
        return tuple((i, j) for i, row in enumerate(self.transition)
                     for j in compress(range(n), row))


@functools.lru_cache(maxsize=256)
def _block_index(recoded: RecodedSft) -> dict[tuple[int, ...], int]:
    return {blk: i for i, blk in enumerate(recoded.states)}


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


@dataclass
class PerronData:
    """Perron root with right and left eigenvectors.

    Normalization: entries of ``right`` sum to 1 and ``left @ right == 1``.
    ``residual`` is the worst relative eigen-residual of the pair.
    """

    lam: float
    right: np.ndarray
    left: np.ndarray
    residual: float = field(default=0.0)


def _power_vector(M: np.ndarray, tol: float, max_iter: int, seed: int) -> tuple[float, np.ndarray] | None:
    """Power iteration on M + cI (primitive for irreducible M)."""
    n = M.shape[0]
    c = max(float(np.abs(M).sum(axis=1).max()) / 2.0, 1e-30)
    shifted = M + c * np.eye(n)
    rng = np.random.default_rng(seed)
    v = np.ones(n) if seed == 0 else rng.random(n) + 0.5
    v /= v.sum()
    lam = 0.0
    for it in range(max_iter):
        w = shifted @ v
        s = w.sum()
        if not np.isfinite(s) or s <= 0:
            return None
        v = w / s
        if it % 8 == 7 or it == max_iter - 1:
            Mv = M @ v
            # Rayleigh-style estimate restricted to sizeable entries
            mask = v > v.max() * 1e-12
            lam = float((v[mask] @ Mv[mask]) / (v[mask] @ v[mask]))
            scale = max(abs(lam), 1e-300) * max(float(v.max()), 1e-300)
            res = float(np.abs(Mv - lam * v).max()) / scale
            if res <= tol:
                return lam, v
    return None


def _eig_vector(M: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(vals.real))
    lam = float(vals[i].real)
    v = vecs[:, i].real
    if v.sum() < 0:
        v = -v
    v = np.clip(v, 0.0, None)
    if v.sum() <= 0:
        raise NumericError("eigensolver returned a non-positive Perron candidate")
    return lam, v / v.sum()


def perron_data(M, tol: float = 1e-13, max_iter: int = 100_000) -> PerronData:
    """Perron root and eigenvectors of an irreducible nonnegative matrix.

    Power iteration with a diagonal shift and deflation-free restarts;
    falls back to the dense eigensolver if iteration stalls.  Raises
    ReducibleMatrixError on reducible input and InvalidArgumentError on
    zero or negative input.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise InvalidArgumentError("perron_data needs a square nonempty matrix")
    if (M < 0).any():
        raise InvalidArgumentError("perron_data needs a nonnegative matrix")
    if not M.any():
        raise InvalidArgumentError("perron_data: zero matrix has no Perron data")
    comps = scc_of_edges(M.shape[0], matrix_edges(M))
    if len(comps) != 1 or not comps[0].is_nontrivial:
        raise ReducibleMatrixError("matrix is reducible; split into components first")

    def one_side(A: np.ndarray) -> tuple[float, np.ndarray]:
        for seed in (0, 1, 2):
            got = _power_vector(A, tol, max_iter, seed)
            if got is not None:
                return got
        return _eig_vector(A)

    lam_r, v = one_side(M)
    lam_l, u = one_side(M.T)
    lam = (lam_r + lam_l) / 2.0
    v = v / v.sum()
    u = u / float(u @ v)
    scale = max(abs(lam), 1e-300)
    res_r = float(np.abs(M @ v - lam * v).max()) / (scale * float(np.abs(v).max()))
    res_l = float(np.abs(u @ M - lam * u).max()) / (scale * float(np.abs(u).max()))
    residual = max(res_r, res_l)
    if residual > 1e-12:
        raise NumericError(f"perron residual {residual:.3e} exceeds 1e-12")
    return PerronData(lam=lam, right=v, left=u, residual=residual)
