"""The Perron engine: certified Perron data of exp(t * w) on a digraph.

Every spectral solve of the package runs here.  The transfer matrix is
scaled by exact max-plus potentials of w (``core_sft._potentials``) so
that each entry is at most 1, solved in doubles and certified entry by
entry; tied critical classes are aggregated, and mpmath takes over only
where doubles cannot certify a solve.  This is the one module of the
graph core and the engine that imports numpy, so that the commands
which never solve a Perron problem do not load it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain

import numpy as np

from .core_sft import (TIGHT_TOL, _cyclic_components, _max_plus_pass, _potentials,
                       matrix_edges)
from .errors import NumericError, UnderflowError

GAP_FLOOR = 1e-5         # below this relative gap, doubles are not trusted
DPS_CAP = 5000           # hard ceiling on escalated working precision
_EXP_SAFE = 700.0        # |exponent| beyond which doubles underflow
_CW_TOL = 1e-13          # accepted Collatz-Wielandt excess of the vector
_POLISH_STEPS = 500      # bound on subtraction-free polishing steps
_SHIFTS = np.array([0.0, 0.125, 0.5, 1.0])   # candidate power-step shifts
_AGG_ROUNDS = 8          # bound on aggregation rounds
_ROW_TIE = 1e-14         # row maxima of a coupling matrix this close are one top


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
    arrays, the log weights W and their balanced max-plus potentials,
    critical classes and tight edges (``_potentials``) from one exact
    pass (``_max_plus_pass``), built with the object, and the aggregation
    frame of the tied classes (``_frame``), built by the first solve that
    aggregates, so that a solve whose gap does not collapse never pays
    for it.  All are read-only, so ``solve`` runs only the stages that
    depend on t.
    """

    def __init__(self, n: int, edges, weights):
        # edges weigh their targets, as in max_mean_data; h then shifts by w - mean
        mx = _max_plus_pass(n, ([list(range(n))], edges), [weights[b] for _, b in edges])
        self._set_up(n, edges, weights, mx, mx[0])

    @classmethod
    def _of_pass(cls, n, edges, phi, mx):
        """The transfer of phi - beta from the pass mx of phi, which found beta."""
        tr = cls.__new__(cls)
        tr._set_up(n, edges, [x - mx[0] for x in phi], mx, 0)
        return tr

    def _set_up(self, n, edges, weights, mx, mean):
        """Build the parts of weights of maximum cycle mean ``mean`` from
        mx, the pass of those weights or of the weights plus a constant."""
        self.n, self.edges, self.weights = n, edges, weights
        src, dst = self.ends = _ends(edges)
        w = np.fromiter(map(float, weights), float, n)
        W = self.log_weights = np.full((n, n), -np.inf)
        W[src, dst] = w[src]
        _, h, den, classes, self._tight = _potentials(n, edges, mx)
        self.potentials = h, classes = (np.array([x / den for x in h]) + (w - float(mean)),
                                        list(map(np.array, classes)))
        _readonly(src, dst, W, h, *classes)

    @functools.cached_property
    def frame(self):
        """The aggregation frame of the tied classes (``_frame``)."""
        return _frame(self.n, self.potentials[1], self._tight)

    def solve(self, t: float = 1.0) -> PerronSolve:
        """The Perron data of exp(t * w), as ``perron`` describes it."""
        escalate = functools.partial(_escalate, self.n, self.edges, self.weights, t)
        got = _perron_pair(self.log_weights, self.potentials, t, self.ends,
                           lambda: self.frame)
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
    leaves the stack and is solved alone by its transfer (aggregation,
    then mpmath) when a scaled entry leaves the double range, its gap is below
    GAP_FLOOR, its polish does not certify, or its kernel underflows.
    """
    t = np.asarray(t, dtype=float)
    n, (src, dst) = transfers[0].n, transfers[0].ends
    distinct = list({id(tr): tr for tr in transfers}.values())     # gathered once each
    slot = {id(tr): i for i, tr in enumerate(distinct)}
    which = [slot[id(tr)] for tr in transfers]
    w = np.stack([tr.log_weights[src, dst] for tr in distinct], axis=-1)[:, which]
    h = np.stack([tr.potentials[0] for tr in distinct], axis=-1)[:, which]
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
        sol = transfers[i].solve(t[i])
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


def _perron_pair(W: np.ndarray, potentials, t: float = 1.0, ends=None, frame=None):
    """(B, lam, y, gap) of B = exp(t (W[a, b] + h[b] - h[a])) for log
    weights W (-inf off the edges) of maximal cycle mean 0 and their
    max-plus potentials (h, classes), with y certified entrywise; None
    when doubles cannot certify it.  The edge arrays of W are found
    unless given; ``frame()`` gives the aggregation frame of the classes
    (``_frame``), and is called only when there are several classes and
    the eigensolve does not certify."""
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
    got = _aggregate(B, frame()) if len(classes) > 1 else None
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


def _frame(n: int, classes, edges):
    """The parts of the aggregation of the critical classes of a graph on
    n states that do not depend on t, for ``_aggregate``, from the tight
    edges inside the classes (``_potentials``); None when fewer than two classes share the
    top Perron root.  Class i has the 0/1 matrix A_i of its tight edges,
    with Perron root rho_i and vectors s_i, l_i (l_i s_i = 1); those
    within TIGHT_TOL of the top root rho are dominant.  The frame is (rho,
    ix, back, tight, inner, of, L, member, s, shaped): ``np.ix_`` of the
    order that puts the m states of the dominant classes first, and its
    inverse; in that order, the mask of the A_i and of the diagonal
    blocks; the class of each of the m states; L (r x m) with l_i in row
    i; member (m x r), 1 where a state lies in a class; the s_i stacked;
    and (i, cut, s_i, l_i, rho_i I - A_i, I) for each class of more than
    one state, the only ones whose shape needs correcting."""
    where = {a: (i, j) for i, K in enumerate(classes) for j, a in enumerate(K)}
    As = [np.zeros((len(K), len(K))) for K in classes]
    for a, b in edges:
        i, j = where[a]
        As[i][j, where[b][1]] = 1.0
    top = []
    for K, A in zip(classes, As):
        W_A = np.where(A == 1.0, 0.0, -np.inf)
        flat = np.zeros(len(K)), [np.arange(len(K))]     # a 0/1 matrix is its own scaling
        right, left = _perron_pair(W_A, flat), _perron_pair(W_A.T, flat)
        if right is None or left is None:
            return None
        top.append((right[1], K, A, right[2], left[2] / (left[2] @ right[2])))
    rho = max(x[0] for x in top)
    top = [x for x in top if x[0] >= rho * (1.0 - TIGHT_TOL)]
    if len(top) < 2:
        return None
    rhos, Ks, As, ss, ls = zip(*top)
    m = sum(map(len, Ks))
    rest = np.ones(n, dtype=bool)
    rest[np.concatenate(Ks)] = False
    order = np.concatenate([*Ks, np.arange(n)[rest]])
    ends = np.cumsum([0, *map(len, Ks)])
    of = np.repeat(np.arange(len(Ks)), np.diff(ends))
    tight, L, member = np.zeros((m, m), dtype=bool), np.zeros((len(Ks), m)), np.zeros((m, len(Ks)))
    member[np.arange(m), of] = 1.0
    shaped = []
    for i, (a, b, rho_i, A, s, l) in enumerate(zip(ends, ends[1:], rhos, As, ss, ls)):
        cut = slice(a, b)
        tight[cut, cut], L[i, cut] = A == 1.0, l
        if len(s) > 1:
            shaped.append((i, cut, s, l, rho_i * np.eye(len(s)) - A, np.eye(len(s))))
    frame = (rho, np.ix_(order, order), np.argsort(order), tight, of[:, None] == of, of,
             L, member, np.concatenate(ss), shaped)
    _readonly(*frame[1], *frame[2:9], *(x for sh in shaped for x in sh[2:]))
    return frame


def _aggregate(B: np.ndarray, frame):
    """(lam, y, gap) of B by iterative aggregation-disaggregation over
    its tied classes (Koury, McAllister and Stewart 1984), or None, with
    the parts that do not depend on t from ``frame`` (``_frame``).  Each
    round eliminates the other states from (rho + delta) I - B (only
    pivots subtract; row k keeps the multipliers of y[k]); with E the
    complement less the A_i, delta and the class weights c are the Perron
    pair of the coupling matrix C = L E U, U the shapes u_i as columns,
    sums of positive products (Meyer 1989), and for each class of more
    than one state a bordered solve of (rho_i - A_i) + (delta - E_ii)
    corrects its shape u_i (a one-state class keeps u_i = s_i = 1).
    """
    if frame is None:
        return None
    rho, ix, back, tight, inner, of, L, member, s, shaped = frame
    m = len(s)
    B0 = B[ix]
    B0[:m, :m][tight] = 0.0         # E leaves out the A_i
    delta, u = 0.0, s
    for _ in range(_AGG_ROUNDS):
        S = B0.copy()
        for k in range(len(B) - 1, m - 1, -1):
            piv = rho + delta - S[k, k]
            if not piv > 0.0:
                return None
            S[k, :k] /= piv
            S[:k, :k] += S[:k, k, None] * S[k, :k]
        E = S[:m, :m]
        got = _coupling(L @ E @ (member * u[:, None]))
        if got is None:
            return None
        new_delta, c, gap = got
        f = np.where(inner, 0.0, E) @ (c[of] * u)
        new_u = s.copy()
        for i, cut, si, li, base, eye in shaped:
            k, Eii = len(si), E[cut, cut]
            bordered = np.zeros((k + 1, k + 1))
            bordered[:k, :k] = base + (new_delta * eye - Eii)
            bordered[:k, k], bordered[k, :k] = si, li
            rhs = np.append(f[cut] / c[i] + Eii @ si - new_delta * si, 0.0)
            new_u[cut] = si + np.linalg.solve(bordered, rhs)[:k]
        done = (abs(new_delta - delta) <= _CW_TOL * new_delta
                and np.all(np.abs(new_u - u) <= _CW_TOL * u))
        delta, u = new_delta, new_u
        if done:
            break
    else:
        return None
    x = np.concatenate([c[of] * u, np.zeros(len(B) - m)])
    for k in range(m, len(B)):      # the eliminated states, last eliminated first
        x[k] = S[k, :k] @ x[:k]
    y = x[back]
    r = B @ y / y                   # Collatz-Wielandt ratios, as in _polish
    if not (y.min() > 0.0 and r.max() / r.min() - 1.0 <= _CW_TOL):
        return None
    return rho + delta, y, gap * delta / (rho + delta)


def _coupling(C: np.ndarray):
    """(delta, c, gap): the Perron root, right vector and relative gap
    of a coupling matrix C of ``_aggregate``, or None.  Where the rows
    of C share their largest entry to _ROW_TIE (the transfer's balanced
    potentials mostly leave it so), C / max(C) has a flat max-plus
    eigenvector and a cycle of 1s to rounding, and is solved as it is:
    its root is at least its least row maximum, so the clamp of
    ``_certify`` at 1 errs by less than _ROW_TIE.  Otherwise, or if its
    own gap collapses, C is scaled by an exact max-plus pass and solved
    by the same engine, aggregating recursively."""
    top = float(C.max())
    if top > 0.0 and C.max(axis=1).min() >= (1.0 - _ROW_TIE) * top:
        lam, c, gap, ok = _certify(C / top)
        if ok:
            return float(lam) * top, c, float(gap)
    W = np.log(C, out=np.full(C.shape, -np.inf), where=C > 0.0)
    edges = matrix_edges(C)
    split = _cyclic_components(edges)
    if split[0] != [list(range(len(C)))]:
        return None                     # a coupling underflowed
    mean, h, den, classes, inside = _potentials(len(C), edges,
                                                _max_plus_pass(len(C), split, W[C > 0]))
    h = np.array([x / den for x in h])
    got = _perron_pair(W - float(mean), (h, classes),
                       frame=lambda: _frame(len(C), classes, inside))
    if got is None:
        return None
    _, delta, c, gap = got
    return delta * math.exp(mean), np.exp(h - h.max()) * c, gap


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
    with np.errstate(divide="ignore", invalid="ignore"):
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
