"""The Perron engine: certified Perron data of exp(t * w), for weights w
on the edges of a digraph.

Every spectral solve of the package runs here, in doubles.  The transfer
matrix is scaled on both sides by exact max-plus potentials of w
(``core_sft._potentials``): on the right so that each entry is at most 1
and each row has a 1, and on the left so that the same holds for the
columns.  The right and left Perron vectors of the two scalings are
solved in doubles and certified entry by entry, tied critical classes
are aggregated, and the kernel and the masses are formed from their
exponents, so that masses far below the double range keep their
relative accuracy in log form.  A solve that doubles cannot certify
raises UnderflowError or NumericError.  This is the one module of the
graph core and the engine that imports numpy, so that the commands which
never solve a Perron problem do not load it.  Its eigenvalue and linear
solves (``_eigvals``, ``_solve``) call the LAPACK gufuncs of
``numpy.linalg._umath_linalg`` directly, with every check of numpy's
public wrappers that can change a result or an error, and not the rest,
which costs more than the LAPACK work at the engine's sizes.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .core_sft import (TIGHT_TOL, _cyclic_components, _int_weights, _is_irreducible,
                       _max_plus_pass, _potentials, matrix_edges)
from .errors import NumericError, UnderflowError

GAP_FLOOR = 1e-5         # below this relative gap, doubles are not trusted
_EXP_SAFE = 700.0        # |exponent| beyond which doubles underflow
_CW_TOL = 1e-13          # accepted Collatz-Wielandt excess of the vector
_POLISH_STEPS = 500      # bound on subtraction-free polishing steps
_SHIFTS = np.array([0.0, 0.125, 0.5, 1.0])   # candidate power-step shifts
_AGG_ROUNDS = 8          # bound on aggregation rounds
_ROUNDING = 1e-15        # a Collatz-Wielandt excess that rounding alone explains
# solves a transfer keeps, the latest by t: the 15 temperatures of the
# default zero-temperature sweep (t = 1 ... 2^14) and one more
_KEPT_SOLVES = 16


class PerronSolve:
    """Perron data of the transfer matrix exp(t * w) on the edges src ->
    dst of a graph on n states (``graph``, as (src, dst, n)): the log root,
    ``gap`` (the relative distance from the root to the rest of the
    spectrum, at most 1, estimated from the coupling matrix after
    aggregation); the stationary vector of the Markov kernel it induces
    on the states and the log of that vector, which keeps the masses that
    underflow, formed by ``masses()`` when first read and kept read-only,
    so that a pressure pays for the root alone; ``log_kernel()``, the log
    of that kernel on each edge, log(B[a, b] y[b] / (lam y[a])), formed
    anew on each call; and the kernel as a matrix, ``transition``, formed
    from it on each read, so that a solve that its transfer keeps
    (``Transfer.solve``) holds O(n + edges) doubles and no n x n matrix.
    Every solve runs in doubles."""

    precision = "double"

    def __init__(self, log_lam: float, gap: float, masses, log_kernel, graph):
        self.log_lam, self.gap, self._masses = log_lam, gap, masses
        self.log_kernel, self.graph = log_kernel, graph

    @property
    def transition(self) -> np.ndarray:
        return _kernel(self.log_kernel(), *self.graph)

    def __getattr__(self, name):
        if name not in ("stationary", "log_stationary"):
            raise AttributeError(name)
        self.stationary, self.log_stationary = masses = self._masses()
        _readonly(*masses)
        self._masses = None             # the left problem's parts are not kept
        return getattr(self, name)


class Transfer:
    """The transfer matrix M = exp(t * w) on the edges a -> b of an
    irreducible digraph, for weights w, one per edge, of maximum cycle
    mean beta, with the parts of its Perron solves that do not depend on
    t, from one exact pass (``_max_plus_pass``) and its right and left
    max-plus eigenvectors h and g of w - beta (Akian, Bapat and Gaubert
    1998; ``_potentials``): the edge arrays; ``exponents``, the log
    entries of B = exp(w - beta + h[b] - h[a]), whose rows have a 1, and
    C = exp(g[a] + w - beta - g[b]), whose columns have a 1, on each edge,
    all <= 0;
    ``potentials``, g + h on each state and the critical classes, whose
    tight edges are kept too; h on each state, which weighs the right
    vector (``_coupling``); and the aggregation frames (``_frame``), built
    by the first solve that aggregates.  All are read-only, so ``solve``
    runs only the stages that depend on t, and it keeps the solves of the
    last _KEPT_SOLVES temperatures it solved.  ``perron_stack`` runs the
    same stages on many solves at once.
    """

    def __init__(self, n: int, edges, weights):
        mx = _max_plus_pass(n, ([list(range(n))], edges), _int_weights(weights))
        self._set_up(n, edges, weights, mx, None, float(mx[0]))

    @classmethod
    def _of_pass(cls, n, edges, phi, mx, split):
        """The transfer of phi - beta, for phi on the edges, from the pass
        mx of phi, which found beta, and the split of its tight edges."""
        tr = cls.__new__(cls)
        tr._set_up(n, edges, [x - mx[0] for x in phi], mx, split, 0.0)
        return tr

    def _set_up(self, n, edges, weights, mx, split, shift):
        """Build the parts of weights from mx, the pass of the weights plus
        ``shift``, and split, the split of its tight edges if known."""
        self.n, self.edges, self.weights, self._shift = n, edges, weights, shift
        src, dst = self.ends = _ends(edges)
        h, g, unit, classes, self._tight, slack = _potentials(n, edges, mx, split)
        mass = [x + y for x, y in zip(g, h)]
        self.exponents = (np.array([x / unit for x in slack]),
                          np.array([(x + mass[a] - mass[b]) / unit
                                    for (a, b), x in zip(edges, slack)]))
        self.potentials = (np.array([x / unit for x in mass]), list(map(np.array, classes)))
        self._h = np.array([x / unit for x in h])
        _readonly(src, dst, *self.exponents, self.potentials[0], *self.potentials[1], self._h)
        self._frames, self._solves = {}, {}

    def solve(self, t: float = 1.0) -> PerronSolve:
        """The Perron data of exp(t * w), each entry to relative accuracy:
        the right problem now, the left one when the masses are first read.

        The scalings B^t and C^t, entries below e^-700 left out, are exact
        similarities of M / e^(t beta), so the Perron vectors of M are
        exp(t h) y and exp(t g) u for the right one y of B^t and the left
        one u of C^t.  One eigenvalue solve of B^t gives the root and the
        gap; bordered solves from the root start y and u, and power steps
        polish each until its Collatz-Wielandt bounds, as min(By/y) <= lam
        <= max(By/y), agree to _CW_TOL.  Below GAP_FLOOR, or if that fails,
        tied critical classes go to ``_aggregate``.  The kernel B[a, b]
        y[b] / (lam y[a]) and the masses exp(t (g + h)) u y are formed from
        their exponents, so that an entry far below the double range keeps
        its relative accuracy, in log form where it underflows.  A solve
        that doubles cannot certify raises UnderflowError where an entry
        left the double range, NumericError otherwise.  A solve is kept by
        float(t) and returned when asked for again; a solve that raises is
        not kept, and past _KEPT_SOLVES temperatures the oldest is
        dropped."""
        key = float(t)
        sol = self._solves.get(key)
        if sol is None:
            sol = self._solve_at(key, t)
            if len(self._solves) == _KEPT_SOLVES:
                del self._solves[next(iter(self._solves))]
            self._solves[key] = sol
        return sol

    def _solve_at(self, t: float, asked) -> PerronSolve:
        """``solve`` at the float t, whose errors name t as ``asked``."""
        right, got, mu, direct = self._right(t)
        if not got:
            raise _unsolved(asked, right)
        lam, y, gap, delta = got
        n, (src, dst) = self.n, self.ends

        def masses():
            left = t * self.exponents[1]
            A, ok = _scale(left, dst, src, n)
            u, done = _polish(A, _start(A, lam, ok & direct), lam, mu, ok & direct)
            got = (None, u) if done else ok and self._tied(1, A, left, right, delta)
            if not got:
                raise _unsolved(asked, left)
            return _masses(t * self.potentials[0] + np.log(got[1]) + np.log(y))

        return PerronSolve(math.log(lam) + t * self._shift, gap, masses,
                           lambda: _log_kernel(right, lam, y, src, dst), (src, dst, n))

    def _right(self, t: float):
        """(right, got, mu, direct): the log entries of the scaled right
        problem at the float t; (lam, y, gap, delta) of its root, vector,
        gap and aggregation offset (0 unless it aggregated), or None where
        doubles cannot certify it; the other eigenvalues over the root; and
        whether ``_certify`` solved it without aggregation."""
        right = t * self.exponents[0]
        B, ok = _scale(right, *self.ends, self.n)
        lam, y, gap, mu, direct = _certify(B, ok)
        got = (lam, y, gap, 0.0) if direct else ok and self._tied(0, B, right, right, lam)
        return right, got, mu, direct

    def _tied(self, side, B, s, right, start):
        """``_aggregate`` of B, the scaled right problem (side 0) or the
        transposed left one (side 1) with log entries s on the edges, over
        the classes of the edges whose log entries in the right problem are
        within GAP_FLOOR of 0: the critical classes, and a cycle that
        nearly ties at this t (a near tie).  Their frames (``_frame``) are
        kept per set of edges.  A right problem whose classes are all
        single states starts from delta = start - rho, start the root its
        eigenvalue solve found, where that exceeds rounding (_CW_TOL start):
        its rounds settle on the double rho + delta, which that root mostly
        is already.  Any other starts from 0, and the left one from delta =
        start, the offset its right problem settled on."""
        near = right > -GAP_FLOOR
        key = near.tobytes()
        if key not in self._frames:
            classes, inner = _cyclic_components([e for e, x in zip(self.edges, near) if x])
            self._frames[key] = _frame(self.n, self.potentials[1] if inner == self._tight
                                       else classes, inner, self.edges)
        frame = self._frames[key]
        if not frame:
            return None
        if not side:
            rho, shaped = frame[0][0], frame[0][-1]
            delta = float(start) - rho
            start = delta if delta > _CW_TOL * start and not shaped else 0.0
        return _aggregate(B, frame[side], s, start)


def _unsolved(t, s):
    """The error of a solve at t that doubles cannot certify, whose scaled
    matrix has log entries s."""
    if s.min() > -_EXP_SAFE and s.max() < _EXP_SAFE:
        return NumericError(f"Perron solve at t={t} is not certified in doubles")
    return UnderflowError(f"Perron solve at t={t} leaves the double range")


def perron_stack(transfers, t):
    """(log_lam, transition, stationary) of ``transfers[i].solve(t[i])``
    for each lane i, as stacked arrays; the transfers share one edge set.

    Max-plus eigenvectors are homogeneous, so each lane's exponents are
    t[i] times its transfer's, with no max-plus pass, and the lanes take
    the steps of their own solves together, stage by stage.  A lane whose
    scaled entry exceeds the double range, whose gap is below GAP_FLOOR or
    whose polish does not certify keeps its place in the stack and is
    solved again alone by its transfer (aggregation).
    """
    t = np.asarray(t, dtype=float)
    n, (src, dst) = transfers[0].n, transfers[0].ends
    distinct = list({id(tr): tr for tr in transfers}.values())     # gathered once each
    slot = {id(tr): i for i, tr in enumerate(distinct)}
    which = [slot[id(tr)] for tr in transfers]
    right, left, mass = (np.stack(x)[which] * t[:, None] for x in zip(
        *((*tr.exponents, tr.potentials[0]) for tr in distinct)))
    shift = np.array([tr._shift for tr in distinct])[which] * t
    (B, ok_b), (A, ok_a) = _scale(right, src, dst, n), _scale(left, dst, src, n)
    lam, y, u, _, ok = _vectors(B, A, ok_b & ok_a)
    lanes = np.flatnonzero(ok)
    lam, y, u = lam[lanes], y[lanes], u[lanes]
    log_lam = np.full(len(t), np.nan)
    kernel = np.zeros((len(t), n, n))
    p = np.full((len(t), n), np.nan)
    log_lam[lanes] = np.log(lam) + shift[lanes]
    kernel[lanes] = _kernel(_log_kernel(right[lanes], lam, y, src, dst), src, dst, n)
    p[lanes] = _masses(mass[lanes] + np.log(u) + np.log(y))[0]
    for i in np.flatnonzero(np.isnan(log_lam)):
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


# np.linalg.eigvals and np.linalg.solve on float arrays, less their input
# conversions: each runs its gufunc under the errstate numpy's wrapper
# enters, so that a LAPACK failure raises numpy's LinAlgError and no
# RuntimeWarning escapes.
_LAPACK_ERRORS = dict(invalid="call", over="ignore", divide="ignore", under="ignore")


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def _unconverged(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_unconverged, **_LAPACK_ERRORS)
def _eigvals(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of a square float matrix or a stack of them, real
    where none in the whole stack has an imaginary part, as
    np.linalg.eigvals gives them."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    w = _umath_linalg.eigvals(a, signature="d->D")
    return w if np.count_nonzero(w.imag) else w.real


@np.errstate(call=_singular, **_LAPACK_ERRORS)
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for float arrays: b has a column axis, or is
    a vector, solved as one column (LAPACK's gesv gives the same bits)."""
    if b.ndim == 1:
        return _umath_linalg.solve(a, b[:, None], signature="dd->d")[:, 0]
    return _umath_linalg.solve(a, b, signature="dd->d")


# The stages below take one solve, or a stack of them (``perron_stack``)
# on the first axis, as in numpy.linalg, where values with one entry per
# lane take a trailing axis (lam[..., None]).  A lane keeps its place in
# the stack through every stage, whether it is out or done, so that it
# takes the same steps whatever its neighbours do.  ``Transfer.solve``
# does not run as a stack of one: with the indexing that needs, the single
# solves of the low-temperature benchmark ran about a fifth slower.  For
# the same reason ``_start`` gathers and scatters lanes only when some
# lane of a stack is out, and ``_scale`` clamps exponents only when one
# leaves the range.

def _lanes(i) -> tuple:
    """Index of every lane, to go with an index i per lane: () for one
    solve, (0..S-1,) for a stack."""
    return (np.arange(len(i)),) if i.ndim else ()


def _scale(s: np.ndarray, src, dst, n: int):
    """exp(s) on the edges src -> dst of n states, as matrices with the
    lanes of a stack first, and whether each stays below e^_EXP_SAFE
    (only t < 0 exceeds 1).  Entries below e^-_EXP_SAFE are left out: they
    change no certified digit."""
    B, ok = np.zeros(s.shape[:-1] + (n, n)), s.max(axis=-1, initial=-np.inf) < _EXP_SAFE
    if not np.abs(s).max() < _EXP_SAFE:     # the clamp changes no entry inside the range
        s = np.where(s > -_EXP_SAFE, np.minimum(s, _EXP_SAFE), -np.inf)
    B[..., src, dst] = np.exp(s)
    return B, ok


def _certify(B: np.ndarray, ok=True, least=1.0):
    """(lam, y, gap, mu, ok) of B: one eigenvalue solve gives the root, at
    least ``least``, a lower bound of it (1 where B has a cycle of 1s),
    the relative gap and the other eigenvalues over the root (mu, the
    root's own entry 0); y starts from ``_start`` and ``_polish``
    certifies it where the gap is at least GAP_FLOOR (ok)."""
    evals = _eigvals(B)
    i = evals.real.argmax(axis=-1)
    lanes = _lanes(i)
    lam = np.maximum(evals[(*lanes, i)].real, least)
    mu = evals / lam[..., None]
    mu[(*lanes, i)] = 0.0           # the root's own mode: every step removes it
    gap = np.abs(mu - 1.0).min(axis=-1, initial=1.0)
    ok = ok & (gap >= GAP_FLOOR)
    y, ok = _polish(B, _start(B, lam, ok), lam, mu, ok)
    return lam, y, gap, mu, ok


def _vectors(B: np.ndarray, A: np.ndarray, ok):
    """(lam, y, u, gap, ok) of similar matrices B and A, for one solve or
    a stack: their Perron root, the right Perron vectors y of B and u of A,
    each certified entrywise (ok), and the relative gap.  ``_certify``
    solves B, and u takes the same steps with the spectrum of B, so that
    A takes no eigenvalue solve of its own."""
    lam, y, gap, mu, ok = _certify(B, ok)
    u, ok = _polish(A, _start(A, lam, ok), lam, mu, ok)
    return lam, y, u, gap, ok


def _start(B: np.ndarray, lam, ok):
    """|x| for the solution x of (lam I - B) x = 0 whose entries sum to 1,
    from a bordered solve refined once, where ok (a gap of at least
    GAP_FLOOR keeps the bordered matrix regular), and 1 elsewhere: the
    start of ``_polish``.  Only a stack with some lanes out gathers the
    live ones and scatters their starts back."""
    live = np.count_nonzero(ok)
    if not live:
        return np.ones(B.shape[:-1])
    gather = live < ok.size
    if gather:
        x, B, lam = np.ones(B.shape[:-1]), B[ok], lam[ok]
    n = B.shape[-1]
    K = np.ones(B.shape[:-2] + (n + 1, n + 1))
    K[..., :n, :n] = -B
    K.reshape(K.shape[:-2] + (-1,))[..., :n * (n + 2):n + 2] += lam[..., None]   # the diagonal
    K[..., n, n] = 0.0
    rhs = np.zeros(K.shape[:-1] + (1,))
    rhs[..., n, 0] = 1.0
    z = _solve(K, rhs)
    z += _solve(K, rhs - K @ z)     # one step of iterative refinement
    z = np.abs(z[..., :n, 0])
    if gather:
        x[ok] = z
        return x
    return z


def _frame(n: int, classes, inner, edges):
    """The parts of the aggregation of the critical classes of a graph on
    n states that do not depend on t, for ``_aggregate``, from the tight
    edges inside the classes (``_potentials``) and the list of all edges,
    in the order of the log entries: frames of the right problem and of
    the transposed left one (A_i^T, l_i and s_i in the places of A_i, s_i
    and l_i), or None when fewer than two classes share the top Perron
    root.  Class i has the 0/1 matrix A_i of its tight edges, with Perron
    root rho_i and vectors s_i, l_i (l_i s_i = 1); those within TIGHT_TOL
    of the top root rho are dominant.  A frame is (rho, ix, back, tight,
    inner, of, L, member, s, shaped): ``np.ix_`` of the order that puts
    the m states of the dominant classes first, and its inverse; for the
    entries of the A_i, their indices in the list of edges and their rows
    and columns in that order; the mask of the diagonal blocks; the
    class of each of the m states; L (r x m) with l_i in row i; member (m
    x r), 1 where a state lies in a class; the s_i stacked; and (i, cut,
    s_i, l_i, rho_i I - A_i, I) for each class of more than one state, the
    only ones whose shape needs correcting."""
    where = {a: (i, j) for i, K in enumerate(classes) for j, a in enumerate(K)}
    As = [np.zeros((len(K), len(K))) for K in classes]
    for a, b in inner:
        i, j = where[a]
        As[i][j, where[b][1]] = 1.0
    top = []
    for K, A in zip(classes, As):
        # a 0/1 matrix is its own scaling; a loop is its own Perron data
        rho_i, s, l, _, ok = _vectors(A, A.T, True) if len(K) > 1 else (1.0, A[0], A[0], 1.0, True)
        if not ok:
            return None
        top.append((float(rho_i), K, A, s, l / (l @ s)))
    rho = max(x[0] for x in top)
    top = [x for x in top if x[0] >= rho * (1.0 - TIGHT_TOL)]
    if len(top) < 2:
        return None
    rhos, Ks, As, ss, ls = zip(*top)
    m = sum(map(len, Ks))
    rest = np.ones(n, dtype=bool)
    rest[np.concatenate(Ks)] = False
    order = np.concatenate([*Ks, np.arange(n)[rest]])
    ix, back = np.ix_(order, order), np.argsort(order)
    ends = np.cumsum([0, *map(len, Ks)])
    of = np.repeat(np.arange(len(Ks)), np.diff(ends))
    member = np.zeros((m, len(Ks)))
    member[np.arange(m), of] = 1.0
    at = {ab: k for k, ab in enumerate(edges)}
    on, row, col = np.array([(at[a, b], back[a], back[b]) for a, b in inner
                             if back[a] < m]).T.copy()
    _readonly(*ix, back, of, member, on, row, col)

    def build(As, ss, ls, tight):
        L = np.zeros((len(Ks), m))
        shaped = []
        for i, (a, b, rho_i, A, s, l) in enumerate(zip(ends, ends[1:], rhos, As, ss, ls)):
            cut = slice(a, b)
            L[i, cut] = l
            if len(s) > 1:
                shaped.append((i, cut, s, l, rho_i * np.eye(len(s)) - A, np.eye(len(s))))
        frame = (rho, ix, back, tight, of[:, None] == of, of, L, member, np.concatenate(ss),
                 shaped)
        _readonly(L, frame[4], frame[8], *(x for sh in shaped for x in sh[2:]))
        return frame

    return build(As, ss, ls, (on, row, col)), build([A.T for A in As], ls, ss, (on, col, row))


def _aggregate(B: np.ndarray, frame, e, delta: float = 0.0):
    """(lam, y, gap, delta) of B by iterative aggregation-disaggregation over
    its tied classes (Koury, McAllister and Stewart 1984), or None, with
    the parts that do not depend on t from ``frame`` (``_frame``).  Each
    round eliminates the other states from (rho + delta) I - B (only
    pivots subtract; row k keeps the multipliers of y[k]); with E the
    complement less the entries of the A_i, delta and the class weights c
    are the Perron pair of the coupling matrix C = L E U - diag(d), U the
    shapes u_i as columns, sums of positive products (Meyer 1989), and for
    each class of more than one state a bordered solve of (rho_i - A_i) +
    (delta - E_ii + D_ii) corrects its shape u_i (a one-state class keeps
    u_i = s_i = 1).  D is 1 - B on the A_i, formed from the log entries e
    of B on the edges to full relative accuracy: a class that nearly ties,
    or that float weights tie only to TIGHT_TOL, falls short of its A_i by
    D, and d_i = l_i D_ii u_i takes that out exactly (C plus max(d) - d on
    its diagonal is nonnegative).  lam = rho + delta.  The rounds start
    from delta (``Transfer._tied``) and stop once delta and the shapes
    change by at most _CW_TOL relative, or, where every class is a single
    state, once rho + delta repeats in doubles: the next round's pivots, E,
    C and coupling would repeat bit for bit.
    """
    rho, ix, back, tight, inner, of, L, member, s, shaped = frame
    m = len(s)
    on, row, col = tight
    B0 = B[ix]
    B0[row, col] = 0.0              # E leaves out the A_i
    D = np.zeros((m, m))
    D[row, col] = -np.expm1(e[on])
    deficits, u = D.any(), s
    for _ in range(_AGG_ROUNDS):
        S = B0.copy()
        for k in range(len(B) - 1, m - 1, -1):
            piv = rho + delta - S[k, k]
            if not piv > 0.0:
                return None
            S[k, :k] /= piv
            S[:k, :k] += S[:k, k, None] * S[k, :k]
        E = S[:m, :m]
        U = member * u[:, None]
        C, shift = L @ E @ U, 0.0
        if deficits:
            d = (L @ D @ U).diagonal()
            C, shift = C + np.diag(d.max() - d), d.max()
        got = _coupling(C)
        if got is None:
            return None
        new_root, c, gap = got
        new_delta = new_root - shift
        f = np.where(inner, 0.0, E) @ (c[of] * u)
        new_u = s.copy()
        for i, cut, si, li, base, eye in shaped:
            k, Eii = len(si), E[cut, cut] - D[cut, cut]
            bordered = np.zeros((k + 1, k + 1))
            bordered[:k, :k] = base + (new_delta * eye - Eii)
            bordered[:k, k], bordered[k, :k] = si, li
            rhs = np.append(f[cut] / c[i] + Eii @ si - new_delta * si, 0.0)
            new_u[cut] = si + _solve(bordered, rhs)[:k]
        done = (not shaped and rho + new_delta == rho + delta
                or abs(new_delta - delta) <= _CW_TOL * new_root
                and (np.abs(new_u - u) <= _CW_TOL * u).all())
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
    return rho + delta, y, gap * new_root / (rho + delta), delta


def _coupling(C: np.ndarray):
    """(delta, c, gap): the Perron root, right vector and relative gap
    of a coupling matrix C of ``_aggregate``, or None.  A 2 x 2 C = [[a,
    b], [c, d]] takes its closed form, free of subtraction: with h = |a -
    d| / 2 and q = hypot(h, sqrt(b c)), delta = max(a, d) + b c / (h + q),
    the vector is (1, c / (h + q)) where a >= d and (b / (h + q), 1)
    otherwise, and the gap is 2 q / delta, at most 1.  Where the row
    maxima of a larger C agree to GAP_FLOOR (the transfer's balanced
    potentials mostly leave them so), C / max(C) is solved as it is: its
    root is at least its least row sum, where ``_certify`` clamps it.
    Otherwise, or if that does not certify, the ``Transfer`` of log C
    solves it at t = 1, aggregating recursively, and its right vector
    takes the weights exp(h) of the transfer's right potential."""
    if len(C) == 2:
        (a, b), (c, d) = C.tolist()
        if not (b > 0.0 and c > 0.0):
            return None                 # a coupling underflowed
        h, bc = abs(a - d) / 2.0, math.sqrt(b) * math.sqrt(c)
        q = math.hypot(h, bc)
        lam = max(a, d) + bc * (bc / (h + q))
        vec = (1.0, c / (h + q)) if a >= d else (b / (h + q), 1.0)
        return lam, np.array(vec), min(1.0, 2.0 * q / lam)
    top = float(C.max())
    if top > 0.0 and C.max(axis=1).min() >= (1.0 - GAP_FLOOR) * top:
        lam, c, gap, _, ok = _certify(C / top, True, C.sum(axis=1).min() / top)
        if ok:
            return float(lam) * top, c, float(gap)
    edges = matrix_edges(C)
    if not _is_irreducible(len(C), edges):
        return None                     # a coupling underflowed
    tr = Transfer(len(C), edges, np.log(C[C > 0.0]))
    got = tr._right(1.0)[1]
    if not got:
        return None
    delta, c, gap, _ = got
    return float(delta) * math.exp(tr._shift), np.exp(tr._h - tr._h.max()) * c, float(gap)


def _polish(B: np.ndarray, y: np.ndarray, lam, mu: np.ndarray, ok):
    """(y, ok): positive y whose Collatz-Wielandt ratios By/y agree to
    _CW_TOL, and whether that was reached, for one solve or each lane of
    a stack; lanes not ok on entry fail at once, and the root's own entry
    of mu is 0.

    Power steps on B, alternating with steps on B + c lam I, are free of
    subtraction; the shift c is chosen from the other eigenvalues mu
    (over lam) to contract fastest.  Modes that contract by less than
    half in two steps (nearly uncoupled parts) would need about 1/gap
    steps, and with them a small excess bounds the error in mode m only
    by about excess / |1 - m|: once the other modes are gone, the filter
    (B - m lam I) removes, at a cancellation cost of lam / |lam - m|,
    every such m where the excess stalls, and where it is certified each
    m whose bound misses _CW_TOL.  A lane fails if that fails.  An
    excess below _ROUNDING needs no filter: no filter improves on it.  The
    lanes of a stack stay in place and take the same steps, each lane's
    slow modes filtered on their own; a lane's vector is frozen once it
    certifies or fails.
    """
    if not np.count_nonzero(ok):
        return y, ok
    if y.min() > 0.0:               # a start certified to rounding takes no step
        r = (B @ y[..., None])[..., 0] / y
        if (r.max(axis=-1) <= (1.0 + _ROUNDING) * r.min(axis=-1)).all():
            return y, ok
    norm = 1.0 + _SHIFTS
    grow = np.abs(mu[..., None] * (mu[..., None] + _SHIFTS))   # |mu (mu + c)| for each c
    j = (grow / norm).max(axis=-2, initial=0.0).argmin(axis=-1)
    lanes = _lanes(j)
    slow = (grow > 0.5 * norm)[(*lanes, slice(None), j)] & (mu.imag >= 0.0)
    pending = np.count_nonzero(slow)    # slow modes still in y
    cl = (_SHIFTS[j] * lam)[..., None]
    older = last = np.inf * lam     # the last two excesses: a stall spans two steps
    # y is renormalised in place, live lanes only: a copy, so that the
    # caller's start is not written
    live, certified, y = ok, np.zeros_like(ok), np.array(y)
    for step in range(_POLISH_STEPS):
        By = (B @ y[..., None])[..., 0]
        # a zero in y (only before y first turns positive) gives a nan
        # excess: neither certified nor a stall
        r = By / (y if y.min() > 0.0 else np.where(y > 0.0, y, np.nan))
        excess = r.max(axis=-1) / r.min(axis=-1) - 1.0
        done = live & (excess <= _CW_TOL)
        gone = done | ~live
        new = By + cl * y if step % 2 else By
        if pending:
            need = slow & (~done[..., None] | (excess[..., None] > _CW_TOL * np.abs(1.0 - mu)))
            flat = live & need.any(axis=-1) & (done & (excess > _ROUNDING) | (excess > 0.9 * older))
            if np.count_nonzero(flat):
                done, gone = done & ~flat, np.array(gone & ~flat)
                for i in np.ndindex(flat.shape):   # () for one solve
                    if flat[i]:
                        new[i] = _deflate(B[i], y[i], lam[i], mu[i][need[i]])
                        gone[i] = not new[i].min() > 0.0
                        slow[i] = False
                pending = np.count_nonzero(slow)
        older, last = last, excess
        certified, live = certified | done, ~gone
        if not np.count_nonzero(live):
            break
        np.divide(new, new.max(axis=-1, keepdims=True), out=y, where=live[..., None])
    return y, certified


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


def _log_kernel(s: np.ndarray, lam, y: np.ndarray, src, dst) -> np.ndarray:
    """The log kernels s[a -> b] + log y[b] - log(lam y[a]) on the edges of
    the scaled matrices with log entries s, lanes first; lam has one entry
    per lane.  Formed from the exponents, so that an entry the scaled
    matrix left out keeps its value where y lifts it back into the double
    range."""
    ly = np.log(y)
    return s + ly[..., dst] - ly[..., src] - np.log(lam)[..., None]


def _kernel(lk: np.ndarray, src, dst, n: int) -> np.ndarray:
    """The row-stochastic matrices of log kernels lk on the edges src ->
    dst of n states, lanes first."""
    P = np.zeros(lk.shape[:-1] + (n, n))
    P[..., src, dst] = np.exp(lk)
    P /= P.sum(axis=-1, keepdims=True)
    return P


def _masses(lp: np.ndarray):
    """(p, log p) of the masses proportional to exp(lp) on the last axis;
    log p keeps the masses that underflow."""
    lp = lp - lp.max(axis=-1, keepdims=True)
    p = np.exp(lp)
    z = p.sum(axis=-1, keepdims=True)
    return p / z, lp - np.log(z)
