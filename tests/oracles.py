"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles with
its own small implementations (word enumeration, cycle search, numpy
eigenvalues), so agreement with the package is meaningful.  Only input
construction borrows package types.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from thermoshift import Sft, is_transitive

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
LOG_GOLDEN = math.log(GOLDEN)
LOG_SILVER = math.log(1.0 + math.sqrt(2.0))


# -- word-level enumeration ------------------------------------------------

def _canonical(word):
    n = len(word)
    return min(tuple(word[(r + j) % n] for j in range(n)) for r in range(n))


def _is_prime_period(word) -> bool:
    n = len(word)
    return not any(n % p == 0 and word == word[:p] * (n // p)
                   for p in range(1, n))


def _cycle_admissible(transition, word) -> bool:
    n = len(word)
    return all(transition[word[i]][word[(i + 1) % n]] for i in range(n))


def brute_elementary_segments(transition, k: int, max_period: int) -> set:
    """Canonical generating segments of all k-elementary periodic orbits
    with period <= max_period, by direct enumeration of periodic words."""
    d = len(transition)
    found = set()
    for n in range(1, max_period + 1):
        for word in itertools.product(range(d), repeat=n):
            if not _cycle_admissible(transition, word):
                continue
            if not _is_prime_period(word):
                continue
            blocks = {tuple(word[(i + j) % n] for j in range(k))
                      for i in range(n)}
            if len(blocks) != n:
                continue
            found.add(_canonical(word))
    return found


def brute_periodic_words(transition, max_period: int) -> list:
    """Canonical admissible periodic words (prime period <= max_period)."""
    d = len(transition)
    out = []
    seen = set()
    for n in range(1, max_period + 1):
        for word in itertools.product(range(d), repeat=n):
            if not _cycle_admissible(transition, word):
                continue
            if not _is_prime_period(word):
                continue
            c = _canonical(word)
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def word_average(word, values: dict, k: int) -> Fraction:
    """Cyclic average of a block-value table along a periodic word."""
    n = len(word)
    total = Fraction(0)
    for i in range(n):
        blk = tuple(word[(i + j) % n] for j in range(k))
        total += Fraction(values[blk])
    return total / n


# -- independent recoding and cycle search ---------------------------------

def brute_recoded_graph(transition, k: int):
    """Admissible k-blocks and their one-step overlap edges."""
    d = len(transition)
    blocks = [w for w in itertools.product(range(d), repeat=k)
              if all(transition[w[i]][w[i + 1]] for i in range(k - 1))]
    index = {b: i for i, b in enumerate(blocks)}
    edges: dict[int, list[int]] = {}
    for b in blocks:
        i = index[b]
        for s in range(d):
            if transition[b[-1]][s]:
                c = b[1:] + (s,)
                if c in index:
                    edges.setdefault(i, []).append(index[c])
    return blocks, edges


def brute_weighted_automorphisms(transition, values: dict, k: int) -> set:
    """Every permutation of the recoded states (as a tuple of state
    indices) that maps the edge set onto itself and keeps each state's
    value, by trying all n! permutations; meant for n <= 8."""
    blocks, edges = brute_recoded_graph(transition, k)
    pairs = {(i, j) for i, outs in edges.items() for j in outs}
    vals = [values[b] for b in blocks]
    return {perm for perm in itertools.permutations(range(len(blocks)))
            if all(vals[perm[i]] == vals[i] for i in range(len(blocks)))
            and {(perm[i], perm[j]) for i, j in pairs} == pairs}


def brute_max_cycle_mean(transition, values: dict, k: int) -> Fraction:
    """Exact maximum cycle mean via depth-first simple-cycle search."""
    blocks, edges = brute_recoded_graph(transition, k)
    vals = [Fraction(values[b]) for b in blocks]
    best: list = [None]

    def dfs(start, node, total, visited):
        for nxt in edges.get(node, ()):
            if nxt == start:
                mean = total / len(visited)
                if best[0] is None or mean > best[0]:
                    best[0] = mean
            elif nxt > start and nxt not in visited:
                dfs(start, nxt, total + vals[nxt], visited | {nxt})

    for s in range(len(blocks)):
        dfs(s, s, vals[s], frozenset([s]))
    return best[0]


def karp_max_mean(n: int, edges, w):
    """Karp's maximum cycle mean (1978) of a digraph whose edge a -> b
    weighs w[a], with walks starting anywhere: max over v of min over k
    of (D_n(v) - D_k(v)) / (n - k), D_k(v) the heaviest k-edge walk
    ending at v.  Exact weights give a Fraction, floats a float; None
    when the graph has no cycle."""
    exact = all(isinstance(x, (int, Fraction)) for x in w)
    scale = math.lcm(*(Fraction(x).denominator for x in w)) if exact else 1
    w = [int(x * scale) for x in w] if exact else [float(x) for x in w]
    D = [[0] * n]
    for _ in range(n):
        prev, cur = D[-1], [None] * n
        for a, b in edges:
            if prev[a] is not None and (cur[b] is None or prev[a] + w[a] > cur[b]):
                cur[b] = prev[a] + w[a]
        D.append(cur)
    best = None
    for v in range(n):
        if D[n][v] is None:
            continue
        val = min(Fraction(D[n][v] - D[k][v], (n - k) * scale) if exact
                  else (D[n][v] - D[k][v]) / (n - k)
                  for k in range(n) if D[k][v] is not None)
        best = val if best is None else max(best, val)
    return best


def critical_edges(n: int, edges, w, beta, tol=0) -> set:
    """Edges a -> b (weighing w[a]) on some cycle of mean beta, the
    maximum cycle mean: w[a] - beta plus the heaviest path from b back to
    a in the weights w - beta is 0, or at least -tol.  Floyd-Warshall on
    those weights, scaled to ints; float weights count by their exact
    binary values."""
    r = [Fraction(x) - Fraction(beta) for x in w]
    scale = math.lcm(*(x.denominator for x in r))
    r = [int(x * scale) for x in r]
    P = [[0 if i == j else None for j in range(n)] for i in range(n)]
    for a, b in edges:
        if a != b and (P[a][b] is None or r[a] > P[a][b]):
            P[a][b] = r[a]
    for k in range(n):
        for i in range(n):
            if P[i][k] is None:
                continue
            for j in range(n):
                if P[k][j] is not None and (P[i][j] is None or P[i][k] + P[k][j] > P[i][j]):
                    P[i][j] = P[i][k] + P[k][j]
    return {(a, b) for a, b in edges
            if P[b][a] is not None and Fraction(r[a] + P[b][a], scale) >= -Fraction(tol)}


def edge_classes(edges) -> list:
    """The states of each connected piece of an edge set, sorted, the
    pieces ordered by smallest state.  For critical edges, each on a
    critical cycle, these are the critical classes."""
    piece = {}
    for a, b in edges:
        pa, pb = piece.setdefault(a, {a}), piece.setdefault(b, {b})
        if pa is not pb:
            pa |= pb
            for v in pb:
                piece[v] = pa
    return sorted({id(p): sorted(p) for p in piece.values()}.values())


def kleene_potentials(n: int, edges, w):
    """(mean, h, classes) of a strongly connected digraph whose edge e
    weighs w[e], in Fractions: the maximum cycle mean (Karp on edge
    weights), and from the max-plus Kleene star D of w - mean
    (Floyd-Warshall) the critical classes (D[a, a] = 0, a ~ b when D[a,
    b] + D[b, a] = 0) and the balanced eigenvector h[a] = max_i (D[a,
    c_i] + g_i), c_i the smallest state of class i and g this function's
    h on the class matrix D[c_i, c_j] (i != j); with one class, h is the
    column D[:, c_1]."""
    w = [Fraction(x) for x in w]
    F = [[Fraction(0)] * n]         # F[k][v]: heaviest k-edge walk ending at v
    for _ in range(n):
        cur = [None] * n
        for (a, b), x in zip(edges, w):
            if F[-1][a] is not None and (cur[b] is None or F[-1][a] + x > cur[b]):
                cur[b] = F[-1][a] + x
        F.append(cur)
    mean = max(min((F[n][v] - F[k][v]) / (n - k) for k in range(n) if F[k][v] is not None)
               for v in range(n) if F[n][v] is not None)
    D = [[None] * n for _ in range(n)]
    for (a, b), x in zip(edges, w):
        if D[a][b] is None or x - mean > D[a][b]:
            D[a][b] = x - mean
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if D[i][k] is not None and D[k][j] is not None and (
                        D[i][j] is None or D[i][k] + D[k][j] > D[i][j]):
                    D[i][j] = D[i][k] + D[k][j]
    crit = [a for a in range(n) if D[a][a] == 0]
    classes = []
    for a in crit:
        if not any(a in c for c in classes):
            classes.append([b for b in crit if b == a or D[a][b] + D[b][a] == 0])
    reps = [c[0] for c in classes]
    star = [[Fraction(0) if a == c else D[a][c] for c in reps] for a in range(n)]
    if len(reps) == 1:
        return mean, [row[0] for row in star], classes
    pairs = [(i, j) for i in range(len(reps)) for j in range(len(reps)) if i != j]
    g = kleene_potentials(len(reps), pairs, [star[reps[i]][j] for i, j in pairs])[1]
    return mean, [max(x + gi for x, gi in zip(row, g)) for row in star], classes


def brute_face_words(transition, values: dict, k: int, max_period: int):
    """Canonical periodic words whose average attains the maximum cycle
    mean: the periodic points of the maximizing subshift."""
    beta = brute_max_cycle_mean(transition, values, k)
    out = []
    for word in brute_periodic_words(transition, max_period):
        if word_average(word, values, k) == beta:
            out.append(word)
    return beta, out


def brute_simple_cycle_segments(transition, k: int, restrict_edges=None) -> set:
    """Canonical segments of simple cycles of the recoded graph, optionally
    restricted to an edge subset given as pairs of block tuples."""
    blocks, edges = brute_recoded_graph(transition, k)
    if restrict_edges is not None:
        allowed = {(a, b) for a, b in restrict_edges}
        edges = {i: [j for j in outs if (blocks[i], blocks[j]) in allowed]
                 for i, outs in edges.items()}
    found = set()

    def dfs(start, node, path):
        for nxt in edges.get(node, ()):
            if nxt == start:
                found.add(_canonical(tuple(blocks[p][0] for p in path)))
            elif nxt > start and nxt not in path:
                dfs(start, nxt, path + [nxt])

    for s in range(len(blocks)):
        dfs(s, s, [s])
    return found


# -- spectral oracles ------------------------------------------------------

def numpy_pressure(transition, values: dict, k: int, t: float) -> float:
    """log of the numerically largest eigenvalue of the weighted
    transfer matrix, weights exp(t * value(source block))."""
    blocks, edges = brute_recoded_graph(transition, k)
    n = len(blocks)
    M = np.zeros((n, n))
    for i, outs in edges.items():
        w = math.exp(t * float(values[blocks[i]]))
        for j in outs:
            M[i, j] = w
    lam = max(abs(x) for x in np.linalg.eigvals(M))
    return math.log(lam)


def mp_equilibrium(transition, values: dict, k: int, t: float, dps: int):
    """(stationary, kernel, relative gap) of the equilibrium state of
    t * phi as mpf lists, from mpmath eigenpairs of the unreduced
    transfer matrix exp(t * value(source block)).  Starts at dps digits
    and doubles them until both eigenvectors satisfy their equations to
    1e-20 relative in every entry."""
    import mpmath as mp
    blocks, edges = brute_recoded_graph(transition, k)
    n = len(blocks)
    while True:
        with mp.workdps(dps):
            M = mp.zeros(n)
            for i, outs in edges.items():
                f = Fraction(values[blocks[i]])
                w = mp.exp(mp.mpf(f.numerator) / f.denominator * mp.mpf(t))
                for j in outs:
                    M[i, j] = w
            E, EL, ER = mp.eig(M, left=True, right=True)
            top = max(range(n), key=lambda i: mp.re(E[i]))
            lam = mp.re(E[top])
            v = mp.matrix([abs(mp.re(ER[i, top])) for i in range(n)])
            u = mp.matrix([[abs(mp.re(EL[top, i])) for i in range(n)]])
            Mv, uM = M * v, u * M
            if all(v[i] > 0 and u[i] > 0
                   and abs(Mv[i] / (lam * v[i]) - 1) < mp.mpf(10) ** -20
                   and abs(uM[i] / (lam * u[i]) - 1) < mp.mpf(10) ** -20
                   for i in range(n)):
                gap = min((abs(E[i] - E[top]) for i in range(n) if i != top),
                          default=lam) / lam
                p = [u[i] * v[i] for i in range(n)]
                z = sum(p)
                P = [[M[i, j] * v[j] / (lam * v[i]) for j in range(n)]
                     for i in range(n)]
                return [x / z for x in p], P, gap
        dps *= 2


def longdouble_equilibrium(n: int, edges, weights, t: float):
    """(stationary, kernel on the edges) of exp(t * w[a]) on the edges
    a -> b of an irreducible digraph, by sparse power iteration on its
    right and left vectors, each step shifted by the largest
    Collatz-Wielandt ratio, in np.longdouble until those ratios agree to
    100 eps, within 100000 steps.  That bounds each entry's error only by about 100 eps / gap,
    so it cannot split tied critical classes: it runs from two positive
    starts and refuses masses on which they disagree beyond 1e-12
    relative.  Where longdouble is double, it is no more accurate than
    the engine it checks."""
    src, dst = np.array(edges).T
    w = np.array(weights, dtype=np.longdouble) * t
    M = np.exp(w - w.max())[src]
    runs = []
    for start in (np.ones(n, dtype=np.longdouble), np.linspace(1, 2, n, dtype=np.longdouble)):
        vecs = []
        for a, b in ((src, dst), (dst, src)):
            x = start
            for _ in range(100000):
                y = np.zeros(n, dtype=np.longdouble)
                np.add.at(y, a, M * x[b])
                r = y / x
                if r.max() / r.min() - 1 <= 100 * np.finfo(np.longdouble).eps:
                    break
                y += r.max() * x
                x = y / y.max()
            else:
                raise AssertionError("power iteration did not converge")
            vecs.append(x)
        y, u = vecs
        runs.append((u * y / (u * y).sum(), M * y[dst] / (r.max() * y[src])))
    (p, K), (q, _) = runs
    if not np.all(np.abs(p - q) <= 1e-12 * p):
        raise AssertionError("the two starts disagree: the masses are not settled")
    return p, K


def dual_grid_entropy(transition, values: dict, k: int, w, lo=-10.0, hi=10.0,
                      steps: int = 21, refine: int = 4) -> float:
    """inf_v [ P(v . Phi) - v . w ] by nested grid search (m = 2)."""
    def objective(v):
        scal = {b: sum(float(a) * float(x) for a, x in zip(v, vec))
                for b, vec in values.items()}
        return numpy_pressure(transition, scal, k, 1.0) \
            - sum(a * b for a, b in zip(v, w))

    box = (lo, hi, lo, hi)
    best_v, best = (0.0, 0.0), objective((0.0, 0.0))
    for _ in range(refine):
        x0, x1, y0, y1 = box
        xs = [x0 + i * (x1 - x0) / (steps - 1) for i in range(steps)]
        ys = [y0 + i * (y1 - y0) / (steps - 1) for i in range(steps)]
        for vx in xs:
            for vy in ys:
                val = objective((vx, vy))
                if val < best:
                    best, best_v = val, (vx, vy)
        dx = (x1 - x0) / (steps - 1)
        dy = (y1 - y0) / (steps - 1)
        box = (best_v[0] - 2 * dx, best_v[0] + 2 * dx,
               best_v[1] - 2 * dy, best_v[1] + 2 * dy)
    return best


# -- random instances ------------------------------------------------------

def random_transitive_sft(rng, d_min: int = 2, d_max: int = 3) -> Sft:
    while True:
        d = rng.randint(d_min, d_max)
        rows = [[1 if rng.random() < 0.75 else 0 for _ in range(d)]
                for _ in range(d)]
        if not any(any(r) for r in rows):
            continue
        try:
            sft = Sft.from_matrix(rows)
        except Exception:
            continue
        if sft.d == d and is_transitive(sft):
            return sft


def random_rational_values(rng, sft: Sft, k: int, m: int = 1) -> dict:
    from thermoshift import recode_to_one_step
    recoded = recode_to_one_step(sft, k)
    vals = {}
    for blk in recoded.states:
        vec = tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
                    for _ in range(m))
        vals[blk] = vec if m > 1 else vec[0]
    return vals


# Two tied components on full4 with k = 2: value 4 on their blocks and
# seeded integers in [-3, 2] elsewhere.
TIED_COMPONENTS = {"two 2-cycles": {(0, 1), (1, 0), (2, 3), (3, 2)},
                   "two golden means": {(0, 0), (0, 1), (1, 0),
                                        (2, 2), (2, 3), (3, 2)}}


def tied_potential(name):
    """(phi, values): a planted tie of ``TIED_COMPONENTS``, or a builtin
    scalar potential, with its block values."""
    from thermoshift import PotentialLC, get_potential
    if name in TIED_COMPONENTS:
        rng = random.Random(name)
        values = {b: Fraction(4) if b in TIED_COMPONENTS[name]
                  else Fraction(rng.randint(-3, 2))
                  for b in itertools.product(range(4), repeat=2)}
        return PotentialLC.from_block_values(Sft.full(4), 2, values), values
    phi = get_potential(name)
    return phi, {b: v[0] for b, v in phi.values.items()}


# -- rotation geometry in Fraction arithmetic ------------------------------
#
# The exact geometry layer as it ran before it moved to integer
# coordinates: values snapped and averaged block by block, support points
# as Fraction cycle means, a Fraction affine frame, and facet tests as
# Fraction dot products.  Only the integer double description
# (rotation_geometry._dd_facets) is shared with the package.

SNAP_DEN = 10**9


def snap(x) -> Fraction:
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return Fraction(round(float(x) * SNAP_DEN), SNAP_DEN)


def _fdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def fraction_orbit_averages(Phi, orbits):
    """Orbit averages of the snapped values, block by block."""
    snapped = [[tuple(map(snap, Phi.value(b))) for b in o.blocks(Phi.k)] for o in orbits]
    return tuple(tuple(sum(c) / len(vs) for c in zip(*vs)) for vs in snapped)


def fraction_support(Phi, d):
    """The mean of a cycle maximizing d . Phi over the snapped values."""
    from thermoshift import max_mean_data
    from thermoshift.max_face import find_cycle
    recoded = Phi._recoded
    vecs = [tuple(map(snap, vec)) for vec in Phi.state_values()]
    _, edges, _ = max_mean_data(recoded.n, recoded.edges(), [_fdot(d, v) for v in vecs])
    cyc = find_cycle(edges)
    return tuple(sum(vecs[v][i] for v in cyc) / len(cyc) for i in range(Phi.m))


class FractionFrame:
    """Affine hull of Fraction points, with coordinates in its basis."""

    def __init__(self, points):
        self.origin, self.basis, self.corners, self.pivots = points[0], [], [0], []
        self._ech = []          # (reduced vector, its coefficients in the basis, pivot)
        for i, p in enumerate(points):
            diff = [a - b for a, b in zip(p, self.origin)]
            red, f = self._reduce(diff)
            pivot = next((j for j, x in enumerate(red) if x != 0), None)
            if pivot is not None:
                coeffs = [Fraction(0)] * len(self.basis) + [Fraction(1)]
                for fe, (_, c, _) in zip(f, self._ech):
                    for j, cj in enumerate(c):
                        coeffs[j] -= fe * cj
                self.basis.append(tuple(diff))
                self.corners.append(i)
                self.pivots.append(pivot)
                self._ech.append((red, coeffs, pivot))
        self.dim = len(self.basis)

    def _reduce(self, vec):
        v, coeffs = list(vec), [Fraction(0)] * len(self._ech)
        for idx, (e, _, pivot) in enumerate(self._ech):
            if v[pivot] != 0:
                f = v[pivot] / e[pivot]
                v = [a - f * b for a, b in zip(v, e)]
                coeffs[idx] = f
        return v, coeffs

    def coords(self, point):
        """c with point = origin + sum c[j] basis[j], or None off the hull."""
        red, coeffs = self._reduce([a - b for a, b in zip(point, self.origin)])
        if any(x != 0 for x in red):
            return None
        out = [Fraction(0)] * self.dim
        for f, (_, c, _) in zip(coeffs, self._ech):
            for j, cj in enumerate(c):
                out[j] += f * cj
        return tuple(out)


def fraction_complement(basis, m):
    """The orthogonal complement of span(basis) by Gram-Schmidt."""
    ortho = []
    for v in [*basis, *(tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m))]:
        for q in ortho:
            f = _fdot(v, q) / _fdot(q, q)
            v = tuple(a - f * b for a, b in zip(v, q))
        if any(v):
            ortho.append(v)
    return ortho[len(basis):]


class FractionPolytope:
    """affine_dim, vertices and facets (vertex ids, normal, offset) in the
    package's canonical order, with Fraction membership tests."""

    def __init__(self, m, unique_points):
        from thermoshift.rotation_geometry import _dd_facets, _int_inverse
        self.frame = frame = FractionFrame(unique_points)
        self.affine_dim = r = frame.dim
        if r == 0:
            self.vertices, self.facets = [unique_points[0]], []
            return
        den = math.lcm(*(x.denominator for p in unique_points for x in p))
        ints = [tuple(int(x * den) for x in p) for p in unique_points]
        axes = sorted(frame.pivots)
        chart = [tuple(p[k] - ints[0][k] for k in axes) for p in ints]
        lift = None
        if r < m:
            base = [tuple(u - v for u, v in zip(ints[i], ints[0])) for i in frame.corners[1:]]
            ginv = _int_inverse([[_fdot(u, v) for v in base] for u in base])
            proj = [[_fdot(col, g) for g in zip(*ginv)] for col in zip(*base)]
            lift = [[_fdot(row, [b[k] for b in base]) for k in axes] for row in proj]
        rays = _dd_facets(chart, frame.corners)
        cover = [-1] * len(chart)
        for _, _, z in rays:
            for i in range(len(chart)):
                if z >> i & 1:
                    cover[i] &= z
        verts = [i for i in range(len(chart)) if cover[i] == 1 << i]
        found = {}
        for a, _, z in rays:
            n = a if lift is None else [_fdot(row, a) for row in lift]
            g = math.gcd(*n)
            on = tuple(i for i in verts if z >> i & 1)
            found[on] = (tuple(Fraction(x // g) for x in n), Fraction(_fdot(n, ints[on[0]]), den * g))
        if r == 2:
            nbrs = {i: [] for i in verts}
            for p, q in found:
                nbrs[p].append(q)
                nbrs[q].append(p)
            s = verts[0]
            b, c = nbrs[s]
            (x0, y0), (x1, y1), (x2, y2) = chart[s], chart[b], chart[c]
            if c < b if m > 2 else (x1 - x0) * (y2 - y0) < (y1 - y0) * (x2 - x0):
                b = c
            verts = [s, b]
            while len(verts) < len(nbrs):
                verts.append(next(q for q in nbrs[verts[-1]] if q != verts[-2]))
            self.facets = [((i, (i + 1) % len(verts)),
                            *found[tuple(sorted((p, verts[(i + 1) % len(verts)])))])
                           for i, p in enumerate(verts)]
        else:
            vid = {p: i for i, p in enumerate(verts)}
            self.facets = sorted(((tuple(vid[p] for p in on), *nb) for on, nb in found.items()),
                                 key=lambda f: f[1:])
        self.vertices = [unique_points[i] for i in verts]

    def membership(self, point) -> str:
        pt = tuple(map(snap, point))
        if self.frame.coords(pt) is None:
            return "outside"
        vals = [_fdot(n, pt) - b for _, n, b in self.facets]
        return "outside" if max(vals, default=-1) > 0 else (
            "boundary" if 0 in vals else "interior")


def fraction_rotation_set(Phi, orbits=None) -> FractionPolytope:
    """The hull of the orbit averages, or, without orbits, the hull grown
    from Fraction support queries."""
    m = Phi.m
    if orbits is not None:
        return FractionPolytope(m, sorted(set(fraction_orbit_averages(Phi, orbits))))
    answers = {}

    def support(d):
        den = math.lcm(*(Fraction(x).denominator for x in d))
        ints = [int(x * den) for x in d]
        g = math.gcd(*ints)
        d = tuple(i // g for i in ints)
        if d not in answers:
            answers[d] = fraction_support(Phi, d)
        return answers[d]

    pts = {support((1,) + (0,) * (m - 1))}
    while True:
        frame = FractionFrame(sorted(pts))
        found = {support(tuple(s * x for x in v))
                 for v in fraction_complement(frame.basis, m) for s in (1, -1)}
        pts |= found
        if all(frame.coords(p) is not None for p in found):
            break
    while True:
        poly = FractionPolytope(m, sorted(pts))
        beyond = {p for _, n, b in poly.facets for p in [support(n)] if _fdot(n, p) > b}
        if not beyond:
            return poly
        pts |= beyond


def fraction_genericity(Phi, orbits):
    """(generic, vertex violations, boundary violations, affine_dim) of
    the genericity check, from Fraction averages and facet tests."""
    avgs = fraction_orbit_averages(Phi, orbits)
    poly = FractionPolytope(Phi.m, sorted(set(avgs)))
    at = {}
    for i, a in enumerate(avgs):
        at.setdefault(a, []).append(i)
    vertex = [(vidx, (a, b)) for vidx, v in enumerate(poly.vertices)
              for a, b in itertools.combinations(at[v], 2)
              if orbits[a].cylinders != orbits[b].cylinders]
    boundary = sorted(i for a, ids in at.items() if a not in poly.vertices
                      and any(_fdot(n, a) == b for _, n, b in poly.facets) for i in ids)
    return not vertex and not boundary, vertex, boundary, poly.affine_dim


# -- SCC splits and face curves as they ran on every state -----------------
#
# The split of an edge set into its nontrivial SCCs as it ran before it
# followed the edges alone: Tarjan over every state of the graph, a
# component built for each.  And the face curve as it ran before cycle
# components took their mean in closed form and the face geometry moved
# to integers: Fraction vertices and tangent, Fraction psi, and for every
# component a sub-shift, two sub-potentials and their max-plus passes.

def cyclic_components(n: int, edges):
    """(nontrivial SCCs as sorted state lists, ordered by smallest state;
    the edges inside them, in the given order) of the digraph on states
    0..n-1, by an iterative Tarjan over all n states."""
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    todo = [iter(s) for s in succ]
    index, low, pos = [-1] * n, [0] * n, [0] * n
    stack, comps, counter = [], [], 0
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
                    comps.append((comp, len(comp) > 1 or v in succ[v]))
    sccs = sorted(c for c, nontrivial in comps if nontrivial)
    comp_of = [-1] * n
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i
    return sccs, [(a, b) for (a, b) in edges if comp_of[a] >= 0 and comp_of[a] == comp_of[b]]


def _oracle_component_curve(comp, vecs, e0, tangent, exact, n_samples, vmax):
    from thermoshift import PotentialLC, face_subshift
    from thermoshift.boundary_entropy import CurvePoint
    from thermoshift.spectral import perron_stack
    from thermoshift.thermodynamics import markov_entropy
    tt = sum(t * t for t in tangent)
    psi = []
    for i in comp.state_ids:
        num = sum((x - a) * t for x, a, t in zip(vecs[i], e0, tangent))
        psi.append(num / tt if exact else float(num) / float(tt))
    sub = Sft(comp.matrix, comp.labels())
    hi, lo = (PotentialLC(sub, 1, 1, {(i,): (sign * x,) for i, x in enumerate(psi)},
                          "exact" if exact else "float") for sign in (1, -1))
    hi_face = face_subshift(hi)
    if hi_face.is_whole_shift:
        return [CurvePoint(float(hi_face.beta), comp.entropy, comp.index, "point", -1)]
    lo_face = face_subshift(lo)
    s_hi, s_lo = float(hi_face.beta), -float(lo_face.beta)
    pts = [CurvePoint(s_lo, lo_face.entropy, comp.index, "anchor", -1),
           CurvePoint(s_hi, hi_face.entropy, comp.index, "anchor", -1)]
    psi = np.array([float(x) for x in psi])
    th_max = math.atan(vmax)
    v = np.array([math.tan(th) for th in np.linspace(-th_max, th_max, n_samples)])
    _, P, p = perron_stack([hi._transfer if x >= 0 else lo._transfer for x in v], np.abs(v))
    s = sum(p[:, i] * x for i, x in enumerate(psi))
    h = markov_entropy(p, P)
    pts.extend(CurvePoint(float(a), float(b), comp.index, "sample", i)
               for i, (a, b) in enumerate(zip(s, h)) if s_lo < a < s_hi)
    return pts


def fraction_face_curve(Phi, alpha, n_samples: int = 201, vmax: float = 50.0, poly=None):
    """``face_entropy_curve`` on the per-component path: the face of the
    scalar potential alpha . Phi, and every component through its own
    sub-shift and sub-potentials on Fraction geometry."""
    from thermoshift import face_subshift, rotation_set, scalarize
    from thermoshift.boundary_entropy import FaceCurve, _upper_hull
    n_samples |= 1
    alpha = tuple(snap(a) for a in alpha)
    if poly is None:
        poly = rotation_set(Phi)
    support = max(_fdot(alpha, v) for v in poly.vertices)
    e0, e1 = sorted(v for v in poly.vertices if _fdot(alpha, v) == support)
    tangent = tuple(b - a for a, b in zip(e0, e1))
    face = face_subshift(scalarize(Phi, alpha))
    vecs = Phi.state_values()
    points = []
    for comp in face.components:
        points.extend(_oracle_component_curve(comp, vecs, e0, tangent, Phi.mode == "exact",
                                              n_samples, vmax))
    return FaceCurve(alpha, e0, e1, tangent, face.beta, [c.labels() for c in face.components],
                     points, _upper_hull(points), n_samples, vmax)
