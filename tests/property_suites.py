"""Randomized property suites shared by the acceptance tests.

Each suite draws its own seeded generator, runs the stated number of
trials on small rational potentials (d <= 3, k <= 2), and raises
AssertionError with context on the first violation.  They return a
short summary string for reporting.
"""

import math
import random
from fractions import Fraction

from oracles import (brute_max_cycle_mean, brute_periodic_words,
                     brute_recoded_graph, brute_simple_cycle_segments,
                     random_rational_values, random_transitive_sft)
from thermoshift import (PotentialLC, classify, elementary_orbits,
                         equilibrium_markov, face_in_direction, face_subshift,
                         pressure, recode_to_one_step)

TRIALS = 1000

_WORD_CACHE: dict = {}


def _word_data(sft, k):
    """Per (transition, k): periodic words to period 8 with their cyclic
    block-id sequences on both the oracle and the package recodings."""
    key = (sft.transition, k)
    hit = _WORD_CACHE.get(key)
    if hit is not None:
        return hit
    words = brute_periodic_words(sft.transition, 8)
    blocks, _ = brute_recoded_graph(sft.transition, k)
    oidx = {b: i for i, b in enumerate(blocks)}
    pidx = recode_to_one_step(sft, k).block_index()
    oracle_seqs, pkg_pairs = [], []
    for w in words:
        p = len(w)
        ids_o, ids_p = [], []
        for i in range(p):
            blk = tuple(w[(i + j) % p] for j in range(k))
            ids_o.append(oidx[blk])
            ids_p.append(pidx[blk])
        oracle_seqs.append(tuple(ids_o))
        pkg_pairs.append(tuple((ids_p[i], ids_p[(i + 1) % p])
                               for i in range(p)))
    out = (words, blocks, oracle_seqs, pkg_pairs)
    _WORD_CACHE[key] = out
    return out


def _draw(rng, m: int = 1):
    """(sft, k, values) of one trial, drawn as every suite draws them."""
    sft = random_transitive_sft(rng)
    k = rng.choice((1, 2))
    return sft, k, random_rational_values(rng, sft, k, m=m)


def _direction(rng):
    """A nonzero integer direction in the plane."""
    while True:
        alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
        if alpha != (0, 0):
            return alpha


def suite_potentials(trials: int = TRIALS):
    """(potential, direction) of each trial of the max-mean suite (scalar,
    direction None) and of the argmax suite (m = 2), in their draw order."""
    rng = random.Random(104)
    for _ in range(trials):
        yield PotentialLC.from_block_values(*_draw(rng)), None
    rng = random.Random(105)
    for _ in range(trials):
        sft, k, vals = _draw(rng, m=2)
        yield PotentialLC.from_block_values(sft, k, vals, m=2), _direction(rng)


def _lcm(nums):
    out = 1
    for n in nums:
        out = out * n // math.gcd(out, n)
    return out


def run_variational_identity(trials: int = TRIALS) -> str:
    """|h(mu_t) + t * integral(phi) - P(t phi)| <= 1e-8."""
    rng = random.Random(101)
    for trial in range(trials):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        vals = random_rational_values(rng, sft, k)
        phi = PotentialLC.from_block_values(sft, k, vals)
        t = rng.uniform(0.25, 2.5)
        mu = equilibrium_markov(phi, t)
        integral = sum(float(p) * float(vals[b])
                       for p, b in zip(mu.stationary, mu.blocks))
        gap = abs(mu.entropy + t * integral - pressure(phi, t))
        assert gap <= 1e-8, (trial, sft.transition, k, t, gap)
    return f"{trials} trials, |h + t*int - P| <= 1e-8"


def run_cone_invariance(trials: int = TRIALS) -> str:
    """classify is invariant under positive rational scaling."""
    rng = random.Random(102)
    for trial in range(trials):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        vals = random_rational_values(rng, sft, k)
        c = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4)))
        phi = PotentialLC.from_block_values(sft, k, vals)
        scaled = PotentialLC.from_block_values(
            sft, k, {b: c * v for b, v in vals.items()})
        a, b = classify(phi), classify(scaled)
        ctx = (trial, sft.transition, k, c)
        assert a.case == b.case, ctx
        assert b.beta == c * a.beta, ctx
        assert [x.blocks for x in a.components] == \
               [x.blocks for x in b.components], ctx
        assert a.max_entropy_ids == b.max_entropy_ids, ctx
    return f"{trials} trials, classify(c * phi) == classify(phi)"


def run_shift_covariance(trials: int = TRIALS) -> str:
    """P(t(phi + c)) == P(t phi) + t c."""
    rng = random.Random(103)
    for trial in range(trials):
        sft = random_transitive_sft(rng)
        k = rng.choice((1, 2))
        vals = random_rational_values(rng, sft, k)
        c = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        t = rng.uniform(0.2, 2.0)
        phi = PotentialLC.from_block_values(sft, k, vals)
        shifted = PotentialLC.from_block_values(
            sft, k, {b: v + c for b, v in vals.items()})
        gap = abs(pressure(shifted, t) - pressure(phi, t) - t * float(c))
        assert gap <= 1e-10, (trial, sft.transition, k, c, t, gap)
    return f"{trials} trials, pressure covariant under constants"


def run_max_mean_and_membership(trials: int = TRIALS) -> str:
    """Max cycle mean against a brute-force cycle search, and membership
    of periodic words in the maximizing subshift up to period 8."""
    rng = random.Random(104)
    for trial in range(trials):
        sft, k, vals = _draw(rng)
        phi = PotentialLC.from_block_values(sft, k, vals)
        face = face_subshift(phi)
        beta = face.beta
        assert beta == brute_max_cycle_mean(sft.transition, vals, k), \
            (trial, sft.transition, k)
        words, blocks, oracle_seqs, pkg_pairs = _word_data(sft, k)
        tight = set(face.tight_edges)
        L = _lcm([Fraction(vals[b]).denominator for b in blocks])
        iv = [int(Fraction(vals[b]) * L) for b in blocks]
        bn, bd = beta.numerator, beta.denominator
        for w, oseq, ppairs in zip(words, oracle_seqs, pkg_pairs):
            in_face = all(e in tight for e in ppairs)
            at_beta = sum(iv[i] for i in oseq) * bd == bn * L * len(oseq)
            assert in_face == at_beta, (trial, sft.transition, k, w)
    return f"{trials} trials, beta and periodic membership match brute force"


def run_argmax_fingerprint(trials: int = TRIALS) -> str:
    """face_in_direction against the elementary orbits of the tight
    subgraph found independently."""
    rng = random.Random(105)
    for trial in range(trials):
        sft, k, vals = _draw(rng, m=2)
        Phi = PotentialLC.from_block_values(sft, k, vals, m=2)
        alpha = _direction(rng)
        orbits = elementary_orbits(sft, k)
        fp = face_in_direction(Phi, alpha, orbits=orbits)
        got = {orbits[i].segment for i in fp.orbit_set}
        face = face_subshift(Phi, alpha)
        states = face.recoded.states
        restrict = [(states[a], states[b]) for (a, b) in face.tight_edges]
        want = brute_simple_cycle_segments(sft.transition, k, restrict)
        assert got == want, (trial, sft.transition, k, alpha)
    return f"{trials} trials, fingerprints match tight-subgraph cycles"


ALL_SUITES = (
    ("variational identity", run_variational_identity),
    ("cone invariance", run_cone_invariance),
    ("constant-shift covariance", run_shift_covariance),
    ("max mean + membership", run_max_mean_and_membership),
    ("argmax fingerprint", run_argmax_fingerprint),
)
