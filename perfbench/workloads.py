"""Seeded input generators for the thermoshift benchmark.

A workload run is a cold phase (ops that start a fresh interpreter, once
per run) followed by a sequence of passes.  Pass ``p`` of workload ``w``
under seed ``s`` is a fixed list of items, each a JSON-able description
of one public call and its inputs, drawn from ``random.Random`` seeded
with ``"w:s:p"``.  Items hold plain data (transition rows, block values
as rational strings) so the list can be digested and printed; the
thermoshift objects are built from them through public constructors.

Every pass of a workload has the same composition (the same number of
calls of each kind, on shifts of the same sizes and value palettes);
only the random draws differ.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

# BENCHMARK.json names the first three.  rotation-m3 holds the m = 3
# rotation-set ops, which fail their checks at this commit (see
# README.md, "Known failures"); it stays runnable so the defect shows and
# its fix can be confirmed before the ops return to vector-faces.
WORKLOADS = ("scalar-classify", "low-temperature", "vector-faces",
             "rotation-m3")

# The seed used for published numbers, and a second one kept back so that
# a later speed claim can be confirmed on inputs it was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

SCALAR_BUILTINS = ("alt01", "cob1", "fix0", "fix1", "gold0", "gold1", "hubmax",
                   "threefix_a", "threefix_b", "threefix_c", "twofix",
                   "twofix_skew")
ZT_BUILTINS = ("threefix_a", "threefix_b", "threefix_c", "twofix",
               "twofix_skew")

NARROW = (0, 1, 2)                  # small integers: many exact ties
COHOMOLOGY_MAX_STATES = 10          # census stays in the hundreds
TEMPERATURES = (0.25, 1.0, 4.0, 16.0)
ORBITS_SYMBOLS = 7                  # full 7-shift: 2372 elementary orbits


# -- plain-data shifts and potentials ----------------------------------------

def admissible_blocks(rows, k: int) -> list[tuple[int, ...]]:
    """Admissible k-blocks of a 0/1 transition matrix, lexicographic."""
    d = len(rows)
    return [w for w in itertools.product(range(d), repeat=k)
            if all(rows[w[i]][w[i + 1]] for i in range(k - 1))]


def _reaches_all(rows, transpose: bool) -> bool:
    d = len(rows)
    seen, todo = {0}, [0]
    while todo:
        a = todo.pop()
        for b in range(d):
            edge = rows[b][a] if transpose else rows[a][b]
            if edge and b not in seen:
                seen.add(b)
                todo.append(b)
    return len(seen) == d


def is_strongly_connected(rows) -> bool:
    return (any(any(r) for r in rows) and _reaches_all(rows, False)
            and _reaches_all(rows, True))


def random_transitive_rows(rng: random.Random, d: int, density: float = 0.8):
    """Random irreducible d x d 0/1 matrix (no symbol is pruned)."""
    while True:
        rows = [[1 if rng.random() < density else 0 for _ in range(d)]
                for _ in range(d)]
        if is_strongly_connected(rows):
            return rows


def full_rows(d: int):
    return [[1] * d for _ in range(d)]


def draw_value(rng: random.Random, palette: str) -> str:
    if palette == "narrow":
        return str(rng.choice(NARROW))
    return str(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4))))


def random_potential(rng, rows, k: int, m: int, palette: str) -> dict:
    blocks = admissible_blocks(rows, k)
    values = [[draw_value(rng, palette) for _ in range(m)] for _ in blocks]
    return {"rows": rows, "k": k, "m": m, "palette": palette, "values": values}


def planted_ties(rng, d: int) -> dict:
    """Window-2 potential on the full d-shift whose maximum is attained
    on two or more fixed points with the same value, and on no other
    cycle: a MultiComponent case."""
    rows = full_rows(d)
    top = 4
    tied = rng.sample(range(d), rng.randint(2, d))
    values = []
    for blk in admissible_blocks(rows, 2):
        if blk[0] == blk[1] and blk[0] in tied:
            values.append([str(top)])
        else:
            values.append([str(rng.randint(-2, top - 1))])
    return {"rows": rows, "k": 2, "m": 1, "palette": "planted",
            "values": values}


# -- passes --------------------------------------------------------------------

def _scalar_classify(rng, smoke: bool) -> list[dict]:
    items = []
    for name in SCALAR_BUILTINS[:2] if smoke else SCALAR_BUILTINS:
        items.append({"op": "classify", "input": {"builtin": name}})
        items.append({"op": "cohomology_test", "input": {"builtin": name}})
    slots = [(d, k) for d in (2, 3, 4, 5) for k in (1, 2, 3)]
    for d, k in slots[:2] if smoke else slots:
        for palette in ("narrow", "wide"):
            spec = random_potential(rng, random_transitive_rows(rng, d), k, 1,
                                    palette)
            items.append({"op": "classify", "input": spec})
            if len(spec["values"]) <= COHOMOLOGY_MAX_STATES:
                items.append({"op": "cohomology_test", "input": spec})
    return items


def _low_temperature(rng, smoke: bool) -> list[dict]:
    # The potentials are the same for every seed and pass; the seed draws
    # the order of the ops.  Whether a t >= 4 solve escalates to mpmath
    # depends on the draw, and an escalated solve costs from 0.01 s to
    # 5 s, so drawn potentials made the run length, the median op and the
    # slow tail a lottery: with two n = 4 potentials and two planted ties
    # drawn per pass, op_p50_ms and op_p90_ms spread by 0.15 to 0.25 over
    # five seeds.
    fixed = random.Random("low-temperature:fixed")
    specs = [] if smoke else [random_potential(fixed, full_rows(d), k, 1, "wide")
                              for d, k in ((3, 3), (2, 4), (3, 2), (2, 3))]
    for _ in range(1 if smoke else 2):
        specs.append(random_potential(fixed, full_rows(2), 2, 1, "wide"))
    items = []
    for spec in specs:
        for t in TEMPERATURES:
            items.append({"op": "equilibrium_markov", "input": spec, "t": t})
            items.append({"op": "pressure", "input": spec, "t": t})
    for name in ZT_BUILTINS[3:] if smoke else ZT_BUILTINS:
        items.append({"op": "zt_coefficients", "input": {"builtin": name}})
    for d in () if smoke else (2, 2):
        items.append({"op": "zt_coefficients", "input": planted_ties(fixed, d)})
    rng.shuffle(items)
    return items


# (m, d, k, palette) on the full d-shift, drawn in this order from one
# fixed generator.  The potentials are the same for every seed and pass:
# an edge curve costs from milliseconds to seconds depending on the draw
# (a full2 k = 4 edge up to 18 s), and a polygon's edge count sets how
# many ops it adds, so drawn potentials made the median and the slow tail
# a lottery.  Planar slots stay at n <= 9.  The m = 3 slots are run by
# rotation-m3 only.
VECTOR_SLOTS = ((2, 2, 2, "narrow"), (2, 2, 2, "wide"), (2, 2, 3, "narrow"),
                (2, 2, 3, "wide"), (2, 3, 1, "wide"), (2, 3, 2, "narrow"),
                (2, 3, 2, "wide"), (3, 2, 4, "narrow"), (3, 3, 2, "wide"))


def _vector_specs(m: int, smoke: bool) -> list[dict]:
    fixed = random.Random("vector-faces:fixed")
    specs = [random_potential(fixed, full_rows(d), k, dim, palette)
             for dim, d, k, palette in VECTOR_SLOTS]
    specs = [s for s in specs if s["m"] == m]
    return specs[:1] if smoke else specs


def _vector_faces(rng, smoke: bool, m: int = 2) -> list[dict]:
    """rotation_set and genericity_check on each potential; the seed
    draws the order of the ops."""
    specs = _vector_specs(m, smoke)
    items = []
    for spec in specs:
        # rotation_set queues the edge curves, scans and the interior
        # point of a planar polygon once its vertices are known
        items.append({"op": "rotation_set", "input": spec})
        items.append({"op": "genericity_check", "input": spec})
    rng.shuffle(items)
    return items


def cold_items(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """Ops that start a fresh interpreter, run once per run before the
    passes: the CLI as users run it."""
    if workload != "vector-faces":
        return []
    rng = random.Random(f"{workload}:{seed}:cold")
    labels = [f"s{i}" for i in range(ORBITS_SYMBOLS)]
    rng.shuffle(labels)
    census = {"rows": full_rows(ORBITS_SYMBOLS), "labels": labels, "k": 1}
    items = [{"op": "cli_orbits", "input": census, "call": "write"},
             {"op": "cli_orbits", "input": census, "call": "read"}]
    if not smoke:
        items.append({"op": "cli", "argv": ["rotset", "--potential", "trivec"]})
        items.append({"op": "cli", "argv": ["facecurve", "--potential",
                                            "kinkvec", "--alpha", "0,-1"]})
    return items


_GENERATORS = {"scalar-classify": _scalar_classify,
               "low-temperature": _low_temperature,
               "vector-faces": _vector_faces,
               "rotation-m3": lambda rng, smoke: _vector_faces(rng, smoke, m=3)}


def generate(workload: str, seed: int, pass_index: int,
             smoke: bool = False) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return _GENERATORS[workload](rng, smoke)


def digest(items) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
