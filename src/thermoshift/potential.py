"""Locally constant potentials on k-cylinders.

A potential assigns an m-vector to every admissible k-block.  Values are
either exact rationals (Fraction) or floats; a potential is uniformly
one or the other.  Scalar potentials (m = 1) feed the thermodynamic
machinery; vector potentials define rotation sets.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING

from .core_sft import RecodedSft, Sft, _cyclic_components, recode_to_one_step
from .errors import InvalidArgumentError
from .max_face import _state_pass, find_cycle

if TYPE_CHECKING:
    from .spectral import Transfer

FLOAT_EQ_TOL = 1e-9       # absolute gap under which two doubles count as equal
SNAP_DEN = 10**9         # the grid that exact geometry puts float values on

Number = object  # Fraction or float, uniform per potential


def _is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _snap(x) -> Fraction:
    """An exact value as it is, a float rounded to the 1e-9 grid."""
    if isinstance(x, (Fraction, int)):
        return _as_fraction(x)
    return Fraction(round(float(x) * SNAP_DEN), SNAP_DEN)


@dataclass(frozen=True)
class PotentialLC:
    """A locally constant m-vector potential with window k.

    A potential is immutable: its fields cannot be assigned and
    ``values`` is a read-only mapping of finite numbers (a NaN or an
    infinity raises InvalidArgumentError).  So the data that its solves
    share is kept with it, each piece built on first use: the recoding,
    the state values and their integer rows, the irreducibility of the
    recoding, the one max-plus pass of a scalar potential with its
    maximum cycle mean beta and tight edges, which ``classify`` and the
    max side of a ``cohomology_test`` against a constant share, the
    transfer matrix of phi - beta scaled by that pass
    (``spectral.Transfer``) with its Perron solves of the last 16
    temperatures, so that a pressure and an equilibrium state at one t
    solve once, and the rotation polytope of a vector potential, which
    whichever of ``rotation_set`` and ``genericity_check`` comes first
    builds (``rotation_geometry._kept_hull``).
    """

    sft: Sft
    k: int
    m: int
    values: Mapping[tuple[int, ...], tuple]
    mode: str  # "exact" or "float"

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        if self.mode not in ("exact", "float"):
            raise InvalidArgumentError("mode must be 'exact' or 'float'")
        recoded = recode_to_one_step(self.sft, self.k)
        want = set(recoded.states)
        have = set(self.values)
        if have != want:
            missing = sorted(want - have)[:3]
            extra = sorted(have - want)[:3]
            raise InvalidArgumentError(
                f"potential values must cover admissible {self.k}-blocks exactly "
                f"(missing {missing}, extra {extra})")
        for blk, vec in self.values.items():
            if len(vec) != self.m:
                raise InvalidArgumentError(f"value at {blk} has length {len(vec)} != m={self.m}")
            for x in vec:
                if self.mode == "exact" and not _is_exact(x):
                    raise InvalidArgumentError("exact potential holds a non-rational value")
                if self.mode == "float" and not isinstance(x, float):
                    raise InvalidArgumentError("float potential holds a non-float value")
                if self.mode == "float" and not math.isfinite(x):
                    raise InvalidArgumentError(f"float potential holds {x} at block {blk}")

    def __reduce__(self):
        # a read-only mapping does not pickle; the copy rebuilds its own data
        return PotentialLC, (self.sft, self.k, self.m, dict(self.values), self.mode)

    def state_values(self) -> tuple:
        """The value vector of each state of ``recode_to_one_step(sft, k)``,
        in state order; exact values as Fraction."""
        return self._state_values

    # -- the data shared by solves, each piece built on first use ----------

    @functools.cached_property
    def _recoded(self) -> RecodedSft:
        return recode_to_one_step(self.sft, self.k)

    @functools.cached_property
    def _state_values(self) -> tuple:
        blocks = self._recoded.states
        if self.mode == "exact":
            return tuple(tuple(map(_as_fraction, self.values[b])) for b in blocks)
        return tuple(self.values[b] for b in blocks)

    @functools.cached_property
    def _int_rows(self) -> tuple:
        """(rows, L): the state values snapped to the 1e-9 grid (``_snap``)
        times their common denominator L, one int tuple per state.  The
        exact geometry of ``rotation_geometry`` runs on these.  Only
        float values are snapped: for an exact potential the rows are its
        exact values, which face passes and face curves read too."""
        snapped = [tuple(map(_snap, vec)) for vec in self._state_values]
        L = math.lcm(*(x.denominator for vec in snapped for x in vec))
        return tuple(tuple(x.numerator * (L // x.denominator) for x in vec)
                     for vec in snapped), L

    @property
    def _irreducible(self) -> bool:
        """Whether the recoding is one SCC: exactly when the pruned shift is transitive."""
        sccs, _ = self._recoded._split
        return len(sccs) == 1 and len(sccs[0]) == self._recoded.n

    @functools.cached_property
    def _pass(self) -> tuple:
        """The exact max-plus pass of a scalar potential (``_state_pass``)."""
        rec = self._recoded
        return _state_pass(rec.n, rec._split, [x for (x,) in self._state_values])

    @functools.cached_property
    def _max_plus(self) -> tuple:
        """(beta, recurrent tight edges, SCC node lists) of ``_pass``."""
        beta, tight = self._pass[:2]
        sccs, rec_edges = _cyclic_components(tight)
        return beta, rec_edges, sccs

    @functools.cached_property
    def _transfer(self) -> Transfer:
        """The transfer matrix of a scalar phi - beta from ``_pass``: on the
        recoding at k = 1, each edge weighing its target as in the pass;
        at k >= 2 on the (k-1)-block graph, whose edges are the k-blocks,
        each weighing its own value (``RecodedSft._block_pass``): d times
        fewer states and the same nonzero spectrum, since both matrices
        factor through the maps from a k-block to its prefix and suffix."""
        from .spectral import Transfer     # numpy loads only for Perron solves
        rec, (_, inner, sccs) = self._recoded, self._max_plus
        n, edges, weighs = rec._transfer_graph
        mx, split = (self._pass, (sccs, inner)) if self.k == 1 else \
            rec._block_pass(self._pass, (sccs, inner))
        phi = [x for (x,) in self._state_values]
        return Transfer._of_pass(n, edges, [phi[i] for i in weighs], mx, split)

    def value(self, block: tuple[int, ...]) -> tuple:
        """Value on the cylinder of the leading k symbols of ``block``."""
        key = tuple(block[: self.k])
        try:
            return self.values[key]
        except KeyError:
            raise InvalidArgumentError(f"block {key} is not admissible") from None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_block_values(cls, sft: Sft, k: int, values: dict, m: int | None = None,
                          mode: str = "exact") -> "PotentialLC":
        conv = {}
        for blk, vec in values.items():
            blk = tuple(blk)
            if not isinstance(vec, (tuple, list)):
                vec = (vec,)
            try:
                conv[blk] = tuple(map(_as_fraction if mode == "exact" else float, vec))
            except (ValueError, TypeError, OverflowError, ZeroDivisionError):
                # a NaN or an infinity as exact, unparsable text, "1/0"
                raise InvalidArgumentError(
                    f"value {vec!r} at block {blk} is not a finite {mode} number") from None
        if m is None:
            m = len(next(iter(conv.values())))
        return cls(sft=sft, k=k, m=m, values=conv, mode=mode)

    @classmethod
    def from_matrix(cls, sft: Sft, rows, mode: str = "exact") -> "PotentialLC":
        """Scalar window-2 potential from a d x d table of 2-block values."""
        d = sft.d
        if len(rows) != d or any(len(r) != d for r in rows):
            raise InvalidArgumentError("value table must be d x d")
        recoded = recode_to_one_step(sft, 2)
        vals = {blk: (rows[blk[0]][blk[1]],) for blk in recoded.states}
        return cls.from_block_values(sft, 2, vals, m=1, mode=mode)

    @classmethod
    def constant(cls, sft: Sft, c, k: int = 1, mode: str = "exact") -> "PotentialLC":
        recoded = recode_to_one_step(sft, k)
        return cls.from_block_values(sft, k, {blk: (c,) for blk in recoded.states},
                                     m=1, mode=mode)

    # -- serialization -----------------------------------------------------

    @staticmethod
    def _parse_block_key(key: str) -> tuple[int, ...]:
        if "," in key:
            return tuple(int(p) for p in key.split(","))
        return tuple(int(ch) for ch in key)

    def to_json(self) -> str:
        def enc(x):
            return str(x) if self.mode == "exact" else float(x)
        recoded = self._recoded
        payload = {
            "k": self.k,
            "m": self.m,
            "mode": self.mode,
            "values": {label: [enc(x) for x in self.values[b]]
                       for b, label in zip(recoded.states, recoded.labels)},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str, sft: Sft, mode: str | None = None) -> "PotentialLC":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidArgumentError(f"invalid potential JSON: {e}") from e
        for field in ("k", "values"):
            if field not in obj:
                raise InvalidArgumentError(f"potential JSON needs '{field}'")
        mode = mode or obj.get("mode", "exact")
        vals = {}
        for key, vec in obj["values"].items():
            blk = cls._parse_block_key(key)
            if not isinstance(vec, list):
                vec = [vec]
            # an exact value is read from its text, so 0.1 is 1/10
            vals[blk] = [str(x) for x in vec] if mode == "exact" else vec
        return cls.from_block_values(sft, obj["k"], vals, m=obj.get("m"), mode=mode)


def scalarize(Phi: PotentialLC, alpha) -> PotentialLC:
    """Scalar potential alpha . Phi; exact when both sides are exact."""
    alpha = tuple(alpha)
    if len(alpha) != Phi.m:
        raise InvalidArgumentError(f"direction has length {len(alpha)}, potential has m={Phi.m}")
    exact = Phi.mode == "exact" and all(_is_exact(a) for a in alpha)
    if exact:
        alpha = tuple(_as_fraction(a) for a in alpha)
        vals = {b: (sum(a * x for a, x in zip(alpha, v)),) for b, v in Phi.values.items()}
        return PotentialLC(Phi.sft, Phi.k, 1, vals, "exact")
    vals = {b: (float(sum(float(a) * float(x) for a, x in zip(alpha, v))),)
            for b, v in Phi.values.items()}
    return PotentialLC(Phi.sft, Phi.k, 1, vals, "float")


def universal_potential(sft: Sft, k: int) -> PotentialLC:
    """The vector potential sending each admissible k-block to its own
    standard basis vector; every LC_k potential is a linear image of it."""
    recoded = recode_to_one_step(sft, k)
    n = recoded.n
    vals = {}
    for i, blk in enumerate(recoded.states):
        vec = [Fraction(0)] * n
        vec[i] = Fraction(1)
        vals[blk] = tuple(vec)
    return PotentialLC(sft, k, n, vals, "exact")


@dataclass
class CohomologyReport:
    """Outcome of the cycle-mean cohomology criterion; ``witness`` holds
    the canonical segments (low, high) of a min- and a max-mean orbit."""

    cohomologous: bool
    constant: object | None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    tolerance_limited: bool
    spread: float


def _constant_shift(phi: PotentialLC, psi: PotentialLC, exact: bool):
    """c where psi is the constant c at a window at most phi's, so that
    the pass of phi - psi on phi's recoding is phi's own less c (exact
    values, or c = 0 on float phi, whose weights are then phi's); else None."""
    (c,), *rest = psi.values.values()
    if (psi.k <= phi.k and all(v == (c,) for v in rest)
            and (exact or phi.mode == "float" and c == 0)):
        return c if exact else 0.0
    return None


def cohomology_test(phi: PotentialLC, psi: PotentialLC) -> CohomologyReport:
    """Decide whether phi - psi is cohomologous to a constant.

    Livsic: the max and min cycle means of phi - psi at window
    max(k_phi, k_psi) agree, and the common value is the constant.  In
    float mode, agreement within FLOAT_EQ_TOL counts but is flagged, and
    the constant is the midpoint.  Where psi is a constant c of window at
    most k_phi (exact, or c = 0 in float mode), the max side is phi's
    kept pass (``PotentialLC._pass``) less c, with its tight edges and
    their split: shifting every weight by c leaves Howard's choices as
    they are.  Only the min side takes a pass of its own.
    """
    if phi.m != 1 or psi.m != 1:
        raise InvalidArgumentError("cohomology test applies to scalar potentials")
    if phi.sft != psi.sft:
        raise InvalidArgumentError("potentials live on different shifts")
    recoded = recode_to_one_step(phi.sft, max(phi.k, psi.k))
    exact = phi.mode == "exact" and psi.mode == "exact"
    w = [phi.value(b)[0] - psi.value(b)[0] if exact
         else float(phi.value(b)[0]) - float(psi.value(b)[0]) for b in recoded.states]
    c = _constant_shift(phi, psi, exact)
    if c is not None:
        hi = phi._pass[0] - c
    else:
        hi, hi_tight = _state_pass(recoded.n, recoded._split, w)[:2]
    neg_lo, lo_tight = _state_pass(recoded.n, recoded._split, [-x for x in w])[:2]
    lo = -neg_lo
    spread = float(hi - lo)
    if (lo == hi) if exact else (spread <= FLOAT_EQ_TOL):
        return CohomologyReport(True, hi if exact else (hi + lo) / 2, None,
                                spread > 0.0, spread)

    def segment(rec_edges):
        # the walk on the recurrent tight edges: only a witness splits them
        seg = tuple(recoded.states[v][0] for v in find_cycle(rec_edges))
        return min(seg[r:] + seg[:r] for r in range(len(seg)))

    hi_edges = phi._max_plus[1] if c is not None else _cyclic_components(hi_tight)[1]
    return CohomologyReport(False, None, (segment(_cyclic_components(lo_tight)[1]),
                                          segment(hi_edges)), False, spread)
