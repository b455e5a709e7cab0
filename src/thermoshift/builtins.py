"""Named ready-to-run configurations.

Small registry of shifts and potentials used throughout the docs and the
command line.  Every potential knows its own shift, so
``get_potential("hubmax")`` is a complete input for classification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .core_sft import Sft, recode_to_one_step
from .errors import InvalidArgumentError

if TYPE_CHECKING:
    from .potential import PotentialLC

# -- shifts -----------------------------------------------------------------

_TRI6_ROWS = (
    (1, 1, 1, 0, 0, 0),
    (1, 1, 1, 0, 0, 0),
    (1, 1, 1, 1, 1, 1),
    (0, 0, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 1),
    (1, 1, 1, 1, 1, 1),
)

# Three free blocks {0,1}, {2,3,4}, {5} glued through the hub symbol 6.
_KINK7_ROWS = (
    (1, 1, 0, 0, 0, 0, 1),
    (1, 1, 0, 0, 0, 0, 1),
    (0, 0, 1, 1, 1, 0, 1),
    (0, 0, 1, 1, 1, 0, 1),
    (0, 0, 1, 1, 1, 0, 1),
    (0, 0, 0, 0, 0, 1, 1),
    (1, 1, 1, 1, 1, 1, 0),
)

_SHIFTS = {
    "full2": (lambda: Sft.full(2), "full shift on 2 symbols"),
    "full3": (lambda: Sft.full(3), "full shift on 3 symbols"),
    "golden": (lambda: Sft.from_matrix([[1, 1], [1, 0]]),
               "golden-mean shift: 2 symbols, 11 forbidden"),
    "hub3": (lambda: Sft.from_matrix([[1, 0, 1], [0, 1, 1], [1, 1, 1]]),
             "3 symbols, two loops joined through a hub; entropy log(1+sqrt 2)"),
    "tri6": (lambda: Sft.from_matrix(_TRI6_ROWS),
             "6 symbols, two 3-blocks bridged by symbols 2 and 5"),
    "kink7": (lambda: Sft.from_matrix(_KINK7_ROWS),
              "three disjoint sub-shifts (sizes 2, 3, 1) glued via hub symbol 6"),
}


def shift_names() -> tuple[str, ...]:
    return tuple(sorted(_SHIFTS))


def get_shift(name: str) -> Sft:
    try:
        factory, _ = _SHIFTS[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown shift '{name}'; builtins: {', '.join(shift_names())}") from None
    return factory()


# -- scalar window-2 potentials, given as d x d block-value tables ----------

_SCALAR_TABLES = {
    # full 2-shift: the classification landscape of window-2 potentials
    "fix0": ("full2", [[1, 0], [0, 0]],
             "fixed point 0 dominant; limit is the point mass on 0^inf"),
    "fix1": ("full2", [[0, 0], [0, 1]],
             "fixed point 1 dominant; limit is the point mass on 1^inf"),
    "alt01": ("full2", [[0, 2], [2, 0]],
              "alternating orbit 01 dominant; limit is the period-2 orbit measure"),
    "cob1": ("full2", [[1, 3], [-1, 1]],
             "all cycle means equal 1; cohomologous to a constant, limit Bernoulli(1/2)"),
    "gold0": ("full2", [[2, 3], [1, 0]],
              "tie between loop 0 and orbit 01; limit is the golden-mean Parry measure"),
    "gold1": ("full2", [[0, 1], [3, 2]],
              "mirror of gold0 with symbol 1 in the loop"),
    "twofix": ("full2", [[1, 0], [0, 1]],
               "symmetric tie between both fixed points; limit has coefficients (1/2,1/2)"),
    "twofix_skew": ("full2", [[2, 1], [-1, 2]],
                    "asymmetric off-diagonal values, same tie between the fixed points"),
    # full 3-shift
    "hubmax": ("full3", [[2, 0, 2], [0, 2, 2], [2, 2, 2]],
               "maximizing subshift is the hub3 graph; limit is its Parry measure"),
    "threefix_a": ("full3", [[4, 0, 0], [1, 4, 0], [1, 0, 4]],
                   "three tied fixed points, limit coefficients (1/2,1/4,1/4)"),
    "threefix_b": ("full3", [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
                   "three tied fixed points, fully symmetric, coefficients (1/3,1/3,1/3)"),
    "threefix_c": ("full3", [[4, 0, 0], [1, 4, 0], [0, 0, 4]],
                   "three tied fixed points, one starved: coefficients (1/2,1/2,0)"),
}


def _triangle_potential() -> PotentialLC:
    """Two-coordinate window-2 potential on tri6 whose rotation set is the
    triangle with vertices (0,0), (1,0), (1/2,1)."""
    from .potential import PotentialLC
    sft = get_shift("tri6")
    low = {(0, 0), (0, 1), (1, 0), (4, 4)}
    right = {(3, 3), (3, 4), (4, 3), (1, 1)}
    vals = {}
    for blk in recode_to_one_step(sft, 2).states:
        if blk in low:
            vals[blk] = (Fraction(0), Fraction(0))
        elif blk in right:
            vals[blk] = (Fraction(1), Fraction(0))
        else:
            vals[blk] = (Fraction(1, 2), Fraction(1))
    return PotentialLC.from_block_values(sft, 2, vals, m=2)


def _kink_potential() -> PotentialLC:
    """Two-coordinate window-2 potential on kink7.  The bottom face of its
    rotation set carries three point components at first coordinates 0, 1/2
    and 1 with entropies log 2, log 3 and 0, so the boundary entropy curve
    has a corner at 1/2."""
    from .potential import PotentialLC
    sft = get_shift("kink7")
    half = Fraction(1, 2)
    vals = {}
    for blk in recode_to_one_step(sft, 2).states:
        if 6 in blk:
            vals[blk] = (half, Fraction(1))
        elif set(blk) <= {0, 1}:
            vals[blk] = (Fraction(0), Fraction(0))
        elif set(blk) <= {2, 3, 4}:
            vals[blk] = (half, Fraction(0))
        else:  # only (5,5) remains
            vals[blk] = (Fraction(1), Fraction(0))
    return PotentialLC.from_block_values(sft, 2, vals, m=2)


_VECTOR_BUILDERS = {
    "trivec": (_triangle_potential, "tri6",
               "rotation-set triangle (0,0),(1,0),(1/2,1); flat bottom face"),
    "kinkvec": (_kink_potential, "kink7",
                "bottom-face entropy envelope with a single corner at 1/2"),
}


def potential_names() -> tuple[str, ...]:
    return tuple(sorted(set(_SCALAR_TABLES) | set(_VECTOR_BUILDERS)))


def get_potential(name: str) -> PotentialLC:
    if name in _SCALAR_TABLES:
        from .potential import PotentialLC     # the shift commands never need it
        shift_name, table, _ = _SCALAR_TABLES[name]
        return PotentialLC.from_matrix(get_shift(shift_name), table)
    if name in _VECTOR_BUILDERS:
        builder, _, _ = _VECTOR_BUILDERS[name]
        return builder()
    raise InvalidArgumentError(
        f"unknown potential '{name}'; builtins: {', '.join(potential_names())}")


def potential_shift_name(name: str) -> str:
    """Name of the shift a builtin potential lives on."""
    if name in _SCALAR_TABLES:
        return _SCALAR_TABLES[name][0]
    if name in _VECTOR_BUILDERS:
        return _VECTOR_BUILDERS[name][1]
    raise InvalidArgumentError(f"unknown potential '{name}'")


def builtin_summary() -> str:
    """Human-readable listing for --help and error messages."""
    lines = ["shifts:"]
    for name in shift_names():
        lines.append(f"  {name:12s} {_SHIFTS[name][1]}")
    lines.append("potentials:")
    for name in potential_names():
        if name in _SCALAR_TABLES:
            shift_name, _, desc = _SCALAR_TABLES[name]
        else:
            _, shift_name, desc = _VECTOR_BUILDERS[name]
        lines.append(f"  {name:12s} on {shift_name}: {desc}")
    return "\n".join(lines)
