"""Integer weight combinatorics for GL_n: rho, dual weights, and the
Borel-Bott-Weil resolution of a weight into (degree, dominant weight) or
vanishing.

Weights are plain tuples of Python ints, so there is no overflow concern
and every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Weight = tuple  # tuple[int, ...]


def rho(n: int) -> tuple:
    """Half the sum of the positive roots for GL_n: (n, n-1, ..., 1)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return tuple(range(n, 0, -1))


def dual_weight(chi: Sequence[int]) -> tuple:
    """Reversed negation: the highest weight of the dual representation."""
    return tuple(-c for c in reversed(chi))


class InputError(ValueError):
    """Malformed or unsupported input.  Only this (and a file that cannot
    be read) is reported as an input error; any other exception raised
    during a run is an engine fault."""


def strict_int(value) -> int:
    """An integer read from JSON input.  Booleans, floats and strings are
    rejected rather than coerced, so 1.5 is never read as 1."""
    if type(value) is not int:
        raise InputError("expected an integer, got %r" % (value,))
    return value


def is_weakly_decreasing(v: Sequence[int]) -> bool:
    return list(v) == sorted(v, reverse=True)


@dataclass(frozen=True)
class BBWResolution:
    """Outcome of resolving a weight: either singular (all cohomology
    vanishes) or concentrated in a single degree with a dominant weight."""

    singular: bool
    degree: int | None = None
    dominant: tuple | None = None

    def __post_init__(self):
        if not self.singular:
            n = len(self.dominant)
            if not 0 <= self.degree <= n * (n - 1) // 2:
                raise ValueError("BBW degree %r out of range for rank %d" % (self.degree, n))


def _inversions(v: Sequence[int]) -> int:
    # pairs out of order relative to strictly decreasing target
    count = 0
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if v[i] < v[j]:
                count += 1
    return count


def bbw_resolve(chi: Sequence[int]) -> BBWResolution:
    """Resolve chi via Borel-Bott-Weil.

    If chi + rho has a repeated entry the weight is singular and all
    cohomology vanishes.  Otherwise there is a unique permutation sorting
    chi + rho into strictly decreasing order; the cohomology sits in the
    degree equal to its inversion count, with dominant weight
    sorted(chi + rho) - rho.
    """
    n = len(chi)
    r = rho(n)
    shifted = tuple(c + rr for c, rr in zip(chi, r))
    if len(set(shifted)) < n:
        return BBWResolution(singular=True)
    degree = _inversions(shifted)
    dominant = tuple(s - rr for s, rr in zip(sorted(shifted, reverse=True), r))
    return BBWResolution(singular=False, degree=degree, dominant=dominant)
