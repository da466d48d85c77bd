"""Integer weight combinatorics for GL_n: dual weights, the strict readers
of JSON input that every ``from_json`` shares, and Borel-Bott-Weil, which
resolves a weight into (degree, dominant weight) or vanishing.

``_bbw_flat`` is the package's one Borel-Bott-Weil: both cohomology
routes resolve their pieces through it, and ``bbw_resolve`` is it read on
blocks of rank 1.  It is pure weight combinatorics, so it lives here and
``cohomology`` imports it.  It keeps nothing: the stepwise route keeps
its fibres' answers in its per-call table, and the one-shot route's
pieces rarely repeat.

Weights are plain tuples of Python ints, so there is no overflow concern
and every operation here is pure.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Sequence


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


def _check_keys(obj, keys: tuple, what: str, optional: tuple = ()):
    """Reject an ``obj`` read from JSON that is not an object, that lacks
    one of ``keys`` or that has a key other than ``keys`` and
    ``optional``; ``what`` names it in the message."""
    if not isinstance(obj, dict):
        raise InputError("a %s must be a JSON object" % what)
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InputError("missing key %s in a %s" % (", ".join(map(repr, missing)), what))
    unknown = sorted(set(obj) - set(keys) - set(optional))
    if unknown:
        raise InputError("unknown key %s in a %s" % (", ".join(map(repr, unknown)), what))


def _json_list(value, what: str) -> list:
    """``value`` read from JSON, which must be a list: an object is never
    read as an empty list."""
    if not isinstance(value, list):
        raise InputError("%s must be a JSON list, got %r" % (what, value))
    return value


def _ints(value, what: str) -> tuple:
    """A JSON list of integers as a tuple, each read by ``strict_int``."""
    return tuple(map(strict_int, _json_list(value, what)))


def is_weakly_decreasing(v: Sequence[int]) -> bool:
    return list(v) == sorted(v, reverse=True)


def _bbw_flat(weights: tuple, sizes: tuple) -> tuple | None:
    """Borel-Bott-Weil for Sigma^w_1 (x) ... (x) Sigma^w_k of the consecutive
    quotients of a filtration of V with ranks ``sizes``, the w_j
    concatenated in the flat vector ``weights``: ``None`` (vanishes) or
    (degree, dominant GL(V) weight w) meaning H^degree = Sigma^w(V).

    Everything is read straight off the flat piece: chi is each block's
    dual (the block reversed and negated), chi + rho is singular when an
    entry repeats, the degree is the number of pairs i < j with
    (chi + rho)_i < (chi + rho)_j, counted by bisection, and w is the dual
    of sorted(chi + rho) - rho, that is (k + 1 - s_k) over the entries s_k
    of chi + rho in increasing order."""
    n = len(weights)
    chi: list = []
    stop = 0
    for b in sizes:  # each block's dual: reversed within the block, negated
        start, stop = stop, stop + b
        chi += reversed(weights[start:stop])
    shifted = [n - k - x for k, x in enumerate(chi)]  # chi + rho
    if len(set(shifted)) < n:
        return None
    seen: list = []
    degree = 0
    for v in shifted:
        degree += bisect_left(seen, v)
        insort(seen, v)
    if not 0 <= degree <= n * (n - 1) // 2:
        raise RuntimeError("BBW degree %r out of range for rank %d" % (degree, n))
    return degree, tuple(k + 1 - x for k, x in enumerate(seen))


def bbw_resolve(chi: Sequence[int]) -> tuple | None:
    """Resolve the GL_n weight chi via Borel-Bott-Weil: ``None`` when
    chi + rho has a repeated entry (singular: all cohomology vanishes),
    otherwise (degree, dominant), where the degree is the number of pairs
    out of order in chi + rho and dominant is sorted(chi + rho) - rho.

    It is ``_bbw_flat`` on blocks of rank 1, where each block's dual is
    its negation: ``_bbw_flat`` is given -chi and its weight, the dual of
    the dominant weight, is dualized back."""
    res = _bbw_flat(tuple(-c for c in chi), (1,) * len(chi))
    return None if res is None else (res[0], dual_weight(res[1]))
