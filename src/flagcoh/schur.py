"""Rational Schur functor calculus for GL_m.

Littlewood-Richardson products are computed by direct enumeration of
horizontal-strip chains with the lattice-word condition, so every
coefficient is an exact nonnegative integer.  Weights with negative
entries are handled through the determinant shift
Sigma^(chi + k*(1^m)) = Sigma^chi (x) det^k.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .weights import _check_keys, _ints, _json_list, is_weakly_decreasing, strict_int


def _strip_zeros(p: Sequence[int]) -> tuple:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _is_partition(p: Sequence[int]) -> bool:
    return all(x >= 0 for x in p) and is_weakly_decreasing(p)


def pad(p: Sequence[int], m: int) -> tuple:
    if len(p) > m:
        raise ValueError("weight longer than rank")
    return tuple(p) + (0,) * (m - len(p))


class CharacterSum:
    """A finite integer combination of dominant GL_m weights.

    Keys are full-length (rank m) weakly decreasing tuples; zero
    multiplicities are never stored.  Negative multiplicities are allowed
    (virtual characters / Euler characteristics).
    """

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        self._terms = {}
        if terms:
            for w, m in terms.items():
                self.add_term(w, m)

    def add_term(self, weight: Sequence[int], mult: int):
        w = tuple(weight)
        if len(w) != self.rank:
            raise ValueError("weight %r does not have rank %d" % (w, self.rank))
        if not is_weakly_decreasing(w):
            raise ValueError("weight %r is not weakly decreasing" % (w,))
        m = self._terms.get(w, 0) + mult
        if m:
            self._terms[w] = m
        else:
            self._terms.pop(w, None)

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def __iter__(self):
        return iter(self.items())

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __getitem__(self, weight) -> int:
        return self._terms.get(tuple(weight), 0)

    def __eq__(self, other):
        return (
            isinstance(other, CharacterSum)
            and self.rank == other.rank
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self._terms.items())))

    def __add__(self, other: "CharacterSum") -> "CharacterSum":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = CharacterSum(self.rank, dict(self._terms))
        for w, m in other._terms.items():
            out.add_term(w, m)
        return out

    def scale(self, c: int) -> "CharacterSum":
        if c == 0:
            return CharacterSum(self.rank)
        return CharacterSum(self.rank, {w: c * m for w, m in self._terms.items()})

    def dimension(self) -> int:
        return sum(m * schur_dim(w, self.rank) for w, m in self._terms.items())

    def __repr__(self):
        return "CharacterSum(%d, %r)" % (self.rank, dict(self.items()))

    def to_json(self) -> list:
        return [{"weight": list(w), "mult": m} for w, m in self.items()]

    @classmethod
    def from_json(cls, data: Iterable[dict], rank: int) -> "CharacterSum":
        out = cls(rank)
        for entry in _json_list(data, "a character"):
            _check_keys(entry, ("weight", "mult"), "character term")
            out.add_term(_ints(entry["weight"], "a weight"), strict_int(entry["mult"]))
        return out


@lru_cache(maxsize=None)
def _lr_raw(mu: tuple, nu: tuple, bound: tuple) -> tuple:
    """All (lambda, c^lambda_{mu,nu}) with lambda contained in ``bound``.

    Enumerates chains mu = p^0 < p^1 < ... < p^k = lambda where each
    p^i / p^(i-1) is a horizontal strip of size nu_i subject to the
    lattice-word condition: the cumulative strip-i cells in rows <= r
    never exceed the cumulative strip-(i-1) cells in rows <= r-1.

    Shapes only grow along a chain, so a chain ending inside the partition
    ``bound`` stays inside it throughout: a strip adds at most
    bound[r] - p[r] cells to row r and opens no row at index len(bound)
    or beyond.  The cut is exact, and it is the pruning of the skew
    enumeration in Buch's lrcalc
    (https://sites.math.rutgers.edu/~asbuch/lrcalc/).  ``mu`` must be
    contained in ``bound``.
    """
    mu = _strip_zeros(mu)
    nu = _strip_zeros(nu)
    if len(mu) > len(bound) or any(x > b for x, b in zip(mu, bound)):
        raise ValueError("%r is not contained in the bound %r" % (mu, bound))
    results: dict[tuple, int] = {}

    def rec_letters(i, shape, prev_strip):
        if i == len(nu):
            lam = _strip_zeros(shape)
            results[lam] = results.get(lam, 0) + 1
            return
        target = nu[i]
        nrows = min(len(shape) + 1, len(bound))
        strip = [0] * nrows

        def rec(row, remaining, cum_i, cum_prev):
            # cum_prev counts (i-1)-strip cells in rows < row
            if remaining == 0:
                new_shape = [
                    (shape[r] if r < len(shape) else 0) + strip[r]
                    for r in range(nrows)
                ]
                while new_shape and new_shape[-1] == 0:
                    new_shape.pop()
                rec_letters(i + 1, tuple(new_shape), tuple(strip))
                return
            if row >= nrows:
                return
            old_here = shape[row] if row < len(shape) else 0
            max_add = min(remaining, bound[row] - old_here)
            if row >= 1:
                # horizontal strip: new row length <= old length of row above
                max_add = min(max_add, shape[row - 1] - old_here)
            if i > 0:
                # lattice word: cumulative i-cells through this row bounded by
                # cumulative (i-1)-cells through the row above
                max_add = min(max_add, cum_prev - cum_i)
            if max_add < 0:
                return
            prev_here = prev_strip[row] if row < len(prev_strip) else 0
            for add in range(max_add, -1, -1):
                strip[row] = add
                rec(row + 1, remaining - add, cum_i + add, cum_prev + prev_here)
            strip[row] = 0

        rec(0, target, 0, 0)

    rec_letters(0, mu, ())
    return tuple(sorted(results.items()))


def lr_coefficients(mu: Sequence[int], nu: Sequence[int], rank: int) -> CharacterSum:
    """Littlewood-Richardson decomposition of Sigma^mu (x) Sigma^nu at GL_rank.

    Partitions with more than ``rank`` parts are never enumerated.
    """
    mu_t = _strip_zeros(mu)
    nu_t = _strip_zeros(nu)
    if not (_is_partition(mu) and _is_partition(nu)):
        raise ValueError("lr_coefficients requires partitions")
    if len(mu_t) > rank or len(nu_t) > rank:
        raise ValueError("partition length exceeds rank")
    return tensor_schur(pad(mu_t, rank), pad(nu_t, rank), rank)


@lru_cache(maxsize=None)
def _tensor_terms(a: tuple, b: tuple, rank: int) -> tuple:
    """Sigma^a (x) Sigma^b at GL_rank as ((weight, mult), ...), weights
    descending: the one Littlewood-Richardson product.  Both weights must
    be full length and weakly decreasing; negative entries are absorbed
    into a determinant twist before the LR step and restored afterwards.
    The enumeration adds the factor with fewer cells as strips, since
    c^lam_{mu nu} = c^lam_{nu mu} and both factors lie in the box."""
    for w in (a, b):
        if len(w) != rank or not is_weakly_decreasing(w):
            raise ValueError("weight %r is not weakly decreasing of length %d" % (w, rank))
    ka = max(0, -min(a, default=0))
    kb = max(0, -min(b, default=0))
    mu = _strip_zeros([x + ka for x in a])
    nu = _strip_zeros([x + kb for x in b])
    if sum(nu) > sum(mu):
        mu, nu = nu, mu
    width = (mu[0] if mu else 0) + (nu[0] if nu else 0)
    return tuple(
        (tuple(x - ka - kb for x in pad(lam, rank)), c)
        for lam, c in reversed(_lr_raw(mu, nu, (width,) * rank))
    )


def tensor_schur(a: Sequence[int], b: Sequence[int], rank: int) -> CharacterSum:
    """``_tensor_terms`` as a fresh CharacterSum, so no caller can alter
    the cache."""
    return CharacterSum(rank, dict(_tensor_terms(tuple(a), tuple(b), rank)))


@lru_cache(maxsize=None)
def schur_dim(lam: tuple, m: int) -> int:
    """Dimension of Sigma^lam(k^m) by the Weyl dimension formula."""
    lam = tuple(lam)
    if len(lam) != m:
        raise ValueError("weight must have full length %d" % m)
    if not is_weakly_decreasing(lam):
        raise ValueError("weight must be weakly decreasing")
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError("Weyl dimension of %r is not an integer" % (lam,))
    return dim
