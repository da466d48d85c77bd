"""Atiyah-Bott localization: an Euler-character oracle for bundle expressions.

It shares no code with the engine's Littlewood-Richardson, Borel-Bott-Weil
or filtration code, and reads an expression only through its JSON form.

The diagonal torus acts on F(d_1, ..., d_s; V), V = k^n, and its fixed
points are the coordinate flags: ordered set partitions B_1, ..., B_(s+1)
of the coordinates with |B_j| = d_j - d_(j-1).  At such a flag W_(d_i) is
spanned by the coordinates in B_1 u ... u B_i, so a Schur functor of a
tautological bundle has the Schur polynomial of those coordinates as its
character, and the cotangent weights are t_a / t_b for a in B_i, b in B_j,
i < j.  The holomorphic Lefschetz formula gives

    chi(F, E)(t) = sum over fixed flags p of ch(E_p)(t) / prod (1 - t_a / t_b),

which is evaluated here in exact Fractions at points with distinct nonzero
coordinates.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def _det(rows) -> Fraction:
    a = [list(r) for r in rows]
    det = Fraction(1)
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            for c in range(i, len(a)):
                a[r][c] -= f * a[i][c]
    return det


@lru_cache(maxsize=None)
def schur_value(weight: tuple, xs: tuple) -> Fraction:
    """The character of Sigma^weight(k^m) at the torus point xs, by the
    bialternant det(x_i^(w_j + m - j)) / det(x_i^(m - j)); any weakly
    decreasing integer weight, negative entries included."""
    m = len(xs)
    num = _det([[Fraction(x) ** (weight[j] + m - 1 - j) for j in range(m)] for x in xs])
    den = _det([[Fraction(x) ** (m - 1 - j) for j in range(m)] for x in xs])
    return num / den


def character_value(terms, point) -> Fraction:
    """A character given as ((weight, mult), ...) of GL(V), at ``point``."""
    return sum((m * schur_value(tuple(w), tuple(point)) for w, m in terms), Fraction(0))


def _fixed_flags(sizes, coords):
    if not sizes:
        yield ()
        return
    for first in combinations(coords, sizes[0]):
        rest = [c for c in coords if c not in first]
        for tail in _fixed_flags(sizes[1:], rest):
            yield (first,) + tail


def _span(flag, kind, index) -> list:
    if kind == "sub":
        parts = flag[:index]
    elif kind == "quot":
        parts = flag[index:]
    else:
        parts = flag[index - 1 : index]
    return [c for part in parts for c in part]


@lru_cache(maxsize=None)
def _fixed_points(sizes: tuple, t: tuple) -> tuple:
    """(flag, prod (1 - t_a / t_b) over its cotangent weights) per fixed flag."""
    out = []
    for flag in _fixed_flags(sizes, list(range(len(t)))):
        denom = Fraction(1)
        for i in range(len(flag)):
            for j in range(i + 1, len(flag)):
                for a in flag[i]:
                    for b in flag[j]:
                        denom *= 1 - t[a] / t[b]
        out.append((flag, denom))
    return tuple(out)


def localized_euler(expr_json, point) -> Fraction:
    """The Euler character of the bundle expression ``expr_json`` (the
    JSON form of a BundleExpr) at the torus point ``point``."""
    n = expr_json["flag"]["n"]
    bounds = [0, *expr_json["flag"]["dims"], n]
    sizes = tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))
    t = tuple(Fraction(x) for x in point[:n])
    total = Fraction(0)
    for flag, denom in _fixed_points(sizes, t):
        fibre = Fraction(0)
        for term in expr_json["terms"]:
            value = Fraction(term["mult"])
            for f in term["factors"]:
                # Schur polynomials are symmetric: sorted coordinates share cache entries
                xs = tuple(sorted(t[c] for c in _span(flag, f["slot"], f["index"])))
                value *= schur_value(tuple(f["weight"]), xs)
            fibre += value
        total += fibre / denom
    return total
