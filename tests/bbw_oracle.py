"""A Borel-Bott-Weil oracle for GL_n weights.

It imports nothing from flagcoh, so it shares no code with the engine's
Borel-Bott-Weil: it sorts chi + rho and counts the pairs out of order one
by one, where the engine counts them by bisection.
"""


def naive_bbw(chi):
    """``None`` when chi + rho repeats an entry (all cohomology vanishes),
    otherwise (degree, dominant): the number of pairs i < j with
    (chi + rho)_i < (chi + rho)_j, and sorted(chi + rho) - rho, with
    rho = (n, n-1, ..., 1)."""
    n = len(chi)
    rho = range(n, 0, -1)
    shifted = [c + r for c, r in zip(chi, rho)]
    if len(set(shifted)) < n:
        return None
    degree = sum(shifted[i] < shifted[j] for i in range(n) for j in range(i + 1, n))
    return degree, tuple(s - r for s, r in zip(sorted(shifted, reverse=True), rho))
