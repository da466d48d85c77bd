"""Line-bundle cohomology on complete toric surfaces from the fan alone,
an oracle for ``flagcoh.toric`` that shares no code with it: it uses only
the standard library and imports nothing from ``flagcoh``.

For a torus-invariant divisor D = sum_i a_i D_i on the toric variety of a
complete fan, the cohomology splits by characters m of the torus, and
(Cox-Little-Schenck, *Toric Varieties*, Thm 9.1.3)

    H^p(O(D))_m = reduced H^(p-1)(V_{D,m}),

where V_{D,m} is the union, over the cones of the fan, of the convex hulls
of the cone's rays u_i with <m, u_i> < -a_i.  Reduced cohomology of the
empty set is one-dimensional in degree -1.  On a complete 2-dimensional
fan the rays go once round the origin, so V_{D,m} is a set of rays and of
the arcs between qualifying neighbours on a circle:
* no ray qualifies: V is empty and m adds one to H^0;
* every ray qualifies: V is the circle and m adds one to H^2;
* otherwise V is a disjoint union of arcs, each contractible, and m adds
  (components - 1) to H^1.
"""

from __future__ import annotations


def surface_cohomology(rays, coeffs, box) -> dict:
    """{degree: dimension} of H^*(O(sum_i coeffs[i] D_i)) on the toric
    surface whose complete fan has ``rays`` in cyclic order, summed over
    the characters m in ``box`` = (range of m_1, range of m_2).  Every m
    that contributes must lie in the box; degrees of dimension 0 are left
    out."""
    out: dict = {}
    for m1 in box[0]:
        for m2 in box[1]:
            degree, dim = character_cohomology(rays, coeffs, (m1, m2))
            if dim:
                out[degree] = out.get(degree, 0) + dim
    return out


def character_cohomology(rays, coeffs, m) -> tuple:
    """(degree, dimension) of the one nonzero H^p(O(D))_m, or (0, 0) when
    every degree vanishes at m."""
    qualify = [m[0] * u[0] + m[1] * u[1] < -a for u, a in zip(rays, coeffs)]
    if not any(qualify):
        return 0, 1
    if all(qualify):
        return 2, 1
    # components: qualifying rays whose predecessor in cyclic order does not
    components = sum(1 for i, q in enumerate(qualify) if q and not qualify[i - 1])
    return 1, components - 1


def hirzebruch_cohomology(a: int, x: int, y: int) -> dict:
    """{degree: dimension} of H^*(F_a, O(x F + y xi)), from the fan.

    The fan of F_a has rays u_1 = (1, 0), u_2 = (0, 1), u_3 = (-1, a) and
    u_4 = (0, -1), in cyclic order.  The character m = (1, 0) gives the
    relation D_1 - D_3 ~ 0 and m = (0, 1) gives D_2 + a D_3 - D_4 ~ 0, so
    * D_1 ~ D_3 = F: projecting onto the first coordinate maps the fan to
      that of P^1, and D_1, D_3 are the fibres over its two fixed points;
    * D_4 ~ D_2 + a F, and Pic F_a = Z D_1 + Z D_4.
    On a smooth complete toric surface u_(i-1) + u_(i+1) = -(D_i^2) u_i,
    and D_i meets only its two neighbours, once each.  At u_1:
    u_4 + u_2 = 0, so F^2 = 0; at u_4: u_3 + u_1 = (0, a) = -a u_4, so
    D_4^2 = a; and F.D_4 = 1.  The class xi of O_{P(E)}(1), E = O + O(a),
    has xi.F = 1 and xi^2 = a (the Riemann-Roch test's docstring derives
    both).  Writing xi = c F + e D_4 gives e = xi.F = 1 and
    xi^2 = 2c + a = a, so c = 0: xi = D_4, and D = x D_1 + y D_4, i.e.
    a_1 = x, a_2 = a_3 = 0, a_4 = y.

    The box of characters.  Ray i qualifies at m when
        u_1: m_1 < -x,  u_2: m_2 < 0,  u_3: m_1 > a m_2,  u_4: m_2 > y.
    Some m contributes only when V is empty, the circle, or two opposite
    rays ({1, 3} or {2, 4}, the only disconnected subsets of a 4-cycle):
    * empty: 0 <= m_2 <= y and -x <= m_1 <= a m_2;
    * circle: y < m_2 < 0 and a m_2 < m_1 < -x;
    * {1, 3}: 0 <= m_2 <= y and a m_2 < m_1 < -x;
    * {2, 4}: y < m_2 < 0 and -x <= m_1 <= a m_2.
    In each case |m_2| <= |y| and m_1 lies between -x and a m_2, so
    |m_1| <= |x| + a |y| (a >= 0).  That box holds every contribution.
    """
    rays = ((1, 0), (0, 1), (-1, a), (0, -1))
    r1, r2 = abs(x) + a * abs(y), abs(y)
    return surface_cohomology(rays, (x, 0, 0, y), (range(-r1, r1 + 1), range(-r2, r2 + 1)))
