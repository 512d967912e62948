"""Closed-form lower and upper bounds for rook coverings and packings.

Counting bounds are exact (ints / Fractions); the analytic constants
are binary64 floats good to about 1e-12 relative error.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (GridParams, InvalidArgument, RookError, _Frozen, _set,  # noqa: F401
                   _smallest_factor, is_prime)


class NotApplicable(RookError):
    pass


class DomainError(RookError):
    pass


def sphere_packing_bounds(g: GridParams) -> tuple:
    """(ceil(n^k / (l(n-1)+1)), n^(k-1)): volume lower bound and the
    first-coordinate-zero covering upper bound."""
    lower = -((-g.num_points) // g.ball)
    upper = g.n ** (g.k - 1)
    return lower, upper


def singleton_bound_b(g: GridParams) -> Fraction:
    """Axis-line counting bound on packings: k n^(k-1) / l."""
    return Fraction(g.k * g.n ** (g.k - 1), g.l)


def incidence_bound_b(g: GridParams) -> Fraction:
    """(Line, point) clique bound on packings: k n^k / (l(n-1) + k).

    The placements at a point q and the placements attacking along the
    axis-a line through q pairwise conflict, so each of these k n^k
    cliques holds at most one rook of a packing, and every rook lies in
    exactly l(n-1) + k of them.  Below singleton_bound_b when l < k and
    equal to it when l = k, as their ratio is l n / (l(n-1) + k).
    """
    return Fraction(g.k * g.num_points, g.l * (g.n - 1) + g.k)


def hypercube_bound_b(g: GridParams) -> int:
    """Huang's bound on packings of the hypercube: 2^(k-1) when n = 2 and
    (k-l)^2 < k.

    At n = 2 the points are the vertices of the k-cube Q_k, and a rook
    attacks the neighbour across each of its l axes, so the points of a
    packing induce a subgraph of maximum degree at most k - l.  Every
    induced subgraph of Q_k on 2^(k-1) + 1 vertices has maximum degree at
    least sqrt(k) (H. Huang, Induced subgraphs of hypercubes and a proof
    of the Sensitivity Conjecture, Annals of Math. 190, 2019), so a
    packing has at most 2^(k-1) rooks once k - l < sqrt(k).
    """
    if g.n != 2 or (g.k - g.l) ** 2 >= g.k:
        raise NotApplicable("the hypercube bound needs n = 2 and (k-l)^2 < k")
    return 2 ** (g.k - 1)


def singleton_bound_c(g: GridParams) -> Fraction:
    """Plane counting bound on two-packings: C(k,2) n^(k-2) / C(l,2).

    Undefined for l = 1 (a 1-rook spans no plane).
    """
    if g.l < 2:
        raise NotApplicable("two-packing plane bound needs l >= 2")
    return Fraction(math.comb(g.k, 2) * g.n ** (g.k - 2), math.comb(g.l, 2))


def sphere_bound_c(g: GridParams) -> int:
    """Sphere bound on closed two-packings: n^k // (l(n-1)+1), since their
    closed coverage sets are pairwise disjoint."""
    return g.num_points // g.ball


def rodemich_max_coverage(N: int, n: int, k: int) -> Fraction:
    """Amortized coverage bound: N full rooks cover at most
    kNn - (k-1)N^2 / n^(k-2) points.  Raw formula, not clamped to n^k, and
    a bound for N <= n^(k-1) only: past that it falls below n^k, which
    n^(k-1) rooks already cover."""
    if N < 0 or n < 1 or k < 1:
        raise InvalidArgument("need N >= 0, n >= 1, k >= 1")
    return Fraction(k * N * n) - Fraction((k - 1) * N * N * n * n, n ** k)


def covering_lower(g: GridParams) -> tuple:
    """(bound, name): the larger of the sphere bound ceil(n^k / ball) and
    Rodemich's ceil(n^(k-1) / (k-1)), the least N whose
    rodemich_max_coverage reaches n^k (E. R. Rodemich, Coverings by rook
    domains, J. Combin. Theory A 9, 1970), for k >= 2; the sphere bound
    on ties.  Rodemich's holds for every l, since an l-rook covers part
    of what the k-rook at its point does, and before rounding it is the
    larger once l(n-1) + 1 > n(k-1)."""
    sphere = sphere_packing_bounds(g)[0]
    if g.k >= 2 and (rodemich := -(-(g.n ** (g.k - 1)) // (g.k - 1))) > sphere:
        return rodemich, "rodemich"
    return sphere, "sphere"


def improved_covering_lower_bound(k: int, l: int) -> float:
    """Asymptotic covering density lower bound
    2 / (l (1 + sqrt(1 - 4(l-1)/(l^2 C(k,l))))).

    Simplifies to 1/(k-1) when l = k, and tends to 1/l as k grows.
    """
    if l < 2:
        raise NotApplicable("the improved lower bound needs l >= 2")
    if l > k:
        raise InvalidArgument("need l <= k")
    inner = 1.0 - 4.0 * (l - 1) / (l * l * math.comb(k, l))
    return 2.0 / (l * (1.0 + math.sqrt(inner)))


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = _smallest_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def largest_prime_power(k: int) -> int:
    """f(k): the largest prime power <= k."""
    if k < 2:
        raise NotApplicable("no prime power below 2")
    q = k
    while not is_prime_power(q):
        q -= 1
    return q


def prime_power_upper_bound(k: int, l: int) -> Fraction:
    """Covering density upper bound ceil(f(k)/l) / (f(k)-1) built from
    diagonal-slab blocks tiled by a perfect covering code."""
    if k < 2:
        raise NotApplicable("need k >= 2")
    f = largest_prime_power(k)
    if f < l:
        raise NotApplicable(f"largest prime power {f} below arity {l}")
    return Fraction(-((-f) // l), f - 1)


# best known bracket for the 2-rook covering density of the cube
A32_LOWER = (9.0 - 3.0 * math.sqrt(5.0)) / 4.0
A32_UPPER = 1.0 / math.sqrt(2.0)


def a32_profile(t: float) -> float:
    """Plane-budget profile used in the lower-bound argument for the
    3-dimensional 2-rook covering density; decreasing on (0, 0.4) and
    equal to (9 - 3 sqrt 5)/4 at t = 2/3 of that value."""
    if not 0.0 < t < 0.4:
        raise DomainError(f"profile defined on (0, 0.4), got {t}")
    return (
        t / 2.0
        + 1.0
        - t * (1.0 + t) / (2.0 * (1.0 - t))
        - (1.0 - t / (1.0 - t)) * math.sqrt(t)
        + t * t / (2.0 * (2.0 - t))
    )


class BoundReport(_Frozen):
    """All closed-form bounds applicable to one instance, plus the
    asymptotic-density constants for its (k, l).  a_lower is
    covering_lower's bound and a_lower_by its name."""

    __slots__ = _fields = ("a_lower", "a_lower_by", "a_upper", "b_upper", "b_incidence",
                           "b_hypercube", "c_upper", "c_sphere", "asymptotic")

    def __init__(self, a_lower: int, a_lower_by: str, a_upper: int, b_upper: Fraction,
                 b_incidence: Fraction, b_hypercube: int | None, c_upper: Fraction | None,
                 c_sphere: int | None, asymptotic: dict):
        for name, value in zip(self._fields, (a_lower, a_lower_by, a_upper, b_upper, b_incidence,
                                              b_hypercube, c_upper, c_sphere, asymptotic)):
            _set(self, name, value)


def bound_report(g: GridParams) -> BoundReport:
    a_lower, a_lower_by = covering_lower(g)
    c_upper = singleton_bound_c(g) if g.l >= 2 else None
    c_sphere = sphere_bound_c(g) if g.l >= 2 else None
    try:
        b_hypercube = hypercube_bound_b(g)
    except NotApplicable:
        b_hypercube = None

    asym = {}
    if g.l >= 2:
        asym["a_lower_const"] = improved_covering_lower_bound(g.k, g.l)
    else:
        asym["a_lower_const"] = 1.0  # l=1 coverings pin the density at 1
    uppers = [1.0]
    try:
        uppers.append(float(prime_power_upper_bound(g.k, g.l)))
    except NotApplicable:
        pass
    if (g.k, g.l) == (3, 2):
        uppers.append(A32_UPPER)
    asym["a_upper_const"] = min(uppers)
    asym["b_upper_const"] = Fraction(g.k, g.l)
    asym["b_lower_const"] = g.k // g.l
    if g.l >= 2:
        asym["c_upper_const"] = Fraction(math.comb(g.k, 2), math.comb(g.l, 2))

    return BoundReport(
        a_lower=a_lower,
        a_lower_by=a_lower_by,
        a_upper=sphere_packing_bounds(g)[1],
        b_upper=singleton_bound_b(g),
        b_incidence=incidence_bound_b(g),
        b_hypercube=b_hypercube,
        c_upper=c_upper,
        c_sphere=c_sphere,
        asymptotic=asym,
    )
