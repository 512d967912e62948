"""Closed-form bounds and asymptotic constants."""

import math
from fractions import Fraction

import pytest

from rookpack.core import GridParams, InvalidArgument
from rookpack.bounds import (
    A32_LOWER,
    A32_UPPER,
    DomainError,
    NotApplicable,
    a32_profile,
    bound_report,
    covering_lower,
    hypercube_bound_b,
    improved_covering_lower_bound,
    is_prime,
    is_prime_power,
    largest_prime_power,
    prime_power_upper_bound,
    rodemich_max_coverage,
    singleton_bound_b,
    singleton_bound_c,
    sphere_bound_c,
    sphere_packing_bounds,
)
from rookpack.oracles import enumerate_max_packing, enumerate_max_two_packing


def test_sphere_packing_examples():
    assert sphere_packing_bounds(GridParams(3, 3, 2)) == (6, 9)
    for n, k in [(2, 2), (3, 3), (4, 2)]:
        lo, hi = sphere_packing_bounds(GridParams(n, k, 1))
        assert lo == hi == n ** (k - 1)
    assert sphere_packing_bounds(GridParams(1, 3, 1)) == (1, 1)


def test_singleton_b():
    assert singleton_bound_b(GridParams(3, 3, 2)) == Fraction(27, 2)
    assert singleton_bound_b(GridParams(4, 3, 3)) == 16  # l = k
    assert singleton_bound_b(GridParams(3, 4, 2)) == 54


def test_singleton_c():
    assert singleton_bound_c(GridParams(3, 3, 2)) == 9
    assert singleton_bound_c(GridParams(5, 3, 3)) == 5
    assert singleton_bound_c(GridParams(7, 2, 2)) == 1
    with pytest.raises(NotApplicable):
        singleton_bound_c(GridParams(3, 3, 1))


def test_hypercube_bound_b():
    assert hypercube_bound_b(GridParams(2, 7, 5)) == 64
    assert hypercube_bound_b(GridParams(2, 1, 1)) == 1
    # n = 2 with (k-l)^2 < k only: (2,4,2) and (2,7,4) sit on the edge
    for n, k, l in [(3, 3, 2), (2, 4, 2), (2, 7, 4), (2, 3, 1)]:
        with pytest.raises(NotApplicable):
            hypercube_bound_b(GridParams(n, k, l))
    # the oracle never beats it, and meets it on these cubes
    for k, l in [(1, 1), (2, 2), (2, 1), (3, 3), (3, 2), (4, 4), (4, 3)]:
        g = GridParams(2, k, l)
        assert enumerate_max_packing(g) == hypercube_bound_b(g), g


def test_sphere_bound_c():
    # closed coverage sets of a two-packing are disjoint, ball points each
    assert sphere_bound_c(GridParams(3, 3, 2)) == 27 // 5
    assert sphere_bound_c(GridParams(3, 4, 2)) == 16 < singleton_bound_c(GridParams(3, 4, 2))
    for n, k, l in [(2, 3, 2), (3, 3, 2), (2, 4, 3), (3, 2, 2), (2, 4, 4)]:
        g = GridParams(n, k, l)
        assert enumerate_max_two_packing(g, "closed") <= sphere_bound_c(g), g


def test_rodemich():
    assert rodemich_max_coverage(1, 3, 2) == 5
    assert rodemich_max_coverage(3, 3, 2) == 9
    assert rodemich_max_coverage(0, 4, 3) == 0
    # exact rational, no clamping
    assert rodemich_max_coverage(5, 3, 2) == Fraction(30 - 25)
    assert rodemich_max_coverage(3, 4, 3) == Fraction(63, 2)
    # at k = 1 the second term vanishes: N rooks on one line count N n
    for N, n in [(0, 1), (1, 1), (1, 5), (3, 4), (7, 2)]:
        assert rodemich_max_coverage(N, n, 1) == N * n
    for args in ((-1, 2, 2), (1, 0, 2)):
        with pytest.raises(InvalidArgument):
            rodemich_max_coverage(*args)


def test_covering_lower():
    # Rodemich's n^(k-1) / (k-1) wins once l(n-1) + 1 > n(k-1)
    assert covering_lower(GridParams(3, 3, 2)) == (6, "sphere")
    assert covering_lower(GridParams(3, 3, 3)) == (5, "rodemich")
    assert covering_lower(GridParams(4, 3, 3)) == (8, "rodemich")
    assert covering_lower(GridParams(4, 1, 1)) == (1, "sphere")
    assert covering_lower(GridParams(1, 4, 2)) == (1, "sphere")  # a tie
    assert covering_lower(GridParams(2, 2, 2)) == (2, "sphere")  # a tie
    for n in range(3, 16):
        assert covering_lower(GridParams(n, 2, 2)) == (n, "rodemich")
        assert covering_lower(GridParams(n, 2, 1)) == (n, "sphere")  # a tie
    # it is the least N at which rodemich_max_coverage reaches n^k
    for n in range(1, 6):
        for k in range(2, 5):
            lower, name = covering_lower(GridParams(n, k, k))
            least = next(N for N in range(n ** k + 1)
                         if rodemich_max_coverage(N, n, k) >= n ** k)
            assert lower == max(least, sphere_packing_bounds(GridParams(n, k, k))[0])


def test_improved_bound_full_arity():
    for k in range(2, 13):
        assert math.isclose(
            improved_covering_lower_bound(k, k), 1.0 / (k - 1), rel_tol=1e-12
        )


def test_improved_bound_strictly_above_reciprocal():
    for k in range(3, 13):
        for l in range(2, k):
            assert improved_covering_lower_bound(k, l) > 1.0 / l


def test_improved_bound_value_and_limit():
    assert math.isclose(
        improved_covering_lower_bound(3, 2),
        2.0 / (2.0 * (1.0 + math.sqrt(1.0 - 4.0 / 12.0))),
        rel_tol=1e-12,
    )
    # approaches 1/l from above, monotonically in k
    prev = None
    for k in range(3, 31):
        v = improved_covering_lower_bound(k, 2)
        assert v > 0.5
        if prev is not None:
            assert v <= prev
        prev = v
    assert prev - 0.5 < 1e-2


def test_improved_bound_domain():
    with pytest.raises(NotApplicable):
        improved_covering_lower_bound(3, 1)
    with pytest.raises(InvalidArgument):
        improved_covering_lower_bound(2, 3)


def test_prime_power_helpers():
    assert largest_prime_power(6) == 5
    assert largest_prime_power(9) == 9
    assert largest_prime_power(10) == 9
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)
    assert is_prime_power(8) and is_prime_power(9) and not is_prime_power(6)
    assert not is_prime_power(0) and not is_prime_power(1)
    with pytest.raises(NotApplicable):
        largest_prime_power(1)


def test_prime_power_upper_bound():
    assert prime_power_upper_bound(7, 7) == Fraction(1, 6)
    assert prime_power_upper_bound(4, 2) == Fraction(2, 3)
    assert prime_power_upper_bound(3, 2) == 1
    assert prime_power_upper_bound(2, 2) == 1  # f(2) = 2 still meets the arity


def test_prime_power_upper_bound_not_applicable():
    with pytest.raises(NotApplicable):
        prime_power_upper_bound(5, 6)
    with pytest.raises(NotApplicable):
        prime_power_upper_bound(1, 1)


def test_a32_constants():
    lo, hi = A32_LOWER, A32_UPPER
    assert math.isclose(lo, 0.5729490168751576, rel_tol=1e-9)
    assert math.isclose(hi, 0.7071067811865475, rel_tol=1e-9)
    assert lo < hi
    assert lo == A32_LOWER and hi == A32_UPPER


def test_a32_profile():
    alpha = A32_LOWER
    assert abs(a32_profile(2 * alpha / 3) - alpha) < 1e-9
    xs = [0.01 + i * (0.38 / 99) for i in range(100)]
    vals = [a32_profile(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert a32_profile(0.01) > a32_profile(0.39)
    with pytest.raises(DomainError):
        a32_profile(0.5)
    with pytest.raises(DomainError):
        a32_profile(0.0)


def test_bound_report():
    rep = bound_report(GridParams(3, 3, 2))
    assert (rep.a_lower, rep.a_lower_by, rep.a_upper) == (6, "sphere", 9)
    assert bound_report(GridParams(4, 3, 3)).a_lower_by == "rodemich"
    assert rep.b_upper == Fraction(27, 2)
    assert rep.b_incidence == Fraction(81, 7)
    assert rep.c_upper == 9 and rep.c_sphere == 5
    assert rep.b_hypercube is None
    rep1 = bound_report(GridParams(3, 3, 1))
    assert rep1.c_upper is None and rep1.c_sphere is None
    assert bound_report(GridParams(2, 7, 5)).b_hypercube == 64
    tiny = bound_report(GridParams(1, 1, 1))
    assert tiny.a_lower == tiny.a_upper == 1
    # f(6) = 5 < l: no prime-power construction, the trivial density 1 stays
    assert bound_report(GridParams(2, 6, 6)).asymptotic["a_upper_const"] == 1.0


def test_bound_report_monotone_grid():
    # lower never beats upper across a grid of instances
    for n in range(1, 6):
        for k in range(1, 4):
            for l in range(1, k + 1):
                rep = bound_report(GridParams(n, k, l))
                assert rep.a_lower <= rep.a_upper
                assert rep.asymptotic["a_lower_const"] <= 1.0 + 1e-12
