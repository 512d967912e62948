"""Explicit coverings / packings and composition operators."""

import itertools
import math

import pytest

from rookpack.core import Configuration, GridParams, Rook
from rookpack.constructions import (
    CONSTRUCTIONS,
    ConstructionInfeasible,
    InvalidInput,
    InvalidParams,
    a32_covering,
    b_k2_inductive,
    b_k2_size_constant,
    block_packing,
    blowup_covering,
    blowup_packing,
    blowup_two_packing,
    c_k2_construction,
    diagonal_covering,
    diagonal_slab_block,
    distance3_code,
    extend_covering,
    stack,
)
from rookpack.verify import (
    min_pairwise_distance,
    verify_covering,
    verify_packing,
    verify_two_packing,
)


def full(k):
    return frozenset(range(k))


# --- diagonal covering ---


def test_diagonal_small():
    c = diagonal_covering(3, 2)
    assert sorted(r.point for r in c.rooks) == [(0, 0), (1, 2), (2, 1)]
    assert verify_covering(c).valid
    assert len(diagonal_covering(2, 3)) == 4
    assert len(diagonal_covering(1, 4)) == 1


def test_diagonal_sweep_one_rook_per_line():
    for n, k in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (5, 2), (4, 3), (3, 4), (6, 2)]:
        c = diagonal_covering(n, k)
        assert len(c) == n ** (k - 1)
        assert verify_covering(c).valid
        assert verify_packing(c).valid  # exactly one rook on every axis line
        with pytest.raises(InvalidParams):
            diagonal_covering(0, k)


# --- diagonal slab blocks ---


def test_slab_block():
    c, report = diagonal_slab_block(2, 3, 2)
    assert len(c) == 8 and report == (True, True, True)
    assert verify_covering(c).valid
    c4, report4 = diagonal_slab_block(3, 4, 2)
    assert len(c4) == 54 and all(report4)
    assert verify_covering(c4).valid


def test_slab_block_params():
    with pytest.raises(InvalidParams):
        diagonal_slab_block(1, 3, 2)  # n1 * l <= f(k)
    with pytest.raises(InvalidParams):
        diagonal_slab_block(5, 2, 3)


# --- distance-3 codes ---


def _distance3_by_wildcards(points, k):
    """No two codewords may agree after deleting any two coordinates."""
    seen = set()
    for p in points:
        for i, j in itertools.combinations(range(k), 2):
            key = (i, j, p[:i] + p[i + 1 : j] + p[j + 1 :])
            if key in seen:
                return False
            seen.add(key)
    return True


def test_distance3_examples():
    c = distance3_code(5, 3)
    assert sorted(r.point for r in c.rooks) == [(t, t, t) for t in range(5)]
    c4 = distance3_code(5, 4)
    assert len(c4) == 25
    assert min_pairwise_distance(c4) == 3


def test_distance3_sweep():
    for p in (5, 7):
        for k in range(2, p + 1):
            c = distance3_code(p, k)
            assert len(c) == p ** (k - 2) if k > 2 else len(c) == 1
            assert _distance3_by_wildcards([r.point for r in c.rooks], k) or k == 2
    # k = 2 has a single codeword; distance is vacuous there


def test_distance3_errors():
    with pytest.raises(InvalidParams):
        distance3_code(4, 3)  # not prime
    with pytest.raises(InvalidParams):
        distance3_code(3, 4)  # p < k
    with pytest.raises(InvalidParams):
        distance3_code(5, 1)


# --- block packings ---


def test_block_packing():
    cases = {(3, 1, 2): 3, (2, 2, 2): 8, (3, 2, 1): 4, (2, 1, 3): 4}
    for (n, k, t), size in cases.items():
        c = block_packing(n, k, t)
        assert len(c) == size == k * n ** (k * (t - 1)) * (n - 1) ** (k - 1)
        assert c.params == GridParams(n, k * t, t)
        assert verify_packing(c).valid
    with pytest.raises(InvalidParams):
        block_packing(1, 2, 2)


def block_packing_reference(n, k, t):
    """The per-point definition: scan all n^(kt) points, keep those with
    exactly one zero block sum."""
    g = GridParams(n, k * t, t)
    rooks = []
    for p in itertools.product(range(n), repeat=k * t):
        sums = [sum(p[j * t : (j + 1) * t]) % n for j in range(k)]
        zero = [j for j in range(k) if sums[j] == 0]
        if len(zero) == 1:
            j = zero[0]
            rooks.append(Rook(p, frozenset(range(j * t, (j + 1) * t))))
    return Configuration(g, sorted(rooks, key=lambda r: r.point))


def test_block_packing_matches_per_point_reference():
    # every grid of at most 5000 points, except that H(n, 1) (one rook at
    # 0) stops at n = 100 and 5000: the scan of all n <= 5000 takes 30 s
    cases = [
        (n, k, t)
        for k in range(1, 13)  # 2^13 > 5000
        for t in range(1, 13)
        for n in itertools.takewhile(lambda n: n ** (k * t) <= 5000, itertools.count(2))
        if k * t > 1 or n <= 100 or n == 5000
    ]
    assert (5000, 1, 1) in cases and (2, 3, 4) in cases and (70, 1, 2) in cases
    for n, k, t in cases:
        got, want = block_packing(n, k, t), block_packing_reference(n, k, t)
        assert got.params == want.params
        assert got.rooks == want.rooks, (n, k, t)


# --- pairwise two-packings ---


def test_c_k2():
    c = c_k2_construction(12, 3)
    assert len(c) == 18 == math.comb(3, 2) * (12 - 6)
    assert verify_two_packing(c, "closed").valid
    tiny = c_k2_construction(7, 2)
    assert [r.point for r in tiny.rooks] == [(0, 1)]


def test_c_k2_pinned_pairs():
    # pair (i, j) pins its two axes to consecutive values starting at
    # 2i - 2 + (j-1)(j-2)
    c = c_k2_construction(13, 3)
    starts = {}
    for r in c.rooks:
        i, j = sorted(r.dirs)
        starts.setdefault((i + 1, j + 1), (r.point[i], r.point[j]))
    assert starts[(1, 2)] == (0, 1)
    assert starts[(1, 3)] == (2, 3)
    assert starts[(2, 3)] == (4, 5)


def test_c_k2_larger():
    for n, k in [(13, 3), (25, 4)]:
        c = c_k2_construction(n, k)
        assert len(c) == math.comb(k, 2) * (n - k * (k - 1)) ** (k - 2)
        assert verify_two_packing(c, "closed").valid


def test_c_k2_errors():
    with pytest.raises(InvalidParams):
        c_k2_construction(6, 3)  # n <= k(k-1)
    with pytest.raises(InvalidParams):
        c_k2_construction(5, 1)


# --- three-dimensional 2-rook coverings ---


def test_a32_covering_feasible_ratio():
    c = a32_covering(9, 4)
    g = c.params
    assert g == GridParams(26, 3, 2)
    assert verify_covering(c).valid
    assert len(c) <= 4 * 4 * 4 + 12 * 9 * 4  # 496
    # the per-plane completion stays small: at most 2b rooks with dirs {0,1}
    per_plane = {}
    for r in c.rooks:
        if r.dirs == frozenset((0, 1)):
            per_plane[r.point[2]] = per_plane.get(r.point[2], 0) + 1
    assert max(per_plane.values(), default=0) <= 8
    # density comfortably below 3/4
    assert len(c) / g.n ** 2 < 0.75


def test_a32_covering_steep_ratio():
    c = a32_covering(5, 2)
    assert c.params.n == 14
    assert verify_covering(c).valid
    assert len(c) <= 140


def test_a32_covering_more_ratios():
    for a, b, cap in [(7, 3, 288), (11, 5, 760)]:
        c = a32_covering(a, b)
        assert verify_covering(c).valid
        assert len(c) <= cap == 4 * b * b + 12 * a * b


def test_a32_covering_params():
    for a, b in [(4, 2), (3, 2), (2, 1), (5, 0)]:
        with pytest.raises(InvalidParams):
            a32_covering(a, b)  # needs a > 2b >= 2


# --- inductive 2-rook packings ---


def test_b_k2_base():
    c = b_k2_inductive(5, 2)
    assert len(c) == 5
    assert verify_packing(c).valid


def test_b_k2_inductive_step():
    c = b_k2_inductive(8, 3)
    assert verify_packing(c).valid
    n = 8
    assert len(c) >= 3 * n ** 2 // 2 - 7 * n  # guarantee with C_3 = 7
    c4 = b_k2_inductive(4, 3)
    assert verify_packing(c4).valid


def b_k2_inductive_reference(n, k):
    """The per-point definition: scan all n^(k-1) columns and keep those
    whose coordinates lie in distinct floors v // (k-1)."""
    g = GridParams(n, k, 2)
    if k == 2:
        return Configuration(g, [Rook((i, i), frozenset((0, 1))) for i in range(n)])
    m = k - 1
    sub = b_k2_inductive_reference(n, m)
    sub_points = {r.point for r in sub.rooks}
    rooks = []
    for x in itertools.product(range(n), repeat=m):
        floors = tuple(v // m for v in x)
        if len(set(floors)) != m or x in sub_points:
            continue
        coord = (sum(x) % m - 1) % m
        rooks.append(Rook(x + (floors[coord],), frozenset((coord, m))))
    for z in range(n // m, n):
        for r in sub.rooks:
            rooks.append(Rook(r.point + (z,), r.dirs))
    return Configuration(g, sorted(rooks, key=lambda r: r.point))


def test_b_k2_matches_per_point_reference():
    cases = [
        (n, k)
        for k in range(2, 5)
        for n in range(1, 37)
        if n % math.factorial(k - 1) ** 2 == 0
    ]
    assert (36, 4) in cases and len(cases) == 36 + 9 + 1
    for n, k in cases:
        got, want = b_k2_inductive(n, k), b_k2_inductive_reference(n, k)
        assert got.params == want.params
        assert got.rooks == want.rooks, (n, k)


def test_b_k2_divisibility():
    with pytest.raises(InvalidParams):
        b_k2_inductive(6, 3)  # (k-1)!^2 = 4 must divide n


def test_b_k2_size_constant():
    assert b_k2_size_constant(2) == 0
    assert b_k2_size_constant(3) == 7


# --- blowups ---


def reference_two_packing():
    g = GridParams(3, 3, 2)
    return Configuration(
        g,
        [
            Rook((0, 0, 2), frozenset((0, 1))),
            Rook((1, 0, 1), frozenset((0, 1))),
            Rook((2, 1, 0), frozenset((0, 2))),
            Rook((2, 2, 0), frozenset((0, 2))),
        ],
    )


def test_blowup_covering():
    c = blowup_covering(diagonal_covering(2, 2), 3)
    assert c.params == GridParams(6, 2, 2)
    assert len(c) == 6
    assert verify_covering(c).valid
    one = Configuration(GridParams(1, 2, 2), [Rook((0, 0), full(2))])
    c5 = blowup_covering(one, 5)
    assert len(c5) == 5 and verify_covering(c5).valid
    assert blowup_covering(c, 1).rooks == c.rooks  # identity at n_inner = 1


def test_blowup_packing():
    c = blowup_packing(diagonal_covering(3, 2), 2)
    assert c.params.n == 6 and len(c) == 6
    assert verify_packing(c).valid


def test_blowup_two_packing():
    ref = reference_two_packing()
    c = blowup_two_packing(ref, 5)
    assert c.params == GridParams(15, 3, 2)
    assert len(c) == 20
    assert verify_two_packing(c, "closed").valid


def test_blowup_rejects_invalid_outer():
    g = GridParams(2, 2, 2)
    not_cover = Configuration(g, [Rook((0, 0), full(2))])
    with pytest.raises(InvalidInput):
        blowup_covering(not_cover, 2)
    not_pack = Configuration(g, [Rook((0, 0), full(2)), Rook((0, 1), full(2))])
    with pytest.raises(InvalidInput):
        blowup_packing(not_pack, 2)
    with pytest.raises(InvalidInput):
        blowup_two_packing(not_pack, 3)
    with pytest.raises(InvalidParams):
        blowup_two_packing(reference_two_packing(), 4)  # p must be prime > k


def test_blowup_size_identity():
    # iterated diagonal blowup = one blowup with the product size
    base = diagonal_covering(2, 2)
    twice = blowup_covering(blowup_covering(base, 2), 3)
    once = blowup_covering(base, 6)
    assert len(twice) == len(once)
    assert twice.params == once.params
    assert verify_covering(twice).valid


# --- stacking and extension ---


def test_stack():
    c = stack(diagonal_covering(3, 2), 3)
    assert c.params == GridParams(3, 3, 2)
    assert len(c) == 9
    assert verify_packing(c).valid
    with pytest.raises(InvalidParams):
        stack(diagonal_covering(3, 2), 2)


def test_extend_covering():
    e = extend_covering(diagonal_covering(2, 2))
    assert e.params == GridParams(3, 2, 2)
    assert verify_covering(e).valid
    e3 = extend_covering(diagonal_covering(3, 3))
    assert e3.params == GridParams(4, 3, 3)
    assert len(e3) == 19  # 9 shifted + 10 boundary rooks
    assert verify_covering(e3).valid
    base = Configuration(GridParams(1, 2, 2), [Rook((0, 0), full(2))])
    e1 = extend_covering(base)
    assert len(e1) == 2 and verify_covering(e1).valid


def test_extend_rejects():
    g = GridParams(2, 2, 2)
    with pytest.raises(InvalidInput):
        extend_covering(Configuration(g, [Rook((0, 0), full(2))]))
    ok = diagonal_covering(2, 2)
    low = Configuration(GridParams(2, 2, 1), [
        Rook((0, 0), frozenset((1,))), Rook((1, 0), frozenset((1,)))
    ])
    with pytest.raises(InvalidParams):
        extend_covering(low)  # l = 1 has no room for forced axes


# --- registry ---


def test_registry_names_and_arity():
    assert set(CONSTRUCTIONS) == {
        "diagonal_covering", "diagonal_slab_block", "distance3_code",
        "block_packing", "c_k2", "a32_covering", "b_k2_inductive",
    }
    samples = {
        "diagonal_covering": (3, 2),
        "diagonal_slab_block": (2, 3, 2),
        "distance3_code": (5, 3),
        "block_packing": (2, 2, 2),
        "c_k2": (7, 2),
        "a32_covering": (5, 2),
        "b_k2_inductive": (4, 2),
    }
    for name, (fn, params) in CONSTRUCTIONS.items():
        args = samples[name]
        assert len(params) == len(args)
        cfg = fn(*args)
        assert isinstance(cfg, Configuration)
