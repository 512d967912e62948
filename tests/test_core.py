"""Geometry and coverage semantics."""

import itertools
import random

import pytest

from rookpack.core import (
    Configuration,
    GridParams,
    InstanceTooLarge,
    InvalidArgument,
    InvalidPoint,
    Rook,
    attacks,
    attack_set,
    config_coverage,
    coverage_set,
    covers,
    index_point,
    point_index,
)


def test_point_index_examples():
    g = GridParams(3, 3, 2)
    assert point_index((0, 0, 0), g) == 0
    assert point_index((2, 2, 2), g) == 26
    assert point_index((1, 0, 2), g) == 11  # 1*9 + 0*3 + 2


def test_point_index_roundtrip():
    for n, k in [(1, 1), (2, 3), (3, 2), (4, 3), (5, 2)]:
        g = GridParams(n, k, 1)
        for i in range(g.num_points):
            assert point_index(index_point(i, g), g) == i


def test_point_index_rejects_bad_coords():
    g = GridParams(3, 2, 1)
    with pytest.raises(InvalidPoint):
        point_index((0, 3), g)
    with pytest.raises(InvalidPoint):
        point_index((0, -1), g)
    with pytest.raises(InvalidPoint):
        point_index((0, 0, 0), g)


def test_covers_and_attacks():
    g = GridParams(3, 2, 2)
    r = Rook((0, 0), frozenset((0, 1)))
    assert covers(r, (0, 2), g)
    r1 = Rook((0, 0), frozenset((0,)))
    assert not covers(r1, (0, 2), GridParams(3, 2, 1))
    r2 = Rook((1, 1), frozenset((0, 1)))
    assert covers(r2, (1, 1), g)
    assert not attacks(r2, (1, 1), g)
    # attack implies cover; a two-coordinate difference is never covered
    assert not covers(r, (1, 1), g)


def test_covers_dimension_mismatch():
    g = GridParams(3, 2, 2)
    r = Rook((0, 0), frozenset((0, 1)))
    with pytest.raises((InvalidArgument, InvalidPoint)):
        covers(r, (0, 0, 0), g)


def test_coverage_set_popcount():
    # closed coverage is always l(n-1)+1 points, attack set one less
    for n in range(1, 5):
        for k in range(1, 4):
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                r = Rook(tuple([n - 1] + [0] * (k - 1)), frozenset(range(l)))
                assert coverage_set(r, g).popcount() == l * (n - 1) + 1
                assert attack_set(r, g).popcount() == l * (n - 1)


def test_coverage_set_examples():
    assert coverage_set(
        Rook((1, 1, 1), frozenset((0, 1))), GridParams(3, 3, 2)
    ).popcount() == 5
    assert coverage_set(
        Rook((0, 0, 0), frozenset((0, 1, 2))), GridParams(4, 3, 3)
    ).popcount() == 10
    assert coverage_set(Rook((0,), frozenset((0,))), GridParams(1, 1, 1)).popcount() == 1


def test_config_coverage():
    g = GridParams(5, 2, 1)
    empty = Configuration(g, [])
    assert config_coverage(empty).popcount() == 0
    r = Rook((2, 3), frozenset((0,)))
    single = Configuration(g, [r])
    assert config_coverage(single).bits == coverage_set(r, g).bits
    # disjoint coverage adds up
    r1 = Rook((0, 0), frozenset((0,)))
    r2 = Rook((2, 2), frozenset((0,)))
    both = Configuration(g, [r1, r2])
    assert (
        config_coverage(both).popcount()
        == coverage_set(r1, g).popcount() + coverage_set(r2, g).popcount()
    )


def test_covers_symmetry_invariance():
    g = GridParams(3, 3, 2)
    rng = random.Random(7)
    for _ in range(50):
        pt = tuple(rng.randrange(3) for _ in range(3))
        dirs = frozenset(rng.sample(range(3), 2))
        q = tuple(rng.randrange(3) for _ in range(3))
        r = Rook(pt, dirs)
        base = covers(r, q, g)
        perm = rng.sample(range(3), 3)
        rp = Rook(tuple(pt[i] for i in perm), frozenset(perm.index(d) for d in dirs))
        qp = tuple(q[i] for i in perm)
        assert covers(rp, qp, g) == base
        axis = rng.randrange(3)
        flip = lambda p: tuple(2 - v if i == axis else v for i, v in enumerate(p))
        assert covers(Rook(flip(pt), dirs), flip(q), g) == base


def test_gridparams_validation():
    with pytest.raises(InvalidArgument):
        GridParams(3, 2, 3)  # l > k
    with pytest.raises(InvalidArgument):
        GridParams(0, 2, 1)
    with pytest.raises(InvalidArgument):
        GridParams(3, 0, 0)
    with pytest.raises(InstanceTooLarge):
        GridParams(2, 64, 1)  # 2^64 points overflow the index width


def test_bitset_cap():
    g = GridParams(2, 25, 1)  # 33M points: indexable but over the bitset cap
    with pytest.raises(InstanceTooLarge):
        g.check_bitset()


def test_configuration_validation():
    g = GridParams(3, 2, 2)
    with pytest.raises(InvalidArgument):
        Configuration(g, [Rook((0, 0), frozenset((0, 1))), Rook((0, 0), frozenset((0, 1)))])
    with pytest.raises(InvalidArgument):
        Configuration(g, [Rook((0, 0), frozenset((0,)))])  # wrong arity
    with pytest.raises(InvalidArgument):
        Configuration(g, [Rook((0, 0), frozenset((0, 5)))])  # axis out of range


def test_non_integer_coordinates_and_axes_rejected():
    g = GridParams(3, 2, 1)
    with pytest.raises(InvalidPoint, match="not an integer"):
        Configuration(g, [Rook((1.5, 0), [0])])
    for point in [(1.0, 0), (True, 0), (0, float("nan")), ("1", 0)]:
        with pytest.raises(InvalidPoint, match="not an integer"):
            point_index(point, g)
    with pytest.raises(InvalidArgument, match="non-integer axis"):
        Configuration(g, [Rook((0, 0), [0.0])])
    # frozenset({False, 1}) == frozenset({0, 1}): a set of dirs would hide it
    with pytest.raises(InvalidArgument, match="non-integer axis"):
        Configuration(GridParams(3, 2, 2), [Rook((1, 1), [0, 1]), Rook((0, 0), [False, 1])])


def _loop_error(g, rooks):
    """The error of a per-rook check of the rules Configuration enforces."""
    seen = set()
    try:
        for r in rooks:
            g.check_point(r.point)
            g.check_dirs(r.point, r.dirs)
            if r.point in seen:
                raise InvalidArgument(f"duplicate rook point {r.point}")
            seen.add(r.point)
    except InvalidArgument as e:
        return type(e), str(e)
    return None


def test_configuration_bulk_check_matches_per_rook_loop():
    g = GridParams(10, 4, 2)
    valid = [Rook(p, (0, 1)) for p in itertools.product(range(10), repeat=4)][:9999]
    free = (9, 9, 9, 9)
    bad = [
        Rook((9, 9, 9), (0, 1)),  # short point
        Rook((9, 9, 9, 9, 0), (0, 1)),  # long point
        Rook((9, 9, 9, -1), (0, 1)),
        Rook((9, 9, 9, 10), (0, 1)),
        Rook((9, 9, 9, 1.5), (0, 1)),
        Rook((9, 9, 9, 9.0), (0, 1)),
        Rook((9, 9, 9, True), (0, 1)),
        Rook((9, 9, 9, float("nan")), (0, 1)),
        Rook((9, 9, 9, "9"), (0, 1)),
        Rook(free, (0,)),  # wrong arity
        Rook(free, (0, 1, 2)),
        Rook(free, (0, 4)),  # axis out of range
        Rook(free, (-1, 0)),
        Rook(free, (0, 1.0)),
        Rook(free, (0, True)),
        Rook(free, (0.5, 1)),
        Rook(valid[0].point, (2, 3)),  # duplicate point
    ]
    assert _loop_error(g, valid + [Rook(free, (2, 3))]) is None
    assert len(Configuration(g, valid + [Rook(free, (2, 3))])) == 10000
    for r in bad:
        rooks = valid + [r]
        want = _loop_error(g, rooks)
        assert want is not None, r
        with pytest.raises(want[0]) as e:
            Configuration(g, rooks)
        assert (type(e.value), str(e.value)) == want


def test_sorted_rooks_order():
    g = GridParams(3, 2, 2)
    d = frozenset((0, 1))
    c = Configuration(g, [Rook((2, 1), d), Rook((0, 2), d), Rook((1, 0), d)])
    pts = [r.point for r in c.sorted_rooks()]
    assert pts == [(0, 2), (1, 0), (2, 1)]


def test_ball_and_num_points():
    g = GridParams(4, 3, 2)
    assert g.num_points == 64
    assert g.ball == 7


def test_attack_never_exceeds_cover():
    g = GridParams(3, 2, 2)
    r = Rook((1, 2), frozenset((0, 1)))
    for q in itertools.product(range(3), repeat=2):
        if attacks(r, q, g):
            assert covers(r, q, g)
