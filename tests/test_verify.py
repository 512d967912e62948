"""Covering / packing / two-packing verifiers."""

import itertools
import random

import pytest

from rookpack.core import Configuration, GridParams, Rook, config_coverage, covers, point_index
from rookpack.constructions import diagonal_covering, distance3_code
from rookpack.verify import (
    UndefinedDistance,
    coverage_count,
    min_pairwise_distance,
    verify_covering,
    verify_packing,
    verify_two_packing,
)


def full(k):
    return frozenset(range(k))


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


def test_verify_covering_examples():
    assert verify_covering(diagonal_covering(3, 2)).valid
    g = GridParams(2, 2, 2)
    rep = verify_covering(Configuration(g, []))
    assert not rep.valid and rep.total_violations == 4
    rep = verify_covering(Configuration(g, [Rook((0, 0), full(2))]))
    assert not rep.valid
    assert [v.point for v in rep.violations] == [3]  # the opposite corner (1,1)


def test_verify_packing_examples():
    g = GridParams(3, 2, 2)
    diag = Configuration(g, [Rook((i, i), full(2)) for i in range(3)])
    assert verify_packing(diag).valid
    bad = Configuration(g, [Rook((0, 0), full(2)), Rook((0, 1), full(2))])
    rep = verify_packing(bad)
    assert not rep.valid and rep.violations[0].kind == "attack"
    g1 = GridParams(3, 2, 1)
    ok = Configuration(g1, [Rook((0, 0), frozenset((0,))), Rook((0, 1), frozenset((0,)))])
    assert verify_packing(ok).valid


def test_verify_two_packing_examples():
    ref = reference_two_packing()
    assert verify_two_packing(ref, "closed").valid
    assert verify_two_packing(ref, "strict").valid
    g = GridParams(3, 2, 2)
    bad = Configuration(g, [Rook((0, 0), full(2)), Rook((1, 1), full(2))])
    rep = verify_two_packing(bad, "strict")
    assert not rep.valid and rep.violations[0].kind == "double"
    assert verify_two_packing(distance3_code(5, 3), "closed").valid


def test_two_packing_mode_hierarchy():
    # closed-disjoint => strict-disjoint => (closed also implies packing)
    rng = random.Random(11)
    g = GridParams(3, 3, 2)
    pts = list(itertools.product(range(3), repeat=3))
    for _ in range(200):
        chosen = rng.sample(pts, rng.randrange(2, 5))
        rooks = [Rook(p, frozenset(rng.sample(range(3), 2))) for p in chosen]
        c = Configuration(g, rooks)
        if verify_two_packing(c, "closed").valid:
            assert verify_two_packing(c, "strict").valid
            assert verify_packing(c).valid


def test_full_arity_closed_equals_distance3():
    rng = random.Random(5)
    for k in (2, 3):
        g = GridParams(3, k, k)
        pts = list(itertools.product(range(3), repeat=k))
        for _ in range(150):
            chosen = rng.sample(pts, rng.randrange(2, 4))
            c = Configuration(g, [Rook(p, full(k)) for p in chosen])
            assert verify_two_packing(c, "closed").valid == (min_pairwise_distance(c) >= 3)


def test_min_pairwise_distance():
    g = GridParams(5, 4, 4)
    assert min_pairwise_distance(distance3_code(5, 4)) == 3
    g2 = GridParams(2, 2, 2)
    assert min_pairwise_distance(
        Configuration(g2, [Rook((0, 0), full(2)), Rook((0, 1), full(2))])
    ) == 1
    assert min_pairwise_distance(
        Configuration(g2, [Rook((0, 0), full(2)), Rook((1, 1), full(2))])
    ) == 2
    with pytest.raises(UndefinedDistance):
        min_pairwise_distance(Configuration(g2, [Rook((0, 0), full(2))]))


def test_coverage_count():
    g = GridParams(3, 2, 2)
    assert coverage_count(Configuration(g, [Rook((1, 1), full(2))])) == 5
    assert coverage_count(
        Configuration(g, [Rook((0, 0), full(2)), Rook((1, 1), full(2))])
    ) == 8
    assert coverage_count(Configuration(g, [])) == 0


def test_covering_iff_full_count():
    rng = random.Random(3)
    g = GridParams(2, 3, 2)
    pts = list(itertools.product(range(2), repeat=3))
    for _ in range(100):
        chosen = rng.sample(pts, rng.randrange(1, 6))
        c = Configuration(g, [Rook(p, frozenset(rng.sample(range(3), 2))) for p in chosen])
        assert verify_covering(c).valid == (coverage_count(c) == g.num_points)


def test_reports_invariant_under_symmetry():
    rng = random.Random(13)
    g = GridParams(3, 3, 2)
    pts = list(itertools.product(range(3), repeat=3))
    for _ in range(40):
        chosen = rng.sample(pts, 3)
        rooks = [Rook(p, frozenset(rng.sample(range(3), 2))) for p in chosen]
        c = Configuration(g, rooks)
        perm = rng.sample(range(3), 3)
        axis = rng.randrange(3)

        def tf(p):
            p = tuple(p[i] for i in perm)
            return tuple(2 - v if i == axis else v for i, v in enumerate(p))

        mapped = [
            Rook(tf(r.point), frozenset(perm.index(d) for d in r.dirs)) for r in rooks
        ]
        cm = Configuration(g, mapped)
        for fn in (verify_covering, verify_packing):
            assert fn(c).valid == fn(cm).valid
        for mode in ("closed", "strict"):
            assert verify_two_packing(c, mode).valid == verify_two_packing(cm, mode).valid


def test_violation_cap():
    g = GridParams(4, 3, 1)  # 64 points, all uncovered
    rep = verify_covering(Configuration(g, []), cap=10)
    assert not rep.valid
    assert len(rep.violations) == 10
    assert rep.total_violations == 64
    assert rep.capped


def test_two_packing_violation_cap():
    g = GridParams(4, 3, 2)
    pts = list(itertools.product(range(4), repeat=3))
    rooks = [Rook(p, frozenset((0, 1))) for p in pts[::5]]
    c = Configuration(g, rooks)
    owners = {
        point_index(p, g): tuple(i for i, r in enumerate(rooks) if covers(r, p, g))
        for p in pts
    }
    doubled = sorted(i for i, own in owners.items() if len(own) >= 2)
    cap = 3
    assert len(doubled) > 4 * cap
    rep = verify_two_packing(c, "closed", cap=cap)
    assert not rep.valid and rep.capped
    assert rep.total_violations == len(doubled)
    assert [v.point for v in rep.violations] == doubled[:cap]
    assert [v.rooks for v in rep.violations] == [owners[p][:2] for p in doubled[:cap]]


def test_violation_cap_zero():
    g = GridParams(3, 2, 2)
    bad = Configuration(g, [Rook((0, 0), full(2)), Rook((0, 1), full(2))])
    for rep, total in [
        (verify_covering(Configuration(g, []), cap=0), 9),
        (verify_covering(bad, cap=0), 2),
        (verify_two_packing(bad, "closed", cap=0), 3),
        (verify_two_packing(bad, "strict", cap=0), 1),
    ]:
        assert not rep.valid and rep.capped
        assert rep.violations == () and rep.total_violations == total
    for rep in (verify_covering(diagonal_covering(3, 2), cap=0),
                verify_two_packing(reference_two_packing(), "closed", cap=0)):
        assert rep.valid and not rep.capped
        assert rep.violations == () and rep.total_violations == 0


def test_violations_sorted_and_deterministic():
    g = GridParams(3, 2, 1)
    c = Configuration(g, [Rook((0, 0), frozenset((0,)))])
    rep = verify_covering(c)
    points = [v.point for v in rep.violations]
    assert points == sorted(points)
    rep2 = verify_covering(c)
    assert rep.violations == rep2.violations


def test_bad_mode_rejected():
    g = GridParams(2, 2, 2)
    c = Configuration(g, [Rook((0, 0), full(2))])
    with pytest.raises(Exception):
        verify_two_packing(c, "open")
