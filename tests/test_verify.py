"""Covering / packing / two-packing verifiers."""

import itertools
import random
import tracemalloc

import pytest

from rookpack.core import (
    Configuration,
    GridParams,
    InstanceTooLarge,
    Rook,
    attacks,
    config_coverage,
    coverage_mask,
    covers,
    point_index,
)
from rookpack.constructions import (
    a32_covering,
    b_k2_inductive,
    block_packing,
    c_k2_construction,
    diagonal_covering,
    diagonal_slab_block,
    distance3_code,
)
from rookpack.verify import (
    UndefinedDistance,
    VerifyReport,
    Violation,
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


def reference_reports(c):
    """Every verifier's full violation list, from core.covers/core.attacks
    on each point and rook pair; a report at cap keeps the first cap."""
    g, rooks = c.params, c.rooks
    pts = list(itertools.product(range(g.n), repeat=g.k))
    uncovered = [
        Violation("uncovered", point=point_index(p, g))
        for p in pts
        if not any(covers(r, p, g) for r in rooks)
    ]
    attack = sorted(
        (
            Violation("attack", point=point_index(other.point, g), rooks=(i, j))
            for i, r in enumerate(rooks)
            for j, other in enumerate(rooks)
            if i != j and attacks(r, other.point, g)
        ),
        key=lambda v: (v.point, v.rooks),
    )
    doubles = {}
    for mode, reaches in (("closed", covers), ("strict", attacks)):
        doubles[mode] = []
        for p in pts:
            owners = tuple(i for i, r in enumerate(rooks) if reaches(r, p, g))
            if len(owners) >= 2:
                doubles[mode].append(Violation("double", point=point_index(p, g), rooks=owners[:2]))
    return {"cover": uncovered, "pack": attack, **doubles}


def random_configurations(seed, count):
    rng = random.Random(seed)
    grids = [
        GridParams(n, k, l)
        for n in range(1, 6)
        for k in range(1, 5)
        if n**k <= 256
        for l in range(1, k + 1)
    ]
    for _ in range(count):
        g = rng.choice(grids)
        pts = list(itertools.product(range(g.n), repeat=g.k))
        chosen = rng.sample(pts, rng.randint(0, min(len(pts), rng.choice((2, 6, 20)))))
        yield Configuration(g, [Rook(p, rng.sample(range(g.k), g.l)) for p in chosen])


def test_verifiers_match_coordinate_reference():
    for c in random_configurations(17, 250):
        ref = reference_reports(c)
        for cap in (0, 1, 3, 64):
            got = {
                "cover": verify_covering(c, cap),
                "pack": verify_packing(c, cap),
                "closed": verify_two_packing(c, "closed", cap),
                "strict": verify_two_packing(c, "strict", cap),
            }
            for key, violations in ref.items():
                want = VerifyReport(not violations, tuple(violations[:cap]), len(violations))
                assert got[key] == want, (c, key, cap)


def random_automorphism(c, rng):
    """The image of c under a random automorphism of H(n, k): new axis i
    is old axis perm[i], each axis's values permuted on their own, rooks
    shuffled."""
    n, k = c.params.n, c.params.k
    perm = rng.sample(range(k), k)
    values = [rng.sample(range(n), n) for _ in range(k)]
    rooks = [
        Rook(tuple(values[i][r.point[perm[i]]] for i in range(k)), [perm.index(a) for a in r.dirs])
        for r in c.rooks
    ]
    rng.shuffle(rooks)
    return Configuration(c.params, rooks)


def test_reports_invariant_under_symmetry():
    rng = random.Random(31)
    configs = list(random_configurations(29, 150))
    configs += [
        diagonal_covering(4, 3),
        diagonal_slab_block(5, 3, 2)[0],
        distance3_code(5, 4),
        block_packing(3, 2, 2),
        c_k2_construction(7, 3),
        b_k2_inductive(8, 3),
        a32_covering(5, 2),
    ]

    def verdicts(c):
        reports = (
            verify_covering(c),
            verify_packing(c),
            verify_two_packing(c, "closed"),
            verify_two_packing(c, "strict"),
        )
        return [(rep.valid, rep.total_violations) for rep in reports]

    for c in configs:
        want = verdicts(c)
        for _ in range(3):
            image = random_automorphism(c, rng)
            assert verdicts(image) == want, c


def test_config_coverage_is_union_of_rook_masks():
    configs = list(random_configurations(23, 200))
    configs += [a32_covering(8, 3), diagonal_covering(5, 4)]
    for c in configs:
        union = 0
        for r in c.rooks:
            union |= coverage_mask(r, c.params)
        assert config_coverage(c).bits == union


def test_bitset_verifiers_refuse_over_cap_grid_before_allocating(monkeypatch):
    monkeypatch.delenv("ROOKPACK_POINT_CAP", raising=False)
    g = GridParams(2, 25, 1)  # 2^25 points, over the default cap
    c = Configuration(g, [Rook((0,) * 25, {0}), Rook((1,) + (0,) * 24, {3})])
    for check in (
        verify_covering,
        verify_two_packing,
        lambda c: verify_two_packing(c, "strict"),
        config_coverage,
    ):
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLarge):
                check(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_packing_on_grid_over_the_bitset_cap(monkeypatch):
    monkeypatch.delenv("ROOKPACK_POINT_CAP", raising=False)
    g = GridParams(2, 40, 1)  # 2^40 points: packings need no per-point memory
    rooks = [
        Rook((0,) * 40, {0}),  # attacks the next rook along axis 0
        Rook((1,) + (0,) * 39, {1}),
        Rook((0, 1, 1) + (0,) * 37, {2}),
    ]
    rep = verify_packing(Configuration(g, rooks))
    assert not rep.valid and rep.total_violations == 1
    assert rep.violations == (Violation("attack", point=1 << 39, rooks=(0, 1)),)
