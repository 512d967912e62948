"""Exact solver, enumeration oracles, and the ILP encoder."""

import gc
import hashlib
import io
import math
import random
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from types import SimpleNamespace

import pytest

from rookpack.bounds import covering_lower, incidence_bound_b, singleton_bound_b
from rookpack.core import (
    Configuration,
    GridParams,
    InvalidArgument,
    Rook,
    attacks,
    config_coverage,
    coverage_mask,
    covers,
)
from rookpack.oracles import (
    _oracle_clashes,
    _oracle_rooks,
    brute_force_max_coverage,
    enumerate_max_packing,
    enumerate_max_two_packing,
    enumerate_min_covering,
)
from rookpack.solve import (
    _CONFLICTS,
    SolverBudget,
    _Instance,
    _PointPacking,
    _ValueOrbits,
    _gain_deficit,
    _greedy_covering,
    _overlap_update,
    _reach_cap,
    _repeat,
    _unit_cap,
    check_witness,
    encode_ilp,
    exact_max_coverage,
    exact_max_packing,
    exact_max_two_packing,
    exact_min_covering,
)
from rookpack import solve as solve_module
from rookpack.verify import verify_covering, verify_packing, verify_two_packing


def test_min_covering_golden():
    res = exact_min_covering(GridParams(3, 3, 2))
    assert res.exact and res.optimum == 7
    assert verify_covering(res.witness).valid
    assert len(res.witness) == 7


def test_min_covering_small():
    assert exact_min_covering(GridParams(3, 2, 1)).optimum == 3
    assert exact_min_covering(GridParams(2, 2, 2)).optimum == 2
    assert exact_min_covering(GridParams(1, 1, 1)).optimum == 1


def test_max_packing_golden():
    res = exact_max_packing(GridParams(3, 3, 2))
    assert res.exact and res.optimum == 10
    assert verify_packing(res.witness).valid
    assert len(res.witness) == 10


def test_max_packing_small():
    assert exact_max_packing(GridParams(3, 2, 2)).optimum == 3
    assert exact_max_packing(GridParams(2, 2, 2)).optimum == 2


def test_max_two_packing_golden():
    res = exact_max_two_packing(GridParams(3, 3, 2))
    assert res.exact and res.optimum == 4
    assert verify_two_packing(res.witness, "closed").valid


def test_max_two_packing_small():
    assert exact_max_two_packing(GridParams(2, 2, 2)).optimum == 1
    res = exact_max_two_packing(GridParams(5, 3, 3))
    assert res.optimum == 5  # the diagonal distance-3 code is optimal


def test_two_packing_strict_at_least_closed():
    for n, k, l in [(2, 3, 2), (3, 3, 2), (3, 2, 2)]:
        g = GridParams(n, k, l)
        closed = exact_max_two_packing(g, "closed").optimum
        strict = exact_max_two_packing(g, "strict").optimum
        assert strict >= closed


def test_max_coverage():
    g = GridParams(3, 2, 2)
    assert exact_max_coverage(g, 0).optimum == 0
    assert exact_max_coverage(g, 1).optimum == 5
    assert exact_max_coverage(g, 2).optimum == 8
    assert brute_force_max_coverage(g, 2) == 8


def test_max_coverage_search_tree_pinned():
    # node and pruned counts of the max-coverage search on H(4, 2) with
    # 2-rooks; each N stops once the best meets min(N * ball, n^k,
    # floor(Rodemich)): N = 1 at N * ball, N = 2 and 3 at Rodemich's
    # 2Nn - N^2, N = 4 at n^k
    g = GridParams(4, 2, 2)
    for N, counts in [(1, (2, 0, 7)), (2, (11, 0, 12)), (3, (120, 0, 15)), (4, (5, 0, 16))]:
        res = exact_max_coverage(g, N)
        assert (res.stats.nodes, res.stats.pruned, res.optimum) == counts, N
        assert check_witness(res.mode, res.witness, res.optimum, N=N)


def test_max_coverage_matches_oracle():
    # on every grid with n^k <= 64 where enumerating the N-subsets of the P
    # placements costs at most 200k rook visits, C(P, N) * max(N, 1); the
    # upper bound of a run capped at its root holds the optimum too, also
    # past N = n^(k-1), where Rodemich's formula is no bound
    checked = 0
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                P = n ** k * math.comb(k, l)
                for N in range(g.num_points + 1):
                    if math.comb(P, N) * max(N, 1) > 200_000:
                        continue
                    res = exact_max_coverage(g, N)
                    optimum = brute_force_max_coverage(g, N)
                    assert res.exact and res.optimum == optimum, (g, N)
                    assert check_witness(res.mode, res.witness, res.optimum, N=N), (g, N)
                    assert exact_max_coverage(g, N, SolverBudget(0, 1e9)).upper_bound >= optimum
                    checked += 1
    assert checked == 796


def test_max_coverage_capped_on_many_placements():
    # the search recurses at most N deep, so 30 rooks among 1,536
    # placements run to the node cap and report a verified incumbent
    res = exact_max_coverage(GridParams(8, 3, 2), 30, SolverBudget(50_000, 1e9))
    assert (res.exact, res.optimum, res.upper_bound) == (False, None, 450)
    assert check_witness(res.mode, res.witness, res.lower_bound, N=30)


def test_deep_search_ends_capped():
    # an include chain deeper than the interpreter's stack ends the search
    # like a spent budget: a capped result whose witness verifies.  The
    # greedy seed of b(40, 3, 1) has 1,600 rooks and the first include
    # chain follows it.  The node count is not pinned, since the depth at
    # which the stack runs out depends on the caller's own frames.
    res = exact_max_packing(GridParams(40, 3, 1), SolverBudget(5_000, 1e9))
    assert (res.exact, res.lower_bound, res.upper_bound) == (False, 1_600, 4_571)
    assert res.stats.stop_reason == "depth"
    assert check_witness(res.mode, res.witness, 1_600)


def test_packings_never_build_the_coverage_table(monkeypatch):
    # a packing or closed two-packing takes its conflicts and caps from the
    # line patterns alone, so the coverage ints of _Instance.placements,
    # which for b(40, 3, 1) would take over a gigabyte, and the per-point
    # table by_cov are never built; a packing works on masks over points,
    # so it builds no placement pattern or table at all
    def refuse(inst):
        pytest.fail(f"a packing of {inst.g} built a placement table")

    monkeypatch.setattr(_Instance, "placements", property(refuse))
    monkeypatch.setattr(_Instance, "by_cov", property(refuse))
    with monkeypatch.context() as packing:
        for name in ("attackers", "occupants", "planes", "by_att"):
            packing.setattr(_Instance, name, property(refuse))
        res = exact_max_packing(GridParams(3, 3, 2))
        assert (res.exact, res.optimum) == (True, 10)
        res = exact_max_packing(GridParams(6, 4, 2), SolverBudget(2_000, 1e9))
        assert (res.exact, res.lower_bound, res.upper_bound) == (False, 216, 370)
        res = exact_max_packing(GridParams(40, 3, 1), SolverBudget(5_000, 1e9))
        assert (res.lower_bound, res.upper_bound, res.stats.stop_reason) == (1_600, 4_571, "depth")
        assert check_witness(res.mode, res.witness, 1_600)
    res = exact_max_two_packing(GridParams(3, 3, 2))
    assert (res.exact, res.optimum) == (True, 4)
    res = exact_max_two_packing(GridParams(6, 4, 2), budget=SolverBudget(2_000, 1e9))
    assert (res.exact, res.lower_bound, res.upper_bound) == (False, 61, 117)
    res = exact_max_two_packing(GridParams(30, 3, 2), budget=SolverBudget(2_000, 1e9))
    assert (res.exact, res.lower_bound, res.upper_bound) == (False, 58, 90)
    assert check_witness(res.mode, res.witness, 58)


def test_root_closing_coverings_never_build_the_coverage_table(monkeypatch):
    # where the modular diagonal meets covering_lower (every l = 1 grid,
    # where n^(k-1) is the sphere bound, and every a(n,2,2), where it is
    # Rodemich's) the solve closes at the root before the greedy runs or
    # any table is built: a(40,3,1)'s by_cov alone would take gigabytes
    def refuse(inst):
        pytest.fail(f"a covering of {inst.g} closing at the root built a coverage table")

    monkeypatch.setattr(_Instance, "placements", property(refuse))
    monkeypatch.setattr(_Instance, "by_cov", property(refuse))
    for nkl, value, budget in [((40, 3, 1), 1_600, None), ((100, 2, 2), 100, None),
                               ((7, 3, 1), 49, SolverBudget(max_nodes=0))]:
        res = exact_min_covering(GridParams(*nkl), budget)
        assert (res.exact, res.optimum) == (True, value), nkl
        assert verify_covering(res.witness).valid and len(res.witness) == value, nkl


def test_closed_form_families_close_at_the_root(monkeypatch):
    # b(n,2,1), a(n,3,3), b(2,k,l) with (k - l)^2 < k, and at n = 2 and
    # k = 2^m - 1 a(2,k,k), c(2,k,k) closed and b(2,k,1) each have a
    # closed-form seed meeting the solve's own bound, so the solve ends at
    # its root before any table, greedy, cap, memo or value orbit is built
    def refuse(*args):
        pytest.fail("a solve closing at the root built a table")

    monkeypatch.setattr(_Instance, "placements", property(refuse))
    monkeypatch.setattr(_Instance, "by_cov", property(refuse))
    for name in ("_ValueOrbits", "_Memo", "_greedy_covering", "_PointPacking", "_reach_cap"):
        monkeypatch.setattr(solve_module, name, refuse)
    runs = [(exact_max_packing, (n, 2, 1), 2 * n - 2) for n in range(2, 201)]
    runs += [(exact_min_covering, (n, 3, 3), -(-n * n // 2)) for n in range(1, 41)]
    # Huang's hypercube bound, met by the even-weight points
    runs += [(exact_max_packing, (2, k, l), 2 ** (k - 1))
             for k in range(1, 16) for l in range(1, k + 1) if (k - l) ** 2 < k]
    for k in (3, 7, 15):
        code = 2 ** k // (k + 1)
        runs += [(exact_min_covering, (2, k, k), code), (exact_max_two_packing, (2, k, k), code),
                 (exact_max_packing, (2, k, 1), 2 ** k - code)]
    for solve, nkl, value in runs:
        res = solve(GridParams(*nkl))
        assert (res.exact, res.optimum, res.stats.nodes) == (True, value, 1), (solve, nkl)
        assert check_witness(res.mode, res.witness, value), (solve, nkl)


def test_literature_values_at_l_equal_k():
    # at l = k a rook covers the radius-1 Hamming ball about its point, so
    # a(n,k,k) is the covering code size K_n(k,1), and c(n,k,k) closed the
    # code size A_n(k,3), as two balls are disjoint iff their centres are
    # 3 apart; at n = 2 the points off a packing of 1-rooks dominate the
    # cube, so b(2,k,1) = 2^k - K_2(k,1) (Cohen, Honkala, Litsyn and
    # Lobstein, Covering Codes, 1997).  On every binary and ternary grid
    # with n^k <= 243, an exact value is the listed one and a capped
    # bracket holds it
    budget = SolverBudget(10_000, 1e9)
    tables = {2: ([1, 2, 2, 4, 7, 12, 16], [1, 1, 2, 2, 4, 8, 16]),
              3: ([1, 3, 5, 9, 27], [1, 1, 3, 9, 18])}
    exact = 0
    for n, (K, A) in tables.items():
        for k, (cover, code) in enumerate(zip(K, A), 1):
            g = GridParams(n, k, k)
            runs = [(exact_min_covering(g, budget), cover)]
            if k >= 2:
                runs.append((exact_max_two_packing(g, "closed", budget), code))
            if n == 2:
                runs.append((exact_max_packing(GridParams(2, k, 1), budget), 2 ** k - cover))
            for res, value in runs:
                assert res.lower_bound <= value <= res.upper_bound, (res.mode, n, k)
                assert not res.exact or res.optimum == value, (res.mode, n, k)
                exact += res.exact
    assert exact == 25


def _greedy_grids():
    """Every grid with n^k <= 729 whose covering solve runs the greedy
    (its diagonal of n^(k-1) rooks exceeds covering_lower), every one with
    k = 1 or l = k, and the one-point grids with k <= 3."""
    grids = [(1, k, l) for k in range(1, 4) for l in range(1, k + 1)]
    for k in range(1, 10):
        n = 2
        while n ** k <= 729:
            for l in range(1, k + 1):
                if n ** (k - 1) > covering_lower(GridParams(n, k, l))[0] or k == 1 or l == k:
                    grids.append((n, k, l))
            n += 1
    return grids


def test_greedy_covering_matches_a_reference_greedy():
    # each step of the reference rescores every placement at a free point
    # and takes the most uncovered points, the lowest index on ties; a
    # digest of all the seeds pins them, as the covering trees start there
    digest = hashlib.sha256()
    for n, k, l in _greedy_grids():
        inst = _Instance(GridParams(n, k, l))
        covs, D = inst.placements, inst.D
        uncovered, live, expected = inst.full, list(range(len(covs))), []
        while uncovered:
            gains = [(covs[i] & uncovered).bit_count() for i in live]
            i = live[gains.index(max(gains))]  # live is in index order
            expected.append(i)
            at = bisect_left(live, i // D * D)
            del live[at:at + D]  # the D placements at i's point
            uncovered &= ~covs[i]
        seed = _greedy_covering(inst)
        assert seed == expected, (n, k, l)
        digest.update(f"{n},{k},{l}:{seed}\n".encode())
    assert digest.hexdigest() == (
        "76b38b83c1251c635c09cce09a49b428289ffc02e3ad91c734b16d4cab81329d")
    # on H(4,6) with l = 4 (too big for the reference) some step would
    # take a placement at a used point if the greedy let it: it must
    # cover the grid from distinct points all the same
    inst = _Instance(GridParams(4, 6, 4))
    seed = _greedy_covering(inst)
    assert len({i // inst.D for i in seed}) == len(seed) == 442
    assert verify_covering(inst.config(seed)).valid
    assert hashlib.sha256(repr(seed).encode()).hexdigest() == (
        "5f78811073b42cda1605b98d1481fec57732c09743a85c85fbf1d3f584e6a445")


def test_reaching_tables_match_coordinates():
    # bit j of by_cov[u] (by_att[u]) is set iff placement j covers
    # (attacks) point u, on every grid with n^k <= 64 and on some with up
    # to 256 points
    grids = [(n, k, l) for k in range(1, 7) for n in range(1, 65) if n ** k <= 64
             for l in range(1, k + 1)]
    for n, k, l in grids + [(256, 1, 1), (16, 2, 2), (6, 3, 3), (4, 4, 4), (2, 8, 8)]:
        g = GridParams(n, k, l)
        inst = _Instance(g)
        rooks = [Rook(p, d) for p in inst.points for d in inst.dirsets]
        for u, p in enumerate(inst.points):
            by_cov, by_att = inst.by_cov[u], inst.by_att[u]
            for j, r in enumerate(rooks):
                assert (by_cov >> j & 1, by_att >> j & 1) == (covers(r, p, g), attacks(r, p, g)), (
                    g, u, j)


def test_placement_masks_match_coordinates():
    # the placement table against core.config_coverage of each one-rook
    # configuration, on every grid with n^k <= 64 (n = 1, k = 1 and l = k
    # included): looked up in a seeded random order, its length, and its
    # iteration, which runs in index order whatever order filled it; and
    # the strict two-packing cap against one over a full list of the masks
    rng = random.Random(35)
    grids = [(n, k, l) for k in range(1, 7) for n in range(1, 65) if n ** k <= 64
             for l in range(1, k + 1)]
    for n, k, l in grids:
        g = GridParams(n, k, l)
        inst = _Instance(g)
        P, D = n ** k * math.comb(k, l), inst.D
        want = [config_coverage(Configuration(g, [Rook(inst.points[i // D], inst.dirsets[i % D])])).bits
                for i in range(P)]
        assert len(inst.placements) == P, (n, k, l)
        order = rng.sample(range(P), P // 2)
        assert [inst.placements[i] for i in order] == [want[i] for i in order], (n, k, l)
        assert list(inst.placements) == want and len(inst.placements) == P, (n, k, l)
        if l >= 2 and n >= 2:  # a strict two-packing with n = 1 closes at its root
            masks = [cov ^ 1 << i // D for i, cov in enumerate(want)]
            unit = l * (n - 1)
            cap = _unit_cap(_Instance(g), unit)  # on a table no lookup has filled
            for _ in range(6):
                # sparse and dense sets, for both of the cap's branches
                cands = rng.getrandbits(P) & rng.getrandbits(P) & rng.getrandbits(P)
                if rng.random() < 0.5:
                    cands = rng.getrandbits(P) | rng.getrandbits(P)
                ref = 0
                for i in range(P):
                    if cands >> i & 1:
                        ref |= masks[i]
                assert cap(cands) == ref.bit_count() // unit, (n, k, l, cands)


def test_capped_coverings_build_few_placement_masks(monkeypatch):
    # the placement table is filled on first lookup, so a capped covering
    # builds the coverage ints of the rooks it tries and picks only: well
    # under a tenth of a(10,3,2)'s 3,000 and a(6,4,3)'s 5,184
    tables = []

    class Recorded(solve_module._Table):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(solve_module, "_Table", Recorded)
    for nkl, size in [((10, 3, 2), 3_000), ((6, 4, 3), 5_184)]:
        tables.clear()
        res = exact_min_covering(GridParams(*nkl), SolverBudget(2_000))
        assert res.stats.nodes == 2_001 and check_witness(res.mode, res.witness, res.upper_bound)
        [table] = tables
        built = size - table.entries.count(0)
        assert len(table) == size and 0 < built <= size // 10, (nkl, built)


def test_solver_matches_oracles():
    grids = [
        (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (4, 2, 2),
        (2, 3, 2), (2, 3, 3), (3, 3, 3), (4, 2, 1), (2, 3, 1),
        (1, 2, 2), (1, 3, 2),
    ]
    for n, k, l in grids:
        g = GridParams(n, k, l)
        a = exact_min_covering(g)
        assert a.exact
        oracle_a = enumerate_min_covering(g, max_size=a.optimum)
        assert oracle_a == a.optimum
        b = exact_max_packing(g)
        assert b.exact and b.optimum == enumerate_max_packing(g)
        if l >= 2:
            for mode in ("closed", "strict"):
                c = exact_max_two_packing(g, mode)
                assert c.exact and c.optimum == enumerate_max_two_packing(g, mode)
    assert enumerate_min_covering(GridParams(3, 2, 1), max_size=2) is None  # a(3,2,1) = 3


def test_conflict_masks_match_coordinates():
    # every conflict mask of the two-packing kernels against the oracles'
    # clash sets, which core.covers decides point by point, on each grid
    # with n^k <= 64, n = 1 included
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                inst = _Instance(g)
                rooks = _oracle_rooks(g)
                P, D = len(inst.placements), inst.D
                assert [(r.rook.point, r.rook.dirs) for r in rooks] == [
                    (inst.points[i // D], frozenset(inst.dirsets[i % D])) for i in range(P)
                ]
                for mode, conflicts in _CONFLICTS.items():
                    if l >= 2:
                        want = [sum(map((1).__lshift__, c)) for c in _oracle_clashes(rooks, mode)]
                        got = [conflicts(inst, i) for i in range(P)]
                        assert got == want, (g, mode)


def test_value_orbit_masks_match_coordinates():
    # the direction-set and (axis, value-set) masks of orbital branching
    # against the placements' own coordinates, n = 1 and l = k included
    for n, k, l in [(1, 2, 1), (2, 3, 2), (3, 2, 1), (4, 3, 3), (3, 3, 2), (5, 2, 2)]:
        inst = _Instance(GridParams(n, k, l))
        orbits = _ValueOrbits(inst, inst.D)
        at_dirs, at_values = orbits.at_dirs, orbits.at_values
        P, D = len(inst.placements), inst.D
        for j, d in enumerate(inst.dirsets):
            assert at_dirs[j] == sum(1 << i for i in range(P) if inst.dirsets[i % D] == d)
        for a in range(k):
            for vals in range(1 << n):
                want = sum(1 << i for i in range(P) if vals >> inst.points[i // D][a] & 1)
                assert at_values[a][vals] == want, (n, k, l, a, vals)


def test_packed_value_state_matches_value_sets():
    # the searches' packed unused values (n bits per axis) against per-axis
    # value sets, on seeded random (unused values, point) pairs: ptmask,
    # the orbital flag, and the orbits of the three searches (the point
    # search's at D = 1), n = 1 and k = 1 included
    rng = random.Random(2011)
    for n in range(1, 6):
        for k in range(1, 5):
            for l in sorted({1, (k + 1) // 2, k}):
                inst = _Instance(GridParams(n, k, l))
                orbits, by_point = _ValueOrbits(inst, inst.D), _ValueOrbits(inst, 1)
                P, D, points, dirsets = len(inst.placements), inst.D, inst.points, inst.dirsets
                for _ in range(8):
                    unused = [{v for v in range(n) if rng.random() < 0.6} for _ in range(k)]
                    free = sum(1 << a * n + v for a in range(k) for v in unused[a])
                    pidx = rng.randrange(inst.npts)
                    p = points[pidx]
                    assert orbits.ptmask[pidx] == sum(1 << a * n + x for a, x in enumerate(p))
                    assert orbits.orbital[free] == any(len(u) >= 2 for u in unused)
                    # covering: a candidate off p on p's axis-a line stands for
                    # its direction set at every spare value of that line
                    spare = [u - {x} for u, x in zip(unused, p)]
                    packed_spare = free & ~orbits.ptmask[pidx]
                    assert orbits.orbital[packed_spare] == any(len(s) >= 2 for s in spare)
                    for i in range(P):
                        q = points[i // D]
                        off = [a for a in range(k) if q[a] != p[a]]
                        if len(off) > 1 or off and off[0] not in dirsets[i % D]:
                            continue  # not a candidate for p
                        want = 0
                        if off and q[off[0]] in spare[off[0]] and len(spare[off[0]]) >= 2:
                            a = off[0]
                            want = sum(1 << r for r in range(P) if r % D == i % D
                                       and points[r // D][a] in spare[a]
                                       and all(points[r // D][b] == p[b] for b in range(k) if b != a))
                        assert orbits.cover_orbit(packed_spare, pidx, i) == want, (n, k, l)
                    # packing: a head keeps its values that are used and ranges
                    # over the unused ones
                    for head in rng.sample(range(P), min(4, P)):
                        q = points[head // D]
                        want = sum(1 << r for r in range(P) if r % D == head % D and all(
                            points[r // D][a] in unused[a] if q[a] in unused[a]
                            else points[r // D][a] == q[a] for a in range(k)))
                        assert orbits.pack_orbit(free, head) == want, (n, k, l)
                        want = sum(1 << r for r, x in enumerate(points) if all(
                            x[a] in unused[a] if q[a] in unused[a] else x[a] == q[a]
                            for a in range(k)))
                        assert by_point.pack_orbit(free, head // D) == want, (n, k, l)


def test_point_packing_kernel_matches_coordinates():
    # the point search's state after each point of seeded random packings
    # S joins, against coordinates: the candidates are the points p off S
    # for which verify_packing accepts S + p, each point along its lowest l
    # lonely axes; (lines, cliques) are the empty lines holding a candidate
    # and the (axis a, point q) cliques meeting the candidates (q is one,
    # or lies on an empty axis-a line holding one), from core.covers; and
    # the witness rule gives S as a packing; n = 1, k = 1 and l = k included
    rng = random.Random(34)
    grids = [(1, 1, 1), (1, 3, 2), (6, 1, 1), (3, 2, 1), (4, 2, 2), (8, 2, 1), (2, 3, 1),
             (3, 3, 2), (3, 3, 3), (4, 3, 1), (2, 4, 2), (2, 4, 4), (2, 5, 3), (2, 6, 4)]
    for n, k, l in grids:
        g = GridParams(n, k, l)
        inst = _Instance(g)
        points, full, everywhere = inst.points, inst.full, range(inst.npts)
        # on_line[i][a]: the points on point i's axis-a line, by core.covers
        on_line = [[{j for j, q in enumerate(points) if covers(Rook(p, (a,)), q, g)}
                    for a in range(k)] for p in points]

        def as_rooks(ids):
            # each point along its lowest l lonely axes, topped up with its
            # lowest other axes where it has fewer
            rooks = []
            for i in ids:
                lonely = [a for a in range(k) if not on_line[i][a] & set(ids) - {i}]
                rooks.append(Rook(points[i], (lonely + [a for a in range(k) if a not in lonely])[:l]))
            return Configuration(g, rooks)

        for _ in range(3):
            kernel = _PointPacking(inst)
            cands, *state = kernel.root
            chosen = []
            while cands:
                p = rng.choice([i for i in everywhere if cands >> i & 1])
                chosen.append(p)
                cands, *state, _ = kernel.include(p, full ^ state[0] ^ 1 << p, *state)
                want = [i for i in everywhere
                        if i not in chosen and verify_packing(as_rooks(chosen + [i])).valid]
                assert [i for i in everywhere if cands >> i & 1] == want, (g, chosen)
                # (axis, candidate) pairs whose line holds no point of S
                free = [(a, i) for a in range(k) for i in want if not on_line[i][a] & set(chosen)]
                lines = {(a, min(on_line[i][a])) for a, i in free}
                cliques = {(a, q) for a in range(k) for q in want}
                cliques |= {(a, q) for a, i in free for q in on_line[i][a]}
                assert kernel.counts(cands, state[1]) == (len(lines), len(cliques)), (g, chosen)
                witness = inst.config(kernel.witness(chosen, state[2]))
                assert witness == as_rooks(chosen) and verify_packing(witness).valid, (g, chosen)


def test_reach_cap_matches_coordinates():
    # the closed two-packing cap's count, at unit 1, against the points
    # that core.covers finds rook by rook, on seeded random candidate sets;
    # n = 1, k = 1, l = k and one direction set per point included
    rng = random.Random(29)
    grids = [(1, 1, 1), (1, 3, 2), (6, 1, 1), (3, 2, 1), (4, 2, 2), (2, 3, 1),
             (3, 3, 2), (2, 4, 2), (2, 4, 4), (3, 4, 2), (2, 5, 3)]
    for n, k, l in grids:
        g = GridParams(n, k, l)
        inst = _Instance(g)
        reach = _reach_cap(inst, 1)
        D, P = inst.D, inst.npts * inst.D
        rooks = [Rook(inst.points[i // D], inst.dirsets[i % D]) for i in range(P)]
        covered = [{q for q in inst.points if covers(r, q, g)} for r in rooks]
        for density in (0.0, 0.02, 0.1, 0.5, 1.0):
            for _ in range(4):
                chosen = [i for i in range(P) if rng.random() < density]
                want = len(set().union(*(covered[i] for i in chosen)))
                assert reach(sum(1 << i for i in chosen)) == want, (g, chosen)


def test_incidence_bound_b_counting_proof():
    # on every grid with n^k <= 64, the k n^k (line, point) cliques built
    # from coordinates are cliques of the oracles' packing clashes, and
    # every rook lies in exactly l(n-1)+k of them: so no packing beats
    # incidence_bound_b; the oracle optimum stays below it where it is quick
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                rooks = _oracle_rooks(g)
                clashes = _oracle_clashes(rooks, "max_pack")
                members = {}
                for i, r in enumerate(rooks):
                    p = r.rook.point
                    met = {(a, p) for a in range(k)}
                    met |= {(a, p[:a] + (v,) + p[a + 1 :]) for a in r.rook.dirs for v in range(n)}
                    assert len(met) == l * (n - 1) + k
                    for c in met:
                        members.setdefault(c, set()).add(i)
                assert len(members) == k * n ** k
                for clique in members.values():
                    assert all(clique <= clashes[i] for i in clique), g
                bound = incidence_bound_b(g)
                assert bound == Fraction(k * n ** k, l * (n - 1) + k)
                assert bound <= singleton_bound_b(g)
                assert (bound < singleton_bound_b(g)) == (l < k)
    for n, k, l in [(2, 2, 1), (3, 2, 1), (4, 2, 1), (5, 2, 1), (3, 2, 2), (2, 3, 1),
                    (2, 3, 2), (2, 3, 3), (3, 3, 3), (4, 2, 2), (1, 3, 2)]:
        g = GridParams(n, k, l)
        assert enumerate_max_packing(g) <= incidence_bound_b(g)


def test_encode_ilp_max_pack_cliques_are_the_clashes():
    # two placements share a row of the clique model iff they clash in the
    # oracles, on every grid with n^k <= 64; k n^k rows
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                buf = io.StringIO()
                summary = encode_ilp(g, "max_pack", buf)
                assert summary["constraints"] == k * n ** k
                inst = _Instance(g)
                D = inst.D
                var = {f"y_{i // D}_{sum(1 << a for a in inst.dirsets[i % D])}": i
                       for i in range(len(inst.placements))}
                share = [{i} for i in range(len(var))]
                for row in re.findall(r"^ clique_\d+_\d+: (.*) <= 1$", buf.getvalue(), re.M):
                    ids = {var[name] for name in row.split(" + ")}
                    for i in ids:
                        share[i] |= ids
                assert share == [set(c) for c in _oracle_clashes(_oracle_rooks(g), "max_pack")], g


def test_encode_ilp_cover_rows_are_coverage():
    # each cover_p row of min_cover and cover2_p row of max_two_pack names
    # exactly the placements that core.covers says reach p, on every grid
    # with n^k <= 64; n^k rows
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                inst = _Instance(g)
                D = inst.D
                names = [(f"y_{i // D}_{sum(1 << a for a in inst.dirsets[i % D])}",
                          Rook(inst.points[i // D], inst.dirsets[i % D]))
                         for i in range(len(inst.placements))]
                for mode, row, sense in (("min_cover", "cover", ">="),
                                         ("max_two_pack", "cover2", "<=")):
                    buf = io.StringIO()
                    assert encode_ilp(g, mode, buf)["constraints"] == n ** k
                    rows = re.findall(rf"^ {row}_(\d+): (.*) {sense} 1$", buf.getvalue(), re.M)
                    assert [int(p) for p, _ in rows] == list(range(n ** k)), (g, mode)
                    for p, terms in rows:
                        q = inst.points[int(p)]
                        want = [name for name, r in names if covers(r, q, g)]
                        assert terms.split(" + ") == want, (g, mode, p)


def test_capped_result_with_meeting_bounds_is_exact():
    # the greedy seeds of c(5,3,3) and c(4,2,2) meet the plane bound, so a
    # node cap that trips later has still proved the optimum
    res = exact_max_two_packing(GridParams(5, 3, 3), "closed", SolverBudget(max_nodes=100))
    assert (res.exact, res.optimum, res.lower_bound, res.upper_bound) == (True, 5, 5, 5)
    assert check_witness(res.mode, res.witness, 5)
    res = exact_max_two_packing(GridParams(4, 2, 2), "closed", SolverBudget(max_nodes=0))
    assert (res.exact, res.optimum) == (True, 1)
    # and the search stops there instead of running to the cap
    res = exact_max_two_packing(GridParams(5, 3, 3), "closed", SolverBudget(max_nodes=60_000))
    assert (res.exact, res.optimum) == (True, 5) and res.stats.nodes < 100
    # N = 0 closes the bracket at (0, 0) before any node, so a run cut
    # at its first node is exact too, with the empty witness
    for g in (GridParams(2, 2, 1), GridParams(3, 3, 2)):
        for cap in (0, 1):
            res = exact_max_coverage(g, 0, SolverBudget(max_nodes=cap))
            assert (res.exact, res.optimum, res.lower_bound, res.upper_bound) == (True, 0, 0, 0)
            assert (res.stats.nodes, len(res.witness)) == (1, 0), (g, cap)
            assert check_witness(res.mode, res.witness, 0, N=0)


def test_capped_closed_two_packing_reports_sphere_bound():
    # closed coverage sets of a two-packing are disjoint, so a capped run
    # reports min(plane bound, n^k // ball): 16 for c(3,4,2), not 54
    res = exact_max_two_packing(GridParams(3, 4, 2), "closed", SolverBudget(1_000, 1e9))
    assert (res.exact, res.lower_bound, res.upper_bound) == (False, 13, 16)
    assert check_witness(res.mode, res.witness, 13)


def _rooks(res):
    return [(r.point, tuple(sorted(r.dirs))) for r in res.witness.rooks]


def test_packing_search_tree_pinned():
    # node and pruned counts and witnesses of the include/exclude search:
    # a kernel change that reshapes the tree shows up here
    b = exact_max_packing(GridParams(3, 3, 2))
    assert (b.stats.nodes, b.stats.pruned, b.optimum) == (103, 49, 10)
    assert _rooks(b) == [
        ((0, 0, 0), (0, 1)), ((0, 0, 1), (0, 1)), ((0, 1, 2), (0, 2)),
        ((0, 2, 2), (0, 2)), ((1, 0, 2), (1, 2)), ((1, 1, 0), (0, 1)),
        ((1, 1, 1), (0, 1)), ((2, 0, 2), (1, 2)), ((2, 2, 0), (0, 1)),
        ((2, 2, 1), (0, 1)),
    ]
    closed = exact_max_two_packing(GridParams(3, 3, 2), "closed")
    assert (closed.stats.nodes, closed.stats.pruned, closed.optimum) == (45, 13, 4)
    assert _rooks(closed) == [
        ((0, 0, 0), (0, 1)), ((0, 0, 1), (0, 1)), ((1, 1, 2), (0, 2)), ((1, 2, 2), (0, 2)),
    ]
    strict = exact_max_two_packing(GridParams(3, 3, 2), "strict")
    assert (strict.stats.nodes, strict.stats.pruned, strict.optimum) == (31, 5, 6)
    assert _rooks(strict) == [
        ((0, 0, 0), (0, 1)), ((0, 0, 1), (0, 1)), ((1, 1, 2), (0, 2)),
        ((1, 2, 2), (1, 2)), ((2, 1, 2), (1, 2)), ((2, 2, 2), (0, 2)),
    ]
    # the clique bound is 2n - 2, which the L-shaped seed meets: b(n, 2, 1)
    # closes at the root
    for n in range(4, 21):
        res = exact_max_packing(GridParams(n, 2, 1))
        assert (res.stats.nodes, res.stats.pruned, res.optimum) == (1, 0, 2 * n - 2)
    assert _rooks(exact_max_packing(GridParams(4, 2, 1))) == [
        ((0, 1), (0,)), ((0, 2), (0,)), ((0, 3), (0,)),
        ((1, 0), (1,)), ((2, 0), (1,)), ((3, 0), (1,)),
    ]
    capped = exact_max_packing(GridParams(12, 2, 1), SolverBudget(60_000, 1e9))
    assert (capped.exact, capped.lower_bound, capped.upper_bound) == (True, 22, 22)
    assert len(capped.witness) == 22
    capped = exact_max_packing(GridParams(3, 3, 1), SolverBudget(100_000, 1e9))
    assert (capped.stats.nodes, capped.exact, capped.optimum) == (269, True, 15)
    assert check_witness(capped.mode, capped.witness, 15)
    # the even-weight seed of b(2,7,5) meets Huang's hypercube bound 2^(k-1)
    res = exact_max_packing(GridParams(2, 7, 5), SolverBudget(20_000, 1e9))
    assert (res.exact, res.optimum, res.stats.nodes) == (True, 64, 1)
    assert check_witness(res.mode, res.witness, 64)
    # value orbits close c(5,3,2) well inside a 100,000-node cap
    res = exact_max_two_packing(GridParams(5, 3, 2), "closed", SolverBudget(100_000, 1e9))
    assert (res.exact, res.optimum, res.stats.nodes) == (True, 9, 1_255)
    assert check_witness(res.mode, res.witness, 9)


def test_covering_search_tree_pinned():
    # node and pruned counts of the covering search: sibling exclusion,
    # orbital branching, the bound test with its fresh-gain buckets, the
    # greedy seed and the stop at covering_lower each reshape these trees.
    # a(2,6,3) = 16 is the sphere bound, so its search stops at the first
    # 16-rook covering (1,033 nodes if it stops only below the bound)
    for nkl, counts in [((3, 3, 2), (10_650, 9_607, 7)), ((2, 6, 3), (401, 384, 16))]:
        res = exact_min_covering(GridParams(*nkl))
        assert (res.stats.nodes, res.stats.pruned, res.optimum) == counts, nkl
    capped = exact_min_covering(GridParams(4, 3, 2), SolverBudget(1_000_000, 1e9))
    assert (capped.exact, capped.lower_bound, capped.upper_bound) == (False, 10, 12)
    assert (capped.stats.nodes, capped.stats.pruned) == (1_000_001, 930_011)
    assert check_witness(capped.mode, capped.witness, 12)
    # the capped covering solves of the benchmark's capped-sweep
    for nkl, counts in [((10, 3, 2), (2_001, 1_891)), ((6, 4, 3), (2_001, 1_878))]:
        res = exact_min_covering(GridParams(*nkl), SolverBudget(2_000, 1e9))
        assert (res.stats.nodes, res.stats.pruned) == counts, nkl
    # the seed meets covering_lower, which proves it at the root: the
    # sphere bound for the first two, Rodemich's for the others
    for nkl, value in [((2, 7, 7), 16), ((3, 4, 4), 9), ((4, 3, 3), 8), ((6, 3, 3), 18)] + [
            ((n, 2, 2), n) for n in range(3, 16)]:
        res = exact_min_covering(GridParams(*nkl))
        assert (res.exact, res.optimum, res.stats.nodes) == (True, value, 1), nkl
        assert check_witness(res.mode, res.witness, value)


def test_covering_lower_against_exact_optima():
    # on every grid with n^k <= 64: covering_lower is at most every
    # covering the search returns, an enumeration finds no smaller
    # covering wherever that is affordable, and wherever the search
    # closes at the root, its optimum is covering_lower
    budget = SolverBudget(200_000, 1e9)
    enumerated = at_root = 0
    for g in _small_grids():
        lower, _ = covering_lower(g)
        res = exact_min_covering(g, budget)
        assert lower <= res.upper_bound, g
        if res.stats.nodes == 1:
            at_root += 1
            assert res.exact and res.optimum == lower, g
        P = g.num_points * math.comb(g.k, g.l)
        if sum(math.comb(P, s) * max(s, 1) for s in range(lower)) <= 3_000_000:
            enumerated += 1
            assert enumerate_min_covering(g, max_size=lower - 1) is None, g
    assert (enumerated, at_root) == (100, 113)


def test_covering_trees_pinned_at_budget_edges():
    # (nodes, pruned, exact, lower, upper, witness) of every covering solve
    # on the grids with n^k <= 64, at node caps around 0, 50 and the
    # clock's 4,096-node period: a search that counts pruned children in
    # bulk must stop exactly where one tick per child did
    digest = hashlib.sha256()
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                for cap in (0, 1, 50, 4_095, 4_096, 4_097, 200_000):
                    res = exact_min_covering(GridParams(n, k, l), SolverBudget(cap, 1e9))
                    rooks = None if res.witness is None else tuple(
                        (r.point, tuple(sorted(r.dirs))) for r in res.witness.rooks)
                    digest.update(repr((res.stats.nodes, res.stats.pruned, res.exact,
                                        res.lower_bound, res.upper_bound, rooks)).encode())
    assert digest.hexdigest() == (
        "115e040b56f2251572fbc499f22cecb7266b0471886735b89d753eec7c91a825")


def _small_grids(low=0, high=64):
    """Every grid with low < n^k <= high."""
    return [GridParams(n, k, l) for k in range(1, high.bit_length())
            for n in range(1, high + 1) if low < n ** k <= high for l in range(1, k + 1)]


def test_covering_trees_pinned_past_64_points():
    # (nodes, pruned, exact, lower, upper, witness) of every covering solve
    # on the 84 grids with 64 < n^k <= 128, at caps one past the clock's
    # first two edges
    grids = _small_grids(64, 128)
    assert len(grids) == 84
    digest = hashlib.sha256()
    for g in grids:
        for cap in (4_097, 8_193):
            res = exact_min_covering(g, SolverBudget(cap, 1e9))
            rooks = None if res.witness is None else tuple(
                (r.point, tuple(sorted(r.dirs))) for r in res.witness.rooks)
            digest.update(repr((res.stats.nodes, res.stats.pruned, res.exact,
                                res.lower_bound, res.upper_bound, rooks)).encode())
    assert digest.hexdigest() == (
        "c5f5352796ca71bfbb36942cfa560c2451b65a9a480f50a812ed9637fa42d1c7")


def test_covering_optima_and_witnesses_pinned():
    # (grid, optimum, witness) of every covering solve on the grids with
    # n^k <= 64 that is exact at 200k nodes; no node counts, so a sharper
    # bound that prunes more must leave this digest as it is
    digest = hashlib.sha256()
    for g in _small_grids():
        res = exact_min_covering(g, SolverBudget(200_000, 1e9))
        if res.exact:
            rooks = tuple((r.point, tuple(sorted(r.dirs))) for r in res.witness.rooks)
            digest.update(repr(((g.n, g.k, g.l), res.optimum, rooks)).encode())
    assert digest.hexdigest() == (
        "c6a07298f469707b573afd14f65410a7d89c3d9a6598379b6cdba986c3ca1eab")


def test_covering_node_cap_stops_one_past_the_cap():
    # at every cap c from 4,090 to 4,101 and from 8,186 to 8,197 below a
    # tree's size, the search stops on node c + 1, and one more node of cap
    # books at most one more pruned child: a pruned run counted in bulk
    # stops where one tick per child would, also across the clock's first
    # two 4,096-node edges
    for g in _small_grids():
        size = exact_min_covering(g, SolverBudget(200_000, 1e9)).stats.nodes
        for caps in (range(4_090, 4_102), range(8_186, 8_198)):
            pruned = []
            for cap in (c for c in caps if c < size):
                res = exact_min_covering(g, SolverBudget(cap, 1e9))
                assert (res.stats.nodes, res.stats.stop_reason) == (cap + 1, "node_cap"), (g, cap)
                pruned.append(res.stats.pruned)
            assert all(b - a in (0, 1) for a, b in zip(pruned, pruned[1:])), (g, pruned)


def test_bucketed_fresh_gains_bound_the_best_ones():
    # at random states the covering search can reach (rooks at distinct
    # points, their covered points, and live: the placements off those
    # points less some searched siblings), the left largest fresh gains
    # ball - |cov & covered| among live, from core.coverage_mask, sum to
    # at most what the bucketed bound allows, for every left
    rng = random.Random(16)
    for n, k, l in [(2, 3, 1), (3, 2, 2), (3, 3, 2), (4, 3, 2), (2, 5, 3), (4, 3, 3), (8, 2, 1)]:
        g = GridParams(n, k, l)
        dirsets = list(combinations(range(k), l))
        D, ball = len(dirsets), g.ball
        covs = [coverage_mask(Rook(p, d), g) for p in product(range(n), repeat=k) for d in dirsets]
        for _ in range(40):
            points = rng.sample(range(n ** k), rng.randrange(1, n ** k))
            covered = 0
            for p in points:
                covered |= covs[p * D + rng.randrange(D)]
            live = [i for i in range(len(covs)) if i // D not in points and rng.random() < 0.8]
            gains = sorted((ball - (covs[i] & covered).bit_count() for i in live), reverse=True)
            mask = sum(1 << i for i in live)
            o0 = sum(1 << i for i, cov in enumerate(covs) if (cov & covered).bit_count() >= 1)
            o1 = sum(1 << i for i, cov in enumerate(covs) if (cov & covered).bit_count() >= 2)
            for left in range(1, len(live) + 1):
                bucketed = left * ball - _gain_deficit(left, mask, o0, o1)
                assert sum(gains[:left]) <= bucketed, (g, points, left)


def test_overlap_update_matches_coordinates():
    # at random states the covering search can reach, a live placement i
    # grows o0 and o1, the placements whose coverage meets covered in at
    # least one and two points (from core.coverage_mask), into those
    # meeting covered | cov_i so; one memo serves every state of a grid,
    # and a second lookup of the same fresh points reads it back
    rng = random.Random(19)
    for n, k, l in [(2, 3, 1), (3, 2, 2), (3, 3, 2), (4, 3, 2), (2, 5, 3), (4, 3, 3), (8, 2, 1)]:
        g = GridParams(n, k, l)
        dirsets = list(combinations(range(k), l))
        D = len(dirsets)
        covs = [coverage_mask(Rook(p, d), g) for p in product(range(n), repeat=k) for d in dirsets]

        def meeting(points, at_least):
            return sum(1 << j for j, cov in enumerate(covs) if (cov & points).bit_count() >= at_least)

        update = _overlap_update(_Instance(g).by_cov)
        for _ in range(40):
            points = rng.sample(range(n ** k), rng.randrange(1, n ** k))
            covered = 0
            for p in points:
                covered |= covs[p * D + rng.randrange(D)]
            live = [i for i in range(len(covs)) if i // D not in points and rng.random() < 0.8]
            if not live:
                continue
            i = rng.choice(live)
            o0, o1 = meeting(covered, 1), meeting(covered, 2)
            grown = (meeting(covered | covs[i], 1), meeting(covered | covs[i], 2))
            for _ in range(2):
                assert update(o0, o1, covs[i] & ~covered) == grown, (g, points, i)


def test_packing_trees_pinned_at_budget_edges():
    # (nodes, pruned, exact, lower, upper, witness) of every packing and
    # two-packing solve on the grids with n^k <= 64, at node caps around 0,
    # 50 and the clock's 4,096-node period: a change to the search state
    # must leave every tree and every capped result as it was
    digest = hashlib.sha256()
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                for cap in (0, 1, 50, 4_095, 4_096, 4_097, 20_000):
                    budget = SolverBudget(cap, 1e9)
                    runs = [exact_max_packing(g, budget)]
                    if l >= 2:
                        runs += [exact_max_two_packing(g, two, budget) for two in ("closed", "strict")]
                    for res in runs:
                        rooks = None if res.witness is None else tuple(
                            (r.point, tuple(sorted(r.dirs))) for r in res.witness.rooks)
                        digest.update(repr((res.stats.nodes, res.stats.pruned, res.exact,
                                            res.lower_bound, res.upper_bound, rooks)).encode())
    assert digest.hexdigest() == (
        "c434d0fff1174cf7554f8522e772391ffe74319e9328abe3de37741e3b86968a")


def test_searches_and_oracles_agree(monkeypatch):
    # on every grid with n^k <= 64, at 200k nodes, in every mode: each
    # witness verifies, the bounds bracket the witness, and the
    # enumeration oracles agree where they are affordable
    budget = SolverBudget(200_000, 1e9)
    closed = dict.fromkeys(["a", "b", "c_closed", "c_strict"], 0)
    enumerated = dict(closed)
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                P = n ** k * math.comb(k, l)
                cover = exact_min_covering(g, budget)
                assert check_witness(cover.mode, cover.witness, cover.upper_bound), g
                assert cover.lower_bound <= cover.upper_bound, g
                if cover.exact:
                    closed["a"] += 1
                    cost = sum(math.comb(P, s) * max(s, 1) for s in range(cover.optimum + 1))
                    if cover.optimum <= 5 and cost <= 3_000_000:
                        enumerated["a"] += 1
                        assert enumerate_min_covering(g, max_size=cover.optimum) == cover.optimum, g
                runs = [("b", exact_max_packing(g, budget), enumerate_max_packing)]
                if l >= 2:
                    runs += [(f"c_{two}", exact_max_two_packing(g, two, budget),
                              lambda g, two=two: enumerate_max_two_packing(g, two))
                             for two in ("closed", "strict")]
                for name, res, oracle in runs:
                    assert check_witness(res.mode, res.witness, res.lower_bound), (g, name)
                    assert res.lower_bound <= res.upper_bound, (g, name)
                    if not res.exact:
                        continue
                    closed[name] += 1
                    # valid-prefix enumeration visits only the independent
                    # sets, of which there are far fewer than this count
                    if sum(math.comb(P, s) for s in range(res.optimum + 1)) <= 3_000_000_000:
                        enumerated[name] += 1
                        assert oracle(g) == res.optimum, (g, name)
    assert all(closed[m] >= c for m, c in
               {"a": 117, "b": 119, "c_closed": 39, "c_strict": 39}.items()), closed
    assert all(enumerated[m] >= c for m, c in
               {"a": 97, "b": 100, "c_closed": 31, "c_strict": 30}.items()), enumerated
    # a guard on the orbit rule: dropping the orbit of a candidate whose
    # value a chosen rook uses proves a(4,3,3) = 9.  Its Latin-square seed
    # closes a(4,3,3) at the root, so the seed is withheld for the search
    # to run; no grid with n^k <= 729 whose search runs shows that fault
    # within 50,000 nodes
    monkeypatch.setattr(solve_module, "_closed_form_seed", lambda inst, mode: None)
    res = exact_min_covering(GridParams(4, 3, 3), budget)
    assert (res.exact, res.optimum, res.stats.nodes) == (True, 8, 28_500)


def test_witnesses_valid_and_deterministic():
    g = GridParams(3, 3, 2)
    r1 = exact_min_covering(g)
    r2 = exact_min_covering(g)
    assert check_witness(r1.mode, r1.witness, r1.optimum)
    assert r1.witness.rooks == r2.witness.rooks
    assert r1.stats.nodes == r2.stats.nodes
    p1 = exact_max_two_packing(g)
    assert check_witness(p1.mode, p1.witness, p1.optimum)
    assert p1.witness.rooks == exact_max_two_packing(g).witness.rooks


def test_check_witness_rejects_wrong_size():
    g = GridParams(3, 3, 2)
    for res in (exact_min_covering(g), exact_max_packing(g),
                exact_max_two_packing(g, "closed"), exact_max_two_packing(g, "strict")):
        assert check_witness(res.mode, res.witness, res.optimum)
        assert not check_witness(res.mode, res.witness, res.optimum - 1)
        assert not check_witness(res.mode, res.witness, res.optimum + 1)
    assert not check_witness("min_cover", None, 7)


def test_check_witness_max_coverage():
    g = GridParams(4, 2, 2)
    res = exact_max_coverage(g, 3)
    assert res.exact and res.optimum == 15
    assert check_witness("max_coverage", res.witness, 15, N=3)
    # two of the three rooks cover fewer than 15 points: not a 3-rook witness
    short = Configuration(g, res.witness.rooks[:2])
    assert not check_witness("max_coverage", short, 15, N=3)
    assert not check_witness("max_coverage", short, 12, N=3)
    # three rooks that cover fewer points than claimed
    line = Configuration(g, [Rook((0, i), (0, 1)) for i in range(3)])
    assert check_witness("max_coverage", line, 13, N=3)
    assert not check_witness("max_coverage", line, 15, N=3)
    assert not check_witness("max_coverage", None, 15, N=3)


def test_symmetry_breaking_keyword_is_ignored():
    # the benchmark still passes symmetry_breaking; either value runs the
    # one search, with the root's axis filter
    for sym in (False, True):
        res = exact_min_covering(GridParams(3, 3, 2), symmetry_breaking=sym)
        assert (res.stats.nodes, res.stats.pruned, res.optimum) == (10_650, 9_607, 7), sym


def _orbit_least_root(g):
    """The placements covering point 0 that are least in their orbit under
    the axis permutations, by (point, sorted axes), as a mask over
    placement indices, by trying every permutation.  Points compare as
    coordinate tuples, which orders them as their indices do."""
    dirsets = list(combinations(range(g.k), g.l))
    perms = list(permutations(range(g.k)))  # perm moves axis perm[b] to axis b
    root = 0
    for pidx, p in enumerate(product(range(g.n), repeat=g.k)):
        moved = {a for a in range(g.k) if p[a]}
        if len(moved) > 1:
            continue
        for j, d in enumerate(dirsets):
            if moved <= set(d) and not any(  # covers point 0, and no image is less
                    (tuple(p[a] for a in perm), [b for b, a in enumerate(perm) if a in d])
                    < (p, list(d)) for perm in perms):
                root |= 1 << pidx * len(dirsets) + j
    return root


def test_axis_filter_keeps_the_orbit_least_root_placements():
    # the covering root keeps direction set 0 at point 0 and set
    # k - l = {0..l-2, k-1} at the points 1..n-1 of the last axis; here
    # that closed form meets the brute-force orbit minima
    grids = [GridParams(n, k, l) for k in range(1, 7) for n in range(1, 65)
             if n ** k <= 4_096 for l in range(1, k + 1)]
    assert len(grids) == 321
    for g in grids:
        inst = _Instance(g)
        closed = 1 | _repeat(1 << g.k - g.l, inst.D, g.n) & ~inst.block
        assert closed == _orbit_least_root(g), g


def test_solvers_reject_bad_arguments():
    # a two-packing mode other than closed or strict, a two-packing of
    # 1-rooks, and a coverage count outside 0..n^k or not an integer
    g = GridParams(3, 2, 2)
    with pytest.raises(InvalidArgument, match="two-packing mode"):
        exact_max_two_packing(g, "open")
    with pytest.raises(InvalidArgument, match="l >= 2"):
        exact_max_two_packing(GridParams(3, 2, 1))
    with pytest.raises(InvalidArgument, match="N >= 0"):
        exact_max_coverage(g, -1)
    with pytest.raises(InvalidArgument, match="cannot place 10 rooks on 9 points"):
        exact_max_coverage(g, 10)
    for N in (True, 1.5, 2.0):
        with pytest.raises(InvalidArgument, match="not an integer"):
            exact_max_coverage(g, N)
    assert exact_max_coverage(g, 9).optimum == 9


def test_budget_exhaustion():
    res = exact_min_covering(GridParams(3, 3, 2), SolverBudget(max_nodes=50))
    assert not res.exact
    assert res.optimum is None
    # the 51st node trips the cap, before it is counted as pruned
    stats = (res.stats.nodes, res.stats.pruned, res.lower_bound, res.upper_bound)
    assert stats == (51, 42, 6, 7)


def test_capped_strict_two_packing_bounds_bracket_optimum():
    for n, k, l in [(2, 2, 2), (3, 3, 2), (2, 3, 3), (2, 4, 2)]:
        g = GridParams(n, k, l)
        opt = exact_max_two_packing(g, "strict").optimum
        for max_nodes in (0, 1, 3, 10, 100):
            res = exact_max_two_packing(g, "strict", SolverBudget(max_nodes=max_nodes))
            assert res.lower_bound <= opt <= res.upper_bound, (n, k, l, max_nodes)


def test_strict_two_packing_of_one_point_grids():
    # at n = 1 a rook attacks nothing: the greedy seed's one rook meets
    # the bound of one point, so the search stops at the root
    for k in range(2, 6):
        for l in range(2, k + 1):
            for budget in (None, SolverBudget(max_nodes=0), SolverBudget(max_nodes=1)):
                res = exact_max_two_packing(GridParams(1, k, l), "strict", budget)
                assert (res.exact, res.optimum) == (True, 1), (k, l, budget)


def _clock_moving_after(monkeypatch, still):
    # a clock that reads 0.0 for its first still reads and 1.0 after
    reads = iter((0.0,) * still)
    monkeypatch.setattr(solve_module, "time", SimpleNamespace(perf_counter=lambda: next(reads, 1.0)))


def test_budget_time_limit(monkeypatch):
    res = exact_max_packing(GridParams(4, 3, 2), SolverBudget(max_seconds=0.0))
    assert not res.exact
    assert res.lower_bound <= res.upper_bound
    # the clock is read at nodes 1, 2, 4, ..., 4,096, also where that node
    # lies in a run of pruned children counted at once (4,096 does in
    # both): a clock that stands still for the start, the read before the
    # greedy (both grids run it) and the reads at nodes 1 to 2,048 and has
    # moved by the next one stops the search there
    for nkl, pruned in [((4, 3, 2), 3_827), ((2, 5, 3), 3_967)]:
        _clock_moving_after(monkeypatch, 14)
        res = exact_min_covering(GridParams(*nkl), SolverBudget(max_seconds=0.0))
        assert (res.exact, res.stats.stop_reason) == (False, "time_cap"), nkl
        assert (res.stats.nodes, res.stats.pruned) == (4_096, pruned), nkl


def test_time_cap_holds_from_the_root(monkeypatch):
    # the clock is read at the root and at node 2, so a time cap spent by
    # either read stops each search there, once its tables and seed are
    # built, in every mode: a clock that moves after the start and the
    # set-up's reads stops it at the root, and one that moves after the
    # root's read at node 2.  Of these solves only the covering reads the
    # clock in its set-up, once, before its greedy
    solves = ((lambda budget: exact_min_covering(GridParams(10, 3, 2), budget), 1),
              (lambda budget: exact_max_packing(GridParams(6, 4, 2), budget), 0),
              (lambda budget: exact_max_two_packing(GridParams(6, 4, 2), "closed", budget), 0),
              (lambda budget: exact_max_coverage(GridParams(8, 3, 2), 30, budget), 0))
    for solve, setup_reads in solves:
        for node in (1, 2):
            _clock_moving_after(monkeypatch, node + setup_reads)
            res = solve(SolverBudget(max_seconds=0.5))
            assert (res.stats.nodes, res.stats.stop_reason, res.exact) == (node, "time_cap", False), res.mode
            assert res.lower_bound <= res.upper_bound, res.mode


def test_time_cap_spent_in_the_set_up_skips_the_greedy(monkeypatch):
    # the covering reads the clock once between by_cov and the greedy: a
    # time cap spent by then skips the greedy, and the root's read stops
    # the solve at node 1 with the modular diagonal as its incumbent.  A
    # cap spent only after that read keeps the greedy seed
    greedy_runs = []
    monkeypatch.setattr(solve_module, "_greedy_covering",
                        lambda inst: greedy_runs.append(inst.g) or _greedy_covering(inst))
    g, diagonal = GridParams(10, 3, 2), 100
    _clock_moving_after(monkeypatch, 1)  # the start only
    res = exact_min_covering(g, SolverBudget(max_seconds=0.5))
    assert (res.stats.nodes, res.stats.stop_reason) == (1, "time_cap")
    assert (res.lower_bound, res.upper_bound, greedy_runs) == (53, diagonal, [])
    assert verify_covering(res.witness).valid and len(res.witness) == diagonal
    _clock_moving_after(monkeypatch, 2)  # the start and the read before the greedy
    res = exact_min_covering(g, SolverBudget(max_seconds=0.5))
    assert (res.stats.nodes, res.stats.stop_reason, greedy_runs) == (1, "time_cap", [g])
    assert res.upper_bound < diagonal and len(res.witness) == res.upper_bound


def _ledger(monkeypatch, ops, budget, bulk, still=None):
    # (nodes, pruned, stop_reason) of a fake search booking ops, each
    # (size, pruned), by one tick(size, pruned) or by one tick() a node
    def search(inst, tick, stats, best):
        for size, pruned in ops:
            if bulk:
                tick(size, pruned)
            else:
                for _ in range(size):
                    tick()
                    stats.pruned += pruned
    if still is not None:
        _clock_moving_after(monkeypatch, still)
    stats = solve_module._solve(GridParams(2, 2, 1), "min_cover", budget, search,
                                lambda value: (0, 1)).stats
    return stats.nodes, stats.pruned, stats.stop_reason


def test_bulk_ticks_book_what_single_ticks_do(monkeypatch):
    # tick(size, True) counts and stops as size ticks of one pruned node
    # each: under node caps at and around the clock's edges and inside
    # bulk runs, and under clocks that move after each read up to 12,288
    rng = random.Random(7)
    ops = [(1, False) if rng.random() < 0.5 else (rng.choice((0, 1, 2, 7, rng.randrange(100))), True)
           for _ in range(3_000)]
    ends = list(accumulate(size for size, _ in ops))
    inside = [end - size // 2 for (size, _), end in zip(ops, ends) if size >= 2][::40]
    reads = [1 << e for e in range(13)] + [8_192, 12_288]
    assert ends[-1] > reads[-1]
    for cap in (0, 1, 2, 3, 2_047, 2_048, 4_095, 4_096, 4_097, 8_192, *inside, ends[-1], 10 ** 6):
        budget = SolverBudget(cap, 1e9)
        ledger = _ledger(monkeypatch, ops, budget, True)
        assert ledger == _ledger(monkeypatch, ops, budget, False), cap
        assert ledger[0] == min(cap + 1, ends[-1]), cap
    for still, read in enumerate(reads, start=1):
        budget = SolverBudget(10 ** 6, 0.5)
        ledger = _ledger(monkeypatch, ops, budget, True, still)
        assert ledger == _ledger(monkeypatch, ops, budget, False, still), still
        assert ledger[::2] == (read, "time_cap"), still


def test_stop_reason_names_what_ended_the_search():
    # time_cap and depth are checked by test_budget_time_limit and
    # test_deep_search_ends_capped
    proven = exact_min_covering(GridParams(3, 3, 2))
    node_cap = exact_min_covering(GridParams(4, 3, 2), SolverBudget(1_000, 1e9))
    assert [(r.stats.stop_reason, r.exact) for r in (proven, node_cap)] == [
        ("proven", True), ("node_cap", False)]


def test_result_stats_populated():
    res = exact_min_covering(GridParams(2, 2, 2))
    assert res.mode == "min_cover"
    assert res.stats.nodes > 0
    assert res.stats.wall_time >= 0.0
    assert res.stats.pruned >= 0


def test_monotone_in_parameters():
    # more axes to cover -> never fewer rooks; wider attack arity -> never more
    a322 = exact_min_covering(GridParams(3, 2, 2)).optimum
    a332 = exact_min_covering(GridParams(3, 3, 2)).optimum
    assert a332 >= a322
    a331 = exact_min_covering(GridParams(3, 3, 1)).optimum
    a333 = exact_min_covering(GridParams(3, 3, 3)).optimum
    assert a331 >= a332 >= a333
    # stacking shows b(n, k+1, l) >= n * b(n, k, l)
    b322 = exact_max_packing(GridParams(3, 2, 2)).optimum
    b332 = exact_max_packing(GridParams(3, 3, 2)).optimum
    assert b332 >= 3 * b322


def test_encode_ilp_small():
    buf = io.StringIO()
    summary = encode_ilp(GridParams(2, 2, 2), "min_cover", buf)
    assert summary["variables"] == 4
    assert summary["constraints"] == 4
    text = buf.getvalue()
    assert text.count("y_0_3") >= 1
    assert "Binary" in text and "Minimize" in text


def test_encode_ilp_332():
    buf = io.StringIO()
    summary = encode_ilp(GridParams(3, 3, 2), "min_cover", buf)
    assert summary["variables"] == 81  # 27 points x 3 direction pairs
    assert buf.getvalue().count("Minimize") == 1


def test_encode_ilp_other_modes():
    for mode, sense in [("max_pack", "Maximize"), ("max_two_pack", "Maximize")]:
        buf = io.StringIO()
        encode_ilp(GridParams(2, 2, 2), mode, buf)
        assert sense in buf.getvalue()
    with pytest.raises(Exception):
        encode_ilp(GridParams(2, 2, 2), "nonsense", io.StringIO())


def test_encode_ilp_text_pinned():
    # sha256 of every program min_cover, max_pack and max_two_pack write on
    # each grid with n^k <= 64, n = 1 included (366 programs): a refactor
    # of the placement tables or the encoder must keep the LP bytes
    digest = hashlib.sha256()
    for k in range(1, 7):
        for n in [n for n in range(1, 65) if n ** k <= 64]:
            for l in range(1, k + 1):
                for mode in ("min_cover", "max_pack", "max_two_pack"):
                    buf = io.StringIO()
                    encode_ilp(GridParams(n, k, l), mode, buf)
                    digest.update(buf.getvalue().encode())
    assert digest.hexdigest() == "cf2443c6aa32f573306656ede80b05e10924fc35fc79809227901f2791d482d4"


def test_solves_free_their_tables_on_return():
    # a solve's instance, masks and memos go when it returns, by reference
    # counting alone: with the cyclic collector off, nothing is left for it
    # to find, in every mode and for every stop reason
    cases = [
        ("proven", lambda: exact_min_covering(GridParams(3, 3, 2))),
        ("node_cap", lambda: exact_min_covering(GridParams(4, 3, 2), SolverBudget(1_000, 1e9))),
        ("time_cap", lambda: exact_min_covering(GridParams(3, 3, 2), SolverBudget(max_seconds=0.0))),
        ("proven", lambda: exact_max_packing(GridParams(3, 3, 2))),
        ("node_cap", lambda: exact_max_packing(GridParams(4, 3, 2), SolverBudget(1_000, 1e9))),
        ("time_cap", lambda: exact_max_packing(GridParams(4, 3, 2), SolverBudget(max_seconds=0.0))),
        ("depth", lambda: exact_max_packing(GridParams(6, 5, 1), SolverBudget(5_000, 1e9))),
        ("proven", lambda: exact_max_two_packing(GridParams(3, 3, 2), "closed")),
        ("node_cap", lambda: exact_max_two_packing(GridParams(3, 4, 2), "closed", SolverBudget(1_000, 1e9))),
        ("proven", lambda: exact_max_two_packing(GridParams(3, 3, 2), "strict")),
        ("proven", lambda: exact_max_coverage(GridParams(4, 2, 2), 3)),
        ("node_cap", lambda: exact_max_coverage(GridParams(8, 3, 2), 30, SolverBudget(1_000, 1e9))),
        ("depth", lambda: exact_max_coverage(GridParams(34, 2, 1), 1_100, SolverBudget(5_000, 1e9))),
    ]
    for _, solve in cases:
        solve()  # warm up: first-use caches of the interpreter and libraries
    gc.collect()
    gc.disable()
    try:
        for reason, solve in cases:
            res = solve()
            assert res.stats.stop_reason == reason
            del res
            assert gc.collect() == 0, reason
    finally:
        gc.enable()
