"""Exact solver, enumeration oracles, and the ILP encoder."""

import io

import pytest

from rookpack.core import Configuration, GridParams, Rook
from rookpack.solve import (
    SolverBudget,
    brute_force_max_coverage,
    check_witness,
    encode_ilp,
    enumerate_max_packing,
    enumerate_max_two_packing,
    enumerate_min_covering,
    exact_max_coverage,
    exact_max_packing,
    exact_max_two_packing,
    exact_min_covering,
)
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


def test_solver_matches_oracles():
    grids = [
        (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (4, 2, 2),
        (2, 3, 2), (2, 3, 3), (3, 3, 3), (4, 2, 1), (2, 3, 1),
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


def test_symmetry_breaking_same_optimum():
    g = GridParams(3, 3, 2)
    plain = exact_min_covering(g)
    sym = exact_min_covering(g, symmetry_breaking=True)
    assert sym.exact and sym.optimum == plain.optimum
    assert check_witness(sym.mode, sym.witness, sym.optimum)


def test_budget_exhaustion():
    res = exact_min_covering(GridParams(3, 3, 2), SolverBudget(max_nodes=50))
    assert not res.exact
    assert res.optimum is None
    assert res.lower_bound <= 7 <= res.upper_bound
    assert res.stats.nodes <= 60  # stops promptly once the budget trips


def test_capped_strict_two_packing_bounds_bracket_optimum():
    for n, k, l in [(2, 2, 2), (3, 3, 2), (2, 3, 3), (2, 4, 2)]:
        g = GridParams(n, k, l)
        opt = exact_max_two_packing(g, "strict").optimum
        for max_nodes in (0, 1, 3, 10, 100):
            res = exact_max_two_packing(g, "strict", SolverBudget(max_nodes=max_nodes))
            assert res.lower_bound <= opt <= res.upper_bound, (n, k, l, max_nodes)


def test_budget_time_limit():
    res = exact_max_packing(GridParams(4, 3, 2), SolverBudget(max_seconds=0.0))
    assert not res.exact
    assert res.lower_bound <= res.upper_bound


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
