"""Cross-check of the solvers against scipy's HiGHS MILP solver.

The integer programs are built here from core.covers, point by point, or
from the oracles' clash sets, so they share no code with the solver's
bitset tables or with encode_ilp.
"""

from itertools import combinations, product

import pytest

from rookpack.core import GridParams, Rook, covers
from rookpack.oracles import _oracle_clashes, _oracle_rooks
from rookpack.solve import SolverBudget, exact_max_packing, exact_max_two_packing, exact_min_covering

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def _highs_min_covering(g):
    """Fewest l-rooks at distinct points covering H(n, k), by HiGHS: one
    binary per (point, axis set), each point covered at least once, each
    point holding at most one rook."""
    points = list(product(range(g.n), repeat=g.k))
    rooks = [Rook(x, dirs) for x in points for dirs in combinations(range(g.k), g.l)]
    cover = [[int(covers(r, p, g)) for r in rooks] for p in points]
    occupy = [[int(r.point == p) for r in rooks] for p in points]
    res = optimize.milp(
        c=[1] * len(rooks),
        constraints=[
            optimize.LinearConstraint(cover, lb=1),
            optimize.LinearConstraint(occupy, ub=1),
        ],
        integrality=[1] * len(rooks),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0, (g, res.message)
    return round(res.fun)


@pytest.mark.parametrize("nkl, value", [((3, 3, 2), 7), ((4, 3, 3), 8), ((5, 2, 2), 5), ((6, 2, 2), 6)])
def test_highs_min_covering_known_values(nkl, value):
    g = GridParams(*nkl)
    res = exact_min_covering(g)
    assert res.exact
    assert _highs_min_covering(g) == res.optimum == value


def test_highs_min_covering_small_grids():
    # every grid with n^k <= 27, n = 1 included up to k = 6
    checked = 0
    for k in range(1, 7):
        for n in [n for n in range(1, 28) if n ** k <= 27]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                res = exact_min_covering(g)
                assert res.exact, g
                assert _highs_min_covering(g) == res.optimum, g
                checked += 1
    assert checked == 65


def _highs_max_independent(g, mode):
    """Most rooks in mode max_pack or max_two_pack_{closed,strict}, by
    HiGHS: one binary per rook of the oracles, and y_i + y_j <= 1 for each
    pair in their clash sets."""
    clashes = _oracle_clashes(_oracle_rooks(g), mode)
    pairs = [(i, j) for i, clash in enumerate(clashes) for j in clash if i < j]
    constraints = []
    if pairs:
        rows = [r for r in range(len(pairs)) for _ in (0, 1)]
        cols = [i for pair in pairs for i in pair]
        clash = sparse.coo_matrix(([1] * len(cols), (rows, cols)), shape=(len(pairs), len(clashes)))
        constraints.append(optimize.LinearConstraint(clash, ub=1))
    res = optimize.milp(
        c=[-1] * len(clashes),
        constraints=constraints,
        integrality=[1] * len(clashes),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0, (g, mode, res.message)
    return round(-res.fun)


def _solve_max(g, mode, budget=None):
    if mode == "max_pack":
        return exact_max_packing(g, budget)
    return exact_max_two_packing(g, mode.removeprefix("max_two_pack_"), budget)


def test_highs_max_independent_small_grids():
    # every grid with n^k <= 27, n = 1 included up to k = 6, in b and both
    # modes of c: HiGHS agrees with each optimum the solver proves
    checked = 0
    for k in range(1, 7):
        for n in [n for n in range(1, 28) if n ** k <= 27]:
            for l in range(1, k + 1):
                g = GridParams(n, k, l)
                modes = ["max_pack"] + (["max_two_pack_closed", "max_two_pack_strict"] if l >= 2 else [])
                for mode in modes:
                    res = _solve_max(g, mode)
                    assert res.exact, (g, mode)
                    assert _highs_max_independent(g, mode) == res.optimum, (g, mode)
                    checked += 1
    assert checked == 117


@pytest.mark.parametrize("nkl, mode, max_nodes, value", [
    ((3, 3, 1), "max_pack", 20, 15),
    ((3, 3, 2), "max_pack", 20, 10),
    ((4, 3, 1), "max_pack", 1_000, 30),
    ((3, 3, 2), "max_two_pack_closed", 5, 4),
    ((3, 3, 2), "max_two_pack_strict", 5, 6),
])
def test_highs_max_independent_inside_capped_bounds(nkl, mode, max_nodes, value):
    # a run stopped by its node cap brackets the optimum HiGHS finds
    g = GridParams(*nkl)
    res = _solve_max(g, mode, SolverBudget(max_nodes, 1e9))
    assert not res.exact
    assert res.lower_bound <= _highs_max_independent(g, mode) == value <= res.upper_bound
