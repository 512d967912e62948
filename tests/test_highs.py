"""Cross-check of the covering solver against scipy's HiGHS MILP solver.

The integer program is built here from core.covers, point by point, so it
shares no code with the solver's bitset tables or with encode_ilp.
"""

from itertools import combinations, product

import pytest

from rookpack.core import GridParams, Rook, covers
from rookpack.solve import exact_min_covering

optimize = pytest.importorskip("scipy.optimize")


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
