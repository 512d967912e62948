"""Enumeration oracles for the exact solvers in rookpack.solve.

They work from coordinates alone: rooks come from itertools.product and
combinations, and coverage is decided point by point by core.covers, so
they share no bitset code with the solvers they check.  Plain subset
enumeration and valid-prefix search keep them slow and obviously right.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain, combinations, compress, product

from .core import GridParams, Rook, covers

# at: index of rook.point in itertools.product order; cov and att: closed
# and open coverage as bits over the points in that order
_OracleRook = namedtuple("_OracleRook", "rook at cov att")


@lru_cache(maxsize=4)
def _oracle_rooks(g: GridParams) -> tuple:
    """Every l-rook of the grid, points in product order and axis sets in
    combinations order, with its coverage decided by core.covers."""
    points = list(product(range(g.n), repeat=g.k))
    where = {p: j for j, p in enumerate(points)}
    rooks = []
    for at, x in enumerate(points):
        # covers() can hold only on x and the points one coordinate away
        near = {x[:a] + (v,) + x[a + 1 :] for a in range(g.k) for v in range(g.n)}
        for dirs in combinations(range(g.k), g.l):
            r = Rook(x, dirs)
            cov = 0
            for p in near:
                cov |= covers(r, p, g) << where[p]
            # a rook attacks what it covers except its own point
            rooks.append(_OracleRook(r, at, cov, cov ^ (1 << at)))
    return tuple(rooks)  # cached, so shared by every caller


def _oracle_clashes(rooks, mode) -> list:
    """clashes[i]: indices of the rooks that cannot share a configuration
    with rooks[i] (i included) in max_pack, max_two_pack_closed or
    max_two_pack_strict, by comparing rooks[i] with every rook."""
    index = range(len(rooks))
    ats = [r.at for r in rooks]
    covs = [r.cov for r in rooks]
    atts = [r.att for r in rooks]
    clashes = []
    for a in rooks:
        if mode == "max_two_pack_closed":  # the two rooks cover a common point
            hits = [compress(index, map(a.cov.__and__, covs))]
        elif mode == "max_pack":  # one rook covers the other's point
            covered = {j for j in range(a.cov.bit_length()) if (a.cov >> j) & 1}
            hits = [compress(index, map(covered.__contains__, ats)),
                    compress(index, map((1 << a.at).__and__, covs))]
        else:  # the two rooks attack a common point, or share one
            hits = [compress(index, map(a.att.__and__, atts)),
                    compress(index, map(a.at.__eq__, ats))]
        clashes.append(frozenset(chain(*hits)))
    return clashes


def _subset_coverage(rooks, size):
    """Closed coverage of every set of size rooks on distinct points."""
    for combo in combinations(rooks, size):
        if len({r.at for r in combo}) == size:
            bits = 0
            for r in combo:
                bits |= r.cov
            yield bits


def brute_force_max_coverage(g: GridParams, N: int) -> int:
    """Oracle: exhaustive enumeration over all N-subsets of rooks with
    distinct points."""
    return max(map(int.bit_count, _subset_coverage(_oracle_rooks(g), N)), default=0)


def enumerate_min_covering(g: GridParams, max_size: int = 5):
    """Oracle: smallest covering found by subset enumeration, or None if
    every covering needs more than max_size rooks."""
    rooks = _oracle_rooks(g)
    full = (1 << g.num_points) - 1
    for s in range(max_size + 1):
        if full in _subset_coverage(rooks, s):
            return s
    return None


def _enumerate_max(g, mode):
    clashes = _oracle_clashes(_oracle_rooks(g), mode)
    best = [0]
    chosen = []

    def dfs(i):
        best[0] = max(best[0], len(chosen))
        for j in range(i, len(clashes)):
            if clashes[j].isdisjoint(chosen):
                chosen.append(j)
                dfs(j + 1)
                chosen.pop()

    dfs(0)
    return best[0]


def enumerate_max_packing(g: GridParams) -> int:
    """Oracle: maximum packing size by exhaustive valid-prefix search."""
    return _enumerate_max(g, "max_pack")


def enumerate_max_two_packing(g: GridParams, mode: str = "closed") -> int:
    """Oracle: maximum two-packing size by exhaustive valid-prefix search."""
    return _enumerate_max(g, f"max_two_pack_{mode}")
