"""Exact branch-and-bound solvers for the three rook optimization
problems, a max-coverage solver, naive enumeration oracles, and an
integer-program file writer.

All solvers run under a mandatory budget: exceeding it returns the best
bounds found so far flagged inexact, never a wrong optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations

from .core import (
    Configuration,
    GridParams,
    InvalidArgument,
    Rook,
    RookError,
    attack_mask,
    config_coverage,
    index_point,
    point_index,
)
from .bounds import singleton_bound_b, singleton_bound_c, sphere_packing_bounds
from .constructions import diagonal_covering
from .verify import verify_covering, verify_packing, verify_two_packing


@dataclass(frozen=True)
class SolverBudget:
    max_nodes: int = 5_000_000
    max_seconds: float = 60.0


@dataclass
class SolveStats:
    nodes: int = 0
    wall_time: float = 0.0
    pruned: int = 0


@dataclass
class SolveResult:
    instance: GridParams
    mode: str
    optimum: int | None
    witness: Configuration | None
    stats: SolveStats
    exact: bool
    lower_bound: int
    upper_bound: int


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class _Placement:
    index: int
    pidx: int
    dirs: tuple
    cov: int
    att: int
    line_cov: int  # lines the rook covers (its dirs axes)


class _Instance:
    """Placement table for one grid: every (point, direction-set) pair in
    lexicographic order, with precomputed coverage and line bitsets."""

    def __init__(self, g: GridParams):
        g.check_bitset()
        self.g = g
        self.npts = g.num_points
        self.full = (1 << self.npts) - 1
        self.points = [index_point(i, g) for i in range(self.npts)]
        self.dirsets = list(combinations(range(g.k), g.l))
        self.lines_per_axis = g.n ** (g.k - 1)
        self.placements = []
        for pidx in range(self.npts):
            p = self.points[pidx]
            for d in self.dirsets:
                r = Rook(p, d)
                att = attack_mask(r, g)
                cov = att | (1 << pidx)
                lines = 0
                for a in d:
                    lines |= 1 << self._line_id(p, a)
                self.placements.append(
                    _Placement(len(self.placements), pidx, d, cov, att, lines)
                )

    def _line_id(self, p, axis):
        proj = 0
        for i in range(self.g.k):
            if i != axis:
                proj = proj * self.g.n + p[i]
        return axis * self.lines_per_axis + proj

    def config(self, chosen):
        return Configuration(
            self.g, [Rook(self.points[pl.pidx], pl.dirs) for pl in chosen]
        )

    def placement(self, r: Rook) -> _Placement:
        row = point_index(r.point, self.g) * len(self.dirsets)
        return self.placements[row + self.dirsets.index(tuple(sorted(r.dirs)))]


def _ceil_div(a, b):
    return -((-a) // b)


def _trivial_covering(g: GridParams) -> Configuration:
    """All points with first coordinate 0, attacking along axis 0."""
    from itertools import product

    dirs = frozenset(range(g.l))
    rooks = [Rook((0,) + rest, dirs) for rest in product(range(g.n), repeat=g.k - 1)]
    return Configuration(g, rooks)


def _seed_covering(g: GridParams) -> Configuration:
    if g.l == g.k:
        return diagonal_covering(g.n, g.k)
    dirs = frozenset(range(g.l))
    diag = Configuration(
        g,
        [Rook(r.point, dirs) for r in diagonal_covering(g.n, g.k).rooks],
    )
    if verify_covering(diag).valid:
        return diag
    return _trivial_covering(g)


def _axis_perm_canonical(inst: _Instance, pl: _Placement) -> bool:
    """True when the placement is lexicographically minimal in its orbit
    under axis permutations (the stabilizer of the all-zero point)."""
    g = inst.g
    p = inst.points[pl.pidx]
    key = (pl.pidx, sorted(pl.dirs))
    for perm in permutations(range(g.k)):
        # perm maps original axis perm[i] onto axis i of the image
        q = tuple(p[perm[i]] for i in range(g.k))
        qdirs = sorted(i for i in range(g.k) if perm[i] in pl.dirs)
        qidx = 0
        for x in q:
            qidx = qidx * g.n + x
        if (qidx, qdirs) < key:
            return False
    return True


def _solve(g, mode, budget, search, capped_bounds) -> SolveResult:
    """Run search(inst, tick, stats, best) under the budget.

    search seeds best = [value, placements] and improves it in place;
    tick() counts a node and raises _BudgetExhausted past the budget.  An
    inexact result reports capped_bounds(best value) as (lower, upper).
    """
    budget = budget or SolverBudget()
    stats = SolveStats()
    start = time.perf_counter()

    def tick():
        stats.nodes += 1
        if stats.nodes > budget.max_nodes:
            raise _BudgetExhausted
        if stats.nodes % 4096 == 0:
            if time.perf_counter() - start > budget.max_seconds:
                raise _BudgetExhausted

    inst = _Instance(g)
    best = [-1, []]
    exact = True
    try:
        search(inst, tick, stats, best)
    except _BudgetExhausted:
        exact = False
    stats.wall_time = time.perf_counter() - start
    witness = inst.config(best[1]) if best[0] >= 0 else None
    if exact:
        return SolveResult(g, mode, best[0], witness, stats, True, best[0], best[0])
    lower, upper = capped_bounds(best[0])
    return SolveResult(g, mode, None, witness, stats, False, lower, upper)


def exact_min_covering(
    g: GridParams,
    budget: SolverBudget | None = None,
    symmetry_breaking: bool = False,
) -> SolveResult:
    """Minimum number of l-rooks covering H(n, k), by depth-first
    branch-and-bound on the first uncovered point."""
    sphere_lower, _ = sphere_packing_bounds(g)

    def search(inst, tick, stats, best):
        seed = _seed_covering(g)
        best[:] = [len(seed), [inst.placement(r) for r in seed.rooks]]

        cover_by_point = [[] for _ in range(inst.npts)]
        for pl in inst.placements:
            m = pl.cov
            while m:
                low = m & -m
                cover_by_point[low.bit_length() - 1].append(pl)
                m ^= low

        ball = g.ball
        used_points = set()
        chosen = []

        def dfs(covered, depth):
            tick()
            if covered == inst.full:
                if depth < best[0]:
                    best[0] = depth
                    best[1] = list(chosen)
                return
            uncov = inst.npts - covered.bit_count()
            if depth + _ceil_div(uncov, ball) >= best[0]:
                stats.pruned += 1
                return
            p = ((~covered) & inst.full)
            p = (p & -p).bit_length() - 1
            cands = cover_by_point[p]
            if depth == 0 and symmetry_breaking:
                cands = [pl for pl in cands if _axis_perm_canonical(inst, pl)]
            for pl in cands:
                if pl.pidx in used_points:
                    continue
                used_points.add(pl.pidx)
                chosen.append(pl)
                dfs(covered | pl.cov, depth + 1)
                chosen.pop()
                used_points.remove(pl.pidx)

        dfs(0, 0)

    return _solve(g, "min_cover", budget, search, lambda value: (sphere_lower, value))


def _max_independent(g, mode, budget, conflict_free, unit, unit_mask_attr, upper):
    """Shared include/exclude search for max_pack and max_two_pack,
    seeded with the greedy pick in placement order.

    conflict_free(a, b) says two placements can coexist; unit is the
    number of exclusively-consumed resource bits per rook (lines or
    points) and unit_mask_attr names the placement bitset holding them.
    upper is the closed-form bound reported when the budget runs out.
    """

    def search(inst, tick, stats, best):
        seed = []
        for pl in inst.placements:
            if all(conflict_free(pl, q) for q in seed):
                seed.append(pl)
        best[:] = [len(seed), seed]

        def dfs(cands, chosen):
            tick()
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                best[1] = list(chosen)
            if not cands:
                return
            union = 0
            for pl in cands:
                union |= getattr(pl, unit_mask_attr)
            cap = len(chosen) + (union.bit_count() // unit if unit else len(cands))
            if cap <= best[0]:
                stats.pruned += 1
                return
            head, tail = cands[0], cands[1:]
            sub = [q for q in tail if conflict_free(head, q)]
            chosen.append(head)
            dfs(sub, chosen)
            chosen.pop()
            dfs(tail, chosen)

        dfs(inst.placements, [])

    # any feasible configuration is a valid lower bound for a max problem
    return _solve(g, mode, budget, search, lambda value: (value, upper))


def exact_max_packing(g: GridParams, budget: SolverBudget | None = None) -> SolveResult:
    """Maximum number of l-rooks with no rook attacking another."""

    def free(a, b):
        return (
            a.pidx != b.pidx
            and not (a.att >> b.pidx) & 1
            and not (b.att >> a.pidx) & 1
        )

    upper = int(singleton_bound_b(g))
    # each rook in a packing consumes its l covered lines exclusively
    return _max_independent(g, "max_pack", budget, free, g.l, "line_cov", upper)


def exact_max_two_packing(
    g: GridParams, mode: str = "closed", budget: SolverBudget | None = None
) -> SolveResult:
    """Maximum number of l-rooks with no grid point reached twice."""
    if mode not in ("closed", "strict"):
        raise InvalidArgument(f"unknown two-packing mode {mode!r}")
    if g.l < 2:
        raise InvalidArgument("two-packing needs l >= 2")
    if mode == "closed":

        def free(a, b):
            return a.cov & b.cov == 0

        unit, attr = g.ball, "cov"
    else:

        def free(a, b):
            return a.pidx != b.pidx and a.att & b.att == 0

        unit, attr = g.l * (g.n - 1), "att"
    upper = int(singleton_bound_c(g))
    return _max_independent(g, f"max_two_pack_{mode}", budget, free, unit, attr, upper)


def exact_max_coverage(
    g: GridParams, N: int, budget: SolverBudget | None = None
) -> SolveResult:
    """Maximum number of points covered by exactly N l-rooks."""
    if N < 0:
        raise InvalidArgument("need N >= 0")
    if N > g.num_points:
        raise InvalidArgument(f"cannot place {N} rooks on {g.num_points} points")
    ball = g.ball

    def search(inst, tick, stats, best):
        chosen = []
        used = set()

        def dfs(i, covered):
            tick()
            if len(chosen) == N:
                c = covered.bit_count()
                if c > best[0]:
                    best[0] = c
                    best[1] = list(chosen)
                return
            remaining_slots = N - len(chosen)
            if len(inst.placements) - i < remaining_slots:
                return
            if covered.bit_count() + remaining_slots * ball <= best[0]:
                stats.pruned += 1
                return
            pl = inst.placements[i]
            if pl.pidx not in used:
                used.add(pl.pidx)
                chosen.append(pl)
                dfs(i + 1, covered | pl.cov)
                chosen.pop()
                used.remove(pl.pidx)
            dfs(i + 1, covered)

        dfs(0, 0)

    return _solve(
        g, "max_coverage", budget, search,
        lambda value: (max(value, 0), min(N * ball, g.num_points)),
    )


def brute_force_max_coverage(g: GridParams, N: int) -> int:
    """Oracle: exhaustive enumeration over all N-subsets of placements
    with distinct points."""
    inst = _Instance(g)
    if N == 0:
        return 0
    best = 0
    for combo in combinations(inst.placements, N):
        if len({pl.pidx for pl in combo}) < N:
            continue
        bits = 0
        for pl in combo:
            bits |= pl.cov
        best = max(best, bits.bit_count())
    return best


def enumerate_min_covering(g: GridParams, max_size: int = 5):
    """Oracle: smallest covering found by subset enumeration, or None if
    every covering needs more than max_size rooks."""
    inst = _Instance(g)
    for s in range(max_size + 1):
        for combo in combinations(inst.placements, s):
            if len({pl.pidx for pl in combo}) < s:
                continue
            bits = 0
            for pl in combo:
                bits |= pl.cov
            if bits == inst.full:
                return s
    return None


def _enumerate_max(inst, conflict_free):
    best = [0]

    def dfs(i, count):
        if count > best[0]:
            best[0] = count
        for j in range(i, len(inst.placements)):
            pl = inst.placements[j]
            if all(conflict_free(pl, q) for q in stack_):
                stack_.append(pl)
                dfs(j + 1, count + 1)
                stack_.pop()

    stack_ = []
    dfs(0, 0)
    return best[0]


def enumerate_max_packing(g: GridParams) -> int:
    """Oracle: maximum packing size by exhaustive valid-prefix search."""
    inst = _Instance(g)

    def free(a, b):
        return a.pidx != b.pidx and not (a.att >> b.pidx) & 1 and not (b.att >> a.pidx) & 1

    return _enumerate_max(inst, free)


def enumerate_max_two_packing(g: GridParams, mode: str = "closed") -> int:
    """Oracle: maximum two-packing size by exhaustive valid-prefix search."""
    inst = _Instance(g)
    if mode == "closed":

        def free(a, b):
            return a.cov & b.cov == 0

    else:

        def free(a, b):
            return a.pidx != b.pidx and a.att & b.att == 0

    return _enumerate_max(inst, free)


def _var_name(pl: _Placement) -> str:
    mask = 0
    for a in pl.dirs:
        mask |= 1 << a
    return f"y_{pl.pidx}_{mask}"


def encode_ilp(g: GridParams, mode: str, out) -> dict:
    """Write an LP-format integer program for the instance to the text
    sink; one binary variable y_<pointindex>_<dirmask> per placement.

    min_cover: minimize sum y s.t. each point is covered at least once.
    max_pack: maximize sum y s.t. attacking pairs and co-located
    placements are mutually exclusive.
    max_two_pack: maximize sum y s.t. each point lies in at most one
    chosen closed coverage set.
    """
    if mode not in ("min_cover", "max_pack", "max_two_pack"):
        raise InvalidArgument(f"unknown ilp mode {mode!r}")
    inst = _Instance(g)
    names = [_var_name(pl) for pl in inst.placements]
    lines = []
    constraints = 0
    if mode == "min_cover":
        lines.append("Minimize")
    else:
        lines.append("Maximize")
    lines.append(" obj: " + " + ".join(names))
    lines.append("Subject To")
    if mode == "min_cover":
        for p in range(inst.npts):
            covering = [names[pl.index] for pl in inst.placements if (pl.cov >> p) & 1]
            lines.append(f" cover_{p}: " + " + ".join(covering) + " >= 1")
            constraints += 1
    elif mode == "max_pack":
        for i, a in enumerate(inst.placements):
            for b in inst.placements[i + 1 :]:
                if a.pidx == b.pidx:
                    continue
                if (a.att >> b.pidx) & 1 or (b.att >> a.pidx) & 1:
                    lines.append(f" pair_{a.index}_{b.index}: {names[a.index]} + {names[b.index]} <= 1")
                    constraints += 1
        for p in range(inst.npts):
            here = [names[pl.index] for pl in inst.placements if pl.pidx == p]
            if len(here) > 1:
                lines.append(f" point_{p}: " + " + ".join(here) + " <= 1")
                constraints += 1
    else:
        for p in range(inst.npts):
            covering = [names[pl.index] for pl in inst.placements if (pl.cov >> p) & 1]
            lines.append(f" cover2_{p}: " + " + ".join(covering) + " <= 1")
            constraints += 1
    lines.append("Binary")
    for name in names:
        lines.append(f" {name}")
    lines.append("End")
    out.write("\n".join(lines) + "\n")
    return {"mode": mode, "variables": len(names), "constraints": constraints}


def check_witness(mode: str, witness, value, N=None) -> bool:
    """True when witness certifies value for the solver mode: value rooks
    passing the verifier of min_cover, max_pack or
    max_two_pack_{closed,strict}, or N rooks covering value points."""
    if witness is None:
        return False
    try:
        if mode == "max_coverage":
            return len(witness) == N and config_coverage(witness).popcount() == value
        if len(witness) != value:
            return False
        if mode == "min_cover":
            return verify_covering(witness).valid
        if mode == "max_pack":
            return verify_packing(witness).valid
        two = mode.removeprefix("max_two_pack_")
        return two != mode and verify_two_packing(witness, two).valid
    except RookError:
        return False
