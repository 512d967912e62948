"""Exact branch-and-bound solvers for the three rook optimization
problems, a max-coverage solver, and an integer-program file writer.
The enumeration oracles that check them are in rookpack.oracles.

The covering, two-packing and max-coverage searches branch over
placements, (point, direction set) pairs; the packing search branches
over points, since a packing is determined by its point set.

All solvers run under a mandatory budget: exceeding it returns the best
bounds found so far flagged inexact, never a wrong optimum.  The budget
is read on the schedule SolverBudget states: at search nodes, and once
in the covering's set-up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .core import (
    Configuration,
    GridParams,
    InvalidArgument,
    Rook,
    config_coverage,
)
from .bounds import (
    NotApplicable,
    covering_lower,
    hypercube_bound_b,
    incidence_bound_b,
    rodemich_max_coverage,
    singleton_bound_c,
    sphere_bound_c,
)
from .verify import verify_covering, verify_packing, verify_two_packing


@dataclass(frozen=True)
class SolverBudget:
    """Caps on a solve: max_nodes search nodes and max_seconds of wall
    time.  Both are read at the search's nodes: node max_nodes + 1 stops
    it, and the clock is read at nodes 1, 2, 4, ..., 4,096 and then at
    every 4,096th node.  The clock is read once more in the set-up, by
    the covering search between its per-point table and its greedy seed:
    a max_seconds already spent there skips the greedy, and the root's
    read then stops the solve with the modular diagonal as its incumbent.
    So a seed depends on the speed of the machine only in a solve that
    its time cap stops at the root, and a run whose cap is never reached
    is the same on every machine.  Every other table and seed built
    before the root runs to its end, so a solve can overrun a small
    max_seconds by one phase of its set-up and, past the root, by fewer
    nodes than it has run, and never by 4,096."""

    max_nodes: int = 5_000_000
    max_seconds: float = 60.0

    def __post_init__(self):
        # type() refuses bool; NaN fails the comparison; 0 and inf are valid caps
        if not (type(self.max_nodes) is int and type(self.max_seconds) in (int, float)
                and self.max_nodes >= 0 and self.max_seconds >= 0):
            raise InvalidArgument(f"budget needs an int max_nodes >= 0 and max_seconds >= 0, "
                                  f"got {self.max_nodes!r} and {self.max_seconds!r}")


@dataclass
class SolveStats:
    nodes: int = 0
    wall_time: float = 0.0
    pruned: int = 0
    # why the search stopped: "proven" when it ran to the end, else
    # "node_cap", "time_cap" or "depth" (too deep for the stack)
    stop_reason: str = "proven"


@dataclass
class SolveResult:
    mode: str
    optimum: int | None
    witness: Configuration | None
    stats: SolveStats
    lower_bound: int
    upper_bound: int

    @property
    def exact(self) -> bool:
        return self.lower_bound == self.upper_bound


class _BudgetExhausted(Exception):
    pass


class _Proven(Exception):
    """Raised by a search whose incumbent meets its closed-form bound."""


class _Instance:
    """Placement table for one grid.  Placement i is the direction set
    dirsets[i % D] at point i // D, so placements run through the
    (point, direction set) pairs in lexicographic order, and every mask
    and table over placements refers to one by its index i; point p owns
    the D-bit block of placements block << p*D.

    A rook reaches the points of its l axis lines, so every mask of
    placements on a line is a per-axis pattern shifted into place by
    line(): attackers[a] holds along[a] at each point of the axis-a line
    through point 0, and occupants[a] the whole block there.  Likewise
    planes[a][b], for b != a, holds attackers[b] at each point of the
    axis-a line through point 0: the placements attacking along b in the
    (a, b) plane through point 0.  The packing search reads none of these:
    it works on masks over points (_PointPacking).

    placements, the coverage ints, is a _Table built entry by entry on
    first lookup: a capped covering reads few of them (246 of a(10,3,2)'s
    3,000 at 2,000 nodes), so no solve builds the whole table before its
    root.  It keeps a list's len() and iteration in index order, which the
    benchmark's table check (perfbench's table_op) reads."""

    def __init__(self, g: GridParams):
        g.check_bitset()
        self.g = g
        self.npts = g.num_points
        self.full = (1 << self.npts) - 1
        self.points = list(product(range(g.n), repeat=g.k))
        self.dirsets = list(combinations(range(g.k), g.l))
        self.D = D = len(self.dirsets)
        self.block = (1 << D) - 1
        self.weights = g.weights

    def line(self, a, pidx, pattern):
        """pattern, laid along the axis-a line through point 0, moved onto
        the axis-a line through point pidx."""
        return pattern << (pidx - self.points[pidx][a] * self.weights[a]) * self.D

    def config(self, chosen):
        D = self.D
        return Configuration(
            self.g, [Rook(self.points[i // D], self.dirsets[i % D]) for i in chosen]
        )

    # The patterns and tables below are built on first use.

    @cached_property
    def along(self):
        """along[a]: the D-bit mask of the direction sets containing axis a."""
        return [sum(1 << j for j, d in enumerate(self.dirsets) if a in d) for a in range(self.g.k)]

    @cached_property
    def attackers(self):
        return [_repeat(m, w * self.D, self.g.n) for m, w in zip(self.along, self.weights)]

    @cached_property
    def occupants(self):
        return [_repeat(self.block, w * self.D, self.g.n) for w in self.weights]

    @cached_property
    def planes(self):
        D, n = self.D, self.g.n
        return [[_repeat(pattern, w * D, n) if b != a else 0
                 for b, pattern in enumerate(self.attackers)]
                for a, w in enumerate(self.weights)]

    @cached_property
    def placements(self):
        """placements[i]: the coverage bitset of placement i over point
        indices, the union of its lines; each line is a per-axis pattern
        of n points shifted to the line's first point."""
        D, points = self.D, self.points
        # per direction set, the (pattern, axis, weight) of each of its lines
        lines = [[(sum(1 << v * w for v in range(self.g.n)), a, w)
                  for a, w in enumerate(self.weights) if a in d] for d in self.dirsets]

        def fill(i):
            q = i // D
            p, cov = points[q], 0
            for pattern, a, w in lines[i % D]:
                cov |= pattern << q - p[a] * w
            return cov

        return _Table(fill, self.npts * D)

    def _reaching(self, own):
        """For each point u, the placements covering u (own) or attacking
        it (not own), as masks over placement indices.  A rook reaches u
        from u itself or along one of u's k lines: each axis's pattern is
        shifted onto each of its lines once and ORed into the line's n
        points."""
        D, n, npts = self.D, self.g.n, self.npts
        table = [self.block << u * D for u in range(npts)]
        for pattern, w in zip(self.attackers, self.weights):
            # an axis of weight w has its lines start at the first w
            # points of every n*w
            for slab in range(0, npts, n * w):
                for start in range(slab, slab + w):
                    m = pattern << start * D
                    for u in range(start, start + n * w, w):
                        table[u] |= m
        if not own:
            for u in range(npts):
                table[u] ^= self.block << u * D
        return table

    @cached_property
    def by_cov(self):
        """by_cov[u]: the placements covering point u."""
        return self._reaching(True)

    @cached_property
    def by_att(self):
        """by_att[u]: the placements attacking point u."""
        return self._reaching(False)


class _Memo(dict):
    """A dict that fills a missing key with fill(key) on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Table:
    """A table of size entries, each built by fill(i) on its first lookup.
    entries is a list that holds 0 for an entry not built yet, so no
    entry may be 0.  table[i] builds entry i if needed; a hot loop inlines
    that as entries[i] or build(i), a bare list index once the entry is
    built.  len() and iteration in index order, which builds every entry,
    keep the sequence contract of the list the table stands for."""

    __slots__ = ("entries", "fill")

    def __init__(self, fill, size):
        self.entries, self.fill = [0] * size, fill

    def build(self, i):
        value = self.entries[i] = self.fill(i)
        return value

    def __getitem__(self, i):
        return self.entries[i] or self.build(i)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.entries)))


class _ValueOrbits:
    """Orbital branching on value permutations, for one solve.

    The orbital searches carry the coordinate values no chosen point uses
    as one int of n bits per axis: bit a*n + v is set iff no chosen point
    has value v on axis a.  ptmask[pidx] has one bit per axis, at point
    pidx's coordinate, so a child's int is free & ~ptmask[pidx];
    orbital[free] is True when some axis of free has two or more values.

    The masks run over the search's items, D to a point: placements for
    D = inst.D, points for D = 1.  at_dirs[j] is the mask of the items
    with the j-th direction set, and at_values[a][vals] that of the items
    whose point has its axis-a value in the bitset vals.  ptmask, orbital
    and each at_values[a] are memos filled on first lookup, so a solve
    builds only the entries it reaches, and frees them when it returns.
    cover_orbit and pack_orbit give the orbits of exact_min_covering, and
    of _max_independent and the point search of exact_max_packing.
    """

    def __init__(self, inst: _Instance, D: int):
        g, npts, n = inst.g, inst.npts, inst.g.n
        points = inst.points
        field = (1 << n) - 1
        shifts = [a * n for a in range(g.k)]
        self.all_free = (1 << n * g.k) - 1
        self.at_dirs = at_dirs = [_repeat(1 << j, D, npts) for j in range(D)]
        # the points with x_a = v: w points every n*w, from v*w on
        at_value = [
            [_repeat(((1 << w * D) - 1) << v * w * D, n * w * D, npts // (n * w))
             for v in range(n)]
            for w in inst.weights
        ]
        # a candidate off p differs from p on one axis a, by v * w_a indices
        axis_of = {v * w: a for a, w in enumerate(inst.weights) for v in range(1, n)}
        self.ptmask = _Memo(lambda pidx: sum(1 << s + x for s, x in zip(shifts, points[pidx])))
        self.orbital = _Memo(lambda free: any((f := free >> s & field) & (f - 1) for s in shifts))
        self.at_values = at_values = [_Memo(lambda vals, t=t: _union(t, vals)) for t in at_value]

        def cover_orbit(spare, p, i):
            """The candidates that placement i, a candidate for covering
            point p, stands for, itself included, or 0 when it stands for
            itself alone; spare is free & ~ptmask[p]."""
            q = i // D
            if q == p:
                return 0
            a = axis_of[abs(q - p)]
            s = spare >> a * n & field
            if s >> points[q][a] & 1 and s & (s - 1):
                return inst.by_cov[p] & at_dirs[i % D] & at_values[a][s]
            return 0

        def pack_orbit(free, i):
            """The items that head i stands for at a node with unused
            values free, itself included."""
            orbit = at_dirs[i % D]
            for a, (s, x) in enumerate(zip(shifts, points[i // D])):
                f = free >> s & field
                orbit &= at_values[a][f if f >> x & 1 else 1 << x]
            return orbit

        self.cover_orbit, self.pack_orbit = cover_orbit, pack_orbit


def _solve(g, mode, budget, search, capped_bounds) -> SolveResult:
    """Run search(inst, tick, stats, best) under the budget.

    best = [value, placements] starts at [-1, []] and search replaces it
    whole: the covering and packing searches seed it before their first
    tick(), max coverage at N = 0 only.  A search whose best meets its
    closed-form bound may end there by raising _Proven.  tick(size=1,
    pruned=False) counts size nodes, and with pruned also counts them as
    pruned, all but a node at which the budget stops the search: it reads
    the budget at each node due among them (see SolverBudget) and raises
    _BudgetExhausted when it is spent; tick.late() reads the clock alone,
    counting no node, and says whether max_seconds has passed.  A search
    too deep for the stack stops on RecursionError alike, and
    stats.stop_reason says which of the three stopped it.  Every node is
    counted through tick(), the root, node 1, first.  A proven run
    reports (best value, best value) as (lower, upper), a capped one
    capped_bounds(best value), and the result is exact, with optimum
    lower, when they meet.  Bounds that meet always have the witness of
    best: the seeds see to that, as max coverage's capped bounds
    (max(best, 0), upper) meet at 0 when N = 0 only.
    """
    budget = budget or SolverBudget()
    stats = SolveStats()
    start = time.perf_counter()
    due = 1  # the next node at which the budget is read

    def tick(size=1, pruned=False):
        nonlocal due
        nodes = stats.nodes + size
        while nodes >= due:
            cap = due > budget.max_nodes
            if cap or time.perf_counter() - start > budget.max_seconds:
                if pruned:
                    stats.pruned += due - 1 - stats.nodes
                stats.nodes = due
                raise _BudgetExhausted("node_cap" if cap else "time_cap")
            due = min(budget.max_nodes + 1, 2 * due, (due | 4095) + 1)
        if pruned:
            stats.pruned += size
        stats.nodes = nodes

    tick.late = lambda: time.perf_counter() - start > budget.max_seconds
    inst = _Instance(g)
    best = [-1, []]
    try:
        search(inst, tick, stats, best)
    except _Proven:
        pass
    except _BudgetExhausted as stop:
        stats.stop_reason = stop.args[0]
    except RecursionError:
        stats.stop_reason = "depth"
    stats.wall_time = time.perf_counter() - start
    witness = inst.config(best[1]) if best[0] >= 0 else None
    lower, upper = (best[0], best[0]) if stats.stop_reason == "proven" else capped_bounds(best[0])
    return SolveResult(mode, lower if lower == upper else None, witness, stats, lower, upper)


def _closed_form_seed(inst: _Instance, mode):
    """The placements of a configuration meeting the solve's own bound on
    one of these families, or None off them:

    - b(n,2,1) = 2n - 2: (0, j) along axis 0 and (i, 0) along axis 1 for
      i, j >= 1, each alone on its line; the incidence bound;
    - a(n,3,3) = ceil(n^2 / 2): with the values split into a low block
      of n // 2 and a high block of the rest, the full rooks
      (o+x, o+y, o+z) with x + y + z = 0 mod s in each block of size s at
      offset o; Rodemich's bound.  Two of a point's three coordinates
      lie in one block, and that block's rook agreeing there covers it;
    - at n = 2 with (k - l)^2 < k, b(2,k,l) = 2^(k-1), Huang's hypercube
      bound, from the even-weight points attacking along axes 0..l-1:
      two of them differ in two coordinates or more, so no line holds two;
    - at n = 2 and k = 2^m - 1, the binary Hamming code T, the points
      whose set coordinates' 1-based positions XOR to 0: a(2,k,k) and
      c(2,k,k) closed = |T| = 2^(k-m), the sphere bounds, and
      b(2,k,1) = 2^k - |T|, the incidence bound, from the complement of
      T, each point attacking along the axis whose flip takes it into T.

    A family's n = 1 grid holds no b(n,2,1) rook, which misses the bound.
    """
    g, n, D = inst.g, inst.g.n, inst.D
    if mode == "max_pack" and g.k == 2 and g.l == 1:
        # point (x, y) is index x n + y, and dirsets[a] is (a,) when l = 1
        return [j * D for j in range(1, n)] + [i * n * D + 1 for i in range(1, n)]
    if mode == "min_cover" and g.k == g.l == 3:
        h = n // 2
        return [((o + x) * n + o + y) * n + o + (-x - y) % s
                for o, s in ((0, h), (h, n - h)) for x in range(s) for y in range(s)]
    if mode == "max_pack" and n == 2 and (g.k - g.l) ** 2 < g.k:
        # dirsets[0] is (0, ..., l-1); a point's index has its coordinates as bits
        return [q * D for q in range(inst.npts) if not q.bit_count() & 1]
    if n == 2 and g.k & (g.k + 1) == 0:
        # syndromes[q]: the XOR of the 1-based positions of point q's set
        # coordinates, axis 0 being q's most significant bit
        syndromes = [0]
        for a in reversed(range(g.k)):
            syndromes += [s ^ a + 1 for s in syndromes]
        if mode == "max_pack" and g.l == 1:
            return [q * D + s - 1 for q, s in enumerate(syndromes) if s]
        if mode in ("min_cover", "max_two_pack_closed") and g.l == g.k:
            return [q for q, s in enumerate(syndromes) if not s]
    return None


def _greedy_covering(inst: _Instance):
    """Placements covering H(n, k), at distinct points: each the one with
    the most uncovered points, the lowest index on ties.  exact_min_covering
    runs it only where the modular diagonal exceeds covering_lower.

    The gains (uncovered points per placement) are a bit-sliced counter
    over placement indices: bit j of slices[b] is bit b of placement j's
    gain.  Every gain starts at ball, and a point that gets covered takes
    one off each placement in its by_cov mask, a borrow rippling up the
    slices until it runs out.  The pick narrows live, the placements at
    free points, from the top slice down, keeping those with the bit set
    wherever one has it, and takes the lowest left.  An uncovered point
    holds no rook, so while one is left some live placement gains.
    """
    covs, by_cov, ball, D, block = inst.placements, inst.by_cov, inst.g.ball, inst.D, inst.block
    live = (1 << len(covs)) - 1
    slices = [live if ball >> b & 1 else 0 for b in range(ball.bit_length())]
    uncovered, chosen = inst.full, []
    while uncovered:
        top = live
        for bits in reversed(slices):
            if top & bits:
                top &= bits
        i = (top & -top).bit_length() - 1
        chosen.append(i)
        live &= ~(block << i // D * D)
        fresh = covs[i] & uncovered
        uncovered ^= fresh
        while fresh:
            u = fresh.bit_length() - 1
            fresh ^= 1 << u
            borrow = by_cov[u]
            for b, bits in enumerate(slices):
                bits ^= borrow
                slices[b] = bits
                borrow &= bits
                if not borrow:
                    break
    return chosen


def _gain_deficit(left, live, o0, o1):
    """A lower bound on left * ball minus the left largest fresh gains
    ball - |cov & covered| among the live placements, where o0 and o1
    hold the placements meeting covered in at least one and two points:
    a0 live ones outside o0 gain ball, a1 in o0 but not o1 gain ball - 1,
    and the rest at most ball - 2."""
    m0 = (live & o0).bit_count()
    a0 = live.bit_count() - m0
    if left <= a0:
        return 0
    a1 = m0 - (live & o1).bit_count()
    return min(left - a0, a1) + 2 * max(0, left - a0 - a1)


def exact_min_covering(
    g: GridParams,
    budget: SolverBudget | None = None,
    symmetry_breaking: bool = False,
) -> SolveResult:
    """Minimum number of l-rooks covering H(n, k), by depth-first
    branch-and-bound on the first uncovered point, seeded with a
    closed-form covering meeting covering_lower where one is known
    (_closed_form_seed: a(n,3,3) and the binary Hamming codes), else with
    the modular diagonal of n^(k-1) rooks, or with the greedy covering
    (_greedy_covering) where that is smaller.  The greedy runs only where
    the diagonal exceeds covering_lower, as no covering is smaller: not on
    any l = 1 grid, where n^(k-1) is the sphere bound, nor on any
    a(n,2,2), where it is Rodemich's, and not where by_cov, built first,
    has spent the time cap (see SolverBudget).  The greedy reads the
    coverage ints of the rooks it picks only, and the search those of the
    candidates it tries.  The root closes when the seed meets
    covering_lower, before the per-point table, the value orbits and the
    overlap memo are built.  The search stops as soon as best meets
    covering_lower, which is also the lower bound of a capped run.

    live is a mask over placement indices: the candidates for the first
    uncovered point p are by_cov[p] & live, taken lowest first.
    A taken rook's point leaves the child's live, and once a candidate's
    subtree is searched it leaves live for its later siblings, so each
    covering is reached through one order of its rooks only.

    Orbital branching: the value permutations of each axis that fix the
    chosen points and p map the node onto itself.  A candidate (q, d) on
    p's axis-a line whose q_a no chosen point uses stands for d at every
    such value but p_a on that line, so its whole orbit leaves live after
    its subtree.  That keeps an optimum: of the optimal coverings, the
    one whose rooks, taken lowest first for each first uncovered point,
    give the least index sequence is never cut, since a permutation that
    moves one of its rooks onto an earlier sibling gives an optimal
    covering with a lesser sequence.  The same argument lets the root keep
    only the placements that are least in their orbit under the axis
    permutations.  symmetry_breaking is ignored; it is kept until the
    benchmark stops passing it (ROADMAP item 1).

    The bound.  A child at depth + 1 may add at most left = best - depth
    - 2 rooks, each covering its fresh gain: ball less its overlap with
    the points covered so far.  A child covering c points is cut when
    c < need = npts - G, G a bound on the left largest gains; the sphere
    bound takes G = left * ball.  Each node keeps o0 and o1, the
    placements whose coverage meets covered in at least one and at least
    two points, so of the live placements (the only ones below the
    child) those outside o0 gain ball, those in o0 but not o1 ball - 1,
    and those in o1 at most ball - 2.  Their left largest, bucketed so
    (_gain_deficit), give a smaller G from three popcounts; gains only
    fall further down, so it holds for every child, and G >= 0, as
    ball >= 2 wherever the search branches (n = 1 closes at the root).
    It is computed when left > 0 and the sphere slack is at most
    2 * left + 1 (it takes at most 2 * left off) but does not already
    cut every candidate (a lower slack cuts a superset), kept only when
    it brings the slack to 1 or less, and recomputed with need whenever
    best changes.  A child's o0 and o1 are its parent's grown by its
    fresh points f: with F1 and F2 the placements meeting f in at least
    one and two points, from a per-solve memo keyed by f, they are
    o0 | F1 and o1 | (o0 & F1) | F2 (_overlap_update).

    Leaf children are counted in bulk.  A child covers |covered| + ball -
    overlap points, so it fails the bound iff its overlap exceeds the
    slack s = |covered| + ball - need; at slack 0 or 1 that is iff it is
    in o_s, and at slack < 0 every child fails.  A full covering has
    overlap |covered| + ball - npts = s - G <= s while best - depth - 2
    >= 0, so it is never among the cut: never in o_s, and never a child
    at all when s < 0.  A child's first turn is taken in its parent,
    which passes it the slack: a child that is not orbital and whose
    slack cuts all its candidates would only count them and return, so
    the parent counts them instead, by one tick(size, True), and makes no
    call.  Every other child is counted by its own tick() where it is
    tested, so the budget is read on _solve's schedule (see SolverBudget).
    """
    lower, _ = covering_lower(g)

    def search(inst, tick, stats, best):
        D = inst.D
        seed = _closed_form_seed(inst, "min_cover")
        if seed is None or len(seed) > lower:
            # the modular diagonal attacking along axes 0..l-1 (direction
            # set 0): every axis-0 line holds one point of coordinate sum 0 mod n
            seed = [q * D for q, p in enumerate(inst.points) if sum(p) % g.n == 0]
            if len(seed) > lower:  # no covering is smaller than lower
                # the greedy's table first: a time cap it spends skips the
                # greedy, and the root's read below stops the solve
                inst.by_cov
                if not tick.late():
                    seed = min(seed, _greedy_covering(inst), key=len)  # the seed on ties
        best[:] = [len(seed), seed]
        tick()  # the root, pruned when the seed meets lower
        if best[0] <= lower:
            stats.pruned += 1
            return

        covs, full, npts, ball = inst.placements, inst.full, inst.npts, g.ball
        entries, build = covs.entries, covs.build
        by_point = inst.by_cov
        orbits = _ValueOrbits(inst, D)
        ptmask, is_orbital, cover_orbit = orbits.ptmask, orbits.orbital, orbits.cover_orbit
        overlap_update = _overlap_update(by_point)
        block = inst.block
        chosen = []

        def bound(left, ncovered, live, o0, o1, cands):
            # the slack of a node's children: one meeting covered in more
            # points is cut; the bucketed gains lower the sphere slack
            # only where it does not already cut every one of cands
            slack = ncovered + (left + 1) * ball - npts
            if 0 < left and 0 <= slack <= 2 * left + 1 and (
                    slack > 1 or cands & ~(o1 if slack else o0)):
                tight = slack - _gain_deficit(left, live, o0, o1)
                if tight <= 1:
                    return tight
            return slack

        def branch(covered, live, depth, cands, p, free, o0, o1, slack):
            # cands hold the placements covering p, covered's first zero
            # bit; free holds the values no chosen point uses (see
            # _ValueOrbits); o0 and o1 are the placements meeting covered
            # in at least one and two points.  A child at depth + 1 needs
            # at least (npts - c) / ball more rooks after its c covered
            # points, so it is pruned when
            # depth + 1 + ceil((npts - c) / ball) >= best, which is
            # c < need = npts - (best - depth - 2) * ball; the bucketed
            # gains may raise need (see the docstring).  slack is
            # bound()'s at the current best, from the caller.
            # spare: the values an orbit on one of p's lines ranges over
            spare = free & ~ptmask[p]
            orbital = is_orbital[spare]
            ncovered = covered.bit_count()
            top = None  # the best value need was set for
            while cands:
                if best[0] != top:
                    if top is not None:
                        slack = bound(best[0] - depth - 2, ncovered, live, o0, o1, cands)
                    top = best[0]
                    left = top - depth - 2  # rooks a child may still add
                    need = ncovered + ball - slack
                low = cands & -cands
                cands ^= low
                i = low.bit_length() - 1
                child = covered | (entries[i] or build(i))
                tick()
                if child == full:
                    if depth + 1 < top:
                        best[:] = [depth + 1, chosen + [i]]
                        if depth + 1 <= lower:
                            raise _Proven
                elif (c := child.bit_count()) < need:
                    stats.pruned += 1
                else:
                    q = i // D
                    rest = live & ~(block << q * D)
                    at = ((child + 1) & ~child).bit_length() - 1
                    c0, c1 = overlap_update(o0, o1, child ^ covered)
                    sub = by_point[at] & rest
                    s = bound(left - 1, c, rest, c0, c1, sub)
                    free_q = free & ~ptmask[q]
                    if s <= 1 and (s < 0 or not sub & ~(c1 if s else c0)) and (
                            not is_orbital[free_q & ~ptmask[at]]):
                        # the child's first turn would book all of sub as
                        # pruned and end it: book them here, with no call
                        tick(sub.bit_count(), True)
                    else:
                        chosen.append(i)
                        branch(child, rest, depth + 1, sub, at, free_q, c0, c1, s)
                        chosen.pop()
                live ^= low
                if orbital and spare & ptmask[i // D]:
                    # i sits off p, at a value in spare (its other
                    # coordinates are p's, whose values spare lacks)
                    orbit = cover_orbit(spare, p, i)
                    if orbit:
                        cands &= ~orbit
                        live &= ~orbit

        try:
            live = (1 << len(covs)) - 1
            # a placement covering point 0 is off it on at most one axis,
            # which its direction set holds; its orbit's least member
            # moves that axis last and its others to 0..l-2: set 0 at
            # point 0, and set k - l, which is {0..l-2, k-1}, at points
            # 1..n-1 of the last axis
            root = 1 | _repeat(1 << g.k - g.l, D, g.n) & ~block
            branch(0, live, 0, root, 0, orbits.all_free, 0, 0,
                   bound(best[0] - 2, 0, live, 0, 0, root))
        finally:
            del branch  # branch calls itself through its cell: free it

    return _solve(g, "min_cover", budget, search, lambda value: (lower, value))


def _overlap_update(by_point):
    """update(o0, o1, fresh) -> (c0, c1): where o0 and o1 hold the
    placements meeting a point set in at least one and two points, c0 and
    c1 hold those meeting it together with the points of fresh;
    by_point[u] holds the placements covering point u.

    The placements meeting fresh in at least one and two points, F1 and
    F2, are a memo keyed by fresh, so that c0 = o0 | F1 and
    c1 = o1 | (o0 & F1) | F2."""

    def meets(fresh):
        f1 = f2 = 0
        while fresh:
            u = fresh.bit_length() - 1
            f2 |= f1 & by_point[u]
            f1 |= by_point[u]
            fresh ^= 1 << u
        return f1, f2

    memo = _Memo(meets)

    def update(o0, o1, fresh):
        f1, f2 = memo[fresh]
        return o0 | f1, o1 | o0 & f1 | f2

    return update


def _union(table, bits):
    """OR of table[u] over the set bits u of bits."""
    mask = 0
    while bits:
        u = bits.bit_length() - 1
        mask |= table[u]
        bits ^= 1 << u
    return mask


def _closed_conflicts(inst, i):
    """Rooks covering a point placement i covers.  For each axis a of i,
    those are the rooks on i's axis-a line, and those off it that attack
    it along some b != a, which sit in the (a, b) plane through i's
    point."""
    D, weights = inst.D, inst.weights
    q, m = i // D, 0
    p = inst.points[q]
    for a in inst.dirsets[i % D]:
        m |= inst.line(a, q, inst.occupants[a])
        corner = q - p[a] * weights[a]
        for b, plane in enumerate(inst.planes[a]):
            if b != a:
                m |= plane << (corner - p[b] * weights[b]) * D
    return m


# The placements that cannot coexist with placement i, i included, as a
# mask over placement indices, in each mode of _max_independent.
_CONFLICTS = {
    "max_two_pack_closed": _closed_conflicts,
    # rooks attacking a point i attacks, and rooks on i's point
    "max_two_pack_strict": lambda inst, i: (
        _union(inst.by_att, inst.placements[i] ^ 1 << i // inst.D)
        | inst.block << i // inst.D * inst.D
    ),
}


def _max_independent(g, mode, budget, cap_for, upper):
    """Include/exclude search over placements for max_two_pack (closed
    and strict; exact_max_packing searches points instead), seeded with
    the closed-form configuration of _closed_form_seed where it meets
    upper, else with the greedy pick in placement order.  A seed
    that meets upper closes the solve at its root, which reports (nodes,
    pruned) = (1, 0), before the conflict memo (for a closed-form seed),
    the cap and the value orbits are built.

    Candidate sets are ints over placement indices: the head is the lowest
    set bit, and the include child keeps the tail minus the head's
    _CONFLICTS[mode] mask, computed once per head.  cap_for(inst) gives
    cap(cands), a bound on the rooks any subset of cands can hold that
    never exceeds the candidate count and falls by at most one when a
    candidate leaves.  upper is the closed-form bound reported when the
    budget runs out; an incumbent that meets it is proven optimal, so the
    search stops there (_Proven).

    Orbital branching: the value permutations of each axis that fix the
    chosen points map the conflicts onto themselves.  The orbit of the
    head (q, d) is d at every point q' with q'_a = q_a on the axes where a
    chosen point uses q_a, and q'_a unused on the others; after the
    include child, the exclude step drops the orbit from cands and lowers
    lo by its size.  That keeps an optimum: of the optimal sets, the one
    first in placement order (the lowest index where two differ is in
    it) is never cut, since a permutation that moves one of its rooks
    onto a dropped head gives an optimal set earlier in that order.
    """
    conflicts = _CONFLICTS[mode]

    def search(inst, tick, stats, best):
        P, D = inst.npts * inst.D, inst.D
        full = (1 << P) - 1
        seed = _closed_form_seed(inst, mode)
        if seed is None or len(seed) < upper:
            allowed = _Memo(lambda i: full ^ conflicts(inst, i))
            seed, cands = [], full
            while cands:
                i = (cands & -cands).bit_length() - 1
                seed.append(i)
                cands &= allowed[i]
        best[:] = [len(seed), seed]
        if best[0] >= upper:  # proven at the root, before any cap or orbit
            tick()
            raise _Proven

        cap = cap_for(inst)
        orbits = _ValueOrbits(inst, D)
        ptmask, is_orbital, pack_orbit = orbits.ptmask, orbits.orbital, orbits.pack_orbit
        chosen = []

        def dfs(cands, depth, free):
            # A node is pruned when depth + cap(cands) <= best.  The cap
            # never exceeds the candidate count, so count <= slack prunes
            # without a recount.  Dropping a candidate lowers the cap by at
            # most one, so lo..hi brackets it along the exclude chain (the
            # next turn of the loop); a turn recounts only when the bracket
            # cannot decide.  free holds the values no chosen point uses
            # (see _ValueOrbits); with at most one on every axis, each
            # orbit is its head alone.
            orbital = is_orbital[free]
            lo, hi = 0, P
            while True:
                tick()
                if depth > best[0]:
                    best[:] = [depth, list(chosen)]
                if best[0] >= upper:
                    raise _Proven
                if not cands:
                    return
                slack = best[0] - depth
                if cands.bit_count() <= slack or hi <= slack:
                    stats.pruned += 1
                    return
                if lo <= slack:
                    lo = hi = cap(cands)
                    if hi <= slack:
                        stats.pruned += 1
                        return
                low = cands & -cands
                cands ^= low
                i = low.bit_length() - 1
                chosen.append(i)
                dfs(cands & allowed[i], depth + 1, free & ~ptmask[i // D])
                chosen.pop()
                lo -= 1
                if orbital:
                    orbit = cands & pack_orbit(free, i)
                    cands ^= orbit
                    lo -= orbit.bit_count()

        try:
            dfs(full, 0, orbits.all_free)
        finally:
            del dfs  # dfs calls itself through its cell: free it

    # any feasible configuration is a valid lower bound for a max problem
    return _solve(g, mode, budget, search, lambda value: (value, upper))


def _unit_cap(inst, unit):
    """cap for strict two-packings, where each rook holds the unit points
    of its attack set alone: the points the candidates attack, // unit."""
    by_point, covs, D = inst.by_att, inst.placements, inst.D
    masks = _Memo(lambda i: covs[i] ^ 1 << i // D)
    npts = len(by_point)

    def cap(cands):
        # few candidates: OR their masks; many: test every point, dropping
        # each AND as it is counted
        if 3 * cands.bit_count() < 2 * npts:
            return _union(masks, cands).bit_count() // unit
        return sum(map(bool, map(cands.__and__, by_point))) // unit

    return cap


def _repeat(pattern, width, count):
    """count copies of the width-bit pattern, laid end to end."""
    return pattern * (((1 << width * count) - 1) // ((1 << width) - 1))


def _window(step, span):
    """Shift amounts that, applied in turn as x |= x >> t, make x the OR of
    x >> j*step over 0 <= j < span (likewise for <<); each doubles the
    window covered, the last tops it up."""
    shifts, s = [], 1
    while s < span:
        t = min(s, span - s)
        shifts.append(t * step)
        s += t
    return shifts


def _reach_cap(inst, unit):
    """cap for closed two-packings, where each rook holds the unit points
    of its coverage alone: the points the candidates reach, // unit.
    Those are the points on an axis-a line, for any a, that holds a
    candidate attacking along a (a rook's point lies on its own lines).

    Placement p*D + j is the j-th direction set at point p, so each point
    owns a D-bit block.  Per axis the kernel gathers the whole blocks of
    the candidates attacking along a onto the points with x_a = 0
    (x |= x >> t for t in line), keeps those, and spreads them back along
    the line (x |= x << t); it folds the blocks into their first bits
    (starts) once, at the end."""
    g, D, npts = inst.g, inst.D, inst.npts
    n = g.n
    axes = []
    for along, w in zip(inst.along, inst.weights):
        # the points with x_a = 0 are the first w of every n*w points
        blocks = _repeat(_repeat(inst.block, D, w), n * w * D, npts // (n * w))
        axes.append((_repeat(along, D, npts), blocks, _window(w * D, n)))
    starts, fold = _repeat(1, D, npts), _window(1, D)

    def cap(cands):
        reached = 0
        for along, blocks, line in axes:
            heads = cands & along
            for t in line:
                heads |= heads >> t
            heads &= blocks
            for t in line:
                heads |= heads << t
            reached |= heads
        for t in fold:
            reached |= reached >> t
        return (reached & starts).bit_count() // unit

    return cap


def _at_least(masks, m):
    """The bits set in at least m >= 1 of masks."""
    t = [0] * m  # t[j]: the bits set in at least j + 1 of the masks so far
    for x in masks:
        for j in range(m - 1, 0, -1):
            t[j] |= t[j - 1] & x
        t[0] |= x
    return t[-1]


class _PointPacking:
    """The packing search's kernel, on masks over the n^k points: bit p
    stands for point p.

    A point set S is a packing iff every point of S is alone in S on at
    least l of its k lines, its lonely lines.  It then attacks along its
    lowest l lonely axes (witness), and no other rook lies on those lines.

    A node's state is (chosen, empty, single, locked): S as a mask; per
    axis a, the points whose axis-a line holds no point of S (empty[a],
    the complement of occ[a]) and exactly one (single[a]); and locked, the
    lines of the points of S left with exactly l lonely lines, which no
    point may join.  lonely[q] counts the lonely lines of each q in S.  A
    point is a candidate iff it is off locked and at least l of its lines
    are empty: those become its lonely lines, and a point of S sharing a
    line with it (two points share one at most) had more than l, or the
    line would be locked, so it keeps l.  root is (all points, *state of
    the empty S).

    include(p, cands, *state) -> (cands, *state, hit): p joins S.  cands
    are the candidates left beside p, the child's are those that stay
    candidates, and hit lists the points of S that lost a lonely line;
    restore(hit) gives their counts back when the child's subtree is done.

    counts(cands, empty) -> (lines, cliques): the empty lines holding a
    candidate, over all axes, and the cliques (a, q) meeting the
    candidates: q is one, or lies on an empty axis-a line holding one.
    Per axis the kernel gathers the empty-line candidates onto the points
    with x_a = 0 with _window's shifts and counts them; as those lines
    hold n points each, and hold every candidate off occ[a], the cliques
    on axis a number n lines_a plus the candidates on occ[a].  A rook
    added below holds l empty lines alone, and meets l(n-1)+k of those
    cliques, k at its point and n-1 along each line it attacks along,
    which no other rook meets; so cap(cands, empty) = min(lines // l,
    cliques // (l(n-1)+k)) bounds the rooks cands can add, and at the root
    it is the incidence bound.  One point leaving takes at most k lines
    and kn cliques with it, so lowers the cap by at most step.
    """

    def __init__(self, inst: _Instance):
        g, npts, weights, D = inst.g, inst.npts, inst.weights, inst.D
        n, k, l = g.n, g.k, g.l
        full = (1 << npts) - 1
        self.root = (full, 0, [full] * k, [0] * k, 0)
        lonely = [0] * npts
        points, axes = inst.points, range(k)
        # the axis-a line through point 0, the points with x_a = 0 (the
        # first w of every n*w), and the shifts gathering a line onto them
        line0 = [_repeat(1, w, n) for w in weights]
        heads = [(_repeat((1 << w) - 1, n * w, npts // (n * w)), _window(w, n)) for w in weights]
        per_rook = l * (n - 1) + k
        self.step = max(-(-k // l), -(-k * n // per_rook))
        index = {d: j for j, d in enumerate(inst.dirsets)}

        if l <= k - l + 1:  # count empty lines up to l, or occupied ones past k - l
            def fit(cands, empty):
                return cands & _at_least(empty, l)
        else:
            def fit(cands, empty):
                return cands & ~_at_least([~e for e in empty], k - l + 1)

        def include(p, cands, chosen, empty, single, locked):
            x, empty, single, own, hit = points[p], empty[:], single[:], [], []
            for a in axes:
                if empty[a] >> p & 1:
                    line = line0[a] << p - x[a] * weights[a]
                    empty[a] ^= line
                    single[a] |= line
                    own.append(line)
                elif single[a] >> p & 1:
                    line = line0[a] << p - x[a] * weights[a]
                    single[a] ^= line
                    q = (chosen & line).bit_length() - 1
                    lonely[q] -= 1
                    hit.append(q)
                    if lonely[q] == l:  # q's other lines are off p's: final
                        y = points[q]
                        for b in axes:
                            if single[b] >> q & 1:
                                locked |= line0[b] << q - y[b] * weights[b]
            lonely[p] = len(own)
            if len(own) == l:
                for line in own:
                    locked |= line
            return fit(cands & ~locked, empty), chosen | 1 << p, empty, single, locked, hit

        def restore(hit):
            for q in hit:
                lonely[q] += 1

        def counts(cands, empty):
            lines = cliques = 0
            for e, (plane, gather) in zip(empty, heads):
                x = cands & e
                cliques -= x.bit_count()
                for t in gather:
                    x |= x >> t
                lines += (x & plane).bit_count()
            return lines, n * lines + k * cands.bit_count() + cliques

        def cap(cands, empty):
            lines, cliques = counts(cands, empty)
            return min(lines // l, cliques // per_rook)

        def witness(chosen, single):
            """The placements of the points chosen, each along its lowest
            l lonely axes."""
            return [q * D + index[tuple([a for a in axes if single[a] >> q & 1][:l])]
                    for q in chosen]

        self.include, self.restore, self.counts, self.cap, self.witness = (
            include, restore, counts, cap, witness)


def exact_max_packing(g: GridParams, budget: SolverBudget | None = None) -> SolveResult:
    """Maximum number of l-rooks with no rook attacking another; upper is
    the clique bound incidence_bound_b, lowered to Huang's hypercube bound
    where that applies.  A closed-form seed meeting upper closes b(n,2,1)
    = 2n - 2 for n >= 2, b(2,k,l) = 2^(k-1) for (k - l)^2 < k, and
    b(2,k,1) = 2^k - 2^k / (k + 1) for k = 2^m - 1 at the root.

    Elsewhere an include/exclude search runs over the n^k points on
    _PointPacking's masks, seeded with the greedy pick in point order; the
    witness takes each point's lowest l lonely axes.  The head is the
    lowest candidate, a node is pruned when depth + cap(cands) <= best,
    and the search stops once best meets upper.  Orbital branching is
    _max_independent's, on points: after the include child, the exclude
    step drops the head's pack_orbit from cands.
    """
    upper = int(incidence_bound_b(g))
    try:
        upper = min(upper, hypercube_bound_b(g))
    except NotApplicable:
        pass

    def search(inst, tick, stats, best):
        seed = _closed_form_seed(inst, "max_pack")
        if seed is None or len(seed) < upper:
            kernel = _PointPacking(inst)
            cands, chosen, empty, single, locked = kernel.root
            seed = []
            while cands:
                p = (cands & -cands).bit_length() - 1
                seed.append(p)
                cands, chosen, empty, single, locked, _ = kernel.include(
                    p, cands ^ 1 << p, chosen, empty, single, locked)
            seed = kernel.witness(seed, single)
        best[:] = [len(seed), seed]
        if best[0] >= upper:  # proven at the root, before any cap or orbit
            tick()
            raise _Proven

        include, restore, cap, witness, step = (
            kernel.include, kernel.restore, kernel.cap, kernel.witness, kernel.step)
        orbits = _ValueOrbits(inst, 1)
        ptmask, is_orbital, pack_orbit = orbits.ptmask, orbits.orbital, orbits.pack_orbit
        path = []

        def dfs(cands, depth, free, chosen, empty, single, locked):
            # free holds the values no chosen point uses (see _ValueOrbits);
            # lo..hi brackets the cap along the exclude chain, as a point
            # leaving cands lowers it by at most step
            orbital = is_orbital[free]
            lo, hi = 0, inst.npts
            while True:
                tick()
                if depth > best[0]:
                    best[:] = [depth, witness(path, single)]
                if best[0] >= upper:
                    raise _Proven
                if not cands:
                    return
                slack = best[0] - depth
                if cands.bit_count() <= slack or hi <= slack:
                    stats.pruned += 1
                    return
                if lo <= slack:
                    lo = hi = cap(cands, empty)
                    if hi <= slack:
                        stats.pruned += 1
                        return
                low = cands & -cands
                cands ^= low
                p = low.bit_length() - 1
                sub, below, em, si, lk, hit = include(p, cands, chosen, empty, single, locked)
                path.append(p)
                dfs(sub, depth + 1, free & ~ptmask[p], below, em, si, lk)
                path.pop()
                restore(hit)
                lo -= step
                if orbital:
                    orbit = cands & pack_orbit(free, p)
                    cands ^= orbit
                    lo -= step * orbit.bit_count()

        try:
            dfs(kernel.root[0], 0, orbits.all_free, *kernel.root[1:])
        finally:
            del dfs  # dfs calls itself through its cell: free it

    return _solve(g, "max_pack", budget, search, lambda value: (value, upper))


def exact_max_two_packing(
    g: GridParams, mode: str = "closed", budget: SolverBudget | None = None
) -> SolveResult:
    """Maximum number of l-rooks with no grid point reached twice; upper
    is the lesser of the plane and sphere bounds for closed coverage sets,
    and the count of disjoint attack sets for strict ones.  Closed
    c(2,k,k) for k = 2^m - 1 meets the sphere bound with the binary
    Hamming code and closes at the root."""
    if mode not in ("closed", "strict"):
        raise InvalidArgument(f"unknown two-packing mode {mode!r}")
    if g.l < 2:
        raise InvalidArgument("two-packing needs l >= 2")
    if mode == "closed":
        unit, cap = g.ball, _reach_cap
        upper = min(int(singleton_bound_c(g)), sphere_bound_c(g))
    else:
        unit, cap = g.l * (g.n - 1), _unit_cap
        # strict attack sets are pairwise disjoint, each of unit points
        upper = g.num_points // unit if unit else g.num_points
    return _max_independent(
        g, f"max_two_pack_{mode}", budget, lambda inst: cap(inst, unit), upper
    )


def exact_max_coverage(
    g: GridParams, N: int, budget: SolverBudget | None = None
) -> SolveResult:
    """Maximum number of points covered by exactly N l-rooks, by an
    include/exclude dfs of its own: the include child drops every
    placement at its point, and a node is pruned when ball fresh points
    per rook still to place cannot beat the best found.  The search stops
    once best meets upper = min(N ball, n^k, floor(Rodemich)), the last
    for N <= n^(k-1) only (see rodemich_max_coverage)."""
    if type(N) is not int:  # bool and float would pass the range checks
        raise InvalidArgument(f"N = {N!r} is not an integer")
    if N < 0:
        raise InvalidArgument("need N >= 0")
    if N > g.num_points:
        raise InvalidArgument(f"cannot place {N} rooks on {g.num_points} points")
    ball = g.ball
    upper = min(N * ball, g.num_points)
    if N <= g.n ** (g.k - 1):
        upper = min(upper, int(rodemich_max_coverage(N, g.n, g.k)))

    def search(inst, tick, stats, best):
        covs, D, block = inst.placements, inst.D, inst.block
        entries, build = covs.entries, covs.build
        chosen = []
        if not N:  # no rooks cover no points, which closes the bracket (0, 0)
            best[:] = [0, []]

        def dfs(cands, covered, depth):
            left = N - depth
            reach = covered.bit_count() + left * ball
            while True:
                tick()
                if not left:
                    if reach > best[0]:
                        best[:] = [reach, list(chosen)]
                        if reach >= upper:
                            raise _Proven
                    return
                if cands.bit_count() < left:
                    return
                if reach <= best[0]:
                    stats.pruned += 1
                    return
                low = cands & -cands
                cands ^= low
                i = low.bit_length() - 1
                chosen.append(i)
                dfs(cands & ~(block << i // D * D), covered | (entries[i] or build(i)), depth + 1)
                chosen.pop()

        try:
            dfs((1 << len(covs)) - 1, 0, 0)
        finally:
            del dfs  # dfs calls itself through its cell: free it

    return _solve(g, "max_coverage", budget, search, lambda value: (max(value, 0), upper))


def encode_ilp(g: GridParams, mode: str, out) -> dict:
    """Write an LP-format integer program for the instance to the text
    sink; one binary variable y_<pointindex>_<dirmask> per placement.

    min_cover: minimize sum y s.t. each point is covered at least once.
    max_pack: maximize sum y s.t. for each axis a and point q, the
    placements at q and those attacking along q's axis-a line hold at
    most one rook (k n^k rows; every conflicting pair shares one).
    max_two_pack: maximize sum y s.t. each point lies in at most one
    chosen closed coverage set.
    """
    if mode not in ("min_cover", "max_pack", "max_two_pack"):
        raise InvalidArgument(f"unknown ilp mode {mode!r}")
    inst = _Instance(g)
    dirmasks = [sum(1 << a for a in d) for d in inst.dirsets]
    names = [f"y_{p}_{m}" for p in range(inst.npts) for m in dirmasks]
    # rows are (name, mask over placement indices, sense)
    if mode == "max_pack":
        # the (line, point) cliques of incidence_bound_b: the placements
        # at q and those attacking along q's axis-a line, at most one each
        rows = [(f"clique_{q}_{a}", inst.line(a, q, pattern) | inst.block << q * inst.D, "<=")
                for q in range(inst.npts) for a, pattern in enumerate(inst.attackers)]
    else:
        prefix, sense = ("cover", ">=") if mode == "min_cover" else ("cover2", "<=")
        rows = [(f"{prefix}_{p}", m, sense) for p, m in enumerate(inst.by_cov)]
    lines = ["Minimize" if mode == "min_cover" else "Maximize", " obj: " + " + ".join(names),
             "Subject To"]
    for name, m, sense in rows:
        terms = []
        while m:
            low = m & -m
            terms.append(names[low.bit_length() - 1])
            m ^= low
        lines.append(f" {name}: " + " + ".join(terms) + f" {sense} 1")
    lines.append("Binary")
    lines += [f" {name}" for name in names]
    lines.append("End")
    out.write("\n".join(lines) + "\n")
    return {"mode": mode, "variables": len(names), "constraints": len(rows)}


def check_witness(mode: str, witness, value, N=None) -> bool:
    """True when witness certifies value for the solver mode: value rooks
    passing the verifier of min_cover, max_pack or
    max_two_pack_{closed,strict}, or N rooks covering value points."""
    if witness is None:
        return False
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
