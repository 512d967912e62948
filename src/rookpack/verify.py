"""Validity checks for coverings, packings, and two-packings.

Each check returns a VerifyReport with a capped list of diagnostic
violations, sorted by point index then rook index so output is
deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .core import Configuration, InvalidArgument, RookError, config_coverage, rook_indices

DEFAULT_VIOLATION_CAP = 64


class UndefinedDistance(RookError):
    pass


@dataclass(frozen=True)
class Violation:
    """One diagnostic record.

    kind is one of "uncovered" (point index set), "attack" (pair of rook
    indices) or "double" (point index plus the two rook indices).
    """

    kind: str
    point: int | None = None
    rooks: tuple | None = None


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple
    total_violations: int

    @property
    def capped(self) -> bool:
        return self.total_violations > len(self.violations)


def _report(violations, cap):
    violations = sorted(
        violations, key=lambda v: (v.point if v.point is not None else -1, v.rooks or ())
    )
    total = len(violations)
    return VerifyReport(total == 0, tuple(violations[:cap]), total)


def verify_covering(c: Configuration, cap: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Valid iff every grid point lies in some rook's closed coverage."""
    covered = config_coverage(c).bits  # refuses an over-cap grid first
    missing = ((1 << c.params.num_points) - 1) & ~covered
    violations = []
    while missing and len(violations) < cap:
        low = missing & -missing
        violations.append(Violation("uncovered", point=low.bit_length() - 1))
        missing ^= low
    total = len(violations) + missing.bit_count()
    return VerifyReport(total == 0, tuple(violations), total)


def verify_packing(c: Configuration, cap: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Valid iff no rook attacks another rook's point.

    Checked per axis line: rook i attacks rook j exactly when they share
    a line whose axis is among i's directions.  Rooks are counted per
    line id, a*N + (index of the line's first point) for axis a, so this
    is linear in rooks * k and allocates nothing per grid point.
    """
    N, weights = c.params.num_points, c.params.weights
    index = rook_indices(c)
    ids = [[a * N + b - r.point[a] * w for r, b in zip(c.rooks, index)] for a, w in enumerate(weights)]
    counts = Counter(chain.from_iterable(ids))
    attacked = {ids[a][i] for i, r in enumerate(c.rooks) for a in r.dirs if counts[ids[a][i]] > 1}
    on_line = {}
    for a in {line // N for line in attacked}:
        for i, line in enumerate(ids[a]):
            if line in attacked:
                on_line.setdefault(line, []).append(i)
    violations = [
        Violation("attack", point=index[j], rooks=(i, j))
        for line, on in on_line.items()
        for i in on
        if line // N in c.rooks[i].dirs
        for j in on
        if j != i
    ]
    return _report(violations, cap)


_SATURATING_INC = bytes(min(v + 1, 2) for v in range(256))


def verify_two_packing(
    c: Configuration, mode: str = "closed", cap: int = DEFAULT_VIOLATION_CAP
) -> VerifyReport:
    """Valid iff no grid point is reached by two distinct rooks.

    mode="closed" (default): closed coverage sets pairwise disjoint.
    mode="strict": only open attack sets must be disjoint; a rook may
    stand on a point attacked by another rook.

    Each point counts the rooks reaching it, saturating at 2, raised by
    one strided slice per rook line.  A rook's own point lies on all its
    lines, so it is reset to its count before the rook plus one (closed)
    or plus none (strict).
    """
    if mode not in ("closed", "strict"):
        raise InvalidArgument(f"unknown two-packing mode {mode!r}")
    g = c.params
    g.check_bitset()
    n, N, weights = g.n, g.num_points, g.weights
    index = rook_indices(c)
    reached = bytearray(N)
    for r, b in zip(c.rooks, index):
        before = reached[b]
        for a in r.dirs:
            start = b - r.point[a] * weights[a]
            line = slice(start, start + n * weights[a], weights[a])
            reached[line] = reached[line].translate(_SATURATING_INC)
        reached[b] = min(before + (mode == "closed"), 2)

    # owners of the lowest cap doubled points: one more pass, by line id
    lowest, p = [], reached.find(2)
    while p >= 0 and len(lowest) < cap:
        lowest.append(p)
        p = reached.find(2, p + 1)
    wanted = {}
    for p in lowest:
        for a, w in enumerate(weights):
            wanted.setdefault(a * N + p - p // w % n * w, []).append(p)
    owners = {p: [] for p in lowest}
    for i, (r, b) in enumerate(zip(c.rooks, index)):
        for a in r.dirs:
            for p in wanted.get(a * N + b - r.point[a] * weights[a], ()):
                if (p != b or mode == "closed") and owners[p][-1:] != [i]:
                    owners[p].append(i)
    total = reached.count(2)
    violations = tuple(Violation("double", point=p, rooks=tuple(owners[p][:2])) for p in lowest)
    return VerifyReport(total == 0, violations, total)


def min_pairwise_distance(c: Configuration) -> int:
    """Minimum Hamming distance between any two rook points."""
    if len(c.rooks) < 2:
        raise UndefinedDistance("need at least two rooks")
    best = c.params.k + 1
    pts = [r.point for r in c.rooks]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = sum(a != b for a, b in zip(pts[i], pts[j]))
            if d < best:
                best = d
                if best == 0:
                    return 0
    return best


def coverage_count(c: Configuration) -> int:
    """Number of grid points covered by the configuration."""
    return config_coverage(c).popcount()
