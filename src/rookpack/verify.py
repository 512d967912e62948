"""Validity checks for coverings, packings, and two-packings.

Each check returns a VerifyReport with a capped list of diagnostic
violations, sorted by point index then rook index so output is
deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import contains, itemgetter, mul, not_, sub

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
    a line whose axis is among i's directions.  An axis-a line is named
    by the index of its first point, and each axis is checked with whole
    columns of line ids, so this is linear in rooks * k and allocates
    nothing per grid point.  Rooks are grouped by line only on the bad
    lines.
    """
    index = rook_indices(c)
    points = [r.point for r in c.rooks]
    dirs = [r.dirs for r in c.rooks]
    violations = []
    for a, w in enumerate(c.params.weights):
        ids = list(map(sub, index, map(mul, map(itemgetter(a), points), repeat(w))))
        along = list(map(contains, dirs, repeat(a)))
        attackers = list(compress(ids, along))
        attacked = set(attackers)
        # bad lines: an attacker's line that holds a second rook
        bad = attacked.intersection(compress(ids, map(not_, along)))
        if len(attacked) < len(attackers):
            counts = Counter(attackers)
            bad.update(compress(counts, map((1).__lt__, counts.values())))
        if not bad:
            continue
        on_line = {}
        for i in compress(range(len(ids)), map(bad.__contains__, ids)):
            on_line.setdefault(ids[i], []).append(i)
        violations += [
            Violation("attack", point=index[j], rooks=(i, j))
            for on in on_line.values()
            for i in on
            if a in dirs[i]
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
