"""Validity checks for coverings, packings, and two-packings.

Each check returns a VerifyReport with a capped list of diagnostic
violations, sorted by point index then rook index so output is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Configuration,
    InvalidArgument,
    RookError,
    attack_mask,
    config_coverage,
    coverage_mask,
    point_index,
)

DEFAULT_VIOLATION_CAP = 64


class UndefinedDistance(RookError):
    pass


@dataclass(frozen=True)
class Violation:
    """One diagnostic record.

    kind is one of "uncovered" (point index set), "attack" (pair of rook
    indices), "double" (point index plus the two rook indices), or
    "duplicate" (pair of rook indices sharing a point).
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
    g = c.params
    g.check_bitset()
    bits = config_coverage(c).bits
    missing = ((1 << g.num_points) - 1) & ~bits
    violations = []
    idx = 0
    while missing:
        low = missing & -missing
        violations.append(Violation("uncovered", point=low.bit_length() - 1))
        missing ^= low
        idx += 1
        if idx >= 4 * cap and cap:
            # enough for diagnostics; count the rest cheaply
            rest = missing.bit_count()
            total = len(violations) + rest
            return VerifyReport(False, tuple(violations[:cap]), total)
    return _report(violations, cap)


def _line_key(point, axis):
    """Identity of the axis line through point along axis."""
    return (axis,) + point[:axis] + point[axis + 1 :]


def verify_packing(c: Configuration, cap: int = DEFAULT_VIOLATION_CAP) -> VerifyReport:
    """Valid iff no rook attacks another rook's point.

    Checked per axis line: rook i attacks rook j exactly when they share
    a line whose axis is among i's directions.  This is linear in
    rooks * k instead of quadratic in rooks.
    """
    g = c.params
    on_line = {}
    for i, r in enumerate(c.rooks):
        for axis in range(g.k):
            on_line.setdefault(_line_key(r.point, axis), []).append(i)
    violations = []
    for i, r in enumerate(c.rooks):
        for axis in r.dirs:
            for j in on_line[_line_key(r.point, axis)]:
                if j != i:
                    violations.append(
                        Violation("attack", point=point_index(c.rooks[j].point, g), rooks=(i, j))
                    )
    return _report(violations, cap)


def verify_two_packing(
    c: Configuration, mode: str = "closed", cap: int = DEFAULT_VIOLATION_CAP
) -> VerifyReport:
    """Valid iff no grid point is reached by two distinct rooks.

    mode="closed" (default): closed coverage sets pairwise disjoint.
    mode="strict": only open attack sets must be disjoint; a rook may
    stand on a point attacked by another rook.
    """
    if mode not in ("closed", "strict"):
        raise InvalidArgument(f"unknown two-packing mode {mode!r}")
    g = c.params
    g.check_bitset()
    masks = []
    for r in c.rooks:
        masks.append(coverage_mask(r, g) if mode == "closed" else attack_mask(r, g))
    seen = 0
    doubled = 0
    for m in masks:
        doubled |= seen & m
        seen |= m
    violations = []
    while doubled:
        low = doubled & -doubled
        doubled ^= low
        p = low.bit_length() - 1
        owners = tuple(i for i, m in enumerate(masks) if (m >> p) & 1)[:2]
        violations.append(Violation("double", point=p, rooks=owners))
        if cap and len(violations) >= 4 * cap:
            total = len(violations) + doubled.bit_count()
            return VerifyReport(False, tuple(sorted(violations, key=lambda v: v.point)[:cap]), total)
    return _report(violations, cap)


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
