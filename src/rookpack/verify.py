"""Validity checks for coverings, packings, and two-packings.

Each check counts all its violations and returns a VerifyReport that
lists only the lowest VIOLATION_CAP of them, sorted by point index then
rook index so output is deterministic; only the listed ones are built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import contains, itemgetter, mul, not_, sub

from .core import Configuration, InvalidArgument, config_coverage, rook_indices

VIOLATION_CAP = 64


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
    violations: tuple
    total_violations: int

    @property
    def valid(self) -> bool:
        return self.total_violations == 0

    @property
    def capped(self) -> bool:
        return self.total_violations > len(self.violations)


def verify_covering(c: Configuration) -> VerifyReport:
    """Valid iff every grid point lies in some rook's closed coverage."""
    covered = config_coverage(c).bits  # refuses an over-cap grid first
    missing = ((1 << c.params.num_points) - 1) & ~covered
    violations = []
    while missing and len(violations) < VIOLATION_CAP:
        low = missing & -missing
        violations.append(Violation("uncovered", point=low.bit_length() - 1))
        missing ^= low
    total = len(violations) + missing.bit_count()
    return VerifyReport(tuple(violations), total)


def verify_packing(c: Configuration) -> VerifyReport:
    """Valid iff no rook attacks another rook's point.

    Checked per axis line: rook i attacks rook j exactly when they share
    a line whose axis is among i's directions.  An axis-a line is named
    by the index of its first point, and each axis is checked with whole
    columns of line ids, so this is linear in rooks * k and allocates
    nothing per grid point.  Rooks are grouped by line only on the bad
    lines, where an attacker hits every other rook on its line.  Two
    distinct points share at most one line, so each attacking pair is
    counted once.
    """
    index = rook_indices(c)
    points = [r.point for r in c.rooks]
    dirs = [r.dirs for r in c.rooks]
    total, attackers_of = 0, {}  # victim -> the attacker lists of its bad lines
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
        for on in on_line.values():
            hits = [i for i in on if a in dirs[i]]
            total += len(hits) * (len(on) - 1)
            for j in on:
                attackers_of.setdefault(j, []).append(hits)
    attacks = (
        Violation("attack", point=index[j], rooks=(i, j))
        for j in sorted(attackers_of, key=index.__getitem__)
        for i in sorted(chain.from_iterable(attackers_of[j]))
        if i != j
    )
    return VerifyReport(tuple(islice(attacks, VIOLATION_CAP)), total)


_SATURATING_INC = bytes(min(v + 1, 2) for v in range(256))


def verify_two_packing(c: Configuration, mode: str = "closed") -> VerifyReport:
    """Valid iff no grid point is reached by two distinct rooks.

    mode="closed" (default): closed coverage sets pairwise disjoint.
    mode="strict": only open attack sets must be disjoint; a rook may
    stand on a point attacked by another rook.

    Each point counts the rooks reaching it, saturating at 2, raised by
    one strided slice per rook line.  A rook's own point lies on all its
    lines, so it is reset to its count before the rook plus one (closed)
    or plus none (strict).  The doubled points are found with
    bytearray.find, and only those past the listed ones are counted.
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

    lowest, p = [], reached.find(2)
    while p >= 0 and len(lowest) < VIOLATION_CAP:
        lowest.append(p)
        p = reached.find(2, p + 1)
    # p is the first doubled point past the listed ones, or -1
    total = len(lowest) + (reached.count(2, p) if p >= 0 else 0)

    # owners of the listed doubled points: one more pass, by line id
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
    violations = tuple(Violation("double", point=p, rooks=tuple(owners[p][:2])) for p in lowest)
    return VerifyReport(violations, total)

