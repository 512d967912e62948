"""Validity checks for coverings, packings, and two-packings.

Each check counts all its violations and returns a VerifyReport that
lists only the lowest VIOLATION_CAP of them, sorted by point index then
rook index so output is deterministic; only the listed ones are built.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import contains, itemgetter, mul, not_, sub

from .core import Configuration, InvalidArgument, _coverage_digits, _Frozen, _set, rook_indices

VIOLATION_CAP = 64


class Violation(_Frozen):
    """One diagnostic record.

    kind is one of "uncovered" (point index set), "attack" (pair of rook
    indices) or "double" (point index plus the two rook indices).
    """

    __slots__ = _fields = ("kind", "point", "rooks")

    def __init__(self, kind: str, point: int | None = None, rooks: tuple | None = None):
        _set(self, "kind", kind)
        _set(self, "point", point)
        _set(self, "rooks", rooks)


class VerifyReport(_Frozen):
    __slots__ = _fields = ("violations", "total_violations")

    def __init__(self, violations: tuple, total_violations: int):
        _set(self, "violations", violations)
        _set(self, "total_violations", total_violations)

    @property
    def valid(self) -> bool:
        return self.total_violations == 0

    @property
    def capped(self) -> bool:
        return self.total_violations > len(self.violations)


def verify_covering(c: Configuration) -> VerifyReport:
    """Valid iff every grid point lies in some rook's closed coverage.
    The uncovered points are the b"0" digits of the coverage, found with
    bytearray.find; only those past the listed ones are counted."""
    hit = _coverage_digits(c)  # refuses an over-cap grid first
    violations, p = [], hit.find(b"0")
    while p >= 0 and len(violations) < VIOLATION_CAP:
        violations.append(Violation("uncovered", point=p))
        p = hit.find(b"0", p + 1)
    # p is the first uncovered point past the listed ones, or -1
    total = len(violations) + (hit.count(b"0", p) if p >= 0 else 0)
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
    lines, so it is held at 2 while they are raised and then reset to its
    count before the rook plus one (closed) or plus none (strict).  The
    points at 2 are counted as they are made: the 1s on each raised line,
    which a valid configuration's lines hold none of, and the own point's
    change at its reset.  The listed ones are found with bytearray.find,
    and a valid configuration, with none, is not searched.
    """
    if mode not in ("closed", "strict"):
        raise InvalidArgument(f"unknown two-packing mode {mode!r}")
    g = c.params
    g.check_bitset()
    n, N, weights = g.n, g.num_points, g.weights
    index = rook_indices(c)
    reached = bytearray(N)
    total, closed = 0, mode == "closed"  # total: the points at 2
    for r, b in zip(c.rooks, index):
        before = reached[b]
        reached[b] = 2  # held out of the lines' counts until its reset
        for a in r.dirs:
            start = b - r.point[a] * weights[a]
            line = slice(start, start + n * weights[a], weights[a])
            seg = reached[line]
            if 1 in seg:  # each 1 on the line becomes a 2
                total += seg.count(1)
            reached[line] = seg.translate(_SATURATING_INC)
        after = min(before + closed, 2)
        total += (after == 2) - (before == 2)
        reached[b] = after

    lowest, p = [], reached.find(2) if total else -1
    while p >= 0 and len(lowest) < VIOLATION_CAP:
        lowest.append(p)
        p = reached.find(2, p + 1)

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

