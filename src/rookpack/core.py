"""Hypercube geometry: grids, points, rooks, and coverage bitsets.

The grid H(n, k) is the lattice {0, ..., n-1}^k.  An l-rook sits on a
lattice point and picks l of the k axes; it covers its own point plus
every point that differs from it in exactly one of the chosen axes
(full lines, like a chess rook).  Coverage is the closed neighborhood,
attack is the open one.

Points are indexed lexicographically big-endian: coordinate 0 is the
most significant base-n digit.  Coverage sets are plain Python ints
used as bitsets over the n^k point indices.
"""

from __future__ import annotations

import os
from itertools import chain
from operator import attrgetter, mul

DEFAULT_POINT_CAP = 1 << 24
MAX_INDEX = 2**63 - 1


class RookError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(RookError):
    pass


class InvalidPoint(InvalidArgument):
    pass


class InstanceTooLarge(RookError):
    pass


def point_cap() -> int:
    """Bitset size guard, overridable via ROOKPACK_POINT_CAP."""
    raw = os.environ.get("ROOKPACK_POINT_CAP")
    if not raw:
        return DEFAULT_POINT_CAP
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise InvalidArgument(f"ROOKPACK_POINT_CAP must be a positive integer, got {raw!r}")
    return int(raw)


_set = object.__setattr__  # frozen records set their fields through it


class _Record:
    """A record over the attributes named in _fields, compared and shown
    as a dataclass is: == holds only between instances of one class with
    equal field tuples, and repr reads Name(field=value, ...)."""

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return self.__class__, self._values()


class _Frozen(_Record):
    """A _Record whose fields are set once, in __init__, and that hashes
    by their values."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GridParams(_Frozen):
    """Instance descriptor: side n, dimension k, rook arity l."""

    __slots__ = _fields = ("n", "k", "l")

    def __init__(self, n: int, k: int, l: int):
        for x in (n, k, l):
            if type(x) is not int:  # bool and float would pass the range checks
                raise InvalidArgument(f"grid size {x!r} is not an integer")
        if n < 1:
            raise InvalidArgument(f"side must be >= 1, got {n}")
        if k < 1:
            raise InvalidArgument(f"dimension must be >= 1, got {k}")
        if not 1 <= l <= k:
            raise InvalidArgument(f"arity must satisfy 1 <= l <= k, got l={l}, k={k}")
        # from this k on 2^k > MAX_INDEX: refuse it, n = 1 too, before computing n^k
        if k >= MAX_INDEX.bit_length():
            raise InstanceTooLarge(f"dimension {k} exceeds the index width")
        if n**k > MAX_INDEX:
            raise InstanceTooLarge(f"{n}^{k} exceeds the index width")
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "l", l)

    @property
    def num_points(self) -> int:
        return self.n**self.k

    @property
    def weights(self) -> list:
        """Index stride of each axis: n^(k-1-axis)."""
        return [self.n ** (self.k - 1 - a) for a in range(self.k)]

    @property
    def ball(self) -> int:
        """Closed coverage size of a single rook: l(n-1)+1."""
        return self.l * (self.n - 1) + 1

    def check_bitset(self):
        if self.num_points > point_cap():
            raise InstanceTooLarge(
                f"{self.n}^{self.k} = {self.num_points} points exceeds the bitset "
                f"cap {point_cap()} (set ROOKPACK_POINT_CAP to raise it)"
            )

    def check_point(self, p):
        if len(p) != self.k:
            raise InvalidPoint(f"point {p} has length {len(p)}, expected {self.k}")
        for x in p:
            if type(x) is not int:  # bool and float would pass the range check
                raise InvalidPoint(f"coordinate {x!r} of {p} is not an integer")
            if not 0 <= x < self.n:
                raise InvalidPoint(f"coordinate {x} of {p} outside [0, {self.n - 1}]")

    def check_dirs(self, point, dirs):
        if len(dirs) != self.l:
            raise InvalidArgument(f"rook at {point} has {len(dirs)} dirs, expected {self.l}")
        for a in dirs:
            if type(a) is not int:
                raise InvalidArgument(f"rook at {point} has a non-integer axis {a!r}")
            if not 0 <= a < self.k:
                raise InvalidArgument(f"rook at {point} has axes outside 0..{self.k - 1}")


class Rook(_Frozen):  # slotted: constructions hold 10^5 of them
    """A lattice point plus the set of axes it attacks along."""

    __slots__ = _fields = ("point", "dirs")

    def __init__(self, point, dirs):
        _set_point(self, tuple(point))
        _set_dirs(self, frozenset(dirs))


# the slots' own setters: object.__setattr__ walks Rook's MRO on every
# call, so it slows as the bases deepen
_set_point, _set_dirs = Rook.point.__set__, Rook.dirs.__set__


_POINT, _DIRS = attrgetter("point"), attrgetter("dirs")


def _all_valid(g, rooks) -> bool:
    """True only if every rook passes check_point and check_dirs and the
    points are distinct: the same rules as Configuration's per-rook loop,
    tested a whole column at a time."""
    points = list(map(_POINT, rooks))
    dirs = list(map(_DIRS, rooks))
    coords = list(chain.from_iterable(points))
    if not (set(map(type, coords)) <= {int} and set(map(type, chain.from_iterable(dirs))) <= {int}):
        return False
    # only ints from here: no 1.0 or True merges with 1 in a set, no NaN
    # slips past min and max
    values = set(coords)
    return (
        len(set(points)) == len(points)
        and set(map(len, points)) <= {g.k}
        and (not values or (min(values) >= 0 and max(values) < g.n))
        and all(len(d) == g.l and min(d) >= 0 and max(d) < g.k for d in set(dirs))
    )


class Configuration(_Frozen):
    """An ordered set of rooks on one grid; rook points are distinct."""

    __slots__ = _fields = ("params", "rooks")

    def __init__(self, params: GridParams, rooks):
        rooks = tuple(rooks)
        g = params
        if not _all_valid(g, rooks):
            # the first bad rook raises, with its own message
            seen = set()
            for r in rooks:
                g.check_point(r.point)
                g.check_dirs(r.point, r.dirs)
                if r.point in seen:
                    raise InvalidArgument(f"duplicate rook point {r.point}")
                seen.add(r.point)
        _set(self, "params", params)
        _set(self, "rooks", rooks)

    def __len__(self):
        return len(self.rooks)

    def sorted_rooks(self):
        """Rooks in canonical order: by point tuple, which is the big-endian
        point-index order without re-checking the points."""
        return sorted(self.rooks, key=_POINT)


class CoverageMap(_Frozen):
    """Bitset over the n^k point indices of one grid."""

    __slots__ = _fields = ("bits",)

    def __init__(self, bits: int):
        _set(self, "bits", bits)

    def popcount(self) -> int:
        return self.bits.bit_count()


def point_index(p, g: GridParams) -> int:
    """Big-endian lexicographic index of p in [0, n^k)."""
    g.check_point(p)
    idx = 0
    for x in p:
        idx = idx * g.n + x
    return idx


def rook_indices(c: Configuration) -> list:
    """point_index of every rook, in rook order, without re-checking points
    the Configuration already checked."""
    weights = c.params.weights
    return [sum(map(mul, r.point, weights)) for r in c.rooks]


def covers(r: Rook, p, g: GridParams) -> bool:
    """Closed coverage: p equals r.point or differs in exactly one chosen axis."""
    g.check_point(r.point)
    g.check_point(p)
    diff = [i for i in range(g.k) if r.point[i] != p[i]]
    if not diff:
        return True
    return len(diff) == 1 and diff[0] in r.dirs


def attacks(r: Rook, p, g: GridParams) -> bool:
    """Open coverage: like covers but false on the rook's own point."""
    return tuple(p) != r.point and covers(r, p, g)


def coverage_mask(r: Rook, g: GridParams) -> int:
    """Bitset of the l(n-1)+1 points in the rook's closed coverage."""
    return (1 << point_index(r.point, g)) | attack_mask(r, g)


def attack_mask(r: Rook, g: GridParams) -> int:
    """Bitset of the l(n-1) points the rook attacks."""
    g.check_bitset()
    base = point_index(r.point, g)
    bits = 0
    for axis in r.dirs:
        weight = g.n ** (g.k - 1 - axis)
        line_base = base - r.point[axis] * weight
        for v in range(g.n):
            if v != r.point[axis]:
                bits |= 1 << (line_base + v * weight)
    return bits


def _coverage_digits(c: Configuration) -> bytearray:
    """The closed coverage of c as ASCII digits: byte x is b"1" where
    point x is covered and b"0" where it is not.  Each rook marks its l
    lines, each by one strided slice assignment."""
    g = c.params
    g.check_bitset()
    n, weights = g.n, g.weights
    hit = bytearray(b"0") * g.num_points
    line = b"1" * n
    for r, base in zip(c.rooks, rook_indices(c)):
        for a in r.dirs:
            start = base - r.point[a] * weights[a]
            hit[start : start + n * weights[a] : weights[a]] = line
    return hit


def config_coverage(c: Configuration) -> CoverageMap:
    """Union of the closed coverage of every rook."""
    return CoverageMap(int(_coverage_digits(c)[::-1], 2))  # base 2 has no digit limit


def _smallest_factor(q: int) -> int:
    if q % 2 == 0:
        return 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return f
        f += 2
    return q


def is_prime(q: int) -> bool:
    return q >= 2 and _smallest_factor(q) == q
