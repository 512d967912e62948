"""Generators for explicit rook configurations and the composition
operators (blowup, stack, extend) that transfer them between grids.

All generators are deterministic: rooks come out sorted by point index
and every "arbitrary" direction choice is resolved as the lowest
available axis index.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations, permutations, product, repeat, starmap
from operator import add, attrgetter

from .core import (
    Configuration,
    GridParams,
    InvalidArgument,
    Rook,
    config_coverage,
)
from . import families
from .bounds import is_prime, largest_prime_power
from .verify import verify_covering, verify_packing, verify_two_packing


class InvalidParams(InvalidArgument):
    pass


class InvalidInput(InvalidArgument):
    pass


def _sorted_config(g, rooks):
    # tuple order is the big-endian point-index order
    return Configuration(g, sorted(rooks, key=attrgetter("point")))


def diagonal_covering(n: int, k: int) -> Configuration:
    """n^(k-1) full rooks on the modular diagonal (families.ZERO_SUM); a
    covering of H(n, k) with one rook on every axis line."""
    if n < 1 or k < 1:
        raise InvalidParams("need n >= 1 and k >= 1")
    return families.configuration(families.ZERO_SUM, GridParams(n, k, k))


def diagonal_slab_block(n1: int, k: int, l: int) -> tuple:
    """ceil(f(k)/l) diagonal residue classes of H(n1, k), class i attacking
    along the l consecutive axes starting at i*l (mod k).

    Returns (configuration, axis_report) where axis_report[a] says whether
    every line parallel to axis a meets a rook attacking along a.  When
    ceil(f(k)/l) * l < k some axes are never chosen and the report records
    that instead of guessing a fix.
    """
    f = largest_prime_power(k)
    if f < l:
        raise InvalidParams(f"largest prime power {f} below arity {l}")
    g = GridParams(n1, k, l)  # refuses l < 1 before it divides f
    g.check_bitset()
    classes = -((-f) // l)
    if n1 * l <= f:
        raise InvalidParams(f"need n1 > f(k)/l = {f}/{l}")
    class_dirs = [frozenset((i * l + t) % k for t in range(l)) for i in range(classes)]
    rooks = []
    for p in product(range(n1), repeat=k):
        i = sum(p) % n1
        if i < classes:
            rooks.append(Rook(p, class_dirs[i]))
    # every axis line meets one rook of each class (one point per residue
    # class per line), so the per-axis report reduces to axis membership
    chosen = frozenset().union(*class_dirs)
    report = tuple(a in chosen for a in range(k))
    return _sorted_config(g, rooks), report


def distance3_code(p: int, k: int) -> Configuration:
    """p^(k-2) full rooks whose points form a distance-3 code in H(p, k)
    (families.DISTANCE3), a closed two-packing."""
    if k < 2:
        raise InvalidParams("need k >= 2")
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    if p < k:
        raise InvalidParams(f"need p >= k, got p={p}, k={k}")
    return families.configuration(families.DISTANCE3, GridParams(p, k, k))


def latin_covering(n: int) -> Configuration:
    """ceil(n^2 / 2) full rooks covering H(n, 3), Rodemich's bound: a Latin
    square in each of two blocks of values (families.LATIN)."""
    return families.configuration(families.LATIN, GridParams(n, 3, 3))


def _hamming_config(family, k, l):
    if k < 1 or k & (k + 1):
        raise InvalidParams(f"need k = 2^m - 1, got {k}")
    return families.configuration(family, GridParams(2, k, l))


def hamming_code(k: int) -> Configuration:
    """The binary Hamming code of length k = 2^m - 1 as 2^(k-m) full rooks
    (families.HAMMING): a covering and a closed two-packing of H(2, k)."""
    return _hamming_config(families.HAMMING, k, k)


def hamming_complement(k: int) -> Configuration:
    """A packing of 2^k - 2^(k-m) 1-rooks in H(2, k), k = 2^m - 1, the
    incidence bound: the points off the Hamming code
    (families.HAMMING_COMPLEMENT)."""
    return _hamming_config(families.HAMMING_COMPLEMENT, k, 1)


def block_packing(n: int, k: int, t: int) -> Configuration:
    """Packing of t-rooks in H(n, k*t): block j holds the points whose
    j-th block-of-t coordinate sum is 0 mod n while every other block sum
    is nonzero; each such rook attacks along its own block's axes.
    Size k * n^(k(t-1)) * (n-1)^(k-1)."""
    if n < 2 or k < 1 or t < 1:
        raise InvalidParams("need n >= 2, k >= 1, t >= 1")
    g = GridParams(n, k * t, t)
    g.check_bitset()
    blocks = [(b, sum(b) % n == 0) for b in product(range(n), repeat=t)]
    # tails over blocks j..k-1 in point order: `none` with no zero-sum
    # block, `one` with exactly one, paired with that block's axes
    none, one = [()], []
    for j in reversed(range(k)):
        dirs = frozenset(range(j * t, (j + 1) * t))
        one = [(b + p, d) for b, zero in blocks for p, d in (zip(none, repeat(dirs)) if zero else one)]
        if j:
            none = [b + p for b, zero in blocks if not zero for p in none]
    return Configuration(g, list(starmap(Rook, one)))  # already in point order


def c_k2_construction(n: int, k: int) -> Configuration:
    """Two-packing of 2-rooks in H(n, k): for each axis pair i<j
    (1-indexed) pin coordinates i, j to the pair of consecutive values
    starting at 2i-2+(j-1)(j-2) and let the other coordinates range over
    [k(k-1), n-1].  Size C(k,2) * (n-k(k-1))^(k-2)."""
    if k < 2:
        raise InvalidParams("need k >= 2")
    if n <= k * (k - 1):
        raise InvalidParams(f"need n > k(k-1) = {k * (k - 1)}")
    g = GridParams(n, k, 2)
    g.check_bitset()
    lo = k * (k - 1)
    rooks = []
    for i, j in combinations(range(1, k + 1), 2):
        base = 2 * i - 2 + (j - 1) * (j - 2)
        dirs = frozenset((i - 1, j - 1))
        free_axes = [a for a in range(k) if a not in dirs]
        for free in product(range(lo, n), repeat=k - 2):
            coords = [0] * k
            coords[i - 1] = base
            coords[j - 1] = base + 1
            for a, v in zip(free_axes, free):
                coords[a] = v
            rooks.append(Rook(tuple(coords), dirs))
    return _sorted_config(g, rooks)


def _cross_cover(points):
    """Rows R and columns C such that every distinct (x, y) point lies in
    an R-row or a C-column, with max(|R|, |C|) kept small.

    A heuristic, not a minimum: for each budget p from 0 up it forces
    every row through more than p points and every column through more
    than p points, then finishes with the rows of all points left, or
    else their columns, and returns the first pair within p.  One
    finishing rook supplies one row line and one column line, so the
    cost of a cover is the larger of the two sides.
    """
    row_span = Counter(x for x, _ in points)
    col_span = Counter(y for _, y in points)
    for p in range(max(len(row_span), len(col_span)) + 1):
        # a row through more than p points can never be absorbed by the
        # column side, so it is forced (and vice versa); forcing only
        # shrinks the other lines' spans, so one round forces them all
        rows = {x for x, m in row_span.items() if m > p}
        cols = {y for y, m in col_span.items() if m > p}
        if len(rows) > p or len(cols) > p:
            continue
        live = [(x, y) for x, y in points if x not in rows and y not in cols]
        rest_r = {x for x, _ in live}
        rest_c = {y for _, y in live}
        if len(rows) + len(rest_r) <= p:
            return sorted(rows | rest_r), sorted(cols)
        if len(cols) + len(rest_c) <= p:
            return sorted(rows), sorted(cols | rest_c)


def a32_covering(a: int, b: int) -> Configuration:
    """Two slanted families of 2-rooks covering H(2a+2b, 3), finished by
    per-plane row/column rooks.

    Requires a/b > 2.  When additionally a/b <= 1 + sqrt(2) each of the
    a+b planes served by a family receives at least 2a-2b rooks in
    distinct rows, the finishing step uses at most 2b rooks per plane,
    and the total is at most 4b^2 + 12ab.  For steeper ratios the slant
    cannot feed every plane enough distinct rows and the boundary planes
    need a few extra finishing rooks.
    """
    if a < 1 or b < 1:
        raise InvalidParams("need positive a, b")
    if 2 * b >= a:
        raise InvalidParams("need a/b > 2")
    s = 2 * a + 2 * b
    g = GridParams(s, 3, 2)
    g.check_bitset()
    rooks = []
    occupied = set()

    def place(pt, dirs):
        occupied.add(pt)
        rooks.append(Rook(pt, frozenset(dirs)))

    # First family: one rook per column (i, j) of the 2a x 2b slab,
    # slanted through planes 0..a+b-1 in runs of consecutive first
    # coordinates, so each plane's rooks sit in distinct rows.  Second
    # family is its mirror image under (x,y,z) -> (s-1-y, s-1-x, s-1-z),
    # occupying the opposite slab and the opposite planes.
    half = a + b
    total = 4 * a * b
    chunk, extra = divmod(total, half)
    v = 0
    for m in range(half):
        for _ in range(chunk + (1 if m < extra else 0)):
            i, j = v % (2 * a), v // (2 * a)
            place((i, j, m), (1, 2))
            place((s - 1 - j, s - 1 - i, s - 1 - m), (0, 2))
            v += 1

    # digit idx of `bits` is bit idx of the coverage, so plane m is every s-th digit from m
    bits = format(config_coverage(Configuration(g, rooks)).bits, f"0{s**3}b")[::-1]
    for m in range(s):
        uncovered = [divmod(q, s) for q, d in enumerate(bits[m::s]) if d == "0"]
        rows, cols = _cross_cover(uncovered)
        for t in range(max(len(rows), len(cols))):
            r = rows[t % len(rows)] if rows else None
            c = cols[t % len(cols)] if cols else None
            # pad the short side with any free point on the line.  One is free: the plane holds
            # < s family rooks (4b < s), r and c hold < s finishing ones, a lone line none
            cand = chain(
                [(r, c)] if r is not None and c is not None else (),
                zip(repeat(r), range(s)) if r is not None else (),
                zip(range(s), repeat(c)) if c is not None else (),
            )
            for x, y in cand:
                if (x, y, m) not in occupied:
                    place((x, y, m), (0, 1))
                    break
    return _sorted_config(g, rooks)


def b_k2_inductive(n: int, k: int) -> Configuration:
    """Inductive 2-rook packing of H(n, k) of size at least
    (k/2) n^(k-1) - C_k n^(k-2); requires (k-1)!^2 | n.

    Lower layers hold bucket-labelled 1-rooks promoted to 2-rooks via the
    last axis; upper layers hold stacked copies of the (k-1)-dimensional
    packing; promoted rooks whose column hits a stacked rook are dropped.
    """
    if k < 2:
        raise InvalidParams("need k >= 2")
    g = GridParams(n, k, 2)  # refuses n < 1 and a huge k before (k-1)!^2 is computed
    g.check_bitset()
    q = math.factorial(k - 1) ** 2
    if n % q != 0:
        raise InvalidParams(f"need (k-1)!^2 = {q} to divide n")
    if k == 2:
        return _sorted_config(g, (Rook((i, i), frozenset((0, 1))) for i in range(n)))

    m = k - 1
    sub = b_k2_inductive(n, m)
    sub_points = {r.point for r in sub.rooks}
    label_layers = n // m
    # x = m*floors + offsets with distinct floors; sum(x) = sum(offsets)
    # mod m, so the offsets alone pick the coordinate and the axes
    offsets = []
    for off in product(range(m), repeat=m):
        coord = (sum(off) - 1) % m  # congruence class j picks coordinate j (1-indexed)
        offsets.append((off, coord, frozenset((coord, m))))
    rooks = []
    for floors in permutations(range(label_layers), m):
        base = [f * m for f in floors]
        for off, coord, dirs in offsets:
            x = tuple(map(add, base, off))
            if x not in sub_points:  # else it would attack every stacked copy along the last axis
                rooks.append(Rook(x + (floors[coord],), dirs))
    for z in range(label_layers, n):
        for r in sub.rooks:
            rooks.append(Rook(r.point + (z,), r.dirs))
    return _sorted_config(g, rooks)


def b_k2_size_constant(k: int):
    """Recurrence constant in the packing size guarantee
    (k/2) n^(k-1) - C_k n^(k-2)."""
    from fractions import Fraction

    c = Fraction(0)
    for j in range(3, k + 1):
        c = Fraction(j - 2, j - 1) * c + Fraction(j * (j - 1) ** 2, 2) + Fraction(j - 1, 2)
    return c


def _blowup(outer: Configuration, inner_points, n_inner: int) -> Configuration:
    g = outer.params
    ng = GridParams(g.n * n_inner, g.k, g.l)
    ng.check_bitset()
    inner_points = list(inner_points)  # it may be lazy: read it only within the cap
    rooks = []
    for R in outer.rooks:
        for x in inner_points:
            pt = tuple(R.point[i] * n_inner + x[i] for i in range(g.k))
            rooks.append(Rook(pt, R.dirs))
    return _sorted_config(ng, rooks)


def _diagonal_blowup(outer: Configuration, n_inner: int, verify, kind: str) -> Configuration:
    if n_inner < 1:
        raise InvalidParams("need n_inner >= 1")
    if not verify(outer).valid:
        raise InvalidInput(f"outer configuration is not a {kind}")
    k = outer.params.k
    inner = (p for p, _ in families.ZERO_SUM.rooks(GridParams(n_inner, k, k)))
    return _blowup(outer, inner, n_inner)


def blowup_covering(outer: Configuration, n_inner: int) -> Configuration:
    """Replace every rook of a covering by a diagonal copy inside its
    scaled block; yields a covering of H(n * n_inner, k) of size
    n_inner^(k-1) * |outer|."""
    return _diagonal_blowup(outer, n_inner, verify_covering, "covering")


def blowup_packing(outer: Configuration, n_inner: int) -> Configuration:
    """Same diagonal substitution applied to a packing."""
    return _diagonal_blowup(outer, n_inner, verify_packing, "packing")


def blowup_two_packing(outer: Configuration, p: int) -> Configuration:
    """Replace every rook of a two-packing by a translated distance-3
    code block (p prime, p > k); size p^(k-2) * |outer|."""
    k = outer.params.k
    if not is_prime(p) or p <= k:
        raise InvalidParams(f"need a prime p > k = {k}")
    if not verify_two_packing(outer, "closed").valid:
        raise InvalidInput("outer configuration is not a closed two-packing")
    inner = [r.point for r in distance3_code(p, k).rooks]
    return _blowup(outer, inner, p)


def stack(cfg: Configuration) -> Configuration:
    """Pile n translated copies of a packing of H(n, k) along a new last
    axis, giving a packing of H(n, k+1)."""
    g = cfg.params
    if not verify_packing(cfg).valid:
        raise InvalidInput("input configuration is not a packing")
    ng = GridParams(g.n, g.k + 1, g.l)
    ng.check_bitset()
    rooks = [Rook(r.point + (z,), r.dirs) for z in range(g.n) for r in cfg.rooks]
    return _sorted_config(ng, rooks)


def extend_covering(cfg: Configuration) -> Configuration:
    """Grow a covering of H(n, k) to one of H(n+1, k): shift the old
    rooks into {1..n}^k and add rooks at every point with at least two
    zero coordinates.

    A new rook whose zero set is exactly a cyclically consecutive pair
    {i, i+1 mod k} is the designated coverer of the single-zero points
    above it and must attack along axis i+1 mod k; every other direction
    choice is the lowest available axis.
    """
    g = cfg.params
    if g.l < 2 or g.k < 2:
        raise InvalidParams("extension needs l >= 2 and k >= 2")
    if not verify_covering(cfg).valid:
        raise InvalidInput("input configuration is not a covering")
    ng = GridParams(g.n + 1, g.k, g.l)
    ng.check_bitset()
    rooks = [Rook(tuple(x + 1 for x in r.point), r.dirs) for r in cfg.rooks]
    for p in product(range(g.n + 1), repeat=g.k):
        zeros = [i for i in range(g.k) if p[i] == 0]
        if len(zeros) < 2:
            continue
        forced = set()
        if len(zeros) == 2:
            zset = set(zeros)
            forced = {(i + 1) % g.k for i in zset if (i + 1) % g.k in zset}
        dirs = set(forced)
        for axis in range(g.k):
            if len(dirs) == g.l:
                break
            dirs.add(axis)
        rooks.append(Rook(p, frozenset(dirs)))
    return _sorted_config(ng, rooks)


# name -> (builder returning a Configuration, parameter names), exposed
# verbatim through the CLI construct subcommand
CONSTRUCTIONS = {
    "diagonal_covering": (diagonal_covering, ("n", "k")),
    "diagonal_slab_block": (lambda n1, k, l: diagonal_slab_block(n1, k, l)[0], ("n1", "k", "l")),
    "distance3_code": (distance3_code, ("p", "k")),
    "block_packing": (block_packing, ("n", "k", "t")),
    "c_k2": (c_k2_construction, ("n", "k")),
    "a32_covering": (a32_covering, ("a", "b")),
    "b_k2_inductive": (b_k2_inductive, ("n", "k")),
    "latin_covering": (latin_covering, ("n",)),
    "hamming_code": (hamming_code, ("k",)),
    "hamming_complement": (hamming_complement, ("k",)),
}
