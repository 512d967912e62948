"""Closed-form families, read by the solver's root seeds and by the
generators in rookpack.constructions: on each grid of an infinite family
an explicit configuration meeting a covering or packing bound.  An entry
gives applies(g), whether the family has one on the grid g; size(g), its
rook count; and rooks(g), a generator of its (point, axes) pairs in point
order, which reads nothing until it is iterated."""

from collections import namedtuple
from itertools import product, starmap

from .core import Configuration, Rook, is_prime

Family = namedtuple("Family", "applies size rooks")


def configuration(family, g):
    """family's configuration on g, its rooks in point order; refused over the point cap."""
    g.check_bitset()
    return Configuration(g, starmap(Rook, family.rooks(g)))


def _cross(g):
    """(0, j) along axis 0 and (i, 0) along axis 1, i, j >= 1: each alone
    on the line it attacks along and off every other such line."""
    along0, along1 = frozenset((0,)), frozenset((1,))
    yield from (((0, j), along0) for j in range(1, g.n))
    yield from (((i, 0), along1) for i in range(1, g.n))


def _latin(g):
    """With the values split into a low block of n // 2 and a high block
    of the rest, the Latin square (o+x, o+y, o+((-x-y) mod s)) of the
    block of size s at offset o.  Two coordinates of every point lie in
    one block, whose rook agreeing there covers it."""
    h, full = g.n // 2, frozenset(range(3))
    for o, s in ((0, h), (h, g.n - h)):
        yield from (((o + x, o + y, o + (-x - y) % s), full) for x in range(s) for y in range(s))


def _zero_sum(g):
    """The modular diagonal, the points with coordinate sum 0 mod n, each
    attacking along axes 0..l-1: every axis line holds exactly one, so
    they cover and pack every grid.  At n = 2 they are the even-weight
    points."""
    n, axes = g.n, frozenset(range(g.l))
    yield from ((p + ((-sum(p)) % n,), axes) for p in product(range(n), repeat=g.k - 1))


def _syndromes(k):
    """The points of H(2, k) in point order, each with its syndrome: the
    XOR of the 1-based positions of its set coordinates."""
    syndromes = [0]
    for a in reversed(range(k)):  # axis 0 is a point index's top bit
        syndromes += [s ^ a + 1 for s in syndromes]
    return zip(product(range(2), repeat=k), syndromes)


def _hamming(g):
    """The Hamming code, the points of syndrome 0, as full rooks: their
    radius-1 balls tile H(2, k)."""
    full = frozenset(range(g.k))
    yield from ((p, full) for p, s in _syndromes(g.k) if not s)


def _hamming_complement(g):
    """The points off the Hamming code, each attacking along the axis
    whose flip takes it into the code, so it attacks no rook."""
    along = [frozenset((a,)) for a in range(g.k)]
    yield from ((p, along[s - 1]) for p, s in _syndromes(g.k) if s)


def _distance3(g):
    """The distance-3 code whose last two coordinates are the plain and
    weighted sums of the first k-2, mod p, as full rooks."""
    p, full = g.n, frozenset(range(g.k))
    for x in product(range(p), repeat=g.k - 2):
        yield x + (sum(x) % p, sum(i * v for i, v in enumerate(x, 1)) % p), full


# b(n,2,1) = 2n - 2 for n >= 2, the incidence bound
CROSS = Family(lambda g: g.k == 2 and g.l == 1, lambda g: 2 * g.n - 2, _cross)
# a(n,3,3) = ceil(n^2 / 2), Rodemich's bound
LATIN = Family(lambda g: g.k == g.l == 3, lambda g: -(-g.n * g.n // 2), _latin)
# the sphere bound at l = 1, Rodemich's at a(n,2,2), the incidence bound
# at b(n,k,k), and Huang's hypercube bound at b(2,k,l), (k - l)^2 < k
ZERO_SUM = Family(lambda g: True, lambda g: g.n ** (g.k - 1), _zero_sum)
# a(2,k,k) = closed c(2,k,k) = 2^(k-m) for k = 2^m - 1, the sphere bounds
HAMMING = Family(lambda g: g.n == 2 and g.l == g.k and not g.k & (g.k + 1),
                 lambda g: 2 ** g.k // (g.k + 1), _hamming)
# b(2,k,1) = 2^k - 2^(k-m) for k = 2^m - 1, the incidence bound
HAMMING_COMPLEMENT = Family(lambda g: g.n == 2 and g.l == 1 and not g.k & (g.k + 1),
                            lambda g: 2 ** g.k - 2 ** g.k // (g.k + 1), _hamming_complement)
# closed c(p,k,k) = p^(k-2) for a prime p >= k, the plane bound
DISTANCE3 = Family(lambda g: g.k == g.l >= 2 and g.n >= g.k and is_prime(g.n),
                   lambda g: g.n ** (g.k - 2), _distance3)
