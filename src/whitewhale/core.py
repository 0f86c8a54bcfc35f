"""Generator encoding and subset arithmetic for the White Whale.

The generators of the d-dimensional White Whale are the 2^d - 1 non-zero
0/1-valued d-vectors.  A generator is identified with the integer whose
binary digits are its coordinates: coordinate i (1-indexed, i = 1 first)
is bit d - i, so the last coordinate is the least significant bit.  Under
this mapping (0,...,0,1) <-> 1 and the all-ones vector <-> 2^d - 1.

A subset S of generators is a bitmask over the integers 1..2^d - 1:
bit j - 1 is set iff generator j belongs to S.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

MIN_DIMENSION = 2
MAX_DIMENSION = 16


class Record:
    """Base of the package's records, put before a ``collections.namedtuple``.

    ==, != and hash read only the first ``_compared`` fields (all when
    None), and a record equals only records of its own class.  A subclass
    sets ``__slots__ = ()`` too, so it has no attribute dict and no field
    or other attribute can be set on it.
    """

    __slots__ = ()
    _compared = None

    def __eq__(self, other):
        n = self._compared
        return other.__class__ is self.__class__ and self[:n] == other[:n]

    def __ne__(self, other):  # tuple.__ne__ would compare every field
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self[: self._compared])


def check_dimension(d: int) -> int:
    if not MIN_DIMENSION <= d <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {d}")
    return d


def generator_count(d: int) -> int:
    """Number of generators of the d-dimensional White Whale."""
    return (1 << d) - 1


def halfway_layer(d: int) -> int:
    """The top layer generated, 2^{d-1} - 1; central symmetry gives the rest."""
    return (1 << (d - 1)) - 1


def full_mask(d: int) -> int:
    """Mask of the whole generator set."""
    return (1 << generator_count(d)) - 1


def check_generator(g: int, d: int) -> int:
    if not 1 <= g <= generator_count(d):
        raise ValueError(f"generator id must be in [1, {generator_count(d)}], got {g}")
    return g


def vector_of(g: int, d: int) -> tuple[int, ...]:
    """Coordinate vector of generator g in dimension d."""
    check_dimension(d)
    check_generator(g, d)
    return tuple((g >> (d - 1 - i)) & 1 for i in range(d))


def generators_of(mask: int):
    """Iterate the generator ids in a subset mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def member_flags(mask: int) -> bytes:
    """flags[g] = 1 for each generator g in the mask and 0 for the others
    (and for g = 0), up to the largest member: ``itertools.compress(table,
    member_flags(mask))`` picks table[g] for the members g at C speed."""
    return bin(mask << 1)[:1:-1].encode().translate(_FLAG_BYTES)


_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")  # digit to byte value, so a flag tests false or true


def mask_of(ids) -> int:
    """Subset mask containing the given generator ids."""
    mask = 0
    for g in ids:
        mask |= 1 << (g - 1)
    return mask


@lru_cache(maxsize=None)
def generator_vectors(d: int) -> tuple[tuple[int, ...], ...]:
    """vectors[g] = vector_of(g, d) for every generator id g; vectors[0] is the origin.

    Built once per dimension; read-only afterwards.
    """
    return ((0,) * d,) + tuple(vector_of(g, d) for g in range(1, 1 << d))


@lru_cache(maxsize=None)
def columns(d: int) -> tuple[int, ...]:
    """columns[i]: the mask of the generators with a 1 at coordinate i + 1."""
    return tuple(mask_of(g for g in range(1, 1 << d) if g >> (d - 1 - i) & 1) for i in range(d))


def point_of(mask: int, d: int) -> tuple[int, ...]:
    """Coordinatewise sum of the generators in the mask: one popcount per column."""
    return tuple((mask & column).bit_count() for column in columns(d))


def subset_sums(nums, base: int = 0) -> list[int]:
    """sums[g] = base + nums . (vector of g) for every generator id g (sums[0] = base).

    The last coordinate is the lowest bit, so each coordinate, taken from
    the last, doubles the table: ids with its bit set add it to the id
    without."""
    sums = [base]
    for x in reversed(nums):
        sums += [y + x for y in sums]
    return sums


def point_increment(p, g: int, d: int) -> tuple[int, ...]:
    """The point of S + {g} given the point of S, for g not in S."""
    return tuple(map(add, p, generator_vectors(d)[g]))


def antipode(mask: int, d: int) -> int:
    """The complementary subset G_d \\ S; its point mirrors through the center."""
    return full_mask(d) ^ mask
