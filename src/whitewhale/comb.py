"""Combinatorial pruning and canonicalization under coordinate permutations.

``may_extend`` certifies non-vertices cheaply so that the expensive exact
feasibility oracle is only called on surviving candidates.  It is a
necessary condition for vertexhood (given that the subset being extended
is itself a vertex), so pruning never loses a vertex.
``filter_sorted_extension`` only drops candidates that a sorted sibling
duplicates under coordinate permutations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import core


@dataclass(frozen=True)
class CanonicalVertex:
    """A canonical vertex: nondecreasing point, plus its orbit size."""

    subset: int
    point: tuple[int, ...]
    orbit_size: int
    certificate: tuple[Fraction, ...] | None = field(default=None, compare=False, repr=False)


@lru_cache(maxsize=None)
def submask_table(d: int) -> tuple[int, ...]:
    """table[g] = mask of all non-empty submasks of g (g itself included).

    Built once per dimension; read-only afterwards.
    """
    core.check_dimension(d)
    table = [0] * (1 << d)
    for g in range(1, 1 << d):
        bits = 0
        sub = g
        while sub:
            bits |= 1 << (sub - 1)
            sub = (sub - 1) & g
        table[g] = bits
    return tuple(table)


def may_extend(S: int, g: int, d: int) -> bool:
    """Necessary condition for p(S + {g}) to be a vertex, given that p(S) is
    one and g is not in S.  False certifies that S + {g} is not a vertex.

    With c the certificate of S + {g} (c.h >= 1 on members, <= -1 outside):

    * all-ones: a vertex subset contains (1,...,1) iff it has at least
      2^{d-1} members, so below that size g = (1,...,1) is out, and from
      that size on a vertex S without (1,...,1) can only gain it;
    * pair-sum closure: every member a of S with support disjoint from g
      has a + g in S, since c.(a+g) = c.a + c.g >= 2 rules out a + g
      outside.  Disjoint supports make a | g = a + g as integers, so the
      members a map to bits shifted by g.  Below the halfway layer this
      subsumes the complement rule (a = (1,...,1) - g with (1,...,1) out);
    * submask count: of each pair {h, g - h} of proper submasks of g
      exactly one lies in S (c.h + c.(g-h) = c.g >= 1 puts one in, and a
      vertex S holding both would hold g), so
      |S & submasks(g)| = 2^{sigma(g)-1} - 1.  This subsumes the support
      bound 2^{sigma(g)-1} - 1 <= |S|.
    """
    ones = (1 << d) - 1
    if S.bit_count() + 1 < 1 << (d - 1):
        if g == ones:
            return False
    elif g != ones and not (S >> (ones - 1)) & 1:
        return False
    table = submask_table(d)
    if ((S & table[ones ^ g]) << g) & ~S:
        return False
    return (S & table[g]).bit_count() == (1 << (g.bit_count() - 1)) - 1


def filter_sorted_extension(p, g: int, d: int) -> bool:
    """Keep only extensions whose generator is sorted within tied point blocks.

    For a canonical p, a g decreasing inside a tied block has a sorted
    sibling producing the same canonical child, so rejecting it loses
    nothing.
    """
    for i in range(d - 1):
        if p[i] == p[i + 1]:
            gi = (g >> (d - 1 - i)) & 1
            gi1 = (g >> (d - 2 - i)) & 1
            if gi > gi1:
                return False
    return True


def orbit_size(p, d: int) -> int:
    """Orbit size of a canonical vertex under coordinate permutations and
    central symmetry: 2 * d! / prod(multiplicity!).

    The factor 2 is valid below the halfway layer, where a permutation
    orbit and its antipodal image are disjoint (they sit in different
    layers).
    """
    size = 2 * factorial(d)
    run = 1
    for i in range(1, d):
        if p[i] == p[i - 1]:
            run += 1
        else:
            size //= factorial(run)
            run = 1
    return size // factorial(run)


def sorting_permutation(p) -> tuple[int, ...]:
    """A permutation perm with p[perm[0]] <= p[perm[1]] <= ... (stable on ties)."""
    return tuple(sorted(range(len(p)), key=lambda i: (p[i], i)))


def permute_generator(g: int, perm, d: int) -> int:
    """Apply a coordinate permutation to a generator: new coord j = old coord perm[j]."""
    out = 0
    for j in range(d):
        if (g >> (d - 1 - perm[j])) & 1:
            out |= 1 << (d - 1 - j)
    return out


def permute_subset(S: int, perm, d: int) -> int:
    out = 0
    while S:
        low = S & -S
        out |= 1 << (permute_generator(low.bit_length(), perm, d) - 1)
        S ^= low
    return out


def canonicalize(S: int, d: int, certificate=None) -> CanonicalVertex:
    """Canonical representative of a vertex subset.

    Sorts the point nondecreasing and relabels the subset accordingly.
    For a vertex, every sorting permutation yields the same subset
    (decompositions into generators are unique), so tie handling is
    immaterial.  The caller guarantees S is a vertex.
    """
    p = core.point_of(S, d)
    perm = sorting_permutation(p)
    point = tuple(p[i] for i in perm)
    subset = permute_subset(S, perm, d)
    cert = None
    if certificate is not None:
        cert = tuple(certificate[i] for i in perm)
    return CanonicalVertex(subset, point, orbit_size(point, d), cert)
