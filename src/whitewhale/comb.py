"""Combinatorial pruning and canonicalization under coordinate permutations.

``extensions``, which the engine and ``analytics.degree_above`` call,
certifies non-vertices cheaply so that the expensive exact feasibility
oracle is only called on surviving candidates.  It is a necessary
condition for vertexhood (given that the subset being extended is itself
a vertex), so pruning never loses a vertex.  ``shift_closed`` is the same
kind of necessary condition for a sorted subset (``lp.vertex_feasible``
rejects one that fails it with no LP), and ``shift_extensions`` turns it
into the set of generators that keep a shift-closed parent shift-closed,
so the engine walks only those, and each child it builds has a
nondecreasing point, so it is canonical as built.  Any other subset is
sorted by ``sorting_permutation`` and ``permute_subset``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial

from . import core


class CanonicalVertex(
    core.Record,
    namedtuple("CanonicalVertex", "subset point orbit_size certificate", defaults=(None,)),
):
    """A canonical vertex: subset mask, nondecreasing point, orbit size.

    ``certificate`` is the integer vector c that proves it a vertex, when
    the run kept one, and None if it was read from a layer file; equality
    and hashing ignore it.
    """

    __slots__ = ()
    _compared = 3


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


def extensions(S: int, candidates: int, d: int) -> list[int]:
    """The generators g of the mask ``candidates`` (none of them in S) for
    which p(S + {g}) may be a vertex, given that p(S) is one, in id order.
    A generator left out certifies that S + {g} is not a vertex.

    With c the certificate of S + {g} (c.h >= 1 on members, <= -1 outside):

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

    Together these decide the all-ones rule (a vertex holds (1,...,1) iff it
    has at least 2^{d-1} members): at g = (1,...,1) the submask count asks
    |S| = 2^{d-1} - 1, and a vertex S of that size without (1,...,1) holds
    one of each pair {h, (1,...,1) - h}, so it holds (1,...,1) - g for any
    other g, and pair-sum closure then asks for (1,...,1) in S.
    """
    rules = _extension_rules(d)
    out = ~S
    keep = []
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        g = low.bit_length()
        disjoint, submasks, count = rules[g]
        if not ((S & disjoint) << g) & out and (S & submasks).bit_count() == count:
            keep.append(g)
    return keep


@lru_cache(maxsize=None)
def _extension_rules(d: int) -> tuple[tuple[int, int, int] | None, ...]:
    """rules[g] = (the submasks of (1,...,1) - g, the submasks of g,
    2^{sigma(g)-1} - 1) for every generator id g: the masks and the count
    that the two rules of ``extensions`` read.  Built once per dimension."""
    ones = (1 << d) - 1
    table = submask_table(d)
    return (None,) + tuple(
        (table[ones ^ g], table[g], (1 << (g.bit_count() - 1)) - 1) for g in range(1, 1 << d)
    )


@lru_cache(maxsize=None)
def shift_table(d: int) -> tuple[tuple[int, int], ...]:
    """(A_i, s_i) for i = 0..d-2, built once per dimension.

    A_i is the mask of the generators with coordinate i set and coordinate
    i + 1 clear (coordinates 0-indexed), and s_i = 2^{d-2-i}: g - s_i is g
    with that 1 moved to coordinate i + 1, so the bits of S & A_i shifted
    right by s_i are the images of the members of S under that move.
    """
    core.check_dimension(d)
    table = []
    for i in range(d - 1):
        hi, lo = 1 << (d - 1 - i), 1 << (d - 2 - i)
        A = 0
        for g in range(1, 1 << d):
            if g & hi and not g & lo:
                A |= 1 << (g - 1)
        table.append((A, lo))
    return tuple(table)


def shift_closed(S: int, d: int) -> bool:
    """Necessary condition for a subset with nondecreasing point to be a
    vertex: moving a 1 of a member to a later coordinate gives a member.

    Soundness: let c certify S (c.g >= 1 on S, <= -1 outside) and let
    c_i > c_j for some i < j.  Moving the 1 of a member from coordinate j
    to coordinate i raises its c-value, so it stays a member; this injects
    the members with j set and i clear into those with i set and j clear,
    so p_j <= p_i, and p_i = p_j as p is nondecreasing.  Swapping two tied
    coordinates fixes the point, hence fixes S (a vertex point has a single
    decomposition), so the stabilizer of S holds every permutation of each
    tied block.  Averaging c over that stabilizer gives a certificate of S
    that is constant on tied blocks and, as c_i <= c_j whenever p_i < p_j,
    nondecreasing across them.  With c nondecreasing, c.g' >= c.g when g'
    moves a 1 of g to a later coordinate; adjacent moves generate all such
    moves, so d - 1 mask tests decide it.  These S are the regular (2-monotonic) threshold functions
    of Muroga (1971) and the shifted families of Frankl (1987).
    """
    for A, s in shift_table(d):
        if ((S & A) >> s) & ~S:
            return False
    return True


def shift_extensions(S: int, d: int) -> int:
    """Mask of the g outside S whose every adjacent shift (``shift_table``) lies in S.

    For a shift-closed S these are exactly the g with S + {g} shift-closed:
    the shifts of g differ from g, so they must already lie in S.
    """
    blocked = 0
    for A, s in shift_table(d):
        blocked |= A & ~(S << s)
    return core.full_mask(d) & ~(S | blocked)


def filter_sorted_extension(p, g: int, d: int) -> bool:
    """Keep only extensions whose generator is sorted within tied point blocks.

    For a canonical p, a g decreasing inside a tied block has a sorted
    sibling producing the same canonical child, so rejecting it loses
    nothing.  For a nondecreasing p it holds exactly when p + g is
    nondecreasing, so every extension it keeps is canonical.
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


def canonicalize(S: int, p, d: int) -> CanonicalVertex:
    """Canonical representative of the subset S with point p.

    Sorts the point nondecreasing (stable on ties) and relabels the subset
    accordingly.  For a vertex, every sorting permutation yields the same
    subset (decompositions into generators are unique), so tie handling is
    immaterial.
    """
    perm = sorting_permutation(p)
    point = tuple(p[i] for i in perm)
    if point != tuple(p):  # a sorted p has the identity as its stable sort
        S = permute_subset(S, perm, d)
    return CanonicalVertex(S, point, orbit_size(point, d))
