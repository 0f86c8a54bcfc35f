"""Degrees, edge counts, vertex families, and brute-force oracles.

Degrees come from layer membership: a neighbour p(S) - v(g), g in S, of a
vertex is a vertex exactly when its sorted point is in the layer below.
Each edge is looked up once, from its upper end: ``layer_degrees`` walks
the lower neighbours of every canonical vertex q of layers 1..2^{d-1}-1
and of the antipodal image of the top layer (the layer above it).  A hit
is a degree from below of q and adds orbit(q) to the tally of the point p
it hit; counted from both ends, orbit(p) deg_above(p) = sum_q orbit(q)
#{g in S_q : q - v(g) sorts to p}, so deg_above(p) = tally(p) / orbit(p).
Only the layer above adds to a tally, so the pass reads the layers as a
stream and holds two at a time, whatever the number of layers.
An orbit size counts the antipodal copies and each edge has two ends, so
e(d) = 1/2 sum orbit * degree.  ``degree_above`` asks the exact oracle
instead, on what ``comb.extensions`` keeps, and ``degree_below`` is
``degree_above`` of the antipode: the reference for the family checks.

Layers are tallied by multiset codes, not by sorted points: a point p in
dimension d has the code sum_i 2^(w (p_i + 1)), w = d.bit_length().  Base
2^w digit v + 1 counts the coordinates equal to v; a count is at most
d < 2^w, so no digit carries, and two points have equal codes exactly
when they sort to the same point.  The code of p - v(g) is the code of p
plus the digit steps 2^(w p_i) - 2^(w (p_i + 1)) of the coordinates i of
g, so one subset-sum table of the steps per vertex, started at the code
of p (``core.subset_sums``), holds every lower neighbour's code.  The
walk picks the members' entries out of it with ``itertools.compress``
over ``core.member_flags`` and keeps those in the tally with ``filter``,
so no Python loop runs per member, only per hit.  The + 1 keeps the
step of a zero coordinate, computed for the table but never used by a
member, free of negative exponents.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import comb as binom

from . import comb, core, lp


class DegreeRecord(core.Record, namedtuple("DegreeRecord", "canonical deg_below deg_above")):
    """A ``comb.CanonicalVertex`` with its degrees from below and above."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.deg_below + self.deg_above


def degree_below(S: int, d: int) -> int:
    """Number of members whose removal leaves a vertex.  Zero for the empty set.

    S - {g} is a vertex exactly when its antipode, the antipode of S plus g,
    is one, so this is ``degree_above`` of the antipode of the vertex S.
    """
    return degree_above(core.antipode(S, d), d)


def degree_above(S: int, d: int) -> int:
    """Number of non-members whose addition gives a vertex.  Zero for the full set.

    S is a vertex, so ``comb.extensions`` on every non-member keeps every g
    with S + {g} a vertex (no edge is lost), and the oracle decides each.
    """
    return sum(
        lp.vertex_feasible(S | (1 << (g - 1)), d).feasible
        for g in comb.extensions(S, core.full_mask(d) & ~S, d)
    )


def _code(p) -> int:
    """The multiset code of a point: equal for two points iff they sort alike."""
    w = len(p).bit_length()
    return sum(1 << (w * (x + 1)) for x in p)


def _count_lower(p, code, mask, orbit, d, tally) -> int:
    """How many of the points p - v(g), g in mask, have their code in ``tally``;
    adds ``orbit`` to the tally of each code hit.  ``code`` is ``_code(p)``."""
    w = d.bit_length()
    codes = core.subset_sums([(1 << (w * x)) - (1 << (w * (x + 1))) for x in p], code)
    hits = list(filter(tally.__contains__, compress(codes, core.member_flags(mask))))
    for c in hits:
        tally[c] += orbit
    return len(hits)


def layer_degrees(layers):
    """Yield the DegreeRecords of each layer of a stream of layers 0..2^{d-1}-1.

    Holds two layers: layer k - 1's records are yielded once the walk of
    layer k has finished their tallies, the top layer's after the walk of
    its antipodal image.  Raises ValueError unless ``layers`` are layers
    0..2^{d-1}-1 of one d in order, AssertionError if a tally does not
    divide by its orbit size.
    """
    held, tally = None, {}  # the layer below, its degrees from below and its tally
    for k, layer in enumerate(layers):
        d = layer.d if held is None else held[0].d
        if (layer.d, layer.k) != (d, k) or k > core.halfway_layer(d):
            raise ValueError(f"layers must run 0..2^(d-1)-1 of d={d}, got {layer.k} of d={layer.d}")
        # a tally of 0 per entry keyed by its code, in entry order
        # (codes are distinct, so the keys run in step with the entries)
        codes = dict.fromkeys([_code(e.point) for e in layer.entries], 0)
        below = [
            _count_lower(e.point, code, e.subset, e.orbit_size, d, tally)
            for e, code in zip(layer.entries, codes)
        ]
        if held:
            yield _records(*held)
        held, tally = (layer, below, codes), codes
    if held is None or held[0].k != core.halfway_layer(d):
        raise ValueError("layers must run 0..2^(d-1)-1 of one d; they stop below the top one")
    corner = 1 << (d - 1)
    for e in held[0].entries:
        mirror = tuple(corner - x for x in e.point)
        antipode = core.antipode(e.subset, d)
        _count_lower(mirror, _code(mirror), antipode, e.orbit_size, d, tally)
    yield _records(*held)


def _records(layer, degs_below, tally) -> list[DegreeRecord]:
    """The DegreeRecords of a layer whose tally the layer above has filled."""
    records = []
    for e, below, total in zip(layer.entries, degs_below, tally.values()):
        above, rest = divmod(total, e.orbit_size)
        if rest:
            raise AssertionError(
                f"tally {total} of {e.point} does not divide by its orbit size {e.orbit_size}"
            )
        records.append(DegreeRecord(e, below, above))
    return records


def count_edges(records) -> int:
    """e(d) = 1/2 sum of orbit size * degree over the DegreeRecords of layers 0..2^{d-1}-1.

    Reads the per-layer lists in ``records`` once, as the stream
    ``layer_degrees`` yields them; raises AssertionError if the sum is odd.
    """
    total = sum(r.canonical.orbit_size * r.degree for layer in records for r in layer)
    if total % 2:
        raise AssertionError(f"odd orbit-weighted degree sum {total}")
    return total // 2


def family_U(d: int, k: int) -> int:
    """Mask of all generators with last coordinate 1 and support at most k."""
    core.check_dimension(d)
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got k={k} for d={d}")
    return core.mask_of(g for g in range(1, 1 << d, 2) if g.bit_count() <= k)


def family_U_point(d: int, k: int) -> tuple[int, ...]:
    """Closed form for the point of the U family."""
    first = sum(binom(d - 2, i) for i in range(k - 1))
    last = sum(binom(d - 1, i) for i in range(k))
    return (first,) * (d - 1) + (last,)


def family_W(d: int, k: int) -> int:
    """Mask {1, ..., 2^k - 1}: the generators supported on the last k coordinates."""
    core.check_dimension(d)
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k} for d={d}")
    return (1 << ((1 << k) - 1)) - 1


def family_W_point(d: int, k: int) -> tuple[int, ...]:
    return (0,) * (d - k) + (1 << (k - 1),) * k


def family_U_certificates(d: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The three closed-form certificates around the U-family vertex.

    Returns (subset, certificate) pairs for the vertex itself, its
    below-neighbour with the full-support-k generator removed, and its
    above-neighbour with the support-(k+1) generator added.
    """
    u = family_U(d, k)
    main = (u, (-2,) * (d - 1) + (2 * k - 1,))
    g_below = (1 << k) - 1
    below = (
        u & ~(1 << (g_below - 1)),
        (2 - 3 * k,) * (d - k) + (-3 * k,) * (k - 1) + (3 * k * k - 3 * k - 1,),
    )
    g_above = (1 << (k + 1)) - 1
    above = (
        u | (1 << (g_above - 1)),
        (-2 * k - 1,) * (d - k - 1) + (-2 * k + 1,) * k + (2 * k * k - k + 1,),
    )
    return [main, below, above]


def family_degree_check(d: int, k: int) -> tuple[int, int, int]:
    """Oracle-computed degrees of the U-family vertex, checked against
    the binomial closed forms (C(d-1,k-1), C(d-1,k), C(d,k))."""
    u = family_U(d, k)
    below = degree_below(u, d)
    above = degree_above(u, d)
    expect = (binom(d - 1, k - 1), binom(d - 1, k), binom(d, k))
    if (below, above, below + above) != expect:
        raise AssertionError(
            f"U-family degrees ({below}, {above}, {below + above}) != {expect} at d={d}, k={k}"
        )
    return below, above, below + above


def brute_force_vertices(G) -> set[int]:
    """All vertex subsets of the zonotope of G, by testing every subset.

    Independent of the layered engine; uses only the feasibility oracle
    (one call per antipodal pair).  Refuses more than 20 generators.
    """
    vectors = [tuple(v) for v in G]
    m = len(vectors)
    if m > 20:
        raise ValueError(f"brute force over 2^{m} subsets refused (limit 2^20)")
    if m == 0:
        raise ValueError("empty generator list")
    full = (1 << m) - 1
    verdicts = bytearray(1 << m)
    out = set()
    for S in range(1 << m):
        anti = full ^ S
        if anti < S:
            v = verdicts[anti]
        else:
            v = lp.vertex_feasible_vectors(S, vectors).feasible
            verdicts[S] = v
        if v:
            out.add(S)
    return out


def expand_orbit(cv: comb.CanonicalVertex, d: int) -> set[int]:
    """All subset masks in the orbit of a canonical vertex: every coordinate
    permutation of the subset plus the antipodes of those."""
    from itertools import permutations

    masks = set()
    for perm in permutations(range(d)):
        masks.add(comb.permute_subset(cv.subset, perm, d))
    masks |= {core.antipode(S, d) for S in masks}
    return masks


def all_vertices_from_layers(layers) -> set[int]:
    """Orbit-expand canonical layers into the full vertex subset set."""
    d = layers[0].d
    out = set()
    for layer in layers:
        for e in layer.entries:
            out |= expand_orbit(e, d)
    return out


def white_whale_brute_force(d: int) -> set[int]:
    return brute_force_vertices(core.generator_vectors(d)[1:])
