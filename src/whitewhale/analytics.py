"""Degrees, edge counts, vertex families, and brute-force oracles.

Degrees come from layer membership: a neighbour p(S) -+ v(g) of a vertex
is a vertex exactly when its sorted point is in the adjacent layer, and
the layer above the top layer is the antipodal image of the top layer.
Permutation invariance makes one canonical representative per orbit
enough; orbit expansion multiplies by the orbit size.  The total edge
count follows the halved summation: orbit-weighted degrees from below
over the layers up to the halfway layer, plus half an orbit per vertex of
the top layer for the central edges.  ``degree_below`` and
``degree_above`` ask the exact feasibility oracle instead; they serve as
the independent reference and for the closed-form family checks.

Layers are held as sets of multiset codes, not of sorted points: a point
p in dimension d has the code sum_i 2^(w (p_i + 1)), w = d.bit_length().
Base 2^w digit v + 1 counts the coordinates equal to v; a count is at
most d < 2^w, so no digit carries, and two points have equal codes
exactly when they sort to the same point.  The code of p + s v(g) is the
code of p plus the digit steps 2^(w (p_i + 1 + s)) - 2^(w (p_i + 1)) of
the coordinates i of g, so one subset-sum table of the steps per vertex
(``core.subset_sums``) gives every neighbour's code by one addition.
The + 1 keeps the step of a zero coordinate, computed for the table but
never used by a member, free of negative exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb as binom

from . import comb, core, lp


@dataclass(frozen=True)
class DegreeRecord:
    canonical: comb.CanonicalVertex
    deg_below: int
    deg_above: int

    @property
    def degree(self) -> int:
        return self.deg_below + self.deg_above


@dataclass(frozen=True)
class EdgeCountReport:
    d: int
    per_layer: tuple[tuple[int, int], ...]  # (k, sum of orbit_size * deg_below)
    middle_term: int                        # sum of orbit_size / 2 over the top layer
    e_total: int
    deg_below: tuple[tuple[int, ...], ...]  # per layer k = 1.., in entry order


def degree_below(S: int, d: int) -> int:
    """Number of members whose removal leaves a vertex.  Zero for the empty set.

    Pre-filter: if S - {g} were a vertex, ``comb.may_extend`` would have
    to admit re-adding g to it, since S is a vertex.
    """
    count = 0
    for g in core.generators_of(S):
        below = S ^ (1 << (g - 1))
        if comb.may_extend(below, g, d) and lp.vertex_feasible(below, d).feasible:
            count += 1
    return count


def degree_above(S: int, d: int) -> int:
    """Number of non-members whose addition gives a vertex.  Zero for the full set.

    Pre-filter: ``comb.may_extend``, a necessary condition, so no edge is lost.
    """
    count = 0
    for g in core.generators_of(core.full_mask(d) & ~S):
        if comb.may_extend(S, g, d) and lp.vertex_feasible(S | (1 << (g - 1)), d).feasible:
            count += 1
    return count


def _code(p) -> int:
    """The multiset code of a point: equal for two points iff they sort alike."""
    w = len(p).bit_length()
    return sum(1 << (w * (x + 1)) for x in p)


def _layer_points(layers) -> tuple[int, list[set[int]]]:
    """d and the code sets of the canonical points of layers 0..2^{d-1}.

    The last set, one past the top layer, codes the antipodal image of
    the top layer.  Raises ValueError unless ``layers`` are the layers
    0..2^{d-1}-1 of one d, in order.
    """
    if not layers:
        raise ValueError("no layers")
    d = layers[0].d
    top = core.halfway_layer(d)
    got = [(layer.d, layer.k) for layer in layers]
    if got != [(d, k) for k in range(top + 1)]:
        raise ValueError(f"need complete layers 0..{top} of d={d} in order, got {got}")
    codes = [{_code(e.point) for e in layer.entries} for layer in layers]
    corner = 1 << (d - 1)
    codes.append({_code([corner - x for x in e.point]) for e in layers[top].entries})
    return d, codes


def _neighbours_in(p, mask, sign, d, codes) -> int:
    """How many of the points p + sign * v(g), g in mask, have their code in ``codes``."""
    w = d.bit_length()
    steps = core.subset_sums([(1 << (w * (x + 1 + sign))) - (1 << (w * (x + 1))) for x in p])
    code = _code(p)
    count = 0
    for g in core.generators_of(mask):
        count += code + steps[g] in codes
    return count


def layer_degrees(layers) -> list[list[DegreeRecord]]:
    """DegreeRecords for every canonical vertex of complete layers 0..2^{d-1}-1."""
    d, codes = _layer_points(layers)
    full = core.full_mask(d)
    out = []
    for layer in layers:
        below = codes[layer.k - 1] if layer.k else set()
        above = codes[layer.k + 1]
        out.append(
            [
                DegreeRecord(
                    e,
                    _neighbours_in(e.point, e.subset, -1, d, below),
                    _neighbours_in(e.point, full & ~e.subset, 1, d, above),
                )
                for e in layer.entries
            ]
        )
    return out


def count_edges(layers) -> EdgeCountReport:
    """Total edge count from complete layers 0..2^{d-1}-1.

    e(d) = sum over k of the orbit-weighted degrees from below, plus half
    an orbit per top-layer vertex for the edges crossing the center.
    """
    d, codes = _layer_points(layers)
    per_layer = []
    degrees = []
    for layer in layers[1:]:
        below = codes[layer.k - 1]
        degs = tuple(_neighbours_in(e.point, e.subset, -1, d, below) for e in layer.entries)
        per_layer.append((layer.k, sum(e.orbit_size * deg for e, deg in zip(layer.entries, degs))))
        degrees.append(degs)
    middle = 0
    for e in layers[-1].entries:
        if e.orbit_size % 2:
            raise AssertionError(f"odd orbit size {e.orbit_size} in the top layer")
        middle += e.orbit_size // 2
    return EdgeCountReport(
        d, tuple(per_layer), middle, sum(t for _, t in per_layer) + middle, tuple(degrees)
    )


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
