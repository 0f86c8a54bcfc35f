"""Layered, orbitwise vertex generation.

Three levels of machinery:

* ``generate_generic`` with ``use_symmetry=False`` is the plain layered
  scan over an arbitrary generator set: every vertex of layer k + 1 is
  adjacent to a vertex of layer k (each edge of a zonotope is a generator
  translate), so expanding layer by layer misses nothing.
* ``generate_generic`` with ``use_symmetry=True`` keeps one canonical
  representative per coordinate-permutation orbit and stops at the
  halfway layer; central symmetry supplies the other half.
* ``generate`` / ``expand_layer`` are the White Whale specialization:
  subsets are bitmasks over the integer-encoded generators.  Each parent
  is extended only by the generators of ``comb.shift_extensions`` that
  pass the rules of ``comb.extensions``, so every child is shift-closed
  as built.  A shift-closed child has a nondecreasing point, so children
  are canonical by construction and none is relabelled.

Only two consecutive layers are ever held in memory.  A layer step walks
the parents in the run's own process, keeps one candidate child per
point and pushes each child from the certificate of the parent at hand
until one push certifies it; only the oracle calls for the children that
no push certified go to the worker pool, in point order, so the output
and every count on the layer records are identical for any worker
count.
"""

from __future__ import annotations

import math
import os
import time
from collections import namedtuple

from . import comb, core, lp


class LayerRecord(
    core.Record,
    namedtuple("LayerRecord", "d k entries candidates lp_calls by_simplex pushed seconds",
               defaults=(0, 0, 0, 0, 0.0)),
):
    """All canonical vertices (a tuple of ``comb.CanonicalVertex``) at a
    fixed subset cardinality k.

    The five fields after ``entries`` are the counts of the layer step that
    made the record, 0 on any other record; equality and hashing ignore them.
    """

    __slots__ = ()
    _compared = 3

    @property
    def orbit_sum(self) -> int:
        return sum(e.orbit_size for e in self.entries)


class RunConfig(core.Record, namedtuple("RunConfig", "d max_layer worker_count")):
    """The dimension, the top layer (default: the halfway layer 2^{d-1} - 1)
    and the worker count of a run; ValueError on any out of range."""

    __slots__ = ()

    def __new__(cls, d: int, max_layer: int | None = None, worker_count: int = 1):
        core.check_dimension(d)
        top = core.halfway_layer(d)
        if max_layer is None:
            max_layer = top
        if not 0 <= max_layer <= top:
            raise ValueError(f"max_layer must be in [0, {top}], got {max_layer}")
        if worker_count < 1:
            raise ValueError("worker_count must be positive")
        return super().__new__(cls, d, max_layer, worker_count)


def layer_zero(d: int) -> LayerRecord:
    """The bottom layer: the empty subset, whose point is the origin."""
    return LayerRecord(d, 0, (comb.CanonicalVertex(0, (0,) * d, 2),))


def expand_layer(layer: LayerRecord, cfg: RunConfig, executor=None) -> LayerRecord:
    """Compute layer k + 1 from the entries of layer k, for k below cfg.max_layer.

    Candidates: each parent extended by each g of ``comb.shift_extensions``
    that ``comb.extensions`` keeps.  A parent is shift-closed, so each
    child is too, and the point of a shift-closed subset is nondecreasing
    (the shift injects the members with a 1 at i and a 0 at i + 1 into
    those with the reverse), so each child is already canonical.  A point
    reached by two different masks is dropped.
    Pushes: the walk takes the parents in layer order, and every child
    that no earlier parent has certified gets a push from the parent at
    hand, when that parent has a certificate (``lp.push`` from one
    ``lp.push_source`` per parent, built for its first push).  So each
    child is certified by the first parent, in layer order, whose push
    succeeds.  Parents read from a layer file have no certificate, so
    their children are all left to the oracle.
    Oracle: one ``lp.vertex_feasible`` call per point that no push
    certified, in point order, inline or over the executor's workers.
    Output: the feasible children with their certificates and orbit sizes,
    already sorted by point, and the step's counts on the layer record:
    ``lp_calls`` oracle calls, ``by_simplex`` of them decided by the
    simplex, and ``pushed`` children certified in the walk.

    Soundness: a shift-closed parent needs a generator whose shifts all lie
    in it to stay shift-closed (the shifts of g differ from g), and a
    nondecreasing point whose subset is not shift-closed is no vertex.  A
    vertex point has a single generator decomposition (its certificate c
    has c.g != 0 on every generator, so the point is the unique maximiser
    of c.x), so a point with two masks is none, and one oracle call per
    point decides it.  A push certifies only a vertex, so a pushed point
    is never reached by a second mask.
    """
    if layer.k >= cfg.max_layer:
        raise ValueError(f"cannot expand layer {layer.k}: the max layer is {cfg.max_layer}")
    d = layer.d
    t0 = time.monotonic()
    # point -> [child mask, its certificate once a push has found one]
    children: dict[tuple[int, ...], list] = {}
    ambiguous: set[tuple[int, ...]] = set()  # points reached by two different masks
    candidates = 0
    for e in layer.entries:
        P, src = e.subset, None
        for g in comb.extensions(P, comb.shift_extensions(P, d), d):
            candidates += 1
            p = core.point_increment(e.point, g, d)
            mask = P | (1 << (g - 1))
            child = children.get(p)
            if child is None:
                child = children[p] = [mask, None]
            elif child[0] != mask:
                ambiguous.add(p)
                continue
            if child[1] is None and e.certificate is not None:
                if src is None:
                    src = lp.push_source(e.certificate, P, d)
                child[1] = lp.push(src, g, d)
    points = [p for p in sorted(children) if p not in ambiguous]
    masks = [children[p][0] for p in points if children[p][1] is None]
    if executor is None or not masks:
        results = [lp.vertex_feasible(S, d) for S in masks]
    else:
        chunk = max(1, math.ceil(len(masks) / _pool_size(cfg)))
        results = list(executor.map(lp.vertex_feasible, masks, [d] * len(masks), chunksize=chunk))
    decided = iter(results)
    entries = []
    for p in points:
        S, c = children[p]
        if c is None:
            r = next(decided)
            if not r.feasible:
                continue
            c = r.certificate
        entries.append(comb.CanonicalVertex(S, p, comb.orbit_size(p, d), c))
    by_simplex = sum(r.by_simplex for r in results)
    seconds = time.monotonic() - t0
    return LayerRecord(
        d, layer.k + 1, tuple(entries), candidates, len(masks), by_simplex,
        len(points) - len(masks), seconds,
    )


def merge_partials(parts: list[LayerRecord]) -> LayerRecord:
    """Union of the shard layers of one (d, k), sorted by point.

    Raises ValueError on empty or mixed (d, k) input, and AssertionError
    when two parts hold different subsets for one point.
    """
    if not parts:
        raise ValueError("nothing to merge")
    d, k = parts[0].d, parts[0].k
    merged: dict[tuple[int, ...], comb.CanonicalVertex] = {}
    for part in parts:
        if (part.d, part.k) != (d, k):
            raise ValueError("cannot merge partial layers of different (d, k)")
        for e in part.entries:
            prev = merged.setdefault(e.point, e)
            if prev.subset != e.subset:
                raise AssertionError(f"two vertex subsets share the point {e.point}")
    return LayerRecord(d, k, tuple(merged[p] for p in sorted(merged)))


def generate(cfg: RunConfig, start: LayerRecord | None = None):
    """Yield layers from the start layer (default: layer 0) up to cfg.max_layer.

    With ``start`` given, yields layers start.k + 1 .. max_layer and is
    identical to the tail of a fresh run; a start above max_layer is a
    ValueError.  One worker pool serves the whole run when
    ``_pool_size(cfg)`` is above 1.
    """
    if start is None:
        layer = layer_zero(cfg.d)
        yield layer
    else:
        if start.d != cfg.d:
            raise ValueError(f"start layer is for d={start.d}, config wants d={cfg.d}")
        if start.k > cfg.max_layer:
            raise ValueError(f"start layer {start.k} is above the max layer {cfg.max_layer}")
        layer = start
    workers = _pool_size(cfg)
    executor = None
    if workers > 1:
        # imported here: it loads multiprocessing, which a one-worker run never uses
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
    try:
        while layer.k < cfg.max_layer:
            layer = expand_layer(layer, cfg, executor)
            yield layer
    finally:
        if executor is not None:
            executor.shutdown()


def _pool_size(cfg: RunConfig) -> int:
    """Worker processes for a run: cfg.worker_count, capped at the CPU count."""
    return min(cfg.worker_count, os.cpu_count() or 1)


def run(cfg: RunConfig) -> list[LayerRecord]:
    """All layers of a fresh run, as a list."""
    return list(generate(cfg))


def generate_generic(G, use_symmetry: bool):
    """Layered vertex generation over an arbitrary integer generator list.

    With ``use_symmetry=False``: the plain layered scan over all layers
    0..m, entries carrying their actual (unsorted) points with orbit size 1.
    With ``use_symmetry=True``: orbitwise generation up to layer floor(m/2),
    assuming G is invariant under coordinate permutations.

    Returns the list of LayerRecords.
    """
    vectors = [tuple(int(x) for x in v) for v in G]
    if not vectors:
        raise ValueError("empty generator list")
    d = len(vectors[0])
    _check_no_collinear(vectors)
    m = len(vectors)
    top = m // 2 if use_symmetry else m
    index_of = {v: j for j, v in enumerate(vectors)}

    origin = (0,) * d
    first = comb.CanonicalVertex(0, origin, 2 if use_symmetry else 1)
    layers = [LayerRecord(d, 0, (first,))]
    current = {origin: 0}
    for k in range(top):
        nxt: dict[tuple[int, ...], int] = {}
        for point, S in current.items():
            for j in range(m):
                if (S >> j) & 1:
                    continue
                child_point = tuple(a + b for a, b in zip(point, vectors[j]))
                if use_symmetry:
                    key = tuple(sorted(child_point))
                else:
                    key = child_point
                if key in nxt:
                    continue
                if not lp.vertex_feasible_vectors(S | (1 << j), vectors).feasible:
                    continue
                child = S | (1 << j)
                if use_symmetry:
                    perm = comb.sorting_permutation(child_point)
                    child = _permute_generic(child, perm, vectors, index_of)
                nxt[key] = child
        entries = tuple(
            comb.CanonicalVertex(nxt[p], p, comb.orbit_size(p, d) if use_symmetry else 1)
            for p in sorted(nxt)
        )
        layers.append(LayerRecord(d, k + 1, entries))
        current = {p: nxt[p] for p in nxt}
    return layers


def _permute_generic(mask, perm, vectors, index_of):
    out = 0
    j = 0
    while mask:
        if mask & 1:
            v = vectors[j]
            pv = tuple(v[i] for i in perm)
            try:
                out |= 1 << index_of[pv]
            except KeyError:
                raise ValueError("generator set is not permutation-invariant") from None
        mask >>= 1
        j += 1
    return out


def _check_no_collinear(vectors):
    seen = {}
    for v in vectors:
        if not any(v):
            raise ValueError("zero vector is not a valid generator")
        g = 0
        for x in v:
            g = math.gcd(g, x)
        direction = tuple(x // g for x in v)
        lead = next(x for x in direction if x)
        if lead < 0:
            direction = tuple(-x for x in direction)
        if direction in seen:
            raise ValueError(f"collinear generators: {seen[direction]} and {v}")
        seen[direction] = v
