"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Everything here is checked at its stated tolerance (exact, unless a runtime
budget is involved).  Layers come from the session-cached fixture so the
expensive runs happen once.
"""

import math

from whitewhale import analytics, core, engine, layerfile, lp, tables

A = tables.A_VALUES
E = tables.E_VALUES
O = tables.O_VALUES


def report(number: int, name: str, ok: bool):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_vertex_counts(generated):
    ok = True
    for d in range(2, 7):
        layers, seconds = generated(d)
        ok &= sum(l.orbit_sum for l in layers) == A[d]
        budget = 1.0 if d <= 4 else 30.0 if d == 5 else 600.0
        ok &= seconds < budget
    report(1, "vertex counts a(2..6), runtime budgets", ok)


def test_criterion_02_orbit_counts(generated):
    ok = all(
        sum(len(l.entries) for l in generated(d)[0]) == O[d] for d in range(2, 7)
    )
    report(2, "canonical orbit counts o(2..6)", ok)


def test_criterion_03_layer_tables(generated):
    ok = True
    for d, rows in ((3, tables.D3_ROWS), (4, tables.D4_ROWS)):
        layers, _ = generated(d)
        got = [
            (l.k, tuple(core.generators_of(e.subset)), e.point, e.orbit_size)
            for l in layers
            for e in l.entries
        ]
        ok &= got == [(k, ids, p, orb) for k, ids, p, orb, _, _ in rows]
    report(3, "layer tables d=3 (5 rows) and d=4 (18 rows)", ok)


def test_criterion_04_edge_counts(generated):
    ok = True
    for d in range(3, 7):
        layers, _ = generated(d)
        records = list(analytics.layer_degrees(layers))
        ok &= analytics.count_edges(records) == E[d]
        if d == 3:
            per_layer, middle = tables.D3_EDGE_DECOMPOSITION
            ok &= [
                sum(r.canonical.orbit_size * r.deg_below for r in recs) for recs in records[1:]
            ] == per_layer
            ok &= sum(r.canonical.orbit_size * r.deg_above for r in records[-1]) == 2 * middle
        if d == 4:
            got = [
                analytics.degree_below(e.subset, 4)
                for l in layers[1:]
                for e in l.entries
            ]
            ok &= got == [db for *_, db, _ in tables.D4_ROWS[1:]]
    report(4, "edge counts e(3..6), d=3 decomposition, d=4 deg_below rows", ok)


def test_criterion_05_degree_tables(generated):
    layers3, _ = generated(3)
    ok = all(
        r.degree == 3 for recs in analytics.layer_degrees(layers3) for r in recs
    )
    layers4, _ = generated(4)
    records = [r for recs in analytics.layer_degrees(layers4) for r in recs]
    ok &= [(r.deg_below, r.deg_above) for r in records] == [
        (db, da) for *_, db, da in tables.D4_ROWS
    ]
    degree_of = {r.canonical.point: r.degree for r in records}
    ok &= degree_of[(1, 1, 1, 4)] == 6
    ok &= degree_of[(1, 1, 4, 4)] == 6
    ok &= all(
        deg == 4 for p, deg in degree_of.items() if p not in ((1, 1, 1, 4), (1, 1, 4, 4))
    )
    report(5, "degree tables: d=3 all 3, d=4 rows with the two degree-6 orbits", ok)


def test_criterion_06_brute_force_equivalence(generated):
    import time

    t0 = time.monotonic()
    ok = True
    for d in (3, 4):
        layers, _ = generated(d)
        expanded = analytics.all_vertices_from_layers(layers)
        ok &= expanded == analytics.white_whale_brute_force(d)
    ok &= time.monotonic() - t0 < 60.0
    report(6, "brute-force equivalence at d=3,4 under one minute", ok)


def test_criterion_07_filter_soundness(generated):
    ok = True
    for d in (3, 4):
        layers, _ = generated(d)
        plain = engine.generate_generic(core.generator_vectors(d)[1:], use_symmetry=True)
        ok &= [
            [(e.subset, e.point) for e in l.entries] for l in plain
        ] == [[(e.subset, e.point) for e in l.entries] for l in layers]
    report(7, "filter chain output equals LP-only output at d=3,4", ok)


def test_criterion_08_family_properties(generated):
    ok = True
    for d in range(2, 7):
        layers, _ = generated(d)
        points = [{e.point for e in l.entries} for l in layers]
        for k in range(1, d):
            try:
                analytics.family_degree_check(d, k)
            except AssertionError:
                ok = False
            ok &= all(
                lp.verify_certificate(c, S, d)
                for S, c in analytics.family_U_certificates(d, k)
            )
            w = analytics.family_W(d, k)
            ok &= lp.vertex_feasible(w, d).feasible
            ok &= analytics.family_W_point(d, k) in points[(1 << k) - 1]
    report(8, "U-family degrees and certificates, W-family vertices, d=2..6", ok)


def test_criterion_09_structural_invariants(generated):
    ok = True
    for d in range(3, 7):
        layers, _ = generated(d)
        a = sum(l.orbit_sum for l in layers)
        e = analytics.count_edges(analytics.layer_degrees(layers))
        ok &= a % (2 * (d + 1)) == 0
        ok &= e % (d * (d + 1)) == 0
        hi = 1 << (d - 1)
        ok &= all(
            0 <= x <= hi for l in layers for entry in l.entries for x in entry.point
        )
        ok &= all(
            analytics.degree_above(entry.subset, d) == 1 for entry in layers[-1].entries
        )
        lower = (d + 1) / 2 ** (d + 1) * 2 ** (d * d * (1 - 10 / math.log(d)))
        upper = (d + 4) / 2 ** (3 * (d - 1)) * 2 ** (d * d)
        ok &= lower <= a <= upper
    report(9, "divisibility, coordinate bounds, top-layer deg_above, count bounds", ok)


def test_criterion_10_determinism_resume_shards(generated):
    ok = True
    # byte-identical repeats, independent of worker count
    layers4, _ = generated(4)
    rendered = [layerfile.render(l) for l in layers4]
    again = engine.run(engine.RunConfig(d=4))
    ok &= [layerfile.render(l) for l in again] == rendered
    parallel = engine.run(engine.RunConfig(d=4, worker_count=2))
    ok &= [layerfile.render(l) for l in parallel] == rendered
    # resume from any layer reproduces the rest of the run
    for k in range(len(layers4) - 1):
        tail = list(engine.generate(engine.RunConfig(d=4), start=layers4[k]))
        ok &= [layerfile.render(l) for l in tail] == rendered[k + 1 :]
    # sharded runs (n=4) at d=5 merge to the unsharded layers
    layers5, _ = generated(5)
    for k in range(len(layers5) - 1):
        parts = [
            engine.expand_layer(layers5[k], engine.RunConfig(d=5, shard=(i, 4))) for i in range(4)
        ]
        merged = engine.merge_partials(parts)
        ok &= layerfile.render(merged) == layerfile.render(layers5[k + 1])
    report(10, "determinism, resume, 4-way sharding at d=5", ok)
