import pytest

from whitewhale import analytics, comb, core, engine, layerfile, lp, tables


def points(layer):
    return [e.point for e in layer.entries]


def rows(layer):
    return [(e.subset, e.point, e.orbit_size) for e in layer.entries]


def test_layer_zero():
    layer = engine.layer_zero(3)
    assert layer.k == 0
    assert points(layer) == [(0, 0, 0)]
    assert layer.orbit_sum == 2


def test_expand_layer_examples_d3():
    cfg = engine.RunConfig(d=3)
    l1 = engine.expand_layer(engine.layer_zero(3), cfg)
    assert points(l1) == [(0, 0, 1)]
    l2 = engine.expand_layer(l1, cfg)
    assert points(l2) == [(0, 1, 2)]
    l3 = engine.expand_layer(l2, cfg)
    assert points(l3) == [(0, 2, 2), (1, 1, 3)]


def test_expand_layer_example_d4():
    layers = engine.run(engine.RunConfig(d=4, max_layer=4))
    assert points(layers[4]) == [(0, 1, 3, 3), (0, 2, 2, 4), (1, 1, 1, 4)]


def test_run_matches_d3_table(generated):
    layers, _ = generated(3)
    rows = [
        (l.k, tuple(core.generators_of(e.subset)), e.point, e.orbit_size)
        for l in layers
        for e in l.entries
    ]
    assert rows == [(k, ids, p, orb) for k, ids, p, orb, _, _ in tables.D3_ROWS]


def test_run_matches_d4_table(generated):
    layers, _ = generated(4)
    rows = [
        (l.k, tuple(core.generators_of(e.subset)), e.point, e.orbit_size)
        for l in layers
        for e in l.entries
    ]
    assert rows == [(k, ids, p, orb) for k, ids, p, orb, _, _ in tables.D4_ROWS]


def test_config_validation():
    with pytest.raises(ValueError):
        engine.RunConfig(d=1)
    with pytest.raises(ValueError):
        engine.RunConfig(d=3, max_layer=4)
    with pytest.raises(ValueError):
        engine.RunConfig(d=3, worker_count=0)


def test_generate_rejects_wrong_start_dimension():
    with pytest.raises(ValueError):
        list(engine.generate(engine.RunConfig(d=4), engine.layer_zero(3)))


def test_store_certificates_verify(generated):
    # engine certificates come from the reduced oracle and must hold on all
    # 2^d - 1 rows of the canonical subset
    from whitewhale import lp

    for d in (3, 4, 5):
        for layer in generated(d)[0][1:]:
            for e in layer.entries:
                assert lp.verify_certificate(e.certificate, e.subset, d)


def test_generic_cube():
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    layers = engine.generate_generic(basis, use_symmetry=False)
    assert [len(l.entries) for l in layers] == [1, 3, 3, 1]
    assert sum(len(l.entries) for l in layers) == 8
    assert set(points(layers[3])) == {(1, 1, 1)}


def test_generic_algorithm1_full_layers():
    layers = engine.generate_generic(core.generator_vectors(3)[1:], use_symmetry=False)
    assert [len(l.entries) for l in layers] == [1, 3, 6, 6, 6, 6, 3, 1]
    # cross-check against the subset-exhaustive oracle, grouped by cardinality
    brute = analytics.white_whale_brute_force(3)
    for layer in layers:
        want = {core.point_of(S, 3) for S in brute if S.bit_count() == layer.k}
        assert set(points(layer)) == want


@pytest.mark.parametrize("d", [3, 4, 5])
def test_generic_algorithm2_matches_specialized(generated, d):
    # the LP-only orbitwise scan is the reference for the filtered engine
    layers, _ = generated(d)
    generic = engine.generate_generic(core.generator_vectors(d)[1:], use_symmetry=True)
    assert [rows(l) for l in generic] == [rows(l) for l in layers]


def test_generic_rejects_collinear():
    with pytest.raises(ValueError):
        engine.generate_generic([(1, 0), (2, 0)], use_symmetry=False)
    with pytest.raises(ValueError):
        engine.generate_generic([(0, 0)], use_symmetry=False)
    with pytest.raises(ValueError):
        engine.generate_generic([], use_symmetry=False)


def test_worker_count_does_not_change_output(generated):
    layers, _ = generated(4)
    parallel = engine.run(engine.RunConfig(d=4, worker_count=3))
    assert [layerfile.render(l) for l in parallel] == [
        layerfile.render(l) for l in layers
    ]


def test_fresh_run_uses_one_capped_pool(monkeypatch, generated, inline_pools):
    # only the points that no walk push certified reach the pool, and a
    # layer with no such point maps nothing: at d=5, 14 points in 9 layers
    layers, _ = generated(5)
    got = engine.run(engine.RunConfig(d=5, worker_count=2))
    assert [layerfile.render(l) for l in got] == [layerfile.render(l) for l in layers]
    (pool,) = inline_pools
    assert pool.max_workers == 2
    assert pool.mapped == sum(l.lp_calls for l in got) == 14
    assert len(pool.chunks) == sum(l.lp_calls > 0 for l in got) == 9
    assert any(n > chunk for n, chunk in pool.chunks)  # split across both workers
    inline_pools.clear()
    engine.run(engine.RunConfig(d=4, worker_count=10_000))
    (pool,) = inline_pools
    assert pool.max_workers == 4
    inline_pools.clear()
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
    engine.run(engine.RunConfig(d=4, worker_count=2))
    assert inline_pools == []


def test_progress_counts_do_not_depend_on_worker_count(inline_pools):
    # one oracle call per sorted point that no walk push certified, and the
    # same pushes in the walk, whatever the pool size
    counts = []
    for workers in (1, 2, 3):
        layers = engine.run(engine.RunConfig(d=5, worker_count=workers))
        counts.append([
            (len(l.entries), l.candidates, l.lp_calls, l.by_simplex, l.pushed) for l in layers[1:]
        ])
    assert len(inline_pools) == 2
    assert len(counts[0]) == 15
    assert counts[1] == counts[0] and counts[2] == counts[0]
    _, candidates, lp_calls, by_simplex, pushed = map(sum, zip(*counts[0]))
    assert (candidates, lp_calls, by_simplex, pushed) == (198, 14, 1, 97)


def test_uncertified_parents_send_children_to_the_simplex(generated):
    # entries read from a layer file carry no certificate: the same layer
    # comes out, with every oracle call that the child's own point does not
    # answer going to the simplex (d=5, layer 13 to 14: 12 LP calls, 2 of them
    # by simplex, against 0 from certified parents)
    layers, _ = generated(5)
    cfg = engine.RunConfig(d=5)
    bare = engine.LayerRecord(5, 13, tuple(
        comb.CanonicalVertex(e.subset, e.point, e.orbit_size) for e in layers[13].entries
    ))
    pushed, simplex = (engine.expand_layer(parent, cfg) for parent in (layers[13], bare))
    assert rows(pushed) == rows(simplex) == rows(layers[14])
    assert simplex.lp_calls > simplex.by_simplex > pushed.by_simplex


def test_one_oracle_call_per_sorted_point_is_sound(brute_force_d4):
    # every subset whose sorted point is that of a vertex is itself a vertex,
    # and no point with two decompositions is a vertex (expand_layer drops a
    # point reached by two different masks)
    d = 4
    vertices = brute_force_d4
    verdicts: dict[tuple[int, ...], set[bool]] = {}
    subsets: dict[tuple[int, ...], list[int]] = {}
    for S in range(1 << ((1 << d) - 1)):
        p = core.point_of(S, d)
        verdicts.setdefault(tuple(sorted(p)), set()).add(S in vertices)
        subsets.setdefault(p, []).append(S)
    assert any(True in v for v in verdicts.values())
    assert any(False in v for v in verdicts.values())
    assert all(len(v) == 1 for v in verdicts.values())
    shared = [masks for masks in subsets.values() if len(masks) > 1]
    assert shared
    assert not any(S in vertices for masks in shared for S in masks)


def test_point_reached_by_two_masks_gets_no_oracle_call(monkeypatch):
    # parents {7, 11} and {1, 15} both reach (1, 1, 2, 3), by adding 1 and 3:
    # the children {1, 7, 11} and {1, 3, 15} differ, so neither is sent;
    # {7, 15} reaches (1, 2, 2, 3) alone, so its child {1, 7, 15} is.  With
    # a vector on each parent to push from (none is a vertex, so each push
    # fails), the walk pushes the first child of the shared point before the
    # second mask shows up, but not the second, and the oracle still sees
    # only {1, 7, 15}
    d = 4
    point = (1, 1, 2, 3)
    masks = (0b10001000000, 0b100000000000001, 0b100000001000000)
    sent, pushed = [], []
    real_oracle, real_push = lp.vertex_feasible, lp.push

    def oracle(S, d):
        sent.append(S)
        return real_oracle(S, d)

    def push(src, g, d):
        pushed.append(src.parent | (1 << (g - 1)))
        return real_push(src, g, d)

    monkeypatch.setattr(lp, "vertex_feasible", oracle)
    monkeypatch.setattr(lp, "push", push)
    for certificate in (None, (-1, -1, 1, 1)):
        parents = engine.LayerRecord(d, 2, tuple(
            comb.CanonicalVertex(S, p, comb.orbit_size(p, d), certificate)
            for S in masks
            for p in [core.point_of(S, d)]
        ))
        sent.clear()
        pushed.clear()
        nxt = engine.expand_layer(parents, engine.RunConfig(d=d))
        assert sent == [0b100000001000001]
        assert point not in {e.point for e in nxt.entries}
        if certificate is None:
            assert pushed == []
        else:
            assert 0b100000000000101 not in pushed  # {1, 3, 15}
            assert pushed[0] == 0b10001000001       # {1, 7, 11}
            assert 0b100000001000001 in pushed


def test_shard_union_equals_unsharded(generated):
    # shard i/3 walks every parent and keeps the points i mod 3 of the step:
    # disjoint parts whose counts add up to the unsharded step's
    layers, _ = generated(4)
    parts = [engine.expand_layer(layers[3], engine.RunConfig(d=4, shard=(i, 3))) for i in range(3)]
    held = [set(points(part)) for part in parts]
    assert sum(map(len, held)) == len(set().union(*held)) == len(layers[4].entries)
    for field in ("lp_calls", "by_simplex", "pushed"):
        assert sum(getattr(part, field) for part in parts) == getattr(layers[4], field)
    assert {part.candidates for part in parts} == {layers[4].candidates}
    merged = engine.merge_partials(parts)
    assert layerfile.render(merged) == layerfile.render(layers[4])


def test_shard_is_one_layer_step(generated):
    # a second step of a shard would be expanded from a partial layer
    layers, _ = generated(4)
    for start, max_layer in ((None, 1), (layers[3], 5), (layers[3], 7)):
        cfg = engine.RunConfig(d=4, max_layer=max_layer, shard=(0, 2))
        with pytest.raises(ValueError, match="one layer step"):
            list(engine.generate(cfg, start))
    cfg = engine.RunConfig(d=4, max_layer=4, shard=(1, 2))
    assert [layer.k for layer in engine.generate(cfg, layers[3])] == [4]
    for shard in ((2, 2), (-1, 2), (0, 0)):
        with pytest.raises(ValueError, match="out of range"):
            engine.RunConfig(d=4, shard=shard)


def test_point_injectivity_on_vertices(generated):
    layers, _ = generated(3)
    masks = analytics.all_vertices_from_layers(layers)
    assert len({core.point_of(S, 3) for S in masks}) == len(masks)


def test_facet_recursion_d4_to_d3(generated):
    # vertices with first coordinate 0, that coordinate dropped, form the
    # full vertex set one dimension down
    layers4, _ = generated(4)
    layers3, _ = generated(3)
    upper = analytics.all_vertices_from_layers(layers4)
    lower = analytics.all_vertices_from_layers(layers3)
    facet = {
        core.point_of(S, 4)[1:]
        for S in upper
        if core.point_of(S, 4)[0] == 0
    }
    assert facet == {core.point_of(S, 3) for S in lower}
