import pytest

from whitewhale import analytics, comb, core, engine, layerfile, tables


def points(layer):
    return [e.point for e in layer.entries]


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
    with pytest.raises(ValueError):
        engine.RunConfig(d=3, shard=(2, 2))


def test_shard_needs_single_layer():
    cfg = engine.RunConfig(d=3, shard=(0, 2))
    with pytest.raises(ValueError):
        list(engine.generate(cfg))


def test_generate_rejects_wrong_start_dimension():
    with pytest.raises(ValueError):
        list(engine.generate(engine.RunConfig(d=4), engine.layer_zero(3)))


def test_store_certificates_verify():
    from whitewhale import lp

    cfg = engine.RunConfig(d=3)
    for layer in engine.generate(cfg):
        for e in layer.entries:
            if layer.k:
                assert lp.verify_certificate(e.certificate, e.subset, 3)


def test_generic_cube():
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    layers = engine.generate_generic(basis, use_symmetry=False)
    assert [len(l.entries) for l in layers] == [1, 3, 3, 1]
    assert sum(len(l.entries) for l in layers) == 8
    assert set(points(layers[3])) == {(1, 1, 1)}


def test_generic_algorithm1_full_layers():
    layers = engine.generate_generic(engine.white_whale_vectors(3), use_symmetry=False)
    assert [len(l.entries) for l in layers] == [1, 3, 6, 6, 6, 6, 3, 1]
    # cross-check against the subset-exhaustive oracle, grouped by cardinality
    brute = analytics.white_whale_brute_force(3)
    for layer in layers:
        want = {core.point_of(S, 3) for S in brute if S.bit_count() == layer.k}
        assert set(points(layer)) == want


def test_generic_algorithm2_matches_specialized(generated):
    layers, _ = generated(4)
    generic = engine.generate_generic(engine.white_whale_vectors(4), use_symmetry=True)
    assert [points(l) for l in generic] == [points(l) for l in layers]
    assert [[e.orbit_size for e in l.entries] for l in generic] == [
        [e.orbit_size for e in l.entries] for l in layers
    ]


def test_generic_with_pre_oracle(generated):
    layers, _ = generated(4)

    def pre(mask, j):
        return comb.may_extend(mask, j + 1, 4)

    generic = engine.generate_generic(
        engine.white_whale_vectors(4), use_symmetry=True, pre_oracle=pre
    )
    assert [points(l) for l in generic] == [points(l) for l in layers]


def test_generic_rejects_collinear():
    with pytest.raises(ValueError):
        engine.generate_generic([(1, 0), (2, 0)], use_symmetry=False)
    with pytest.raises(ValueError):
        engine.generate_generic([(0, 0)], use_symmetry=False)
    with pytest.raises(ValueError):
        engine.generate_generic([], use_symmetry=False)


def test_filters_off_matches_filters_on_d3(generated):
    layers, _ = generated(3)
    plain = engine.run(engine.RunConfig(d=3, use_filters=False))
    assert [points(l) for l in plain] == [points(l) for l in layers]
    assert [[e.subset for e in l.entries] for l in plain] == [
        [e.subset for e in l.entries] for l in layers
    ]


def test_worker_count_does_not_change_output(generated):
    layers, _ = generated(4)
    parallel = engine.run(engine.RunConfig(d=4, worker_count=3))
    assert [layerfile.render(l) for l in parallel] == [
        layerfile.render(l) for l in layers
    ]


def test_fresh_run_uses_one_capped_pool(monkeypatch, generated):
    layers, _ = generated(4)
    pools = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            self.max_workers, self.mapped = max_workers, 0
            pools.append(self)

        def map(self, fn, items):
            items = list(items)
            self.mapped += len(items)
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
    got = engine.run(engine.RunConfig(d=4, worker_count=2))
    assert [layerfile.render(l) for l in got] == [layerfile.render(l) for l in layers]
    (pool,) = pools
    assert pool.max_workers == 2
    assert pool.mapped > len(layers) - 1  # later layers are split across both workers
    pools.clear()
    engine.run(engine.RunConfig(d=4, worker_count=10_000))
    (pool,) = pools
    assert pool.max_workers == 4
    pools.clear()
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
    engine.run(engine.RunConfig(d=4, worker_count=2))
    assert pools == []


def test_shard_union_equals_unsharded(generated):
    layers, _ = generated(4)
    start = layers[3]
    parts = [
        engine.expand_layer(start, engine.RunConfig(d=4, shard=(i, 3)))
        for i in range(3)
    ]
    merged = engine.merge_partials(parts)
    assert layerfile.render(merged) == layerfile.render(layers[4])


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
