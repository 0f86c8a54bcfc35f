import itertools

import pytest

from whitewhale import analytics, comb, core, engine, lp, tables


def test_degree_below_examples():
    assert analytics.degree_below(0, 3) == 0
    assert analytics.degree_below(core.mask_of([1, 2, 3]), 3) == 2
    assert analytics.degree_below(core.mask_of([1, 3, 5, 9]), 4) == 3


def test_degree_above_examples():
    assert analytics.degree_above(0, 3) == 3
    assert analytics.degree_above(core.mask_of([1, 3, 5, 9]), 4) == 3
    assert analytics.degree_above(core.full_mask(3), 3) == 0


def test_top_layer_degree_above_is_one(generated):
    for d in (3, 4):
        layers, _ = generated(d)
        for e in layers[-1].entries:
            assert analytics.degree_above(e.subset, d) == 1


def test_degree_of_extremes():
    for d in (3, 4):
        assert analytics.degree_above(0, d) == d
        assert analytics.degree_below(core.full_mask(d), d) == d


def test_degree_table_d3(generated):
    layers, _ = generated(3)
    for records in analytics.layer_degrees(layers):
        for r in records:
            assert r.degree == 3


def test_degree_table_d4(generated):
    layers, _ = generated(4)
    got = [
        (r.deg_below, r.deg_above)
        for recs in analytics.layer_degrees(layers)
        for r in recs
    ]
    assert got == [(db, da) for *_, db, da in tables.D4_ROWS]


def test_count_edges_d3_decomposition(generated):
    # the edges from below per layer, then the central edges from the top layer up
    layers, _ = generated(3)
    records = list(analytics.layer_degrees(layers))
    per_layer, middle = tables.D3_EDGE_DECOMPOSITION
    below = [sum(r.canonical.orbit_size * r.deg_below for r in recs) for recs in records[1:]]
    assert below == per_layer
    assert sum(r.canonical.orbit_size * r.deg_above for r in records[-1]) == 2 * middle
    assert analytics.count_edges(records) == sum(per_layer) + middle == 48


def test_count_edges_d4(generated):
    layers, _ = generated(4)
    assert analytics.count_edges(analytics.layer_degrees(layers)) == 760


def test_count_edges_halves_the_orbit_weighted_degree_sum(generated):
    layers, _ = generated(4)
    records = list(analytics.layer_degrees(layers))
    for layer, recs in zip(layers, records):
        assert [r.deg_below for r in recs] == [
            analytics.degree_below(e.subset, 4) for e in layer.entries
        ]
    total = sum(r.canonical.orbit_size * r.degree for recs in records for r in recs)
    assert analytics.count_edges(records) * 2 == total == 1520


def test_degree_checks_are_exact():
    # a tally that does not divide by its orbit size, and an odd degree sum
    origin = comb.CanonicalVertex(0, (0, 0, 0), 4)
    unit = comb.CanonicalVertex(1, (0, 0, 1), 6)
    with pytest.raises(AssertionError, match="does not divide"):
        list(analytics.layer_degrees(
            [engine.LayerRecord(3, 0, (origin,)), engine.LayerRecord(3, 1, (unit,))]
            + [engine.LayerRecord(3, k, ()) for k in (2, 3)]
        ))
    odd = analytics.DegreeRecord(comb.CanonicalVertex(0, (0, 0, 0), 1), 0, 3)
    with pytest.raises(AssertionError, match="odd"):
        analytics.count_edges([[odd]])


def test_count_edges_needs_complete_layers(generated):
    layers, _ = generated(3)
    for bad in (layers[:-1], layers[1:], layers[::-1], []):
        with pytest.raises(ValueError):
            analytics.count_edges(analytics.layer_degrees(bad))


def test_layer_degrees_is_a_stream(generated):
    # the pass holds two layers: the records of layer k - 1 go out before
    # layer k + 1 is pulled, and a bad layer fails as soon as it is pulled
    log = []

    def logged(layers):
        for layer in layers:
            log.append(("pulled", layer.k))
            yield layer

    for d in (4, 5):
        layers, _ = generated(d)
        top = core.halfway_layer(d)
        log.clear()
        for k, records in enumerate(analytics.layer_degrees(logged(layers))):
            assert len(records) == len(layers[k].entries)
            log.append(("yielded", k))
        assert log == [("pulled", 0)] + [
            event for k in range(1, top + 1) for event in (("pulled", k), ("yielded", k - 1))
        ] + [("yielded", top)]
        assert analytics.count_edges(analytics.layer_degrees(logged(layers))) == tables.E_VALUES[d]

    layers, _ = generated(3)
    layers4, _ = generated(4)
    for stream, last in (
        ([], None),
        (layers[:-1], ("pulled", 2)),  # no top layer
        (layers[:1] + layers[2:], ("pulled", 2)),  # out of order
        (layers[:2] + layers4[2:], ("pulled", 2)),  # d = 3, then d = 4
        (layers + [engine.LayerRecord(3, 4, ())], ("pulled", 4)),  # past the top layer
    ):
        log.clear()
        with pytest.raises(ValueError):
            list(analytics.layer_degrees(logged(stream)))
        assert (log[-1] if log else None) == last


def test_layer_degrees_match_lp_degrees(generated):
    # membership degrees against the exact oracle on every vertex, top layer included
    for d in (3, 4, 5):
        layers, _ = generated(d)
        records = list(analytics.layer_degrees(layers))
        assert [len(recs) for recs in records] == [len(l.entries) for l in layers]
        for layer, recs in zip(layers, records):
            for e, r in zip(layer.entries, recs):
                assert r.canonical == e
                want = (analytics.degree_below(e.subset, d), analytics.degree_above(e.subset, d))
                assert (r.deg_below, r.deg_above) == want, (d, layer.k, e.point)


def test_lower_neighbour_codes_match_sorted_neighbours(generated):
    # every lower neighbour p - v(g), g in S, of every canonical vertex and of
    # every vertex of the antipodal image of the top layer: the code from the
    # step table is the code of the sorted neighbour, and a hit adds the orbit
    for d in (3, 4, 5):
        layers, _ = generated(d)
        full = core.full_mask(d)
        vectors = core.generator_vectors(d)
        vertices = [(e.subset, e.point) for layer in layers for e in layer.entries]
        corner = 1 << (d - 1)
        vertices += [
            (full ^ e.subset, tuple(corner - x for x in e.point)) for e in layers[-1].entries
        ]
        for S, p in vertices:
            assert core.point_of(S, d) == p
            for g in core.generators_of(S):
                code = analytics._code(sorted(x - y for x, y in zip(p, vectors[g])))
                tally = {code: 0}
                hits = analytics._count_lower(p, analytics._code(p), 1 << (g - 1), 2, d, tally)
                assert hits == 1, (d, p, g)
                assert tally == {code: 2}


def test_code_is_injective(generated):
    # over the sorted points of all layers at d <= 6, and over every sorted
    # point with coordinates in [0, 2^{d-1}] at d <= 5
    for d in (3, 4, 5, 6):
        layers, _ = generated(d)
        points = {e.point for layer in layers for e in layer.entries}
        if d <= 5:
            points |= set(itertools.combinations_with_replacement(range((1 << (d - 1)) + 1), d))
        assert len({analytics._code(p) for p in points}) == len(points)


def test_family_U_examples():
    assert analytics.family_U(3, 2) == core.mask_of([1, 3, 5])
    assert analytics.family_U(4, 2) == core.mask_of([1, 3, 5, 9])
    assert analytics.family_U_point(3, 2) == (1, 1, 3)
    assert analytics.family_U_point(4, 2) == (1, 1, 1, 4)
    for d in (3, 4, 5, 6):
        for k in range(1, d):
            u = analytics.family_U(d, k)
            assert core.point_of(u, d) == analytics.family_U_point(d, k)
    with pytest.raises(ValueError):
        analytics.family_U(4, 4)
    with pytest.raises(ValueError):
        analytics.family_U(4, 0)


def test_family_W_examples():
    assert analytics.family_W(3, 2) == core.mask_of([1, 2, 3])
    assert analytics.family_W_point(3, 2) == (0, 2, 2)
    for d in (3, 4, 5):
        for k in range(1, d + 1):
            w = analytics.family_W(d, k)
            assert w.bit_count() == (1 << k) - 1
            assert core.point_of(w, d) == analytics.family_W_point(d, k)
    with pytest.raises(ValueError):
        analytics.family_W(4, 5)


def test_family_W_is_vertex_in_its_layer(generated):
    for d in (3, 4):
        layers, _ = generated(d)
        for k in range(1, d):
            layer_index = (1 << k) - 1
            assert lp.vertex_feasible(analytics.family_W(d, k), d).feasible
            assert analytics.family_W_point(d, k) in {
                e.point for e in layers[layer_index].entries
            }


def test_family_U_certificates_values():
    certs = analytics.family_U_certificates(5, 2)
    (_, main), (_, below), (_, above) = certs
    assert main == (-2, -2, -2, -2, 3)
    assert below == (-4, -4, -4, -6, 5)
    assert above == (-5, -5, -3, -3, 7)
    for d in (3, 4, 5):
        for k in range(1, d):
            for S, c in analytics.family_U_certificates(d, k):
                assert lp.verify_certificate(c, S, d)


def test_family_degree_check_examples():
    assert analytics.family_degree_check(4, 2) == (3, 3, 6)
    assert analytics.family_degree_check(3, 1) == (1, 2, 3)
    assert analytics.family_degree_check(6, 3) == (10, 10, 20)


def test_brute_force_vertices():
    square = analytics.brute_force_vertices([(1, 0), (0, 1)])
    assert len(square) == 4
    assert len(analytics.white_whale_brute_force(3)) == 32
    with pytest.raises(ValueError):
        analytics.brute_force_vertices([(1,)] * 21)
    with pytest.raises(ValueError):
        analytics.brute_force_vertices([])


def test_expand_orbit_sizes(generated):
    layers, _ = generated(3)
    for layer in layers:
        for e in layer.entries:
            assert len(analytics.expand_orbit(e, 3)) == e.orbit_size


def test_coordinate_bounds(generated):
    for d in (3, 4):
        layers, _ = generated(d)
        hi = 1 << (d - 1)
        for layer in layers:
            for e in layer.entries:
                assert all(0 <= x <= hi for x in e.point)


def test_divisibility_invariants(generated):
    for d in (3, 4):
        layers, _ = generated(d)
        a = sum(l.orbit_sum for l in layers)
        assert a % (2 * (d + 1)) == 0
        e = analytics.count_edges(analytics.layer_degrees(layers))
        assert e % (d * (d + 1)) == 0
