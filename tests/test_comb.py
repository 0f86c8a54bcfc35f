import itertools
import random

import pytest

from whitewhale import analytics, comb, core, engine, lp


def test_submask_table_invariant():
    for d in (2, 3, 4, 5):
        table = comb.submask_table(d)
        for g in range(1, 1 << d):
            assert table[g].bit_count() == (1 << g.bit_count()) - 1
            assert (table[g] >> (g - 1)) & 1


def test_may_extend_all_ones_rule():
    ones = 7
    # below the halfway layer (1,1,1) is never added
    assert not comb.extensions(core.mask_of([1, 3]), 1 << (ones - 1), 3)
    # at the halfway layer a vertex without (1,1,1) can only gain it
    w = core.mask_of([1, 2, 3])
    assert comb.extensions(w, 1 << (ones - 1), 3)
    assert not comb.extensions(w, 1 << (4 - 1), 3)
    assert lp.vertex_feasible(w | (1 << (ones - 1)), 3).feasible


def test_may_extend_complement_rule():
    S = core.mask_of([1, 3])
    assert not comb.extensions(S, 1 << (6 - 1), 3)   # (1,1,0) + (0,0,1) = (1,1,1)
    assert not comb.extensions(S, 1 << (4 - 1), 3)   # (1,0,0) + (0,1,1) = (1,1,1)
    assert comb.extensions(S, 1 << (2 - 1), 3)


def test_may_extend_pair_sum_rule():
    # (0,0,1) in S and g = (0,1,0) disjoint from it: (0,1,1) must be in S
    one = core.mask_of([1])
    assert not comb.extensions(one, 1 << (2 - 1), 3)
    assert not lp.vertex_feasible(one | (1 << (2 - 1)), 3).feasible
    assert comb.extensions(core.mask_of([1, 3]), 1 << (2 - 1), 3)  # (0,1,1) present
    # at or above the halfway layer, where the complement rule is silent
    S = core.mask_of([1, 2, 3, 7])  # p = (1, 3, 3) at d=3
    assert lp.vertex_feasible(S, 3).feasible
    assert not comb.extensions(S, 1 << (4 - 1), 3)  # (1,0,0) + (0,0,1) = 5 is out
    assert not lp.vertex_feasible(S | (1 << (4 - 1)), 3).feasible


def test_restricted_count_examples():
    # |S & submasks(g)|, the count the submask rule of extensions reads
    table = comb.submask_table(3)
    assert (core.mask_of([1, 3]) & table[7]).bit_count() == 2
    assert (core.mask_of([1, 3]) & table[2]).bit_count() == 0
    assert (core.mask_of([1, 3, 5]) & table[3]).bit_count() == 2


def test_oracle_O_examples():
    # |S & submasks(g)| must be 2^{sigma(g)-1} - 1
    S = core.mask_of([1, 3])
    assert comb.extensions(S, 1 << (2 - 1), 3)       # submasks {2}: none in S
    assert not comb.extensions(S, 1 << (7 - 1), 3)
    assert comb.extensions(S, 1 << (5 - 1), 3)       # submasks {1, 4}: one in S
    one = core.mask_of([1])
    assert not comb.extensions(one, 1 << (6 - 1), 4)   # submasks {2, 4}: none in S
    assert not lp.vertex_feasible(one | (1 << (6 - 1)), 4).feasible


def test_support_bound_filter_examples():
    # the submask count implies 2^{sigma(g)-1} - 1 <= |S|
    one = core.mask_of([1])
    assert not comb.extensions(one, 1 << (7 - 1), 4)   # sigma = 3 needs 3 members, |S| = 1
    assert not lp.vertex_feasible(one | (1 << (7 - 1)), 4).feasible
    assert comb.extensions(one, 1 << (3 - 1), 4)       # sigma = 2 needs 1
    # boundary: sigma = 4 needs 2^3 - 1 = 7 members and |S| = 7
    seven = core.mask_of(range(1, 8))
    assert lp.vertex_feasible(seven, 4).feasible
    assert comb.extensions(seven, 1 << (15 - 1), 4)
    assert lp.vertex_feasible(seven | (1 << (15 - 1)), 4).feasible


def test_may_extend_soundness_exhaustive(brute_force_d4):
    # a rejection must imply the extension is not a vertex, for every vertex
    # S and every g outside it; vertex sets come from paths without the rule
    vertex_sets = {
        4: brute_force_d4,
        5: analytics.all_vertices_from_layers(
            engine.generate_generic(core.generator_vectors(5)[1:], use_symmetry=True)
        ),
    }
    for d, vertices in vertex_sets.items():
        rejected = 0
        for S in vertices:
            for g in core.generators_of(core.full_mask(d) & ~S):
                if not comb.extensions(S, 1 << (g - 1), d):
                    rejected += 1
                    assert S | (1 << (g - 1)) not in vertices, (d, S, g)
        assert rejected > 0


def test_filter_sorted_extension_examples():
    assert comb.filter_sorted_extension((0, 0, 1), 3, 3)  # g = (0,1,1)
    assert not comb.filter_sorted_extension((0, 0, 1), 5, 3)  # g = (1,0,1)
    for g in range(1, 8):
        assert comb.filter_sorted_extension((0, 1, 2), g, 3)


def test_filter_sorted_extension_keeps_exactly_sorted_children(generated):
    for d in (2, 3, 4, 5):
        layers, _ = generated(d)
        for layer in layers:
            for e in layer.entries:
                for g in range(1, 1 << d):
                    child = core.point_increment(e.point, g, d)
                    want = all(a <= b for a, b in zip(child, child[1:]))
                    assert comb.filter_sorted_extension(e.point, g, d) == want, (e.point, g)


def test_orbit_size_examples():
    assert comb.orbit_size((0, 1, 2), 3) == 12
    assert comb.orbit_size((1, 1, 4, 4), 4) == 12
    assert comb.orbit_size((1, 1, 1, 4), 4) == 8
    assert comb.orbit_size((0, 0, 0), 3) == 2


def test_canonicalize_examples():
    cv = comb.canonicalize(core.mask_of([2, 3]), (0, 2, 1), 3)
    assert cv.subset == core.mask_of([1, 3])
    assert cv.point == (0, 1, 2)
    cv = comb.canonicalize(core.mask_of([1, 3, 5]), (1, 1, 3), 3)
    assert cv.subset == core.mask_of([1, 3, 5])
    assert cv.point == (1, 1, 3)
    cv = comb.canonicalize(0, (0, 0, 0), 3)
    assert (cv.subset, cv.point, cv.orbit_size) == (0, (0, 0, 0), 2)


def test_canonicalize_well_defined_on_ties():
    # every sorting permutation of a vertex with tied coordinates must give
    # the same canonical subset
    rng = random.Random(23)
    checked = 0
    for S in range(1 << 15):
        p = core.point_of(S, 4)
        if len(set(p)) == 4 or rng.random() < 0.97:
            continue
        if not lp.vertex_feasible(S, 4).feasible:
            continue
        want = comb.canonicalize(S, p, 4).subset
        for perm in itertools.permutations(range(4)):
            if tuple(p[i] for i in perm) == tuple(sorted(p)):
                assert comb.permute_subset(S, perm, 4) == want
                checked += 1
    assert checked > 0


def test_shift_table_moves_one_coordinate_later():
    for d in (2, 3, 4, 5):
        table = comb.shift_table(d)
        assert len(table) == d - 1
        for i, (A, s) in enumerate(table):
            for g in core.generators_of(A):
                v, w = core.vector_of(g, d), core.vector_of(g - s, d)
                assert v[i] == 1 and v[i + 1] == 0
                assert w[:i] + w[i + 2:] == v[:i] + v[i + 2:] and (w[i], w[i + 1]) == (0, 1)


def test_shift_closed_examples():
    assert comb.shift_closed(0, 3)
    assert comb.shift_closed(core.mask_of([1]), 3)             # (0,0,1)
    assert not comb.shift_closed(core.mask_of([4]), 3)         # (1,0,0) without (0,1,0)
    assert comb.shift_closed(core.mask_of([1, 2, 3]), 3)       # W3^2
    # necessary, not sufficient: (0,0,1) + (0,1,0) + (1,0,0) = (1,1,1)
    assert comb.shift_closed(core.mask_of([1, 2, 4]), 3)
    assert not lp.vertex_feasible(core.mask_of([1, 2, 4]), 3).feasible
    assert comb.shift_closed(core.mask_of([1, 3, 5]), 3)       # U3^2, point (1,1,3)


def test_shift_closure_soundness_exhaustive(brute_force_d4):
    # every canonical vertex is shift-closed: all of them at d=4 (brute
    # force), and every orbit of the LP-only orbitwise scan at d=5
    checked = 0
    for S in brute_force_d4:
        cv = comb.canonicalize(S, core.point_of(S, 4), 4)
        assert comb.shift_closed(cv.subset, 4), S
        checked += 1
    assert checked == 370
    layers = engine.generate_generic(core.generator_vectors(5)[1:], use_symmetry=True)
    for layer in layers:
        for e in layer.entries:
            assert comb.shift_closed(e.subset, 5), e.point
    assert sum(len(l.entries) for l in layers) == 112


def test_shift_extensions_match_shift_closed_exhaustive(generated):
    # for every canonical vertex S at d <= 5 and every g outside S, g is in
    # shift_extensions(S) exactly when S + {g} is shift-closed, and then the
    # point of S + {g} is nondecreasing: engine.expand_layer takes each such
    # child as canonical
    checked = 0
    for d in (2, 3, 4, 5):
        for layer in generated(d)[0]:
            for e in layer.entries:
                ext = comb.shift_extensions(e.subset, d)
                assert not ext & e.subset
                for g in core.generators_of(core.full_mask(d) & ~e.subset):
                    child = e.subset | (1 << (g - 1))
                    assert bool(ext >> (g - 1) & 1) == comb.shift_closed(child, d), (e.point, g)
                    if ext >> (g - 1) & 1:
                        p = core.point_increment(e.point, g, d)
                        assert all(a <= b for a, b in zip(p, p[1:])), (e.point, g)
                    checked += 1
    assert checked == 2528


def test_shift_extensions_examples():
    # from the empty set only the generators without a shift: (0,...,0,1,...,1)
    assert list(core.generators_of(comb.shift_extensions(0, 3))) == [1, 3, 7]
    # {(0,0,1)}: (0,1,0) shifts to (0,0,1), (1,0,0) to (0,1,0), which is out
    assert list(core.generators_of(comb.shift_extensions(core.mask_of([1]), 3))) == [2, 3, 7]


def test_permute_generator_roundtrip():
    for perm in itertools.permutations(range(3)):
        inverse = tuple(perm.index(j) for j in range(3))
        for g in range(1, 8):
            assert comb.permute_generator(comb.permute_generator(g, perm, 3), inverse, 3) == g


def test_permute_subset_matches_permute_generator_exhaustive():
    # the masked-shift swaps against the member-by-member reference: every
    # permutation at d <= 5, on every mask at d <= 3 and on a sample above
    rng = random.Random(29)
    for d in (2, 3, 4, 5):
        full = core.full_mask(d)
        masks = range(full + 1) if d <= 3 else [0, full] + [rng.getrandbits(full.bit_length()) for _ in range(40)]
        for perm in itertools.permutations(range(d)):
            for S in masks:
                want = 0
                for g in core.generators_of(S):
                    want |= 1 << (comb.permute_generator(g, perm, d) - 1)
                assert comb.permute_subset(S, perm, d) == want, (d, perm, S)
