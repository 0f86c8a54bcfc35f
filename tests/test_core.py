import random

import pytest

from whitewhale import core


def test_vector_of_examples():
    assert core.vector_of(1, 3) == (0, 0, 1)
    assert core.vector_of(7, 3) == (1, 1, 1)
    assert core.vector_of(5, 4) == (0, 1, 0, 1)


def test_vector_of_out_of_range():
    with pytest.raises(ValueError):
        core.vector_of(0, 3)
    with pytest.raises(ValueError):
        core.vector_of(8, 3)


def test_dimension_bounds():
    with pytest.raises(ValueError):
        core.check_dimension(1)
    with pytest.raises(ValueError):
        core.check_dimension(17)
    assert core.check_dimension(9) == 9


def test_point_of_examples():
    assert core.point_of(0, 3) == (0, 0, 0)
    assert core.point_of(core.mask_of([1, 3, 5]), 3) == (1, 1, 3)
    assert core.point_of(core.mask_of([1, 3, 5, 9]), 4) == (1, 1, 1, 4)
    # the column popcounts are the coordinatewise sums of the member vectors
    for d in (2, 3, 4):
        for S in range(1 << core.generator_count(d)):
            vectors = [core.vector_of(g, d) for g in core.generators_of(S)]
            assert core.point_of(S, d) == tuple(map(sum, zip((0,) * d, *vectors)))


def test_point_increment_examples():
    assert core.point_increment((0, 0, 1), 3, 3) == (0, 1, 2)
    assert core.point_increment((0, 0, 0), 1, 3) == (0, 0, 1)
    assert core.point_increment((0, 1, 2), 2, 3) == (0, 2, 2)


def test_point_increment_matches_point_of():
    rng = random.Random(7)
    for _ in range(100):
        d = rng.choice([3, 4, 5])
        S = rng.getrandbits(core.generator_count(d))
        outside = [g for g in range(1, 1 << d) if not (S >> (g - 1)) & 1]
        if not outside:
            continue
        g = rng.choice(outside)
        assert core.point_increment(core.point_of(S, d), g, d) == core.point_of(
            S | (1 << (g - 1)), d
        )


def test_antipode_of_empty():
    assert core.antipode(0, 3) == core.full_mask(3)
    assert core.point_of(core.full_mask(3), 3) == (4, 4, 4)


def test_antipode_point_by_direct_summation():
    # sum the six remaining generators explicitly
    anti = core.antipode(core.mask_of([1]), 3)
    total = [0, 0, 0]
    for g in core.generators_of(anti):
        for i, x in enumerate(core.vector_of(g, 3)):
            total[i] += x
    assert tuple(total) == (4, 4, 3)
    assert core.point_of(anti, 3) == (4, 4, 3)


def test_antipode_involution_and_sum():
    rng = random.Random(1)
    for _ in range(200):
        d = rng.choice([2, 3, 4, 5])
        S = rng.getrandbits(core.generator_count(d))
        assert core.antipode(core.antipode(S, d), d) == S
        p = core.point_of(S, d)
        q = core.point_of(core.antipode(S, d), d)
        assert tuple(a + b for a, b in zip(p, q)) == (1 << (d - 1),) * d


def test_generators_of_and_mask_of():
    ids = [1, 3, 5, 9]
    assert list(core.generators_of(core.mask_of(ids))) == ids
    assert core.mask_of([]) == 0
