import time

import pytest

from whitewhale import analytics, engine

_cache: dict[int, tuple[list, float]] = {}


@pytest.fixture(scope="session")
def generated():
    """Session-cached full runs: generated(d) -> (layers, wall_seconds)."""

    def get(d: int):
        if d not in _cache:
            t0 = time.monotonic()
            layers = engine.run(engine.RunConfig(d=d))
            _cache[d] = (layers, time.monotonic() - t0)
        return _cache[d]

    return get


@pytest.fixture(scope="session")
def brute_force_d4():
    """Every vertex subset at d=4, from the all-rows oracle over all 2^15 subsets."""
    return analytics.white_whale_brute_force(4)
