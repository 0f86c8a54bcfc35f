import concurrent.futures
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


class InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    def __init__(self, max_workers, opened):
        self.max_workers, self.mapped, self.chunks = max_workers, 0, []
        opened.append(self)

    def map(self, fn, *iterables, chunksize=1):
        args = list(zip(*iterables))
        self.mapped += len(args)
        self.chunks.append((len(args), chunksize))
        return [fn(*a) for a in args]

    def shutdown(self):
        pass


@pytest.fixture
def inline_pools(monkeypatch):
    """Replaces the process pool the engine imports with InlinePool on a
    4-CPU host; returns the list of pools opened."""
    opened = []
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers: InlinePool(max_workers, opened),
    )
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
    return opened
