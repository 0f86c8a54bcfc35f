"""The benchmark's own test: all three workloads at d=4, untraced and traced.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

import run


def test_smoke():
    assert run.main(["--smoke"]) == 0
