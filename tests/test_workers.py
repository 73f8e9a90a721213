"""The process pool never outgrows the CPUs or the jobs; checked with no real process."""

import concurrent.futures
import os
from fractions import Fraction as F

import pytest

from ced.decision import rho_c_curve


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for a serial fake; returns the sizes it was asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


# (cpu_count, pool for 5 grid points, pool for 3 grid points); None is no pool
CAPS = [(None, None, None), (1, None, None), (2, 2, 2), (64, 5, 3)]


@pytest.mark.parametrize("cpus,five_pool,three_pool", CAPS)
def test_huge_thread_count_is_capped(pool_sizes, monkeypatch, cpus, five_pool, three_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for grid, pool in (([F(1, 2), F(3, 4), F(1), F(3, 2), F(2)], five_pool), ([F(1, 2), F(1), F(2)], three_pool)):
        pool_sizes.clear()
        serial = rho_c_curve(2, grid, F(1, 8))
        assert rho_c_curve(2, grid, F(1, 8), threads=10**6) == serial
        assert pool_sizes == ([] if pool is None else [pool])
