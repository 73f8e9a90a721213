"""The process pool never outgrows the CPUs or the jobs; checked with no real process."""

import concurrent.futures
import os
from fractions import Fraction as F

import pytest

from ced.decision import rho_c_curve
from ced.params import ModelParams
from ced.simulate import simulate_tree


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

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


# (cpu_count, pool for 5 tree trials, pool for 3 grid points); None is no pool
CAPS = [(None, None, None), (1, None, None), (2, 2, 2), (64, 5, 3)]


@pytest.mark.parametrize("cpus,tree_pool,curve_pool", CAPS)
def test_huge_thread_count_is_capped(pool_sizes, monkeypatch, cpus, tree_pool, curve_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    p = ModelParams(2, F(1), F(1))
    serial = simulate_tree(p, 3, 5, seed=1)
    assert simulate_tree(p, 3, 5, seed=1, threads=10**6) == serial
    assert pool_sizes == ([] if tree_pool is None else [tree_pool])

    pool_sizes.clear()
    grid = [F(1, 2), F(1), F(2)]
    serial = rho_c_curve(2, grid, F(1, 8))
    assert rho_c_curve(2, grid, F(1, 8), threads=10**6) == serial
    assert pool_sizes == ([] if curve_pool is None else [curve_pool])
