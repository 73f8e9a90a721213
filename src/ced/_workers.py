"""The one process pool, used by `rho_c_curve` alone: independent jobs spread over at most one worker per CPU."""

from __future__ import annotations

import os


def pool_size(threads: int, n_jobs: int) -> int:
    """Workers worth starting: no more than asked for, than jobs, or than CPUs."""
    return max(1, min(threads, n_jobs, os.cpu_count() or 1))


def map_jobs(fn, jobs: list, threads: int) -> list:
    """[fn(job) for job in jobs], in worker processes when more than one pays.

    `fn` and every job must pickle.  Results come back in job order, so
    they do not depend on the pool size.  Under the fork start method the
    pool starts all its workers up front, so its size is capped by
    `pool_size`.
    """
    workers = pool_size(threads, len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    import concurrent.futures  # about 8 ms of start-up that a serial run never needs

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
