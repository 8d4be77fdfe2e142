"""The process pool of the per-clip front end and of the forest's trees."""

import multiprocessing
import os


def pool_map(fn, items) -> list:
    """[fn(x) for x in items] in input order, on a fork pool as wide as the
    usable CPUs, capped at len(items); in-process on one CPU or in a pool
    worker, which as a daemonic process can have no children. A failure is
    the lowest failing item's, whichever worker meets it first.

    fork: workers inherit the imported modules instead of importing them
    again. OpenBLAS stops its threads at a fork, and workers call no BLAS,
    so OpenBLAS starts no threads in them; the program has no others.
    """
    items = list(items)
    width = min(len(os.sched_getaffinity(0)), len(items))
    if width <= 1 or multiprocessing.current_process().daemon:
        return [fn(x) for x in items]
    with multiprocessing.get_context("fork").Pool(width) as pool:
        return list(pool.imap(fn, items,
                              chunksize=max(1, len(items) // (4 * width))))
