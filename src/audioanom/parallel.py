"""The process pool of the pipeline's per-clip front end, of the stepwise
synth, preprocess and extract stages, and of the forest's trees."""

import ctypes
import multiprocessing
import os
import signal

# glibc's mallopt parameters, and the values pool workers give them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 16 << 20  # under glibc's 32 MiB cap on 64-bit
_PR_SET_PDEATHSIG = 1  # Linux prctl option


def _die_with_parent(parent: int) -> None:
    """Pool initializer step: the kernel SIGKILLs this worker once the
    thread that forked it ends, so a worker dies with pool_map's caller.

    Without it, a worker whose caller is killed mid-map finishes its task,
    meets the closed result pipe and prints a BrokenPipeError traceback.
    Setting SIGPIPE to SIG_DFL silences that, but can leave a worker
    blocked for good: it dies holding the result queue's write lock. A
    caller that died before the request took has left the worker with
    another parent, and the worker exits.

    Linux only: where libc has no prctl this is a no-op. It never raises,
    for the reason _keep_heap gives.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG,
                                ctypes.c_ulong(signal.SIGKILL))
    except (OSError, AttributeError):
        return
    if os.getppid() != parent:
        os._exit(1)


def _keep_heap() -> None:
    """Pool initializer step: glibc keeps a worker's freed memory mapped.

    Each clip allocates and frees 2-3 MB of numpy temporaries. By default
    glibc hands them back to the kernel (it trims the heap top and unmaps
    large blocks), so the next clip faults the same pages in again: about
    158k minor faults in the workers of one default run, 650-800 a clip.
    With the heap top kept up to 64 MiB and blocks under 16 MiB on the
    heap, a worker reuses its heap from task to task, and the pool's
    teardown frees it; the workers of a default run then take about 10k.
    Either setting alone is worse than neither (a fixed threshold turns off
    glibc's dynamic one), so the trim threshold is set only once the mmap
    threshold has taken.

    glibc only: where libc has no mallopt (macOS), or refuses the value
    (it returns 0), this is a no-op. It must never raise, since a pool
    whose initializer raises respawns its workers without end.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _init_worker(parent: int) -> None:
    """Pool initializer: two separate steps, so that a libc without prctl
    still gets its mallopt."""
    _die_with_parent(parent)
    _keep_heap()


def pool_map(fn, items) -> list:
    """[fn(x) for x in items] in input order, on a fork pool as wide as the
    usable CPUs, capped at len(items); in-process on one CPU or in a pool
    worker, which as a daemonic process can have no children. A failure is
    the lowest failing item's, whichever worker meets it first.

    fork: workers inherit the imported modules instead of importing them
    again. OpenBLAS stops its threads at a fork, and workers call no BLAS,
    so OpenBLAS starts no threads in them; the program has no others.
    Each worker first runs _init_worker; the caller's allocator, in-process
    path included, is left as it is.
    """
    items = list(items)
    width = min(len(os.sched_getaffinity(0)), len(items))
    if width <= 1 or multiprocessing.current_process().daemon:
        return [fn(x) for x in items]
    with multiprocessing.get_context("fork").Pool(
            width, _init_worker, (os.getpid(),)) as pool:
        return list(pool.imap(fn, items,
                              chunksize=max(1, len(items) // (4 * width))))
