"""Deterministic process-pool fan-out for experiments and estimators.

The fabric has one rule: **worker count never changes results**.  Every
entry point here is an order-preserving map over an explicit task list, so
the aggregation downstream sees the same values in the same order whether
the tasks ran in-process (``workers=1``) or across a pool -- the
bit-identical guarantee the regression tests pin down.

Randomness is never shared across tasks.  Each task derives its own
:class:`numpy.random.SeedSequence` child (via :func:`spawn_seed_sequences`)
from a single root seed, so per-task streams are independent *and*
reproducible regardless of which process consumes them.

Lives in ``repro.util`` so that analysis modules can use it without
importing the experiment package (which itself imports analysis); the
scenario-level entry point is
:func:`repro.experiments.runner.run_scenario_summaries`.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.errors import ExperimentError

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count knob: ``None`` means "all CPUs"."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    workers = int(workers)
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    return workers


def effective_workers(
    workers: Optional[int], task_count: Optional[int] = None
) -> int:
    """The pool width that can actually help: requested workers capped at
    the CPU count (extra processes on fewer cores only add context
    switches and IPC) and at the task count (idle workers cost startup).

    This cap is what fixed the fabric's negative scaling: asking for 4
    workers on a smaller machine used to *lose* to serial (pool spawn +
    pickling with zero added parallelism); now it degrades to the widest
    pool the hardware supports, down to in-process serial on one CPU.
    """
    width = min(resolve_workers(workers), max(1, os.cpu_count() or 1))
    if task_count is not None:
        width = min(width, max(1, int(task_count)))
    return width


# ----------------------------------------------------------------------
# Persistent pool: amortize worker startup across calls
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS: int = 0


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool shared by every fabric call in this process.

    Spawning a :class:`ProcessPoolExecutor` costs fork/exec plus a full
    interpreter + ``import repro`` warm-up per worker -- which used to be
    paid on *every* ``parallel_map`` call and dominated short batches
    (measured scaling efficiency 0.18 at 4 workers).  The pool persists
    across calls and is only rebuilt when a caller needs more workers
    than it currently has; narrower requests reuse the wider pool.
    """
    global _POOL, _POOL_WORKERS
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_shared_pool() -> None:
    """Tear down the persistent pool (atexit hook; also for tests)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_shared_pool)


# ----------------------------------------------------------------------
# Throughput-tuned chunking
# ----------------------------------------------------------------------
#: Aim for chunks worth roughly this much wall clock: long enough that
#: one pickle round-trip is noise, short enough that the tail chunk
#: cannot idle the pool for long.
TARGET_CHUNK_SECONDS = 0.5

_task_rate_ewma: Optional[float] = None


def note_task_rate(tasks: int, seconds: float) -> None:
    """Feed an observed scenario-task completion rate into the tuner.

    Called by the fabric itself after each pooled batch and by the
    campaign runner with its telemetry-measured replications/sec, so the
    next :func:`auto_chunksize` reflects how fast this workload actually
    runs on this machine.  Smoothed with an EWMA (alpha 0.5): responsive
    to config-size changes, stable against one noisy batch.
    """
    global _task_rate_ewma
    if tasks <= 0 or seconds <= 0.0:
        return
    observed = tasks / seconds
    if _task_rate_ewma is None:
        _task_rate_ewma = observed
    else:
        _task_rate_ewma = 0.5 * _task_rate_ewma + 0.5 * observed


def observed_task_rate() -> Optional[float]:
    """The current tasks/sec estimate (``None`` until first feed)."""
    return _task_rate_ewma


def auto_chunksize(
    task_count: int,
    workers: int,
    task_rate: Optional[float] = None,
) -> int:
    """Pool ``chunksize`` for a batch: telemetry-tuned when available.

    With a known task rate the chunk is sized to
    :data:`TARGET_CHUNK_SECONDS` of work; cold, it falls back to four
    chunks per worker.  Always clamped to ``[1, ceil(tasks/workers)]``
    so every worker gets work.  Chunking never affects results --
    ``pool.map`` preserves input order regardless -- only the
    pickling/dispatch overhead per task.
    """
    if task_count < 1:
        return 1
    workers = max(1, int(workers))
    per_worker = math.ceil(task_count / workers)
    rate = task_rate if task_rate is not None else observed_task_rate()
    if rate and rate > 0.0:
        size = int(round(rate * TARGET_CHUNK_SECONDS))
    else:
        size = math.ceil(task_count / (workers * 4))
    return max(1, min(size, per_worker))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = 1,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving input order.

    ``workers <= 1`` (the default) runs serially in-process; larger
    values fan out over the persistent :func:`shared_pool` (requiring
    ``fn`` and every item to be picklable -- module-level functions and
    frozen dataclass configs are; lambdas and closures are not).  The
    requested width is capped by :func:`effective_workers`, so
    over-asking degrades to serial instead of losing to it.  Results
    arrive in input order either way, so downstream aggregation is
    independent of the worker count.

    ``chunksize`` overrides the telemetry-tuned :func:`auto_chunksize`;
    either way chunking is invisible in the results.
    """
    tasks = list(items)
    count = effective_workers(workers, len(tasks))
    if count <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    if chunksize is None:
        chunksize = auto_chunksize(len(tasks), count)
    started = time.monotonic()
    try:
        results = list(shared_pool(count).map(fn, tasks, chunksize=chunksize))
    except BrokenProcessPool:
        # A worker died (OOM-kill, hard crash).  The pool is unusable;
        # rebuild it once and retry -- tasks are pure, so a rerun is
        # safe and returns the same values.
        shutdown_shared_pool()
        results = list(shared_pool(count).map(fn, tasks, chunksize=chunksize))
    note_task_rate(len(tasks), time.monotonic() - started)
    return results


def spawn_seed_sequences(
    root_seed: int, count: int
) -> List[np.random.SeedSequence]:
    """``count`` independent child sequences of one root seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, the recommended scheme
    for parallel streams: children are statistically independent of each
    other and of the parent, and the mapping (root_seed, index) -> stream
    is stable across processes and platforms.
    """
    if count < 1:
        raise ExperimentError(f"count must be >= 1, got {count}")
    return np.random.SeedSequence(int(root_seed)).spawn(int(count))


def spawn_rngs(root_seed: int, count: int) -> List[np.random.Generator]:
    """``count`` independent, reproducible generators from one root seed."""
    return [
        np.random.default_rng(seq)
        for seq in spawn_seed_sequences(root_seed, count)
    ]


def chunk_sizes(total: int, chunks: int) -> List[int]:
    """Split ``total`` into ``chunks`` balanced positive parts (sum exact).

    The split depends only on ``(total, chunks)`` -- never on the worker
    count -- so chunked estimators stay deterministic under any pool size.
    """
    if total < 1:
        raise ExperimentError(f"total must be >= 1, got {total}")
    if chunks < 1:
        raise ExperimentError(f"chunks must be >= 1, got {chunks}")
    chunks = min(chunks, total)
    base, extra = divmod(total, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]
