"""Bounded job execution for the partitioning service.

Partitioning is CPU-bound library code; the HTTP layer is an asyncio event
loop.  :class:`JobQueue` bridges the two: jobs run on a fixed-size thread
pool (each job may itself fan branches across a *process* pool via
``options.workers`` — the :class:`~repro.resilience.supervisor.
BranchSupervisor` semantics are unchanged inside a job), and admission is
bounded — at most ``workers`` jobs running plus ``backlog`` waiting.  A
request arriving past that bound is rejected immediately with a 503
(:class:`~repro.service.schema.ServiceRequestError`), which is the
degradation a saturated service owes its callers: a fast "try again"
instead of an unbounded queue that converts overload into timeouts.

The pool runs one job at a time by default (:data:`DEFAULT_WORKERS`).  Its
threads share the server's interpreter lock, so two jobs running at once
take turns on one core: each waits up to the interpreter's switch interval
whenever the other releases the lock in a NumPy call, and both finish
later than they would one after the other.  More workers pay only where
jobs wait with the lock released (``options.workers > 1`` fans a job out
to child processes) or where a short job must not queue behind a long one.

Per-request deadlines ride inside the job itself: ``options.deadline``
makes :func:`repro.core.kway.partition` and the orderings degrade and
return a best-effort result rather than overrun, so the queue never needs
to kill a job to honour a deadline.  The deadline clock starts with the
job, not at admission: the queue wait comes on top, and :meth:`JobQueue.
stats` reports it.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar

from repro.service.schema import ServiceRequestError

__all__ = ["DEFAULT_WORKERS", "JobQueue", "last_job_times"]

#: Jobs a queue runs at once unless told otherwise.
DEFAULT_WORKERS = 1

#: The times of the last job each asyncio task ran.  A task runs in its own
#: copy of the context, so concurrent callers never read each other's.  The
#: times travel here because :meth:`JobQueue.run` returns the job's result
#: unchanged, to its callers and to code that wraps it.
_LAST_JOB_TIMES: ContextVar[tuple[float, float]] = ContextVar(
    "repro_service_last_job_times"
)


def last_job_times() -> tuple[float, float]:
    """``(wait_s, run_s)`` of the last job the calling task ran through
    :meth:`JobQueue.run`: its wait from admission until a thread started
    it, then its run.  ``(0.0, 0.0)`` before the task has run one."""
    return _LAST_JOB_TIMES.get((0.0, 0.0))


class JobQueue:
    """Admission-bounded thread-pool job runner for the service.

    Parameters
    ----------
    workers:
        Concurrently *running* jobs (thread-pool size).
    backlog:
        Jobs allowed to wait for a thread beyond the running ones;
        admission past ``workers + backlog`` raises a 503.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS, backlog: int = 16):
        if workers < 1:
            raise ServiceRequestError(
                f"job queue needs at least one worker, got {workers}"
            )
        if backlog < 0:
            raise ServiceRequestError(f"backlog must be >= 0, got {backlog}")
        self.workers = workers
        self.backlog = backlog
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._lock = threading.Lock()
        self._pending = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.wait_s = 0.0
        self.run_s = 0.0

    async def run(self, fn, *args):
        """Run ``fn(*args)`` on the pool; await and return its result.

        The job's wait and run times are added to :meth:`stats` and
        readable by the caller through :func:`last_job_times`.

        Raises
        ------
        ServiceRequestError
            With status 503 when the queue is saturated.  Exceptions the
            job raises propagate unchanged.
        """
        with self._lock:
            if self._pending >= self.workers + self.backlog:
                self.rejected += 1
                raise ServiceRequestError(
                    f"job queue saturated ({self._pending} jobs pending); "
                    "try again shortly",
                    status=503,
                )
            self._pending += 1
            self.submitted += 1
        clock = [time.perf_counter()]  # admitted, then started and ended

        def timed():
            clock.append(time.perf_counter())
            try:
                return fn(*args)
            finally:
                clock.append(time.perf_counter())

        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._pool, timed)
        except Exception:
            self._finish(clock, failed=True)
            raise
        self._finish(clock, failed=False)
        return result

    def _finish(self, clock: list[float], *, failed: bool) -> None:
        wait_s = run_s = 0.0
        if len(clock) == 3:  # a shut-down pool fails a job it never started
            admitted, started, ended = clock
            wait_s, run_s = started - admitted, ended - started
        with self._lock:
            self._pending -= 1
            if failed:
                self.failed += 1
            else:
                self.completed += 1
            self.wait_s += wait_s
            self.run_s += run_s
        _LAST_JOB_TIMES.set((wait_s, run_s))

    def stats(self) -> dict:
        """Occupancy, outcome counters and the jobs' summed wait and run
        seconds, JSON-ready for ``/stats``."""
        with self._lock:
            return {
                "workers": self.workers,
                "backlog": self.backlog,
                "pending": self._pending,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "wait_s": self.wait_s,
                "run_s": self.run_s,
            }

    def shutdown(self) -> None:
        """Stop accepting work and release the pool threads."""
        self._pool.shutdown(wait=True, cancel_futures=True)
