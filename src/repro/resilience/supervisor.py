"""Process-parallel branch execution: worker settings and the supervised pool.

The recursion trees of :func:`repro.core.kway.partition` and nested
dissection split a graph into *independent* subgraphs, and the drivers
pre-spawn one child RNG per branch (:func:`repro.utils.rng.spawn_child`),
so branches may run in other processes without changing a single bit of
the result.  The worker settings live here: :func:`resolve_workers`
(``options.workers``, else ``REPRO_WORKERS``, else 1),
:func:`resolve_worker_timeout` (``options.worker_timeout``, else
``REPRO_WORKER_TIMEOUT``, else none), :func:`fan_depth_for` (how many top
recursion levels to fan out) and :func:`branch_executor` (the process
pool).  :class:`BranchSupervisor` runs the branch jobs on that pool as a
fault-tolerant execution layer:

* **budget slicing** — every wait on a branch future is bounded by the
  smaller of ``options.worker_timeout`` (or ``REPRO_WORKER_TIMEOUT``) and
  the remaining :class:`~repro.resilience.deadline.DeadlineGuard` budget,
  enforced in the parent via ``future.result(timeout=...)``.  The global
  deadline therefore propagates to work the parent cannot see.
* **retry ladder** — on worker crash (``BrokenProcessPool``, a killed
  process) or timeout, the broken pool is torn down (terminate, shut
  down, join — never leaked), rebuilt, and every unfinished branch is
  resubmitted.  The branch's pre-seeded RNG stream is pickled fresh from
  the parent's pristine copy on every submission, so a retry is
  *reseeded-but-deterministic*: bit-identical to what the first attempt
  would have produced.
* **degradation order** — after ``options.worker_retries`` failed
  attempts (or once the deadline guard expires), the branch is demoted to
  in-process sequential execution in the parent, under a deadline guard
  built from the remaining budget — the same code path as ``workers=1``,
  so the result is still bit-identical.  Drivers never hang and never
  observe a ``BrokenProcessPool``.

Every supervision decision is a ``worker.*`` trace event on the
driver's span, which ``repro trace`` rolls up into the profile:
``worker.crash``, ``worker.timeout``, ``worker.rebuild`` and
``worker.fault`` are emitted there, and each retry or demotion is one
``retry`` / ``degradation`` record (phase ``"worker"``) in the run's
:class:`~repro.resilience.report.ResilienceReport`, which a traced run's
report writes as ``worker.retry`` / ``worker.degrade``.

The ``worker_crash`` / ``worker_hang`` / ``worker_slow`` fault sites
(:mod:`repro.resilience.faults`) are consulted here, in the parent, at
submission time — deterministically, regardless of OS scheduling — and
wrap the shipped callable so the failure happens inside the worker.
See ``docs/RESILIENCE.md`` for the full supervision contract.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from repro.resilience.deadline import DeadlineGuard
from repro.utils.errors import ConfigurationError

__all__ = [
    "WORKERS_ENV",
    "WORKER_TIMEOUT_ENV",
    "resolve_workers",
    "resolve_worker_timeout",
    "fan_depth_for",
    "branch_executor",
    "BranchSupervisor",
]

#: Environment variable consulted when ``options.workers`` is unset.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable consulted when ``options.worker_timeout`` is unset.
WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"

#: How long an injected ``worker_hang`` sleeps — long enough that only the
#: supervisor's timeout (never the test suite's patience) ends the branch.
HANG_SECONDS = 600.0

#: How long an injected ``worker_slow`` delays before running the branch.
SLOW_SECONDS = 0.25

#: Fallback per-wait timeout applied when a ``worker_hang`` clause is
#: active but neither ``worker_timeout`` nor a deadline guard bounds the
#: wait — guarantees an injected hang can never stall a run forever.
HANG_FALLBACK_TIMEOUT = 5.0

#: Minimum wait slice, so an expired guard still polls a finished future
#: once instead of busy-looping on a zero timeout.
_MIN_WAIT = 0.05

#: Grace period for joining terminated workers before escalating to kill.
_JOIN_WAIT = 5.0

#: Fault site -> injected failure kind, consulted in dispatch order.
_FAULT_KINDS = (
    ("worker_crash", "crash"),
    ("worker_hang", "hang"),
    ("worker_slow", "slow"),
)


def resolve_workers(options=None) -> int:
    """Effective worker count: option field, else ``REPRO_WORKERS``, else 1."""
    if options is not None and getattr(options, "workers", None) is not None:
        return options.workers
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ConfigurationError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def resolve_worker_timeout(options=None):
    """Per-branch timeout: option field, else ``REPRO_WORKER_TIMEOUT``, else None."""
    if options is not None and getattr(options, "worker_timeout", None) is not None:
        return options.worker_timeout
    raw = os.environ.get(WORKER_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKER_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    if timeout <= 0:
        raise ConfigurationError(
            f"{WORKER_TIMEOUT_ENV} must be positive, got {timeout}"
        )
    return timeout


def fan_depth_for(workers: int) -> int:
    """Recursion depth to fan out so ≥ ``workers`` branch jobs exist.

    Depth ``d`` of a binary recursion tree exposes ``2**d`` independent
    branches; the smallest ``d`` with ``2**d >= workers`` keeps every
    worker busy with at most 2× oversubscription.
    """
    depth = 0
    while (1 << depth) < workers:
        depth += 1
    return depth


def branch_executor(workers: int) -> ProcessPoolExecutor:
    """A process pool using ``fork`` when available (cheap), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


def _faulted_call(kind, fn, *args):
    """Run ``fn`` in a pool worker with an injected failure mode.

    ``crash`` exits the worker process hard (the parent sees a broken
    pool, exactly like an OOM kill); ``hang`` sleeps far past any
    reasonable timeout; ``slow`` delays, then completes normally.
    """
    if kind == "crash":
        os._exit(1)
    if kind == "hang":
        time.sleep(HANG_SECONDS)
    elif kind == "slow":
        time.sleep(SLOW_SECONDS)
    return fn(*args)


class _BranchJob:
    """One submitted branch: its callable, bookkeeping, and life state."""

    __slots__ = (
        "index", "fn", "args", "meta", "future",
        "attempts", "demoted", "finished", "yielded",
    )

    def __init__(self, index, fn, args, meta):
        self.index = index
        self.fn = fn
        self.args = args
        self.meta = meta
        self.future = None
        self.attempts = 0
        self.demoted = False
        self.finished = False
        self.yielded = False


class BranchSupervisor:
    """Supervised process pool for independent recursion branches.

    Context manager.  Drivers ``submit`` branch jobs from recursion depth
    ``fan_depth`` (:func:`fan_depth_for` of ``workers``) on and ``drain``
    ``(meta, result)`` pairs in submission order; crashes,
    hangs and timeouts are absorbed by the retry ladder described in the
    module docstring instead of propagating.  Exceptions *raised by the
    branch itself* (a ``ReproError`` from the pipeline) still propagate
    unchanged — supervision covers the execution substrate, not the
    algorithm.

    Parameters
    ----------
    workers:
        Pool size (> 1; the drivers keep ``workers=1`` sequential).
    timeout:
        Per-branch wait budget in seconds (``options.worker_timeout`` /
        ``REPRO_WORKER_TIMEOUT``); ``None`` means waits are bounded only
        by ``guard``.
    guard:
        The driver's :class:`~repro.resilience.deadline.DeadlineGuard`,
        or ``None``.  Bounds every wait by the remaining budget and is
        handed to demoted sequential branches.
    max_retries:
        Failed attempts per branch before demotion to sequential
        (``options.worker_retries``).
    report:
        The run's :class:`~repro.resilience.report.ResilienceReport`;
        every retry / degradation decision is recorded (and traced, when
        the report is).
    span:
        The driver's open tracer span (or a falsy null span); receives
        the other ``worker.*`` events and parents the
        ``worker.sequential`` span of demoted branches.
    faults:
        The run's fault injector; only the ``worker_*`` sites are
        consulted, at submission time, in the parent.
    """

    def __init__(self, workers, *, timeout=None, guard=None,
                 max_retries=2, report=None, span=None, faults=None):
        self.workers = int(workers)
        self.fan_depth = fan_depth_for(self.workers)
        self.timeout = timeout
        self.guard = guard
        self.max_retries = int(max_retries)
        self.report = report
        self.span = span
        self.faults = faults
        self._jobs: list[_BranchJob] = []
        self._pool = None
        self._broken = False
        plan = getattr(faults, "plan", None) if faults else None
        self._hang_fallback = (
            HANG_FALLBACK_TIMEOUT
            if plan is not None and "worker_hang" in plan.clauses
            and timeout is None and guard is None
            else None
        )

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "BranchSupervisor":
        self._pool = branch_executor(self.workers)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        unfinished = any(not job.finished for job in self._jobs)
        if exc_type is not None or unfinished or self._broken:
            # Abnormal exit (driver raised, or jobs never drained): cancel
            # whatever has not started and take the pool down hard so no
            # worker — healthy, hung or half-dead — outlives the driver.
            for job in self._jobs:
                if job.future is not None and not job.finished:
                    job.future.cancel()
            self._kill_pool()
        elif self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        return False

    # -- submission ----------------------------------------------------

    def submit(self, fn, /, *args, meta=None) -> _BranchJob:
        """Queue one branch job; dispatched to the pool immediately.

        ``args`` must be picklable; the branch RNG generator among them is
        serialized per submission from the parent's pristine copy, which
        is what makes retries bit-identical.
        """
        job = _BranchJob(len(self._jobs), fn, args, meta)
        self._jobs.append(job)
        if not self._broken and not self._dispatch(job):
            self._broken = True
        return job

    def _dispatch(self, job) -> bool:
        """Submit ``job`` to the live pool; False when the pool is broken."""
        kind = None
        if self.faults:
            for site, fault_kind in _FAULT_KINDS:
                if self.faults.trip(site):
                    kind = fault_kind
                    break
        try:
            if kind is None:
                job.future = self._pool.submit(job.fn, *job.args)
            else:
                if self.span:
                    self.span.event(
                        "worker.fault", branch=job.index, kind=kind
                    )
                job.future = self._pool.submit(
                    _faulted_call, kind, job.fn, *job.args
                )
        except BrokenProcessPool:
            job.future = None
            return False
        return True

    # -- draining ------------------------------------------------------

    def drain(self):
        """Yield ``(meta, result)`` per job, in submission order.

        Blocks on each branch under the sliced time budget; crashed and
        timed-out branches are retried and, past ``max_retries``, re-run
        sequentially in this process before their result is yielded.
        """
        for job in self._jobs:
            if job.yielded:
                continue
            result = self._await(job)
            job.yielded = True
            yield job.meta, result

    def _await(self, job):
        while True:
            if job.demoted:
                return self._run_sequential(job)
            # A branch dispatched before the pool broke is charged through
            # its future below, like any crash; only undispatched ones
            # (and those of a torn-down pool) wait for the rebuild.
            if job.future is None:
                if not self._rebuild():
                    # The fresh pool broke before every branch was even
                    # resubmitted; charge the awaited branch so the
                    # ladder still terminates.
                    self._note_failure(job, "crash")
                continue
            try:
                result = job.future.result(timeout=self._wait_slice())
            except FutureTimeoutError:
                self._note_failure(job, "timeout")
                continue
            except BrokenProcessPool:
                self._note_failure(job, "crash")
                continue
            job.finished = True
            return result

    def _wait_slice(self):
        """Seconds to wait on the next future, or ``None`` (unbounded)."""
        slices = []
        if self.timeout is not None:
            slices.append(self.timeout)
        if self.guard is not None:
            slices.append(max(self.guard.remaining(), _MIN_WAIT))
        if not slices and self._hang_fallback is not None:
            slices.append(self._hang_fallback)
        return min(slices) if slices else None

    def _note_failure(self, job, cause) -> None:
        """Record one failed attempt and decide: retry or demote."""
        job.attempts += 1
        if self.span:
            self.span.event(
                "worker." + cause, branch=job.index, attempts=job.attempts
            )
        # The pool is dead or hosting a runaway worker either way; all
        # unfinished futures die with it and are redispatched on rebuild.
        self._kill_pool()
        for other in self._jobs:
            if not other.finished:
                other.future = None
        self._broken = True
        exhausted = job.attempts > self.max_retries or (
            self.guard is not None and self.guard.expired()
        )
        if exhausted:
            job.demoted = True
            detail = (
                f"branch {job.index} {cause} after {job.attempts} "
                f"attempt(s); degrading to in-process sequential execution"
            )
            kind = "degradation"
        else:
            detail = (
                f"branch {job.index} {cause}; retry {job.attempts}/"
                f"{self.max_retries} with the same pre-seeded RNG stream"
            )
            kind = "retry"
        if self.report is not None:
            self.report.record(
                kind, "worker", detail,
                branch=job.index, cause=cause, attempts=job.attempts,
            )

    def _rebuild(self) -> bool:
        """Replace a broken pool and resubmit every unfinished branch."""
        self._kill_pool()
        todo = [j for j in self._jobs if not j.finished and not j.demoted]
        self._broken = False
        if not todo:
            return True
        if self.span:
            self.span.event("worker.rebuild", pending=len(todo))
        self._pool = branch_executor(self.workers)
        for job in todo:
            if not self._dispatch(job):
                self._broken = True
                return False
        return True

    def _run_sequential(self, job):
        """Demoted branch: run ``job`` in-process, deadline-bounded.

        The branch callable receives a ``guard`` keyword — the driver's
        own guard when one exists (the branch shares the remaining global
        budget), else a fresh guard armed with ``timeout`` so even the
        sequential fallback cannot run unbounded.
        """
        guard = self.guard
        if guard is None and self.timeout is not None:
            guard = DeadlineGuard(self.timeout)
        if self.span:
            with self.span.child("worker.sequential", branch=job.index):
                result = job.fn(*job.args, guard=guard)
        else:
            result = job.fn(*job.args, guard=guard)
        job.finished = True
        return result

    def _kill_pool(self) -> None:
        """Tear the pool down without ever blocking on a hung worker.

        Terminate first (interrupts a worker stuck in a syscall), then
        shut the executor down, then join with a bounded grace period and
        escalate to SIGKILL for anything still alive — the supervisor
        never leaks a child process.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
        for proc in procs:
            proc.join(_JOIN_WAIT)
            if proc.is_alive():
                proc.kill()
                proc.join(_JOIN_WAIT)
