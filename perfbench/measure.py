"""Timing, statistics and run-record helpers shared by every workload."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

#: Steps of the host-speed probe timed just before and just after every
#: timed call and set-up.
PROBE_LOOPS = 200_000

#: The probe's time on the reference host at its usual speed.  The host's
#: speed drifts by tens of percent over minutes, in CPU time as much as in
#: wall time, so every reported time is the measured one scaled by
#: ``PROBE_REF_S`` over the mean of the probes around it: the seconds the
#: same work takes at the reference speed.
PROBE_REF_S = 0.008


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample, but never below the median (with
    fewer than 21 samples the median is the tail); returns
    ``(value, percentile, n)``.  With ten samples or fewer the maximum
    stands in (percentile 100), so tiny smoke runs still report a value.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    pct = max(50.0, 100.0 * (n - 10) / n)
    return max(float(ordered[n - 11]), median(ordered)), pct, n


def spin_seconds(loops: int = 2_000_000) -> float:
    """Wall time of a fixed pure-Python loop: the host-speed probe."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i
    return time.perf_counter() - start


def probe() -> float:
    return spin_seconds(PROBE_LOOPS)


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the probes around them."""
    return seconds * PROBE_REF_S * 2.0 / (before + after)


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_import_seconds(root, modules) -> float:
    """Wall time of a new interpreter that imports ``modules`` from
    ``root/src``: the process-start part of a set-up."""
    code = f"import sys; sys.path.insert(0, 'src'); import {', '.join(modules)}"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=str(root), check=True)
    return time.perf_counter() - start


class CallLog:
    """Wall, normalized and CPU time of every timed call, plus failures.

    A call counts as a success only when it returned and its output check
    passed; failed calls are counted, never timed.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.norm: list[float] = []
        self.cpu: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, call, check):
        """Time ``call()``; ``check(result)`` returns an error or ``None``."""
        gc.collect()
        self.attempted += 1
        before = probe()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - a failed call is data
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        after = probe()
        self.probes += [before, after]
        error = check(result)
        if error:
            self._fail(error)
            return None
        self.wall.append(wall)
        self.norm.append(normalize(wall, before, after))
        self.cpu.append(cpu)
        return result

    def _fail(self, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(error)

    def record(self) -> dict:
        value, pct, n = tail(self.norm)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "n": n,
            "p50_s": median(self.norm),
            "tail_s": value,
            "tail_percentile": pct,
            "wall_p50_s": median(self.wall),
            "norm_s": self.norm,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "probe_s": self.probes,
        }


def environment(cleared: dict) -> dict:
    """What the run record notes about the host and toolchain."""
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba": has_numba,
        "platform": platform.platform(),
        "cleared_env": cleared,
        "argv": sys.argv[1:],
    }
