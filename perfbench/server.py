"""The ``service_mix`` server process: ``repro serve`` in its own interpreter.

    python3 perfbench/server.py [--spans PATH]

Runs the service with its default two queue workers.  Prints
``{"port": P}`` once listening on 127.0.0.1, serves until it reads
``stop`` (or end of file) on standard input, then prints one JSON summary
line: peak RSS, the cache and queue counters and, with ``--spans``, the
per-layer metrics of the wrapped service and library layers (the spans
themselves go to PATH).  Running the server apart from the load generator
keeps the clients off the server's interpreter lock.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _TimedJson:
    """Stand-in for the ``json`` module the app looks up: ``loads`` is the
    request decode, ``dumps`` the response encode."""

    def __init__(self, rec, module):
        self._module = module
        self.loads = rec.wrap("svc.decode", module.loads)
        self.dumps = rec.wrap("svc.encode", module.dumps)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install_service(rec, service, patcher) -> None:
    """Wrap the service layer of a live ``PartitionService``."""
    app = "repro.service.app"
    patcher.attr(app, "json", lambda m: _TimedJson(rec, m), "service")
    patcher.attr(app, "graph_from_request",
                 lambda f: rec.wrap("svc.decode", f), "service")
    patcher.attr(app, "request_key", lambda f: rec.wrap("svc.key", f),
                 "service")
    patcher.attr(app, "partition_response",
                 lambda f: rec.wrap("svc.encode", f), "service")
    patcher.attr(app, "kway_partition", lambda f: rec.wrap("kway", f), "kway")

    def timed_run(run):
        async def wrapper(fn, *args):
            submitted = time.perf_counter()

            def job():  # runs on a queue thread: no open parent span
                rec.add("svc.queue_wait", submitted, time.perf_counter())
                with rec.span("svc.compute"):
                    return fn(*args)

            return await run(job)

        return wrapper

    patcher.attr(service.queue, "run", timed_run, "service")


def service_metrics(rec, service) -> dict:
    from spans import library_metrics

    cache = service.cache.stats()
    requests = cache["hits"] + cache["misses"]
    jobs = service.queue.stats()["completed"]
    inc, _own, _cnt = rec.totals()
    per_req = 1.0 / max(requests, 1)
    per_job = 1.0 / max(jobs, 1)
    compute = inc["svc.compute"] - rec.inclusive_under("svc.encode",
                                                       "svc.compute")
    metrics = library_metrics(rec, requests)
    metrics.update({
        "svc.decode_s": inc["svc.decode"] * per_req,
        "svc.key_s": inc["svc.key"] * per_req,
        "svc.cache_hit_frac": cache["hits"] * per_req,
        "svc.queue_wait_s": inc["svc.queue_wait"] * per_job,
        "svc.compute_s": compute * per_job,
        "svc.encode_s": inc["svc.encode"] * per_req,
        "svc.rejected": service.queue.stats()["rejected"],
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.app import BackgroundServer

    from measure import peak_rss_mb
    from spans import EXPECTED, Recorder, install_library, unreached

    server = BackgroundServer()
    rec = patcher = None
    if args.spans:
        rec = Recorder("server")
        patcher = install_library(rec)
        install_service(rec, server.service, patcher)
    _host, port = server.start()
    print(json.dumps({"port": port}), flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    server.stop()
    summary = {
        "peak_rss_mb": peak_rss_mb(),
        "cache": server.service.cache.stats(),
        "queue": server.service.queue.stats(),
    }
    if rec is not None:
        patcher.restore()
        summary["metrics"] = service_metrics(rec, server.service)
        summary["unmeasured"] = {
            **unreached(rec.totals()[2], "service_mix", EXPECTED),
            **patcher.unmeasured,
        }
        rec.dump(args.spans)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
