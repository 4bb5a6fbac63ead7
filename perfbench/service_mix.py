"""The ``service_mix`` workload: ``POST /partition`` against a server process.

Load: a closed loop of ``CLIENTS`` keep-alive clients.  Each posts the same
inline-CSR ``4ELT`` graph (scale 1, about 247 KB of JSON, ``nparts=8``)
in a fixed sequence — one cache miss with a fresh partitioner seed taken
from a fixed list, then ``HITS_PER_MISS`` hits on keys warmed during the
set-up — and sends its next request only after the previous reply.
Responses are checked after the timed window, so checking never delays
the load.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from measure import CallLog, median, normalize, probe, tail

HERE = Path(__file__).resolve().parent

CLIENTS = 2
HITS_PER_MISS = 3
HIT_KEYS = 3
NPARTS = 8
MATRIX, SCALE = "4ELT", 1.0
#: ``cut`` and ``factor_opcount`` sum over the first this-many miss seeds.
CUT_SEEDS = 8
MISS_SEEDS = 2000
SETUP_REPEATS = 3
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


class Server:
    """A ``server.py`` child process; always stopped by :meth:`stop`."""

    def __init__(self, spans_path=None):
        cmd = [sys.executable, str(HERE / "server.py")]
        if spans_path:
            cmd += ["--spans", spans_path]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(HERE.parent),
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError("service process did not start")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        """Ask the server to stop; kill it if it will not.  Returns its
        summary (empty when it had to be killed)."""
        summary = {}
        try:
            out, _ = self.proc.communicate("stop\n", timeout=STOP_TIMEOUT)
            lines = out.strip().splitlines()
            summary = json.loads(lines[-1]) if lines else {}
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        return summary


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, body: bytes):
        start = time.perf_counter()
        self.conn.request("POST", "/partition", body,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


class Mix:
    """Inputs of one run: the graph, its JSON and the seed lists."""

    def __init__(self, seed: int, scale: float):
        from repro.matrices import suite
        from repro.utils.rng import as_generator

        self.graph = g = suite.load(MATRIX, scale=SCALE * scale, seed=seed,
                                    cache=False)
        self._graph_json = json.dumps({
            "xadj": g.xadj.tolist(), "adjncy": g.adjncy.tolist(),
            "adjwgt": g.adjwgt.tolist(), "vwgt": g.vwgt.tolist(),
        })
        seeds = as_generator(seed).choice(1 << 30, HIT_KEYS + MISS_SEEDS,
                                          replace=False)
        self.hit_seeds = [int(s) for s in seeds[:HIT_KEYS]]
        self.miss_seeds = [int(s) for s in seeds[HIT_KEYS:]]
        self.warm: dict[int, dict] = {}  # hit seed -> miss response

    def body(self, seed: int) -> bytes:
        return (f'{{"graph":{self._graph_json},"nparts":{NPARTS},'
                f'"options":{{"seed":{seed}}}}}').encode()

    def check(self, status, data, seed, hit):
        """``(error or None, response)`` for one reply."""
        from repro.graph.partition import edge_cut, part_weights

        if status != 200:
            return f"status {status}: {data[:200]!r}", None
        resp = json.loads(data)
        if resp.get("cached") is not hit:
            kind = "hit" if hit else "miss"
            return f"cached={resp.get('cached')} on a {kind}", resp
        if hit:
            warm = self.warm[seed]
            if (resp["where_sha256"] != warm["where_sha256"]
                    or resp["where"] != warm["where"]):
                return "hit differs from the miss that filled its key", resp
            return None, resp
        g = self.graph
        where = np.asarray(resp["where"])
        if (where.shape != (g.nvtxs,) or where.min() < 0
                or where.max() >= NPARTS):
            return "where is not a part vector over the vertices", resp
        if edge_cut(g, where) != resp["cut"]:
            return "reported cut differs from the recounted edge cut", resp
        if (part_weights(g, where, NPARTS) == 0).any():
            return "a part is empty", resp
        return None, resp


def _post_misses(server: Server, mix: Mix, seeds, into: dict) -> None:
    """Post each seed as a miss on a fresh connection and keep the checked
    responses; any failure aborts the run."""
    client = Client(server.port)
    try:
        for seed in seeds:
            status, data, _ = client.post(mix.body(seed))
            error, resp = mix.check(status, data, seed, hit=False)
            if error:
                raise RuntimeError(f"untimed request failed: {error}")
            into[seed] = resp
    finally:
        client.close()


def _start(mix: Mix, spans_path=None):
    """Start a server and fill the hit keys (the set-up's warm-up calls).
    Returns the server and the set-up's raw and normalized seconds."""
    before = probe()
    start = time.perf_counter()
    server = Server(spans_path)
    try:
        _post_misses(server, mix, mix.hit_seeds, mix.warm)
    except BaseException:
        server.stop()
        raise
    raw = time.perf_counter() - start
    return server, raw, normalize(raw, before, probe())


def _drive(servers, mix: Mix, seconds: float):
    """Run the closed loop; returns the raw replies, the host-speed probe
    taken at the start of each phase and the window length.

    With two servers, client cycle ``j`` goes to ``servers[j % 2]``.
    """
    misses = iter(mix.miss_seeds)
    lock = threading.Lock()
    probes = []
    # Each cycle has a miss phase and a hit phase, and the clients start
    # every phase together.  So the two misses always run side by side,
    # and no hit waits for the interpreter lock behind the other client's
    # miss: left free, those overlaps drift with the miss seeds, and miss
    # latency varied by up to a factor of 2 between runs.  The last client
    # to arrive probes the host's speed while the server is idle.
    barrier = threading.Barrier(CLIENTS, action=lambda: probes.append(probe()))
    replies = []  # (server index, phase, seed, hit, status, bytes, seconds)
    clients = [[Client(s.port) for s in servers] for _ in range(CLIENTS)]
    stop_at = time.perf_counter() + seconds

    def loop(conns):
        try:
            for cycle in itertools.count():
                which = cycle % len(servers)
                with lock:
                    seed = next(misses)
                hits = [(mix.hit_seeds[i % HIT_KEYS], True)
                        for i in range(HITS_PER_MISS)]
                for step, batch in enumerate(([(seed, False)], hits)):
                    barrier.wait()
                    for seed, hit in batch:
                        if time.perf_counter() >= stop_at:
                            return
                        try:
                            status, data, secs = conns[which].post(
                                mix.body(seed))
                        except (OSError, http.client.HTTPException) as exc:
                            status, data, secs = 0, repr(exc).encode(), 0.0
                        replies.append((which, 2 * cycle + step, seed, hit,
                                        status, data, secs))
        except threading.BrokenBarrierError:
            return  # the other client has passed the end of the window
        finally:
            barrier.abort()

    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    start = time.perf_counter()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        # Close the keep-alive connections before any server stops, so no
        # idle connection is cancelled at shutdown.
        for conns in clients:
            for c in conns:
                c.close()
    return replies, probes, time.perf_counter() - start


def _tally(replies, probes, mix: Mix, log: CallLog, which=0):
    """Check every reply of server ``which``; returns its (miss, hit)
    latencies, normalized by the probes around their phase, and the
    checked miss responses by seed."""
    miss_s, hit_s, done = [], [], {}
    for server, phase, seed, hit, status, data, secs in replies:
        if server != which:
            continue
        log.attempted += 1
        if status == 0:
            error, resp = data.decode(), None
        else:
            error, resp = mix.check(status, data, seed, hit)
        if error:
            log.failed += 1
            if len(log.errors) < 20:
                log.errors.append(error)
            continue
        after = probes[min(phase + 1, len(probes) - 1)]
        (hit_s if hit else miss_s).append(
            normalize(secs, probes[phase], after))
        if not hit:
            done[seed] = resp
    return miss_s, hit_s, done


def run_e2e(seed: int, seconds: float, scale: float, record: dict):
    from workloads import block_opcount

    log = CallLog()
    mix = Mix(seed, scale)
    raw, times = [], []
    server = None
    summary = {}
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, secs, norm = _start(mix)
            raw.append(secs)
            times.append(norm)
        record["setup_repeats_s"] = raw
        record["setup_norm_s"] = times
        replies, probes, window = _drive([server], mix, seconds)
        miss_s, hit_s, done = _tally(replies, probes, mix, log)
        # ``cut`` always covers the same seeds: those the window did not
        # reach are posted now, untimed.
        fixed = mix.miss_seeds[:CUT_SEEDS]
        _post_misses(server, mix, [s for s in fixed if s not in done], done)
    finally:
        if server is not None:
            summary = server.stop()
    record["server"] = summary
    lat, lat_pct, n_miss = tail(miss_s)
    hit, hit_pct, n_hit = tail(hit_s)
    record["calls"] = {
        "misses": n_miss, "hits": n_hit, "miss_tail_percentile": lat_pct,
        "hit_tail_percentile": hit_pct, "window_s": window,
        "miss_s": miss_s, "hit_s": hit_s, "probe_s": probes,
        "wall_s": [r[-1] for r in replies], "errors": log.errors,
    }
    speed = statistics.fmean(probes)  # one probe per phase: time-weighted
    metrics = {
        "setup_s": median(times),
        "lat_p50_s": median(miss_s),
        "lat_tail_s": lat,
        "hit_p50_s": median(hit_s),
        "hit_tail_s": hit,
        "throughput_rps": (n_miss + n_hit) / normalize(window, speed, speed),
        "peak_rss_mb": summary.get("peak_rss_mb", 0.0),
        "cut": sum(done[s]["cut"] for s in fixed),
        "factor_opcount": sum(
            block_opcount(mix.graph, np.asarray(done[s]["where"]))
            for s in fixed),
    }
    return log, metrics


def run_traced(seed: int, seconds: float, scale: float, record: dict,
               out_dir: str):
    """Alternate client cycles between a plain and a span-wrapped server."""
    log = CallLog()
    mix = Mix(seed, scale)
    spans_path = os.path.join(out_dir, f"spans-service_mix-{seed}.jsonl")
    servers = []
    try:
        servers.append(_start(mix)[0])
        servers.append(_start(mix, spans_path)[0])
        replies, probes, window = _drive(servers, mix, seconds)
        plain_miss, _, _ = _tally(replies, probes, mix, log, which=0)
        traced_miss, _, _ = _tally(replies, probes, mix, log, which=1)
    finally:
        summaries = [s.stop() for s in servers]
    traced = summaries[1] if len(summaries) > 1 else {}
    record["server"] = summaries
    record["spans_files"] = [spans_path]
    record["calls"] = {"window_s": window, "plain_miss_s": plain_miss,
                       "traced_miss_s": traced_miss, "probe_s": probes,
                       "errors": log.errors}
    metrics = dict(traced.get("metrics", {}))
    plain = median(plain_miss)
    metrics["trace.overhead_frac"] = (
        median(traced_miss) / plain if plain else 0.0)
    unmeasured = dict(traced.get("unmeasured", {}))
    unmeasured["obs"] = ("REPRO_TRACE overhead is measured on the library "
                         "workloads only")
    if "metrics" not in traced:
        unmeasured["service"] = "the traced server returned no summary"
    return log, metrics, unmeasured
