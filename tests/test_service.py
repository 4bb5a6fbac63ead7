"""Tests for the partitioning service (``repro.service``).

Covers the content-addressed cache (keys, LRU, TTL — with a fake clock),
the request/response schema, the bounded job queue, and the HTTP layer end
to end over real sockets: cache-hit bit-identity against a fresh in-process
run, single-flight coalescing under concurrent fan-in, deadline-exceeded
degradation (200 + resilience report, never a 500), ndjson progress
streaming, and the ``service.*`` trace events/counters the app emits.

The HTTP tests run against a :class:`~repro.service.app.BackgroundServer`
on an ephemeral port; they are written to pass unchanged under the chaos CI
leg (``REPRO_FAULTS="worker_crash;seed=1"`` only fires inside pool workers,
which only the explicit ``workers: 2`` test engages — and the library's
bit-identity guarantee is exactly what that test asserts).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.core import partition as local_partition
from repro.core.options import (
    CACHE_KEY_FIELDS,
    DEFAULT_OPTIONS,
    InitialScheme,
    MatchingScheme,
    MultilevelOptions,
    RefinePolicy,
    cache_key_payload,
)
from repro.matrices import grid2d
from repro.obs import read_trace
from repro.service import (
    BackgroundServer,
    JobQueue,
    PartitionService,
    ResultCache,
    ServiceRequestError,
    graph_digest,
    graph_from_request,
    parse_options,
    request_key,
    where_digest,
)
from repro.utils.errors import ConfigurationError
from tests.conftest import dumbbell_graph, path_graph


# --------------------------------------------------------------------------
# HTTP helpers
# --------------------------------------------------------------------------
def _request(addr, method, path, body=None):
    """One JSON request; returns (status, decoded-payload)."""
    host, port = addr
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _stream_request(addr, body):
    """POST with ``stream: true`` over a raw socket; returns ndjson dicts."""
    raw = json.dumps({**body, "stream": True}).encode()
    with socket.create_connection(addr, timeout=60) as sock:
        sock.sendall(
            b"POST /partition HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(raw)}\r\n\r\n".encode()
            + raw
        )
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    assert b"200" in head.split(b"\r\n", 1)[0]
    assert b"application/x-ndjson" in head
    return [json.loads(line) for line in payload.strip().split(b"\n")]


def _inline(graph) -> dict:
    """A CSRGraph as the service's inline-graph request object."""
    return {
        "xadj": graph.xadj.tolist(),
        "adjncy": graph.adjncy.tolist(),
        "adjwgt": graph.adjwgt.tolist(),
        "vwgt": graph.vwgt.tolist(),
    }


@pytest.fixture()
def server(tmp_path):
    """A traced BackgroundServer on an ephemeral port."""
    srv = BackgroundServer(trace=str(tmp_path / "service.jsonl"))
    srv.start()
    yield srv
    srv.stop()


def _trace_records(srv: BackgroundServer, tmp_path):
    """Stop the server (flushes counters) and read its trace back."""
    srv.stop()
    return read_trace(str(tmp_path / "service.jsonl"))


# --------------------------------------------------------------------------
# ResultCache (fake clock)
# --------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestResultCache:
    def test_roundtrip_and_miss(self):
        cache = ResultCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        seen = []
        cache = ResultCache(
            maxsize=4, ttl=10.0, clock=clock,
            on_event=lambda name, **f: seen.append((name, f["key"])),
        )
        cache.put("k", 1)
        clock.now = 9.0
        assert cache.get("k") == 1
        clock.now = 20.0
        assert cache.get("k") is None
        assert cache.stats()["expirations"] == 1
        assert ("expire", "k") in seen

    def test_purge_expired(self):
        clock = FakeClock()
        cache = ResultCache(maxsize=4, ttl=5.0, clock=clock)
        cache.put("a", 1)
        clock.now = 3.0
        cache.put("b", 2)
        clock.now = 6.0
        assert cache.purge_expired() == 1
        assert "a" not in cache
        assert "b" in cache

    def test_lru_eviction_order(self):
        seen = []
        cache = ResultCache(
            maxsize=2, on_event=lambda name, **f: seen.append((name, f["key"]))
        )
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a (least recently used)
        assert "a" not in cache
        assert seen == [("evict", "a")]
        assert cache.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a becomes most-recent
        cache.put("c", 3)  # so b is the victim
        assert "a" in cache
        assert "b" not in cache

    def test_zero_capacity_disables(self):
        cache = ResultCache(maxsize=0)
        cache.put("k", 1)
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_clear(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ResultCache(maxsize=-1)
        with pytest.raises(ConfigurationError):
            ResultCache(ttl=0)


# --------------------------------------------------------------------------
# Content addressing
# --------------------------------------------------------------------------
class TestKeys:
    def test_graph_digest_stable_and_content_sensitive(self):
        g1, g2 = path_graph(6), path_graph(6)
        assert graph_digest(g1) == graph_digest(g2)
        assert graph_digest(g1) != graph_digest(path_graph(7))
        weighted = path_graph(6, weights=[2, 1, 1, 1, 1])
        assert graph_digest(g1) != graph_digest(weighted)

    def test_request_key_covers_parameters(self):
        g = path_graph(6)
        base = {"options": cache_key_payload(DEFAULT_OPTIONS), "nparts": 2}
        k1 = request_key("partition", g, base)
        assert k1 == request_key("partition", g, dict(base))
        assert k1 != request_key("order", g, base)
        assert k1 != request_key("partition", g, {**base, "nparts": 3})

    def test_cache_key_payload_excludes_execution_knobs(self):
        """workers/timeouts don't change result bits; seed does."""
        base = cache_key_payload(DEFAULT_OPTIONS)
        pooled = cache_key_payload(
            DEFAULT_OPTIONS.with_(workers=4, worker_timeout=1.0)
        )
        assert base == pooled
        assert base != cache_key_payload(DEFAULT_OPTIONS.with_(seed=99))
        assert base != cache_key_payload(DEFAULT_OPTIONS.with_(deadline=5.0))
        assert "workers" not in base
        assert "trace" not in base

    def test_cache_key_payload_resolves_kernel_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert cache_key_payload(DEFAULT_OPTIONS)["kernels"] is None
        monkeypatch.setenv("REPRO_KERNELS", "numba")
        assert cache_key_payload(DEFAULT_OPTIONS)["kernels"] == "numba"
        explicit = cache_key_payload(DEFAULT_OPTIONS.with_(kernels="loop"))
        assert explicit["kernels"] == "loop"

    def test_payload_is_json_stable(self):
        p1 = cache_key_payload(DEFAULT_OPTIONS)
        p2 = cache_key_payload(DEFAULT_OPTIONS.with_())
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    def test_every_option_field_is_keyed_or_declared_non_determining(self):
        """A field added to or removed from MultilevelOptions must be
        placed here, so it cannot silently change what the cache keys on."""
        keyed = set(CACHE_KEY_FIELDS)
        resolved = {"kernels", "faults"}  # env-resolved into the payload
        non_determining = {
            "workers", "worker_timeout", "worker_retries", "trace", "sanitize",
        }
        assert not keyed & resolved
        assert not (keyed | resolved) & non_determining
        fields = {f.name for f in dataclasses.fields(MultilevelOptions)}
        assert fields == keyed | resolved | non_determining
        assert set(cache_key_payload(DEFAULT_OPTIONS)) == keyed | resolved

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 2),
            ("worker_timeout", 60.0),
            ("worker_retries", 5),
            ("trace", "trace.jsonl"),
            ("sanitize", True),
        ],
    )
    def test_non_determining_fields_keep_the_bits(self, field, value, tmp_path):
        """A field the cache does not key on must not change the result:
        partition, bisect, Chaco-ML and MSB return the same ``where`` as the
        defaults.  ``sanitize`` and ``trace`` reach into the FM pass
        (``san=``, ``span=``) and the baselines' shared run, so this also
        pins that no phase branches on them."""
        from repro.core.multilevel import bisect
        from repro.matrices import suite
        from repro.spectral import chaco_ml_partition, msb_partition

        if field == "trace":
            value = str(tmp_path / value)
        options = DEFAULT_OPTIONS.with_(**{field: value})
        assert field not in CACHE_KEY_FIELDS
        assert cache_key_payload(options) == cache_key_payload(DEFAULT_OPTIONS)
        graph = suite.load("4ELT", scale=0.1, seed=3)

        def wheres(opts):
            return (
                local_partition(graph, 4, opts).where,
                bisect(graph, opts).bisection.where,
                chaco_ml_partition(graph, 4, opts).where,
                msb_partition(graph, 4, opts).where,
            )

        for got, want in zip(wheres(options), wheres(DEFAULT_OPTIONS)):
            assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# Request schema
# --------------------------------------------------------------------------
class TestSchema:
    def test_parse_options_rejects_unknown_fields(self):
        with pytest.raises(ServiceRequestError, match="unknown option"):
            parse_options({"matchign": "hem"})

    def test_parse_options_rejects_trace(self):
        with pytest.raises(ServiceRequestError, match="unknown option"):
            parse_options({"trace": "/tmp/x.jsonl"})

    def test_parse_options_maps_invalid_values_to_400(self):
        exc = pytest.raises(
            ServiceRequestError, parse_options, {"deadline": -1}
        )
        assert exc.value.status == 400

    def test_graph_needs_exactly_one_source(self):
        with pytest.raises(ServiceRequestError, match="exactly one"):
            graph_from_request({})
        with pytest.raises(ServiceRequestError, match="exactly one"):
            graph_from_request(
                {"graph": {}, "workload": {"name": "4ELT"}}
            )

    def test_inline_graph_missing_arrays(self):
        with pytest.raises(ServiceRequestError, match="missing 'adjncy'"):
            graph_from_request({"graph": {"xadj": [0]}})

    def test_unknown_workload_is_404(self):
        exc = pytest.raises(
            ServiceRequestError,
            graph_from_request,
            {"workload": {"name": "NOPE"}},
        )
        assert exc.value.status == 404


def _edge(**fields) -> dict:
    """The one-edge inline graph, with ``fields`` replaced."""
    return {"xadj": [0, 1, 2], "adjncy": [1, 0], **fields}


#: Valid values per option field, kept small so that no example starts a
#: worker process, hangs or runs long: in-process runs, few trials and
#: passes, and no fault spec but ``lanczos``.  ``trace`` is service-owned.
_VALID_OPTION_VALUES = {
    "matching": [member.value for member in MatchingScheme],
    "initial": [member.value for member in InitialScheme],
    "refinement": [member.value for member in RefinePolicy],
    "coarsen_to": [2, 100],
    "coarsen_stall_ratio": [0.5, 1],
    "max_coarsen_levels": [1, 40],
    "ggp_trials": [1, 5],
    "gggp_trials": [1, 5],
    "kl_early_exit": [1, 50],
    "max_kl_passes": [1, 5],
    "ubfactor": [1.0, 1.1, 2],
    "bklgr_boundary_fraction": [0.0, 0.02, 1],
    "eager_gains": [True, False],
    "gain_table": ["heap", "bucket"],
    "kernels": [None, "loop", "numba"],
    "workers": [None, 1],
    "worker_timeout": [None, 1.0],
    "worker_retries": [0, 2],
    "seed": [0, 7, 2**40],
    "sanitize": [True, False],
    "faults": [None, "lanczos"],
    "trace": ["-"],
    "deadline": [None, 0.001, 5],
    "max_init_retries": [0, 3],
}

#: Wrong-typed JSON, non-finite numbers and near-miss names.
_WRONG_OPTION_VALUES = st.one_of(
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
    st.sampled_from([0.5, -3.25, float("inf"), float("-inf"), float("nan")]),
    st.sampled_from(["HEM", "hem ", "Heap", "bklg", "loop ", "lanczos:0",
                     "lanczos;seed=-1", "seed=1", "lanczos@2"]),
)


@st.composite
def _option_objects(draw):
    fields = [f.name for f in dataclasses.fields(MultilevelOptions)]
    keys = draw(st.lists(st.sampled_from(fields), unique=True, max_size=4))
    return {
        key: draw(st.sampled_from(_VALID_OPTION_VALUES[key]) | _WRONG_OPTION_VALUES)
        for key in keys
    }


class TestHostileValues:
    """Values of the wrong type or range are a 400 and leave the service
    healthy; none reaches a NumPy cast or a job."""

    @pytest.fixture(scope="class")
    def service(self):
        svc = PartitionService()
        yield svc
        svc.close()

    def _post(self, service, body):
        raw = json.dumps(body).encode()
        status, payload, _ = asyncio.run(
            service.handle_request("POST", "/partition", raw)
        )
        assert asyncio.run(
            service.handle_request("GET", "/healthz", b"")
        )[0] == 200
        return status, payload

    @pytest.mark.parametrize(
        "graph",
        [
            _edge(adjncy=[2**40, 0]),
            _edge(xadj=[0, 2**70, 2]),
            _edge(adjwgt=[2**70, 2**70]),
            _edge(vwgt=[2**70, 1]),
            _edge(adjncy=[1.9, 0]),
            _edge(adjncy=["1", 0]),
        ],
        ids=["adjncy-2^40", "xadj-2^70", "adjwgt-2^70", "vwgt-2^70",
             "float-id", "string-id"],
    )
    def test_csr_entry(self, service, graph):
        status, payload = self._post(service, {"graph": graph, "nparts": 2})
        assert status == 400, payload
        assert "malformed CSR arrays" in payload["error"]

    @pytest.mark.parametrize(
        "options",
        [{"seed": "5"}, {"seed": 5.5}, {"seed": -1}, {"ubfactor": "x"},
         {"matching": "xyz"}, {"initial": "xyz"}, {"refinement": "xyz"},
         {"eager_gains": "no"}, {"sanitize": "no"}, {"workers": True},
         {"ubfactor": float("inf")}, {"coarsen_to": 1e300}],
        ids=["seed-str", "seed-float", "seed-negative", "ubfactor-str",
             "matching-xyz", "initial-xyz", "refinement-xyz",
             "eager_gains-str", "sanitize-str", "workers-bool",
             "ubfactor-inf", "coarsen_to-float"],
    )
    def test_option_value(self, service, options):
        status, payload = self._post(
            service, {"graph": _edge(), "nparts": 2, "options": options}
        )
        assert status == 400, payload
        assert "invalid options" in payload["error"]

    @settings(max_examples=200, deadline=None)
    @given(options=_option_objects())
    def test_options_fuzz_is_200_or_400(self, service, options):
        status, payload = self._post(
            service,
            {"graph": _inline(grid2d(12, 12)), "nparts": 2, "options": options},
        )
        assert status in (200, 400), (options, payload)

    @pytest.mark.parametrize(
        "workload",
        [{"scale": 1e300}, {"scale": "nan"}, {"scale": 0}, {"seed": -1}],
        ids=["scale-1e300", "scale-nan", "scale-zero", "seed-negative"],
    )
    def test_workload_value(self, service, workload):
        status, payload = self._post(
            service, {"workload": {"name": "4ELT", **workload}, "nparts": 2}
        )
        assert status == 400, payload

    @pytest.mark.parametrize(
        "path,params,field",
        [
            ("/partition", {"nparts": 2.9}, "nparts"),
            ("/partition", {"nparts": True}, "nparts"),
            ("/partition", {"nparts": "3"}, "nparts"),
            ("/partition", {"nparts": None}, "nparts"),
            ("/partition", {"kway_refine": "no"}, "kway_refine"),
            ("/partition", {"kway_refine": 1}, "kway_refine"),
            ("/partition", {"stream": "yes"}, "stream"),
            ("/partition", {"stream": 1}, "stream"),
            ("/order", {"method": ["mmd"]}, "method"),
            ("/order", {"stream": "no"}, "stream"),
        ],
        ids=["nparts-float", "nparts-bool", "nparts-str", "nparts-null",
             "kway_refine-str", "kway_refine-int", "stream-str",
             "stream-int", "method-list", "order-stream-str"],
    )
    def test_request_parameter(self, service, path, params, field):
        """Each parameter has one type: nothing is cast into another
        (``2.9`` served as 2, ``"no"`` read as true)."""
        raw = json.dumps({"graph": _edge(), **params}).encode()
        status, payload, _ = asyncio.run(
            service.handle_request("POST", path, raw)
        )
        assert status == 400, payload
        assert payload["error"].startswith(
            f"invalid request parameter: {field} must be"
        ), payload

    @pytest.mark.parametrize(
        "workload,field",
        [
            ({"seed": True}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "1"}, "seed"),
            ({"scale": True}, "scale"),
            ({"scale": "0.05"}, "scale"),
            ({"name": 5}, "name"),
        ],
        ids=["seed-bool", "seed-float", "seed-str", "scale-bool",
             "scale-str", "name-int"],
    )
    def test_workload_parameter(self, service, workload, field):
        status, payload = self._post(
            service,
            {"workload": {"name": "4ELT", "scale": 0.02, **workload},
             "nparts": 2},
        )
        assert status == 400, payload
        assert f"{field} must be" in payload["error"], payload

    def test_workload_scale_past_the_float_range_is_400(self, service):
        """``default_order × 1e308`` is inf: refused, not ``int(inf)``."""
        status, payload = self._post(
            service, {"workload": {"name": "4ELT", "scale": 1e308}, "nparts": 2}
        )
        assert status == 400, payload
        assert "past int32 ids" in payload["error"]

    @pytest.mark.parametrize("path", ["/partition", "/order"])
    def test_huge_ubfactor_is_served(self, service, path):
        """A finite ``ubfactor`` whose caps overflow a float is no cap at
        all: served, not an ``OverflowError`` from ``int(inf)``."""
        raw = json.dumps({
            "graph": _inline(grid2d(12, 12)), "nparts": 2,
            "options": {"ubfactor": 1e308},
        }).encode()
        status, payload, _ = asyncio.run(
            service.handle_request("POST", path, raw)
        )
        assert status == 200, payload

    def test_library_options_reject_the_seed_up_front(self):
        for seed in ("5", 5.5, -1, True):
            with pytest.raises(ConfigurationError, match="seed"):
                DEFAULT_OPTIONS.with_(seed=seed)
        assert DEFAULT_OPTIONS.with_(seed=np.int64(5)).seed == 5


# --------------------------------------------------------------------------
# Job queue
# --------------------------------------------------------------------------
class TestJobQueue:
    def test_saturation_rejects_with_503(self):
        async def main():
            queue = JobQueue(workers=1, backlog=0)
            release = threading.Event()
            first = asyncio.ensure_future(queue.run(release.wait, 30))
            await asyncio.sleep(0.05)  # let the first job occupy the pool
            with pytest.raises(ServiceRequestError) as exc:
                await queue.run(lambda: None)
            assert exc.value.status == 503
            release.set()
            assert await first is True
            stats = queue.stats()
            assert stats["rejected"] == 1
            assert stats["completed"] == 1
            queue.shutdown()

        asyncio.run(main())

    def test_job_exceptions_propagate(self):
        async def main():
            queue = JobQueue(workers=1)

            def boom():
                raise RuntimeError("kaput")

            with pytest.raises(RuntimeError, match="kaput"):
                await queue.run(boom)
            assert queue.stats()["failed"] == 1
            queue.shutdown()

        asyncio.run(main())

    def test_bad_parameters(self):
        with pytest.raises(ServiceRequestError):
            JobQueue(workers=0)
        with pytest.raises(ServiceRequestError):
            JobQueue(backlog=-1)


# --------------------------------------------------------------------------
# HTTP end to end
# --------------------------------------------------------------------------
class TestEndpoints:
    def test_healthz_and_stats(self, server):
        status, body = _request(server.address, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = _request(server.address, "GET", "/stats")
        assert status == 200
        assert body["cache"]["maxsize"] == 128
        assert body["queue"]["workers"] == 2
        assert body["inflight"] == 0

    def test_partition_inline_graph(self, server):
        g = dumbbell_graph()
        status, body = _request(
            server.address, "POST", "/partition",
            {"graph": _inline(g), "nparts": 2, "options": {"seed": 7}},
        )
        assert status == 200
        assert body["kind"] == "partition"
        assert body["cached"] is False
        assert body["cut"] == 1  # the dumbbell bridge
        assert sorted(body["pwgts"]) and len(body["where"]) == g.nvtxs
        assert body["where_sha256"] == where_digest(
            np.asarray(body["where"], dtype=np.int32)
        )

    def test_partition_named_workload(self, server):
        status, body = _request(
            server.address, "POST", "/partition",
            {"workload": {"name": "4ELT", "scale": 0.02, "seed": 0},
             "nparts": 4},
        )
        assert status == 200
        assert body["nparts"] == 4
        assert len(set(body["where"])) == 4
        assert body["timers"]  # phase timers came back

    @pytest.mark.parametrize("kway_refine", [False, True])
    def test_partition_names_the_kernel_of_each_phase(
        self, server, kway_refine
    ):
        status, body = _request(
            server.address, "POST", "/partition",
            {"workload": {"name": "4ELT", "scale": 0.05, "seed": 0},
             "nparts": 4, "kway_refine": kway_refine,
             "options": {"kernels": "loop"}},
        )
        assert status == 200
        assert body["kernels"] == {
            "requested": "loop", "matching": "loop", "fm": "loop",
            "contract": "loop",
        }

    def test_order_endpoint(self, server):
        g = dumbbell_graph()
        status, body = _request(
            server.address, "POST", "/order",
            {"graph": _inline(g), "method": "mmd"},
        )
        assert status == 200
        assert body["kind"] == "order" and body["method"] == "mmd"
        perm = body["perm"]
        assert sorted(perm) == list(range(g.nvtxs))
        iperm = body["iperm"]
        assert all(iperm[perm[i]] == i for i in range(g.nvtxs))
        status, again = _request(
            server.address, "POST", "/order",
            {"graph": _inline(g), "method": "mmd"},
        )
        assert again["cached"] is True
        assert again["perm"] == perm

    def test_error_mapping(self, server):
        addr = server.address
        g = _inline(path_graph(4))
        cases = [
            ("GET", "/nope", None, 404),
            ("POST", "/healthz", None, 405),
            ("GET", "/partition", None, 405),
            ("POST", "/partition", {"nparts": 2}, 400),  # no graph
            ("POST", "/partition", {"graph": g, "nparts": 9}, 400),
            ("POST", "/partition", {"graph": g, "nparts": 0}, 400),
            ("POST", "/partition",
             {"graph": g, "nparts": 2, "options": {"bogus": 1}}, 400),
            ("POST", "/partition",
             {"graph": g, "nparts": 2, "options": {"kernels": "vectorized"}},
             400),
            ("POST", "/partition",
             {"graph": {"xadj": [0, 5], "adjncy": [1]}, "nparts": 1}, 400),
            ("POST", "/partition",
             {"workload": {"name": "NOPE"}, "nparts": 2}, 404),
            ("POST", "/order", {"graph": g, "method": "amd"}, 400),
        ]
        for method, path, body, expected in cases:
            status, payload = _request(addr, method, path, body)
            assert status == expected, (method, path, payload)
            assert "error" in payload

    def test_invalid_json_body_is_400(self, server):
        host, port = server.address
        raw = b"{not json"
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /partition HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(raw)}\r\n\r\n".encode() + raw
            )
            data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b"invalid JSON" in data

    def _raw_exchange(self, addr, data: bytes) -> bytes:
        """Send raw bytes and read the reply until the server closes.

        A server that closes with request bytes still unread may reset
        the connection after its reply; what arrived before counts."""
        with socket.create_connection(addr, timeout=30) as sock:
            sock.sendall(data)
            reply = b""
            try:
                while chunk := sock.recv(65536):
                    reply += chunk
            except ConnectionResetError:
                pass
        return reply

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff\xfe{",  # not UTF-8: UnicodeDecodeError
            b"[" * 100_000 + b"]" * 100_000,  # RecursionError
            b"1" * 5_001,  # past the int-digit limit: ValueError
        ],
        ids=["non-utf8", "deep-nesting", "huge-int"],
    )
    def test_undecodable_json_body_is_400(self, server, raw):
        reply = self._raw_exchange(
            server.address,
            b"POST /partition HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            + f"Content-Length: {len(raw)}\r\n\r\n".encode() + raw,
        )
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:200]
        assert b"invalid JSON body" in reply
        assert _request(server.address, "GET", "/healthz")[0] == 200

    @pytest.mark.parametrize(
        "options", [{"matching": "xyz"}, {"eager_gains": "no"}],
        ids=["unknown-name", "wrong-type"],
    )
    def test_bad_option_value_is_400(self, server, options):
        raw = json.dumps({
            "workload": {"name": "4ELT", "scale": 0.05}, "nparts": 2,
            "options": options,
        }).encode()
        reply = self._raw_exchange(
            server.address,
            b"POST /partition HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            + f"Content-Length: {len(raw)}\r\n\r\n".encode() + raw,
        )
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:200]
        assert b"invalid options: " + next(iter(options)).encode() in reply
        assert _request(server.address, "GET", "/healthz")[0] == 200

    def test_negative_content_length_is_400(self, server):
        reply = self._raw_exchange(
            server.address,
            b"POST /partition HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: -5\r\n\r\n",
        )
        assert b"400" in reply.split(b"\r\n", 1)[0]
        assert b"Content-Length" in reply
        assert _request(server.address, "GET", "/healthz")[0] == 200

    def test_overlong_header_line_is_400(self, server):
        # Just past the 64 KiB StreamReader line limit, so the server has
        # read every byte by the time it answers.
        reply = self._raw_exchange(
            server.address,
            b"GET /healthz HTTP/1.1\r\nX-Long: "
            + b"a" * (2**16 + 200) + b"\r\n\r\n",
        )
        assert b"400" in reply.split(b"\r\n", 1)[0]
        assert b"too long" in reply
        assert _request(server.address, "GET", "/healthz")[0] == 200

    def test_chunked_body_gets_one_501(self, server):
        """Only Content-Length framing is supported: a chunked body must
        not be read as the next request and answered a second time."""
        body = b'{"nparts": 2}'
        reply = self._raw_exchange(
            server.address,
            b"POST /partition HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n",
        )
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert b"Transfer-Encoding" in reply
        assert _request(server.address, "GET", "/healthz")[0] == 200

    def test_content_length_must_be_ascii_digits(self, server):
        # int() would take the first two; "\xb2" (superscript two) is a
        # str.isdigit() digit that is not ASCII.
        for value in (b"+2", b"0_2", b"\xb2"):
            reply = self._raw_exchange(
                server.address,
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + value + b"\r\n\r\n{}",
            )
            assert reply.startswith(b"HTTP/1.1 400 "), value
            assert b"malformed Content-Length" in reply
        assert _request(server.address, "GET", "/healthz")[0] == 200

    def test_conflicting_content_lengths_are_400(self, server):
        reply = self._raw_exchange(
            server.address,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 0\r\nContent-Length: 2\r\n\r\n{}",
        )
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"conflicting Content-Length" in reply
        # Repeats that agree frame the body the same way and are served.
        reply = self._raw_exchange(
            server.address,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            b"Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
        )
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert _request(server.address, "GET", "/healthz")[0] == 200

    def test_cache_clear_endpoint(self, server):
        body = {"graph": _inline(path_graph(6)), "nparts": 2}
        _request(server.address, "POST", "/partition", body)
        status, cleared = _request(server.address, "DELETE", "/cache")
        assert status == 200 and cleared["cleared"] == 1
        _, again = _request(server.address, "POST", "/partition", body)
        assert again["cached"] is False


class TestCaching:
    def test_cache_hit_is_bit_identical_and_traced(self, tmp_path):
        """The acceptance scenario: repeat request -> cache hit, same bits,
        no partitioner phase spans for the hit, counters in the trace."""
        g = dumbbell_graph()
        body = {
            "graph": _inline(g), "nparts": 2, "options": {"seed": 7},
        }
        srv = BackgroundServer(trace=str(tmp_path / "service.jsonl"))
        srv.start()
        try:
            _, fresh = _request(srv.address, "POST", "/partition", body)
            _, hit1 = _request(srv.address, "POST", "/partition", body)
            _, hit2 = _request(srv.address, "POST", "/partition", body)
        finally:
            records = _trace_records(srv, tmp_path)

        assert fresh["cached"] is False
        assert hit1["cached"] is True and hit2["cached"] is True
        for hit in (hit1, hit2):
            assert hit["where"] == fresh["where"]
            assert hit["where_sha256"] == fresh["where_sha256"]
            assert hit["cut"] == fresh["cut"]
            assert hit["key"] == fresh["key"]

        # Bit-identity against a fresh in-process run, not just replay.
        local = local_partition(g, 2, DEFAULT_OPTIONS.with_(seed=7))
        assert fresh["where"] == [int(p) for p in local.where]
        assert fresh["where_sha256"] == where_digest(local.where)
        assert fresh["cut"] == int(local.cut)

        # Trace: one job ran; the two hits re-ran nothing.
        events = [r for r in records if r.get("t") == "event"]
        assert sum(e["name"] == "service.job.run" for e in events) == 1
        assert sum(e["name"] == "service.cache.miss" for e in events) == 1
        assert sum(e["name"] == "service.cache.hit" for e in events) == 2
        phase_spans = [
            r for r in records
            if r.get("t") == "span" and r.get("name") == "job.phase"
        ]
        assert 1 <= len(phase_spans) <= 4  # one run's worth, not three
        counters = [r for r in records if r.get("t") == "counters"]
        assert counters, "tracer close flushes the counters record"
        values = counters[-1]["values"]
        assert values["service.cache.hits"] == 2
        assert values["service.cache.misses"] == 1
        assert values["service.job.runs"] == 1

    def test_different_options_miss(self, server):
        g = _inline(path_graph(8))
        _, a = _request(
            server.address, "POST", "/partition",
            {"graph": g, "nparts": 2, "options": {"seed": 1}},
        )
        _, b = _request(
            server.address, "POST", "/partition",
            {"graph": g, "nparts": 2, "options": {"seed": 2}},
        )
        assert a["key"] != b["key"]
        assert b["cached"] is False

    def test_concurrent_fan_in_single_flight(self, tmp_path):
        """N identical concurrent requests compute the result once."""
        body = {
            "workload": {"name": "4ELT", "scale": 0.05, "seed": 1},
            "nparts": 4, "options": {"seed": 13},
        }
        srv = BackgroundServer(trace=str(tmp_path / "service.jsonl"))
        srv.start()
        results, errors = [], []

        def worker():
            try:
                results.append(_request(srv.address, "POST", "/partition", body))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            records = _trace_records(srv, tmp_path)

        assert not errors
        assert len(results) == 8
        digests = {payload["where_sha256"] for _, payload in results}
        assert len(digests) == 1, "all callers saw identical bits"
        assert all(status == 200 for status, _ in results)
        events = [r for r in records if r.get("t") == "event"]
        assert sum(e["name"] == "service.job.run" for e in events) == 1

    def test_deadline_bypasses_cache_and_degrades(self, server):
        """An expired deadline -> 200 + resilience trail, never cached."""
        body = {
            "workload": {"name": "4ELT", "scale": 0.1, "seed": 2},
            "nparts": 8,
            "options": {"seed": 3, "deadline": 1e-6},
        }
        status, first = _request(server.address, "POST", "/partition", body)
        assert status == 200
        assert first["cached"] is False
        assert len(set(first["where"])) == 8  # degraded but complete
        assert first["resilience"], "deadline degradation must be audited"
        assert any(
            e["kind"] == "degradation" and "deadline" in e["detail"]
            for e in first["resilience"]
        )
        status, second = _request(server.address, "POST", "/partition", body)
        assert status == 200
        assert second["cached"] is False, "wall-clock results are not cached"

    def test_pooled_request_matches_sequential_bits(self, server):
        """workers: 2 fans branches across processes; bits must not move.

        Under the chaos CI leg (REPRO_FAULTS=worker_crash) this exercises
        supervisor crash-recovery behind the service without changing the
        assertion.
        """
        status, pooled = _request(
            server.address, "POST", "/partition",
            {"workload": {"name": "4ELT", "scale": 0.05, "seed": 4},
             "nparts": 4, "options": {"seed": 17, "workers": 2}},
        )
        assert status == 200
        from repro.matrices import suite

        g = suite.load("4ELT", scale=0.05, seed=4)
        local = local_partition(
            g, 4, DEFAULT_OPTIONS.with_(seed=17, workers=1)
        )
        assert pooled["where"] == [int(p) for p in local.where]
        assert pooled["cut"] == int(local.cut)


def _handle(service, method, path, body=None):
    """One request through ``handle_request``; a stream is drained into a
    list of ndjson records.  Returns ``(status, payload, records)``."""
    raw = b"" if body is None else json.dumps(body).encode()

    async def run():
        status, payload, stream = await service.handle_request(method, path, raw)
        records = None
        if stream is not None:
            records = [record async for record in stream]
        return status, payload, records

    return asyncio.run(run())


class TestBodyMemo:
    """The memo answers a repeated body without decoding it, and only
    while that answer is exactly what decoding would give."""

    @pytest.fixture()
    def decodes(self, monkeypatch):
        """How many bodies reached ``graph_from_request``."""
        import repro.service.app as app

        calls = []
        original = app.graph_from_request

        def counted(body):
            calls.append(1)
            return original(body)

        monkeypatch.setattr(app, "graph_from_request", counted)
        return calls

    @pytest.fixture()
    def service(self):
        svc = PartitionService()
        yield svc
        svc.close()

    BODY = {"graph": _inline(path_graph(8)), "nparts": 2, "options": {"seed": 3}}

    def test_memo_hit_is_byte_identical_to_a_decoded_hit(self, service, decodes):
        status, fresh, _ = _handle(service, "POST", "/partition", self.BODY)
        assert status == 200 and fresh["cached"] is False
        service.memo.clear()  # the next hit must decode
        _, decoded, _ = _handle(service, "POST", "/partition", self.BODY)
        assert len(decodes) == 2
        _, memoised, _ = _handle(service, "POST", "/partition", self.BODY)
        assert len(decodes) == 2, "a memo hit decodes nothing"
        assert decoded["cached"] is True
        assert json.dumps(memoised).encode() == json.dumps(decoded).encode()
        assert service.memo.stats()["hits"] == 1
        assert service.cache.stats()["hits"] == 2

    def test_memo_hit_is_traced_as_a_hit_that_did_not_decode(self, tmp_path):
        svc = PartitionService(trace=str(tmp_path / "service.jsonl"))
        try:
            for _ in range(2):
                _handle(svc, "POST", "/partition", self.BODY)
        finally:
            svc.close()
        events = [
            r for r in read_trace(str(tmp_path / "service.jsonl"))
            if r.get("t") == "event" and r["name"] == "service.cache.hit"
        ]
        assert len(events) == 1
        assert events[0]["fields"]["decoded"] is False

    @pytest.mark.parametrize(
        "variable,value",
        [("REPRO_KERNELS", "numba"), ("REPRO_FAULTS", "lanczos")],
    )
    def test_ambient_key_input_change_is_a_miss(
        self, service, monkeypatch, variable, value
    ):
        monkeypatch.delenv(variable, raising=False)
        _, first, _ = _handle(service, "POST", "/partition", self.BODY)
        monkeypatch.setenv(variable, value)
        _, changed, _ = _handle(service, "POST", "/partition", self.BODY)
        assert changed["cached"] is False
        assert changed["key"] != first["key"]
        monkeypatch.delenv(variable)
        _, back, _ = _handle(service, "POST", "/partition", self.BODY)
        assert back["cached"] is True and back["key"] == first["key"]

    def test_invalid_body_is_never_memoised(self, service, decodes):
        body = {"graph": _edge(adjncy=[1, 1]), "nparts": 2}  # asymmetric
        for expected_decodes in (1, 2):
            status, payload, _ = _handle(service, "POST", "/partition", body)
            assert status == 400, payload
            assert len(decodes) == expected_decodes
        assert len(service.memo) == 0

    def test_deadline_body_is_never_memoised(self, service):
        body = {**self.BODY, "options": {"seed": 3, "deadline": 60.0}}
        for _ in range(2):
            status, payload, _ = _handle(service, "POST", "/partition", body)
            assert status == 200 and payload["cached"] is False
        assert len(service.memo) == 0
        assert len(service.cache) == 0

    def test_streamed_body_keeps_its_ndjson_path(self, service):
        body = {**self.BODY, "stream": True}
        for cached in (False, True):
            status, payload, records = _handle(
                service, "POST", "/partition", body
            )
            assert status == 200 and payload is None
            assert records[0] == {
                "t": "accepted", "key": records[0]["key"], "cached": cached,
            }
            assert records[-1]["t"] == "result"
        assert len(service.memo) == 0

    def test_delete_cache_empties_memo_and_cache(self, service, decodes):
        _handle(service, "POST", "/partition", self.BODY)
        status, cleared, _ = _handle(service, "DELETE", "/cache")
        assert status == 200
        assert cleared == {"cleared": 1, "memo_cleared": 1}
        assert len(service.memo) == 0 and len(service.cache) == 0
        _, again, _ = _handle(service, "POST", "/partition", self.BODY)
        assert again["cached"] is False
        assert len(decodes) == 2

    def test_cache_size_bounds_the_memo(self):
        svc = PartitionService(cache_size=2)
        try:
            for seed in range(3):
                body = {**self.BODY, "options": {"seed": seed}}
                _handle(svc, "POST", "/partition", body)
            memo = svc.memo.stats()
            assert memo["maxsize"] == 2 and memo["size"] == 2
            assert memo["evictions"] == 1
        finally:
            svc.close()
        svc = PartitionService(cache_size=0)
        try:
            for _ in range(2):
                _, payload, _ = _handle(svc, "POST", "/partition", self.BODY)
                assert payload["cached"] is False
            assert len(svc.memo) == 0
        finally:
            svc.close()

    def test_stats_count_one_hit_or_miss_per_request(self):
        """Also when the memo still holds a body whose result was evicted:
        the request falls through, decodes and counts one miss."""
        svc = PartitionService(cache_size=1)
        try:
            _handle(svc, "POST", "/partition", self.BODY)  # miss
            # A streamed request fills the cache but never the memo, so it
            # evicts the first result while the memo keeps its body.
            other = {**self.BODY, "options": {"seed": 4}, "stream": True}
            _handle(svc, "POST", "/partition", other)  # miss
            _, evicted, _ = _handle(svc, "POST", "/partition", self.BODY)
            assert evicted["cached"] is False  # miss, recomputed
            _, hit, _ = _handle(svc, "POST", "/partition", self.BODY)
            assert hit["cached"] is True
            _, stats, _ = _handle(svc, "GET", "/stats")
            assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (1, 3)
            assert stats["memo"]["hits"] == 2  # one fell through, one answered
        finally:
            svc.close()

    def test_workload_requests_leave_the_suite_cache_alone(self, service):
        from repro.matrices import suite

        before = dict(suite._CACHE)
        for seed in range(5):
            status, payload, _ = _handle(
                service, "POST", "/partition",
                {"workload": {"name": "4ELT", "scale": 0.05, "seed": seed},
                 "nparts": 2},
            )
            assert status == 200, payload
        assert suite._CACHE == before


class TestStreaming:
    def test_stream_yields_progress_then_result(self, server):
        body = {
            "workload": {"name": "4ELT", "scale": 0.05, "seed": 6},
            "nparts": 4, "options": {"seed": 19},
        }
        lines = _stream_request(server.address, body)
        assert lines[0]["t"] == "accepted" and lines[0]["cached"] is False
        assert lines[-1]["t"] == "result"
        progress = [l for l in lines if l["t"] == "progress"]
        assert progress, "a fresh job streams its trace records"
        kinds = {p["record"].get("t") for p in progress}
        assert "span" in kinds
        result = lines[-1]["result"]
        assert result["cached"] is False
        assert len(set(result["where"])) == 4

        # The streamed job populated the cache: a JSON request hits.
        status, hit = _request(
            server.address, "POST", "/partition",
            {k: v for k, v in body.items()},
        )
        assert status == 200 and hit["cached"] is True
        assert hit["where_sha256"] == result["where_sha256"]

    def test_stream_cache_hit_short_circuits(self, server):
        body = {"graph": _inline(dumbbell_graph()), "nparts": 2}
        _request(server.address, "POST", "/partition", body)
        lines = _stream_request(server.address, body)
        assert lines[0] == {
            "t": "accepted", "key": lines[0]["key"], "cached": True,
        }
        assert [l["t"] for l in lines] == ["accepted", "result"]
        assert lines[-1]["result"]["cached"] is True

    def test_stream_prepare_error_is_plain_400(self, server):
        """Malformed streaming requests fail before the 200 header."""
        raw = json.dumps(
            {"workload": {"name": "4ELT", "scale": 0.02}, "nparts": 10_000,
             "stream": True}
        ).encode()
        host, port = server.address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /partition HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(raw)}\r\n\r\n".encode() + raw
            )
            data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]



# --------------------------------------------------------------------------
# `repro serve` as a process
# --------------------------------------------------------------------------
def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServeProcess:
    """``repro serve`` stops cleanly on SIGINT and SIGTERM: exit status 0
    and a complete trace, even when started with SIGINT ignored (as a job
    started with ``&`` by a non-interactive shell is)."""

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["INT", "TERM"]
    )
    def test_signal_stops_with_a_complete_trace(self, tmp_path, signum):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        trace = tmp_path / "serve.jsonl"
        port = _free_port()
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", str(port),
                 "--trace", str(trace)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            addr = ("127.0.0.1", port)
            deadline = time.monotonic() + 60.0
            while True:
                assert proc.poll() is None, proc.stderr.read().decode()
                try:
                    _request(addr, "GET", "/healthz")
                    break
                except OSError:
                    assert time.monotonic() < deadline, "server never listened"
                    time.sleep(0.1)
            status, body = _request(
                addr, "POST", "/partition",
                {"workload": {"name": "4ELT", "scale": 0.05}, "nparts": 4},
            )
            assert status == 200 and body["cached"] is False
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert trace.stat().st_size > 0
        out = subprocess.run(
            [sys.executable, "-m", "repro", "trace", str(trace), "--json"],
            env=env, capture_output=True, timeout=60, check=True,
        )
        phases = json.loads(out.stdout)["phases"]
        assert phases and all(total > 0 for total in phases.values()), phases
