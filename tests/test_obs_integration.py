"""Integration tests: tracing threaded through the real pipeline.

Runs the public drivers with a live tracer and checks the trace is
schema-valid, forms one well-nested span tree per driver entry, and that
the per-phase span totals reconcile with the ``PhaseTimer`` numbers the
result reports (the acceptance bar for the observability layer).
"""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import bisect, partition
from repro.core.options import DEFAULT_OPTIONS
from repro.graph import from_edge_list, write_graph
from repro.matrices import grid2d, suite
from repro.obs import PHASE_KEYS, profile, read_trace
from repro.ordering import mlnd_ordering, snd_ordering
from repro.spectral import chaco_ml_partition, msb_partition


@pytest.fixture
def trace_path(tmp_path):
    return str(tmp_path / "trace.jsonl")


def phase_fields(records):
    """phase tag → summed span duration, from raw records."""
    return profile(records)["phases"]


class TestBisectTrace:
    def test_schema_valid_and_reconciles_with_timers(self, trace_path):
        g = grid2d(20, 19)
        options = DEFAULT_OPTIONS.with_(trace=trace_path)
        result = bisect(g, options, np.random.default_rng(1))
        records = read_trace(trace_path)  # validates every line

        kinds = {r["t"] for r in records}
        assert {"meta", "span", "event"} <= kinds
        meta = records[0]
        assert meta["t"] == "meta" and meta["run"] == "bisect"
        assert meta["fields"]["nvtxs"] == g.nvtxs

        # Span totals must reconcile with the result's phase timers: every
        # phase span is opened inside the matching ``timers.phase`` block,
        # so the span sum is bounded by the timer and accounts for almost
        # all of it (the gap is the with-statement bookkeeping itself).
        phases = phase_fields(records)
        for key in PHASE_KEYS:
            timer = result.timers.total(key)
            assert phases[key] <= timer + 1e-6, key
            assert timer - phases[key] < 0.05, (key, timer, phases[key])

    def test_span_tree_is_well_nested(self, trace_path):
        g = grid2d(12, 12)
        bisect(
            g, DEFAULT_OPTIONS.with_(trace=trace_path), np.random.default_rng(0)
        )
        spans = {r["id"]: r for r in read_trace(trace_path) if r["t"] == "span"}
        names = {s["name"] for s in spans.values()}
        assert {"coarsen", "initial", "refine", "project"} <= names
        for span in spans.values():
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["t0"] <= span["t0"] + 1e-9
            if span["name"] in ("coarsen", "initial", "refine", "project"):
                assert span["fields"]["phase"] in PHASE_KEYS

    def test_events_and_counters_reconcile_with_stats(self, trace_path):
        g = grid2d(16, 16)
        result = bisect(
            g, DEFAULT_OPTIONS.with_(trace=trace_path), np.random.default_rng(2)
        )
        records = read_trace(trace_path)
        events = [r for r in records if r["t"] == "event"]
        # Every core/ event is emitted through the span of its phase, so
        # it hangs under a recorded span (a plain bisect has no root span).
        spans = {r["id"] for r in records if r["t"] == "span"}
        assert [e["name"] for e in events if e["span"] not in spans] == []
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)
        # One coarsen.level event per contraction.
        assert len(by_name["coarsen.level"]) == result.nlevels - 1
        # FM pass events: the accounting satellite — moves executed and
        # rejected are reported separately and sum to the stats totals.
        passes = by_name["refine.pass"]
        assert sum(e["fields"]["moves"] for e in passes) == result.stats.moves_tried
        assert (
            sum(e["fields"]["rejected"] for e in passes)
            == result.stats.moves_rejected
        )
        assert sum(e["fields"]["kept"] for e in passes) == result.stats.moves_kept
        (counters,) = [r for r in records if r["t"] == "counters"]
        assert counters["values"]["fm.moves"] == result.stats.moves_tried
        assert counters["values"]["bisect.calls"] == 1

    def test_initial_attempt_events(self, trace_path):
        g = grid2d(10, 10)
        bisect(
            g, DEFAULT_OPTIONS.with_(trace=trace_path), np.random.default_rng(0)
        )
        records = read_trace(trace_path)
        attempts = [r for r in records if r["t"] == "event"
                    and r["name"] == "initial.attempt"]
        assert attempts
        assert attempts[-1]["fields"]["outcome"] == "accepted"


class TestDriverTraces:
    def test_kway_partition_single_tree(self, trace_path):
        g = grid2d(14, 14)
        result = partition(
            g, 4, DEFAULT_OPTIONS.with_(trace=trace_path),
            np.random.default_rng(0),
        )
        records = read_trace(trace_path)
        metas = [r for r in records if r["t"] == "meta"]
        # One tracer spans the whole recursive run — not one per bisect.
        assert len(metas) == 1 and metas[0]["run"] == "partition"
        roots = [
            r for r in records
            if r["t"] == "span" and r["parent"] is None
        ]
        assert [r["name"] for r in roots] == ["partition"]
        assert roots[0]["fields"]["cut"] == result.cut
        names = {r["name"] for r in records if r["t"] == "span"}
        assert {"kway.branch", "coarsen", "refine"} <= names
        (counters,) = [r for r in records if r["t"] == "counters"]
        assert counters["values"]["bisect.calls"] == 3  # 4 parts → 3 bisects

    def test_ordering_trace(self, trace_path):
        g = grid2d(12, 12)
        mlnd_ordering(
            g, DEFAULT_OPTIONS.with_(trace=trace_path),
            np.random.default_rng(0),
        )
        records = read_trace(trace_path)
        assert records[0]["run"] == "mlnd"
        names = {r["name"] for r in records if r["t"] == "span"}
        assert "dissect" in names
        events = {r["name"] for r in records if r["t"] == "event"}
        assert "nd.separator" in events


class TestCLITrace:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "grid.graph"
        write_graph(grid2d(10, 10), path)
        return str(path)

    def test_partition_trace_flag(self, graph_file, trace_path, capsys):
        assert cli_main(
            ["partition", graph_file, "4", "--trace", trace_path]
        ) == 0
        records = read_trace(trace_path)
        assert records[0]["run"] == "partition"

    def test_trace_subcommand_text(self, graph_file, trace_path, capsys):
        assert cli_main(
            ["partition", graph_file, "2", "--trace", trace_path]
        ) == 0
        capsys.readouterr()
        assert cli_main(["trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "runs:" in out and "CTime" in out and "spans" in out

    def test_trace_subcommand_json(self, graph_file, trace_path, capsys):
        assert cli_main(
            ["partition", graph_file, "2", "--trace", trace_path]
        ) == 0
        capsys.readouterr()
        assert cli_main(["trace", trace_path, "--json"]) == 0
        prof = json.loads(capsys.readouterr().out)
        assert set(prof) == {
            "runs", "phases", "spans", "rollup", "events", "counters",
        }
        assert "kway.branch" in prof["rollup"]["driver"]["spans"]

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert cli_main(["trace", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        assert cli_main(["trace", str(tmp_path / "absent.jsonl")]) == 2

    def test_order_trace_flag(self, graph_file, trace_path, capsys):
        assert cli_main(
            ["order", graph_file, "--trace", trace_path]
        ) == 0
        assert read_trace(trace_path)[0]["run"] == "mlnd"

    def test_trace_to_stdout(self, graph_file, capsys):
        assert cli_main(["partition", graph_file, "2", "--trace", "-"]) == 0
        out = capsys.readouterr().out
        jsonl = [ln for ln in out.splitlines() if ln.startswith("{")]
        assert any('"t":"meta"' in ln for ln in jsonl)


class TestProfileRollup:
    """Kernel and recursion spans land in per-phase rollup buckets, not
    "other" (see SPAN_PHASES in repro.obs.export)."""

    def test_match_and_branch_spans_bucketed(self, trace_path):
        g = grid2d(40, 40)  # large enough that coarsening actually matches
        options = DEFAULT_OPTIONS.with_(trace=trace_path)
        partition(g, 4, options, np.random.default_rng(2))
        prof = profile(read_trace(trace_path))

        ctime_spans = prof["rollup"]["CTime"]["spans"]
        for name in ("coarsen.match", "coarsen.contract"):
            assert name in ctime_spans
            assert ctime_spans[name] > 0.0
            assert name not in prof["rollup"]["other"]["spans"]
        assert (
            prof["spans"]["coarsen.contract"]["count"]
            == prof["spans"]["coarsen.match"]["count"]
        )

        driver_spans = prof["rollup"]["driver"]["spans"]
        assert "kway.branch" in driver_spans
        assert "partition" in driver_spans
        assert "kway.branch" not in prof["rollup"]["other"]["spans"]

    def test_contract_span_fields(self, trace_path):
        g = grid2d(40, 40)
        options = DEFAULT_OPTIONS.with_(trace=trace_path)
        bisect(g, options, np.random.default_rng(2))
        spans = [r for r in read_trace(trace_path) if r["t"] == "span"]
        contracts = [s for s in spans if s["name"] == "coarsen.contract"]
        assert contracts
        nvtxs = g.nvtxs
        for level, span in enumerate(contracts):
            fields = span["fields"]
            assert fields["level"] == level
            assert fields["nvtxs"] == nvtxs
            assert 0 < fields["ncoarse"] < nvtxs
            assert fields["impl"] == "loop"
            nvtxs = fields["ncoarse"]

    def test_phases_totals_unchanged_by_rollup(self, trace_path):
        # The rollup is additional reporting: the ``phases`` reconciliation
        # numbers must not absorb the (nested, untagged) kernel spans.
        g = grid2d(40, 40)
        options = DEFAULT_OPTIONS.with_(trace=trace_path)
        result = partition(g, 2, options, np.random.default_rng(4))
        prof = profile(read_trace(trace_path))
        for key in PHASE_KEYS:
            assert prof["phases"][key] <= result.timers.get(key, 0.0) + 1e-6


def _stars(k, m):
    """``k`` stars of ``m`` leaves with their centres on a path: no
    matching shrinks it, so every bisection records a coarsening stall —
    pool branches' included."""
    edges = []
    for star in range(k):
        centre = star * (m + 1)
        edges += [(centre, centre + leaf) for leaf in range(1, m + 1)]
        if star:
            edges.append((centre - m - 1, centre))
    return from_edge_list(k * (m + 1), edges)


#: case -> (driver, option fields).  Each records resilience events.
PARITY_CASES = {
    "kway-deadline": (
        lambda o: partition(suite.load("4ELT", seed=0), 64, o),
        {"deadline": 0.05},
    ),
    "kway-faults": (
        lambda o: partition(suite.load("4ELT", scale=0.25, seed=0), 8, o),
        {"faults": "matching;refine;initial:2"},
    ),
    "msb": (lambda o: msb_partition(grid2d(32, 32), 8, o), {}),
    "msb-kl": (
        lambda o: msb_partition(grid2d(32, 32), 8, o, kl_refine=True),
        {"faults": "refine"},
    ),
    "chaco-ml-lanczos": (
        lambda o: chaco_ml_partition(grid2d(32, 32), 8, o),
        {"faults": "lanczos"},
    ),
    "snd-lanczos": (lambda o: snd_ordering(grid2d(32, 32), o),
                    {"faults": "lanczos"}),
    "mlnd-deadline": (
        lambda o: mlnd_ordering(grid2d(32, 32), o),
        {"faults": "deadline", "deadline": 3600.0},
    ),
    "kway-workers": (
        lambda o: partition(_stars(8, 60), 4, o),
        {"workers": 2, "faults": "worker_crash;seed=1"},
    ),
    "mlnd-workers": (
        lambda o: mlnd_ordering(_stars(8, 60), o),
        {"workers": 2, "faults": "worker_crash;seed=1"},
    ),
}


class TestReportTraceParity:
    """One call records a degradation in both the report and the trace."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for var in ("REPRO_FAULTS", "REPRO_TRACE", "REPRO_WORKERS"):
            monkeypatch.delenv(var, raising=False)

    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_every_report_event_is_one_trace_event(self, case, trace_path):
        driver, fields = PARITY_CASES[case]
        result = driver(DEFAULT_OPTIONS.with_(trace=trace_path, **fields))
        report = (result.meta["resilience"] if hasattr(result, "meta")
                  else result.resilience)
        assert report
        names = {event.trace_name for event in report}
        traced = [
            (r["name"], r["fields"]) for r in read_trace(trace_path)
            if r["t"] == "event" and r["name"] in names
        ]
        assert traced == [(event.trace_name, event.fields) for event in report]
        if fields.get("workers"):
            # The root bisection stalls in this process, the two halves in
            # pool workers whose reports are merged back.
            assert report.count("stall", "coarsen") >= 3
            assert report.count("retry", "worker") >= 1

