"""Unit tests for the observability layer (``repro.obs``).

Covers the tracer/span/counter machinery, the null objects and their
zero-overhead contract (enforced structurally via AST inspection of the FM
hot loop, plus a loose timing bound), the v1 JSONL schema validator, the
profile aggregation behind ``repro trace``, and the bench JSON export.
"""

import ast
import inspect
import io
import json
import time

import numpy as np
import pytest

from repro.obs import (
    NULL,
    NULL_SPAN,
    SCHEMA_VERSION,
    Tracer,
    bench_payload,
    format_profile,
    open_tracer,
    profile,
    read_trace,
    trace_target,
    tracer_from,
    validate_record,
    validate_trace_lines,
    write_bench_json,
)
from repro.utils.errors import TraceError


def records_from(buf: io.StringIO) -> list[dict]:
    return validate_trace_lines(buf.getvalue().splitlines())


# --------------------------------------------------------------------------
# Tracer
# --------------------------------------------------------------------------
class TestTracer:
    def test_meta_record_first(self):
        buf = io.StringIO()
        trc = Tracer(buf, run="unit", meta={"nvtxs": 10})
        trc.close()
        recs = records_from(buf)
        assert recs[0]["t"] == "meta"
        assert recs[0]["run"] == "unit"
        assert recs[0]["fields"] == {"nvtxs": 10}

    def test_span_nesting_and_parents(self):
        buf = io.StringIO()
        trc = Tracer(buf, run="unit")
        with trc.span("outer") as outer:
            with trc.span("inner") as inner:
                assert inner.parent == outer.id
        trc.close()
        spans = {r["name"]: r for r in records_from(buf) if r["t"] == "span"}
        # Inner exits first, so it is emitted first.
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["dur"] >= 0

    def test_events_attach_to_innermost_span(self):
        buf = io.StringIO()
        trc = Tracer(buf, run="unit")
        trc.event("free")  # no open span
        with trc.span("phase") as sp:
            sp.event("via-span", k=1)
            trc.event("via-tracer")
        trc.close()
        events = {r["name"]: r for r in records_from(buf) if r["t"] == "event"}
        assert events["free"]["span"] is None
        assert events["via-span"]["span"] == events["via-tracer"]["span"]
        assert events["via-span"]["fields"] == {"k": 1}

    def test_span_set_merges_fields(self):
        buf = io.StringIO()
        trc = Tracer(buf, run="unit")
        with trc.span("refine", level=2) as sp:
            sp.set(cut_out=17)
        trc.close()
        (span,) = [r for r in records_from(buf) if r["t"] == "span"]
        assert span["fields"] == {"level": 2, "cut_out": 17}

    def test_counters_accumulate_and_emit_once(self):
        buf = io.StringIO()
        trc = Tracer(buf, run="unit")
        trc.counter("fm.moves", 3)
        trc.counter("fm.moves", 4)
        with trc.span("s") as sp:
            sp.counter("fm.kept")
        trc.close()
        (counters,) = [r for r in records_from(buf) if r["t"] == "counters"]
        assert counters["values"] == {"fm.moves": 7, "fm.kept": 1}

    def test_numpy_scalars_are_jsonable(self):
        buf = io.StringIO()
        trc = Tracer(buf, run="unit")
        with trc.span("s", nvtxs=np.int64(5)) as sp:
            sp.event("e", frac=np.float64(0.25), arr=[np.int32(1)])
        trc.close()
        recs = records_from(buf)  # would raise on non-JSON-safe values
        (event,) = [r for r in recs if r["t"] == "event"]
        assert event["fields"] == {"frac": 0.25, "arr": [1]}

    def test_close_is_idempotent_and_stops_emission(self):
        buf = io.StringIO()
        trc = Tracer(buf, run="unit")
        trc.counter("c", 1)
        trc.close()
        trc.close()
        trc.event("after-close")
        recs = records_from(buf)
        assert [r["t"] for r in recs] == ["meta", "counters"]

    def test_file_sink_appends_across_runs(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        for i in range(2):
            trc = open_tracer(path, run=f"run{i}")
            with trc.span("s"):
                pass
            trc.close()
        recs = read_trace(path)
        assert [r["run"] for r in recs if r["t"] == "meta"] == ["run0", "run1"]


# --------------------------------------------------------------------------
# null objects and resolution
# --------------------------------------------------------------------------
class TestNullObjects:
    def test_null_tracer_is_falsy_and_inert(self):
        assert not NULL
        assert not NULL.enabled
        NULL.event("x")
        NULL.counter("c", 5)
        NULL.close()

    def test_null_span_is_context_manager(self):
        with NULL.span("phase") as sp:
            assert sp is NULL_SPAN
            assert not sp
            sp.set(cut=1)
            sp.event("e")
            sp.counter("c")

    def test_tracer_from_returns_null_when_unconfigured(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert tracer_from(None) is NULL
        assert trace_target(None) is None

    def test_env_var_activates(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.jsonl")
        monkeypatch.setenv("REPRO_TRACE", path)
        trc = tracer_from(None, run="env")
        assert trc
        trc.close()
        assert read_trace(path)[0]["run"] == "env"

    def test_options_trace_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "env.jsonl"))

        class Opts:
            trace = str(tmp_path / "opt.jsonl")

        assert trace_target(Opts()) == Opts.trace

    def test_resolve_given_wins_and_is_not_owned(self, tmp_path):
        from repro.core.options import DEFAULT_OPTIONS
        from repro.core.run import Run

        trc = open_tracer(str(tmp_path / "t.jsonl"), run="outer")
        try:
            with Run.open(DEFAULT_OPTIONS, "inner", tracer=trc) as run:
                assert run.tracer is trc and run.owns_tracer is False
            # A given NULL also wins: a branch run must not re-resolve.
            with Run.open(DEFAULT_OPTIONS, "inner", tracer=NULL) as run:
                assert run.tracer is NULL and run.owns_tracer is False
            # The run's exit left the given tracer open.
            with trc.span("after"):
                pass
        finally:
            trc.close()
        spans = [r for r in read_trace(str(tmp_path / "t.jsonl"))
                 if r["t"] == "span"]
        assert [s["name"] for s in spans] == ["after"]

    def test_resolve_owns_what_it_opens(self, tmp_path, monkeypatch):
        from repro.core.options import DEFAULT_OPTIONS
        from repro.core.run import Run

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        with Run.open(DEFAULT_OPTIONS, "r") as run:
            assert run.tracer is NULL and run.owns_tracer is False
        path = str(tmp_path / "t.jsonl")
        monkeypatch.setenv("REPRO_TRACE", path)
        with Run.open(DEFAULT_OPTIONS, "r") as run:
            assert run.tracer and run.owns_tracer is True
            run.tracer.counter("c", 1)
        # Closing the run closed its tracer: the counters record landed.
        kinds = [r["t"] for r in read_trace(path)]
        assert kinds[0] == "meta" and "counters" in kinds


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------
def _span_record(**overrides):
    record = {
        "v": SCHEMA_VERSION,
        "t": "span",
        "id": 0,
        "parent": None,
        "name": "coarsen",
        "t0": 0.0,
        "dur": 0.5,
        "fields": {"phase": "CTime"},
    }
    record.update(overrides)
    return record


class TestSchema:
    def test_valid_records_pass(self):
        validate_record(_span_record())
        validate_record(
            {"v": 1, "t": "meta", "run": "r", "time": "now", "fields": {}}
        )
        validate_record(
            {"v": 1, "t": "event", "name": "e", "span": None, "at": 0.1,
             "fields": {"free": True}}  # fields dicts are free-form
        )
        validate_record({"v": 1, "t": "counters", "values": {"c": 2}})

    @pytest.mark.parametrize(
        "record, fragment",
        [
            ([1, 2], "must be a JSON object"),
            ({"v": 99, "t": "span"}, "unsupported trace schema version"),
            ({"v": 1, "t": "bogus"}, "unknown record kind"),
            (_span_record(dur=None), "key 'dur' has type"),
            (_span_record(id=True), "key 'id' has type"),
            (_span_record(dur=-0.1), "non-negative"),
            (_span_record(extra=1), "unknown keys"),
            ({"v": 1, "t": "counters", "values": {"c": True}}, "non-numeric"),
            ({"v": 1, "t": "counters", "values": {"c": "x"}}, "non-numeric"),
        ],
    )
    def test_malformed_records_raise(self, record, fragment):
        with pytest.raises(TraceError, match=fragment):
            validate_record(record)

    def test_missing_key_raises(self):
        record = _span_record()
        del record["parent"]
        with pytest.raises(TraceError, match="missing key 'parent'"):
            validate_record(record)

    def test_line_numbers_in_errors(self):
        lines = [json.dumps(_span_record()), "not json"]
        with pytest.raises(TraceError, match="line 2"):
            validate_trace_lines(lines)

    def test_blank_lines_ignored(self):
        lines = ["", json.dumps(_span_record()), "   "]
        assert len(validate_trace_lines(lines)) == 1


# --------------------------------------------------------------------------
# profile aggregation
# --------------------------------------------------------------------------
class TestProfile:
    def _records(self):
        buf = io.StringIO()
        trc = Tracer(buf, run="agg", meta={"nvtxs": 4})
        with trc.span("coarsen", phase="CTime"):
            trc.event("coarsen.level")
            trc.event("coarsen.level")
        with trc.span("refine", phase="RTime"):
            pass
        with trc.span("refine", phase="RTime"):
            pass
        trc.counter("fm.moves", 12)
        trc.close()
        return records_from(buf)

    def test_profile_sums(self):
        prof = profile(self._records())
        assert [m["run"] for m in prof["runs"]] == ["agg"]
        assert prof["spans"]["refine"]["count"] == 2
        assert prof["events"] == {"coarsen.level": 2}
        assert prof["counters"] == {"fm.moves": 12}
        assert prof["phases"]["CTime"] == pytest.approx(
            prof["spans"]["coarsen"]["total"]
        )
        assert prof["phases"]["ITime"] == 0.0

    def test_format_profile(self):
        text = format_profile(profile(self._records()))
        assert "runs:     1" in text
        assert "CTime" in text and "UTime" in text
        assert "coarsen.level" in text
        assert "fm.moves" in text


# --------------------------------------------------------------------------
# bench export
# --------------------------------------------------------------------------
class TestBenchExport:
    def test_payload_roundtrip(self, tmp_path):
        from repro.bench import Row

        rows = [
            Row("4ELT", "hem", {"32EC": np.int64(123), "wall": 0.5}),
            {"matrix": "X", "scheme": "rm", "values": {"32EC": 1}},
        ]
        payload = bench_payload(
            "unit_table", rows, title="t", columns=["32EC"], extra={"k": 1}
        )
        path = tmp_path / "BENCH_unit_table.json"
        write_bench_json(path, payload)
        data = json.loads(path.read_text())
        assert data["schema"] == "repro-bench/1"
        assert data["table"] == "unit_table"
        assert data["columns"] == ["32EC"]
        assert data["rows"][0]["values"]["32EC"] == 123
        assert data["rows"][1]["matrix"] == "X"
        assert data["extra"] == {"k": 1}
        assert "python" in data["env"]

    def test_env_records_bench_knobs(self, monkeypatch):
        from repro.obs import bench_env

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_env()["knobs"]["REPRO_BENCH_SCALE"] == "0.25"


# --------------------------------------------------------------------------
# overhead guarantees
# --------------------------------------------------------------------------
class TestOverheadGuarantee:
    def test_fm_move_loop_has_no_tracer_calls(self):
        """Structural guarantee: the FM hot loop never touches the tracer.

        Events are per *pass*, never per move — the ``while since_best``
        loop must contain no ``.span``/``.event``/``.counter``/``.set``
        attribute calls at all.
        """
        from repro.core import refine

        tree = ast.parse(inspect.getsource(refine.fm_pass))
        loops = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.While)
        ]
        assert loops, "fm_pass lost its move loop?"
        banned = {"span", "event", "counter", "set"}
        for loop in loops:
            calls = [
                node.func.attr
                for node in ast.walk(loop)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in banned
            ]
            assert calls == [], (
                f"tracer-ish calls inside the FM move loop: {calls}"
            )

    def test_null_tracer_span_is_cheap(self):
        """Loose timing bound: a null span entry/exit stays sub-microsecond
        scale (generous 10µs bound so CI noise cannot flake this)."""
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with NULL.span("x"):
                pass
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 10e-6, f"null span costs {per_call * 1e6:.2f}µs"

    def test_tracing_disabled_is_bit_identical(self, tmp_path):
        """Tracing must never touch the RNG: traced and untraced runs of
        the same seed produce identical partitions."""
        from repro.core import bisect
        from repro.core.options import DEFAULT_OPTIONS
        from repro.matrices import grid2d

        g = grid2d(15, 14)
        plain = bisect(g, DEFAULT_OPTIONS, np.random.default_rng(3))
        traced_opts = DEFAULT_OPTIONS.with_(trace=str(tmp_path / "t.jsonl"))
        traced = bisect(g, traced_opts, np.random.default_rng(3))
        assert plain.bisection.cut == traced.bisection.cut
        assert np.array_equal(plain.bisection.where, traced.bisection.where)
        assert plain.stats.moves_tried == traced.stats.moves_tried
        assert read_trace(str(tmp_path / "t.jsonl"))  # and the trace exists
