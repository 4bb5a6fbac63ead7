"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import partition
from repro.core.options import DEFAULT_OPTIONS, MatchingScheme
from repro.graph import write_graph
from repro.matrices import grid2d, load
from repro.service import PartitionService


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "grid.graph"
    write_graph(grid2d(10, 10), path)
    return str(path)


class TestPartition:
    def test_basic(self, graph_file, capsys):
        assert main(["partition", graph_file, "4"]) == 0
        out = capsys.readouterr().out
        assert "edge-cut:" in out
        assert "balance:" in out

    def test_writes_partition_vector(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "part.txt"
        assert main(["partition", graph_file, "4", "-o", str(out_file)]) == 0
        vec = np.loadtxt(out_file, dtype=int)
        assert len(vec) == 100
        assert set(np.unique(vec)) == {0, 1, 2, 3}

    def test_report_flag(self, graph_file, capsys):
        assert main(["partition", graph_file, "4", "--report"]) == 0
        out = capsys.readouterr().out
        assert "commvol:" in out
        assert "max halo:" in out

    def test_kway_refine_flag(self, graph_file, capsys):
        assert main(["partition", graph_file, "4", "--kway-refine"]) == 0
        out = capsys.readouterr().out
        assert "edge-cut:" in out

    def test_scheme_flags(self, graph_file, capsys):
        assert main([
            "partition", graph_file, "2",
            "--matching", "rm", "--initial", "ggp", "--refinement", "klr",
            "--seed", "7",
        ]) == 0

    def test_hcm_by_name_runs_the_enum_path(self, tmp_path, capsys):
        # §3.1's HCM needs the collapsed edge weights at every level; the
        # CLI passes the scheme by name and must still run it.
        graph = load("4ELT", scale=0.25, seed=1)
        path, out_file = tmp_path / "4elt.graph", tmp_path / "part.txt"
        write_graph(graph, path)
        assert main([
            "partition", str(path), "8", "--matching", "hcm", "-o", str(out_file),
        ]) == 0
        expected = partition(
            graph, 8, DEFAULT_OPTIONS.with_(matching=MatchingScheme.HCM)
        )
        assert np.array_equal(np.loadtxt(out_file, dtype=int), expected.where)

    def test_deterministic_output(self, graph_file, capsys):
        def quality_lines(text):
            return [ln for ln in text.splitlines()
                    if ln.startswith(("edge-cut", "balance"))]

        main(["partition", graph_file, "4", "--seed", "5"])
        first = quality_lines(capsys.readouterr().out)
        main(["partition", graph_file, "4", "--seed", "5"])
        second = quality_lines(capsys.readouterr().out)
        assert first == second and first


class TestOrder:
    @pytest.mark.parametrize("method", ["mlnd", "mmd", "snd"])
    def test_methods(self, graph_file, capsys, method):
        assert main(["order", graph_file, "--method", method]) == 0
        out = capsys.readouterr().out
        assert "opcount:" in out
        assert f"method:       {method}" in out

    def test_writes_perm(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "perm.txt"
        assert main(["order", graph_file, "-o", str(out_file)]) == 0
        perm = np.loadtxt(out_file, dtype=int)
        assert sorted(perm.tolist()) == list(range(100))


class TestGenerate:
    def test_generates_readable_graph(self, tmp_path, capsys):
        out_file = tmp_path / "gen.graph"
        assert main(["generate", "BCSPWR10", str(out_file), "--scale", "0.1"]) == 0
        assert main(["info", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices:" in out


class TestInfo:
    def test_info_on_file(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices:   100" in out
        assert "components: 1" in out

    def test_suite_listing(self, capsys):
        assert main(["info", "--suite"]) == 0
        out = capsys.readouterr().out
        assert "BCSSTK31" in out and "MEMPLUS" in out

    def test_info_without_args_errors(self, capsys):
        assert main(["info"]) == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServe:
    """``repro serve`` takes its defaults from ``PartitionService``."""

    def test_parser_defaults_follow_the_service_signature(self, monkeypatch):
        init = PartitionService.__init__
        shifted = {
            name: value + 1 if isinstance(value, int) else value
            for name, value in init.__kwdefaults__.items()
        }
        monkeypatch.setattr(init, "__kwdefaults__", shifted)
        args = build_parser().parse_args(["serve"])
        assert {name: getattr(args, name) for name in shifted} == shifted

    def test_help_names_the_service_defaults(self, capsys):
        defaults = PartitionService.__init__.__kwdefaults__
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"caching (default {defaults['cache_size']})" in text
        assert f"running jobs (default {defaults['queue_workers']};" in text
        assert f"answers 503 (default {defaults['backlog']})" in text
        assert f"(default {defaults['max_body'] >> 20} MiB)" in text
