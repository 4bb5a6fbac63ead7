"""Tests for process-parallel recursive bisection (repro.resilience.supervisor).

The contract is strict: ``workers=N`` must be *bit-identical* to
``workers=1`` for every driver entry — the RNG tree is pre-spawned per
branch before any branch runs, so fanning branches across a process pool
changes only where the arithmetic happens, never its result.
"""

import numpy as np
import pytest

from repro.core import partition
from repro.core.options import DEFAULT_OPTIONS
from repro.matrices import grid2d, grid3d
from repro.ordering import mlnd_ordering
from repro.resilience.supervisor import (
    WORKERS_ENV,
    fan_depth_for,
    resolve_workers,
)
from repro.utils.errors import ConfigurationError


class TestResolveWorkers:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(DEFAULT_OPTIONS) == 1
        assert resolve_workers(None) == 1

    def test_options_take_precedence_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(DEFAULT_OPTIONS.with_(workers=2)) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(DEFAULT_OPTIONS) == 3

    @pytest.mark.parametrize("raw", ["0", "-2", "two"])
    def test_bad_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ConfigurationError):
            resolve_workers(DEFAULT_OPTIONS)

    def test_options_validate_workers(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_OPTIONS.with_(workers=0)


class TestFanDepth:
    def test_depths(self):
        assert fan_depth_for(1) == 0
        assert fan_depth_for(2) == 1
        assert fan_depth_for(3) == 2
        assert fan_depth_for(4) == 2
        assert fan_depth_for(8) == 3


MESHES = {
    "mesh2d": lambda: grid2d(24, 23),
    "mesh3d": lambda: grid3d(9, 8, 8),
}


@pytest.mark.parametrize("name", MESHES, ids=MESHES.keys())
class TestBitIdentity:
    def test_partition_workers_identical(self, name):
        graph = MESHES[name]()
        results = {}
        for workers in (1, 2):
            options = DEFAULT_OPTIONS.with_(workers=workers)
            results[workers] = partition(
                graph, 5, options, np.random.default_rng(7)
            )
        assert np.array_equal(results[1].where, results[2].where)
        assert results[1].cut == results[2].cut

    def test_mlnd_workers_identical(self, name):
        graph = MESHES[name]()
        perms = {}
        for workers in (1, 2):
            options = DEFAULT_OPTIONS.with_(workers=workers)
            perms[workers] = mlnd_ordering(
                graph, options, np.random.default_rng(13)
            ).perm
        assert np.array_equal(perms[1], perms[2])

    def test_env_selected_workers_identical(self, name, monkeypatch):
        graph = MESHES[name]()
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        base = partition(graph, 4, DEFAULT_OPTIONS, np.random.default_rng(3))
        monkeypatch.setenv(WORKERS_ENV, "2")
        fanned = partition(graph, 4, DEFAULT_OPTIONS, np.random.default_rng(3))
        assert np.array_equal(base.where, fanned.where)


class TestParallelAccounting:
    def test_timers_and_resilience_survive_fanout(self):
        graph = grid2d(20, 20)
        options = DEFAULT_OPTIONS.with_(workers=2)
        result = partition(graph, 4, options, np.random.default_rng(5))
        # Branch phase timers are merged back into the parent's totals.
        assert result.timers.get("CTime", 0.0) >= 0.0
        assert sum(result.timers.values()) > 0.0
        assert result.resilience is not None
