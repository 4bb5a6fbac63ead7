"""Tests for utilities (RNG plumbing, timers, options, top-level API)."""

import time

import numpy as np
import pytest

import repro
from repro.core.options import (
    InitialScheme,
    MatchingScheme,
    MultilevelOptions,
    RefinePolicy,
)
from repro.utils import PhaseTimer, as_generator, spawn_child
from repro.utils.errors import ConfigurationError


class TestRng:
    def test_none_gives_fresh_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = as_generator(42).integers(0, 1000, 10)
        b = as_generator(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_spawn_child_independent(self):
        parent = np.random.default_rng(1)
        c1 = spawn_child(parent)
        c2 = spawn_child(parent)
        a = c1.integers(0, 10**9, 20)
        b = c2.integers(0, 10**9, 20)
        assert not np.array_equal(a, b)

    def test_spawn_child_deterministic_given_parent_state(self):
        a = spawn_child(np.random.default_rng(5)).integers(0, 10**9, 5)
        b = spawn_child(np.random.default_rng(5)).integers(0, 10**9, 5)
        assert np.array_equal(a, b)


class TestTimers:
    def test_phase_timer_accumulates(self):
        t = PhaseTimer()
        with t.phase("a"):
            time.sleep(0.005)
        with t.phase("a"):
            pass
        assert t.total("a") >= 0.004
        assert t.count("a") == 2
        assert t.total("missing") == 0.0

    def test_phase_timer_merge(self):
        a, b = PhaseTimer(), PhaseTimer()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.total("x") == pytest.approx(3.0)
        assert a.total("y") == pytest.approx(3.0)

    def test_totals_snapshot(self):
        t = PhaseTimer()
        t.add("x", 1.0)
        snap = t.totals()
        t.add("x", 1.0)
        assert snap["x"] == pytest.approx(1.0)

    def test_exception_still_recorded(self):
        t = PhaseTimer()
        with pytest.raises(RuntimeError):
            with t.phase("x"):
                raise RuntimeError
        assert t.count("x") == 1


class TestOptions:
    def test_defaults_match_paper(self):
        o = MultilevelOptions()
        assert o.matching is MatchingScheme.HEM
        assert o.initial is InitialScheme.GGGP
        assert o.refinement is RefinePolicy.BKLGR
        assert o.kl_early_exit == 50
        assert o.ggp_trials == 10
        assert o.gggp_trials == 5
        assert o.bklgr_boundary_fraction == pytest.approx(0.02)

    def test_with_returns_modified_copy(self):
        o = MultilevelOptions()
        o2 = o.with_(coarsen_to=50)
        assert o2.coarsen_to == 50
        assert o.coarsen_to == 100

    def test_frozen(self):
        with pytest.raises(AttributeError):
            MultilevelOptions().coarsen_to = 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coarsen_to": 1},
            {"coarsen_stall_ratio": 0.0},
            {"coarsen_stall_ratio": 1.5},
            {"ubfactor": 0.9},
            {"kl_early_exit": 0},
            {"ggp_trials": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MultilevelOptions(**kwargs)

    def test_string_coercion(self):
        o = MultilevelOptions(matching=MatchingScheme("rm"))
        assert o.matching is MatchingScheme.RM


class TestErrorPickling:
    """ReproError subclasses must survive the pool result pipe (RP018).

    The concurrent.futures result pipe pickles worker exceptions; the
    default reduction re-calls ``cls(*args)`` and explodes on required
    keyword-only parameters, so ``ReproError.__reduce__`` rebuilds
    instances from ``__dict__`` instead.
    """

    def test_sanitizer_error_round_trips(self):
        import pickle

        from repro.utils.errors import SanitizerError

        err = SanitizerError("ghost vertex", phase="separator", level=3)
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is SanitizerError
        assert str(clone) == str(err)
        assert clone.phase == "separator"
        assert clone.level == 3

    def test_deadline_error_round_trips(self):
        import pickle

        from repro.utils.errors import DeadlineExceededError

        err = DeadlineExceededError(
            "budget exhausted", deadline=1.0, elapsed=2.5, phase="refine"
        )
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is DeadlineExceededError
        assert clone.deadline == 1.0
        assert clone.elapsed == 2.5
        assert clone.phase == "refine"


class TestTopLevelApi:
    def test_bisect_wrapper(self, grid8):
        r = repro.bisect(grid8, seed=1, matching="rm")
        assert r.bisection.cut > 0

    def test_partition_wrapper(self, grid8):
        p = repro.partition(grid8, 4, seed=1)
        assert p.nparts == 4

    def test_nested_dissection_wrapper(self, grid8):
        o = repro.nested_dissection(grid8, seed=1)
        o.verify()

    def test_override_coercion_errors(self, grid8):
        with pytest.raises(ConfigurationError, match="^matching must be one of"):
            repro.partition(grid8, 2, matching="bogus")

    def test_lazy_subpackages(self):
        assert repro.matrices is not None
        assert repro.spectral is not None
        with pytest.raises(AttributeError):
            repro.nonexistent_subpackage

    def test_version(self):
        assert repro.__version__
