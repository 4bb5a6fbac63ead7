"""Tests for the whole-program dataflow checkers (RP012 … RP016, RP018).

One positive (seeded synthetic violation) and one negative (blessed
idiom) fixture per rule, plus the PR-4 regression demonstration: deleting
the int64 ``np.add.at`` path from ``part_weights``'s exact accumulation
makes RP012 fire with a call-path trace, while the shipped guarded code
stays clean.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.engine import format_findings

REPO_ROOT = Path(__file__).resolve().parents[1]


def _lint(tmp_path, files, select=None):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    findings = lint_paths([tmp_path / "pkg"])
    if select:
        findings = [f for f in findings if f.rule_id == select]
    return findings


class TestRP012ExactAccumulation:
    def test_unguarded_weight_bincount_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/acc.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def part_weights_bad(where, vwgt, k):\n"
                    "    return np.bincount(where, weights=vwgt, minlength=k)\n"
                ),
            },
            select="RP012",
        )
        assert len(findings) == 1
        assert "float64" in findings[0].message

    def test_guarded_bincount_is_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/acc.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def part_weights_ok(where, vwgt, k, total):\n"
                    "    if total <= 2**53:\n"
                    "        return np.bincount(\n"
                    "            where, weights=vwgt, minlength=k\n"
                    "        ).astype(np.int64)\n"
                    "    out = np.zeros(k, dtype=np.int64)\n"
                    "    np.add.at(out, where, vwgt)\n"
                    "    return out\n"
                ),
            },
            select="RP012",
        )
        assert findings == []

    def test_float_weights_are_not_the_bug_class(self, tmp_path):
        # Weighted float centroids (graph.coords * vwgt) are genuine float
        # math, not the 2**53 overflow class.
        findings = _lint(
            tmp_path,
            {
                "pkg/graph/geom.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def centroid(cmap, coords, vwgt, k):\n"
                    "    return np.bincount(\n"
                    "        cmap, weights=coords * vwgt, minlength=k\n"
                    "    )\n"
                ),
            },
            select="RP012",
        )
        assert findings == []

    def test_float_augassign_into_weight_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/acc2.py": (
                    "def accumulate(moves, w):\n"
                    "    cut = 0\n"
                    "    for m in moves:\n"
                    "        cut += 0.5 * w\n"
                    "    return cut\n"
                ),
            },
            select="RP012",
        )
        assert len(findings) == 1


class TestRP013NarrowingCast:
    def test_narrowing_weight_cast_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/cast.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def shrink(vwgt):\n"
                    "    return vwgt.astype(np.int32)\n"
                ),
            },
            select="RP013",
        )
        assert len(findings) == 1
        assert "int32" in findings[0].message

    def test_int64_cast_and_nonweight_cast_are_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/cast.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def widen(vwgt):\n"
                    "    return vwgt.astype(np.int64)\n"
                    "\n"
                    "\n"
                    "def labels(part):\n"
                    "    return part.astype(np.int32)\n"
                ),
            },
            select="RP013",
        )
        assert findings == []

    def test_float_allocated_weight_accumulator_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/alloc.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def fresh(k):\n"
                    "    pwgts = np.zeros(k)\n"
                    "    return pwgts\n"
                ),
            },
            select="RP013",
        )
        assert len(findings) == 1

    def test_int64_allocated_weight_accumulator_is_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/alloc.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def fresh(k):\n"
                    "    pwgts = np.zeros(k, dtype=np.int64)\n"
                    "    return pwgts\n"
                ),
            },
            select="RP013",
        )
        assert findings == []


class TestRP014RngThread:
    _ENTROPY_DEFAULTING = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def as_generator(rng=None):\n"
        "    return np.random.default_rng(rng)\n"
        "\n"
        "\n"
        "def search(graph, rng=None):\n"
        "    gen = as_generator(rng)\n"
        "    return gen.random()\n"
        "\n"
        "\n"
    )

    def test_call_omitting_rng_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/seeds.py": self._ENTROPY_DEFAULTING
                + ("def driver(graph):\n" "    return search(graph)\n"),
            },
            select="RP014",
        )
        assert len(findings) == 1
        assert "omits rng" in findings[0].message

    def test_call_threading_rng_is_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/seeds.py": self._ENTROPY_DEFAULTING
                + (
                    "def driver(graph, rng=None):\n"
                    "    return search(graph, rng=rng)\n"
                ),
            },
            select="RP014",
        )
        # driver itself defaults rng=None but does not convert it to
        # entropy, so calling search with the threaded rng is the idiom.
        assert findings == []

    def test_seed_fallback_conditional_is_exempt(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/seeds.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def ordering(graph, seed, rng=None):\n"
                    "    gen = np.random.default_rng(\n"
                    "        rng if rng is not None else seed\n"
                    "    )\n"
                    "    return gen.random()\n"
                    "\n"
                    "\n"
                    "def driver(graph):\n"
                    "    return ordering(graph, 0)\n"
                ),
            },
            select="RP014",
        )
        assert findings == []

    def test_entropy_reachable_from_worker_fires_with_trace(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def _branch_job(graph):\n"
                    "    rng = np.random.default_rng()\n"
                    "    return rng.random()\n"
                    "\n"
                    "\n"
                    "def drive(par, graph):\n"
                    "    par.submit(_branch_job, graph)\n"
                ),
            },
            select="RP014",
        )
        assert len(findings) == 1
        assert "workers=N" in findings[0].message
        assert "_branch_job" in findings[0].trace

    def test_seeded_worker_is_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "def _branch_job(graph, rng):\n"
                    "    return rng.random()\n"
                    "\n"
                    "\n"
                    "def drive(par, graph, rng):\n"
                    "    par.submit(_branch_job, graph, rng)\n"
                ),
            },
            select="RP014",
        )
        assert findings == []


class TestRP015WorkerPurity:
    def test_module_state_mutation_in_worker_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "_CACHE = {}\n"
                    "\n"
                    "\n"
                    "def _branch_job(graph):\n"
                    "    _CACHE[id(graph)] = graph\n"
                    "    return graph\n"
                    "\n"
                    "\n"
                    "def drive(par, graph):\n"
                    "    par.submit(_branch_job, graph)\n"
                ),
            },
            select="RP015",
        )
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message
        assert findings[0].trace  # carries the worker call path

    def test_mutator_method_on_module_list_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "_EVENTS = []\n"
                    "\n"
                    "\n"
                    "def _branch_job(graph):\n"
                    "    _EVENTS.append(graph)\n"
                    "    return graph\n"
                    "\n"
                    "\n"
                    "def drive(par, graph):\n"
                    "    par.submit(_branch_job, graph)\n"
                ),
            },
            select="RP015",
        )
        assert len(findings) == 1

    def test_local_state_in_worker_is_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "def _branch_job(graph):\n"
                    "    cache = {}\n"
                    "    cache[id(graph)] = graph\n"
                    "    events = []\n"
                    "    events.append(graph)\n"
                    "    return cache, events\n"
                    "\n"
                    "\n"
                    "def drive(par, graph):\n"
                    "    par.submit(_branch_job, graph)\n"
                ),
            },
            select="RP015",
        )
        assert findings == []

    def test_same_mutation_outside_worker_is_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "_CACHE = {}\n"
                    "\n"
                    "\n"
                    "def memoize(graph):\n"
                    "    _CACHE[id(graph)] = graph\n"
                    "    return graph\n"
                ),
            },
            select="RP015",
        )
        assert findings == []


class TestRP016WorkerAmbientState:
    def test_environ_write_in_worker_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "import os\n"
                    "\n"
                    "\n"
                    "def _branch_job(graph):\n"
                    "    os.environ['REPRO_WORKERS'] = '1'\n"
                    "    return graph\n"
                    "\n"
                    "\n"
                    "def drive(par, graph):\n"
                    "    par.submit(_branch_job, graph)\n"
                ),
            },
            select="RP016",
        )
        assert len(findings) == 1
        assert "os.environ" in findings[0].message

    def test_global_seed_in_worker_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def _branch_job(graph):\n"
                    "    np.random.seed(0)\n"
                    "    return graph\n"
                    "\n"
                    "\n"
                    "def drive(par, graph):\n"
                    "    par.submit(_branch_job, graph)\n"
                ),
            },
            select="RP016",
        )
        assert len(findings) == 1
        assert "global RNG" in findings[0].message

    def test_environ_write_outside_worker_is_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/setup.py": (
                    "import os\n"
                    "\n"
                    "\n"
                    "def configure(workers):\n"
                    "    os.environ['REPRO_WORKERS'] = str(workers)\n"
                ),
            },
            select="RP016",
        )
        assert findings == []


class TestRP018WorkerException:
    _DRIVER = (
        "def drive(par, graph):\n"
        "    par.submit(_branch_job, graph)\n"
    )

    def test_unpicklable_exception_fires_with_trace(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "class BranchError(Exception):\n"
                    "    def __init__(self, msg, *, phase):\n"
                    "        super().__init__(msg)\n"
                    "        self.phase = phase\n"
                    "\n"
                    "\n"
                    "def _branch_job(graph):\n"
                    "    if graph is None:\n"
                    "        raise BranchError('no graph', phase='submit')\n"
                    "    return graph\n"
                    "\n"
                    "\n" + self._DRIVER
                ),
            },
            select="RP018",
        )
        assert len(findings) == 1
        assert "'phase'" in findings[0].message
        assert "__reduce__" in findings[0].message
        assert findings[0].trace == ("drive", "_branch_job")

    def test_reduce_in_base_chain_is_clean(self, tmp_path):
        # Mirrors repro.utils.errors: the base defines __reduce__, so a
        # subclass with required keyword-only parameters pickles fine.
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "class BaseError(Exception):\n"
                    "    def __reduce__(self):\n"
                    "        return (type(self), self.args)\n"
                    "\n"
                    "\n"
                    "class BranchError(BaseError):\n"
                    "    def __init__(self, msg, *, phase):\n"
                    "        super().__init__(msg)\n"
                    "        self.phase = phase\n"
                    "\n"
                    "\n"
                    "def _branch_job(graph):\n"
                    "    if graph is None:\n"
                    "        raise BranchError('no graph', phase='submit')\n"
                    "    return graph\n"
                    "\n"
                    "\n" + self._DRIVER
                ),
            },
            select="RP018",
        )
        assert findings == []

    def test_builtin_raise_in_worker_code_fires(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "def _branch_job(graph):\n"
                    "    if graph is None:\n"
                    "        raise ValueError('no graph')\n"
                    "    return graph\n"
                    "\n"
                    "\n" + self._DRIVER
                ),
            },
            select="RP018",
        )
        assert len(findings) == 1
        assert "builtin ValueError" in findings[0].message

    def test_positional_only_exception_is_clean(self, tmp_path):
        # Plain message-style exceptions round-trip through the default
        # Exception reduction; only required keyword-only params break it.
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "class BranchError(Exception):\n"
                    "    def __init__(self, msg, phase=None):\n"
                    "        super().__init__(msg)\n"
                    "        self.phase = phase\n"
                    "\n"
                    "\n"
                    "def _branch_job(graph):\n"
                    "    if graph is None:\n"
                    "        raise BranchError('no graph')\n"
                    "    return graph\n"
                    "\n"
                    "\n" + self._DRIVER
                ),
            },
            select="RP018",
        )
        assert findings == []

    def test_non_worker_code_is_not_policed(self, tmp_path):
        # The same raise outside the worker-reachable set is RP005's
        # business (builtin) but never RP018's.
        findings = _lint(
            tmp_path,
            {
                "pkg/core/jobs.py": (
                    "class BranchError(Exception):\n"
                    "    def __init__(self, msg, *, phase):\n"
                    "        super().__init__(msg)\n"
                    "        self.phase = phase\n"
                    "\n"
                    "\n"
                    "def sequential(graph):\n"
                    "    if graph is None:\n"
                    "        raise BranchError('no graph', phase='seq')\n"
                    "    return graph\n"
                ),
            },
            select="RP018",
        )
        assert findings == []

    def test_shipped_worker_set_is_exception_clean(self):
        findings = [
            f
            for f in lint_paths([REPO_ROOT / "src" / "repro"])
            if f.rule_id == "RP018"
        ]
        assert findings == [], format_findings(findings)


class TestPartWeightsRevertRegression:
    """Reverting PR 4's exact-accumulation fix must trip RP012.

    The shipped ``graph/partition.py`` guards its ``np.bincount`` with the
    2**53 exact limit and falls back to an int64 ``np.add.at`` path.  This
    test deletes that guarded path (recreating the pre-PR-4 code) in a
    fixture copy, adds a ``core/`` caller, and checks that RP012 fires on
    the naked bincount with a call path from the caller — while the real,
    guarded file stays clean.
    """

    REAL = REPO_ROOT / "src" / "repro" / "graph" / "partition.py"

    def _reverted_source(self):
        src = self.REAL.read_text()
        start = src.index("    if total <= _FLOAT64_EXACT_LIMIT:")
        end = src.index("def part_weights")
        naive = (
            "    return np.bincount(\n"
            "        idx, weights=weights, minlength=minlength\n"
            "    ).astype(np.int64)\n"
            "\n"
            "\n"
        )
        return src[:start] + naive + src[end:]

    def test_reverted_part_weights_fires_with_call_path(self, tmp_path):
        findings = _lint(
            tmp_path,
            {
                "pkg/graph/partition.py": self._reverted_source(),
                "pkg/core/kway_refine.py": (
                    "from pkg.graph.partition import part_weights\n"
                    "\n"
                    "\n"
                    "def refine(graph, where):\n"
                    "    return part_weights(graph, where, 2)\n"
                ),
            },
            select="RP012",
        )
        assert findings, "RP012 did not fire on the reverted part_weights"
        hit = findings[0]
        assert hit.path.endswith("partition.py")
        assert hit.trace, "finding carries no call-path trace"
        assert "exact_weight_bincount" in hit.trace
        assert "refine" in hit.trace or "part_weights" in hit.trace
        assert "call path:" in hit.format()

    def test_shipped_guarded_partition_is_clean(self):
        findings = [
            f
            for f in lint_paths([self.REAL])
            if f.rule_id == "RP012"
        ]
        assert findings == [], format_findings(findings)


class TestShippedTreeWholeProgram:
    def test_src_repro_clean(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], format_findings(findings)

    def test_tests_and_benchmarks_clean_for_determinism_rules(self):
        findings = lint_paths([REPO_ROOT / "benchmarks", REPO_ROOT / "tests"])
        findings = [f for f in findings if f.rule_id in ("RP001", "RP014")]
        assert findings == [], format_findings(findings)
