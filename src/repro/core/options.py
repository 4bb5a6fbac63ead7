"""Configuration for the multilevel partitioner.

Every knob the paper varies in its experiments is a field here, with the
paper's chosen default:

* matching scheme — HEM ("we selected the HEM as our matching scheme of
  choice because of its consistent good behavior", §4.1);
* initial partitioner — GGGP with 5 trials (GGP uses 10, §3.2);
* refinement policy — BKLGR with the 2 % boundary-size switch (§3.3);
* coarsest-graph size — "a few hundred vertices", |Vm| < 100 used in §3.2;
* KL early-exit — x = 50 ("The choice of x = 50 works quite well", §3.3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from enum import Enum

from repro.utils.errors import ConfigurationError


class MatchingScheme(str, Enum):
    """Coarsening matching schemes of §3.1."""

    RM = "rm"  #: random matching
    HEM = "hem"  #: heavy-edge matching (paper's choice)
    LEM = "lem"  #: light-edge matching (control)
    HCM = "hcm"  #: heavy-clique matching (edge-density driven)


class InitialScheme(str, Enum):
    """Coarsest-graph partitioners of §3.2."""

    SBP = "sbp"  #: spectral bisection of the coarsest graph
    GGP = "ggp"  #: graph growing (BFS), best of ``ggp_trials`` seeds
    GGGP = "gggp"  #: greedy graph growing, best of ``gggp_trials`` seeds


class RefinePolicy(str, Enum):
    """Uncoarsening refinement policies of §3.3."""

    NONE = "none"  #: project only (used for the Table 3 experiment)
    GR = "gr"  #: greedy refinement — one KL pass, all vertices seeded
    KLR = "klr"  #: Kernighan–Lin refinement — passes until converged
    BGR = "bgr"  #: boundary greedy — one pass, boundary seeded
    BKLR = "bklr"  #: boundary KL — passes until converged, boundary seeded
    BKLGR = "bklgr"  #: hybrid: BKLR while boundary ≤ switch threshold, else BGR


@dataclass(frozen=True)
class MultilevelOptions:
    """Options controlling :func:`repro.core.multilevel.bisect`.

    Attributes
    ----------
    matching, initial, refinement:
        Phase selections; defaults are the paper's recommended combination
        (HEM + GGGP + BKLGR).
    coarsen_to:
        Stop coarsening once the graph has at most this many vertices.
    coarsen_stall_ratio:
        Abort coarsening early if a level shrinks the vertex count by less
        than this factor (guards against matching-resistant graphs such as
        stars, where maximal matchings stop making progress).
    max_coarsen_levels:
        Hard cap on the number of coarsening levels.
    ggp_trials, gggp_trials:
        Number of random seeds tried by the graph-growing partitioners; the
        best cut wins (paper: 10 and 5 respectively).
    kl_early_exit:
        The paper's ``x``: a KL pass stops after this many consecutive moves
        that fail to improve on the best cut seen in the pass, and those
        trailing moves are undone.
    max_kl_passes:
        Cap on KL/BKLR passes per level (each pass is monotone, so this only
        guards pathological oscillation; the paper's runs converge in a few).
    ubfactor:
        Allowed part weight is ``ubfactor ×`` the target part weight.
    bklgr_boundary_fraction:
        BKLGR runs multi-pass BKLR while the boundary of the current level
        holds at most this fraction of the *original* graph's vertices
        (paper: 2 %), then switches to single-pass BGR.
    eager_gains:
        When true, every move eagerly updates all unlocked neighbours'
        gains in the tables — the 1995 implementation's cost model, under
        which the boundary policies' *time* advantage (Table 4) appears.
        The default (false) uses lazy gains validated at pop time, which
        is faster overall and cut-for-cut identical in quality.
    gain_table:
        ``"heap"`` (lazy binary heap, default) or ``"bucket"`` (the
        classical FM bucket array — O(1) operations, gain-range memory).
    kernels:
        Kernel backend for the three hot phases (matching, FM gain
        maintenance, contraction), dispatched through the
        :mod:`repro.kernels` registry: ``"loop"`` (bit-exact reference),
        ``"vectorized"`` (whole-array NumPy) or ``"numba"`` (optional
        ``@njit`` kernels; falls back per phase along
        ``numba → vectorized → loop`` when numba is absent or a phase
        has no jitted implementation).  ``None`` (the default) defers to
        the ``REPRO_KERNELS`` environment variable, then to ``"loop"``
        everywhere.  The resolved per-phase selection lands in
        ``MultilevelResult.kernels``.
    workers:
        Process count for fanning the independent subgraph branches of
        recursive bisection (:func:`repro.core.kway.partition`) and MLND
        nested dissection across a ``ProcessPoolExecutor``.  Per-branch
        child RNGs are pre-seeded so ``workers=N`` is bit-identical to
        ``workers=1``.  ``None`` (the default) defers to the
        ``REPRO_WORKERS`` environment variable; when that is also unset,
        everything runs in-process.
    worker_timeout:
        Per-branch wall-clock budget in seconds enforced by the branch
        supervisor (:mod:`repro.resilience.supervisor`) on work shipped
        to pool workers.  A branch that overruns it is retried and, past
        ``worker_retries``, re-run sequentially in the parent.  ``None``
        (the default) defers to the ``REPRO_WORKER_TIMEOUT`` environment
        variable; when that is also unset, branch waits are bounded only
        by ``deadline`` (when set).
    worker_retries:
        How many times a crashed or timed-out worker branch is retried
        (with the same pre-seeded RNG stream, so retries stay
        bit-identical) before the supervisor degrades that branch to
        in-process sequential execution.
    seed:
        Default RNG seed used when the caller does not supply one.
    sanitize:
        Enable the runtime invariant sanitizer
        (:mod:`repro.analysis.sanitize`): O(n+m) checks at every phase
        boundary that raise :class:`~repro.utils.errors.SanitizerError`
        when the incremental bookkeeping drifts.  Also enabled globally by
        ``REPRO_SANITIZE=1``; free when off.
    faults:
        Fault-injection spec (:mod:`repro.resilience.faults`), e.g.
        ``"lanczos"`` or ``"initial:2;seed=7"`` — deterministic, seeded
        failures at phase boundaries for exercising the fallback chains.
        ``None`` (the default) defers to the ``REPRO_FAULTS`` environment
        variable; when that is also unset, injection is off and free.
    trace:
        Structured-trace target (:mod:`repro.obs`): a file path receiving
        JSONL records, or ``-`` for stdout.  ``None`` (the default) defers
        to the ``REPRO_TRACE`` environment variable; when that is also
        unset, tracing is off — results are bit-identical and the null
        tracer adds no work to the refinement hot loop.
    deadline:
        Wall-clock budget in seconds for one driver entry (``bisect``,
        ``partition``, an ordering).  Refinement degrades (BKLR → BGR) as
        the deadline nears; ``bisect`` raises
        :class:`~repro.utils.errors.DeadlineExceededError` carrying the
        best-so-far bisection once it expires, while ``partition`` and
        nested dissection degrade to cheap assignment instead of raising.
        ``None`` (default) disables the guard entirely.
    max_init_retries:
        How many times an initial bisection that fails validation (wrong
        shape, empty side, gross imbalance) is retried with a fresh seed
        before falling back to the next scheme in the chain.
    """

    matching: MatchingScheme = MatchingScheme.HEM
    initial: InitialScheme = InitialScheme.GGGP
    refinement: RefinePolicy = RefinePolicy.BKLGR
    coarsen_to: int = 100
    coarsen_stall_ratio: float = 0.95
    max_coarsen_levels: int = 40
    ggp_trials: int = 10
    gggp_trials: int = 5
    kl_early_exit: int = 50
    max_kl_passes: int = 8
    ubfactor: float = 1.10
    bklgr_boundary_fraction: float = 0.02
    eager_gains: bool = False
    gain_table: str = "heap"
    kernels: str | None = None
    workers: int | None = None
    worker_timeout: float | None = None
    worker_retries: int = 2
    seed: int = 4242
    sanitize: bool = False
    faults: str | None = None
    trace: str | None = None
    deadline: float | None = None
    max_init_retries: int = 3

    def with_(self, **kwargs) -> "MultilevelOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def __post_init__(self):
        if self.coarsen_to < 2:
            raise ConfigurationError("coarsen_to must be at least 2")
        if not (0.0 < self.coarsen_stall_ratio <= 1.0):
            raise ConfigurationError("coarsen_stall_ratio must be in (0, 1]")
        if self.ubfactor < 1.0:
            raise ConfigurationError("ubfactor must be >= 1.0")
        if self.kl_early_exit < 1:
            raise ConfigurationError("kl_early_exit must be positive")
        if self.ggp_trials < 1 or self.gggp_trials < 1:
            raise ConfigurationError("trial counts must be positive")
        if self.gain_table not in ("heap", "bucket"):
            raise ConfigurationError("gain_table must be 'heap' or 'bucket'")
        if self.kernels is not None and self.kernels not in (
            "loop",
            "vectorized",
            "numba",
        ):
            raise ConfigurationError(
                "kernels must be 'loop', 'vectorized' or 'numba' when set"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("workers must be >= 1 when set")
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ConfigurationError("worker_timeout must be positive when set")
        if self.worker_retries < 0:
            raise ConfigurationError("worker_retries must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be positive when set")
        if self.max_init_retries < 0:
            raise ConfigurationError("max_init_retries must be >= 0")
        if self.faults is not None:
            # Validate eagerly so a bad spec fails at configuration time,
            # not halfway through a partition.  Local import: resilience
            # depends only on utils, so there is no cycle.
            from repro.resilience.faults import parse_fault_spec

            parse_fault_spec(self.faults)


#: The paper's recommended configuration (HEM + GGGP + BKLGR).
DEFAULT_OPTIONS = MultilevelOptions()


#: Option fields that determine the *bits* of a partitioning result.
#: Everything else — ``workers`` / ``worker_timeout`` / ``worker_retries``
#: (bit-identical by construction), ``trace`` and ``sanitize`` (observers) —
#: is deliberately excluded, so a cached result can serve requests that
#: differ only in how the answer would have been computed or observed.
CACHE_KEY_FIELDS = (
    "matching",
    "initial",
    "refinement",
    "coarsen_to",
    "coarsen_stall_ratio",
    "max_coarsen_levels",
    "ggp_trials",
    "gggp_trials",
    "kl_early_exit",
    "max_kl_passes",
    "ubfactor",
    "bklgr_boundary_fraction",
    "eager_gains",
    "gain_table",
    "seed",
    "deadline",
    "max_init_retries",
)


def cache_key_payload(options: MultilevelOptions) -> dict:
    """Stable, JSON-able serialization of the partition-relevant options.

    This is the options half of the content-addressed result-cache key
    (:mod:`repro.service.cache`): two options objects map to the same
    payload exactly when they are guaranteed to produce bit-identical
    partitions on the same graph.  Fields that defer to environment
    variables (``kernels`` → ``REPRO_KERNELS``, ``faults`` →
    ``REPRO_FAULTS``) are resolved here, because the ambient value changes
    the result bits just as surely as the explicit one.  Enum fields
    serialize as their string values; key order is fixed by
    :data:`CACHE_KEY_FIELDS`.
    """
    payload = {}
    for name in CACHE_KEY_FIELDS:
        value = getattr(options, name)
        if isinstance(value, Enum):
            value = value.value
        payload[name] = value
    kernels = options.kernels
    if kernels is None:
        kernels = os.environ.get("REPRO_KERNELS", "").strip() or None
    payload["kernels"] = kernels
    faults = options.faults
    if faults is None:
        faults = os.environ.get("REPRO_FAULTS", "").strip() or None
    payload["faults"] = faults
    return payload
