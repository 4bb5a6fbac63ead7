"""Deterministic, seeded fault injection at pipeline phase boundaries.

Fallback code is the least-tested code in any system: it only runs when
something rare goes wrong.  This module makes the rare failures
*reproducible on demand* so every declared fallback chain can be driven by
a test (and by the ``REPRO_FAULTS`` CI leg) instead of waiting for a
pathological graph in production.

Fault sites
-----------
``lanczos``
    The Fiedler solver raises
    :class:`~repro.utils.errors.SpectralConvergenceError` (simulating
    Lanczos non-convergence / a NaN eigenvector) — exercises the
    SBP → GGGP → GGP fallback chain.
``matching``
    Coarsening sees a degenerate (empty) matching and stalls — exercises
    stall detection: partition the current level instead of looping.
``initial``
    The initial bisection comes back grossly unbalanced — exercises
    validation plus bounded retry-with-reseed.
``refine``
    A level's refinement-pass budget is exhausted — exercises the
    BKLR → BGR degradation.
``deadline``
    The deadline guard expires at the next checkpoint (only consulted when
    a deadline is configured) — exercises best-so-far recovery.
``worker_crash``
    A branch shipped to a pool worker dies mid-flight (the worker process
    exits hard, breaking the pool) — exercises the supervisor's
    pool-rebuild + retry ladder (:mod:`repro.resilience.supervisor`).
``worker_hang``
    A pool worker stops making progress — exercises the parent-side
    future timeout and the retry-then-sequential degradation.
``worker_slow``
    A pool worker is slowed (but finishes) — exercises timeout tuning
    without breaking the pool.

The ``worker_*`` sites are consulted in the *parent* process, at pool
submission time, so a fault spec stays deterministic regardless of how
the OS schedules the workers.  Unlike the phase sites they do not force
sequential execution — they exist precisely to exercise the parallel
path (see :func:`worker_faults_only`).

Spec grammar
------------
Clauses separated by ``;`` or ``,``::

    spec   := clause ((";" | ",") clause)*
    clause := site [":" count] ["@" prob]  |  "seed=" int
    site   := "lanczos" | "matching" | "initial" | "refine" | "deadline"
            | "worker_crash" | "worker_hang" | "worker_slow"
    count  := positive int | "*"            (times to fire; default 1)
    prob   := float in (0, 1]               (per-consultation; default 1)

Examples: ``"lanczos"`` (first Fiedler solve fails), ``"initial:2"``
(first two initial partitions invalid), ``"refine:*@0.5;seed=7"`` (each
level's refinement budget coin-flipped away, seeded).

Activation mirrors the sanitizer (:mod:`repro.analysis.sanitize`): the
``REPRO_FAULTS`` environment variable or ``MultilevelOptions.faults``;
:func:`fault_injector` returns a falsy null object when neither is set, so
the disabled path costs one truth test per site and **zero** framework
calls.  Each driver entry (``bisect``, ``partition``, an ordering) builds
one injector and threads it through its phases, so counted clauses fire
deterministically per run.
"""

from __future__ import annotations

import math
import os
import re

from repro.utils.errors import ConfigurationError
from repro.utils.rng import as_generator

__all__ = [
    "FAULT_SITES",
    "WORKER_FAULT_SITES",
    "FaultClause",
    "FaultPlan",
    "FaultInjector",
    "NullFaultInjector",
    "parse_fault_spec",
    "fault_injector",
    "faults_enabled",
    "worker_faults_only",
    "NULL",
]

#: Environment variable holding the ambient fault spec.
ENV_VAR = "REPRO_FAULTS"

#: The injectable sites: the in-process phase boundaries plus the
#: parent-side worker-supervision sites.
FAULT_SITES = (
    "lanczos",
    "matching",
    "initial",
    "refine",
    "deadline",
    "worker_crash",
    "worker_hang",
    "worker_slow",
)

#: The sites consulted by the branch supervisor in the parent process.
#: These do not carry per-branch process-local state, so a spec made of
#: worker sites only is compatible with process-parallel fan-out.
WORKER_FAULT_SITES = frozenset({"worker_crash", "worker_hang", "worker_slow"})

_CLAUSE_RE = re.compile(
    r"^(?P<site>[a-z_]+)(?::(?P<count>\*|\d+))?(?:@(?P<prob>[0-9.eE+-]+))?$"
)


class FaultClause:
    """One parsed clause: fire at ``site`` up to ``count`` times w.p. ``prob``."""

    __slots__ = ("site", "count", "prob")

    def __init__(self, site: str, count=1, prob: float = 1.0) -> None:
        self.site = site
        self.count = count  # None = unlimited
        self.prob = prob

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        count = "*" if self.count is None else self.count
        return f"FaultClause({self.site}:{count}@{self.prob})"


class FaultPlan:
    """A parsed fault spec: clauses keyed by site, plus the RNG seed."""

    __slots__ = ("clauses", "seed", "spec")

    def __init__(self, clauses: dict, seed: int, spec: str) -> None:
        self.clauses = clauses
        self.seed = seed
        self.spec = spec


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a fault spec string; raise ``ConfigurationError`` when invalid."""
    clauses: dict[str, FaultClause] = {}
    seed = 0
    for raw in re.split(r"[;,]", spec):
        token = raw.strip().lower()
        if not token:
            continue
        if token.startswith("seed="):
            if not token[len("seed="):].isdecimal():  # a seed is never negative
                raise ConfigurationError(f"invalid fault-spec seed clause {raw!r}")
            seed = int(token[len("seed="):])
            continue
        m = _CLAUSE_RE.match(token)
        if not m:
            raise ConfigurationError(
                f"invalid fault clause {raw!r}; expected site[:count][@prob] "
                f"with site in {FAULT_SITES}"
            )
        site = m.group("site")
        if site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {site!r}; valid sites: {', '.join(FAULT_SITES)}"
            )
        count_s = m.group("count")
        count = None if count_s == "*" else int(count_s) if count_s else 1
        if count is not None and count < 1:
            raise ConfigurationError(f"fault count must be >= 1 in {raw!r}")
        prob_s = m.group("prob")
        try:
            prob = float(prob_s) if prob_s else 1.0
        except ValueError:
            raise ConfigurationError(f"invalid fault probability in {raw!r}") from None
        if not (0.0 < prob <= 1.0):
            raise ConfigurationError(
                f"fault probability must be in (0, 1], got {prob} in {raw!r}"
            )
        if site in clauses:
            raise ConfigurationError(f"duplicate fault clause for site {site!r}")
        clauses[site] = FaultClause(site, count, prob)
    if not clauses:
        raise ConfigurationError(f"fault spec {spec!r} contains no fault clauses")
    return FaultPlan(clauses, seed, spec)


class FaultInjector:
    """Stateful, seeded injector consulted by the pipeline via :meth:`trip`.

    One injector is created per driver entry and threaded through its
    phases; counted clauses therefore fire a deterministic number of times
    per run, and probabilistic clauses draw from a generator seeded by the
    spec's ``seed=`` clause (default 0) — the same spec always injects the
    same faults.
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        if isinstance(plan, str):
            plan = parse_fault_spec(plan)
        self.plan = plan
        self._rng = as_generator(plan.seed)
        self._remaining = {
            site: (math.inf if c.count is None else c.count)
            for site, c in plan.clauses.items()
        }
        #: site → number of times :meth:`trip` was called.
        self.consulted: dict[str, int] = {}
        #: site → number of times the fault actually fired.
        self.fired: dict[str, int] = {}

    def __bool__(self) -> bool:
        return True

    def trip(self, site: str) -> bool:
        """Consult the injector at ``site``; True when the fault fires."""
        self.consulted[site] = self.consulted.get(site, 0) + 1
        clause = self.plan.clauses.get(site)
        if clause is None:
            return False
        if self._remaining[site] <= 0:
            return False
        if clause.prob < 1.0 and float(self._rng.random()) >= clause.prob:
            return False
        self._remaining[site] -= 1
        self.fired[site] = self.fired.get(site, 0) + 1
        return True


class NullFaultInjector:
    """Falsy stand-in used when fault injection is disabled.

    Mirrors :class:`FaultInjector`'s surface, but call sites guard with
    ``if faults and faults.trip(site):`` so the disabled path never even
    calls :meth:`trip`.
    """

    enabled = False
    plan = None

    def __bool__(self) -> bool:
        return False

    def trip(self, site: str) -> bool:
        return False


#: Shared null singleton handed out by :func:`fault_injector` when off.
NULL = NullFaultInjector()


def worker_faults_only(faults) -> bool:
    """True when ``faults`` does not require sequential execution.

    The phase sites (``lanczos`` … ``deadline``) consult injector state
    inside the recursion, which cannot be shared with pool workers, so
    any spec containing one forces the drivers sequential.  A falsy
    injector, or one whose clauses are all ``worker_*`` sites (consulted
    only in the parent, at submission time), is safe to combine with
    process-parallel fan-out.
    """
    if not faults:
        return True
    plan = getattr(faults, "plan", None)
    if plan is None:
        return False
    return all(site in WORKER_FAULT_SITES for site in plan.clauses)


def faults_enabled() -> str | None:
    """The ambient ``REPRO_FAULTS`` spec, or ``None`` when unset/empty."""
    raw = os.environ.get(ENV_VAR, "").strip()
    return raw or None


def fault_injector(options=None):
    """Build the injector selected by ``options`` and the environment.

    ``options.faults`` (any object with a ``faults`` attribute, normally a
    :class:`~repro.core.options.MultilevelOptions`) takes precedence over
    the ``REPRO_FAULTS`` environment variable.  Returns the falsy
    :data:`NULL` singleton when neither requests injection, so disabled
    call sites perform no framework calls at all.
    """
    spec = getattr(options, "faults", None) if options is not None else None
    if spec is None:
        spec = faults_enabled()
    if not spec:
        return NULL
    return FaultInjector(parse_fault_spec(spec))
