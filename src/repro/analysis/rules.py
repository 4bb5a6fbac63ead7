"""The repo-specific lint rules (``RP001`` … ``RP018``).

Each rule encodes an idiom this codebase relies on for *correctness* — the
delicate incremental machinery of the multilevel pipeline fails silently
(plausible but wrong cuts) rather than loudly, so the conventions below are
load-bearing, not stylistic:

========  ============================================================
RP001     randomness must be seeded and threaded through
          :mod:`repro.utils.rng` (determinism of every experiment)
RP002     CSR arrays (``xadj``/``adjncy``/``adjwgt``/``vwgt``) are
          immutable outside ``graph/`` (algorithms share views)
RP003     no bare ``except:`` / no silently-swallowed ``except
          Exception`` (invariant violations must surface)
RP004     no ``==``/``!=`` on float literals or gain/cut values
          (cut arithmetic is exact integer arithmetic)
RP005     raised exceptions derive from ``ReproError`` (callers catch
          the library with one clause)
RP006     no ``print()`` in library code (CLI and bench excepted)
RP009     a ``ReproError`` fallback handler in ``core/``/``ordering/``
          must record the event to a ``ResilienceReport`` or re-raise
          (silent fallbacks make degraded results unauditable)
RP012     integer weight data is never accumulated in float64
          (``np.bincount(weights=...)`` rounds above 2**53)
RP013     weight data stays int64 — no narrowing or float casts
RP014     the seed thread survives every call-graph path, and no
          entropy is reachable from the ``workers=N`` pool entries
RP015     worker-reachable code never mutates module-level state
RP016     worker-reachable code never mutates ambient process state
          (``os.environ``, ``os.chdir``, global RNG seeds)
RP018     worker-reachable code raises only exceptions that survive
          the pool result pipe: ``ReproError`` subclasses, never a
          class that the default exception pickling cannot rebuild
========  ============================================================

``RP001`` … ``RP009`` are per-file rules over one module's AST;
``RP012`` … ``RP018`` are whole-program rules over the project model and
call graph (:mod:`repro.analysis.project`, :mod:`repro.analysis.dataflow`).
This table is rendered into ``docs/ANALYSIS.md`` by
:func:`repro.analysis.report.rules_markdown_table` — regenerate with
``repro lint --rules-md`` instead of editing the doc by hand.

Retired ids (RP007, RP008, RP010, RP011, RP017) are not reused: each
guarded one invariant at one site and is now a tier-1 test of it.

Suppress a deliberate exception with ``# repro: noqa[RPxxx]`` plus a
justification comment (see :mod:`repro.analysis.suppress`).
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Rule
from repro.analysis.dataflow import (
    BUILTIN_EXCEPTIONS as _BUILTIN_EXCEPTIONS,
    DATAFLOW_RULES,
    PROTOCOL_EXCEPTIONS as _PROTOCOL_EXCEPTIONS,
    SEEDED_RANDOM_API as _SEEDED_RANDOM_API,
    is_np_random as _is_np_random,
)

__all__ = ["Rule", "default_rules", "RULES", "PER_FILE_RULES"]

#: The CSR array attribute names protected by RP002.
CSR_ARRAYS = frozenset({"xadj", "adjncy", "adjwgt", "vwgt"})


def _operand_name(node):
    """Identifier of a Name/Attribute operand, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class SeededRandomRule(Rule):
    """RP001 — unseeded or literal-seeded randomness outside utils/rng.py.

    Every experiment in the paper runs with a fixed, *threaded* seed.  The
    repo idiom is: public entry points accept ``seed``/``rng`` and convert
    once via :func:`repro.utils.rng.as_generator`; internal code only ever
    receives ``Generator`` objects.  Flagged:

    * ``np.random.default_rng()`` with no argument — fresh entropy, the
      run is unreproducible;
    * ``np.random.default_rng(<literal>)`` — a hard-coded seed severs the
      caller's seed thread (results stop responding to ``seed=``);
    * any legacy ``np.random.<fn>`` global-state call (``rand``,
      ``shuffle``, ``seed``, …).
    """

    id = "RP001"
    name = "seeded-random"
    doc = (
        "No unseeded `np.random.default_rng()`, no hard-coded seed "
        "severing the caller's seed thread, no legacy `np.random.<fn>` "
        "global-state calls. Thread a Generator via "
        "`repro.utils.rng.as_generator`. In `tests/`/`benchmarks/` a "
        "literal seed is the deterministic idiom and is allowed."
    )

    #: Directories where a hard-coded literal seed *is* the deterministic
    #: idiom (a test fixture pinning its own stream) and is not flagged.
    _LITERAL_SEED_OK_DIRS = frozenset({"tests", "benchmarks", "bench"})

    def check(self, ctx):
        if len(ctx.parts) >= 2 and ctx.parts[-2:] == ("utils", "rng.py"):
            return
        literal_ok = bool(self._LITERAL_SEED_OK_DIRS.intersection(ctx.parts))
        for node in ctx.walk():
            if not isinstance(node, ast.Attribute) or not _is_np_random(node.value):
                continue
            if node.attr not in _SEEDED_RANDOM_API:
                yield ctx.finding(
                    node,
                    self.id,
                    f"legacy global-state RNG call np.random.{node.attr}; "
                    "thread a Generator via repro.utils.rng.as_generator",
                )
        for node in ctx.walk():
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "default_rng"
                and _is_np_random(node.func.value)
            ):
                continue
            if not node.args and not node.keywords:
                yield ctx.finding(
                    node,
                    self.id,
                    "unseeded np.random.default_rng(): run is not "
                    "reproducible; accept a seed/rng parameter and use "
                    "repro.utils.rng.as_generator",
                )
            elif (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and not literal_ok
            ):
                yield ctx.finding(
                    node,
                    self.id,
                    "hard-coded seed "
                    f"np.random.default_rng({node.args[0].value!r}) ignores "
                    "the caller's seed; thread a seed/rng parameter through "
                    "repro.utils.rng.as_generator",
                )


class CSRMutationRule(Rule):
    """RP002 — mutation of CSR arrays outside ``graph/``.

    ``CSRGraph`` is immutable by convention: algorithms alias its arrays
    (``xadj = graph.xadj``) and share views across hierarchy levels, so an
    in-place write anywhere corrupts every holder of the graph.  Only the
    ``graph/`` package (the constructors and the contraction kernel) may
    write to arrays named ``xadj``/``adjncy``/``adjwgt``/``vwgt``.
    """

    id = "RP002"
    name = "csr-immutable"
    doc = (
        "`CSRGraph` arrays (`xadj`/`adjncy`/`adjwgt`/`vwgt`) are shared "
        "views across hierarchy levels; only `graph/` (constructors and "
        "the contraction kernel) may write to them — everyone else builds "
        "a new graph."
    )

    def check(self, ctx):
        if "graph" in ctx.parts:
            return
        for node in ctx.walk():
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    yield from self._check_target(ctx, target)

    def _check_target(self, ctx, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_target(ctx, elt)
            return
        if isinstance(target, ast.Starred):
            yield from self._check_target(ctx, target.value)
            return
        if isinstance(target, ast.Subscript):
            name = _operand_name(target.value)
            if name in CSR_ARRAYS:
                yield ctx.finding(
                    target,
                    self.id,
                    f"in-place write to CSR array {name!r}; CSR graphs are "
                    "immutable outside graph/ — build a new graph instead",
                )
        elif isinstance(target, ast.Attribute) and target.attr in CSR_ARRAYS:
            yield ctx.finding(
                target,
                self.id,
                f"rebinding CSR attribute .{target.attr}; CSR graphs are "
                "immutable outside graph/ — construct a new CSRGraph",
            )


class ExceptionSwallowRule(Rule):
    """RP003 — bare ``except:`` or swallowed ``except Exception``.

    The sanitizer and validators communicate exclusively through
    exceptions; a handler that catches everything and does not re-raise
    turns an invariant violation into a silent wrong answer.
    """

    id = "RP003"
    name = "no-swallow"
    doc = (
        "No bare `except:` and no `except Exception` that fails to "
        "re-raise — the sanitizer and validators communicate through "
        "exceptions, and a swallowed one turns an invariant violation "
        "into a silent wrong answer."
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx):
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    node,
                    self.id,
                    "bare 'except:' swallows everything including "
                    "SanitizerError; catch a specific exception",
                )
                continue
            names = []
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            for t in types:
                name = _operand_name(t)
                if name in self._BROAD:
                    names.append(name)
            if names and not any(
                isinstance(inner, ast.Raise) for inner in ast.walk(node)
            ):
                yield ctx.finding(
                    node,
                    self.id,
                    f"'except {names[0]}' without re-raise swallows "
                    "library errors; catch a ReproError subclass or "
                    "re-raise",
                )


class FloatEqualityRule(Rule):
    """RP004 — ``==``/``!=`` against float literals or on gain/cut values.

    Edge-cut arithmetic is exact *integer* arithmetic (the paper's weights
    are integral and coarsening only sums them); a float creeping into a
    gain or cut comparison makes refinement decisions platform-dependent.
    Flagged: equality comparisons with a float literal operand, and
    equality between two operands whose names mention gain/cut (if both
    really are ints, suppress with a justified noqa).
    """

    id = "RP004"
    name = "exact-compare"
    doc = (
        "No `==`/`!=` against float literals, and no equality between "
        "gain/cut-named operands unless both are provably exact integers "
        "(suppress with a justified noqa if so) — refinement decisions "
        "must not become platform-dependent."
    )

    _KEYWORDS = ("gain", "cut")

    def check(self, ctx):
        for node in ctx.walk():
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            for operand in operands:
                if isinstance(operand, ast.Constant) and isinstance(
                    operand.value, float
                ):
                    yield ctx.finding(
                        node,
                        self.id,
                        f"equality comparison with float literal "
                        f"{operand.value!r}; cut/gain arithmetic must stay "
                        "integral (or compare with an explicit tolerance)",
                    )
                    break
            else:
                named = [
                    n
                    for n in map(_operand_name, operands)
                    if n and any(k in n.lower() for k in self._KEYWORDS)
                ]
                if len(named) >= 2:
                    yield ctx.finding(
                        node,
                        self.id,
                        f"equality comparison on gain/cut values "
                        f"({', '.join(named)}); ensure both sides are exact "
                        "integers (suppress with a justified noqa if so)",
                    )


class ErrorHierarchyRule(Rule):
    """RP005 — raised exceptions must derive from ``ReproError``.

    Callers catch everything the library may raise with one
    ``except ReproError`` clause.  Raising a builtin (``ValueError``,
    ``KeyError``, …) punches a hole in that contract.  ``TypeError``,
    ``AttributeError``, ``NotImplementedError`` and ``StopIteration`` are
    exempt: Python protocol semantics require those exact types.
    """

    id = "RP005"
    name = "error-hierarchy"
    doc = (
        "Raised exceptions derive from `ReproError` (see "
        "`repro.utils.errors`) so callers can catch the library with one "
        "clause; `TypeError`/`AttributeError`/`NotImplementedError`/"
        "`StopIteration` are exempt (Python protocol semantics)."
    )

    def check(self, ctx):
        for node in ctx.walk():
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = _operand_name(exc)
            if name in _BUILTIN_EXCEPTIONS and name not in _PROTOCOL_EXCEPTIONS:
                yield ctx.finding(
                    node,
                    self.id,
                    f"raises builtin {name}; raise a ReproError subclass "
                    "(see repro.utils.errors, e.g. ConfigurationError) so "
                    "callers can catch the library with one clause",
                )


class NoPrintRule(Rule):
    """RP006 — no ``print()`` in library code.

    Library output belongs to the caller; stray prints corrupt the CLI's
    machine-readable output and pollute pytest.  The CLI front-ends
    (``cli.py``, ``__main__.py``) and the bench/reporting layers are
    exempt — writing to stdout is their job.
    """

    id = "RP006"
    name = "no-print"
    doc = (
        "No `print()` in library code — stray output corrupts the CLI's "
        "machine-readable output. The CLI front-ends and bench/reporting "
        "layers own stdout and are exempt."
    )

    _EXEMPT_FILES = frozenset({"cli.py", "__main__.py"})
    _EXEMPT_DIRS = frozenset({"bench", "benchmarks"})

    def check(self, ctx):
        if ctx.parts and ctx.parts[-1] in self._EXEMPT_FILES:
            return
        if self._EXEMPT_DIRS.intersection(ctx.parts):
            return
        for node in ctx.walk():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    node,
                    self.id,
                    "print() in library code; return values or raise — "
                    "only cli/bench layers own stdout",
                )


#: ``ReproError`` and its subclasses — the names RP009 treats as library
#: fallback catches (mirrors :mod:`repro.utils.errors`).
_REPRO_ERRORS = frozenset(
    {
        "ReproError",
        "ConfigurationError",
        "GraphValidationError",
        "PartitionError",
        "OrderingError",
        "SpectralConvergenceError",
        "DeadlineExceededError",
        "SanitizerError",
        "TraceError",
        "UnknownWorkloadError",
    }
)


class FallbackRecordRule(Rule):
    """RP009 — fallback handlers in the pipeline must leave an audit trail.

    The resilience design (docs/RESILIENCE.md) promises that every
    degraded result says *how* it degraded: a ``ResilienceReport`` event
    for each fallback.  An ``except ReproError``-family handler inside
    ``core/`` or ``ordering/`` that neither re-raises nor calls
    ``*.record(...)`` breaks that promise — the run silently produces a
    different (worse) answer with no trace.  Handlers that re-raise (even
    conditionally) are exempt, as are modules outside the pipeline
    packages.
    """

    id = "RP009"
    name = "record-fallback"
    doc = (
        "An `except ReproError`-family handler in `core/`/`ordering/` "
        "must re-raise or call `report.record(...)` — every degraded "
        "result must say how it degraded (docs/RESILIENCE.md)."
    )

    _PACKAGES = frozenset({"core", "ordering"})

    def check(self, ctx):
        if not self._PACKAGES.intersection(ctx.parts):
            return
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            caught = [n for n in map(_operand_name, types) if n in _REPRO_ERRORS]
            if not caught:
                continue
            reraises = any(isinstance(inner, ast.Raise) for inner in ast.walk(node))
            records = any(
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "record"
                for inner in ast.walk(node)
            )
            if not reraises and not records:
                yield ctx.finding(
                    node,
                    self.id,
                    f"'except {caught[0]}' falls back without recording to a "
                    "ResilienceReport; call report.record(...) or re-raise "
                    "so degraded results stay auditable",
                )


#: The per-file rules (one module's AST at a time), in id order.
PER_FILE_RULES = (
    SeededRandomRule,
    CSRMutationRule,
    ExceptionSwallowRule,
    FloatEqualityRule,
    ErrorHierarchyRule,
    NoPrintRule,
    FallbackRecordRule,
)

#: The full rule set — per-file rules plus the whole-program dataflow
#: rules (:data:`repro.analysis.dataflow.DATAFLOW_RULES`) — in id order.
RULES = PER_FILE_RULES + DATAFLOW_RULES


def default_rules():
    """Fresh instances of every registered rule, in id order."""
    return [cls() for cls in RULES]

