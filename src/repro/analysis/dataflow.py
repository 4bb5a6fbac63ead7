"""Dataflow checkers over the project model: RP012 … RP016 and RP018.

Four checker families, all built on the :mod:`~repro.analysis.project`
symbol table and the :mod:`~repro.analysis.callgraph` call graph:

**dtype/overflow lattice (RP012, RP013).**  The pipeline's correctness
contract is that vertex/edge weights, part weights, gains and cuts are
*exact int64 arithmetic* — ``np.bincount(..., weights=...)`` accumulates
in float64 and silently rounds once a partial sum exceeds 2**53 (the bug
class PR 4 fixed by hand in ``part_weights``).  A small abstract
interpreter assigns every expression a lattice value ``(dtype, weight)``
where ``dtype ∈ {int, float, unknown}`` and ``weight`` marks data that
originated from a weight array (``vwgt``/``adjwgt``/``pwgts``/gains/cuts,
by name).  RP012 flags float64 *accumulation* of integer weight data that
is not dominated by an explicit 2**53 exact-limit guard; RP013 flags
*narrowing or precision-losing casts* (``.astype(np.int32)``,
``.astype(float)``) and float-dtype allocation of weight accumulators.

**RNG determinism (RP014).**  Two whole-program checks: a project call
site that omits the ``rng`` argument of a function whose body converts a
missing ``rng`` into fresh entropy (``as_generator(rng)`` with default
``None``) severs the seed thread — results stop responding to ``seed=``;
and no unseeded / legacy / stdlib randomness may be reachable from the
process-pool worker entry points, where it would break ``workers=N``
bit-exactness.

**worker purity (RP015, RP016).**  A race detector for the ``workers=N``
fan-out: every function reachable from a pool branch entry point
(``submit``/``partial`` targets) must not mutate module-level state
(RP015) or ambient process state — ``os.environ``, ``os.chdir``, global
seeding (RP016).  Such mutations are applied in a pool worker's copy of
the interpreter under ``workers=N`` but in the driver's under
``workers=1``, so the two configurations silently diverge.

**worker exception hygiene (RP018).**  Everything a pool branch raises
travels back through the executor's pickled result pipe.  A builtin
exception punches a hole in the ``except ReproError`` contract the
supervisor relies on; a project exception whose ``__init__`` has
required keyword-only parameters and whose class chain defines no
``__reduce__`` cannot be unpickled at all — the default reduction
re-calls ``cls(*args)`` and the parent sees a broken pool instead of
the library error.  RP018 flags both in worker-reachable code.

Findings carry a **call-path trace** (``partition → _recurse →
part_weights``) computed from the call graph, rendered in the text and
JSON reports.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import ProjectRule

__all__ = [
    "DATAFLOW_RULES",
    "ExactAccumulationRule",
    "NarrowingCastRule",
    "RngThreadRule",
    "WorkerPurityRule",
    "WorkerAmbientStateRule",
    "WorkerExceptionRule",
    "BUILTIN_EXCEPTIONS",
    "PROTOCOL_EXCEPTIONS",
    "is_weight_name",
]

# --------------------------------------------------------------------------
# Shared exception model (also used by RP005 in rules.py).

#: Builtins that legitimately signal *programming* errors per Python
#: protocol (attribute lookup, argument types, abstract methods) and are
#: therefore exempt from RP005 and RP018.
PROTOCOL_EXCEPTIONS = frozenset(
    {"TypeError", "AttributeError", "NotImplementedError", "StopIteration"}
)

#: Builtin exception names whose raise sites RP005 (per-file) and RP018
#: (worker-reachable code) flag.
BUILTIN_EXCEPTIONS = frozenset(
    {
        "ArithmeticError",
        "AssertionError",
        "BaseException",
        "BufferError",
        "EOFError",
        "Exception",
        "FileExistsError",
        "FileNotFoundError",
        "FloatingPointError",
        "IOError",
        "IndexError",
        "KeyError",
        "LookupError",
        "MemoryError",
        "NameError",
        "OSError",
        "OverflowError",
        "PermissionError",
        "RecursionError",
        "ReferenceError",
        "RuntimeError",
        "SystemError",
        "UnboundLocalError",
        "ValueError",
        "ZeroDivisionError",
    }
)

# --------------------------------------------------------------------------
# Shared RNG API model (also used by RP001 in rules.py).

#: ``np.random`` attributes that are part of the seeded Generator API; any
#: other attribute is the legacy global-state API and non-deterministic.
SEEDED_RANDOM_API = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


def is_np_random(node) -> bool:
    """Whether ``node`` is the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


# --------------------------------------------------------------------------
# The dtype/weight lattice.

INT = "int"
FLOAT = "float"
UNKNOWN = "unknown"

#: Identifier tokens that mark weight/gain/cut data (exact-int contract).
_WEIGHT_TOKENS = frozenset(
    {
        "vwgt",
        "cvwgt",
        "adjwgt",
        "cewgt",
        "ewgt",
        "wgt",
        "wgts",
        "weight",
        "weights",
        "pwgt",
        "pwgts",
        "wdeg",
        "gain",
        "gains",
        "cut",
        "cuts",
        "mincut",
        "maxcut",
        "edgecut",
    }
)

#: Functions known to return exact int64 weight data.
_EXACT_WEIGHT_FUNCS = frozenset(
    {"exact_weight_bincount", "part_weights", "total_vwgt", "total_adjwgt"}
)

_TOKEN_SPLIT_RE = re.compile(r"[_\d]+")

#: dtype tokens considered *exact and wide enough* for weight data.
_WIDE_INT_TOKENS = frozenset({"int64", "uint64", "int", "intp", "int_", "i8", "object"})

_INT_DTYPE_TOKENS = frozenset(
    {
        "int8", "int16", "int32", "int64", "intp", "int_", "int",
        "uint8", "uint16", "uint32", "uint64", "bool", "bool_",
        "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8",
    }
)
_FLOAT_DTYPE_TOKENS = frozenset(
    {"float16", "float32", "float64", "float_", "float", "double",
     "f2", "f4", "f8", "longdouble"}
)

#: Packages where the exact-integer weight contract applies.  The spectral
#: and linear-algebra layers do genuine float math on the same arrays and
#: are out of scope.
EXACT_PACKAGES = frozenset({"core", "graph", "ordering", "parallel", "analysis"})


def is_weight_name(name: str) -> bool:
    """Whether an identifier names weight/gain/cut data."""
    return any(
        tok in _WEIGHT_TOKENS for tok in _TOKEN_SPLIT_RE.split(name.lower()) if tok
    )


class Abstract:
    """One lattice value: a dtype class plus a weight-origin flag."""

    __slots__ = ("dtype", "weight")

    def __init__(self, dtype=UNKNOWN, weight=False):
        self.dtype = dtype
        self.weight = weight

    def join(self, other) -> "Abstract":
        if self.dtype == other.dtype:
            dtype = self.dtype
        elif FLOAT in (self.dtype, other.dtype):
            dtype = FLOAT
        else:
            dtype = UNKNOWN
        return Abstract(dtype, self.weight or other.weight)


_UNKNOWN = Abstract()


def _dtype_token(node) -> str | None:
    """Canonical dtype token of a dtype-valued expression, or ``None``."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        return None
    lowered = name.lower()
    if lowered in _INT_DTYPE_TOKENS or lowered in _FLOAT_DTYPE_TOKENS:
        return lowered
    # Repo convention: WEIGHT_DTYPE is int64, INDEX_DTYPE is int32.
    if "weight_dtype" in lowered:
        return "int64"
    if "index_dtype" in lowered:
        return "int32"
    return None


def _dtype_class(token: str | None) -> str:
    if token is None:
        return UNKNOWN
    if token in _FLOAT_DTYPE_TOKENS:
        return FLOAT
    return INT


def _call_attr(call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _keyword(call, name):
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _bincount_weights(call):
    """The ``weights=`` operand of a ``bincount`` call, or ``None``."""
    kw = _keyword(call, "weights")
    if kw is not None:
        return kw
    if len(call.args) >= 2:
        return call.args[1]
    return None


class Lattice:
    """Per-function abstract environments, computed once and cached."""

    def __init__(self):
        self._cache: dict[int, dict] = {}

    def env_of(self, func_node) -> dict:
        """name → :class:`Abstract` for ``func_node`` (``None`` → empty)."""
        key = id(func_node)
        if key not in self._cache:
            self._cache[key] = self._build(func_node)
        return self._cache[key]

    def _build(self, func_node) -> dict:
        env: dict[str, Abstract] = {}
        if func_node is None:
            return env
        a = func_node.args
        for p in (*a.posonlyargs, *a.args, *a.kwonlyargs):
            if is_weight_name(p.arg):
                env[p.arg] = Abstract(INT, True)
        # Flow-insensitive pass: last assignment wins.  Precise enough for
        # lint — the rules anchor on the offending expression itself.
        for node in ast.walk(func_node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    env[target.id] = self.infer(node.value, env)
                elif isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name) and is_weight_name(elt.id):
                            env.setdefault(elt.id, Abstract(INT, True))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    env[node.target.id] = self.infer(node.value, env)
        return env

    def infer(self, node, env) -> Abstract:
        """Lattice value of expression ``node`` under ``env``."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if is_weight_name(node.id):
                return Abstract(INT, True)
            return _UNKNOWN
        if isinstance(node, ast.Attribute):
            if is_weight_name(node.attr):
                return Abstract(INT, True)
            return _UNKNOWN
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Abstract(INT)
            if isinstance(node.value, int):
                return Abstract(INT)
            if isinstance(node.value, float):
                return Abstract(FLOAT)
            return _UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand, env)
        if isinstance(node, ast.BinOp):
            left = self.infer(node.left, env)
            right = self.infer(node.right, env)
            joined = left.join(right)
            if isinstance(node.op, ast.Div):
                # A quotient of weights is a ratio/index, not a weight.
                return Abstract(FLOAT, False)
            if isinstance(node.op, (ast.FloorDiv, ast.Mod)):
                return Abstract(joined.dtype, False)
            return joined
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return Abstract(INT)
        if isinstance(node, ast.Subscript):
            return self.infer(node.value, env)
        if isinstance(node, ast.IfExp):
            return self.infer(node.body, env).join(self.infer(node.orelse, env))
        if isinstance(node, ast.Call):
            return self._infer_call(node, env)
        return _UNKNOWN

    def _infer_call(self, call, env) -> Abstract:
        attr = _call_attr(call)
        if attr == "astype" and call.args:
            src = self.infer(call.func.value, env)
            return Abstract(_dtype_class(_dtype_token(call.args[0])), src.weight)
        if attr in ("asarray", "array", "ascontiguousarray") and call.args:
            src = self.infer(call.args[0], env)
            dtype = _keyword(call, "dtype")
            if dtype is not None:
                return Abstract(_dtype_class(_dtype_token(dtype)), src.weight)
            return src
        if attr == "bincount":
            weights = _bincount_weights(call)
            if weights is None:
                return Abstract(INT)
            return Abstract(FLOAT, self.infer(weights, env).weight)
        if attr in ("zeros", "ones", "empty", "full"):
            dtype = _keyword(call, "dtype")
            if dtype is None and attr == "full" and len(call.args) >= 2:
                return self.infer(call.args[1], env)
            if dtype is None:
                return Abstract(FLOAT)
            return Abstract(_dtype_class(_dtype_token(dtype)))
        if attr in ("zeros_like", "ones_like", "empty_like", "full_like") and call.args:
            dtype = _keyword(call, "dtype")
            if dtype is not None:
                return Abstract(
                    _dtype_class(_dtype_token(dtype)),
                    self.infer(call.args[0], env).weight,
                )
            return self.infer(call.args[0], env)
        if attr == "where" and len(call.args) == 3:
            return self.infer(call.args[1], env).join(self.infer(call.args[2], env))
        if attr in ("sum", "cumsum", "reduce", "reduceat", "dot", "min", "max",
                    "minimum", "maximum", "abs", "clip", "diff", "repeat",
                    "concatenate", "add"):
            dtype = _keyword(call, "dtype")
            if dtype is not None:
                operand = (
                    self.infer(call.args[0], env)
                    if call.args
                    else (self.infer(call.func.value, env)
                          if isinstance(call.func, ast.Attribute) else _UNKNOWN)
                )
                return Abstract(_dtype_class(_dtype_token(dtype)), operand.weight)
            if isinstance(call.func, ast.Attribute) and not call.args:
                return self.infer(call.func.value, env)  # e.g. ``w.sum()``
            if call.args:
                out = self.infer(call.args[0], env)
                for arg in call.args[1:]:
                    out = out.join(self.infer(arg, env))
                return out
            return _UNKNOWN
        if attr in ("int", "round", "len"):
            src = self.infer(call.args[0], env) if call.args else _UNKNOWN
            return Abstract(INT, src.weight)
        if attr == "float":
            src = self.infer(call.args[0], env) if call.args else _UNKNOWN
            return Abstract(FLOAT, src.weight)
        if attr in _EXACT_WEIGHT_FUNCS:
            return Abstract(INT, True)
        return _UNKNOWN


# --------------------------------------------------------------------------
# Guard detection for RP012.

def _mentions_exact_limit(test_node) -> bool:
    """Whether an ``if`` test references the 2**53 float64-exact bound."""
    for inner in ast.walk(test_node):
        if isinstance(inner, (ast.Name, ast.Attribute)):
            name = inner.id if isinstance(inner, ast.Name) else inner.attr
            lowered = name.lower()
            if "exact" in lowered and "limit" in lowered:
                return True
        if isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Pow):
            left, right = inner.left, inner.right
            if (
                isinstance(left, ast.Constant) and left.value == 2
                and isinstance(right, ast.Constant) and right.value == 53
            ):
                return True
        if isinstance(inner, ast.Constant) and inner.value == 2**53:
            return True
    return False


def _has_exact_guard(module, node) -> bool:
    for anc in module.ancestors(node):
        if isinstance(anc, (ast.If, ast.IfExp)) and _mentions_exact_limit(anc.test):
            return True
    return False


# --------------------------------------------------------------------------
# Shared whole-program plumbing.

def _in_scope(module, packages=EXACT_PACKAGES) -> bool:
    return bool(packages.intersection(module.parts))


def _enclosing_function(module, node):
    for anc in module.ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc
    return None


def _qualname_of_node(project, module, func_node) -> str | None:
    if func_node is None:
        return None
    for info in module.functions.values():
        if info.node is func_node:
            return info.qualname
    return None


def _trace_for(ctx, module, func_node) -> tuple:
    """Entry→function display path for the function containing a finding."""
    qual = _qualname_of_node(ctx.project, module, func_node)
    if qual is None:
        return ()
    path = ctx.graph.display_path(qual)
    return tuple(path) if len(path) > 1 else ()


def _source_snippet(module, node, limit=40) -> str:
    try:
        text = ast.unparse(node)
    except (ValueError, AttributeError):  # pragma: no cover
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 1] + "…"


# --------------------------------------------------------------------------
# RP012 — float64 accumulation of integer weight data.

class ExactAccumulationRule(ProjectRule):
    """RP012 — integer weight data must not be accumulated in float64.

    ``np.bincount(..., weights=...)`` always sums in float64; on int64
    weight data every partial sum above 2**53 silently rounds, which is
    how ``part_weights`` mis-counted part weights on heavy graphs before
    PR 4.  In the exact-arithmetic packages (``core/``, ``graph/``,
    ``ordering/``, ``parallel/``, ``analysis/``) this rule flags:

    * ``np.bincount`` with a weight-typed ``weights=`` operand that is not
      dominated by an explicit 2**53 exact-limit guard (use
      :func:`repro.graph.partition.exact_weight_bincount`);
    * ``+=`` accumulation of a float-typed value into a weight-named
      variable.

    Findings carry the call path from a driver entry point so the report
    reads "float64 reaches ``part_weights`` via ``kway_refine →
    part_weights``".
    """

    id = "RP012"
    name = "exact-accumulation"
    doc = (
        "In `core/`/`graph/`/`ordering/`/`parallel/`/`analysis/`, no "
        "`np.bincount(..., weights=<int weight data>)` outside an explicit "
        "2**53 exact-limit guard (float64 accumulation rounds above 2**53 — "
        "use `exact_weight_bincount`), and no `+=` of a float value into a "
        "weight/gain/cut variable. Findings carry the driver call path."
    )

    def check_project(self, ctx):
        lattice = Lattice()
        for module in ctx.project.modules.values():
            if not _in_scope(module):
                continue
            for call in module.by_type(ast.Call):
                if _call_attr(call) != "bincount":
                    continue
                weights = _bincount_weights(call)
                if weights is None:
                    continue
                func = _enclosing_function(module, call)
                env = lattice.env_of(func)
                abstract = lattice.infer(weights, env)
                # Only *definitely integer* weight data: float-typed or
                # unknown operands (e.g. weighted float coordinates) are
                # genuine float math, not the overflow bug class.
                if not abstract.weight or abstract.dtype != INT:
                    continue
                if _has_exact_guard(module, call):
                    continue
                yield ctx.finding(
                    module,
                    call,
                    self.id,
                    "np.bincount float64-accumulates integer weight data "
                    f"{_source_snippet(module, weights)!r}; partial sums "
                    "round above 2**53 — use exact_weight_bincount or guard "
                    "with the float64 exact limit",
                    trace=_trace_for(ctx, module, func),
                )
            for node in module.by_type(ast.AugAssign):
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                if not (
                    isinstance(node.target, ast.Name)
                    and is_weight_name(node.target.id)
                ):
                    continue
                func = _enclosing_function(module, node)
                env = lattice.env_of(func)
                if lattice.infer(node.value, env).dtype != FLOAT:
                    continue
                yield ctx.finding(
                    module,
                    node,
                    self.id,
                    f"float value accumulated into weight variable "
                    f"{node.target.id!r}; weight/gain/cut arithmetic must "
                    "stay exact int64",
                    trace=_trace_for(ctx, module, func),
                )


# --------------------------------------------------------------------------
# RP013 — narrowing / precision-losing casts on weight data.

#: dtype tokens a weight array may be cast to without losing exactness.
_SAFE_WEIGHT_TOKENS = _WIDE_INT_TOKENS


class NarrowingCastRule(ProjectRule):
    """RP013 — weight data must stay int64: no narrowing/float casts.

    In the exact-arithmetic packages, a weight-typed value cast to a
    narrower integer (``int32`` truncates heavy multinode weights) or to
    any float (``float64`` loses exactness above 2**53, ``float32`` far
    earlier) re-introduces the overflow class at a single call site.
    Also flags weight-named accumulators allocated with numpy's default
    float64 dtype (``pwgts = np.zeros(k)``).
    """

    id = "RP013"
    name = "no-narrowing"
    doc = (
        "In the exact-arithmetic packages, weight/gain/cut data must stay "
        "int64: no `.astype()` / `np.asarray(dtype=)` to a narrower int or "
        "any float dtype, and no weight-named accumulator allocated with "
        "numpy's default float64 (`pwgts = np.zeros(k)`)."
    )

    def check_project(self, ctx):
        lattice = Lattice()
        for module in ctx.project.modules.values():
            if not _in_scope(module):
                continue
            for call in module.by_type(ast.Call):
                attr = _call_attr(call)
                func = _enclosing_function(module, call)
                env = lattice.env_of(func)
                if attr == "astype" and call.args:
                    src = lattice.infer(call.func.value, env)
                    token = _dtype_token(call.args[0])
                    if (
                        src.weight
                        and src.dtype != FLOAT
                        and token is not None
                        and token not in _SAFE_WEIGHT_TOKENS
                    ):
                        yield ctx.finding(
                            module,
                            call,
                            self.id,
                            f"weight data cast to {token}; weights/gains/"
                            "cuts must stay int64 (narrowing loses heavy "
                            "multinode weights, floats lose exactness)",
                            trace=_trace_for(ctx, module, func),
                        )
                elif attr in ("asarray", "array", "ascontiguousarray") and call.args:
                    dtype = _keyword(call, "dtype")
                    token = _dtype_token(dtype) if dtype is not None else None
                    src = lattice.infer(call.args[0], env)
                    if (
                        src.weight
                        and src.dtype != FLOAT
                        and token is not None
                        and token not in _SAFE_WEIGHT_TOKENS
                    ):
                        yield ctx.finding(
                            module,
                            call,
                            self.id,
                            f"weight data re-typed to {token} via np.{attr}; "
                            "weights/gains/cuts must stay int64",
                            trace=_trace_for(ctx, module, func),
                        )
            for node in module.by_type(ast.Assign):
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not (isinstance(target, ast.Name) and is_weight_name(target.id)):
                    continue
                value = node.value
                if not (
                    isinstance(value, ast.Call)
                    and _call_attr(value) in ("zeros", "ones", "empty", "full")
                ):
                    continue
                func = _enclosing_function(module, node)
                if lattice.infer(value, lattice.env_of(func)).dtype == FLOAT:
                    yield ctx.finding(
                        module,
                        node,
                        self.id,
                        f"weight accumulator {target.id!r} allocated with "
                        "float64 dtype; allocate dtype=np.int64 so "
                        "accumulation stays exact",
                        trace=_trace_for(ctx, module, func),
                    )


# --------------------------------------------------------------------------
# RP014 — RNG determinism across the call graph.

class RngThreadRule(ProjectRule):
    """RP014 — the seed thread must survive every call-graph path.

    Two whole-program checks:

    * **Severed seed thread** — a project call site that omits the ``rng``
      argument of a function whose body turns a missing ``rng`` into fresh
      entropy (``as_generator(rng)`` / ``default_rng(rng)`` with default
      ``None``).  The callee silently stops responding to the caller's
      ``seed=``; every such call must pass the threaded ``Generator``.
    * **Worker-reachable nondeterminism** — no unseeded
      ``np.random.default_rng()``, legacy ``np.random.<fn>`` global-state
      call, or stdlib ``random`` usage may be reachable from a process-pool
      branch entry point: inside the ``workers=N`` fan-out it breaks the
      bit-exactness contract with ``workers=1``.  Findings carry the
      worker→function call path.
    """

    id = "RP014"
    name = "rng-thread"
    doc = (
        "Whole-program RNG determinism: calls may not omit the `rng` "
        "argument of a function whose body converts a missing `rng` into "
        "fresh entropy (`as_generator(rng)` with default `None`), and no "
        "unseeded/legacy/stdlib randomness may be reachable from the "
        "`workers=N` process-pool entry points (reported with the call "
        "path)."
    )

    def check_project(self, ctx):
        yield from self._check_severed_threads(ctx)
        yield from self._check_worker_entropy(ctx)

    # -- severed seed threads ------------------------------------------

    def _entropy_defaulting(self, info) -> bool:
        """Whether ``info`` turns a missing ``rng`` into fresh entropy."""
        if "rng" not in info.params:
            return False
        default = info.defaults.get("rng")
        from repro.analysis.project import MISSING

        if default is MISSING or not (
            isinstance(default, ast.Constant) and default.value is None
        ):
            return False
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            attr = _call_attr(node)
            if attr not in ("as_generator", "default_rng"):
                continue
            if (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "rng"
            ):
                return True
        return False

    def _call_supplies_rng(self, site, info) -> bool:
        call = site.node
        if any(kw.arg is None for kw in call.keywords):  # **kwargs
            return True
        if any(kw.arg == "rng" for kw in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        try:
            idx = info.params.index("rng")
        except ValueError:
            return True
        return len(call.args) > idx

    def _check_severed_threads(self, ctx):
        cache: dict[str, bool] = {}
        for site in ctx.graph.call_sites:
            info = ctx.project.functions.get(site.callee)
            if info is None:
                continue
            if site.callee not in cache:
                cache[site.callee] = self._entropy_defaulting(info)
            if not cache[site.callee]:
                continue
            if self._call_supplies_rng(site, info):
                continue
            module = ctx.project.modules[site.module]
            caller_node = None
            if site.caller in ctx.project.functions:
                caller_node = ctx.project.functions[site.caller].node
            yield ctx.finding(
                module,
                site.node,
                self.id,
                f"call to {info.name}() omits rng; {info.name} falls back "
                "to fresh entropy and stops responding to the caller's "
                "seed — thread the Generator through",
                trace=_trace_for(ctx, module, caller_node),
            )

    # -- entropy reachable from workers --------------------------------

    def _entropy_sites(self, module, func_node):
        for node in ast.walk(func_node):
            if isinstance(node, ast.Attribute) and is_np_random(node.value):
                if node.attr not in SEEDED_RANDOM_API:
                    yield node, f"legacy global-state call np.random.{node.attr}"
            if isinstance(node, ast.Call):
                attr = _call_attr(node)
                if (
                    attr == "default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield node, "unseeded np.random.default_rng()"
                if attr == "urandom":
                    yield node, "os.urandom entropy"
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and module.imports.get("random") == "random"
                ):
                    yield node, f"stdlib random.{func.attr}"

    def _check_worker_entropy(self, ctx):
        reach = ctx.graph.worker_reachable()
        seen = set()
        for qual in sorted(reach):
            info = ctx.project.functions[qual]
            module = ctx.project.modules[info.module]
            for node, what in self._entropy_sites(module, info.node):
                key = (str(module.path), node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                path = ctx.graph.display_path(qual)
                yield ctx.finding(
                    module,
                    node,
                    self.id,
                    f"{what} is reachable from the workers=N process-pool "
                    "fan-out; worker results would not be bit-identical to "
                    "workers=1",
                    trace=tuple(path),
                )


# --------------------------------------------------------------------------
# RP015 / RP016 — worker purity.

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "sort", "reverse",
    }
)


def _local_names(func_node) -> set:
    """Names bound inside ``func_node`` (params, assignments, loops, withs)."""
    a = func_node.args
    names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
    if a.vararg:
        names.add(a.vararg.arg)
    if a.kwarg:
        names.add(a.kwarg.arg)
    for node in ast.walk(func_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.comprehension):
            for inner in ast.walk(node.target):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
    return names


def _walk_worker_functions(ctx):
    """Yield ``(qualname, FunctionInfo, module)`` for worker-reachable code."""
    for qual in sorted(ctx.graph.worker_reachable()):
        info = ctx.project.functions[qual]
        yield qual, info, ctx.project.modules[info.module]


class WorkerPurityRule(ProjectRule):
    """RP015 — worker-reachable code must not mutate module-level state.

    Under ``workers=N`` a branch job runs in a pool worker: any write to
    module-level state (a cache dict, a module counter, a monkeypatched
    module attribute) lands in the *worker's* interpreter and is lost,
    while under ``workers=1`` it lands in the driver's and persists.  The
    two configurations then diverge — exactly the contract
    (``workers=N`` bit-identical to ``workers=1``) PR 5 established.
    Flags, in every function reachable from a pool entry point:
    ``global`` declarations that are stored to, subscript/attribute writes
    through module-level names, in-place mutator calls
    (``.append``/``.update``/…) on module-level names, and attribute
    stores on imported modules.
    """

    id = "RP015"
    name = "worker-pure"
    doc = (
        "No function reachable from a `workers=N` pool entry point "
        "(`submit`/`partial` branch jobs) may mutate module-level state: "
        "`global` writes, subscript/attribute stores through module-level "
        "names, in-place mutator calls on module-level containers, or "
        "attribute stores on imported modules. Such writes land in the "
        "worker's interpreter under `workers=N` but the driver's under "
        "`workers=1`, silently breaking bit-exactness."
    )

    def check_project(self, ctx):
        for qual, info, module in _walk_worker_functions(ctx):
            locals_ = _local_names(info.node)
            globals_declared = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Global):
                    globals_declared.update(node.names)
            path = tuple(ctx.graph.display_path(qual))
            for node in ast.walk(info.node):
                yield from self._check_node(
                    ctx, module, node, locals_, globals_declared, path
                )

    def _module_level(self, module, name, locals_, globals_declared) -> bool:
        if name in globals_declared:
            return True
        return name in module.top_names and name not in locals_

    def _check_node(self, ctx, module, node, locals_, globals_declared, path):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if not isinstance(base, ast.Name):
                    continue
                if base is target:
                    # Bare name store: only a race if declared global.
                    if base.id in globals_declared:
                        yield ctx.finding(
                            module,
                            node,
                            self.id,
                            f"worker-reachable code writes global {base.id!r}; "
                            "the write lands in the pool worker, not the "
                            "driver — workers=N diverges from workers=1",
                            trace=path,
                        )
                elif self._module_level(module, base.id, locals_, globals_declared):
                    yield ctx.finding(
                        module,
                        node,
                        self.id,
                        f"worker-reachable code mutates module-level "
                        f"{base.id!r} in place; shared state is not "
                        "propagated back from pool workers",
                        trace=path,
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr not in _MUTATOR_METHODS:
                return
            base = node.func.value
            # Imported names are modules/functions, not mutable module
            # state (``np.sort`` returns a copy); only containers *bound*
            # at module level count.
            if (
                isinstance(base, ast.Name)
                and base.id not in module.imports
                and self._module_level(module, base.id, locals_, globals_declared)
            ):
                yield ctx.finding(
                    module,
                    node,
                    self.id,
                    f"worker-reachable code calls {base.id}.{node.func.attr}() "
                    "on module-level state; the mutation is lost in pool "
                    "workers — pass state explicitly and merge results",
                    trace=path,
                )


class WorkerAmbientStateRule(ProjectRule):
    """RP016 — worker-reachable code must not mutate ambient process state.

    Environment variables, the working directory and the global RNG seeds
    are per-process: mutated from a branch job they affect the pool
    worker under ``workers=N`` but the whole driver under ``workers=1``
    (and leak into unrelated branches there).  Flags ``os.environ``
    writes (subscript stores and mutating methods), ``os.putenv`` /
    ``os.unsetenv`` / ``os.chdir``, and global seeding
    (``np.random.seed`` / ``random.seed``) in worker-reachable functions.
    """

    id = "RP016"
    name = "worker-ambient"
    doc = (
        "No function reachable from a pool entry point may mutate ambient "
        "process state: `os.environ` writes, `os.putenv`/`os.unsetenv`/"
        "`os.chdir`, or global seeding (`np.random.seed`, `random.seed`). "
        "Per-process state diverges between the `workers=N` pool and the "
        "sequential `workers=1` path."
    )

    _OS_CALLS = frozenset({"putenv", "unsetenv", "chdir"})

    def _is_os_environ(self, node) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "environ"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )

    def check_project(self, ctx):
        for qual, info, module in _walk_worker_functions(ctx):
            path = tuple(ctx.graph.display_path(qual))
            for node in ast.walk(info.node):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Subscript) and self._is_os_environ(
                            target.value
                        ):
                            yield ctx.finding(
                                module,
                                node,
                                self.id,
                                "worker-reachable code writes os.environ; "
                                "per-process state diverges between pool "
                                "workers and the sequential path",
                                trace=path,
                            )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    attr = node.func.attr
                    base = node.func.value
                    if self._is_os_environ(base) and attr in (
                        "update", "pop", "setdefault", "clear", "__setitem__",
                    ):
                        yield ctx.finding(
                            module,
                            node,
                            self.id,
                            f"worker-reachable code mutates os.environ via "
                            f".{attr}(); ambient state diverges across pool "
                            "workers",
                            trace=path,
                        )
                    elif (
                        isinstance(base, ast.Name)
                        and base.id == "os"
                        and attr in self._OS_CALLS
                    ):
                        yield ctx.finding(
                            module,
                            node,
                            self.id,
                            f"worker-reachable code calls os.{attr}(); "
                            "ambient process state diverges across pool "
                            "workers",
                            trace=path,
                        )
                    elif attr == "seed" and (
                        is_np_random(base)
                        or (isinstance(base, ast.Name) and base.id == "random")
                    ):
                        yield ctx.finding(
                            module,
                            node,
                            self.id,
                            "worker-reachable code reseeds a global RNG; "
                            "global seeding is per-process and breaks the "
                            "workers=N bit-exactness contract",
                            trace=path,
                        )


# --------------------------------------------------------------------------
# RP018 — worker exception hygiene.

#: Resolution depth bound for base-class and re-export chains.
_MAX_CLASS_DEPTH = 10


class WorkerExceptionRule(ProjectRule):
    """RP018 — worker-raised exceptions must survive the pool result pipe.

    Everything a ``workers=N`` branch job raises is pickled by the
    executor, shipped through the result pipe, and re-raised in the
    parent — where :class:`~repro.resilience.supervisor.BranchSupervisor`
    decides whether the branch failed cleanly (a library error, re-raise
    it) or the worker died (retry, then degrade).  Two raise patterns
    break that channel:

    * a **builtin exception** escapes the ``except ReproError`` contract
      (RP005's concern), which in worker-reachable code means the
      supervisor cannot tell a library failure from worker damage;
    * a **project exception whose ``__init__`` has required keyword-only
      parameters** and whose class chain defines no ``__reduce__``
      cannot be unpickled at all: the default reduction re-calls
      ``cls(*args)``, the re-call raises ``TypeError`` inside the result
      pipe, and the parent observes a broken pool instead of the error —
      exactly how ``SanitizerError(phase=...)`` used to vanish before
      ``ReproError`` grew its ``__reduce__``.
    """

    id = "RP018"
    name = "worker-exception"
    doc = (
        "Worker-reachable code must raise exceptions that survive the "
        "pool result pipe: `ReproError` subclasses (not builtins), and "
        "never a class whose `__init__` has required keyword-only "
        "parameters without a `__reduce__` in its class chain — the "
        "default exception reduction re-calls `cls(*args)`, fails to "
        "unpickle, and the parent sees a broken pool instead of the "
        "library error."
    )

    def check_project(self, ctx):
        classes = self._class_index(ctx)
        seen = set()
        for qual, info, module in _walk_worker_functions(ctx):
            path = tuple(ctx.graph.display_path(qual))
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                expr = node.exc
                if isinstance(expr, ast.Call):
                    expr = expr.func
                key = (str(module.path), node.lineno, node.col_offset)
                if key in seen:
                    continue
                finding = self._check_raise(ctx, classes, module, node, expr, path)
                if finding is not None:
                    seen.add(key)
                    yield finding

    def _check_raise(self, ctx, classes, module, node, expr, path):
        name = expr.attr if isinstance(expr, ast.Attribute) else (
            expr.id if isinstance(expr, ast.Name) else None
        )
        if name is None:
            return None
        if name in BUILTIN_EXCEPTIONS and name not in PROTOCOL_EXCEPTIONS:
            return ctx.finding(
                module,
                node,
                self.id,
                f"worker-reachable code raises builtin {name}; a pool "
                "branch must fail with a ReproError subclass so the "
                "supervisor can tell a library error from worker damage",
                trace=path,
            )
        qual = self._class_qual(ctx, classes, expr, module)
        if qual is None or qual not in classes:
            return None
        problem = self._pickle_problem(ctx, classes, qual)
        if problem is None:
            return None
        return ctx.finding(
            module,
            node,
            self.id,
            f"worker-reachable code raises {qual.rsplit('.', 1)[-1]}, "
            f"whose __init__ requires keyword-only {problem} but whose "
            "class chain defines no __reduce__; the default exception "
            "reduction re-calls cls(*args) and fails to unpickle in the "
            "pool result pipe — the parent sees a broken pool instead "
            "of the error",
            trace=path,
        )

    @staticmethod
    def _class_index(ctx) -> dict:
        """``dotted qualname -> (ClassDef, ModuleInfo)`` for top-level classes."""
        index = {}
        for module in ctx.project.modules.values():
            for node in module.by_type(ast.ClassDef):
                if isinstance(module.parents.get(id(node)), ast.Module):
                    index[f"{module.name}.{node.name}"] = (node, module)
        return index

    def _class_qual(self, ctx, classes, expr, module):
        """Dotted qualname the raised expression refers to, or ``None``."""
        chain = []
        cur = expr
        while isinstance(cur, ast.Attribute):
            chain.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        chain.append(cur.id)
        chain.reverse()
        base = chain[0]
        if len(chain) == 1 and f"{module.name}.{base}" in classes:
            return f"{module.name}.{base}"
        target = module.imports.get(base)
        if target is None:
            return None
        return self._canonical(ctx, classes, ".".join([target] + chain[1:]))

    def _canonical(self, ctx, classes, dotted, depth=0):
        """Follow re-export chains until ``dotted`` names a class def."""
        if dotted in classes or depth > _MAX_CLASS_DEPTH or "." not in dotted:
            return dotted
        base, leaf = dotted.rsplit(".", 1)
        mod = ctx.project.modules.get(base)
        if mod is None:
            return dotted
        target = mod.imports.get(leaf)
        if target is None:
            return dotted
        return self._canonical(ctx, classes, target, depth + 1)

    def _chain(self, ctx, classes, qual, depth=0):
        """Yield ``(ClassDef, ModuleInfo)`` for ``qual`` and visible bases."""
        entry = classes.get(qual)
        if entry is None or depth > _MAX_CLASS_DEPTH:
            return
        yield entry
        node, module = entry
        for base in node.bases:
            bqual = self._class_qual(ctx, classes, base, module)
            if bqual is not None:
                yield from self._chain(ctx, classes, bqual, depth + 1)

    def _pickle_problem(self, ctx, classes, qual):
        """The required keyword-only params that break pickling, or ``None``.

        Safe when any class in the project-visible chain defines
        ``__reduce__``/``__reduce_ex__``, or when the governing
        ``__init__`` (nearest in the chain) has no required keyword-only
        parameters.  Unresolvable external bases are assumed safe.
        """
        governing_init = None
        for node, _module in self._chain(ctx, classes, qual):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in ("__reduce__", "__reduce_ex__"):
                    return None
                if item.name == "__init__" and governing_init is None:
                    governing_init = item
        if governing_init is None:
            return None
        a = governing_init.args
        required = [
            p.arg
            for p, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is None
        ]
        if not required:
            return None
        return "argument " + ", ".join(repr(n) for n in required)


#: The whole-program rule set, in id order (registered by rules.RULES).
DATAFLOW_RULES = (
    ExactAccumulationRule,
    NarrowingCastRule,
    RngThreadRule,
    WorkerPurityRule,
    WorkerAmbientStateRule,
    WorkerExceptionRule,
)
