"""Kernel backend registry for the three hot phases (docs/PERFORMANCE.md).

The multilevel pipeline spends essentially all of its time in three
kernels — matching (CTime), FM gain maintenance (RTime) and graph
contraction (CTime) — and the engineering follow-ups to the source paper
(arXiv:1012.0006, arXiv:0910.2004) show that these constant factors are
where multilevel partitioners win or lose.  This package is a registry
of named **backends**, each providing some subset of the phase kernels:

``loop``
    The bit-exact reference implementations in :mod:`repro.core` /
    :mod:`repro.graph`: scalar-scan matching, the scalar-scan FM pass and
    the single-sort contraction.  Always available, always the default, and
    the only backend whose output reproduces the paper's published runs
    bit-for-bit.
``numba``
    Optional ``@njit`` kernels for the FM inner loop (bucket gain
    arrays), matching, contraction and the k-way boundary sweep.
    Requires the ``numba`` package; detected by an import probe and
    never imported at module top level (lint rule RP017).

Selection is resolved **once per driver entry** by
:func:`resolve_kernels`, with precedence ``options.kernels`` >
``REPRO_KERNELS`` > ``loop``; it is the only way to pick a kernel.  A
backend that is unavailable — or that has no kernel for a phase — falls
back along its declared chain (``numba`` → ``loop``) *per phase*, so
``numba`` without numba installed runs ``loop`` everywhere and returns
its bits.  Every fallback decision is recorded on the returned
:class:`KernelSelection` so it can surface in ``repro.obs`` spans and in
``MultilevelResult.kernels``.

The backend module itself (``repro.kernels.numba_backend``) is
implementation detail: the rest of ``src/repro`` must reach it through
this registry (enforced by RP017).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.utils.errors import ConfigurationError

__all__ = [
    "PHASES",
    "BACKENDS",
    "ENV_VAR",
    "KernelChoice",
    "KernelSelection",
    "requested_backend",
    "resolve_kernels",
    "kway_kernel",
    "numba_available",
    "register_backend",
]

#: The hot phases the registry dispatches.
PHASES = ("matching", "fm", "contract")

#: The built-in backend names: the values ``options.kernels`` and
#: ``--kernels`` accept.  ``REPRO_KERNELS`` also takes any backend
#: registered at runtime via :func:`register_backend`.
BACKENDS = ("loop", "numba")

#: Environment knob consulted when ``options.kernels`` is unset.
ENV_VAR = "REPRO_KERNELS"


@dataclass(frozen=True)
class _Backend:
    """One registered backend: probe, fallback target, phase loaders."""

    name: str
    fallback: str | None
    probe: object  #: () -> bool; availability check, cheap after first call
    loaders: dict  #: phase -> () -> kernel callable (lazy imports live here)


_BACKENDS: dict[str, _Backend] = {}
_KERNEL_CACHE: dict[tuple[str, str], object] = {}


def register_backend(name, loaders, *, probe=None, fallback="loop") -> None:
    """Register (or replace) a backend.

    Parameters
    ----------
    name:
        Backend name as accepted by ``--kernels`` / ``REPRO_KERNELS``.
    loaders:
        ``phase -> zero-arg loader`` returning the kernel callable; the
        loader runs lazily so optional dependencies are only imported
        when the backend is actually selected.  Kernel signatures:
        ``matching(graph, scheme, rng, cewgt)``,
        ``fm(graph, where, pwgts, maxpwgt, cut, **fm_pass_kwargs)``,
        ``contract(graph, cmap, ncoarse)``.  A backend may additionally
        provide a ``"kway"`` loader (boundary-sweep kernel) consulted by
        :func:`kway_kernel`.
    probe:
        Optional availability check; ``None`` means always available.
    fallback:
        Backend to try next when this one is unavailable or lacks a
        phase kernel (``None`` only for the terminal ``loop`` backend).
    """
    _BACKENDS[name] = _Backend(
        name=name,
        fallback=fallback,
        probe=probe if probe is not None else (lambda: True),
        loaders=dict(loaders),
    )
    for key in list(_KERNEL_CACHE):
        if key[0] == name:
            del _KERNEL_CACHE[key]


def numba_available() -> bool:
    """Import probe for the optional ``numba`` dependency (cached)."""
    from repro.kernels import numba_backend

    return numba_backend.available()


@dataclass(frozen=True)
class KernelChoice:
    """The resolved backend for one phase.

    ``reason`` is ``None`` when the requested backend was selected
    directly, otherwise a human-readable chain of the fallback decisions
    (e.g. ``"numba unavailable (no module named 'numba')"``).
    """

    phase: str
    requested: str
    selected: str
    reason: str | None = None


@dataclass(frozen=True)
class KernelSelection:
    """Per-phase backend choices for one driver entry.

    Resolved once by :func:`resolve_kernels` and threaded down through
    the phase drivers, so the hot loops never re-read environment
    variables or re-probe imports.
    """

    requested: str
    choices: tuple

    def _choice(self, phase: str) -> KernelChoice:
        for choice in self.choices:
            if choice.phase == phase:
                return choice
        raise ConfigurationError(f"unknown kernel phase {phase!r}")

    def backend(self, phase: str) -> str:
        """Name of the backend selected for ``phase``."""
        return self._choice(phase).selected

    def kernel(self, phase: str):
        """The kernel callable selected for ``phase`` (loaded lazily)."""
        choice = self._choice(phase)
        return _load(choice.selected, phase)

    def as_dict(self) -> dict:
        """JSON-able summary for spans and ``MultilevelResult.kernels``.

        ``{"requested": ..., "<phase>": "<backend>", ...}`` plus a
        ``"fallbacks"`` map (phase → reason) when any phase fell back.
        """
        out = {"requested": self.requested}
        fallbacks = {}
        for choice in self.choices:
            out[choice.phase] = choice.selected
            if choice.reason:
                fallbacks[choice.phase] = choice.reason
        if fallbacks:
            out["fallbacks"] = fallbacks
        return out


def _load(backend: str, phase: str):
    key = (backend, phase)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = _BACKENDS[backend].loaders[phase]()
        _KERNEL_CACHE[key] = kernel
    return kernel


def _select(phase: str, requested: str) -> KernelChoice:
    """Walk the fallback chain until a usable backend is found."""
    name = requested
    reasons: list[str] = []
    while name is not None:
        backend = _BACKENDS.get(name)
        if backend is None:
            raise ConfigurationError(
                f"unknown kernel backend {name!r}; expected one of "
                f"{', '.join(sorted(_BACKENDS))}"
            )
        if not backend.probe():
            reasons.append(f"{name} unavailable")
            name = backend.fallback
            continue
        if phase not in backend.loaders:
            reasons.append(f"{name} has no {phase} kernel")
            name = backend.fallback
            continue
        return KernelChoice(
            phase=phase,
            requested=requested,
            selected=name,
            reason="; ".join(reasons) or None,
        )
    raise ConfigurationError(
        f"no backend provides a {phase!r} kernel (requested {requested!r})"
    )


def requested_backend(options=None, env=None) -> str | None:
    """The backend ``options.kernels`` or ``REPRO_KERNELS`` asks for, or ``None``."""
    if options is not None and getattr(options, "kernels", None):
        return options.kernels
    environ = env if env is not None else os.environ
    return environ.get(ENV_VAR, "").strip() or None


def resolve_kernels(options=None, env=None) -> KernelSelection:
    """Resolve the per-phase backend selection for one driver entry.

    Precedence: ``options.kernels`` > the ``REPRO_KERNELS`` environment
    variable > ``loop`` everywhere.
    """
    requested = requested_backend(options, env) or "loop"
    if requested not in _BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {requested!r}; expected one of "
            f"{', '.join(sorted(_BACKENDS))}"
        )
    return KernelSelection(
        requested=requested,
        choices=tuple(_select(phase, requested) for phase in PHASES),
    )


def kway_kernel(selection: KernelSelection):
    """Boundary-sweep kernel for the selected ``fm`` backend, or ``None``.

    ``None`` means the caller should run its reference Python sweep (the
    ``loop`` implementation lives inline in
    :mod:`repro.core.kway_refine`).
    """
    backend = _BACKENDS[selection.backend("fm")]
    if "kway" not in backend.loaders:
        return None
    return _load(backend.name, "kway")


# --------------------------------------------------------------------------
# Built-in backends.  Loaders import lazily: the reference modules are part
# of the normal import graph anyway, but numba_backend must only be touched
# once its probe has passed (RP017).

def _load_loop_matching():
    from repro.core.matching import compute_matching

    return compute_matching


def _load_loop_fm():
    from repro.core.refine import fm_pass

    return fm_pass


def _load_loop_contract():
    from repro.graph.contract import contract

    return contract


def _load_numba_matching():
    from repro.kernels import numba_backend

    return numba_backend.matching_numba


def _load_numba_fm():
    from repro.kernels import numba_backend

    return numba_backend.fm_pass_numba


def _load_numba_contract():
    from repro.kernels import numba_backend

    return numba_backend.contract_numba


def _load_numba_kway():
    from repro.kernels import numba_backend

    return numba_backend.kway_sweep_numba


register_backend(
    "loop",
    {
        "matching": _load_loop_matching,
        "fm": _load_loop_fm,
        "contract": _load_loop_contract,
    },
    fallback=None,
)

register_backend(
    "numba",
    {
        "matching": _load_numba_matching,
        "fm": _load_numba_fm,
        "contract": _load_numba_contract,
        "kway": _load_numba_kway,
    },
    probe=numba_available,
)
