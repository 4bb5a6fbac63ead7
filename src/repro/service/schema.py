"""Request/response schema of the partitioning service.

Requests are JSON objects.  A graph arrives either **inline** as canonical
CSR arrays::

    {"graph": {"xadj": [...], "adjncy": [...], "adjwgt": [...], "vwgt": [...]}}

(``adjwgt``/``vwgt`` optional, meaning unit weights), or as a **named
workload** from the :mod:`repro.matrices` suite::

    {"workload": {"name": "4ELT", "scale": 0.1, "seed": 0}}

``options`` may carry any :class:`~repro.core.options.MultilevelOptions`
field except ``trace`` (the service owns tracing).  Parsing failures raise
:class:`ServiceRequestError` with the HTTP status the app layer should
answer with — the library's own :class:`~repro.utils.errors.ReproError`
hierarchy maps onto 400/404 rather than leaking as a 500.

Responses are JSON-ready dicts built by :func:`partition_response` /
:func:`ordering_response`; both carry the result-cache ``key``, a
``where_sha256`` / ``perm_sha256`` digest for bit-identity checks, and the
run's :class:`~repro.resilience.report.ResilienceReport` serialized by
:func:`resilience_payload`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.options import DEFAULT_OPTIONS, MultilevelOptions
from repro.graph.csr import INDEX_DTYPE, WEIGHT_DTYPE, CSRGraph
from repro.graph.validate import checked_cast
from repro.service.cache import where_digest
from repro.utils.errors import (
    ConfigurationError,
    GraphValidationError,
    ReproError,
    UnknownWorkloadError,
)

__all__ = [
    "ServiceRequestError",
    "parse_options",
    "graph_from_request",
    "resilience_payload",
    "partition_response",
    "ordering_response",
]

#: Option fields a request may set; ``trace`` is service-owned.
_OPTION_FIELDS = tuple(
    f.name for f in dataclasses.fields(MultilevelOptions) if f.name != "trace"
)

#: Ordering methods the ``/order`` endpoint accepts.
ORDER_METHODS = ("mlnd", "mmd", "snd")

#: Inline CSR fields in ``CSRGraph`` argument order, with storage dtypes.
_CSR_DTYPES = {
    "xadj": np.int64,
    "adjncy": INDEX_DTYPE,
    "adjwgt": WEIGHT_DTYPE,
    "vwgt": WEIGHT_DTYPE,
}


class ServiceRequestError(ReproError):
    """A request cannot be served; carries the HTTP status to answer with.

    Attributes
    ----------
    status:
        HTTP status code (400 for malformed requests, 404 for unknown
        workloads/paths, 413 for oversized bodies, 503 for a saturated
        job queue).
    """

    def __init__(self, message: str, *, status: int = 400):
        self.status = status
        super().__init__(message)


def _expect_mapping(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ServiceRequestError(
            f"{what} must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def parse_options(obj) -> MultilevelOptions:
    """Build options from a request's ``options`` object (or ``None``).

    Unknown fields and invalid values are a 400, not a silent default —
    a caller who misspells ``matching`` should not get the paper default
    cached under their intended key.
    """
    if obj is None:
        return DEFAULT_OPTIONS
    obj = _expect_mapping(obj, "options")
    unknown = set(obj) - set(_OPTION_FIELDS)
    if unknown:
        raise ServiceRequestError(
            f"unknown option field(s) {sorted(unknown)}; "
            f"settable fields: {', '.join(_OPTION_FIELDS)}"
        )
    try:
        return DEFAULT_OPTIONS.with_(**obj)
    except (ConfigurationError, TypeError, ValueError) as exc:
        # TypeError: a value of the wrong type met a range check.
        raise ServiceRequestError(f"invalid options: {exc}") from exc


def _csr_from_inline(obj) -> CSRGraph:
    obj = _expect_mapping(obj, "graph")
    unknown = set(obj) - _CSR_DTYPES.keys()
    if unknown:
        raise ServiceRequestError(f"unknown graph field(s) {sorted(unknown)}")
    for required in ("xadj", "adjncy"):
        if obj.get(required) is None:
            raise ServiceRequestError(f"graph is missing {required!r}")
    try:
        arrays = [
            None if obj.get(name) is None else checked_cast(obj[name], name, dtype)
            for name, dtype in _CSR_DTYPES.items()
        ]
    except (GraphValidationError, ValueError) as exc:
        # ValueError: ragged nesting that NumPy cannot make an array of.
        raise ServiceRequestError(f"malformed CSR arrays: {exc}") from exc
    try:
        return CSRGraph(*arrays)
    except GraphValidationError as exc:
        raise ServiceRequestError(f"invalid graph: {exc}") from exc


def _csr_from_workload(obj) -> CSRGraph:
    from repro.matrices import suite

    obj = _expect_mapping(obj, "workload")
    unknown = set(obj) - {"name", "scale", "seed"}
    if unknown:
        raise ServiceRequestError(f"unknown workload field(s) {sorted(unknown)}")
    name = obj.get("name")
    if not isinstance(name, str):
        raise ServiceRequestError("workload needs a string 'name'")
    try:
        scale = float(obj.get("scale", 1.0))
        seed = int(obj.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ServiceRequestError(f"malformed workload parameters: {exc}") from exc
    try:
        return suite.load(name, scale=scale, seed=seed)
    except UnknownWorkloadError as exc:
        raise ServiceRequestError(str(exc.args[0]), status=404) from exc


def graph_from_request(body: dict) -> CSRGraph:
    """The request's graph: inline CSR arrays or a named suite workload."""
    has_inline = "graph" in body
    has_workload = "workload" in body
    if has_inline == has_workload:
        raise ServiceRequestError(
            "request needs exactly one of 'graph' (inline CSR) or "
            "'workload' (named suite matrix)"
        )
    if has_inline:
        return _csr_from_inline(body["graph"])
    return _csr_from_workload(body["workload"])


def resilience_payload(report) -> list[dict]:
    """Serialize a :class:`ResilienceReport` (or ``None``) for a response."""
    if not report:
        return []
    return [
        {
            "kind": e.kind,
            "phase": e.phase,
            "detail": e.detail,
            "level": e.level,
        }
        for e in report
    ]


def partition_response(graph, result, *, key: str) -> dict:
    """The JSON-ready body for a completed partition job.

    This is exactly what the cache stores, so a hit replays the original
    response byte-for-byte (the app layer adds only the ``cached`` flag).
    """
    return {
        "kind": "partition",
        "key": key,
        "nparts": int(result.nparts),
        "cut": int(result.cut),
        "balance": float(result.balance(graph)),
        "where": [int(p) for p in result.where],
        "where_sha256": where_digest(result.where),
        "pwgts": [int(w) for w in result.pwgts],
        "timers": {k: float(v) for k, v in (result.timers or {}).items()},
        "kernels": dict(result.kernels),
        "resilience": resilience_payload(getattr(result, "resilience", None)),
    }


def ordering_response(ordering, *, key: str, method: str) -> dict:
    """The JSON-ready body for a completed ordering job."""
    return {
        "kind": "order",
        "key": key,
        "method": method,
        "perm": [int(v) for v in ordering.perm],
        "iperm": [int(v) for v in ordering.iperm],
        "perm_sha256": where_digest(ordering.perm),
        "resilience": resilience_payload(ordering.meta.get("resilience")),
    }
