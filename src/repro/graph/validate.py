"""Structural validation of CSR graphs.

A :class:`~repro.graph.csr.CSRGraph` must satisfy:

* ``xadj`` is non-decreasing, starts at 0, ends at ``len(adjncy)``;
* every adjacency entry is a valid vertex id and not a self-loop;
* the adjacency is symmetric with matching weights: edge ``(u, v, w)``
  appears in both ``u``'s and ``v``'s list with the same ``w``;
* no duplicate neighbours within one vertex's list;
* vertex weights are positive, edge weights are positive;
* weight totals fit comfortably in int64 (the cut/balance arithmetic
  accumulates them with ``np.int64`` and must never wrap).

Before any of that, the constructor passes each array through
:func:`checked_cast`, which refuses what the cast to its storage dtype
would hide: non-integer dtypes (floats truncate, strings parse) and
values outside the storage dtype (they wrap).

Validation is O(m log m) (it sorts the directed entries by one fused
integer key per direction), so internal callers skip it on graphs produced
by trusted kernels; the test suite exercises it heavily instead.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import GraphValidationError


_INT64_MAX = np.iinfo(np.int64).max


def _check_weight_sum(weights, name: str) -> None:
    """Reject weight arrays whose total could wrap int64 accumulation.

    All cut and balance arithmetic sums these arrays with ``np.int64``;
    NumPy wraps silently on overflow, so guard with the conservative bound
    ``max(w) * len(w) ≤ INT64_MAX`` (exact totals are far below it).
    """
    if not len(weights):
        return
    peak = int(np.max(weights))
    if peak > 0 and peak > _INT64_MAX // len(weights):
        raise GraphValidationError(
            f"{name} values are large enough that their sum may overflow "
            f"int64 accumulation (max={peak}, count={len(weights)})"
        )


def checked_cast(values, name: str, dtype) -> np.ndarray:
    """``values`` as a contiguous 1-D ``dtype`` array, unchanged by the cast.

    Raises :class:`GraphValidationError` for any other shape, a non-integer
    dtype or a value outside ``dtype``'s range.  An empty array passes
    whatever its dtype (``np.asarray([])`` is float64).
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise GraphValidationError(
            f"{name} must be one-dimensional, got shape {arr.shape}"
        )
    if arr.size:
        info = np.iinfo(dtype)
        if arr.dtype.kind not in "iu":
            raise GraphValidationError(
                f"{name} must hold {info.dtype} integers, got dtype {arr.dtype}"
            )
        for value in (int(arr.min()), int(arr.max())):
            if not info.min <= value <= info.max:
                raise GraphValidationError(
                    f"{name} must hold {info.dtype} integers, got {value}"
                )
    return np.ascontiguousarray(arr, dtype=dtype)


def validate_graph(graph) -> None:
    """Raise :class:`GraphValidationError` if ``graph`` is malformed."""
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt
    n = len(xadj) - 1
    if n < 0:
        raise GraphValidationError("xadj must have at least one entry")
    if xadj[0] != 0:
        raise GraphValidationError(f"xadj[0] must be 0, got {xadj[0]}")
    if xadj[-1] != len(adjncy):
        raise GraphValidationError(
            f"xadj[-1] ({xadj[-1]}) must equal len(adjncy) ({len(adjncy)})"
        )
    if np.any(np.diff(xadj) < 0):
        raise GraphValidationError("xadj must be non-decreasing")
    if len(adjwgt) != len(adjncy):
        raise GraphValidationError(
            f"adjwgt length {len(adjwgt)} != adjncy length {len(adjncy)}"
        )
    if len(vwgt) != n:
        raise GraphValidationError(f"vwgt length {len(vwgt)} != nvtxs {n}")
    if n == 0:
        return
    if len(adjncy) and (adjncy.min() < 0 or adjncy.max() >= n):
        raise GraphValidationError("adjncy contains out-of-range vertex ids")
    if np.any(vwgt <= 0):
        raise GraphValidationError("vertex weights must be positive")
    if len(adjwgt) and np.any(adjwgt <= 0):
        raise GraphValidationError("edge weights must be positive")
    _check_weight_sum(vwgt, "vwgt")
    _check_weight_sum(adjwgt, "adjwgt")

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(xadj))
    if np.any(src == adjncy):
        raise GraphValidationError("self-loops are not allowed")

    # Each directed entry (u, v) as the fused key u·n + v, below n² (which
    # fits int64 up to 3·10^9 vertices); its order is the (u, v) order.
    # Duplicate neighbours are equal neighbouring keys once sorted.
    dst = adjncy.astype(np.int64)
    key = src * n + dst
    order = np.argsort(key)
    fwd = key[order]
    dup = fwd[1:] == fwd[:-1]
    if np.any(dup):
        u, v = divmod(int(fwd[int(np.flatnonzero(dup)[0])]), n)
        raise GraphValidationError(
            f"vertex {u} has duplicate neighbour {v} in its adjacency list"
        )

    # Symmetry with matching weights: the set of (u, v, w) directed triples
    # must be invariant under swapping u and v.  The keys are distinct, so
    # the sorted forward table and the sorted table of reversed keys v·n + u
    # agree entry for entry exactly when the graph is symmetric.
    rkey = dst * n + src
    rorder = np.argsort(rkey)
    w_fwd = adjwgt[order]
    bad = (fwd != rkey[rorder]) | (w_fwd != adjwgt[rorder])
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        u, v = divmod(int(fwd[i]), n)
        raise GraphValidationError(
            "adjacency is not symmetric with equal weights: edge "
            f"({u}, {v}, w={int(w_fwd[i])}) has no matching reverse entry"
        )
