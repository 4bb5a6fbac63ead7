"""Graph file I/O.

Two formats are supported:

* the **Chaco/METIS ``.graph`` format** the 1995-era tools exchanged:
  a header line ``n m [fmt]`` followed by one line per vertex listing its
  neighbours (1-based), optionally interleaved with weights according to
  ``fmt`` (``1`` = edge weights, ``10`` = vertex weights, ``11`` = both);
* a minimal **MatrixMarket** ``coordinate`` reader that extracts the
  symmetric pattern of a matrix, which is how the paper's Harwell–Boeing
  matrices would enter the pipeline.

Both readers promise :class:`~repro.utils.errors.GraphValidationError` on
*every* malformed input — truncated files, non-numeric tokens, dangling
weight fields, asymmetric adjacency, mismatched duplicate-edge weights —
never a raw ``IndexError``/``ValueError`` leaking from the parse.
"""

from __future__ import annotations

import numpy as np

from repro.graph.build import from_edge_list
from repro.graph.csr import CSRGraph
from repro.utils.errors import GraphValidationError


def write_graph(graph: CSRGraph, path) -> None:
    """Write ``graph`` in Chaco/METIS ``.graph`` format.

    Weights are emitted only when non-trivial, choosing the smallest ``fmt``
    that represents the graph exactly.
    """
    has_vwgt = bool(np.any(graph.vwgt != 1))
    has_ewgt = bool(np.any(graph.adjwgt != 1))
    fmt = f"{int(has_vwgt)}{int(has_ewgt)}"
    with open(path, "w", encoding="ascii") as fh:
        header = f"{graph.nvtxs} {graph.nedges}"
        if fmt != "00":
            header += f" {fmt}"
        fh.write(header + "\n")
        for v in range(graph.nvtxs):
            fields = []
            if has_vwgt:
                fields.append(str(int(graph.vwgt[v])))
            nbrs = graph.neighbors(v)
            wgts = graph.neighbor_weights(v)
            for u, w in zip(nbrs, wgts):
                fields.append(str(int(u) + 1))
                if has_ewgt:
                    fields.append(str(int(w)))
            fh.write(" ".join(fields) + "\n")


def _int_fields(line, path, where):
    """Tokenize one line into ints; malformed tokens raise, never ValueError."""
    fields = []
    for tok in line.split():
        try:
            fields.append(int(tok))
        except ValueError:
            raise GraphValidationError(
                f"{path}: non-integer token {tok!r} in {where}"
            ) from None
    return fields


def read_graph(path) -> CSRGraph:
    """Read a Chaco/METIS ``.graph`` file.

    Comment lines starting with ``%`` (leading whitespace allowed) are
    skipped.  Raises :class:`GraphValidationError` on malformed input: bad
    counts, non-integer tokens, a neighbour entry missing its edge weight,
    self-loops, duplicate neighbour entries, asymmetric adjacency, and
    undirected edges whose two directed copies disagree on the weight.
    """
    with open(path, encoding="ascii") as fh:
        # Strip first so indented comment lines are still comments; keep
        # blank lines — an isolated vertex's adjacency line is empty.
        stripped = (ln.strip() for ln in fh)
        lines = [ln for ln in stripped if not ln.startswith("%")]
    while lines and not lines[0]:  # leading blank lines before the header
        lines.pop(0)
    if not lines:
        raise GraphValidationError(f"{path}: empty graph file")
    header = _int_fields(lines[0], path, "header")
    if len(header) < 2:
        raise GraphValidationError(f"{path}: header needs at least 'n m'")
    n, m = header[0], header[1]
    if n < 0 or m < 0:
        raise GraphValidationError(f"{path}: negative counts in header")
    fmt = str(header[2]) if len(header) > 2 else "00"
    fmt = fmt.zfill(2)
    if len(fmt) != 2 or any(digit not in "01" for digit in fmt):
        raise GraphValidationError(f"{path}: unsupported fmt {fmt!r} in header")
    has_vwgt = fmt[-2] == "1"
    has_ewgt = fmt[-1] == "1"
    body = lines[1:]
    # Tolerate extra trailing blank lines beyond the n adjacency lines.
    while len(body) > n and not body[-1]:
        body.pop()
    if len(body) != n:
        raise GraphValidationError(
            f"{path}: header says {n} vertices but file has {len(body)} lines"
        )
    edges = []  # (v, u) with v < u, in file order
    seen: dict[tuple[int, int], int] = {}  # directed (v, u) -> weight
    vwgt = [1] * n  # Python ints: CSRGraph refuses what int64 cannot hold
    for v, line in enumerate(body):
        fields = _int_fields(line, path, f"adjacency line of vertex {v + 1}")
        pos = 0
        if has_vwgt:
            if not fields:
                raise GraphValidationError(
                    f"{path}: vertex {v + 1} is missing its vertex weight"
                )
            vwgt[v] = fields[0]
            pos = 1
        step = 2 if has_ewgt else 1
        while pos < len(fields):
            u = fields[pos] - 1
            if has_ewgt:
                if pos + 1 >= len(fields):
                    raise GraphValidationError(
                        f"{path}: vertex {v + 1} lists neighbour {u + 1} "
                        f"without an edge weight (fmt={fmt})"
                    )
                w = fields[pos + 1]
            else:
                w = 1
            if u < 0 or u >= n:
                raise GraphValidationError(f"{path}: neighbour id {u + 1} out of range")
            if u == v:
                raise GraphValidationError(
                    f"{path}: vertex {v + 1} lists itself (self-loop)"
                )
            if (v, u) in seen:
                raise GraphValidationError(
                    f"{path}: vertex {v + 1} lists neighbour {u + 1} twice"
                )
            seen[(v, u)] = w
            if v < u:  # record each undirected edge once
                edges.append((v, u))
            pos += step
    # Symmetry sweep: every directed copy needs its mirror, and the two
    # copies of an undirected edge must agree on the weight.
    for (v, u), w in seen.items():
        mate = seen.get((u, v))
        if mate is None:
            raise GraphValidationError(
                f"{path}: asymmetric adjacency — vertex {v + 1} lists "
                f"{u + 1} but vertex {u + 1} does not list {v + 1}"
            )
        if mate != w:
            raise GraphValidationError(
                f"{path}: edge ({v + 1}, {u + 1}) has weight {w} one way "
                f"and {mate} the other"
            )
    weights = [seen[e] for e in edges]
    graph = from_edge_list(n, edges, weights, vwgt)
    if graph.nedges != m:
        raise GraphValidationError(
            f"{path}: header says {m} edges but adjacency lists give {graph.nedges}"
        )
    return graph


def read_matrix_market(path) -> CSRGraph:
    """Read the symmetric pattern of a MatrixMarket ``coordinate`` file.

    Values (if present) are ignored — the partitioner and the ordering codes
    work on the pattern, as in the paper.  The diagonal is dropped; for a
    ``general`` matrix the pattern of ``A + A^T`` is used.  Truncated files,
    non-numeric tokens and out-of-range indices raise
    :class:`GraphValidationError`.
    """
    with open(path, encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphValidationError(f"{path}: missing MatrixMarket header")
        tokens = header.lower().split()
        if "coordinate" not in tokens:
            raise GraphValidationError(f"{path}: only 'coordinate' format supported")

        def next_data_line(what):
            """The next non-blank, non-comment line, or raise on EOF."""
            for raw in fh:
                line = raw.strip()
                if line and not line.startswith("%"):
                    return line
            raise GraphValidationError(f"{path}: truncated file — missing {what}")

        size = _int_fields(next_data_line("size line"), path, "size line")
        if len(size) != 3:
            raise GraphValidationError(
                f"{path}: size line needs 'rows cols nnz', got {len(size)} fields"
            )
        rows, cols, nnz = size
        if rows != cols:
            raise GraphValidationError(f"{path}: matrix must be square, got {rows}x{cols}")
        if nnz < 0:
            raise GraphValidationError(f"{path}: negative entry count {nnz}")
        edges = set()
        for k in range(nnz):
            fields = next_data_line(f"entry {k + 1} of {nnz}").split()
            if len(fields) < 2:
                raise GraphValidationError(
                    f"{path}: entry {k + 1} needs at least 'row col'"
                )
            # Only the indices are parsed; a trailing value may be a real.
            ij = _int_fields(" ".join(fields[:2]), path, f"entry {k + 1}")
            i, j = ij[0] - 1, ij[1] - 1
            if not (0 <= i < rows and 0 <= j < rows):
                raise GraphValidationError(
                    f"{path}: entry {k + 1} index ({i + 1}, {j + 1}) out of range"
                )
            if i == j:
                continue
            edges.add((min(i, j), max(i, j)))
    return from_edge_list(rows, sorted(edges))
