"""Grids and the non-square operator family for metric-graph PDEs.

Both schemes share one framework: unknowns live on a per-edge *extended*
grid of N_m + 2 points, the PDE rows are collocated on an *interior* grid
of N_m points, and the 2|E| leftover rows carry the vertex conditions as
constraints.

Uniform scheme: the extended grid is staggered, x_k = (k - 1/2) h, so the
first and last points are ghost points outside the edge.  Second
differences give the interior Laplacian rows; values and outward
derivatives at an edge end are the second-order ghost-point combinations
(u_0 + u_1)/2 and (u_1 - u_0)/h.

Chebyshev scheme: the extended grid holds second-kind points (endpoints
included), the interior grid first-kind points.  The interior rows are
P D^2 where D is the spectral differentiation matrix and P the barycentric
resampling matrix from the extended to the interior grid; endpoint rows of
D provide derivatives for the vertex conditions.

Each scheme also gives, per edge end, one row for the value F and one
for the outward derivative F' (the end traces).  The vertex-condition
rows are vc_rows = A @ F + B @ F' = [A B] @ end_traces, with A and B from
MetricGraph.vertex_conditions, which also fixes the row order and the
anchor end of every vertex (see graphs.ConditionMatrices).  Interior rows
are grouped by edge in edge order.

Both schemes store every operator as a scipy CSR matrix.  A Chebyshev
edge's dense N_m x (N_m + 2) block sits inside the CSR at the edge's
offsets, so the family is block-diagonal plus 2|E| sparse constraint rows
for either scheme.  discretize makes one pass over the edges: each edge
gets its grid, its potential values and its blocks, and edges of one kind
(point count, length and potential values) share their blocks, built once
per call and added with each edge's columns shifted by its offset.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graphs import GraphError, MetricGraph, edge_coordinates

UNIFORM = "uniform"
CHEBYSHEV = "chebyshev"


class DiscretizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Chebyshev building blocks

def chebyshev_second_kind(n_interior: int, length: float) -> np.ndarray:
    """N+2 second-kind points on [0, length], ascending, endpoints included."""
    k = np.arange(n_interior + 2)
    return 0.5 * length * (1.0 - np.cos(k * np.pi / (n_interior + 1)))


def chebyshev_first_kind(n_interior: int, length: float) -> np.ndarray:
    """N first-kind points on (0, length), ascending."""
    k = np.arange(1, n_interior + 1)
    return 0.5 * length * (1.0 - np.cos((2 * k - 1) * np.pi / (2 * n_interior)))


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Weights w_k = 1 / prod_{l != k} (x_k - x_l), normalized to unit max.

    Differences are rescaled by the grid span before the product so long
    edges and fine grids cannot overflow; any common factor cancels in the
    interpolation and differentiation formulas.
    """
    scale = 4.0 / (x[-1] - x[0])
    diff = (x[:, None] - x[None, :]) * scale
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.max(np.abs(w))


def resampling_matrix(x_from: np.ndarray, x_to: np.ndarray,
                      w: np.ndarray) -> np.ndarray:
    """Barycentric map taking values on x_from to interpolated values on x_to."""
    diff = x_to[:, None] - x_from[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-14 * max(1.0, abs(x_from[-1] - x_from[0])))
    diff[exact] = 1.0
    P = w[None, :] / diff
    P /= P.sum(axis=1)[:, None]
    P[exact.any(axis=1), :] = 0.0
    P[exact] = 1.0
    return P


def differentiation_matrix(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix on arbitrary nodes via barycentric weights."""
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def clenshaw_curtis_weights(n_interior: int, length: float) -> np.ndarray:
    """Quadrature weights on the N+2 second-kind points of [0, length].

    Exact for polynomials of degree up to N+1.
    """
    n = n_interior + 1  # number of panels; nodes 0..n
    if n == 1:
        return np.array([0.5, 0.5]) * length
    j = np.arange(n + 1)
    k = np.arange(1, n // 2 + 1)
    terms = np.cos(2.0 * np.outer(j, k) * np.pi / n)  # (n+1, n/2)
    b = np.full(k.shape, 2.0)
    if n % 2 == 0:
        b[-1] = 1.0
    w = 1.0 - terms @ (b / (4.0 * k**2 - 1.0))
    w *= 2.0 / n
    w[0] *= 0.5
    w[-1] *= 0.5
    return 0.5 * length * w


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Per-edge extended/interior grids with integration weights."""

    scheme: str
    n: np.ndarray                    # interior points per edge
    x_ext: tuple[np.ndarray, ...]    # length N_m + 2 each
    x_int: tuple[np.ndarray, ...]    # length N_m each
    h: np.ndarray                    # mesh size per edge (nan for chebyshev)
    weights: tuple[np.ndarray, ...]  # aligned with x_ext


@dataclass(frozen=True, eq=False)
class OperatorBundle:
    """Operator family for one discretization of one graph.

    lap_int and interp_int map extended-grid data to interior-grid data.
    end_traces (4|E| x n_ext) gives the value at edge end j in row j and
    the outward derivative there in row 2|E| + j; vc_rows holds the 2|E|
    discretized vertex conditions, [A B] @ end_traces for the graph's
    vertex_conditions.  nh_map routes per-vertex nonhomogeneous terms to
    their constraint rows.  The square composites stack these: lap_vc =
    [lap_int; vc_rows] and interp_vc = [interp_int; vc_rows], plus
    lap_zero = [lap_int; 0] and interp_zero = [interp_int; 0], derived on
    first use.  deriv is the square per-edge first-derivative matrix (used
    in functionals only, never to enforce vertex conditions).  All of them
    are scipy CSR matrices, whatever the scheme.

    lap_ext is the square block-diagonal Laplacian on the extended grid,
    built on first use: lap_int = interp_int @ lap_ext, hence lap_zero =
    interp_zero @ lap_ext.  It imposes no vertex condition.
    """

    graph: MetricGraph
    grid: Grid
    n_int: int
    n_ext: int
    offsets: np.ndarray       # extended-grid start index per edge
    lap_int: object
    interp_int: object
    vc_rows: object
    nh_map: object
    lap_vc: object
    interp_vc: object
    deriv: object
    end_traces: object
    quad_ext: np.ndarray      # integration weights on the extended grid (no edge weights)
    potential_ext: np.ndarray
    vertex_row: np.ndarray    # global row of each vertex's flux/Dirichlet condition

    @property
    def scheme(self) -> str:
        return self.grid.scheme

    @cached_property
    def lap_ext(self):
        """Extended-grid Laplacian with lap_int = interp_int @ lap_ext.

        Uniform: interp_int is an injection, so interp_int.T @ lap_int (the
        interior rows in place, zero ghost rows) lifts lap_int exactly.
        Chebyshev: block-diag(D^2) - diag(potential), since lap_int is
        P (D^2 - diag V) per edge; equal to lap_int after P up to roundoff.
        """
        if self.scheme == UNIFORM:
            return (self.interp_int.T @ self.lap_int).tocsr()
        return (self.deriv @ self.deriv - sp.diags(self.potential_ext)).tocsr()

    @cached_property
    def lap_zero(self):
        """[lap_int; 0]: lap_int over 2|E| empty rows."""
        return _stack_rows(self.lap_int, sp.csr_matrix(self.vc_rows.shape))

    @cached_property
    def interp_zero(self):
        """[interp_int; 0]: interp_int over 2|E| empty rows."""
        return _stack_rows(self.interp_int, sp.csr_matrix(self.vc_rows.shape))

    @cached_property
    def state_csv_format(self) -> str:
        """Body format of a state CSV: each row's "edge,x," prefix filled in."""
        edge = np.repeat(np.arange(1, self.graph.num_edges + 1), self.grid.n + 2)
        x = np.concatenate(self.grid.x_ext)
        return "".join("%d,%.17g,%%.17g,%%.17g\n" % row
                       for row in zip(edge.tolist(), x.tolist()))

    def edge_slice(self, m: int) -> slice:
        o = self.offsets[m - 1]
        return slice(o, o + self.grid.n[m - 1] + 2)


def _resolve_counts(graph: MetricGraph, scheme: str) -> np.ndarray:
    density = scheme == UNIFORM and graph.nx_is_density
    n = np.array([max(2, round(e.nx * e.length)) if density else int(e.nx)
                  for e in graph.edges], dtype=int)
    minimum = 2 if scheme == UNIFORM else 3
    if np.any(n < minimum):
        raise DiscretizationError(
            f"{scheme} scheme needs at least {minimum} interior points per edge")
    return n


def _edge_grid(scheme, nm, length):
    """Mesh size (nan for Chebyshev), extended grid, interior grid and
    integration weights of one edge."""
    if scheme == CHEBYSHEV:
        return (math.nan, chebyshev_second_kind(nm, length),
                chebyshev_first_kind(nm, length), clenshaw_curtis_weights(nm, length))
    hm = length / nm
    xe = (np.arange(nm + 2) - 0.5) * hm
    wm = np.zeros(nm + 2)
    wm[1:-1] = hm
    return hm, xe, xe[1:-1], wm


def _uniform_blocks(nm, hm, pot):
    """Row groups of one uniform edge: three-point Laplacian, injection,
    centered first differences (second-order one-sided at the extremes),
    then the ghost-point end values (u_0 + u_1)/2 and outward derivatives
    (u_1 - u_0)/h, source end first."""
    left = np.arange(nm)[:, None]
    lap = np.tile(np.array([1.0, -2.0, 1.0]) / hm**2, (nm, 1))
    lap[:, 1] -= pot[1:-1]
    end = np.array([-1.5, 2.0, -0.5]) / hm
    deriv = [(np.arange(3), end[None, :]),
             (left + np.array([0, 2]), np.tile(np.array([-0.5, 0.5]) / hm, (nm, 1))),
             (nm - 1 + np.arange(3), -end[None, ::-1])]
    ends = np.array([[0, 1], [nm, nm + 1]])
    return ([(left + np.arange(3), lap)], [(left + 1, np.ones((nm, 1)))], deriv,
            [(ends, np.full((2, 2), 0.5))],
            [(ends, np.array([[-1.0, 1.0], [1.0, -1.0]]) / hm)])


def _chebyshev_blocks(D, P, pot):
    """Row groups of one Chebyshev edge: dense P D^2, P and D blocks, then
    the endpoint values and outward derivative rows of D, source end first."""
    nm = D.shape[0] - 2
    cols = np.arange(nm + 2)
    lap = P @ D @ D
    if np.any(pot != 0.0):
        lap = lap - P * pot[None, :]
    return ([(cols, lap)], [(cols, P)], [(cols, D)],
            [(np.array([[0], [nm + 1]]), np.ones((2, 1)))],
            [(cols, np.stack([D[0], -D[nm + 1]]))])


def _edge_pieces(scheme, hm, xe, xi, pot):
    """CSR pieces of the rows of lap_int, interp_int, deriv, end values and
    outward end derivatives of one kind of edge, given its mesh size, grids
    and potential values: each is (row lengths, columns counted from the
    edge's first point, values).

    A row group (cols, vals) is a run of rows with the same number of
    entries: vals has shape (rows, entries per row), cols broadcasts to it.
    """
    if scheme == UNIFORM:
        groups = _uniform_blocks(len(xi), hm, pot)
    else:
        w = barycentric_weights(xe)
        groups = _chebyshev_blocks(differentiation_matrix(xe, w),
                                   resampling_matrix(xe, xi, w), pot)
    return [(np.concatenate([np.full(v.shape[0], v.shape[1]) for _, v in g]),
             np.concatenate([np.broadcast_to(c, v.shape).ravel() for c, v in g]),
             np.concatenate([v.ravel() for _, v in g])) for g in groups]


def _csr_from_pieces(pieces, offsets, shape):
    """CSR matrix whose rows are the pieces stacked in order, the columns
    of each shifted by its offset."""
    counts, cols, vals = zip(*pieces)
    shift = np.repeat(offsets, [len(c) for c in cols])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sp.csr_matrix((np.concatenate(vals), np.concatenate(cols) + shift, indptr),
                         shape=shape)


def _stack_rows(top, bottom):
    """CSR [top; bottom] of two CSR matrices of equal width, from their arrays."""
    return sp.csr_matrix((np.concatenate([top.data, bottom.data]),
                          np.concatenate([top.indices, bottom.indices]),
                          np.concatenate([top.indptr, bottom.indptr[1:] + top.indptr[-1]])),
                         shape=(top.shape[0] + bottom.shape[0], top.shape[1]))


def discretize(graph: MetricGraph, scheme: str = UNIFORM) -> OperatorBundle:
    """Build grids and the full operator family for the requested scheme.

    Every matrix is CSR.  One pass over the edges gives each edge its own
    copy of its grid (built once per point count and length), its potential
    sampled on that copy, and its blocks (built once per kind: point count,
    length and potential values); no cache outlives the call.
    """
    if scheme not in (UNIFORM, CHEBYSHEV):
        raise DiscretizationError(f"unknown scheme {scheme!r}")
    n = _resolve_counts(graph, scheme)
    ne = graph.num_edges
    n_int = int(n.sum())
    n_ext = n_int + 2 * ne
    offsets = np.concatenate([[0], np.cumsum(n + 2)])[:-1]

    potential_ext = np.zeros(n_ext)
    grids, kinds, edges = {}, {}, []
    for e, nm, o in zip(graph.edges, n, offsets):
        if (nm, e.length) not in grids:
            grids[nm, e.length] = _edge_grid(scheme, nm, e.length)
        hm, xe, xi, wm = grids[nm, e.length]
        xe, xi, wm = xe.copy(), xi.copy(), wm.copy()
        pot = potential_ext[o:o + nm + 2]
        if e.potential is not None:
            pot[:] = e.potential(xe)
        kind = (nm, e.length, pot.tobytes())
        if kind not in kinds:
            kinds[kind] = _edge_pieces(scheme, hm, xe, xi, pot)
        edges.append((hm, xe, xi, wm, kinds[kind]))
    h, x_ext, x_int, weights, pieces = zip(*edges)
    grid = Grid(scheme, n, x_ext, x_int, np.array(h), weights)
    lap, interp, deriv, values, outward = zip(*pieces)
    lap_int = _csr_from_pieces(lap, offsets, (n_int, n_ext))
    interp_int = _csr_from_pieces(interp, offsets, (n_int, n_ext))
    deriv = _csr_from_pieces(deriv, offsets, (n_ext, n_ext))
    # end j of the graph in row j of the values, row 2|E| + j of the derivatives
    end_traces = _csr_from_pieces(values + outward, np.tile(offsets, 2), (4 * ne, n_ext))

    conditions = graph.vertex_conditions
    vc_rows = conditions.AB @ end_traces
    vc_rows.sum_duplicates()  # the product leaves the columns of a row unsorted
    vertex_row = conditions.first_row + n_int
    nv = graph.num_vertices
    nh_map = sp.csr_matrix((np.ones(nv), np.arange(nv),
                            np.searchsorted(vertex_row, np.arange(n_ext + 1))),
                           shape=(n_ext, nv))
    lap_vc = _stack_rows(lap_int, vc_rows)
    interp_vc = _stack_rows(interp_int, vc_rows)

    quad_ext = np.concatenate(grid.weights)
    return OperatorBundle(graph, grid, n_int, n_ext, offsets,
                          lap_int, interp_int, vc_rows, nh_map, lap_vc, interp_vc,
                          deriv, end_traces, quad_ext, potential_ext, vertex_row)


# ---------------------------------------------------------------------------
# moving data on and off the graph

def graph_to_column(bundle: OperatorBundle, per_edge) -> np.ndarray:
    """Stack per-edge extended-grid samples into one column vector."""
    per_edge = list(per_edge)
    if len(per_edge) != bundle.graph.num_edges:
        raise DiscretizationError("one sample array per edge required")
    parts = []
    for m, arr in enumerate(per_edge, start=1):
        arr = np.asarray(arr)
        want = bundle.grid.n[m - 1] + 2
        if arr.shape != (want,):
            raise DiscretizationError(
                f"edge {m}: expected {want} extended-grid samples, got {arr.shape}")
        parts.append(arr)
    return np.concatenate(parts)


def column_to_graph(bundle: OperatorBundle, u: np.ndarray):
    """Split a column vector into per-edge arrays plus interpolated vertex values.

    Vertex values are the anchor-end rows of the value trace (see
    OperatorBundle.end_traces).
    """
    u = np.asarray(u)
    if u.shape != (bundle.n_ext,):
        raise DiscretizationError(f"expected length {bundle.n_ext}, got {u.shape}")
    per_edge = [u[bundle.edge_slice(m)] for m in range(1, bundle.graph.num_edges + 1)]
    return per_edge, (bundle.end_traces @ u)[bundle.graph.vertex_conditions.anchor]


def vertex_value(bundle: OperatorBundle, u: np.ndarray, n: int):
    """Value of the graph function at vertex n (anchor-end interpolation)."""
    t = bundle.end_traces
    j = bundle.graph.vertex_conditions.anchor[n - 1]
    row = slice(t.indptr[j], t.indptr[j + 1])
    return t.data[row] @ u[t.indices[row]]


def apply_function_to_edges(bundle: OperatorBundle, fns) -> np.ndarray:
    """Sample one function or constant per edge on its extended grid."""
    fns = list(fns)
    if len(fns) != bundle.graph.num_edges:
        raise DiscretizationError("one function or constant per edge required")
    parts = []
    for m, f in enumerate(fns, start=1):
        xe = bundle.grid.x_ext[m - 1]
        if callable(f):
            parts.append(np.broadcast_to(np.asarray(f(xe)), xe.shape).copy())
        else:
            parts.append(np.full(xe.shape, f))
    dtype = np.result_type(*(p.dtype for p in parts))
    return np.concatenate([p.astype(dtype) for p in parts])


def apply_graphical_function(bundle: OperatorBundle, f) -> np.ndarray:
    """Sample f(x1, x2[, x3]) at the plot coordinates of every extended-grid point."""
    if bundle.graph.plot is None:
        raise GraphError("graph has no plot coordinates")
    if not callable(f):
        return np.full(bundle.n_ext, f)
    parts = []
    for m in range(1, bundle.graph.num_edges + 1):
        pts = edge_coordinates(bundle.graph, m, bundle.grid.x_ext[m - 1])
        parts.append(np.asarray(f(*pts.T)))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# persistence helpers

def bundle_structure(bundle: OperatorBundle) -> dict:
    """Shapes and nonzero counts, for regression dumps."""
    def describe(mat):
        return {"shape": list(mat.shape), "nnz": int(mat.nnz)}

    return {
        "scheme": bundle.scheme,
        "n_int": bundle.n_int,
        "n_ext": bundle.n_ext,
        "edges": int(bundle.graph.num_edges),
        "vertices": int(bundle.graph.num_vertices),
        "n_per_edge": [int(v) for v in bundle.grid.n],
        "lap_int": describe(bundle.lap_int),
        "interp_int": describe(bundle.interp_int),
        "vc_rows": describe(bundle.vc_rows),
        "nh_map": describe(bundle.nh_map),
        "deriv": describe(bundle.deriv),
    }


def save_state_csv(bundle: OperatorBundle, u: np.ndarray, path) -> None:
    """Write a state vector as CSV rows (edge id, x, value_real, value_imag)."""
    # one formatting call over Python floats; the values and their signed
    # zeros are those complex(v) gives per entry (+0.0 imaginary if real)
    z = np.asarray(u).astype(complex)
    values = np.column_stack((z.real, z.imag)).ravel().tolist()
    with open(path, "w") as fh:
        fh.write("edge,x,re,im\n")
        fh.write(bundle.state_csv_format % tuple(values))


def save_scalar_csv(path, rows, header=None) -> None:
    """Write numbers, or rows of numbers, one line each as %.17g, atomically.

    A header line, when given, comes first.
    """
    lines = [header] if header else []
    for row in rows:
        values = [row] if np.ndim(row) == 0 else row
        lines.append(",".join("%.17g" % v for v in values))
    write_text_atomic(path, "".join(line + "\n" for line in lines))


def write_text_atomic(path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def load_state_csv(bundle: OperatorBundle, path) -> np.ndarray:
    """Read a state vector written by save_state_csv; validates the layout."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != bundle.n_ext or data.shape[1] != 4:
        raise DiscretizationError(
            f"state file {path} does not match layout (n_ext={bundle.n_ext})")
    if np.all(data[:, 3] == 0.0):
        return data[:, 2]
    # assigned, not summed: re + 1j*im turns a real part of -0.0 into +0.0
    values = data[:, 2].astype(complex)
    values.imag = data[:, 3]
    return values
