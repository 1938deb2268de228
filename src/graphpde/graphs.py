"""Directed metric graphs with vertex conditions, templates, and plot layouts.

A metric graph is a set of directed edges, each carrying a coordinate
``x`` running from 0 at the source vertex to ``length`` at the target
vertex.  Each vertex carries either a weighted Robin-Kirchhoff condition
(continuity plus a weighted flux balance with coefficient ``alpha``) or a
Dirichlet condition pinning the value.  Self-loops are allowed and count
twice toward the vertex degree.

A graph may carry a plot layout (``PlotCoords``), checked where the
``MetricGraph`` is made: one coordinate per vertex, all 2-d or all 3-d and
all finite reals, and one directive per edge.  Straight edges, semicircles
and arcs meet their vertices by construction; curved directives need 2-d
coordinates; a circle needs its two vertices to coincide within 1e-9 times
the edge length and a 2-d center of finite reals, and a semicircle or an
arc needs distinct endpoints and 0 < |theta| < 2 pi.  No point is sampled.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

DIRICHLET = math.nan

SOURCE_END = 0
TARGET_END = 1


class GraphError(ValueError):
    """Invalid graph definition or query."""


@dataclass(frozen=True)
class VertexCondition:
    """Vertex condition: Robin-Kirchhoff with coefficient alpha, or Dirichlet.

    Robin-Kirchhoff with ``alpha == 0`` is the Neumann-Kirchhoff condition
    (vanishing net outward flux).
    """

    kind: str  # "robin" | "dirichlet"
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("robin", "dirichlet"):
            raise GraphError(f"unknown vertex condition kind {self.kind!r}")
        if self.kind == "robin" and not math.isfinite(self.alpha):
            raise GraphError("Robin coefficient must be finite")
        if self.kind == "dirichlet" and self.alpha != 0.0:
            raise GraphError("Dirichlet condition carries no coefficient")

    @property
    def is_dirichlet(self) -> bool:
        return self.kind == "dirichlet"


@dataclass(frozen=True)
class Edge:
    """Directed edge with positive length, flux weight, and grid request.

    ``nx`` is the requested resolution.  Its meaning is resolved at
    discretization time: under the uniform scheme a graph-level scalar nx
    is a density (points per unit length), while a per-edge nx and any
    Chebyshev nx count interior points directly.
    """

    index: int  # 1-based
    source: int
    target: int
    length: float
    weight: float = 1.0
    nx: float = 20.0
    potential: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.length <= 0:
            raise GraphError(f"edge {self.index}: length must be positive")
        if self.weight <= 0:
            raise GraphError(f"edge {self.index}: weight must be positive")
        if self.nx <= 0:
            raise GraphError(f"edge {self.index}: nx must be positive")


# ---------------------------------------------------------------------------
# plot layout directives (pure data; no rendering)

@dataclass(frozen=True)
class StraightEdge:
    """Line segment from the source coordinate to the target coordinate."""


@dataclass(frozen=True)
class CircularEdge:
    """Full circle through a single vertex (self-loops only).

    ``center`` fixes the circle; the edge is traversed counterclockwise
    starting and ending at the vertex coordinate.
    """

    center: tuple[float, float]


@dataclass(frozen=True)
class SemicircularEdge:
    """Half circle over the chord between the endpoints.

    ``side=+1`` bulges to the left of the source->target chord, ``-1`` to
    the right.
    """

    side: float = 1.0

    @property
    def theta(self) -> float:
        """Central angle of the half circle, as for ArcEdge."""
        return self.side * math.pi


@dataclass(frozen=True)
class ArcEdge:
    """Circular arc subtending central angle ``theta`` (radians).

    Positive theta sweeps counterclockwise from source to target.
    """

    theta: float


Directive = StraightEdge | CircularEdge | SemicircularEdge | ArcEdge


@dataclass(frozen=True)
class PlotCoords:
    """Per-vertex coordinates plus one layout directive per edge."""

    vertices: tuple[tuple[float, ...], ...]
    directives: tuple[Directive, ...]


def _finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _arc_points(p, q, theta, s):
    """Points along the arc from p to q subtending angle theta, at fractions s."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    chord = q - p
    d = float(np.hypot(*chord))
    radius = d / (2.0 * math.sin(abs(theta) / 2.0))
    mid = 0.5 * (p + q)
    # unit normal to the chord, pointing left of p->q
    n = np.array([-chord[1], chord[0]]) / d
    offset = radius * math.cos(abs(theta) / 2.0)
    center = mid + math.copysign(1.0, theta) * offset * n
    a0 = math.atan2(p[1] - center[1], p[0] - center[0])
    angles = a0 + math.copysign(1.0, theta) * abs(theta) * s
    return np.column_stack([center[0] + radius * np.cos(angles),
                            center[1] + radius * np.sin(angles)])


def edge_coordinates(graph: "MetricGraph", m: int, x: np.ndarray) -> np.ndarray:
    """Plot coordinates of edge m sampled at edge positions x (in [0, length])."""
    if graph.plot is None:
        raise GraphError("graph has no plot coordinates")
    edge = graph.edges[m - 1]
    directive = graph.plot.directives[m - 1]
    p = np.asarray(graph.plot.vertices[edge.source - 1], dtype=float)
    q = np.asarray(graph.plot.vertices[edge.target - 1], dtype=float)
    s = np.asarray(x, dtype=float) / edge.length
    if isinstance(directive, StraightEdge):
        return p[None, :] + s[:, None] * (q - p)[None, :]
    if isinstance(directive, CircularEdge):
        c = np.asarray(directive.center, dtype=float)
        radius = float(np.hypot(*(p - c)))
        a0 = math.atan2(p[1] - c[1], p[0] - c[0])
        angles = a0 + 2.0 * math.pi * s
        return np.column_stack([c[0] + radius * np.cos(angles),
                                c[1] + radius * np.sin(angles)])
    return _arc_points(p, q, directive.theta, s)


# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConditionMatrices:
    """Vertex conditions of a graph as A F + B F' = 0 over its edge ends.

    F holds the value and F' the outward derivative (pointing away from
    the vertex) at each edge end; end ``end`` of edge m is entry
    2(m - 1) + end.  A holds the Dirichlet, Robin alpha and continuity
    coefficients, B the edge weights of the outward fluxes; both are
    2|E| x 2|E| and are stored side by side as the CSR matrix AB = [A B],
    so the conditions read AB @ [F; F'] = 0.  Each vertex owns one block
    of rows, starting at first_row: its flux or Dirichlet row first (the
    weighted outward flux plus alpha times the anchor-end value, or the
    anchor-end value alone), then one continuity row per further incident
    end, equating its value with the anchor end's.  The anchor end is the
    first of incident_ends.  The blocks fill all 2|E| rows.
    """

    AB: sp.csr_matrix       # [A B], 2|E| x 4|E|
    first_row: np.ndarray   # first row of each vertex block
    anchor: np.ndarray      # edge end (column of A) of each vertex's anchor


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """Immutable metric graph: vertex conditions plus directed weighted edges.

    Edges are stored sorted lexicographically by (source, target); the
    constructor refuses input that would have to be silently permuted.
    """

    vertices: tuple[VertexCondition, ...]
    edges: tuple[Edge, ...]
    nx_is_density: bool = True
    plot: PlotCoords | None = None

    def __post_init__(self):
        """Check the plot layout by what each directive needs (module docstring)."""
        plot = self.plot
        if plot is None:
            return
        if len(plot.vertices) != self.num_vertices:
            raise GraphError("one coordinate per vertex required")
        if len(plot.directives) != self.num_edges:
            raise GraphError("one layout directive per edge required")
        dims = {len(v) for v in plot.vertices}
        if dims not in ({2}, {3}):
            raise GraphError("vertex coordinates must all be 2-d or all 3-d")
        for n, point in enumerate(plot.vertices, start=1):
            if not all(map(_finite_real, point)):
                raise GraphError(f"coordinates {point!r} of vertex {n} must be finite reals")
        for e, directive in zip(self.edges, plot.directives):
            if isinstance(directive, StraightEdge):
                continue
            if dims != {2}:
                raise GraphError("curved layout directives require 2-d coordinates")
            gap = math.dist(plot.vertices[e.source - 1], plot.vertices[e.target - 1])
            if isinstance(directive, CircularEdge):
                if gap > 1e-9 * e.length:
                    raise GraphError(f"layout endpoints of edge {e.index} do not meet its vertices")
                if len(directive.center) != 2 or not all(map(_finite_real, directive.center)):
                    raise GraphError(f"circle center of edge {e.index} must be a 2-d point "
                                     f"of finite reals, got {directive.center!r}")
            elif not isinstance(directive, (SemicircularEdge, ArcEdge)):
                raise GraphError(f"unknown layout directive {directive!r}")
            elif gap == 0.0:
                raise GraphError("arc directive needs distinct endpoints")
            elif not 0.0 < abs(directive.theta) < 2.0 * math.pi:
                raise GraphError(f"arc angle {directive.theta!r} must be nonzero "
                                 "and less than 2 pi in size")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, n: int) -> int:
        return len(self.incident_ends(n))

    def incident_ends(self, n: int) -> list[tuple[int, int]]:
        """Incident (edge index, end) pairs at vertex n, self-loops twice.

        Sorted by (edge index, end) with source ends first; the leading
        entry is the anchor end used by continuity rows.
        """
        if not 1 <= n <= self.num_vertices:
            raise GraphError(f"vertex id {n} out of range 1..{self.num_vertices}")
        return list(self._incident[n - 1])

    @cached_property
    def _incident(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """incident_ends of every vertex, from one pass over the edges."""
        ends = [[] for _ in self.vertices]
        for e in self.edges:
            ends[e.source - 1].append((e.index, SOURCE_END))
            ends[e.target - 1].append((e.index, TARGET_END))
        return tuple(tuple(v) for v in ends)

    @cached_property
    def vertex_conditions(self) -> ConditionMatrices:
        """The vertex conditions as A F + B F' = 0; see ConditionMatrices."""
        ne = self.num_edges
        first_row = np.empty(self.num_vertices, dtype=int)
        anchor = np.empty(self.num_vertices, dtype=int)
        rows = []  # (column of AB, coefficient) pairs of each row
        for n, (cond, ends) in enumerate(zip(self.vertices, self._incident)):
            cols = [2 * (m - 1) + end for m, end in ends]
            first_row[n], anchor[n] = len(rows), cols[0]
            row = []
            if cond.is_dirichlet or cond.alpha != 0.0:
                row.append((cols[0], 1.0 if cond.is_dirichlet else cond.alpha))
            if not cond.is_dirichlet:
                row += [(2 * ne + c, self.edges[m - 1].weight) for c, (m, _) in zip(cols, ends)]
            rows.append(row)
            rows += [[(cols[0], 1.0), (c, -1.0)] for c in cols[1:]]
        cols, vals = np.array([entry for row in rows for entry in row]).T
        indptr = np.cumsum([0] + [len(row) for row in rows])
        AB = sp.csr_matrix((vals, cols.astype(int), indptr), shape=(2 * ne, 4 * ne))
        return ConditionMatrices(AB, first_row, anchor)

    def weighted_length(self) -> float:
        return sum(e.weight * e.length for e in self.edges)

    def has_potential(self) -> bool:
        return any(e.potential is not None for e in self.edges)


def _broadcast(value, n, name, dtype=float):
    if value is None:
        return None
    if np.isscalar(value):
        return [dtype(value)] * n
    seq = list(value)
    if len(seq) != n:
        raise GraphError(f"{name} must be scalar or length {n}, got length {len(seq)}")
    return [dtype(v) for v in seq]


def build_graph(source: Sequence[int], target: Sequence[int],
                lengths, *, weights=None, robin_coeffs=None, nx=None,
                potentials=None, plot_coords: PlotCoords | None = None) -> MetricGraph:
    """Build a validated metric graph.

    ``robin_coeffs`` is per-vertex; use NaN (``DIRICHLET``) to pin a vertex.
    Scalar ``lengths``/``weights``/``nx`` broadcast to all edges.  A scalar
    ``nx`` requests points per unit length on uniform grids; a vector gives
    interior point counts per edge.
    """
    source = [int(s) for s in source]
    target = [int(t) for t in target]
    if len(source) != len(target) or not source:
        raise GraphError("source and target must be nonempty sequences of equal length")
    ne = len(source)

    pairs = list(zip(source, target))
    for i in range(ne - 1):
        if pairs[i + 1] < pairs[i]:
            raise GraphError(
                f"edges must be listed sorted by (source, target); "
                f"edge {i + 2} {pairs[i + 1]} would be reordered before {pairs[i]}")

    nv = max(max(source), max(target))
    used = set(source) | set(target)
    missing = sorted(set(range(1, nv + 1)) - used)
    if missing or min(used) < 1:
        raise GraphError(f"vertex ids must cover 1..{nv}; missing {missing}")

    lengths = _broadcast(lengths, ne, "lengths")
    weights = _broadcast(weights, ne, "weights") or [1.0] * ne

    nx_is_density = nx is None or np.isscalar(nx)
    nx_list = _broadcast(20.0 if nx is None else nx, ne, "nx")
    if not nx_is_density:
        for i, v in enumerate(nx_list):
            if v < 2 or v != int(v):
                raise GraphError(f"per-edge nx must be an integer >= 2 (edge {i + 1}: {v})")

    if potentials is None:
        pot_list = [None] * ne
    else:
        pot_list = list(potentials)
        if len(pot_list) != ne:
            raise GraphError(f"potentials must have one entry per edge ({ne})")
        # a numeric zero stands for "no potential"
        pot_list = [None if (p is None or (np.isscalar(p) and p == 0)) else p
                    for p in pot_list]
        for p in pot_list:
            if p is not None and not callable(p):
                raise GraphError("potentials must be callables, 0, or None")

    rc = _broadcast(robin_coeffs, nv, "robin_coeffs") or [0.0] * nv
    vertices = tuple(VertexCondition("dirichlet") if math.isnan(a)
                     else VertexCondition("robin", a) for a in rc)

    edges = tuple(Edge(i + 1, source[i], target[i], lengths[i], weights[i],
                       nx_list[i], pot_list[i]) for i in range(ne))
    return MetricGraph(vertices, edges, nx_is_density, plot_coords)


def set_plot_coords(graph: MetricGraph, coords: PlotCoords) -> MetricGraph:
    """The graph with plot coordinates attached (checked by MetricGraph)."""
    return replace(graph, plot=coords)


def as_node_data(graph: MetricGraph, values=None) -> np.ndarray:
    """Per-vertex nonhomogeneous terms; defaults to zeros."""
    if values is None:
        return np.zeros(graph.num_vertices)
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.shape != (graph.num_vertices,):
        raise GraphError(f"node data must have length {graph.num_vertices}")
    if not np.all(np.isfinite(arr)):
        raise GraphError("node data must be finite")
    return arr


# ---------------------------------------------------------------------------
# configuration / hashing

def graph_config(graph: MetricGraph) -> dict:
    """JSON-safe structural description (potentials reduced to a presence flag)."""
    return {
        "source": [e.source for e in graph.edges],
        "target": [e.target for e in graph.edges],
        "length": [e.length for e in graph.edges],
        "weight": [e.weight for e in graph.edges],
        "robin": ["dirichlet" if v.is_dirichlet else v.alpha for v in graph.vertices],
        "nx": [e.nx for e in graph.edges],
        "nx_is_density": graph.nx_is_density,
        "has_potential": [e.potential is not None for e in graph.edges],
    }


def graph_hash(graph: MetricGraph) -> str:
    payload = json.dumps(graph_config(graph), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# template gallery

def _template_interval(length=1.0, robin=None, nx=None, weight=None):
    (ell,) = _broadcast(length, 1, "lengths")
    coords = PlotCoords(((0.0, 0.0), (ell, 0.0)), (StraightEdge(),))
    return build_graph([1], [2], length, robin_coeffs=robin, nx=nx, weights=weight,
                       plot_coords=coords)


def _template_star(lengths=(1.0, 1.0, 1.0), robin=None, nx=None, weight=None):
    lengths = [float(v) for v in (lengths if not np.isscalar(lengths)
                                  else [lengths] * 3)]
    k = len(lengths)
    verts = [(0.0, 0.0)]
    for j in range(k):
        a = 2.0 * math.pi * j / k
        verts.append((lengths[j] * math.cos(a), lengths[j] * math.sin(a)))
    coords = PlotCoords(tuple(verts), (StraightEdge(),) * k)
    return build_graph([1] * k, list(range(2, k + 2)), lengths, robin_coeffs=robin,
                       nx=nx, weights=weight, plot_coords=coords)


def _template_y(lengths=(1.5, 1.0, 1.0), robin=None, nx=None, weight=None):
    if robin is None:
        robin = [0.0, 0.0, DIRICHLET, DIRICHLET]
    return _template_star(lengths, robin=robin, nx=nx, weight=weight)


def _template_lasso(lengths=(4.0, 2.0 * math.pi), robin=None, nx=None, weight=None):
    straight, loop = _broadcast(lengths, 2, "lengths")
    r = loop / (2.0 * math.pi)
    coords = PlotCoords(((0.0, 0.0), (straight, 0.0)),
                        (StraightEdge(), CircularEdge((straight + r, 0.0))))
    return build_graph([1, 2], [2, 2], lengths, robin_coeffs=robin, nx=nx, weights=weight,
                       plot_coords=coords)


def _template_ring(length=2.0 * math.pi, robin=None, nx=None, weight=None):
    (ell,) = _broadcast(length, 1, "lengths")
    coords = PlotCoords(((0.0, 0.0),), (CircularEdge((ell / (2.0 * math.pi), 0.0)),))
    return build_graph([1], [1], length, robin_coeffs=robin, nx=nx, weights=weight,
                       plot_coords=coords)


def _template_dumbbell(loop_length=2.0 * math.pi, handle_length=4.0,
                       robin=None, nx=None, weight=None):
    lengths = [loop_length, handle_length, loop_length]
    r = loop_length / (2.0 * math.pi)
    coords = PlotCoords(((0.0, 0.0), (handle_length, 0.0)),
                        (CircularEdge((-r, 0.0)), StraightEdge(),
                         CircularEdge((handle_length + r, 0.0))))
    return build_graph([1, 1, 2], [1, 2, 2], lengths, robin_coeffs=robin, nx=nx,
                       weights=weight, plot_coords=coords)


def _template_necklace(n_pairs=54, string_length=1.0, pearl_length=math.pi / 2.0,
                       robin=None, nx=None, weight=None):
    """Closed chain of n_pairs strings, each followed by a two-edge pearl."""
    if n_pairs < 1 or n_pairs != int(n_pairs):
        raise GraphError(f"necklace needs a whole number of string/pearl pairs, at least one; "
                         f"got {n_pairs}")
    n_pairs = int(n_pairs)
    source, target, lengths, angles = [], [], [], []
    nv = 2 * n_pairs
    # vertices around a circle; strings straight, pearl halves bulge out and in
    per = string_length + 2.0 * pearl_length / math.pi  # chord-ish spacing
    radius = nv * per / (2.0 * math.pi)
    step = 2.0 * math.pi / nv
    pos = 0.0
    for k in range(n_pairs):
        a, b, c = 2 * k + 1, 2 * k + 2, (2 * k + 3 - 1) % nv + 1
        source += [a, b, b]
        target += [b, c, c]
        lengths += [string_length, pearl_length, pearl_length]
        angles += [pos, pos + step]
        pos += 2 * step
    verts = tuple((radius * math.cos(a), radius * math.sin(a)) for a in angles)
    directives = (StraightEdge(), SemicircularEdge(1.0), SemicircularEdge(-1.0)) * n_pairs
    return build_graph(source, target, lengths, robin_coeffs=robin, nx=nx, weights=weight,
                       plot_coords=PlotCoords(verts, directives))


def _template_bubble_tower(base_length=10.0,
                           circumferences=(6.0 * math.pi, 4.0 * math.pi, 2.0 * math.pi),
                           robin=None, nx=None, weight=None):
    """Two line segments, two 2-edge bubbles, and a terminal circle."""
    c1, c2, c3 = [float(c) for c in circumferences]
    lengths = [base_length, c1 / 2, c1 / 2, c2 / 2, c2 / 2, base_length, c3]
    y2 = base_length
    y3 = y2 + c1 / math.pi
    y4 = y3 + c2 / math.pi
    y5 = y4 + base_length
    r3 = c3 / (2.0 * math.pi)
    verts = ((0.0, 0.0), (0.0, y2), (0.0, y3), (0.0, y4), (0.0, y5))
    directives = (StraightEdge(), SemicircularEdge(1.0), SemicircularEdge(-1.0),
                  SemicircularEdge(1.0), SemicircularEdge(-1.0), StraightEdge(),
                  CircularEdge((r3, y5)))
    return build_graph([1, 2, 2, 3, 3, 4, 5], [2, 3, 3, 4, 4, 5, 5], lengths,
                       robin_coeffs=robin, nx=nx, weights=weight,
                       plot_coords=PlotCoords(verts, directives))


def _template_tetrahedron(length=1.0, robin=None, nx=None, weight=None):
    """Edges and vertices of a regular tetrahedron (3-d layout)."""
    scale = _broadcast(length, 6, "lengths")[0] / (2.0 * math.sqrt(2.0))
    verts = tuple(tuple(scale * c for c in v) for v in
                  ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)))
    return build_graph([1, 1, 1, 2, 2, 3], [2, 3, 4, 3, 4, 4], length,
                       robin_coeffs=robin, nx=nx, weights=weight,
                       plot_coords=PlotCoords(verts, tuple(StraightEdge() for _ in range(6))))


TEMPLATES: dict[str, Callable[..., MetricGraph]] = {
    "interval": _template_interval,
    "star": _template_star,
    "Y": _template_y,
    "dumbbell": _template_dumbbell,
    "lasso": _template_lasso,
    "necklace": _template_necklace,
    "bubbleTower": _template_bubble_tower,
    "tetrahedron": _template_tetrahedron,
    "ring": _template_ring,
}

def from_template(tag: str, **overrides) -> MetricGraph:
    """Build a gallery graph, optionally overriding lengths, weights, robin, nx."""
    if tag not in TEMPLATES:
        raise GraphError(f"unknown template {tag!r}; known: {sorted(TEMPLATES)}")
    allowed = set(inspect.signature(TEMPLATES[tag]).parameters)
    bad = set(overrides) - allowed
    if bad:
        raise GraphError(f"template {tag!r} does not accept {sorted(bad)}; "
                         f"allowed: {sorted(allowed)}")
    return TEMPLATES[tag](**overrides)
