import dataclasses
import inspect
import math

import numpy as np
import pytest

from graphpde import DIRICHLET, build_graph, from_template, set_plot_coords
from graphpde import graphs
from graphpde.graphs import (GraphError, PlotCoords, StraightEdge, CircularEdge,
                             SemicircularEdge, ArcEdge, edge_coordinates,
                             graph_config, graph_hash, TEMPLATES)


def five_edge_graph():
    return build_graph([1, 1, 1, 2, 2], [1, 1, 2, 2, 3],
                       [math.pi, 2 * math.pi, 1.0, 2 * math.pi, 2.0],
                       weights=[1, 1, 2, 1, 1],
                       robin_coeffs=[1.0, 1.0, DIRICHLET])


def test_lasso_structure():
    g = build_graph([1, 2], [2, 2], [4.0, 2 * math.pi], nx=[4, 8])
    assert g.num_vertices == 2 and g.num_edges == 2
    assert g.degree(1) == 1
    assert g.degree(2) == 3  # self-loop counted twice


def test_five_edge_graph_degrees():
    g = five_edge_graph()
    assert g.degree(1) == 5
    assert sum(g.degree(n) for n in range(1, 4)) == 2 * g.num_edges
    assert g.vertices[2].is_dirichlet
    assert g.edges[2].weight == 2.0


def test_single_interval():
    g = build_graph([1], [2], 1.0)
    assert (g.degree(1), g.degree(2)) == (1, 1)
    assert g.edges[0].weight == 1.0 and g.edges[0].nx == 20.0
    assert g.nx_is_density


def test_incident_ends_lasso():
    g = build_graph([1, 2], [2, 2], [4.0, 2 * math.pi])
    ends = g.incident_ends(2)
    # target end of edge 1, then both ends of the self-loop
    assert ends == [(1, 1), (2, 0), (2, 1)]
    with pytest.raises(GraphError):
        g.incident_ends(3)


def test_degree_sum_identity_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        nv = rng.integers(2, 6)
        ne = rng.integers(nv, 2 * nv + 2)
        pairs = sorted((int(rng.integers(1, nv + 1)), int(rng.integers(1, nv + 1)))
                       for _ in range(ne))
        used = {v for p in pairs for v in p}
        if used != set(range(1, nv + 1)):
            continue
        g = build_graph([p[0] for p in pairs], [p[1] for p in pairs], 1.0)
        assert sum(g.degree(n) for n in range(1, nv + 1)) == 2 * ne


def test_validation_errors():
    with pytest.raises(GraphError, match="equal length"):
        build_graph([1, 2], [2], 1.0)
    with pytest.raises(GraphError, match="positive"):
        build_graph([1], [2], -1.0)
    with pytest.raises(GraphError, match="positive"):
        build_graph([1], [2], 1.0, weights=0.0)
    with pytest.raises(GraphError, match="missing"):
        build_graph([1], [3], 1.0)
    with pytest.raises(GraphError, match="sorted"):
        build_graph([2, 1], [2, 2], 1.0)
    with pytest.raises(GraphError, match="nx"):
        build_graph([1], [2], 1.0, nx=[1])


def test_dirichlet_sentinel_exclusive():
    g = build_graph([1], [2], 1.0, robin_coeffs=[0.5, DIRICHLET])
    assert g.vertices[0].alpha == 0.5 and not g.vertices[0].is_dirichlet
    assert g.vertices[1].is_dirichlet and g.vertices[1].alpha == 0.0


def test_zero_potential_means_absent():
    g = build_graph([1], [2], 1.0, potentials=[0])
    assert g.edges[0].potential is None
    g2 = build_graph([1], [2], 1.0, potentials=[np.cos])
    assert g2.edges[0].potential is np.cos


def test_template_y_graph():
    g = from_template("Y")
    assert [e.length for e in g.edges] == [1.5, 1.0, 1.0]
    assert not g.vertices[0].is_dirichlet and not g.vertices[1].is_dirichlet
    assert g.vertices[2].is_dirichlet and g.vertices[3].is_dirichlet


def test_template_star_overrides():
    g = from_template("star", lengths=30.0, weight=[2, 1, 1])
    assert all(e.length == 30.0 for e in g.edges)
    assert [e.weight for e in g.edges] == [2.0, 1.0, 1.0]
    assert [(e.source, e.target) for e in g.edges] == [(1, 2), (1, 3), (1, 4)]


def test_template_necklace_counts():
    g = from_template("necklace", n_pairs=54)
    assert g.num_vertices == 108
    assert g.num_edges == 162
    lengths = {round(e.length, 12) for e in g.edges}
    assert lengths == {1.0, round(math.pi / 2, 12)}
    assert from_template("necklace", n_pairs=2.0).num_edges == 6
    for n_pairs in (2.5, 0):  # 2.5 built the 2-pair necklace
        with pytest.raises(GraphError, match=f"whole number .* got {n_pairs}"):
            from_template("necklace", n_pairs=n_pairs)


def test_template_bubble_tower_layout():
    g = from_template("bubbleTower")
    assert g.num_vertices == 5 and g.num_edges == 7
    kinds = [type(d).__name__ for d in g.plot.directives]
    assert kinds.count("StraightEdge") == 2
    assert kinds.count("SemicircularEdge") == 4
    assert kinds.count("CircularEdge") == 1


def test_unknown_template_and_override():
    with pytest.raises(GraphError, match="unknown template"):
        from_template("moebius")
    with pytest.raises(GraphError, match="does not accept"):
        from_template("ring", frobnicate=3)


def test_every_template_accepts_the_parameters_of_its_signature():
    for tag, template in TEMPLATES.items():
        params = inspect.signature(template).parameters
        g = from_template(tag, **{name: p.default for name, p in params.items()})
        assert graph_hash(g) == graph_hash(from_template(tag))
        with pytest.raises(GraphError, match="does not accept"):
            from_template(tag, frobnicate=3)


def test_templates_round_trip_through_build_graph():
    for tag in TEMPLATES:
        g = from_template(tag)
        rebuilt = build_graph([e.source for e in g.edges],
                              [e.target for e in g.edges],
                              [e.length for e in g.edges],
                              weights=[e.weight for e in g.edges],
                              nx=[int(e.nx) for e in g.edges])
        assert [(e.source, e.target, e.length) for e in rebuilt.edges] == \
               [(e.source, e.target, e.length) for e in g.edges]


def test_straight_edge_sampling():
    g = build_graph([1], [2], 1.0,
                    plot_coords=PlotCoords(((0.0, 0.0), (1.0, 0.0)),
                                           (StraightEdge(),)))
    pts = edge_coordinates(g, 1, np.array([0.0, 0.5, 1.0]))
    assert np.allclose(pts, [[0, 0], [0.5, 0], [1, 0]])


def test_full_circle_closes():
    g = from_template("ring")
    ell = g.edges[0].length
    pts = edge_coordinates(g, 1, np.array([0.0, ell]))
    assert np.allclose(pts[0], pts[-1], atol=1e-12)


def test_plot_endpoint_mismatch_rejected():
    g = build_graph([1], [2], 1.0)
    bad = PlotCoords(((0.0, 0.0), (2.0, 0.0)), (ArcEdge(math.pi / 2),))
    # arc endpooints hit the vertices, so this passes; shift a vertex to break it
    set_plot_coords(g, bad)
    worse = PlotCoords(((0.0, 0.0), (2.0, 0.0)), (CircularEdge((1.0, 0.0)),))
    with pytest.raises(GraphError, match="endpoints"):
        set_plot_coords(g, worse)


def test_semicircular_arc_endpoints():
    g = build_graph([1], [2], 2.0,
                    plot_coords=PlotCoords(((0.0, 0.0), (1.0, 1.0)),
                                           (SemicircularEdge(-1.0),)))
    pts = edge_coordinates(g, 1, np.array([0.0, 2.0]))
    assert np.allclose(pts, [[0, 0], [1, 1]], atol=1e-12)


def test_zero_arc_angle_is_a_graph_error():
    coords = PlotCoords(((0.0, 0.0), (2.0, 0.0)), (ArcEdge(0.0),))
    with pytest.raises(GraphError, match="arc angle 0.0"):
        build_graph([1], [2], 1.0, plot_coords=coords)


def test_a_shallow_arc_on_a_unit_chord_builds():
    # its radius is about 1e8, so sampling its ends misses the vertices by roundoff
    coords = PlotCoords(((0.0, 0.0), (1.0, 0.0)), (ArcEdge(1e-8),))
    g = build_graph([1], [2], 1.0, plot_coords=coords)
    assert g.plot == coords


def test_every_template_layout_meets_its_vertices():
    for tag in TEMPLATES:
        g = from_template(tag)
        for e in g.edges:
            ends = edge_coordinates(g, e.index, np.array([0.0, e.length]))
            p, q = g.plot.vertices[e.source - 1], g.plot.vertices[e.target - 1]
            assert np.linalg.norm(ends[0] - p) <= 1e-9 * e.length, (tag, e.index)
            assert np.linalg.norm(ends[1] - q) <= 1e-9 * e.length, (tag, e.index)


@pytest.mark.parametrize("coords, message", [
    (PlotCoords(((0.0, 0.0), (2.0, 0.0)), (CircularEdge((1.0, 0.0)),)),
     "layout endpoints of edge 1 do not meet its vertices"),
    (PlotCoords(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), (SemicircularEdge(),)),
     "curved layout directives require 2-d coordinates"),
    (PlotCoords(((1.0, 1.0), (1.0, 1.0)), (ArcEdge(1.0),)),
     "arc directive needs distinct endpoints"),
    (PlotCoords(((1.0, 1.0), (1.0, 1.0)), (CircularEdge((0.0, 1.0, 1.0)),)),
     "circle center of edge 1 must be a 2-d point"),
    *[(PlotCoords(((0.0, 0.0), (1.0, bad)), (StraightEdge(),)),
       "coordinates .* of vertex 2 must be finite reals")
      for bad in ("1.0", None, math.nan, math.inf)],
    *[(PlotCoords(((1.0, 1.0), (1.0, 1.0)), (CircularEdge((bad, 1.0)),)),
       "circle center of edge 1 must be a 2-d point of finite reals")
      for bad in ("0.0", None, math.nan, -math.inf)],
])
def test_replacing_the_layout_checks_it(coords, message):
    g = build_graph([1], [2], 1.0)
    with pytest.raises(GraphError, match=message):
        dataclasses.replace(g, plot=coords)


def test_building_a_template_samples_no_layout_point(monkeypatch):
    calls = []
    sample = graphs.edge_coordinates
    monkeypatch.setattr(graphs, "edge_coordinates",
                        lambda *args: calls.append(args) or sample(*args))
    for tag in TEMPLATES:
        assert from_template(tag).plot is not None
    assert calls == []


def test_graph_hash_stable_and_sensitive():
    g1 = five_edge_graph()
    g2 = five_edge_graph()
    assert graph_hash(g1) == graph_hash(g2)
    g3 = build_graph([1, 1, 1, 2, 2], [1, 1, 2, 2, 3],
                     [math.pi, 2 * math.pi, 1.0, 2 * math.pi, 2.5],
                     weights=[1, 1, 2, 1, 1],
                     robin_coeffs=[1.0, 1.0, DIRICHLET])
    assert graph_hash(g1) != graph_hash(g3)
    cfg = graph_config(g1)
    assert cfg["robin"] == [1.0, 1.0, "dirichlet"]
