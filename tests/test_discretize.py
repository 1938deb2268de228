import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from graphpde import (DIRICHLET, apply_function_to_edges, apply_graphical_function,
                      build_graph, column_to_graph, discretize, from_template,
                      graph_to_column)
from graphpde.graphs import TEMPLATES
from graphpde.discretize import (DiscretizationError, chebyshev_first_kind,
                                 chebyshev_second_kind, clenshaw_curtis_weights)


def test_lasso_shapes_and_nh_positions():
    g = build_graph([1, 2], [2, 2], [4.0, 2 * math.pi], nx=[4, 8])
    b = discretize(g, "uniform")
    assert b.lap_int.shape == (12, 16)
    assert b.vc_rows.shape == (4, 16)
    assert b.nh_map.shape == (16, 2)
    rows, cols = np.nonzero(b.nh_map.toarray())
    assert [(r + 1, c + 1) for r, c in zip(rows, cols)] == [(13, 1), (14, 2)]
    assert b.lap_vc.shape == (16, 16) and b.interp_vc.shape == (16, 16)


def test_uniform_grid_staggering():
    g = build_graph([1], [2], 1.0, nx=[4])
    b = discretize(g, "uniform")
    x = b.grid.x_ext[0]
    h = b.grid.h[0]
    assert np.allclose(x, (np.arange(6) - 0.5) * h)
    assert x[0] < 0 < x[1] and x[-2] < 1.0 < x[-1]
    assert np.allclose(b.grid.x_int[0], x[1:-1])


def test_chebyshev_grid_endpoints_and_interlacing():
    ell = 2.7
    x = chebyshev_second_kind(6, ell)
    xi = chebyshev_first_kind(6, ell)
    assert x[0] == 0.0 and np.isclose(x[-1], ell)
    assert np.all(np.diff(x) > 0) and np.all(np.diff(xi) > 0)
    assert xi[0] > x[0] and xi[-1] < x[-1]


def test_quadrature_weights_integrate_one_exactly():
    g = from_template("Y", nx=7)
    for scheme in ("uniform", "chebyshev"):
        b = discretize(g, scheme)
        total = sum(e.length for e in g.edges)
        assert abs(b.quad_ext.sum() - total) < 1e-13 * total


def test_clenshaw_curtis_polynomial_exactness():
    for n in (3, 8, 15):
        ell = 1.9
        x = chebyshev_second_kind(n, ell)
        w = clenshaw_curtis_weights(n, ell)
        for d in range(n + 2):
            exact = ell ** (d + 1) / (d + 1)
            assert abs(w @ x**d - exact) < 1e-12 * max(1.0, exact)


def test_uniform_interior_stencil():
    g = build_graph([1], [2], 1.0, nx=[4])
    b = discretize(g, "uniform")
    h = b.grid.h[0]
    row = b.lap_int.toarray()[1] * h * h
    assert np.allclose(row[1:4], [1.0, -2.0, 1.0])


def test_uniform_interp_is_selection():
    g = from_template("lasso", nx=[5, 6])
    b = discretize(g, "uniform")
    P = b.interp_int.toarray()
    assert set(np.unique(P)) == {0.0, 1.0}
    assert np.all(P.sum(axis=1) == 1.0)


def test_affine_annihilation_both_schemes():
    g = from_template("lasso", nx=[6, 9])
    for scheme in ("uniform", "chebyshev"):
        b = discretize(g, scheme)
        u = apply_function_to_edges(b, [lambda x: 2 * x + 1, lambda x: 4 - 0.3 * x])
        scale = max(1.0, np.max(np.abs(b.lap_int @ u)))
        assert np.max(np.abs(b.lap_int @ u)) < 1e-10 * scale


def test_chebyshev_lap_exact_on_monomials():
    g = build_graph([1], [2], 1.7, nx=[8])
    b = discretize(g, "chebyshev")
    x, xi = b.grid.x_ext[0], b.grid.x_int[0]
    for d in range(2, 10):
        err = np.max(np.abs(b.lap_int @ x**d - d * (d - 1) * xi ** (d - 2)))
        assert err < 1e-10 * max(1.0, d * (d - 1) * 1.7 ** (d - 2))


def test_chebyshev_interp_reproduces_polynomials():
    g = build_graph([1], [2], 1.3, nx=[7])
    b = discretize(g, "chebyshev")
    x, xi = b.grid.x_ext[0], b.grid.x_int[0]
    coeffs = np.array([0.3, -1.2, 0.7, 0.1, -0.4, 0.05, 0.2, -0.1, 0.03])
    vals = np.polynomial.polynomial.polyval(x, coeffs)
    target = np.polynomial.polynomial.polyval(xi, coeffs)
    assert np.max(np.abs(b.interp_int @ vals - target)) < 1e-10


def test_potential_enters_lap():
    V = lambda x: 2 * np.cos(2 * x)
    g = build_graph([1], [2], math.pi, nx=[12], potentials=[V])
    g0 = build_graph([1], [2], math.pi, nx=[12])
    for scheme in ("uniform", "chebyshev"):
        b, b0 = discretize(g, scheme), discretize(g0, scheme)
        u = apply_function_to_edges(b, [np.sin])
        lhs = b.lap_int @ u
        raw = b0.lap_int @ u
        Vint = b.interp_int @ (b.potential_ext * u)
        assert np.allclose(lhs, raw - Vint, atol=1e-12)


def test_robin_rows_match_ghost_point_combination():
    alpha = 0.7
    g = build_graph([1], [2], 1.0, robin_coeffs=[alpha, alpha], nx=[4])
    b = discretize(g, "uniform")
    h = b.grid.h[0]
    M = b.vc_rows.toarray()
    assert np.allclose(M[0][:2], [alpha / 2 - 1 / h, alpha / 2 + 1 / h])
    assert np.allclose(M[1][-2:], [alpha / 2 + 1 / h, alpha / 2 - 1 / h])


def test_dirichlet_row_is_value_average():
    g = build_graph([1], [2], 1.0, robin_coeffs=[DIRICHLET, 0.0], nx=[4])
    b = discretize(g, "uniform")
    row = b.vc_rows.toarray()[0]
    assert np.allclose(row[:2], [0.5, 0.5]) and np.all(row[2:] == 0.0)


def test_nk_flux_row_kills_constants():
    g = from_template("star", lengths=[1.0, 1.5, 2.0])
    b = discretize(g, "uniform")
    flux = b.vc_rows.toarray()[b.vertex_row[0] - b.n_int]
    assert np.count_nonzero(flux) == 6  # two entries per incident end
    u = np.ones(b.n_ext)
    assert abs(flux @ u) < 1e-12


def test_vertex_block_order_flux_then_continuity():
    g = from_template("star", lengths=[1.0, 1.0, 1.0])
    b = discretize(g, "chebyshev", )
    M = b.vc_rows if not sp.issparse(b.vc_rows) else b.vc_rows.toarray()
    # center vertex block: flux row first (dense derivative row), then
    # continuity rows with exactly two nonzero entries
    assert np.count_nonzero(M[0]) > 2
    assert np.count_nonzero(M[1]) == 2
    assert np.count_nonzero(M[2]) == 2


def test_first_derivative_exactness():
    g = from_template("lasso", nx=[8, 10])
    for scheme in ("uniform", "chebyshev"):
        b = discretize(g, scheme)
        u = apply_function_to_edges(b, [lambda x: 3 * x - 1, lambda x: 0.5 * x + 2])
        du = b.deriv @ u
        want = apply_function_to_edges(b, [3.0, 0.5])
        assert np.max(np.abs(du - want)) < 1e-10
        const = b.deriv @ np.ones(b.n_ext)
        assert np.max(np.abs(const)) < 1e-10


def test_chebyshev_derivative_cubic():
    g = build_graph([1], [2], 1.0, nx=[8])
    b = discretize(g, "chebyshev")
    x = b.grid.x_ext[0]
    assert np.max(np.abs(b.deriv @ x**3 - 3 * x**2)) < 1e-10


def test_too_few_points_rejected():
    g = build_graph([1], [2], 1.0, nx=[2])
    discretize(g, "uniform")
    with pytest.raises(DiscretizationError):
        discretize(g, "chebyshev")


def test_nx_density_resolution():
    g = build_graph([1], [2], math.pi, nx=20)
    b = discretize(g, "uniform")
    assert b.grid.n[0] == round(20 * math.pi)
    bc = discretize(g, "chebyshev")
    assert bc.grid.n[0] == 20  # per-edge count under the spectral scheme


def test_column_round_trip_and_vertex_values():
    g = from_template("lasso", nx=[5, 7])
    for scheme in ("uniform", "chebyshev"):
        b = discretize(g, scheme)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(b.n_ext)
        per_edge, _ = column_to_graph(b, v)
        assert np.array_equal(graph_to_column(b, per_edge), v)

    gi = build_graph([1], [2], 1.0, nx=10)
    b = discretize(gi, "uniform")
    ones = np.ones(b.n_ext)
    _, vals = column_to_graph(b, ones)
    assert np.allclose(vals, [1.0, 1.0])
    u = apply_function_to_edges(b, [lambda x: x])
    _, vals = column_to_graph(b, u)
    assert np.allclose(vals, [0.0, 1.0], atol=1e-12)


def test_apply_functions_and_constants():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    u = apply_function_to_edges(b, [np.sin, lambda x: np.exp(-(x - 2) ** 2), 0])
    assert u.shape == (b.n_ext,)
    assert np.all(u[b.edge_slice(3)] == 0.0)
    zero = apply_function_to_edges(b, [0, 0, 0])
    assert np.all(zero == 0.0)
    with pytest.raises(DiscretizationError):
        apply_function_to_edges(b, [np.sin])


def test_apply_graphical_function():
    g = build_graph([1], [2], 1.0)
    from graphpde.graphs import PlotCoords, StraightEdge
    from graphpde import set_plot_coords
    g = set_plot_coords(g, PlotCoords(((0.0, 0.0), (1.0, 0.0)), (StraightEdge(),)))
    b = discretize(g, "uniform")
    ones = apply_graphical_function(b, 1)
    assert np.all(ones == 1.0)
    u = apply_graphical_function(b, lambda x1, x2: x1)
    assert np.allclose(u, np.concatenate(b.grid.x_ext))


def test_apply_graphical_function_radial_decay():
    # sech of the distance from the hub: a standing-wave seed in one line
    g = from_template("star", lengths=[1.0, 1.0, 1.0, 1.0])
    b = discretize(g, "uniform")
    u = apply_graphical_function(b, lambda x1, x2: 1 / np.cosh(np.hypot(x1, x2)))
    for m in range(1, 5):
        um = u[b.edge_slice(m)]
        # ghost sample mirrors across the hub; past it the seed decays outward
        assert np.all(np.diff(um[1:]) < 0)
        assert abs(um[1] - 1 / math.cosh(b.grid.x_ext[m - 1][1])) < 1e-12


def test_near_symmetry_after_ghost_elimination():
    # equal mesh + Neumann-Kirchhoff: reduced Laplacian is symmetric
    g = from_template("star", lengths=[1.0, 1.0, 1.0], nx=10)
    b = discretize(g, "uniform")
    ghosts = []
    for e in g.edges:
        o, n = b.offsets[e.index - 1], b.grid.n[e.index - 1]
        ghosts += [o, o + n + 1]
    interior = np.setdiff1d(np.arange(b.n_ext), ghosts)
    M = b.vc_rows.toarray()
    L = b.lap_int.toarray()
    X = -np.linalg.solve(M[:, ghosts], M[:, interior])
    A = L[:, interior] + L[:, ghosts] @ X
    assert np.max(np.abs(A - A.T)) < 1e-12 * np.max(np.abs(A))


def test_bundle_structure_dump():
    g = from_template("lasso", nx=[4, 8])
    b = discretize(g, "uniform")
    assert b.n_ext == 16 and b.n_int == 12
    assert b.lap_int.shape == (12, 16)
    assert b.nh_map.nnz == 2


def test_chebyshev_necklace_is_block_sparse_csr():
    # 54 pairs = 162 edges at N=20: one dense N x (N+2) block per edge inside
    # CSR matrices, never an n_ext x n_ext array
    g = from_template("necklace", n_pairs=54, nx=20)
    b = discretize(g, "chebyshev")
    for name in ("lap_int", "interp_int", "vc_rows", "nh_map", "lap_vc",
                 "lap_zero", "interp_vc", "interp_zero", "deriv"):
        assert getattr(b, name).format == "csr", name
    n = b.grid.n
    assert b.graph.num_edges == 162
    assert b.lap_int.nnz == int(np.sum(n * (n + 2)))
    assert b.deriv.nnz == int(np.sum((n + 2) ** 2))
    # constants lie in the kernel of every interior Laplacian row
    assert np.max(np.abs(b.lap_int @ np.ones(b.n_ext))) < 1e-8


def _potential_path():
    return build_graph([1, 2], [2, 3], [1.0, 2.0], nx=[9, 11], robin_coeffs=[0.4, 0.0, 0.0],
                       potentials=[lambda x: 2.0 + np.sin(x), lambda x: x * x])


@pytest.mark.parametrize("template", sorted(TEMPLATES) + ["potential path"])
def test_lap_ext_lifts_lap_int(template):
    g = _potential_path() if template == "potential path" else from_template(template)
    b = discretize(g, "uniform")
    assert b.lap_ext.format == "csr" and b.lap_ext.shape == (b.n_ext, b.n_ext)
    assert (b.interp_int @ b.lap_ext != b.lap_int).nnz == 0
    c = discretize(g, "chebyshev")
    assert c.lap_ext.format == "csr" and c.lap_ext.shape == (c.n_ext, c.n_ext)
    diff = abs(c.interp_int @ c.lap_ext - c.lap_int).max()
    assert diff <= 1e-13 * abs(c.lap_int).max()


def _edge_rows(mat, rows, offset):
    """Row lengths, columns less offset, and value bits of some CSR rows."""
    part = mat[rows]
    return (np.diff(part.indptr).tolist(), (part.indices - offset).tolist(),
            part.data.tobytes())


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_every_edge_gets_the_rows_of_its_own_kind(scheme):
    # edges 1 and 3 share a kind; 1, 2 and 5 differ only in the potential;
    # 1 and 7 (also 2 and 6) differ only in the point count
    lengths = [1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0]
    nx = [10, 10, 10, 12, 10, 12, 12]
    pots = [0, np.sin, 0, 0, np.cos, np.sin, 0]
    g = build_graph([1, 1, 2, 2, 3, 4, 4], [2, 3, 3, 4, 1, 1, 5], lengths, nx=nx,
                    potentials=pots)
    b = discretize(g, scheme)
    ne = g.num_edges
    for m in range(ne):
        one = discretize(build_graph([1], [2], [lengths[m]], nx=[nx[m]],
                                     potentials=[pots[m]]), scheme)
        o, n = b.offsets[m], b.grid.n[m]
        interior = slice(o - 2 * m, o - 2 * m + n)
        ends = [2 * m, 2 * m + 1, 2 * ne + 2 * m, 2 * ne + 2 * m + 1]
        for name, rows in (("lap_int", interior), ("interp_int", interior),
                           ("deriv", slice(o, o + n + 2)), ("end_traces", ends)):
            assert _edge_rows(getattr(b, name), rows, o) == \
                _edge_rows(getattr(one, name), slice(None), 0), (name, m)


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_blocks_are_built_once_per_kind_of_edge(monkeypatch, scheme):
    module = sys.modules["graphpde.discretize"]
    calls = []
    build = module._edge_pieces

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(module, "_edge_pieces", counting)
    g = from_template("necklace", n_pairs=54)
    b = discretize(g, scheme)
    assert g.num_edges == 162 and len(calls) == 2
    # no two edges share a grid array
    for arrays in (b.grid.x_ext, b.grid.x_int, b.grid.weights):
        before = arrays[3].copy()
        arrays[0][:] = -1.0
        assert np.array_equal(arrays[3], before)
