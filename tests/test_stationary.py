import math

import numpy as np
import pytest

from graphpde import (DIRICHLET, NLSProblem, apply_function_to_edges, build_graph,
                      discretize, eigs, find_spectrum_secular, from_template, make_context,
                      mass, nls_jacobian, nls_problem, nls_residual, secular_det,
                      secular_matrix, solve_newton, solve_poisson)
from graphpde.graphs import TEMPLATES
from graphpde import linalg
from graphpde.linalg import SingularMatrixError
from graphpde.stationary import (NewtonError, NullspaceError, SecularError,
                                 _eigenvalue_counts, secular_function,
                                 secular_singular_values)
from tests_support import SECULAR_GALLERY


def five_edge_poisson(nx, scheme):
    g = build_graph([1, 1, 1, 2, 2], [1, 1, 2, 2, 3],
                    [math.pi, 2 * math.pi, 1.0, 2 * math.pi, 2.0],
                    weights=[1, 1, 2, 1, 1], robin_coeffs=[1.0, 1.0, DIRICHLET],
                    nx=nx, potentials=[lambda x: 2 * np.cos(2 * x), 0, 0, 0, 0])
    b = discretize(g, scheme)
    f = apply_function_to_edges(b, [
        lambda x: -np.sin(3 * x), lambda x: 2 * np.cos(2 * x), -4.0,
        lambda x: -np.sin(x), lambda x: 1 / np.cosh(x) - 2 / np.cosh(x) ** 3])
    psi = solve_poisson(b, f, [8.0, 3.0, 1 / math.cosh(2.0)])
    exact = apply_function_to_edges(b, [
        np.sin, lambda x: np.sin(x) ** 2, lambda x: 3 * x - 2 * x**2,
        lambda x: 1 + np.sin(x), lambda x: 1 / np.cosh(x)])
    return b, psi, exact


def test_poisson_five_edge_uniform():
    b, psi, exact = five_edge_poisson(20, "uniform")
    err = np.max(np.abs(psi - exact))
    assert abs(err - 1.02e-3) < 0.1 * 1.02e-3
    res = b.lap_vc @ psi
    res[:b.n_int] = 0.0  # constraint rows only
    rhs = b.nh_map @ np.array([8.0, 3.0, 1 / math.cosh(2.0)])
    assert np.max(np.abs(res - rhs)) < 1e-10 * max(1.0, np.max(np.abs(psi)))


def test_poisson_five_edge_chebyshev():
    _, psi, exact = five_edge_poisson([16] * 5, "chebyshev")
    assert np.max(np.abs(psi - exact)) < 5e-7


def test_poisson_affine_exact_both_schemes():
    for scheme in ("uniform", "chebyshev"):
        g = build_graph([1], [2], 2.0, robin_coeffs=[DIRICHLET, DIRICHLET],
                        nx=[12])
        b = discretize(g, scheme)
        psi = solve_poisson(b, None, [0.0, 2.0])
        exact = apply_function_to_edges(b, [lambda x: x])
        assert np.max(np.abs(psi - exact)) < 1e-12


def test_poisson_all_nk_rejected():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    with pytest.raises(NullspaceError, match="pin"):
        solve_poisson(b, np.zeros(b.n_ext))


def test_eigs_dirichlet_interval():
    g = build_graph([1], [2], math.pi, robin_coeffs=[DIRICHLET, DIRICHLET], nx=60)
    b = discretize(g, "uniform")
    lam, vecs = eigs(b, 2)
    assert np.allclose(np.real(lam), [-1.0, -4.0], atol=2e-3)
    ctx = make_context(b)
    for j in range(2):
        assert abs(mass(ctx, vecs[:, j]) - 1.0) < 1e-10
        assert np.linalg.norm(b.vc_rows @ vecs[:, j], np.inf) < 1e-8


def test_eigs_nk_dumbbell_null_mode():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    lam, vecs = eigs(b, 1)
    assert abs(lam[0]) < 1e-10
    v = np.real(vecs[:, 0])
    assert np.max(np.abs(v - v[0])) < 1e-8


def test_eigs_y_graph_double_eigenvalue():
    g = from_template("Y", nx=40)
    b = discretize(g, "uniform")
    lam, _ = eigs(b, 4)
    lam = np.real(lam)
    # pi^2 double eigenvalue: two nearly equal entries
    assert abs(lam[2] - lam[3]) < 1e-6
    assert abs(lam[2] + math.pi**2) < 6e-3


def test_secular_matrix_shape_and_errors():
    g = from_template("Y")
    S = secular_matrix(g, 1.3)
    assert S.shape == (6, 6) and S.dtype == float
    with pytest.raises(SecularError):
        secular_matrix(g, 0.0)
    # weighted edges are allowed: S(k) is singular at every zero found
    gw = from_template("star", weight=[2, 1, 1])
    zeros = find_spectrum_secular(gw, 5.5)
    assert sum(m for _, m in zeros) == 5
    sv = secular_singular_values(gw, [k for k, _ in zeros])
    assert np.all(sv[:, -1] <= 1e-9 * sv[:, 0])
    gv = build_graph([1], [2], 1.0, potentials=[lambda x: x])
    with pytest.raises(SecularError, match="zero potentials"):
        secular_det(gv, 1.0)
    with pytest.raises(SecularError, match="zero potentials"):
        find_spectrum_secular(gv, 1.0)


def test_secular_dirichlet_interval_zeros():
    g = build_graph([1], [2], math.pi, robin_coeffs=[DIRICHLET, DIRICHLET])
    zeros = find_spectrum_secular(g, 3.5)
    assert [m for _, m in zeros] == [1, 1, 1]
    assert np.allclose([k for k, _ in zeros], [1.0, 2.0, 3.0], atol=1e-9)


def test_secular_y_graph_closed_form():
    g = from_template("Y")
    sigma = secular_function(g)
    closed = lambda k: (4 / 3) * np.sin(k / 2) * (np.cos(k) + 1) \
        * (6 * np.cos(k) ** 2 - 3 * np.cos(k) - 1)
    ks = np.linspace(0.2, 6.4, 25)
    ratios = np.array([sigma(k) / closed(k) for k in ks])
    assert np.max(np.abs(ratios - ratios[0])) < 1e-8 * abs(ratios[0])


def test_secular_y_graph_spectrum_with_multiplicity():
    g = from_template("Y")
    zeros = find_spectrum_secular(g, 2 * math.pi + 0.1)
    k1 = math.acos((3 + math.sqrt(33)) / 12)
    k2 = math.acos((3 - math.sqrt(33)) / 12)
    want = [(k1, 1), (k2, 1), (math.pi, 2), (2 * math.pi - k2, 1),
            (2 * math.pi - k1, 1), (2 * math.pi, 1)]
    assert len(zeros) == len(want)
    for (k, m), (kw, mw) in zip(zeros, want):
        assert abs(k - kw) < 1e-8
        assert m == mw


def test_secular_ring_double_zeros():
    g = from_template("ring")  # circumference 2 pi, single NK vertex
    zeros = find_spectrum_secular(g, 2.5)
    assert [(round(k, 8), m) for k, m in zeros] == [(1.0, 2), (2.0, 2)]
    # cross-check against the generalized eigensolver
    b = discretize(g, "chebyshev")
    lam, _ = eigs(b, 5)
    ks = np.sqrt(-np.real(lam[np.real(lam) < -1e-8]))
    assert np.allclose(sorted(ks)[:2], [1.0, 1.0], atol=1e-8)


def test_secular_det_scalar_api():
    g = build_graph([1], [2], math.pi, robin_coeffs=[DIRICHLET, DIRICHLET])
    assert abs(secular_det(g, 1.0)) < 1e-12
    assert abs(secular_det(g, 0.5)) > 1e-3


def test_secular_matrix_array_k_matches_scalar_calls():
    graphs = [from_template(tag, **kw) for tag, kw, _ in SECULAR_GALLERY]
    # the gallery has neither Dirichlet nor Robin alpha != 0 vertices
    graphs.append(build_graph([1, 2], [2, 3], [1.0, 0.7], robin_coeffs=[DIRICHLET, 0.0, 0.0]))
    graphs.append(build_graph([1, 1], [2, 3], [1.0, 2.0], robin_coeffs=[0.7, -1.3, 2.0]))
    ks = np.linspace(0.05, 7.0, 23)
    for g in graphs:
        S = secular_matrix(g, ks)
        assert S.shape == (len(ks), 2 * g.num_edges, 2 * g.num_edges)
        assert np.array_equal(S, np.stack([secular_matrix(g, k) for k in ks]))
        sigma = secular_function(g)
        vals = sigma(ks)
        assert vals.shape == ks.shape
        assert np.array_equal(vals, [sigma(k) for k in ks])
        assert isinstance(sigma(ks[0]), float)


def test_secular_matrix_array_k_with_zero_raises():
    g = from_template("Y")
    with pytest.raises(SecularError, match="k = 0"):
        secular_matrix(g, np.array([0.5, 0.0, 1.0]))
    with pytest.raises(SecularError, match="k = 0"):
        secular_function(g)(np.array([1.0, 0.0]))


def test_secular_scan_is_batched(monkeypatch):
    matrices, counts = [], []

    def counting_matrix(graph, k):
        matrices.append(np.size(k))
        return secular_matrix(graph, k)

    def counting(split, ks):
        counts.append(ks.size)
        return _eigenvalue_counts(split, ks)

    monkeypatch.setattr("graphpde.stationary.secular_matrix", counting_matrix)
    monkeypatch.setattr("graphpde.stationary._eigenvalue_counts", counting)
    zeros = find_spectrum_secular(from_template("Y"), 2 * math.pi + 0.1)
    assert len(zeros) == 6
    assert not matrices
    # one batch for the two ends, then one per bisection level down to 1e-10
    assert len(counts) <= 40
    assert counts[0] == 2


@pytest.mark.parametrize("n_pairs, total", [(5, 15), (10, 32)])
def test_secular_large_necklace_scans(n_pairs, total):
    # the counting scan's total multiplicity on the 5- and 10-pair necklaces,
    # and the n_pairs-fold zero at k = 2
    zeros = find_spectrum_secular(from_template("necklace", n_pairs=n_pairs), 2.8)
    # Chebyshev eigs finds this many eigenvalues with k <= 2.8
    assert sum(m for _, m in zeros) == total
    # k = 2 has multiplicity n_pairs: one loop state per pearl
    assert [m for k, m in zeros if abs(k - 2.0) < 1e-8] == [n_pairs]


def test_secular_gallery_cross_validates_eigs():
    for tag, kw, k_max in SECULAR_GALLERY:
        g0 = from_template(tag, **kw)
        nx = [24 + math.ceil(1.5 * k_max * e.length) for e in g0.edges]
        g = from_template(tag, nx=nx, **kw)
        total = sum(e.length for e in g.edges)
        lam, _ = eigs(discretize(g, "chebyshev"),
                      math.ceil(total * k_max / math.pi) + g.num_edges + 4)
        k = np.sqrt(np.maximum(-np.real(lam), 0.0))
        k_eigs = np.sort(k[(k > 1e-3) & (k <= k_max)])
        zeros = find_spectrum_secular(g, k_max)
        k_sec = np.repeat([z for z, _ in zeros], [m for _, m in zeros])
        assert len(k_sec) == len(k_eigs), (tag, kw)
        assert np.max(np.abs(k_sec - k_eigs)) <= 1e-6, (tag, kw)


def _chebyshev_wavenumbers(tag, kw, k_max):
    """The graph at the gallery test's Chebyshev resolution, and the
    wavenumbers in (1e-3, k_max] of its discretized spectrum."""
    g0 = from_template(tag, **kw)
    g = from_template(tag, nx=[24 + math.ceil(1.5 * k_max * e.length) for e in g0.edges], **kw)
    total = sum(e.length for e in g.edges)
    lam, _ = eigs(discretize(g, "chebyshev"),
                  math.ceil(total * k_max / math.pi) + g.num_edges + 4)
    k = np.sqrt(np.maximum(-np.real(lam), 0.0))
    return g, np.sort(k[(k > 1e-3) & (k <= k_max)])


SECULAR_EIGS_CASES = (
    # a double zero 1.23e-2 below the 16-fold one at k = 2, in the flank
    # of the (k - 2)^16 factor of Sigma
    ("necklace", {"n_pairs": 16}, 2.45),
    ("star", {"weight": [2, 1, 1]}, 5.5),
    ("Y", {"weight": [3, 1, 1]}, 2 * math.pi + 0.1),
    ("star", {"robin": 1.3}, 5.5),
    ("star", {"robin": -0.8}, 5.5),
    ("lasso", {"robin": [DIRICHLET, 1.3]}, 2.9),
    ("star", {"weight": [2, 1, 1], "robin": [0.0, 1.3, DIRICHLET, -0.8]}, 5.5),
    # weighted edges with two Dirichlet ends: the weight is read from the
    # graph, not from the flux rows, which hold none for such an edge
    ("star", {"weight": [3, 1, 1], "robin": [DIRICHLET, DIRICHLET, 0.0, 0.0]}, 5.5),
    ("interval", {"robin": [DIRICHLET, DIRICHLET], "weight": 3.0}, 7.0),
)


@pytest.mark.parametrize("tag, kw, k_max", SECULAR_EIGS_CASES)
def test_secular_spectrum_matches_eigs(tag, kw, k_max):
    g, k_eigs = _chebyshev_wavenumbers(tag, kw, k_max)
    zeros = find_spectrum_secular(g, k_max)
    k_sec = np.repeat([z for z, _ in zeros], [m for _, m in zeros])
    assert len(k_sec) == len(k_eigs)
    assert np.max(np.abs(k_sec - k_eigs)) <= 1e-8
    if tag == "necklace":
        assert (1.98766659, 2) in [(round(k, 8), m) for k, m in zeros]


def test_secular_sign_changes_match_zero_multiplicities():
    # Sigma changes sign between two samples exactly when the zeros the
    # counting scan finds between them have an odd total multiplicity
    for tag, kw, k_max in SECULAR_GALLERY + SECULAR_EIGS_CASES:
        g = from_template(tag, **kw)
        ks = np.linspace(k_max / 400, k_max, 400)
        signs = np.sign(secular_function(g)(ks))
        zeros = find_spectrum_secular(g, k_max)
        for lo, hi, flip in zip(ks[:-1], ks[1:], signs[:-1] != signs[1:]):
            if any(min(abs(z - lo), abs(z - hi)) <= 1e-8 for z, _ in zeros):
                continue
            odd = sum(m for z, m in zeros if lo < z <= hi) % 2 == 1
            assert flip == odd, (tag, kw, lo, hi)


def test_secular_function_is_accurate_on_the_large_necklace():
    # on the 54-pair necklace, |Sigma| must match (2k)^E prod sigma_i(S)
    # wherever S(k) is well conditioned: the QR determinant is backward
    # stable, while an LU of S grows tiny pivots there
    g = from_template("necklace")
    grid = np.linspace(2.45 / 300, 2.45, 300)
    ks = np.concatenate([grid[::25], grid[[138, 140, 143, 145, 146, 147]]])
    sv = secular_singular_values(g, ks)
    well = sv[:, 0] <= 1e3 * sv[:, -1]
    assert well.sum() >= 12
    want = np.exp(g.num_edges * np.log(2 * ks) + np.log(sv).sum(axis=1))
    got = np.abs(secular_function(g)(ks))
    assert np.max(np.abs(got - want)[well] / want[well]) <= 1e-10


def test_secular_scan_starts_clear_of_zero_on_short_edges():
    # a 1e-4 edge on a 100 edge: the Neumann path of length 100.0001, whose
    # zeros j pi / 100.0001 start near 0.0314; the constant state at k = 0
    # is not reported
    g = from_template("star", lengths=[1e-4, 100.0])
    zeros = find_spectrum_secular(g, 2.0)
    want = np.pi * np.arange(1, 64) / 100.0001
    assert [m for _, m in zeros] == [1] * len(want)
    assert np.max(np.abs(np.array([k for k, _ in zeros]) - want)) <= 1e-9
    # no zero in range: below Y's first zero 0.7536, and below k_lo
    assert find_spectrum_secular(from_template("Y"), 0.7) == []
    assert find_spectrum_secular(from_template("Y"), 1e-9) == []


def test_secular_multiple_zero_on_a_bisection_midpoint():
    # k_max = 4 - k_lo puts the first midpoint on the 3-fold zero k = 2,
    # where roundoff can split its count between the two halves
    g = from_template("necklace", n_pairs=3)
    r = (3 - math.sqrt(5)) / 2
    sub = np.outer([e.length for e in g.edges], [r, 1 - r])
    k_lo = 1e-4 / math.sqrt(np.min(sub) * np.mean(sub))
    assert 0.5 * (k_lo + (4.0 - k_lo)) == 2.0
    zeros = find_spectrum_secular(g, 4.0 - k_lo)
    assert [m for k, m in zeros if abs(k - 2.0) < 1e-9] == [3]
    _, k_eigs = _chebyshev_wavenumbers("necklace", {"n_pairs": 3}, 4.0 - k_lo)
    assert sum(m for _, m in zeros) == len(k_eigs)


def _edge_wave_states(bundle, ks, rng):
    """Coefficients c = (c_1, s_1, ...) and samples of psi_m = c_m cos kx +
    s_m sin(kx) / k on the extended grid, one pair per k."""
    for k in ks:
        c = rng.standard_normal(2 * bundle.graph.num_edges) \
            + 1j * rng.standard_normal(2 * bundle.graph.num_edges)
        psi = np.concatenate([c[2 * m] * np.cos(k * x) + c[2 * m + 1] * np.sin(k * x) / k
                              for m, x in enumerate(bundle.grid.x_ext)])
        yield k, c, psi


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_vertex_rows_agree_with_secular_matrix(scheme):
    # vc_rows and S(k) come from the same vertex conditions: on an edge-wave
    # state they give the same rows, up to the 1/k on the flux rows and the
    # discretization error of the scheme's end traces
    ks = (0.6, 1.7, 2.9)
    cases = [(tag, {}) for tag in sorted(TEMPLATES)]
    cases += [("star", {"robin": 1.3}), ("lasso", {"robin": [DIRICHLET, 1.3]})]
    rng = np.random.default_rng(5)
    for tag, kw in cases:
        g = from_template(tag, **kw)
        if scheme == "chebyshev":
            g = from_template(tag, nx=[24 + math.ceil(1.5 * max(ks) * e.length)
                                       for e in g.edges], **kw)
        b = discretize(g, scheme)
        flux = [r - b.n_int for r, v in zip(b.vertex_row, g.vertices) if not v.is_dirichlet]
        degree = max(g.degree(n) for n in range(1, g.num_vertices + 1))
        for k, c, psi in _edge_wave_states(b, ks, rng):
            want = secular_matrix(g, k) @ c
            want[flux] *= k
            err = np.abs(b.vc_rows @ psi - want)
            if scheme == "chebyshev":
                assert np.max(err) <= 1e-8 * np.max(np.abs(want)), (tag, kw, k)
            else:
                # ghost-point values and outward derivatives are second order
                tol = (k * np.max(b.grid.h)) ** 2 * (1.0 + k) * degree * np.max(np.abs(c))
                assert np.max(err) <= tol, (tag, kw, k)


def test_nls_residual_zero_solution():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    p = nls_problem(b)
    for lam in (-1.0, 0.3):
        assert np.max(np.abs(nls_residual(p, np.zeros(b.n_ext), lam))) == 0.0


def test_nls_constant_branch_residual():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    p = nls_problem(b)
    lam = -0.3
    psi = np.full(b.n_ext, math.sqrt(-lam / 2))
    assert np.max(np.abs(nls_residual(p, psi, lam))) < 1e-14


def test_nls_jacobian_vs_finite_differences():
    g = from_template("lasso", nx=[5, 7])
    for scheme in ("uniform", "chebyshev"):
        b = discretize(g, scheme)
        p = nls_problem(b)
        rng = np.random.default_rng(12)
        psi = rng.standard_normal(b.n_ext)
        J = nls_jacobian(p, psi, -0.7)
        J = J.toarray() if hasattr(J, "toarray") else J
        eps = 1e-6
        for j in range(0, b.n_ext, 3):
            e = np.zeros(b.n_ext)
            e[j] = eps
            col = (nls_residual(p, psi + e, -0.7)
                   - nls_residual(p, psi - e, -0.7)) / (2 * eps)
            assert np.max(np.abs(J[:, j] - col)) < 1e-6


def test_newton_soliton_on_interval():
    g = build_graph([1], [2], 40.0, nx=40)
    b = discretize(g, "uniform")
    p = nls_problem(b)
    psi0 = apply_function_to_edges(b, [lambda x: 1 / np.cosh(x - 20)])
    res = solve_newton(p, psi0, -1.0)
    assert res.residual_norm <= 1e-10
    assert np.max(np.abs(res.psi - psi0)) < 1e-4


def test_newton_zero_seed_converges_to_zero():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    p = nls_problem(b)
    res = solve_newton(p, np.zeros(b.n_ext), -1.0)
    assert res.iterations == 0
    assert np.all(res.psi == 0.0)


def test_newton_dumbbell_unimodal_wave():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    p = nls_problem(b)
    psi0 = apply_function_to_edges(b, [0, lambda x: 1 / np.cosh(x - 2), 0])
    res = solve_newton(p, psi0, -1.0)
    assert res.residual_norm <= 1e-10
    per_edge = res.psi[b.edge_slice(2)]
    assert per_edge.max() > 0.5  # hump survives on the handle
    assert np.max(np.abs(nls_residual(p, res.psi, -1.0))) <= 1e-10


def test_newton_nonconvergence_reported():
    g = build_graph([1], [2], 1.0, robin_coeffs=[DIRICHLET, DIRICHLET], nx=10)
    b = discretize(g, "uniform")
    p = nls_problem(b)
    rng = np.random.default_rng(1)
    with pytest.raises(NewtonError):
        solve_newton(p, 100.0 * rng.standard_normal(b.n_ext), -1.0, max_iter=3)


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_newton_refuses_a_non_finite_residual(scheme):
    # f(1e200) overflows; the Jacobian at that seed is never factored
    b = discretize(from_template("dumbbell"), scheme)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NewtonError, match="non-finite residual at iteration 1"):
        solve_newton(nls_problem(b), np.full(b.n_ext, 1e200), -1.0)


def test_newton_refuses_a_non_finite_jacobian():
    # the residual at iteration 2 is finite, but the Jacobian there holds
    # overflowed entries; Factorization refuses them, and Newton says so
    b = discretize(from_template("dumbbell"), "uniform")
    seed = 1e20 * np.random.default_rng(0).standard_normal(b.n_ext)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NewtonError, match="non-finite Jacobian at iteration 2") as info:
        solve_newton(nls_problem(b, sigma=2.0), seed, -1.0)
    assert isinstance(info.value.__cause__, linalg.NonFiniteMatrixError)


@pytest.mark.parametrize("make", [nls_problem, NLSProblem])
def test_general_sigma_nonlinearity(make):
    b = discretize(build_graph([1], [2], 1.0, nx=10), "uniform")
    p = make(b, sigma=2.0)
    z = np.array([0.5, -1.2])
    assert np.allclose(p.f(z), 3.0 * np.abs(z) ** 4 * z)
    assert np.allclose(p.fprime(z), 15.0 * np.abs(z) ** 4)
    with pytest.raises(ValueError, match="f.0. = 0"):
        nls_problem(b, f=lambda z: z + 1.0, fprime=lambda z: 1.0)


# --- the eigen-shift is refused by the computed spectrum, not by U's pivots ---

def _multiscale_star():
    """A Kirchhoff star whose edges span four decades: the short edge's
    Chebyshev blocks are scaled by (2/l)^2 = 4e8."""
    return build_graph([1, 1, 1], [2, 3, 4], [1e-4, 1.0, 3.0], nx=[25, 27, 29])


@pytest.mark.parametrize("sigma", [0.01, -0.3])
def test_multiscale_star_chebyshev_spectrum_matches_the_counting_scan(sigma):
    g = _multiscale_star()
    lam, vecs = eigs(discretize(g, "chebyshev"), 5, sigma=sigma)
    nonzero = np.sort(lam[np.abs(lam) > 1e-6])
    ks = [k for k, mult in find_spectrum_secular(g, 3.2) for _ in range(mult)]
    assert len(nonzero) == len(ks) == 4
    np.testing.assert_allclose(nonzero, np.sort(-np.array(ks) ** 2), rtol=1e-7)


@pytest.mark.parametrize("sigma", [0.01, -0.3])
def test_multiscale_star_uniform_solves(sigma):
    lam, _ = eigs(discretize(_multiscale_star(), "uniform"), 5, sigma=sigma)
    assert lam.shape == (5,) and abs(lam[0]) < 1e-6


_SMALL_GALLERY = [("interval", {}), ("Y", {}), ("star", {}), ("dumbbell", {}), ("lasso", {}),
                  ("ring", {}), ("tetrahedron", {}), ("bubbleTower", {}),
                  ("necklace", {"n_pairs": 5})]


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
@pytest.mark.parametrize("tag, overrides", _SMALL_GALLERY)
def test_a_shift_on_a_computed_eigenvalue_is_refused(tag, overrides, scheme):
    b = discretize(from_template(tag, **overrides), scheme)
    lam, vecs = eigs(b, 4)
    for j, sigma in enumerate(lam):
        with pytest.raises(SingularMatrixError, match="lies on"):
            eigs(b, 4, sigma=float(sigma))
        # the returned sign: the largest entry of each eigenvector is positive
        assert vecs[np.argmax(np.abs(vecs[:, j])), j] > 0


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_nls_problem_refuses_a_non_finite_sigma(sigma):
    b = discretize(from_template("Y"), "uniform")
    with pytest.raises(ValueError, match="sigma must be finite"):
        NLSProblem(b, sigma=sigma)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_the_power_law_vanishes_at_zero_and_fprime_is_its_derivative(sigma):
    p = NLSProblem(discretize(from_template("Y"), "uniform"), sigma=sigma)
    assert p.f(0.0) == 0.0
    z = np.array([-2.0, -1.3, -0.4, 0.3, 0.9, 1.7])
    h = 1e-5
    central = (p.f(z + h) - p.f(z - h)) / (2.0 * h)
    np.testing.assert_allclose(p.fprime(z), central, rtol=1e-6)


def test_the_power_law_at_sigma_one_is_the_cubic():
    p = NLSProblem(discretize(from_template("Y"), "uniform"), sigma=1.0)
    z = np.random.default_rng(7).standard_normal(5000)
    cubic = 2.0 * z**3
    assert np.all(np.abs(p.f(z) - cubic) <= np.spacing(np.abs(cubic)))
    assert np.array_equal(p.fprime(z), 6.0 * z**2)


def test_nls_problem_refuses_a_negative_sigma_and_a_nan_at_zero():
    b = discretize(from_template("Y"), "uniform")
    with pytest.raises(ValueError, match="sigma must be finite and at least 0, got -0.5"):
        NLSProblem(b, sigma=-0.5)
    with pytest.raises(ValueError, match="f.0. = 0"):
        NLSProblem(b, f=lambda z: z * math.nan, fprime=lambda z: 1.0)
