import math
import warnings

import numpy as np
import pytest

from graphpde import (DIRICHLET, apply_function_to_edges, build_graph,
                      conservation_trace, crank_nicolson_heat, discretize, eigs,
                      from_template, imex_euler, leapfrog_klein_gordon,
                      make_context, sdirk443)
from graphpde import evolution as evo
from graphpde import linalg
from graphpde.evolution import EvolutionError, EvolutionProblem
from tests_support import (kink_tetrahedron, recorded_projection_rows, reference_imex_rk,
                           reference_leapfrog, stepping_report, stepping_runs)


def _forward_euler(problem, u0):
    """Order-check oracle: explicit Laplacian, tiny steps only."""
    b = problem.bundle
    fact = linalg.factorize(b.interp_vc)
    f = problem.f or (lambda u: 0.0 * u)
    u = np.asarray(u0, dtype=complex if np.iscomplexobj(u0) else float)
    n = problem.n_steps
    for _ in range(n):
        rhs = b.interp_zero @ (u + problem.tau * f(u)) \
            + (problem.tau * problem.mu) * (b.lap_zero @ u)
        u = fact.solve(rhs)
    return u


def _backward_euler(problem, u0):
    """Order-check oracle: fully implicit via lagged fixed-point iterations."""
    b = problem.bundle
    fact = linalg.factorize(b.interp_vc - (problem.tau * problem.mu) * b.lap_vc)
    f = problem.f or (lambda u: 0.0 * u)
    u = np.asarray(u0, dtype=float)
    for _ in range(problem.n_steps):
        new = u
        for _ in range(50):
            prev = new
            new = fact.solve(b.interp_zero @ (u + problem.tau * f(new)))
            if np.max(np.abs(new - prev)) < 1e-13:
                break
        u = new
    return u


def dirichlet_interval(nx=40):
    g = build_graph([1], [2], math.pi, robin_coeffs=[DIRICHLET, DIRICHLET], nx=nx)
    return discretize(g, "uniform")


def test_problem_validation():
    b = dirichlet_interval(10)
    with pytest.raises(EvolutionError):
        EvolutionProblem(b, tau=-0.1)
    with pytest.raises(EvolutionError):
        EvolutionProblem(b, n_skip=0)
    p = EvolutionProblem(b, tau=0.1, t_final=1.0)
    with pytest.raises(EvolutionError):
        crank_nicolson_heat(p, np.ones(3))


def test_initial_constraint_warning():
    b = dirichlet_interval(10)
    p = EvolutionProblem(b, tau=0.1, t_final=0.2)
    with pytest.warns(UserWarning, match="vertex conditions"):
        crank_nicolson_heat(p, np.ones(b.n_ext))


def test_cn_constant_fixed_point():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    p = EvolutionProblem(b, tau=0.05, t_final=1.0)
    t, s = crank_nicolson_heat(p, np.full(b.n_ext, 3.0))
    assert np.max(np.abs(s - 3.0)) < 1e-12


def test_cn_heat_conservation_dumbbell():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    u0 = apply_function_to_edges(
        b, [lambda x: 2 - 2 * np.cos(x - math.pi / 3), 1.0, np.cos])
    p = EvolutionProblem(b, tau=0.01, t_final=10.0, n_skip=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t, s = crank_nicolson_heat(p, u0)
    ctx = make_context(b)
    tr = conservation_trace(ctx, t, s, ["total_heat"])
    assert tr["total_heat_drift"].max() <= 1e-10


def test_cn_decay_rate_matches_heat_kernel():
    b = dirichlet_interval(80)
    u0 = apply_function_to_edges(b, [np.sin])
    tau = 0.01
    p = EvolutionProblem(b, tau=tau, t_final=1.0, n_skip=10 ** 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t, s = crank_nicolson_heat(p, u0)
    mid = s[:, -1][np.argmax(u0)]
    assert abs(mid - math.exp(-1.0)) < 5e-4  # O(tau^2 + h^2)


def test_cn_exact_amplification_on_discrete_eigenvector():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    lam, vecs = eigs(b, 3)
    lv = float(np.real(lam[1]))
    v = np.real(vecs[:, 1])
    for _ in range(2):  # polish so the eigenpair limit is not the bottleneck
        f = linalg.factorize((b.lap_vc - (lv + 1e-9) * b.interp_zero).tocsc())
        v = f.solve(b.interp_zero @ v)
        v /= np.linalg.norm(v)
    tau = 0.05
    p = EvolutionProblem(b, tau=tau, t_final=5 * tau, n_skip=1)
    t, s = crank_nicolson_heat(p, v)
    growth = (1 + 0.5 * tau * lv) / (1 - 0.5 * tau * lv)
    pred = v.copy()
    for j in range(1, s.shape[1]):
        pred = growth * pred
        assert np.max(np.abs(s[:, j] - pred)) < 1e-12


def test_leapfrog_constant_state():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    p = EvolutionProblem(b, tau=0.02, t_final=1.0)
    t, s = leapfrog_klein_gordon(p, lambda u: 0.0 * u,
                                 np.full(b.n_ext, 2.0), np.zeros(b.n_ext))
    assert np.max(np.abs(s - 2.0)) < 1e-12


def test_leapfrog_instability_detector():
    b = dirichlet_interval(50)
    u0 = apply_function_to_edges(b, [np.sin])
    p = EvolutionProblem(b, tau=1.0, t_final=50.0)  # violates CFL wildly
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(EvolutionError, match="unstable"):
            leapfrog_klein_gordon(p, np.sin, u0, np.zeros(b.n_ext))


def test_imex_euler_invariant_constant():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    p = EvolutionProblem(b, mu=1.0, tau=0.1, t_final=1.0)
    t, s = imex_euler(p, np.full(b.n_ext, 1.5))
    assert np.max(np.abs(s - 1.5)) < 1e-12


def test_imex_euler_heat_first_order():
    b = dirichlet_interval(60)
    u0 = apply_function_to_edges(b, [np.sin])
    exact_decay = math.exp(-1.0)
    errs = []
    for tau in (0.02, 0.01):
        p = EvolutionProblem(b, tau=tau, t_final=1.0, n_skip=10 ** 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t, s = imex_euler(p, u0)
        errs.append(abs(np.max(s[:, -1]) - exact_decay))
    assert 1.8 <= errs[0] / errs[1] <= 2.2


def test_imex_euler_schroedinger_mass_drift():
    g = from_template("ring", nx=40)
    b = discretize(g, "uniform")
    x = b.grid.x_ext[0]
    u0 = np.exp(1j * x)  # plane wave on the ring
    tau = 1e-5
    p = EvolutionProblem(b, mu=-1j, tau=tau, t_final=100 * tau, n_skip=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t, s = imex_euler(p, u0)
    ctx = make_context(b)
    tr = conservation_trace(ctx, t, s, ["mass"])
    assert tr["mass_drift"].max() <= 1e-8


def test_order_ratios_all_steppers():
    b = dirichlet_interval(40)
    u0 = apply_function_to_edges(b, [np.sin])
    f = lambda u: u - u**3

    def final(stepper, tau, **kw):
        p = EvolutionProblem(b, mu=1.0, f=f, tau=tau, t_final=0.5, n_skip=10 ** 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t, s = stepper(p, u0, **kw)
        return s[:, -1]

    taus = (0.02, 0.01, 0.005)
    for stepper, expected, tol in ((imex_euler, 2.0, 0.2), (sdirk443, 8.0, 2.0)):
        u = [final(stepper, tau) for tau in taus]
        ratio = np.linalg.norm(u[0] - u[1]) / np.linalg.norm(u[1] - u[2])
        assert abs(ratio - expected) <= tol

    # CN (heat, f ignored) and leapfrog (wave) are second order
    u = []
    for tau in taus:
        p = EvolutionProblem(b, tau=tau, t_final=0.5, n_skip=10 ** 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u.append(crank_nicolson_heat(p, u0)[1][:, -1])
    ratio = np.linalg.norm(u[0] - u[1]) / np.linalg.norm(u[1] - u[2])
    assert abs(ratio - 4.0) <= 0.5

    u = []
    for tau in taus:
        p = EvolutionProblem(b, tau=tau, t_final=0.5, n_skip=10 ** 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u.append(leapfrog_klein_gordon(p, np.sin, u0,
                                           np.zeros(b.n_ext))[1][:, -1])
    ratio = np.linalg.norm(u[0] - u[1]) / np.linalg.norm(u[1] - u[2])
    assert abs(ratio - 4.0) <= 0.5


def test_euler_oracles_bracket_imex():
    # forward and backward Euler converge to the same flow from both sides
    b = dirichlet_interval(30)
    u0 = apply_function_to_edges(b, [np.sin])
    f = lambda u: 0.5 * u
    ref = None
    for tau in (1e-3, 5e-4):
        p = EvolutionProblem(b, mu=1.0, f=f, tau=tau, t_final=0.1, n_skip=10 ** 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fe = _forward_euler(p, u0)
            be = _backward_euler(p, u0)
            im = imex_euler(p, u0)[1][:, -1]
        spread = max(np.max(np.abs(fe - im)), np.max(np.abs(be - im)))
        if ref is not None:
            assert spread < 0.6 * ref  # first-order shrinkage
        ref = spread


def test_constraint_manifold_preserved_all_steppers():
    g = from_template("Y", nx=12)
    b = discretize(g, "uniform")
    u0 = apply_function_to_edges(
        b, [lambda x: np.sin(math.pi * x / 1.5), lambda x: np.sin(math.pi * x),
            lambda x: np.sin(math.pi * x)])
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = EvolutionProblem(b, tau=0.01, t_final=0.2)
        runs.append(crank_nicolson_heat(p, u0)[1])
        runs.append(imex_euler(p, u0)[1])
        runs.append(sdirk443(p, u0)[1])
        runs.append(leapfrog_klein_gordon(p, np.sin, u0, np.zeros(b.n_ext))[1])
    for s in runs:
        for j in range(1, s.shape[1]):
            assert np.linalg.norm(b.vc_rows @ s[:, j], np.inf) <= 1e-8


def test_factorization_reuse(monkeypatch):
    calls, solves = [], []
    original = linalg.factorize
    original_solve = linalg.Factorization.solve

    def counting(A):
        calls.append(A.shape)
        return original(A)

    def counting_solve(self, rhs):
        solves.append(np.shape(rhs))
        return original_solve(self, rhs)

    monkeypatch.setattr(evo.linalg, "factorize", counting)
    monkeypatch.setattr(linalg.Factorization, "solve", counting_solve)
    b = dirichlet_interval(20)
    u0 = apply_function_to_edges(b, [np.sin])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = EvolutionProblem(b, tau=0.01, t_final=0.5)
        crank_nicolson_heat(p, u0)
        assert len(calls) == 1
        sdirk443(p, u0)
        assert len(calls) == 2  # still one factorization per run
        imex_euler(p, u0)
        assert len(calls) == 3
        # leapfrog: one factorization and one multi-column solve per run,
        # whatever n_steps is
        for t_final in (0.05, 0.5):
            calls.clear()
            solves.clear()
            p = EvolutionProblem(b, tau=0.01, t_final=t_final)
            leapfrog_klein_gordon(p, np.sin, u0, np.zeros(b.n_ext))
            assert calls == [(b.n_ext, b.n_ext)]
            assert solves == [(b.n_ext, b.n_ext - b.n_int)]


def _mixed_vertex_graph(nx):
    # Dirichlet vertex 1, Kirchhoff vertex 2 (degree 4, one weight 2), Robin
    # vertex 3 with alpha = 0.7 on two ends, Kirchhoff leaf 4; a potential on
    # edge 2
    return build_graph([1, 2, 2, 2], [2, 3, 3, 4], [1.0, 1.3, 0.9, 0.7],
                       weights=[1.0, 2.0, 1.0, 1.0],
                       robin_coeffs=[DIRICHLET, 0.0, 0.7, 0.0], nx=nx,
                       potentials=[None, lambda x: 1.0 + 0.5 * np.cos(3.0 * x),
                                   None, None])


def _leapfrog_by_solves(problem, g, u0, v0):
    """The constrained solve each leapfrog step stands for, written out."""
    b, tau = problem.bundle, problem.tau
    fact = linalg.factorize(b.interp_vc)
    u_prev = u0
    u = fact.solve(b.interp_zero @ (u0 + tau * v0 - 0.5 * tau**2 * g(u0))
                   + 0.5 * tau**2 * (b.lap_zero @ u0))
    states = [u0, u]
    for _ in range(2, problem.n_steps + 1):
        u_prev, u = u, fact.solve(b.interp_zero @ (2.0 * u - u_prev - tau**2 * g(u))
                                  + tau**2 * (b.lap_zero @ u))
        states.append(u)
    return np.column_stack(states)


@pytest.mark.parametrize("scheme,nx,tau", [("uniform", 20, 5e-3),
                                           ("chebyshev", [12, 14, 10, 9], 1e-3)])
def test_leapfrog_matches_constrained_solve(scheme, nx, tau):
    b = discretize(_mixed_vertex_graph(nx), scheme)
    fact = linalg.factorize(b.interp_vc)
    # initial data on the vertex conditions: the constrained interpolant
    raw_u = apply_function_to_edges(b, [lambda x: np.cos(2.0 * x) + x] * 4)
    raw_v = apply_function_to_edges(b, [lambda x: np.sin(x) - 0.5 * x * x] * 4)
    u0 = fact.solve(b.interp_zero @ raw_u)
    v0 = fact.solve(b.interp_zero @ raw_v)
    p = EvolutionProblem(b, tau=tau, t_final=20 * tau)
    assert p.n_steps == 20
    _, s = leapfrog_klein_gordon(p, np.sin, u0, v0)
    want = _leapfrog_by_solves(p, np.sin, u0, v0)
    assert s.shape == want.shape
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(s - want)) <= 1e-9 * scale
    for j in range(s.shape[1]):
        assert np.linalg.norm(b.vc_rows @ s[:, j], np.inf) <= 1e-8


def test_sampler_decimation_and_final_step():
    b = dirichlet_interval(10)
    u0 = apply_function_to_edges(b, [np.sin])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = EvolutionProblem(b, tau=0.01, t_final=0.25, n_skip=10)
        t, s = crank_nicolson_heat(p, u0)
    assert t[0] == 0.0 and np.isclose(t[-1], 0.25)
    assert np.allclose(np.diff(t)[:-1], 0.1)
    assert s.shape[1] == len(t)


def test_conservation_trace_zero_state():
    b = dirichlet_interval(10)
    ctx = make_context(b)
    states = np.zeros((b.n_ext, 3))
    tr = conservation_trace(ctx, [0.0, 0.1, 0.2], states,
                            ["mass", "energy", "momentum", "total_heat"])
    for q in ("mass", "energy", "momentum", "total_heat"):
        assert np.all(tr[q] == 0.0)
        assert np.all(tr[q + "_drift"] == 0.0)
    with pytest.raises(EvolutionError, match="unknown quantity"):
        conservation_trace(ctx, [0.0], np.zeros((b.n_ext, 1)), ["vorticity"])


def test_non_finite_states_raise():
    b = dirichlet_interval(20)
    u0 = apply_function_to_edges(b, [np.sin])
    bad = u0.copy()
    bad[3] = np.nan
    with pytest.raises(EvolutionError, match=r"step 0 \(t = 0\)"):
        crank_nicolson_heat(EvolutionProblem(b, tau=0.1, t_final=1.0), bad)
    with pytest.raises(EvolutionError, match=r"step 0 \(t = 0\)"):
        sdirk443(EvolutionProblem(b, tau=0.1, t_final=1.0), bad)
    blow_up = lambda u: np.where(np.abs(u) > 0, np.inf, 0.0)  # noqa: E731
    for stepper in (imex_euler, sdirk443):
        p = EvolutionProblem(b, f=blow_up, tau=0.1, t_final=1.0, n_skip=3)
        with pytest.raises(EvolutionError, match=r"non-finite state at step 3 \(t = 0.3\)"):
            stepper(p, u0)
    p = EvolutionProblem(b, tau=0.1, t_final=1.0)
    with pytest.raises(EvolutionError, match="step 0"):
        imex_euler(p, bad)


@pytest.mark.parametrize("tableau", ["_CRANK_NICOLSON", "_ARS111", "_ARS443"])
def test_tableaus_are_ars_form(tableau):
    a_im, a_ex = getattr(evo, tableau)
    assert a_im.shape == a_ex.shape
    assert not a_im[0].any() and not np.triu(a_im, 1).any()
    assert np.all(np.diag(a_im)[1:] == a_im[-1, -1])  # one diagonal gamma
    assert not np.triu(a_ex).any()
    if a_ex.any():
        # both tableaus put level i at the same time t_n + c_i tau
        assert np.allclose(a_im.sum(axis=1), a_ex.sum(axis=1))


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
@pytest.mark.parametrize("stepper,tau", [(imex_euler, 1.0), (sdirk443, 2.0),
                                         (crank_nicolson_heat, 2.0)])
def test_implicit_steppers_where_the_lap_vc_factor_is_singular(scheme, stepper, tau):
    # tau mu = 1/gamma: (interp_vc - gamma tau mu lap_vc) has empty vertex
    # rows there, while the lap_zero factor keeps them at vc_rows
    b = discretize(from_template("dumbbell"), scheme)
    p = EvolutionProblem(b, mu=1.0, tau=tau, t_final=5 * tau)
    _, s = stepper(p, np.full(b.n_ext, 3.0))
    assert np.max(np.abs(s - 3.0)) <= 1e-12 * 3.0
    for j in range(s.shape[1]):
        assert np.linalg.norm(b.vc_rows @ s[:, j], np.inf) <= 1e-10


def _crank_nicolson_by_formula(problem, u0):
    b, h = problem.bundle, 0.5 * problem.tau * problem.mu
    minus = linalg.factorize(b.interp_vc - h * b.lap_zero)
    plus = b.interp_zero + h * b.lap_zero
    states = [u0]
    for _ in range(problem.n_steps):
        states.append(minus.solve(plus @ states[-1]))
    return np.column_stack(states)


def _imex_euler_by_formula(problem, u0):
    b, tau, f = problem.bundle, problem.tau, problem.f
    fact = linalg.factorize(b.interp_vc - (tau * problem.mu) * b.lap_vc)
    states = [u0]
    for _ in range(problem.n_steps):
        u = states[-1]
        states.append(fact.solve(b.interp_zero @ (u + tau * f(u))))
    return np.column_stack(states)


_ARS443_IM = [[1 / 2], [1 / 6, 1 / 2], [-1 / 2, 1 / 2, 1 / 2], [3 / 2, -3 / 2, 1 / 2, 1 / 2]]
_ARS443_EX = [[1 / 2], [11 / 18, 1 / 18], [5 / 6, -5 / 6, 1 / 2], [1 / 4, 7 / 4, 3 / 4, -7 / 4]]


def _ars443_by_formula(problem, u0):
    """Four stages on the lap_vc factor, each with its full stage history."""
    b, tau, mu, f = problem.bundle, problem.tau, problem.mu, problem.f
    fact = linalg.factorize(b.interp_vc - (0.5 * tau * mu) * b.lap_vc)
    states = [u0]
    for _ in range(problem.n_steps):
        u = states[-1]
        fs, ks = [f(u)], []
        for i in range(4):
            rhs = b.interp_zero @ (u + tau * sum(a * fj for a, fj in zip(_ARS443_EX[i], fs)))
            for j in range(i):
                rhs = rhs + (tau * mu * _ARS443_IM[i][j]) * ks[j]
            stage = fact.solve(rhs)
            ks.append(b.lap_zero @ stage)
            fs.append(f(stage))
        states.append(stage)
    return np.column_stack(states)


@pytest.mark.parametrize("scheme,nx", [("uniform", 20), ("chebyshev", [12, 14, 10, 9])])
@pytest.mark.parametrize("mu", [1.0, 0.4 - 1.0j])
@pytest.mark.parametrize("stepper,formula", [
    (crank_nicolson_heat, _crank_nicolson_by_formula),
    (imex_euler, _imex_euler_by_formula),
    (sdirk443, _ars443_by_formula)])
def test_implicit_steppers_match_written_out_formulas(scheme, nx, mu, stepper, formula):
    b = discretize(_mixed_vertex_graph(nx), scheme)
    fact = linalg.factorize(b.interp_vc)
    u0 = fact.solve(b.interp_zero @ apply_function_to_edges(
        b, [lambda x: np.cos(2.0 * x) + x] * 4))
    p = EvolutionProblem(b, mu=mu, f=lambda u: -0.5 * np.abs(u) ** 2 * u,
                         tau=0.01, t_final=0.2)
    assert p.n_steps == 20
    _, s = stepper(p, u0)
    want = formula(p, u0)
    assert s.shape == want.shape
    assert np.max(np.abs(s - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("run", [
    crank_nicolson_heat, imex_euler, sdirk443,
    lambda p, u0: leapfrog_klein_gordon(p, np.sin, u0, np.zeros_like(u0))])
def test_initial_constraint_warning_points_at_the_caller(run):
    b = dirichlet_interval(10)
    p = EvolutionProblem(b, tau=0.1, t_final=0.2)
    with pytest.warns(UserWarning, match="vertex conditions") as record:
        run(p, np.ones(b.n_ext))
    assert record[0].filename == __file__


@pytest.mark.parametrize("key", ["tau", "t_final"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_refuses_a_non_finite_step_or_end_time(key, value):
    b = discretize(from_template("ring"), "uniform")
    with pytest.raises(EvolutionError, match=f"{key} must be positive and finite"):
        EvolutionProblem(b, **{key: value})


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
@pytest.mark.parametrize("stepper,tableau", [
    (crank_nicolson_heat, evo._CRANK_NICOLSON), (imex_euler, evo._ARS111),
    (sdirk443, evo._ARS443)], ids=["crank_nicolson", "imex_euler", "ars443"])
def test_implicit_steppers_are_bitwise_the_reference_loop(scheme, stepper, tableau):
    # the real starts with a complex mu or f are the cases where an in-place
    # sum must let numpy promote the accumulator to complex
    b = discretize(from_template("dumbbell"), scheme)
    fact = linalg.factorize(b.interp_vc)
    raw = apply_function_to_edges(b, [lambda x: 1.0 + np.cos(x), 1.5, lambda x: np.sin(2 * x)])
    starts = {"real": fact.solve(b.interp_zero @ raw),
              "complex": fact.solve(b.interp_zero @ (raw * np.exp(0.3j * raw)))}
    fs = {"none": None, "real": lambda u: -0.5 * np.real(u) ** 3,
          "complex": lambda u: -2j * np.abs(u) ** 2 * u}
    for mu in (1.0, 0.4 - 1j, -1j):
        for f_name, f in fs.items():
            for start, u0 in starts.items():
                p = EvolutionProblem(b, mu=mu, f=f, tau=0.01, t_final=0.2, n_skip=3)
                t, s = stepper(p, u0)
                t_ref, s_ref = reference_imex_rk(p, u0, *tableau)
                case = f"mu {mu}, f {f_name}, {start} start"
                assert _bitwise_equal(t, t_ref), case
                assert _bitwise_equal(s, s_ref), case
                # Crank-Nicolson ignores f
                if mu != 1.0 or start == "complex" or (f_name == "complex" and tableau[1].any()):
                    assert np.iscomplexobj(s), case


def _mixed_chebyshev():
    b = discretize(_mixed_vertex_graph([12, 14, 10, 9]), "chebyshev")
    fact = linalg.factorize(b.interp_vc)
    u0 = fact.solve(b.interp_zero @ apply_function_to_edges(
        b, [lambda x: np.cos(2.0 * x) + x] * 4))
    v0 = fact.solve(b.interp_zero @ apply_function_to_edges(
        b, [lambda x: np.sin(x) - 0.5 * x * x] * 4))
    return b, u0, v0


def _z_rows(b):
    """The rows of Z = interp_vc^-1 E holding entries, from the dense solve."""
    Z = linalg.factorize(b.interp_vc).solve(np.eye(b.n_ext, b.n_ext - b.n_int, -b.n_int))
    return np.flatnonzero(np.any(Z != 0, axis=1))


@pytest.mark.parametrize("case,tau", [(kink_tetrahedron, 5e-3), (_mixed_chebyshev, 1e-3)],
                         ids=["uniform_tetrahedron", "chebyshev_mixed_vertices"])
@pytest.mark.parametrize("g_name", ["sin", "complex"])
def test_leapfrog_is_bitwise_the_reference_loop(case, tau, g_name):
    # a complex g on a real start must promote the in-place update to complex
    b, u0, v0 = case()
    g = np.sin if g_name == "sin" else (lambda u: np.sin(u) + 0.1j * u)
    p = EvolutionProblem(b, tau=tau, t_final=400 * tau, n_skip=40)
    assert p.n_steps == 400
    t, s = leapfrog_klein_gordon(p, g, u0, v0)
    t_ref, s_ref = reference_leapfrog(p, g, u0, v0)
    assert _bitwise_equal(t, t_ref)
    assert s.dtype == (float if g_name == "sin" else complex)
    assert _bitwise_equal(s, s_ref)
    assert np.max(np.abs(b.vc_rows @ s[:, 1:])) <= 1e-8


def test_chebyshev_projection_rows_cover_most_of_the_grid():
    b, u0, v0 = _mixed_chebyshev()
    with recorded_projection_rows() as rows:
        leapfrog_klein_gordon(EvolutionProblem(b, tau=1e-3, t_final=2e-3), np.sin, u0, v0)
    assert np.array_equal(rows[0], _z_rows(b))
    assert rows[0].size > b.n_ext / 2


def test_leapfrog_projection_writes_only_the_rows_z_reaches():
    # the benchmark's tetrahedron: 44 entries of Z in 16 of its 9 612 rows;
    # every other row of a step is the unprojected update, bit for bit
    b, u0, v0 = kink_tetrahedron()
    tau = 5e-3
    with recorded_projection_rows() as rows:
        _, s = leapfrog_klein_gordon(EvolutionProblem(b, tau=tau, t_final=2 * tau),
                                     np.sin, u0, v0)
    assert len(rows) == 1 and np.array_equal(rows[0], _z_rows(b))
    assert (rows[0].size, b.n_ext) == (16, 9612)
    u1 = s[:, 1]
    unprojected = [u0 + tau * v0 + 0.5 * tau**2 * (b.lap_ext @ u0 - np.sin(u0)),
                   2.0 * u1 - u0 + tau**2 * (b.lap_ext @ u1 - np.sin(u1))]
    others = np.setdiff1d(np.arange(b.n_ext), rows[0])
    for k, y in enumerate(unprojected, start=1):
        assert _bitwise_equal(s[others, k], y[others])
        assert np.any(s[rows[0], k] != y[rows[0]])


@pytest.mark.parametrize("v0", [np.array([0.5]), np.zeros(5), np.float64(0.5)],
                         ids=["length_1", "length_5", "0-d"])
def test_leapfrog_refuses_an_initial_velocity_off_the_grid(v0):
    b = discretize(from_template("dumbbell"), "uniform")
    p = EvolutionProblem(b, tau=0.01, t_final=0.1)
    with pytest.raises(EvolutionError, match=r"initial velocity length \(.*\) != n_ext \(338\)"):
        leapfrog_klein_gordon(p, np.sin, np.full(b.n_ext, 2.0), v0)


def test_stepping_report_counts_solves_and_projection_rows():
    lines = stepping_report().splitlines()
    assert [line.split(":")[0] for line in lines] == [name for name, _, _ in stepping_runs()]
    assert [line.split(": ")[1].split(", ")[:2] for line in lines] == [
        ["20 steps", f"{solves:.2f} solves per step"] for solves in (1, 1, 4, 1, 0.05)]
    assert lines[-1].endswith("the projection writes 16 of n_ext 9612 rows per step")
