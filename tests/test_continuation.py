import contextlib
import copy
import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

import graphpde.continuation as cont
from graphpde import (apply_function_to_edges, discretize, from_template, make_context,
                      nls_problem)
from graphpde.continuation import (ContinuationError, ContinuationOptions,
                                   beta_metric, continue_branch, corrector,
                                   nls_system)
from graphpde.stationary import NewtonError, nls_jacobian
from graphpde.store import save_state_csv
from tests_support import bordered_reference, reference_corrector


def circle_system():
    return cont.ContinuationSystem(
        residual=lambda u, lam: np.array([u[0] ** 2 + lam**2 - 1.0]),
        jacobian=lambda u, lam: np.array([[2.0 * u[0]]]),
        dlam=lambda u, lam: np.array([2.0 * lam]),
    )


def pitchfork_system():
    return cont.ContinuationSystem(
        residual=lambda u, lam: np.array([lam * u[0] - u[0] ** 3]),
        jacobian=lambda u, lam: np.array([[lam - 3.0 * u[0] ** 2]]),
        dlam=lambda u, lam: np.array([u[0]]),
    )


def dumbbell_setup():
    g = from_template("dumbbell")
    b = discretize(g, "uniform")
    problem = nls_problem(b)
    ctx = make_context(b)
    return b, nls_system(problem, ctx)


def quiet_opts(**kw):
    base = dict(verbose_flag=False, save_flag=False)
    base.update(kw)
    return ContinuationOptions(**base)


def test_options_validation():
    with pytest.raises(ValueError):
        ContinuationOptions(max_theta=95.0)
    with pytest.raises(ValueError):
        ContinuationOptions(min_norm_delta=0.0)
    with pytest.raises(ValueError):
        ContinuationOptions(beta=-0.1)
    with pytest.raises(ValueError):
        ContinuationOptions(max_points=1)


@pytest.mark.parametrize("bad", [{"max_newton": 0}, {"max_newton": -3}, {"max_newton": 2.5},
                                 {"max_points": 2.5}, {"max_points": math.inf},
                                 {"ds": math.nan}, {"ds": math.inf}, {"beta": math.nan},
                                 {"beta": math.inf}, {"newton_tol": math.nan},
                                 {"newton_tol": math.inf}, {"min_norm_delta": math.nan},
                                 {"min_norm_delta": math.inf}])
def test_options_refuse_values_that_break_a_run(bad):
    # checked at construction only: a NaN min_norm_delta turns the step floor off
    with pytest.raises(ValueError, match=next(iter(bad))):
        ContinuationOptions(**bad)


def test_beta_metric_values():
    sys_ = circle_system()
    u = np.array([2.0])
    assert beta_metric(sys_, u, 3.0, u, 3.0, 0.1) == pytest.approx(4.0 + 0.9)
    z = np.array([0.0])
    assert beta_metric(sys_, z, 2.0, z, 2.0, 0.1) == pytest.approx(0.4)
    assert beta_metric(sys_, u, 0.0, np.array([0.0]), 5.0, 0.1) == 0.0


def test_corrector_lands_on_circle():
    sys_ = circle_system()
    opts = quiet_opts(beta=1.0)
    t_u, t_lam = np.array([0.0]), 1.0
    u, lam, sign = corrector(sys_, opts, np.array([0.995]), 0.1, t_u, t_lam)
    assert abs(u[0] ** 2 + lam**2 - 1.0) < 1e-10
    assert abs(lam - 0.1) < 0.02  # stays near the anchor plane


def test_corrector_failure_reported():
    sys_ = cont.ContinuationSystem(
        residual=lambda u, lam: np.array([u[0] ** 2 + 1.0]),  # no real solution
        jacobian=lambda u, lam: np.array([[2.0 * u[0]]]),
        dlam=lambda u, lam: np.array([0.0]),
    )
    with pytest.raises(cont.CorrectorError):
        corrector(sys_, quiet_opts(beta=1.0, max_newton=8),
                  np.array([1.0]), 0.0, np.array([1.0]), 0.0)


def test_circle_oracle_passes_folds():
    opts = quiet_opts(ds=0.1, max_points=150, n_thresh=1e9, lambda_thresh=-5.0,
                      min_norm_delta=1e-6, beta=1.0)
    branch = continue_branch(circle_system(), np.array([1.0]), 0.0,
                             np.array([0.0]), 1.0, opts)
    us = np.array([p.psi[0] for p in branch.points])
    ls = branch.lambdas
    assert np.max(np.abs(us**2 + ls**2 - 1.0)) <= 1e-10
    swept = np.abs(np.diff(np.unwrap(np.arctan2(ls, us)))).sum()
    assert swept > 1.5 * math.pi  # more than 3/4 of the circle
    folds = [p for p in branch.points if p.bif_type == -1]
    assert len(folds) >= 2
    for p in folds:
        assert abs(abs(p.lam) - 1.0) < 0.1
    assert not [p for p in branch.points if p.bif_type == 1]


def test_pitchfork_oracle_branch_point():
    opts = quiet_opts(ds=0.07, max_points=60, n_thresh=1e9, lambda_thresh=1.0,
                      min_norm_delta=1e-7, beta=1.0)
    branch = continue_branch(pitchfork_system(), np.array([0.0]), -1.0,
                             np.array([0.0]), 1.0, opts)
    bps = [(i, p) for i, p in enumerate(branch.points) if p.bif_type == 1]
    assert len(bps) == 1
    idx, bp = bps[0]
    assert abs(bp.lam) <= 1e-8
    assert idx in branch.perturbations
    # stepping terminated by the lambda threshold crossing
    assert branch.provenance["termination"] == "lambda_thresh"


def test_singular_bordered_matrix_at_the_solution_is_a_corrector_failure():
    # (u, lambda) = (0, 0) solves the pitchfork, and its bordered matrix
    # [[lambda - 3u^2, u], [0, beta]] has an empty first row there
    with pytest.raises(cont.CorrectorError, match="singular bordered system"):
        corrector(pitchfork_system(), quiet_opts(beta=1.0), np.array([0.0]), 0.0,
                  np.array([0.0]), 1.0)


def _circle_branch(sys_):
    continue_branch(sys_, np.array([1.0]), 0.0, np.array([0.0]), 1.0,
                    quiet_opts(ds=0.1, max_points=150, n_thresh=1e9, lambda_thresh=-5.0,
                               min_norm_delta=1e-6, beta=1.0))


def _pitchfork_branches(sys_):
    # the trivial branch u = 0 across the branch point, then the parabola
    # lambda = u^2 from (1, 1) down through it
    opts = quiet_opts(ds=0.07, max_points=60, n_thresh=1e9, lambda_thresh=1.0,
                      min_norm_delta=1e-7, beta=1.0)
    continue_branch(sys_, np.array([0.0]), -1.0, np.array([0.0]), 1.0, opts)
    continue_branch(sys_, np.array([1.0]), 1.0, np.array([-1.0]), -2.0,
                    dataclasses.replace(opts, max_points=40, lambda_thresh=-5.0))


def _dumbbell(scheme):
    def make():
        b = discretize(from_template("dumbbell"), scheme)
        return nls_system(nls_problem(b), make_context(b))

    def trace(sys_, workdir):
        run = cont.create_run(workdir, "dumbbell", sys_.bundle)
        cont.save_eigenfunctions(run, sys_.bundle, 4)
        cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts(ds=0.05))
    return make, trace


def _outcome(correct, sys_, call):
    """A corrector's result as bytes, or the name of the error it raised."""
    try:
        u, lam, fact = correct(sys_, *call)
    except cont.CorrectorError:
        return "CorrectorError"
    return (np.asarray(u, dtype=float).tobytes(), np.float64(lam).tobytes(),
            fact.det_sign, np.float64(fact.log_abs_det).tobytes())


@pytest.mark.parametrize("make, trace", [
    (circle_system, lambda sys_, workdir: _circle_branch(sys_)),
    (pitchfork_system, lambda sys_, workdir: _pitchfork_branches(sys_)),
    _dumbbell("uniform"), _dumbbell("chebyshev"),
], ids=["circle", "pitchfork", "dumbbell-uniform", "dumbbell-chebyshev"])
def test_corrector_is_bitwise_the_reference_loop(tmp_path, monkeypatch, make, trace):
    # every corrector call of a traced branch, replayed in order on two fresh
    # systems: one through the corrector, one through the loop it replaced
    calls, real = [], cont.corrector

    def recording(sys_, *args):
        calls.append(copy.deepcopy(args))
        return real(sys_, *args)

    monkeypatch.setattr(cont, "corrector", recording)
    trace(make(), tmp_path)
    monkeypatch.undo()
    assert len(calls) >= 50
    ours, theirs = make(), make()
    for call in calls:
        assert _outcome(cont.corrector, ours, call) == _outcome(reference_corrector, theirs, call)


@pytest.mark.parametrize("correct", [corrector, reference_corrector],
                         ids=["corrector", "reference"])
def test_both_correctors_fail_on_a_system_without_a_real_solution(correct):
    sys_ = cont.ContinuationSystem(
        residual=lambda u, lam: np.array([u[0] ** 2 + 1.0]),
        jacobian=lambda u, lam: np.array([[2.0 * u[0]]]),
        dlam=lambda u, lam: np.array([0.0]),
    )
    with pytest.raises(cont.CorrectorError):
        correct(sys_, quiet_opts(beta=1.0), np.array([1.0]), 0.0, np.array([1.0]), 0.0)


def test_each_corrector_call_runs_newton_once(tmp_path, monkeypatch):
    newtons, per_call = [], []
    real_newton, real_corrector = cont.newton, cont.corrector

    def counting_newton(*args, **kwargs):
        newtons.append(args)
        return real_newton(*args, **kwargs)

    def counting_corrector(*args):
        before = len(newtons)
        try:
            return real_corrector(*args)
        finally:
            per_call.append(len(newtons) - before)

    monkeypatch.setattr(cont, "newton", counting_newton)
    monkeypatch.setattr(cont, "corrector", counting_corrector)
    _pitchfork_branches(pitchfork_system())
    make, trace = _dumbbell("uniform")
    trace(make(), tmp_path)
    assert len(per_call) > 50 and set(per_call) == {1}
    assert len(newtons) == len(per_call) + 3  # and one polish per seed


def test_a_non_finite_residual_is_a_corrector_failure():
    # exp(800) overflows at the prediction itself; the factorization never sees it
    sys_ = cont.ContinuationSystem(
        residual=lambda u, lam: np.exp(u) - lam,
        jacobian=lambda u, lam: np.diag(np.exp(u)),
        dlam=lambda u, lam: np.array([-1.0]),
    )
    with np.errstate(over="ignore"), pytest.raises(cont.CorrectorError, match="non-finite"):
        corrector(sys_, quiet_opts(beta=1.0), np.array([800.0]), 1.0, np.array([1.0]), 0.0)


def _nan_jacobian_system(u_max):
    """u^3 + u = lambda, whose Jacobian reads NaN for u above u_max and whose
    residual stays finite everywhere."""
    return cont.ContinuationSystem(
        residual=lambda u, lam: u**3 + u - lam,
        jacobian=lambda u, lam: np.array([[3.0 * u[0] ** 2 + 1.0 if u[0] <= u_max else np.nan]]),
        dlam=lambda u, lam: np.array([-1.0]),
    )


def test_a_non_finite_jacobian_is_a_corrector_failure():
    with np.errstate(invalid="ignore"), \
            pytest.raises(cont.CorrectorError, match="non-finite Jacobian at iteration 1"):
        corrector(_nan_jacobian_system(-1.0), quiet_opts(beta=1.0), np.array([0.5]), 0.0,
                  np.array([1.0]), 0.0)


def test_a_non_finite_jacobian_halves_ds_until_the_branch_ends():
    opts = quiet_opts(ds=0.2, beta=1.0, max_points=50, lambda_thresh=10.0, n_thresh=1e9,
                      min_norm_delta=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        branch = continue_branch(_nan_jacobian_system(0.5), np.array([0.0]), 0.0,
                                 np.array([1.0]), 1.0, opts)
    u = [p.psi[0] for p in branch.points]
    assert branch.provenance["termination"] == "step below min_norm_delta"
    assert len(u) > 3 and max(u) <= 0.5
    assert min(np.diff(u)) < 0.5 * max(np.diff(u))  # ds was halved on the way


def test_a_non_finite_jacobian_at_an_accepted_point_halves_ds():
    # F = u - lambda: every prediction lands on the line, so Newton returns
    # at iteration 1 without a factorization, and the NaN Jacobian first
    # shows in the factorization of the accepted point
    system = cont.ContinuationSystem(
        residual=lambda u, lam: u - lam,
        jacobian=lambda u, lam: np.array([[1.0 if u[0] <= 0.5 else np.nan]]),
        dlam=lambda u, lam: np.array([-1.0]))
    opts = quiet_opts(ds=0.2, max_points=10)
    branch = continue_branch(system, np.array([0.0]), 0.0, np.array([1.0]), 1.0, opts)
    assert branch.provenance["termination"] == "step below min_norm_delta"
    assert len(branch.points) == 7
    assert max(p.psi[0] for p in branch.points) <= 0.5


def test_step_onto_a_singular_point_halves_ds():
    opts = quiet_opts(ds=0.1, beta=1.0, max_points=10, lambda_thresh=1.0,
                      n_thresh=1e9, min_norm_delta=1e-6)
    branch = continue_branch(pitchfork_system(), np.array([0.0]), -0.1,
                             np.array([0.0]), 1.0, opts)
    # the full step from lambda = -0.1 lands on (0, 0); its half does not
    assert branch.lambdas[1] == pytest.approx(-0.05, abs=1e-12)
    assert [p.bif_type for p in branch.points].count(1) == 1
    assert branch.provenance["termination"] == "lambda_thresh"


def test_max_points_contract():
    opts = quiet_opts(ds=0.05, max_points=5, n_thresh=1e9, lambda_thresh=-99.0,
                      beta=1.0, min_norm_delta=1e-8)
    branch = continue_branch(circle_system(), np.array([1.0]), 0.0,
                             np.array([0.0]), 1.0, opts)
    assert len(branch.points) == 5
    assert np.all(branch.bif_types == 0)


def test_tangents_are_beta_unit():
    opts = quiet_opts(ds=0.1, max_points=30, n_thresh=1e9, lambda_thresh=-5.0,
                      beta=0.37)
    sys_ = circle_system()
    branch = continue_branch(sys_, np.array([1.0]), 0.0, np.array([0.0]), 1.0, opts)
    for p in branch.points:
        n = beta_metric(sys_, p.tangent_psi, p.tangent_lam,
                        p.tangent_psi, p.tangent_lam, 0.37)
        assert abs(math.sqrt(n) - 1.0) < 1e-10


def test_turn_angles_bounded():
    opts = quiet_opts(ds=0.2, max_points=60, n_thresh=1e9, lambda_thresh=-5.0,
                      beta=1.0, max_theta=8.0)
    sys_ = circle_system()
    branch = continue_branch(sys_, np.array([1.0]), 0.0, np.array([0.0]), 1.0, opts)
    pts = branch.points
    for a, b in zip(pts[1:-1], pts[2:]):
        if a.bif_type == 1 or b.bif_type == 1:
            continue
        c = beta_metric(sys_, a.tangent_psi, a.tangent_lam,
                        b.tangent_psi, b.tangent_lam, 1.0)
        assert math.degrees(math.acos(min(1.0, max(-1.0, c)))) <= 8.0 + 1e-6


def test_dumbbell_constant_branch_and_pitchfork():
    b, sys_ = dumbbell_setup()
    run = None
    opts = quiet_opts(ds=0.05)
    v = np.full(b.n_ext, 1.0)
    v /= math.sqrt(sys_.inner(v, v))
    a = 1e-2
    lam_seed = -2.0 * a**2 * sys_.inner(v**3, v) / sys_.inner(v, v)
    branch = continue_branch(sys_, a * v, lam_seed, v, 0.0, opts)
    dev = max(np.max(np.abs(p.psi - math.sqrt(max(-p.lam, 0.0) / 2)))
              for p in branch.points)
    assert dev <= 1e-8
    from graphpde import eigs
    lam2 = float(np.real(eigs(b, 2)[0][1]))
    bps = [p for p in branch.points if p.bif_type == 1]
    assert bps and abs(bps[0].lam - lam2 / 2) < 1e-3


def test_run_persistence_round_trip(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    assert [f.name for f in run.iterdir()] == ["template.json"]
    cont.save_eigenfunctions(run, b, 3)

    opts = quiet_opts(ds=0.05, max_points=8)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, opts)
    bid = cont.save_branch(run, branch, b)
    loaded = cont.load_branch(run, bid, b)
    assert len(loaded.points) == len(branch.points)
    for p, q in zip(branch.points, loaded.points):
        assert p.lam == q.lam and p.mass == q.mass and p.energy == q.energy
        assert p.bif_type == q.bif_type and p.tangent_lam == q.tangent_lam
        assert np.array_equal(p.psi, q.psi)
        assert np.array_equal(p.tangent_psi, q.tangent_psi)
    assert branch.perturbations and loaded.perturbations.keys() == branch.perturbations.keys()
    for idx, pert in branch.perturbations.items():
        assert loaded.perturbations[idx].dtype == np.float64
        assert np.array_equal(loaded.perturbations[idx], pert)
    assert loaded.provenance["kind"] == "eigenfunction"
    assert loaded.provenance["events"] == branch.provenance["events"]
    assert loaded.provenance["events"][-1] == "finished with 8 points (max_points)"
    assert loaded.options.ds == opts.ds


def test_branch_directory_holds_one_file_per_kind(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    fixed = {"lambda.csv", "mass.csv", "energy.csv", "biftype.csv", "lambda_dot.csv",
             "psi.npy", "tangent.npy", "options.json", "provenance.json"}
    for max_points in (4, 8):
        branch = cont.continue_from_eig(run, sys_, 1, 1e-2,
                                        quiet_opts(ds=0.05, max_points=max_points))
        bdir = run / f"branch{cont.save_branch(run, branch, b):03d}"
        perts = {f"perturbation_{idx + 1:04d}.npy" for idx in branch.perturbations}
        assert {f.name for f in bdir.iterdir()} == fixed | perts
        for name in ("psi.npy", "tangent.npy"):
            assert np.load(bdir / name).shape == (max_points, b.n_ext)


def _switch_readers(run, sys_, branch):
    """The three readers of a stored branch, each as a call."""
    idx = [i for i, p in enumerate(branch.points) if p.bif_type == 1][0]
    opts = quiet_opts(ds=0.05, max_points=14)
    return [lambda: cont.load_branch(run, 1, sys_.bundle),
            lambda: cont.continue_from_branch_point(run, sys_, 1, idx, +1, opts),
            lambda: cont.continue_from_end(run, sys_, 1, opts)]


def test_per_point_csv_branch_layout_is_refused(tmp_path):
    b, sys_, run, branch = _switching_run(tmp_path)
    bdir = run / "branch001"
    for k, p in enumerate(branch.points, start=1):
        save_state_csv(b, p.psi, bdir / f"psi_{k:04d}.csv")
        save_state_csv(b, p.tangent_psi, bdir / f"tangent_{k:04d}.csv")
    (bdir / "psi.npy").unlink()
    (bdir / "tangent.npy").unlink()
    for read in _switch_readers(run, sys_, branch):
        with pytest.raises(cont.StaleLayoutError, match="psi_0001.csv"):
            read()


@pytest.mark.parametrize("name, reshape", [
    ("psi.npy", lambda a: a.astype(np.float32)),
    ("tangent.npy", lambda a: a.astype(complex)),
    ("psi.npy", lambda a: a[:-1]),
    ("tangent.npy", lambda a: np.column_stack([a, a[:, :1]])),
], ids=["psi-float32", "tangent-complex", "psi-row-short", "tangent-column-long"])
def test_malformed_state_arrays_are_refused(tmp_path, name, reshape):
    b, sys_, run, branch = _switching_run(tmp_path)
    path = run / "branch001" / name
    np.save(path, reshape(np.load(path)))
    for read in _switch_readers(run, sys_, branch):
        with pytest.raises(cont.StaleLayoutError, match=name):
            read()


def test_load_branch_refuses_an_option_it_does_not_know(tmp_path):
    # plot_flag was deleted; every directory written before that is refused
    # for its per-point CSVs, so an options.json holding it is stale
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 3)
    opts = quiet_opts(ds=0.05, max_points=4)
    bid = cont.save_branch(run, cont.continue_from_eig(run, sys_, 1, 1e-2, opts), b)
    path = run / f"branch{bid:03d}" / "options.json"
    stored = json.loads(path.read_text())
    assert "plot_flag" not in stored
    path.write_text(json.dumps(dict(stored, plot_flag=True), indent=1))
    with pytest.raises(cont.StaleLayoutError, match="plot_flag"):
        cont.load_branch(run, bid, b)


def test_stale_layout_rejected(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    other = discretize(from_template("dumbbell", nx=11), "uniform")
    with pytest.raises(cont.StaleLayoutError):
        cont.check_run_layout(run, other)


def test_full_dumbbell_workflow(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 4)
    opts = quiet_opts(ds=0.05, save_flag=True)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, opts)
    bid = 1
    bps = [i for i, p in enumerate(branch.points) if p.bif_type == 1]
    assert bps
    leg_opts = quiet_opts(ds=0.05, max_points=12, save_flag=True)
    leg_p = cont.continue_from_branch_point(run, sys_, bid, bps[0], +1, leg_opts)
    leg_m = cont.continue_from_branch_point(run, sys_, bid, bps[0], -1, leg_opts)
    k = min(len(leg_p.points), len(leg_m.points))
    assert np.max(np.abs(leg_p.masses[:k] - leg_m.masses[:k])) <= 1e-6
    # every accepted point satisfies the stationary equations
    for br in (branch, leg_p, leg_m):
        for p in br.points:
            res = sys_.residual(p.psi, p.lam)
            assert np.linalg.norm(res, np.inf) <= br.options.newton_tol * 10
    # psi is genuinely nonconstant off the primary branch
    tail = leg_p.points[-1].psi
    assert np.max(np.abs(tail - np.mean(tail))) > 1e-4

    diagram = cont.bifurcation_diagram(run)
    assert set(diagram) == {1, 2, 3}
    table = diagram[1]
    assert np.allclose(table[:, 0], branch.lambdas)
    assert np.allclose(table[:, 1], branch.masses)
    # branch 1 carries the constant solution: N = (-lambda/2) * weighted length
    W = b.graph.weighted_length()
    assert np.allclose(table[:, 1], (-table[:, 0] / 2.0) * W, atol=1e-8)
    # energy axis recomputation consistency
    diagram_e = cont.bifurcation_diagram(run, axes=("lambda", "energy"))
    for k_pt, p in enumerate(branch.points):
        recomputed = sys_.energy(p.psi, p.lam)
        assert abs(diagram_e[1][k_pt, 1] - recomputed) < 1e-12 * max(1.0, abs(recomputed))

    events = cont.load_branch(run, bid, b).provenance["events"]
    assert any(e.startswith("branch point located") for e in events)


def test_branch_events_name_each_located_branch_point(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts(ds=0.05, save_flag=True))
    events = json.loads((run / "branch001" / "provenance.json").read_text())["events"]
    located = [f"branch point located at lambda={p.lam:.8g}"
               for p in branch.points if p.bif_type == 1]
    assert len(located) >= 2
    assert [e for e in events if e.startswith("branch point")] == located
    termination = branch.provenance["termination"]
    assert events[-1] == f"finished with {len(branch.points)} points ({termination})"


def test_an_extension_appends_its_events_after_the_stored_ones(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    first = cont.continue_from_eig(run, sys_, 1, 1e-2,
                                   quiet_opts(ds=0.05, max_points=4, save_flag=True))
    cont.continue_from_end(run, sys_, 1, quiet_opts(ds=0.05, max_points=9, save_flag=True))
    events = cont.load_branch(run, 1, b).provenance["events"]
    assert first.provenance["events"] == ["finished with 4 points (max_points)"]
    assert events[0] == first.provenance["events"][0]
    assert events[1].startswith("branch point located")
    assert events[2:] == ["finished with 9 points (max_points)"]


def test_a_branch_not_saved_leaves_the_run_directory_as_it_was(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts(ds=0.05, max_points=8, save_flag=True))

    def tree():
        return {f: f.read_bytes() for f in sorted(run.rglob("*")) if f.is_file()}

    before = tree()
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts(ds=0.05, max_points=8))
    assert len(branch.points) == 8 and tree() == before


def test_a_failed_localization_is_an_event_and_the_branch_is_saved(tmp_path, monkeypatch):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)

    def failing(*args):
        raise ContinuationError("no sign change")

    monkeypatch.setattr(cont, "locate_branch_point", failing)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2,
                                    quiet_opts(ds=0.05, max_points=8, save_flag=True))
    saved = cont.load_branch(run, 1, b)
    assert saved.provenance["events"] == ["bifurcation localization failed: no sign change",
                                          "finished with 8 points (max_points)"]
    assert len(saved.points) == 8 and not saved.perturbations
    assert np.array_equal(saved.lambdas, branch.lambdas) and 1 not in saved.bif_types


def test_continue_from_end_needs_two_points(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts(ds=0.05, max_points=3))
    branch.points = branch.points[:1]
    bid = cont.save_branch(run, branch, b)
    with pytest.raises(ContinuationError, match="need at least two points"):
        cont.continue_from_end(run, sys_, bid, quiet_opts(ds=0.05, max_points=4))


def test_nls_system_refuses_a_context_of_another_bundle():
    # both schemes give this dumbbell n_ext 76, so the lengths cannot tell them apart
    g = from_template("dumbbell", nx=[20, 30, 20])
    uniform, chebyshev = discretize(g, "uniform"), discretize(g, "chebyshev")
    assert uniform.n_ext == chebyshev.n_ext
    with pytest.raises(ValueError, match="another bundle"):
        nls_system(nls_problem(uniform), make_context(chebyshev))
    # with its own context, the mass of (cos, 1, cos) is 2 pi + 4
    sys_ = nls_system(nls_problem(uniform), make_context(uniform))
    psi = apply_function_to_edges(uniform, [np.cos, 1.0, np.cos])
    assert sys_.inner(psi, psi) == pytest.approx(2 * math.pi + 4, rel=1e-12)


def test_continue_from_end_appends(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    opts = quiet_opts(ds=0.05, max_points=5, save_flag=True)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, opts)
    assert len(branch.points) == 5
    more = quiet_opts(ds=0.05, max_points=9, save_flag=True)
    extended = cont.continue_from_end(run, sys_, 1, more)
    assert len(extended.points) == 9
    lams = extended.lambdas
    assert np.array_equal(lams[:5], branch.lambdas)
    assert np.all(np.diff(lams) < 0)  # keeps marching down in frequency
    reloaded = cont.load_branch(run, 1, b)
    assert len(reloaded.points) == 9


# the last step of the +1 leg crosses a branch point, and the leg ends at it
@pytest.mark.parametrize("direction, count", [(-1.0, 6), (1.0, 6)])
def test_continue_from_saved(tmp_path, direction, count):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    lam0 = -0.35
    psi0 = np.full(b.n_ext, math.sqrt(-lam0 / 2))
    name = cont.save_standing_wave(run, b, psi0, lam0)
    opts = quiet_opts(ds=0.05, max_points=6, save_flag=True)
    branch = cont.continue_from_saved(run, sys_, name, opts, direction=direction)
    assert len(branch.points) == count
    assert branch.provenance["termination"] == ("max_points" if direction > 0 else "n_thresh")
    # moved in the requested direction
    assert (branch.points[1].lam - lam0) * direction > 0
    dev = max(np.max(np.abs(p.psi - math.sqrt(-p.lam / 2))) for p in branch.points)
    assert dev <= 1e-8


def test_initializers_polish_the_seed_once(tmp_path, monkeypatch):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    name = cont.save_standing_wave(run, b, np.full(b.n_ext, 0.5), -0.5)
    polished, lams = [], []
    residual, real = sys_.residual, cont._polish
    sys_.residual = lambda u, lam: lams.append(lam) or residual(u, lam)

    def counting(*args, **kwargs):
        first = len(lams)
        out = real(*args, **kwargs)
        polished.append(lams[first])  # the lambda of the polish's first residual
        return out

    monkeypatch.setattr(cont, "_polish", counting)
    cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts(ds=0.05, max_points=3))
    cont.continue_from_saved(run, sys_, name, quiet_opts(ds=0.05, max_points=3))
    assert len(polished) == 2 and polished[1] == -0.5


def test_seed_polish_takes_newton_steps():
    opts = quiet_opts(beta=1.0, max_points=3, n_thresh=1e9, lambda_thresh=-5.0)
    branch = continue_branch(circle_system(), np.array([1.2]), 0.0,
                             np.array([0.0]), 1.0, opts)
    assert abs(branch.points[0].psi[0] - 1.0) <= opts.newton_tol
    # u^2 + lambda^2 = 1 has no root at lambda = 2
    with pytest.raises(NewtonError):
        continue_branch(circle_system(), np.array([1.2]), 2.0, np.array([0.0]), 1.0, opts)


def test_seed_polish_takes_at_most_max_newton_steps(monkeypatch):
    # from u = 1.2 at lambda = 0 the polish needs 4 Newton steps
    caps = []
    real = cont.newton
    monkeypatch.setattr(cont, "newton", lambda *a: caps.append(a[4]) or real(*a))
    opts = quiet_opts(beta=1.0, max_points=3, n_thresh=1e9, lambda_thresh=-5.0)
    with pytest.raises(NewtonError, match="in 1 iterations"):
        continue_branch(circle_system(), np.array([1.2]), 0.0, np.array([0.0]), 1.0,
                        dataclasses.replace(opts, max_newton=1))
    assert caps == [1]
    branch = continue_branch(circle_system(), np.array([1.2]), 0.0, np.array([0.0]), 1.0,
                             dataclasses.replace(opts, max_newton=4))
    assert abs(branch.points[0].psi[0] - 1.0) <= opts.newton_tol


@pytest.mark.parametrize("amplitude", [0.0, -0.0, math.inf, math.nan])
def test_continue_from_eig_refuses_a_degenerate_amplitude(tmp_path, amplitude):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)  # no eigenfunctions saved
    with pytest.raises(ValueError, match="amplitude"):
        cont.continue_from_eig(run, sys_, 1, amplitude, quiet_opts())


def test_missing_artifacts_raise(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    with pytest.raises(Exception):
        cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts())
    with pytest.raises(ContinuationError):
        cont.load_branch(run, 7, b)


def test_null_vector_builds_the_jacobian_once():
    calls = []

    def diagonal_system(d2):
        def jacobian(u, lam):
            calls.append(lam)
            return np.diag([lam - 1.0, d2(lam)])
        return cont.ContinuationSystem(residual=None, jacobian=jacobian, dlam=None)

    v = cont.null_vector(diagonal_system(lambda lam: 5.0), np.zeros(2), 1.001)
    assert calls == [1.001]
    assert np.allclose(v, [1.0, 0.0])
    # a two-dimensional null space is still refused, from the same Jacobian
    calls.clear()
    with pytest.raises(cont.CodimensionTwoError):
        cont.null_vector(diagonal_system(lambda lam: lam - 1.0), np.zeros(2), 1.001)
    assert calls == [1.001]


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_localization_budget_and_accuracy(tmp_path, scheme):
    from tests_support import dumbbell_localizations

    branch, records = dumbbell_localizations(scheme, tmp_path)
    bps = [p for p in branch.points if p.bif_type == 1]
    assert len(bps) == len(records) == 4
    # bisection down to a beta-width of 1e-8 made 103 corrector calls here
    assert sum(r["calls"] for r in records) <= 56
    for p in bps:
        assert np.max(np.abs(p.psi - math.sqrt(-p.lam / 2))) <= 3e-10


def test_localization_skips_the_double_crossing(tmp_path):
    # On the Chebyshev dumbbell the last detection bracket also holds
    # lambda = -0.5, where the two loop modes cross together (no sign change).
    from tests_support import dumbbell_localizations

    _, records = dumbbell_localizations("chebyshev", tmp_path)
    spanning = [r["args"] for r in records if r["args"][2].lam > -0.5 > r["args"][3].lam]
    assert len(spanning) == 1
    u, lam, v = cont.locate_branch_point(*spanning[0])
    assert abs(lam + 0.670538) < 1e-6
    assert np.max(np.abs(u - math.sqrt(-lam / 2))) <= 3e-10


def test_secant_localization_on_the_pitchfork_oracle():
    # the bordered determinant is linear in lambda on u = 0, so every secant
    # zero is exact; the evaluations stand off it by 0.03, then 0.001, of the
    # bracket width (bisection to a width of 1e-7 would take 22 calls)
    sys_ = pitchfork_system()
    opts = quiet_opts(beta=1.0)
    a = cont.BranchPoint(np.array([0.0]), -0.3, 0.0, 0.0)
    b = cont.BranchPoint(np.array([0.0]), 0.1, 0.0, 0.0)
    direction = (np.array([0.0]), 1.0)
    calls = []
    real_corrector = cont.corrector

    def counting(*args):
        calls.append(args[3])
        return real_corrector(*args)

    cont.corrector = counting
    try:
        u, lam, v = cont.locate_branch_point(sys_, opts, a, b, direction)
    finally:
        cont.corrector = real_corrector
    assert abs(lam) <= 1e-15 and u[0] == 0.0 and abs(v[0]) == 1.0
    assert len(calls) <= 6


def _switching_run(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2,
                                    quiet_opts(ds=0.05, max_points=12, save_flag=True))
    return b, sys_, run, branch


def test_branch_switch_reads_one_point(tmp_path, monkeypatch):
    b, sys_, run, branch = _switching_run(tmp_path)
    idx = [i for i, p in enumerate(branch.points) if p.bif_type == 1][0]

    def no_load(*args, **kwargs):
        raise AssertionError("load_branch called")

    monkeypatch.setattr(cont, "load_branch", no_load)
    leg = cont.continue_from_branch_point(run, sys_, 1, idx, +1,
                                          quiet_opts(ds=0.05, max_points=3))
    bp = branch.points[idx]
    assert leg.points[0].lam == bp.lam and np.array_equal(leg.points[0].psi, bp.psi)
    assert leg.points[0].bif_type == 1
    step = leg.points[1].psi - bp.psi
    assert np.allclose(step / np.linalg.norm(step), branch.perturbations[idx]
                       / np.linalg.norm(branch.perturbations[idx]), atol=1e-2)


def test_branch_switch_refuses_a_sign_other_than_one_before_reading(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)  # no branch: reading it would fail
    for sign in (0, 7, -3):
        with pytest.raises(ValueError, match=f"sign must be 1 or -1, got {sign}"):
            cont.continue_from_branch_point(run, sys_, 1, 0, sign, quiet_opts())


def test_branch_switch_error_contract(tmp_path):
    b, sys_, run, branch = _switching_run(tmp_path)
    opts = quiet_opts(ds=0.05, max_points=3)
    stale = cont.create_run(tmp_path / "other", "dumbbell",
                            discretize(from_template("dumbbell", nx=11), "uniform"))
    with pytest.raises(cont.StaleLayoutError):
        cont.continue_from_branch_point(stale, sys_, 1, 0, +1, opts)
    with pytest.raises(ContinuationError, match="no branch directory"):
        cont.continue_from_branch_point(run, sys_, 7, 0, +1, opts)
    regular = [i for i, p in enumerate(branch.points) if p.bif_type != 1]
    for idx in (regular[0], len(branch.points) + 3, -1):
        with pytest.raises(ContinuationError) as err:
            cont.continue_from_branch_point(run, sys_, 1, idx, +1, opts)
        assert str(err.value) == f"branch 1 has no stored perturbation at point {idx}"


def test_an_extension_for_another_sigma_is_refused(tmp_path):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    opts = quiet_opts(ds=0.05, max_points=5, save_flag=True)
    cont.continue_from_eig(run, sys_, 1, 1e-2, opts)
    provenance = json.loads((run / "branch001" / "provenance.json").read_text())
    assert provenance["sigma"] == 1.0
    lambdas = (run / "branch001" / "lambda.csv").read_bytes()
    sigma2 = nls_system(nls_problem(b, 2.0), make_context(b))
    more = quiet_opts(ds=0.05, max_points=9, save_flag=True)
    with pytest.raises(ContinuationError, match=r"sigma = 1\.0.*sigma = 2\.0"):
        cont.continue_from_end(run, sigma2, 1, more)
    with pytest.raises(ContinuationError, match=r"sigma = 1\.0.*sigma = 2\.0"):
        cont.continue_from_branch_point(run, sigma2, 1, 0, 1, more)
    assert (run / "branch001" / "lambda.csv").read_bytes() == lambdas
    assert cont.list_branches(run) == [1]
    # a branch saved before sigma was recorded is still extended
    del provenance["sigma"]
    (run / "branch001" / "provenance.json").write_text(json.dumps(provenance))
    assert len(cont.continue_from_end(run, sys_, 1, more).points) == 9


def _fresh_bordered_factor(sys, u, lam, t_u, t_lam, beta):
    """The bordered LU of a matrix built afresh by sp.bmat, in natural column order."""
    row = t_u if sys.weights is None else sys.weights * t_u
    return cont.linalg.Factorization(bordered_reference(
        sys.jacobian(u, lam), sys.dlam(u, lam), row, beta * t_lam), natural=True)


def _branch_with_fresh_bordered_matrices(system, monkeypatch):
    """The branch as every bordered matrix built afresh by sp.bmat gives it."""
    with monkeypatch.context() as m:
        m.setattr(cont, "_bordered_factor", _fresh_bordered_factor)
        return _pitchfork_chain_branch(system)


def _pitchfork_chain_branch(system):
    opts = quiet_opts(ds=0.05, max_points=40, beta=1.0, lambda_thresh=2.0)
    return continue_branch(system, np.zeros(3), -0.5, np.zeros(3), 1.0, opts)


def pitchfork_chain(pattern_changes):
    """lam u - u^3 coupled along a chain of three; past lam = 0 the Jacobian
    also stores a zero at (0, 2), so its pattern changes mid-branch."""
    A = np.array([[-0.2, 0.1, 0.0], [0.1, -0.3, 0.1], [0.0, 0.1, -0.4]])

    def jacobian(u, lam):
        J = sp.coo_matrix(A + np.diag(lam - 3.0 * u**2))
        if pattern_changes and lam > 0.0:
            J = sp.coo_matrix((np.append(J.data, 0.0), (np.append(J.row, 0), np.append(J.col, 2))),
                              shape=J.shape)
        return J.tocsc()

    return cont.ContinuationSystem(residual=lambda u, lam: A @ u + lam * u - u**3,
                                   jacobian=jacobian, dlam=lambda u, lam: u)


@pytest.mark.parametrize("pattern_changes", [False, True])
def test_gathered_bordered_matrices_give_the_fresh_branch(monkeypatch, pattern_changes):
    reference = _branch_with_fresh_bordered_matrices(pitchfork_chain(pattern_changes),
                                                     monkeypatch)
    orderings = []
    splu = cont.linalg.spla.splu

    def counted(A, permc_spec=None, **kw):
        orderings.append((A.shape[0], permc_spec))
        return splu(A, permc_spec=permc_spec, **kw)

    monkeypatch.setattr(cont.linalg.spla, "splu", counted)
    branch = _pitchfork_chain_branch(pitchfork_chain(pattern_changes))
    assert len(branch.points) == len(reference.points) > 10
    assert np.array_equal(branch.bif_types, reference.bif_types)
    for p, q in zip(branch.points, reference.points):
        assert p.lam == q.lam and np.array_equal(p.psi, q.psi)
        assert np.array_equal(p.tangent_psi, q.tangent_psi)
    # the bordered matrices (4 x 4) in natural order, the null vectors' J with COLAMD
    assert orderings.count((4, "NATURAL")) > 20
    assert orderings.count((3, "COLAMD")) == len(branch.perturbations) > 0
    assert len(orderings) == orderings.count((4, "NATURAL")) + len(branch.perturbations)


def test_a_dumbbell_branch_factors_its_bordered_matrices_in_natural_order(tmp_path,
                                                                          monkeypatch):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    factored = []
    real = cont.linalg.Factorization.__init__

    def init(self, A, natural=False):
        factored.append((A.shape[0], natural))
        real(self, A, natural)

    monkeypatch.setattr(cont.linalg.Factorization, "__init__", init)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts(ds=0.05, max_points=12))
    bordered = factored.count((b.n_ext + 1, True))
    # besides the bordered LUs, only the null vectors' (COLAMD)
    assert factored.count((b.n_ext, False)) == len(branch.perturbations) > 0
    assert bordered > 30 and len(factored) == bordered + len(branch.perturbations)


def pitchfork_chain_with_duplicates():
    """pitchfork_chain(False) with J's diagonal stored twice, as halves, ahead of each
    column's sorted entries; the halves sum exactly, so J is bitwise the canonical one."""
    canonical = pitchfork_chain(False)

    def jacobian(u, lam):
        J = canonical.jacobian(u, lam)
        half = J.diagonal() / 2
        data, indices, indptr = [], [], [0]
        for j in range(J.shape[1]):
            rows = J.indices[J.indptr[j]:J.indptr[j + 1]]
            column = np.where(rows == j, half[j], J.data[J.indptr[j]:J.indptr[j + 1]])
            data += [half[j], *column]
            indices += [j, *rows]
            indptr.append(len(data))
        return sp.csc_matrix((data, indices, indptr), shape=J.shape)

    return cont.ContinuationSystem(residual=canonical.residual, jacobian=jacobian,
                                   dlam=canonical.dlam)


def _random_system(rng, n=30):
    base = sp.csc_matrix(sp.random(n, n, density=0.1, random_state=rng) + 2.0 * sp.eye(n))
    scale = rng.random(base.nnz)
    return cont.ContinuationSystem(
        residual=None, dlam=lambda u, lam: np.cos(u),
        jacobian=lambda u, lam: sp.csc_matrix((base.data * (1.0 + lam * scale), base.indices,
                                               base.indptr), shape=base.shape)), n


def _complex_past_zero():
    """pitchfork_chain(False) whose J turns complex past lambda = 0, on the same pattern."""
    real = pitchfork_chain(False)
    return cont.ContinuationSystem(
        residual=None, dlam=real.dlam,
        jacobian=lambda u, lam: real.jacobian(u, lam) * (1.0 + 0.5j if lam > 0.0 else 1.0))


def _dumbbell_system(scheme):
    b = discretize(from_template("dumbbell"), scheme)
    return nls_system(nls_problem(b), make_context(b)), b.n_ext


_BORDERED_CASES = {  # each gives a system and its number of unknowns
    "random": lambda: _random_system(np.random.default_rng(3)),
    "pitchfork": lambda: (pitchfork_chain(False), 3),
    "pitchfork-pattern-changes": lambda: (pitchfork_chain(True), 3),
    "dense": lambda: (cont.ContinuationSystem(
        residual=None, dlam=lambda u, lam: u,
        jacobian=lambda u, lam: np.array([[lam, 1.0, 0.0], [2.0, -1.0, u[0]], [0.0, 3.0, 1.0]])),
        3),
    "duplicates": lambda: (pitchfork_chain_with_duplicates(), 3),
    "complex-past-zero": lambda: (_complex_past_zero(), 3),
    "dumbbell-uniform": lambda: _dumbbell_system("uniform"),
    "dumbbell-chebyshev": lambda: _dumbbell_system("chebyshev"),
}


@pytest.mark.parametrize("case", sorted(_BORDERED_CASES))
def test_bordered_matrices_are_bitwise_the_reference(monkeypatch, case):
    system, n = _BORDERED_CASES[case]()
    handed, real = [], cont.linalg.Factorization.__init__

    def init(self, A, natural=False):
        handed.append((A.copy(), natural))
        real(self, A, natural)

    monkeypatch.setattr(cont.linalg.Factorization, "__init__", init)
    rng = np.random.default_rng(8)
    layouts = []
    for lam in (-0.3, -0.2, 0.2, 0.4, -0.25):  # across 0 twice: two pattern changes
        u = 0.1 + 0.01 * rng.standard_normal(n)
        t_u, t_lam = rng.standard_normal(n), rng.standard_normal()
        cont._bordered_factor(system, u, lam, t_u, t_lam, 0.1)
        A, natural = handed.pop()
        assert natural is True
        if not layouts or system._bordered_layout is not layouts[-1]:
            layouts.append(system._bordered_layout)
        row = t_u if system.weights is None else system.weights * t_u
        reference = bordered_reference(system.jacobian(u, lam), system.dlam(u, lam), row,
                                       0.1 * t_lam)
        assert A.data.dtype == reference.data.dtype
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, name), getattr(reference, name)), name
    # a new pattern, or complex values into a real layout, renumber
    assert len(layouts) == (3 if case in ("pitchfork-pattern-changes", "complex-past-zero")
                            else 1)


def test_a_jacobian_with_duplicate_entries_keeps_its_layout_and_its_branch():
    canonical = _pitchfork_chain_branch(pitchfork_chain(False))
    branch = _pitchfork_chain_branch(pitchfork_chain_with_duplicates())
    assert len(branch.points) == len(canonical.points) > 10
    assert np.array_equal(branch.bif_types, canonical.bif_types)
    for p, q in zip(branch.points, canonical.points):
        assert p.lam == q.lam and np.array_equal(p.psi, q.psi)

    system = pitchfork_chain_with_duplicates()
    rng = np.random.default_rng(2)
    before = None
    for lam in (-0.4, -0.3, -0.2, -0.1, -0.05):
        u, t_u, t_lam = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal()
        fact = cont._bordered_factor(system, u, lam, t_u, t_lam, 0.1)
        M = bordered_reference(system.jacobian(u, lam), u, t_u, 0.1 * t_lam).toarray()
        b = rng.standard_normal(4)
        x = fact.solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-13 * np.linalg.norm(M) * np.linalg.norm(x)
        lay = system._bordered_layout
        arrays = [lay.j_indptr, lay.j_indices, lay.take, lay.matrix.indptr, lay.matrix.indices]
        if before is None:
            before = [a.copy() for a in arrays]
        assert all(np.array_equal(a, c) for a, c in zip(arrays, before))


def _dumbbell_branches(scheme, workdir):
    """The dumbbell's constant branch from eigenfunction 1 (ds 0.05) and both legs
    of its first branch point (max_points 20), as the benchmark traces them."""
    b = discretize(from_template("dumbbell"), scheme)
    system = nls_system(nls_problem(b), make_context(b))
    run = cont.create_run(workdir, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    branch = cont.continue_from_eig(run, system, 1, 1e-2, quiet_opts(ds=0.05, save_flag=True))
    legs = quiet_opts(ds=0.05, max_points=20, save_flag=True)
    return [branch] + [cont.continue_from_branch_point(run, system, 1, min(branch.perturbations),
                                                       sign, legs) for sign in (1, -1)]


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_gathered_bordered_matrices_give_the_fresh_dumbbell_branches(tmp_path, monkeypatch,
                                                                     scheme):
    with monkeypatch.context() as m:
        m.setattr(cont, "_bordered_factor", _fresh_bordered_factor)
        reference = _dumbbell_branches(scheme, tmp_path / "fresh")
    branches = _dumbbell_branches(scheme, tmp_path / "gathered")
    assert [len(b.points) for b in branches] == [len(b.points) for b in reference]
    assert len(branches[0].perturbations) > 1 and len(branches[1].points) == 20
    for branch, ref in zip(branches, reference):
        for p, q in zip(branch.points, ref.points):
            for f in dataclasses.fields(p):
                assert np.array_equal(getattr(p, f.name), getattr(q, f.name)), f.name
        assert branch.perturbations.keys() == ref.perturbations.keys()
        for k, v in branch.perturbations.items():
            assert np.array_equal(v, ref.perturbations[k])


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_nls_jacobian_is_its_values_on_the_problem_pattern(scheme):
    b = discretize(from_template("dumbbell"), scheme)
    problem = nls_problem(b)
    psi = 0.3 + 0.1 * np.random.default_rng(4).standard_normal(b.n_ext)
    J = nls_jacobian(problem, psi, -0.7)
    indptr, rows, cols, lap, interp = problem.jacobian_pattern
    d = problem.fprime(psi) - 0.7
    assert np.array_equal(J.indptr, indptr) and np.array_equal(J.indices, rows)
    assert np.array_equal(J.data, lap + interp * d[cols])
    assert np.array_equal(J.data, problem.jacobian_values(psi, -0.7))
    # entry by entry the operator lap_vc + interp_zero diag(f'(psi) + lambda)
    assert np.array_equal(J.toarray(), (b.lap_vc + b.interp_zero @ sp.diags(d)).toarray())


def _knob_system():
    """A hand-built system on a fixed pattern: F = A u + lambda 1, J = A scaled row by
    row by knobs["rows"] and column by column by knobs["cols"], stored zeros kept,
    and dF/dlambda read from knobs["dlam"]; the caller turns the knobs between LUs."""
    A = sp.csc_matrix(np.array([[2.0, 1, 0, 0], [1, 3, 1, 0], [0, 1, 4, 1], [0, 0, 1, 5]]))
    cols = np.repeat(np.arange(4), np.diff(A.indptr))
    knobs = {"rows": np.ones(4), "cols": np.ones(4), "dlam": np.ones(4)}

    def jacobian(u, lam):
        scale = knobs["rows"][A.indices] * knobs["cols"][cols]
        return sp.csc_matrix((A.data * scale, A.indices, A.indptr), shape=A.shape)

    system = cont.ContinuationSystem(residual=lambda u, lam: A @ u + lam,
                                     jacobian=jacobian, dlam=lambda u, lam: knobs["dlam"])
    return system, knobs


def _refusal_cases(case):
    """(system, knobs, good state, cases): each case is the knobs and state entries it
    changes, the error it must raise and the message's tail.  The dumbbell's f' turns
    NaN with knobs["nan"]; the good states solve F = 0 exactly."""
    nan, empty = cont.linalg.NonFiniteMatrixError, cont.linalg.SingularMatrixError
    finite = "matrix entries must be finite"
    if case == "dumbbell":
        b = discretize(from_template("dumbbell"), "uniform")
        knobs = {"nan": False}
        problem = nls_problem(b, f=lambda z: 2.0 * z**3,
                              fprime=lambda z: 6.0 * z**2 * (np.nan if knobs["nan"] else 1.0))
        system, n = nls_system(problem, make_context(b)), b.n_ext
        # the constant state 0.5 at lambda = -0.5, bordered by its branch tangent
        good = {"u": np.full(n, 0.5), "lam": -0.5, "t_u": np.ones(n), "t_lam": -2.0}
        cases = [({"nan": True}, {}, nan, finite),
                 ({}, {"t_u": np.zeros(n), "t_lam": 0.0}, empty, f"row {n} of"),
                 ({}, {"u": np.zeros(n), "t_lam": 0.0}, empty, f"column {n} of")]
    else:
        system, knobs = _knob_system()
        n = 4
        good = {"u": np.zeros(n), "lam": 0.0, "t_u": np.arange(1.0, 5.0), "t_lam": 0.5}
        cases = [({"rows": np.array([1, np.nan, 1, 1])}, {}, nan, finite),
                 ({"dlam": np.array([1, 1, np.nan, 1])}, {}, nan, finite),
                 ({"rows": np.array([1, 1, 0, 1]), "dlam": np.array([1, 1, 0, 1])}, {},
                  empty, "row 2 of"),
                 ({"cols": np.array([1, 0, 1, 1])}, {"t_u": np.array([1, 0, 3, 4])},
                  empty, "column 1 of")]
    row = np.ones(n)
    row[3] = np.nan
    cases += [({}, {"t_u": row}, nan, finite), ({}, {"t_lam": np.nan}, nan, finite)]
    return system, knobs, good, cases


@pytest.mark.parametrize("case", ["dumbbell", "hand-built"])
def test_a_reused_layout_keeps_every_refusal(case):
    system, knobs, good, cases = _refusal_cases(case)
    pristine = copy.deepcopy(knobs)
    cont._bordered_factor(system, *good.values(), 0.1)
    layout = system._bordered_layout
    for turned, changed, error, message in cases:
        knobs.update(turned)
        u, lam, t_u, t_lam = {**good, **changed}.values()
        with pytest.raises(error, match=message):
            cont._bordered_factor(system, u, lam, t_u, t_lam, 0.1)
        if np.isfinite(t_u).all() and math.isfinite(t_lam):
            # predicted on a solution, Newton takes no step: the refusal comes
            # from the factorization of the accepted point
            kind = "non-finite" if error is cont.linalg.NonFiniteMatrixError else "singular"
            with pytest.raises(cont.CorrectorError, match=f"{kind} bordered system: {message}"):
                corrector(system, quiet_opts(beta=0.1), u, lam, t_u, t_lam)
        knobs.update(copy.deepcopy(pristine))
        assert system._bordered_layout is layout
    # after every refusal the layout still gathers the reference
    fact = cont._bordered_factor(system, *good.values(), 0.1)
    assert system._bordered_layout is layout
    u, lam, t_u, t_lam = good.values()
    row = t_u if system.weights is None else system.weights * t_u
    reference = bordered_reference(system.jacobian(u, lam), system.dlam(u, lam), row, 0.1 * t_lam)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(layout.matrix, name), getattr(reference, name)), name
    fresh = cont.linalg.Factorization(reference, natural=True)
    assert (fact.det_sign, fact.log_abs_det) == (fresh.det_sign, fresh.log_abs_det)


@pytest.mark.parametrize("case", ["dumbbell-uniform", "dumbbell-chebyshev", "random"])
def test_a_held_bordered_factorization_outlives_later_gathers(case):
    # locate_branch_point holds the corrector's fact_b while its own corrector
    # calls gather into the same layout
    system, n = _BORDERED_CASES[case]()
    rng = np.random.default_rng(6)

    def state(lam):
        u = 0.1 + 0.01 * rng.standard_normal(n)
        return u, lam, rng.standard_normal(n), rng.standard_normal()

    u, lam, t_u, t_lam = state(-0.3)
    held = cont._bordered_factor(system, u, lam, t_u, t_lam, 0.1)
    layout = system._bordered_layout
    row = t_u if system.weights is None else system.weights * t_u
    M = bordered_reference(system.jacobian(u, lam), system.dlam(u, lam), row, 0.1 * t_lam)
    for later in (-0.35, -0.25, -0.2, -0.4):
        cont._bordered_factor(system, *state(later), 0.1)
    assert system._bordered_layout is layout
    assert not np.array_equal(layout.matrix.data, M.data)
    # det_sign and log_abs_det are first read now, after the later gathers
    fresh = cont.linalg.Factorization(M, natural=True)
    assert held.det_sign == fresh.det_sign and held.log_abs_det == fresh.log_abs_det
    b = rng.standard_normal(n + 1)
    x = held.solve(b)
    assert np.array_equal(x, fresh.solve(b))
    assert np.linalg.norm(M @ x - b) <= 1e-13 * np.linalg.norm(M.toarray()) * np.linalg.norm(x)


# --- the localization paths a shipped branch does not take ---

def _locate_setup(sys_, lam_a, lam_b):
    """Detection bracket on the trivial branch u = 0, from lam_a to lam_b."""
    opts = quiet_opts(beta=1.0)
    a = cont.BranchPoint(np.array([0.0]), lam_a, 0.0, 0.0)
    b = cont.BranchPoint(np.array([0.0]), lam_b, 0.0, 0.0)
    direction = (np.array([0.0]), 1.0)
    return sys_, opts, a, b, direction


def _recording_corrector(monkeypatch, fail=lambda call: False):
    """cont.corrector wrapped: records each predicted lambda and raises
    CorrectorError on the calls (counted from 1) that fail selects."""
    calls, real = [], cont.corrector

    def corrector(sys_, opts, u_pred, lam_pred, t_u, t_lam):
        calls.append(lam_pred)
        if fail(len(calls)):
            raise cont.CorrectorError("forced failure")
        return real(sys_, opts, u_pred, lam_pred, t_u, t_lam)

    monkeypatch.setattr(cont, "corrector", corrector)
    return calls


def test_localization_bisects_a_flat_crossing(monkeypatch):
    # F = (lambda - c)^3 u: on u = 0 the bordered determinant is (lambda - c)^3,
    # whose flat zero keeps the Illinois secant from halving the bracket
    c = 0.3
    sys_ = cont.ContinuationSystem(residual=lambda u, lam: (lam - c) ** 3 * u,
                                   jacobian=lambda u, lam: np.array([[(lam - c) ** 3]]),
                                   dlam=lambda u, lam: 3 * (lam - c) ** 2 * u)
    calls = _recording_corrector(monkeypatch)
    u, lam, v = cont.locate_branch_point(*_locate_setup(sys_, 0.0, 1.0))
    assert abs(lam - c) <= 1e-7 and u[0] == 0.0 and v[0] == 1.0
    # replay the bracket: lambda is the arclength fraction s on this branch
    lo, hi, midpoints = 0.0, 1.0, 0
    for x in calls:
        midpoints += abs(x - 0.5 * (lo + hi)) <= 1e-9 * (hi - lo)
        lo, hi = (x, hi) if x < c else (lo, x)
    assert midpoints >= 1


def test_localization_bisects_after_a_corrector_failure(monkeypatch):
    calls = _recording_corrector(monkeypatch, fail=lambda call: call == 1)
    u, lam, v = cont.locate_branch_point(*_locate_setup(pitchfork_system(), -0.3, 0.1))
    # the first (secant) evaluation failed; the second sits at the bracket's middle
    assert calls[0] != -0.1 and calls[1] == pytest.approx(-0.1, abs=1e-15)
    assert abs(lam) <= 1e-15 and abs(v[0]) == 1.0


def test_localization_ends_when_a_bisection_fails(monkeypatch):
    calls = _recording_corrector(monkeypatch, fail=lambda call: True)
    with pytest.raises(ContinuationError, match="corrector failed during branch-point"):
        cont.locate_branch_point(*_locate_setup(pitchfork_system(), -0.3, 0.1))
    assert len(calls) == 2 and calls[1] == pytest.approx(-0.1, abs=1e-15)


def test_localization_ends_after_its_budget(monkeypatch):
    # every evaluation takes the sign found at b, so the bracket shrinks toward
    # a, and lies 1 off its predicted state, so the two ends never come within
    # 1e-7 of each other
    setup = sys_, opts, _, b, direction = _locate_setup(pitchfork_system(), -0.3, 0.1)
    fact_b = cont._bordered_factor(sys_, b.psi, b.lam, *direction, opts.beta)
    calls = []

    def corrector(sys_, opts, u_pred, lam_pred, t_u, t_lam):
        calls.append(lam_pred)
        return u_pred + 1.0, lam_pred, fact_b

    monkeypatch.setattr(cont, "corrector", corrector)
    with pytest.raises(ContinuationError, match="exceeded its budget"):
        cont.locate_branch_point(*setup)
    assert len(calls) == 60


def test_null_vector_factors_a_singular_jacobian_at_a_shifted_lambda():
    calls = []

    def jacobian(u, lam):
        calls.append(lam)
        return np.diag([lam - 1.0, 5.0])

    sys_ = cont.ContinuationSystem(residual=None, jacobian=jacobian, dlam=None)
    v = cont.null_vector(sys_, np.zeros(2), 1.0)
    # J(1) has an empty first column, so J(1 + 2e-10) is factored instead
    assert calls == [1.0, 1.0 + 2e-10]
    assert sys_.inner(v, v) == pytest.approx(1.0) and v[0] > 0
    assert np.linalg.norm(jacobian(None, 1.0) @ v) <= 1e-12


@pytest.mark.parametrize("name", ["n_thresh", "lambda_thresh"])
def test_options_refuse_a_nan_threshold_and_take_an_infinite_one(name):
    with pytest.raises(ValueError, match="must not be NaN"):
        ContinuationOptions(**{name: math.nan})
    for off in (math.inf, -math.inf):
        assert getattr(ContinuationOptions(**{name: off}), name) == off


# --- the sign test reads the corrector's last Newton LU ---

@contextlib.contextmanager
def _bordered_lu_accounting():
    """Yields (calls, total): calls receives [Newton steps, bordered LUs] for each
    corrector call that returned, total[0] counts every bordered LU."""
    calls, total, inside = [], [0], []
    real = cont._bordered_factor, cont.newton, cont.corrector
    real_factor, real_newton, real_corrector = real

    def factor(*args):
        total[0] += 1
        if inside:
            inside[-1][1] += 1
        return real_factor(*args)

    def newton(*args):
        result = real_newton(*args)
        if inside:
            inside[-1][0] = result.iterations
        return result

    def corrector(*args):
        inside.append([0, 0])
        try:
            out = real_corrector(*args)
        finally:
            record = inside.pop()
        calls.append(record)
        return out

    cont._bordered_factor, cont.newton, cont.corrector = factor, newton, corrector
    try:
        yield calls, total
    finally:
        cont._bordered_factor, cont.newton, cont.corrector = real


@pytest.fixture(scope="module")
def constant_branch(tmp_path_factory):
    """trace(scheme, ds): the dumbbell's constant branch from eigenfunction 1, traced once
    per module, as (branch, [Newton steps, bordered LUs] per corrector call, bordered LUs)."""
    systems, traced = {}, {}

    def trace(scheme, ds):
        if scheme not in systems:
            b = discretize(from_template("dumbbell"), scheme)
            run = cont.create_run(tmp_path_factory.mktemp(scheme), "dumbbell", b)
            cont.save_eigenfunctions(run, b, 4)
            systems[scheme] = run, nls_system(nls_problem(b), make_context(b))
        if (scheme, ds) not in traced:
            run, system = systems[scheme]
            with _bordered_lu_accounting() as (calls, total):
                branch = cont.continue_from_eig(run, system, 1, 1e-2, quiet_opts(ds=ds))
            traced[scheme, ds] = branch, calls, total[0]
        return traced[scheme, ds]

    return trace


def _one_lu_per_newton_step(calls):
    # the LU of each iterate Newton steps from, or the point's own when it takes no step
    return all(lus == max(steps, 1) for steps, lus in calls)


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_a_corrector_call_factors_once_per_newton_step(constant_branch, scheme):
    branch, calls, total = constant_branch(scheme, 0.05)
    assert len(calls) > 50 and any(steps == 0 for steps, _ in calls)
    assert any(steps > 1 for steps, _ in calls)
    assert _one_lu_per_newton_step(calls)
    # outside the corrector: the seed's sign and the two ends of each localization
    bps = [p for p in branch.points if p.bif_type == 1]
    assert len(bps) == 4
    assert total == sum(lus for _, lus in calls) + 1 + 2 * len(bps)


def test_a_pitchfork_corrector_call_factors_once_per_newton_step():
    with _bordered_lu_accounting() as (calls, _):
        _pitchfork_branches(pitchfork_system())
    steps = {steps for steps, _ in calls}
    assert len(calls) > 50 and 0 in steps and max(steps) > 1
    assert _one_lu_per_newton_step(calls)


class _SignFlipped:
    """A factorization whose determinant reads the other sign."""

    def __init__(self, fact):
        self.det_sign, self.log_abs_det = -fact.det_sign, fact.log_abs_det


def _trivial_pitchfork_branch(monkeypatch=None, flipped_at=None):
    """The pitchfork's trivial branch u = 0 across its branch point at lambda = 0; with
    flipped_at, the LU the corrector returns at that lambda reads the other sign."""
    if flipped_at is not None:
        real = cont.corrector

        def corrector(*args):
            u, lam, fact = real(*args)
            return u, lam, _SignFlipped(fact) if lam == flipped_at else fact

        monkeypatch.setattr(cont, "corrector", corrector)
    opts = quiet_opts(ds=0.07, max_points=30, n_thresh=1e9, lambda_thresh=1.0,
                      min_norm_delta=1e-7, beta=1.0)
    return continue_branch(pitchfork_system(), np.array([0.0]), -1.0, np.array([0.0]), 1.0, opts)


@pytest.mark.parametrize("side", ["before", "after"])
def test_a_crossing_within_a_newton_step_of_a_point_is_located(monkeypatch, side):
    # The LU returned at the last point before the crossing ("before") or the
    # first one past it ("after") reads the far side's sign, as the LU of an
    # iterate within one Newton step of a crossing may.  Before it, the flip
    # seen there lies past that point; after it, the flip shows one step late
    # and lies on the step before.
    plain = _trivial_pitchfork_branch()
    lams = plain.lambdas
    k = int(np.flatnonzero(plain.bif_types == 1)[0])
    assert lams[k - 1] < 0.0 < lams[k + 1] and abs(lams[k]) <= 1e-7
    flipped_at = lams[k - 1] if side == "before" else lams[k + 1]
    branch = _trivial_pitchfork_branch(monkeypatch, flipped_at)
    bps = np.flatnonzero(branch.bif_types == 1)
    assert list(bps) == [k] and abs(branch.lambdas[k]) <= 1e-7
    assert np.all(np.diff(branch.lambdas) > 0.0)  # arclength order
    assert not [e for e in branch.provenance["events"] if "localization failed" in e]
    # the same branch, branch point and perturbation as without the flip
    assert np.array_equal(branch.lambdas, lams) and np.array_equal(branch.bif_types,
                                                                   plain.bif_types)
    assert branch.perturbations.keys() == plain.perturbations.keys() == {k}
    assert np.array_equal(branch.perturbations[k], plain.perturbations[k])
    assert branch.points[k].tangent_lam == plain.points[k].tangent_lam


# the branch points of the constant branch at the parent of the change that let
# the sign test read the corrector's last Newton LU, and the branch's largest
# deviation from sqrt(-lambda / 2)
_CONSTANT_BRANCH_AT_PARENT = {
    ("uniform", 0.04): ([-0.029284975407243265, -0.21483048280660894, -0.44844877023538643],
                        2.36e-8),
    ("uniform", 0.05): ([-0.029284975241344782, -0.2148304828592647, -0.44844877021742596,
                         -0.6703513774177307], 1.26e-10),
    ("uniform", 0.06): ([-0.029284975757722202, -0.2148304828143595], 5.85e-10),
    ("uniform", 0.07): ([-0.0292849751266506, -0.21483048293849302, -0.4484487703076183],
                        2.84e-10),
    ("chebyshev", 0.04): ([-0.029285329560006616, -0.21484969592982311, -0.44853231179929187],
                          2.36e-8),
    ("chebyshev", 0.05): ([-0.029285329404628368, -0.21484969604300516, -0.44853231182511416,
                           -0.6705378233872205], 1.66e-10),
    ("chebyshev", 0.06): ([-0.029285329921444257, -0.21484969591076322], 6.03e-10),
    ("chebyshev", 0.07): ([-0.029285329322887958, -0.21484969589456623, -0.4485323118311032],
                          2.22e-10),
}


@pytest.mark.parametrize("scheme, ds", sorted(_CONSTANT_BRANCH_AT_PARENT))
def test_branch_points_across_ds_match_the_parent(constant_branch, scheme, ds):
    branch, _, _ = constant_branch(scheme, ds)
    expected, deviation = _CONSTANT_BRANCH_AT_PARENT[scheme, ds]
    found = [p.lam for p in branch.points if p.bif_type == 1]
    assert len(found) == len(expected)
    for lam, ref in zip(found, expected):
        assert abs(lam - ref) <= 1e-8 * abs(ref)
    assert not [e for e in branch.provenance["events"] if "localization failed" in e]
    dev = max(np.max(np.abs(p.psi - math.sqrt(max(-p.lam, 0.0) / 2))) for p in branch.points)
    assert dev <= 1.5 * deviation


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the one step from lambda -0.443 to "
                   "-0.689 spans two crossings, so the determinant's sign flips twice")
@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_both_crossings_in_one_step_at_ds_006_are_found(constant_branch, scheme):
    found = [p.lam for p in constant_branch(scheme, 0.06)[0].points if p.bif_type == 1]
    for lam in (-0.4484, -0.6704):
        assert any(abs(x - lam) <= 1e-3 for x in found)
