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
from graphpde.discretize import save_state_csv
from graphpde.stationary import NewtonError


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
    residual, real = sys_.residual, cont.newton
    sys_.residual = lambda u, lam: lams.append(lam) or residual(u, lam)

    def counting(*args, **kwargs):
        first = len(lams)
        out = real(*args, **kwargs)
        polished.append(lams[first])  # the lambda of the polish's first residual
        return out

    monkeypatch.setattr(cont, "newton", counting)
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
    fact_b = cont._bordered_factor(sys_, b.psi, b.lam, *direction, opts.beta)
    calls = []
    real_corrector = cont.corrector

    def counting(*args):
        calls.append(args[3])
        return real_corrector(*args)

    cont.corrector = counting
    try:
        u, lam, v = cont.locate_branch_point(sys_, opts, a, b, direction, fact_b)
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


def _branch_with_colamd_every_time(system, monkeypatch):
    """The branch as every bordered matrix factored afresh in its own COLAMD order gives it."""
    def fresh(sys, u, lam, t_u, t_lam, beta):
        row = t_u if sys.weights is None else sys.weights * t_u
        return cont.linalg.factorize(cont._bordered_matrix(
            sys.jacobian(u, lam), sys.dlam(u, lam), row, beta * t_lam))

    with monkeypatch.context() as m:
        m.setattr(cont, "_bordered_factor", fresh)
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
def test_reused_column_order_gives_the_same_branch(monkeypatch, pattern_changes):
    reference = _branch_with_colamd_every_time(pitchfork_chain(pattern_changes), monkeypatch)
    orderings = []
    splu = cont.linalg.spla.splu

    def counted(A, permc_spec="COLAMD", **kw):
        orderings.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kw)

    monkeypatch.setattr(cont.linalg.spla, "splu", counted)
    branch = _pitchfork_chain_branch(pitchfork_chain(pattern_changes))
    assert len(branch.points) == len(reference.points) > 10
    assert np.array_equal(branch.bif_types, reference.bif_types)
    for p, q in zip(branch.points, reference.points):
        assert p.lam == q.lam and np.array_equal(p.psi, q.psi)
        assert np.array_equal(p.tangent_psi, q.tangent_psi)
    # besides the null vectors' LUs, one COLAMD ordering per switch of the
    # Jacobian's pattern (localization crosses lam = 0 back and forth)
    colamd = orderings.count("COLAMD") - len(branch.perturbations)
    assert colamd > 1 if pattern_changes else colamd == 1
    assert orderings.count("NATURAL") > 20


def test_a_dumbbell_branch_orders_its_bordered_columns_once(tmp_path, monkeypatch):
    b, sys_ = dumbbell_setup()
    run = cont.create_run(tmp_path, "dumbbell", b)
    cont.save_eigenfunctions(run, b, 2)
    orders = []
    real = cont.linalg.Factorization.__init__

    def init(self, A, order=None):
        orders.append(order)
        real(self, A, order)

    monkeypatch.setattr(cont.linalg.Factorization, "__init__", init)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, quiet_opts(ds=0.05, max_points=12))
    bordered = [o for o in orders if o is not None]
    n_null = len(branch.perturbations)
    assert len(orders) - len(bordered) == 1 + n_null  # the first bordered LU, the null vectors
    assert len(bordered) > 30
    assert all(o is bordered[0] for o in bordered)
