import json
import math
import time
import warnings

import numpy as np
import pytest

from graphpde import discretize, from_template
from graphpde.store import load_state_csv
from graphpde.cli import graph_from_config, main
from graphpde.continuation import save_standing_wave
from graphpde.expressions import ConfigError, compile_edge_expressions, compile_expression


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def poisson_config():
    return {
        "source": [1, 1, 1, 2, 2],
        "target": [1, 1, 2, 2, 3],
        "length": [math.pi, 2 * math.pi, 1.0, 2 * math.pi, 2.0],
        "weight": [1, 1, 2, 1, 1],
        "robin": [1.0, 1.0, "dirichlet"],
        "nx": 20,
        "potential": [{"fn": "cos", "scale": 2, "a": 2}, 0, 0, 0, 0],
        "edge_data": [
            {"fn": "sin", "scale": -1, "a": 3},
            {"fn": "cos", "scale": 2, "a": 2},
            -4,
            {"fn": "sin", "scale": -1},
            [{"fn": "sech"}, {"fn": "sech", "scale": -2, "power": 3}],
        ],
        "node_data": [8.0, 3.0, 1.0 / math.cosh(2.0)],
        "exact": [
            {"fn": "sin"},
            {"fn": "sin", "power": 2},
            [0.0, 3.0, -2.0],
            [{"fn": "poly", "coeffs": [1.0]}, {"fn": "sin"}],
            {"fn": "sech"},
        ],
    }


def test_expression_whitelist():
    f = compile_expression({"fn": "sin", "scale": -1, "a": 3})
    x = np.linspace(0, 2, 11)
    assert np.allclose(f(x), -np.sin(3 * x))
    g = compile_expression([0.0, 3.0, -2.0])
    assert np.allclose(g(x), 3 * x - 2 * x**2)
    h = compile_expression([{"fn": "sech"}, {"fn": "sech", "scale": -2, "power": 3}])
    assert np.allclose(h(x), 1 / np.cosh(x) - 2 / np.cosh(x) ** 3)
    s = compile_expression({"fn": "soliton", "v": -2.0, "x0": 15.0})
    vals = s(np.array([1.0]))
    assert np.iscomplexobj(vals)
    with pytest.raises(ConfigError):
        compile_expression({"fn": "eval", "code": "rm -rf"})
    with pytest.raises(ConfigError):
        compile_expression({"fn": "sin", "bogus": 1})
    with pytest.raises(ConfigError):
        compile_expression("sin(x)")


@pytest.mark.parametrize("term", [{"fn": "poly", "coeffs": [1.0], "value": 2.0},
                                  {"fn": "const", "value": 2.0, "coeffs": [1.0]},
                                  {"fn": "sin", "coeffs": [5], "rate": 3},
                                  {"fn": "cos", "x0": 1.0},
                                  {"fn": "sech", "c": 0.5},
                                  {"fn": "exp", "v": 1.0},
                                  {"fn": "gauss", "a": 2.0},
                                  {"fn": "soliton", "scale": 2.0},
                                  {"fn": "kink", "rate": 1.0},
                                  {"fn": "kink_velocity", "power": 2.0}])
def test_expression_terms_refuse_the_keys_of_other_functions(term):
    with pytest.raises(ConfigError, match=r"^expression: unknown key '\w+'$"):
        compile_expression(term)


@pytest.mark.parametrize("exprs, message", [
    ([[{"fn": "sin"}, "cos"]], "expression term must be a dict with an 'fn' key: 'cos'"),
    ([{"fn": "kink", "c": 1.0}], "kink speed must satisfy |c| < 1"),
    ([{"fn": "kink_velocity", "c": -1.5}], "kink speed must satisfy |c| < 1"),
    ([1.0, 2.0], "expected a list of 1 per-edge expressions"),
], ids=["term-not-a-dict", "kink-c-1", "kink_velocity-c-1.5", "two-for-one-edge"])
def test_malformed_edge_expressions_are_configuration_errors(exprs, message):
    with pytest.raises(ConfigError) as err:
        compile_edge_expressions(exprs, 1)
    assert message in str(err.value)


def test_expression_terms_match_their_closed_forms():
    x = np.linspace(-1.0, 3.0, 17)
    gauss = compile_expression({"fn": "gauss", "scale": 3.0, "x0": 0.5, "rate": 2.0})
    assert np.allclose(gauss(x), 3.0 * np.exp(-2.0 * (x - 0.5) ** 2), rtol=1e-14)
    const = compile_expression({"fn": "const", "value": -1.5})
    assert np.array_equal(const(x), np.full(x.shape, -1.5))
    c, x0, gamma = 0.6, 1.0, 0.8  # gamma = sqrt(1 - c^2)
    kink = compile_expression({"fn": "kink", "c": c, "x0": x0})
    assert np.allclose(kink(x), 4.0 * np.arctan(np.exp((x - x0) / gamma)), rtol=1e-14)
    velocity = compile_expression({"fn": "kink_velocity", "c": c, "x0": x0})
    assert np.allclose(velocity(x), -(2.0 * c / gamma) / np.cosh((x - x0) / gamma),
                       rtol=1e-14)
    # the kink travels at speed c, so its time derivative is -c times its slope
    d = 1e-5
    assert np.allclose(velocity(x), -c * (kink(x + d) - kink(x - d)) / (2 * d), atol=1e-8)


def test_graph_from_config_template_and_explicit():
    g = graph_from_config({"template": "Y"})
    assert g.num_edges == 3
    g2 = graph_from_config({"template": "star",
                            "overrides": {"lengths": 30.0, "weight": [2, 1, 1]}})
    assert [e.weight for e in g2.edges] == [2.0, 1.0, 1.0]
    g3 = graph_from_config(poisson_config())
    assert g3.vertices[2].is_dirichlet
    with pytest.raises(ConfigError, match="length"):
        graph_from_config({"source": [1], "target": [2]})
    g4 = graph_from_config({"source": [1], "target": [2], "length": [1.0], "robin": "dirichlet"})
    assert all(v.is_dirichlet for v in g4.vertices)


def test_cli_poisson_error_report(tmp_path):
    cfg = write_config(tmp_path, poisson_config())
    out = tmp_path / "out"
    code = main(["poisson", "--config", cfg, "--scheme", "uniform",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "error_report.json").read_text())
    assert abs(report["max_error"] - 1.02e-3) < 0.1 * 1.02e-3
    assert (out / "solution.csv").exists()
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "poisson" and "graph_hash" in run
    assert not list(out.rglob("*.tmp"))


def test_cli_exit_codes(tmp_path):
    bad = dict(poisson_config())
    del bad["length"]
    cfg = write_config(tmp_path, bad)
    assert main(["poisson", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["poisson", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    # all-NK Poisson -> solver error -> exit 1
    cfg2 = write_config(tmp_path, {"template": "dumbbell"}, "nk.json")
    assert main(["poisson", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 1


def test_cli_homogeneous_dirichlet_zero_solution(tmp_path):
    cfg = write_config(tmp_path, {
        "source": [1], "target": [2], "length": [1.0],
        "robin": [0.0, "dirichlet"],
    })
    out = tmp_path / "zero"
    assert main(["poisson", "--config", cfg, "--out", str(out)]) == 0
    data = np.genfromtxt(out / "solution.csv", delimiter=",", skip_header=1)
    assert np.all(data[:, 2] == 0.0) and np.all(data[:, 3] == 0.0)


def test_cli_eigs_y_graph(tmp_path):
    cfg = write_config(tmp_path, {"template": "Y", "overrides": {"nx": 40},
                                  "m": 4})
    out = tmp_path / "eigs"
    assert main(["eigs", "--config", cfg, "--out", str(out)]) == 0
    spectrum = json.loads((out / "spectrum.json").read_text())
    want = [-0.5691, -3.2456, -9.8696, -9.8696]
    assert np.allclose(spectrum["eigenvalues"], want, atol=6e-3)
    assert (out / "eigenvector_001.csv").exists()
    assert not list(out.rglob("*.tmp"))


def test_cli_secdet_interval(tmp_path):
    cfg = write_config(tmp_path, {
        "source": [1], "target": [2], "length": [math.pi],
        "robin": ["dirichlet", "dirichlet"], "k_max": 7.0,
    })
    out = tmp_path / "sd"
    assert main(["secdet", "--config", cfg, "--out", str(out)]) == 0
    zeros = json.loads((out / "zeros.json").read_text())
    ks = [z["k"] for z in zeros]
    assert np.allclose(ks, [1, 2, 3, 4, 5, 6], atol=1e-8)
    assert all(z["multiplicity"] == 1 for z in zeros)
    # sigma_min / sigma_max of S(k): scale-free, near roundoff at a zero
    assert all(0.0 <= z["residual"] <= 1e-8 for z in zeros)
    sig = np.genfromtxt(out / "sigma.csv", delimiter=",", skip_header=1)
    assert sig.shape[1] == 2
    assert not list(out.rglob("*.tmp"))


def test_cli_secdet_necklace_residuals_are_scale_free(tmp_path):
    # |Sigma| grows like e^{|E|}: on 30 edges it reached 6.9e3 at true zeros
    cfg = write_config(tmp_path, {"template": "necklace", "overrides": {"n_pairs": 10},
                                  "k_max": 2.8})
    out = tmp_path / "sd"
    assert main(["secdet", "--config", cfg, "--out", str(out)]) == 0
    zeros = json.loads((out / "zeros.json").read_text())
    assert sum(z["multiplicity"] for z in zeros) == 32
    assert all(0.0 <= z["residual"] <= 1e-6 for z in zeros)


@pytest.mark.parametrize("bad, message", [({"samples": 0}, "samples must be at least 1"),
                                          ({"k_max": -3}, "k_max must be positive")])
def test_cli_secdet_rejects_bad_scan_before_output(tmp_path, capsys, bad, message):
    cfg = write_config(tmp_path, {"template": "Y", **bad})
    out = tmp_path / "sd"
    assert main(["secdet", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_evolve_heat(tmp_path):
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "evolution": {
            "scheme": "crank_nicolson", "mu": 1.0, "tau": 0.01,
            "t_final": 1.0, "n_skip": 20,
            "initial": [
                [{"fn": "poly", "coeffs": [2.0]},
                 {"fn": "cos", "scale": -2.0, "b": -math.pi / 3}],
                1.0,
                {"fn": "cos"},
            ],
            "conserve": ["total_heat"],
        },
    })
    out = tmp_path / "heat"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    cons = np.genfromtxt(out / "conservation.csv", delimiter=",", skip_header=1)
    assert cons[:, 2].max() <= 1e-10  # total_heat drift column
    assert (out / "state_0000.csv").exists() and (out / "times.csv").exists()
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("scheme", ["crank_nicolson", "imex_euler", "sdirk443",
                                    "leapfrog"])
def test_cli_evolve_every_scheme(tmp_path, scheme):
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "evolution": {
            "scheme": scheme, "tau": 0.01, "t_final": 0.1, "n_skip": 4,
            "initial": [
                [{"fn": "poly", "coeffs": [2.0]},
                 {"fn": "cos", "scale": -2.0, "b": -math.pi / 3}],
                1.0,
                {"fn": "cos"},
            ],
            **({"initial_velocity": [0.0, 0.0, 0.0]} if scheme == "leapfrog" else {}),
        },
    })
    out = tmp_path / scheme
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the initial profile is off the conditions
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["evolution_scheme"] == scheme
    times = np.loadtxt(out / "times.csv")
    assert np.allclose(times, [0.0, 0.04, 0.08, 0.1])
    bundle = discretize(from_template("dumbbell"), "uniform")
    for j in range(1, len(times)):
        u = load_state_csv(bundle, out / f"state_{j:04d}.csv")
        assert np.linalg.norm(bundle.vc_rows @ u, np.inf) <= 1e-8
    cons = np.genfromtxt(out / "conservation.csv", delimiter=",", skip_header=1)
    assert cons.shape == (len(times), 3) and np.all(np.isfinite(cons))


@pytest.mark.parametrize("conserve, word", [({"conserve": ["mass", "heat"]}, "heat"),
                                           ({"conserve": ["momentum"],
                                             "momentum_orientation": [1, 1]}, "orientation")])
def test_cli_evolve_checks_its_conservation_table_before_writing_anything(
        tmp_path, capsys, conserve, word):
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "evolution": {"scheme": "crank_nicolson", "tau": 0.1, "t_final": 0.3,
                      "initial": [1.0, 1.0, 1.0], **conserve},
    })
    out = tmp_path / "data"
    out.mkdir()
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert word in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_evolve_nls_star_soliton(tmp_path):
    cfg = write_config(tmp_path, {
        "template": "star",
        "overrides": {"lengths": 30.0, "weight": [2, 1, 1]},
        "evolution": {
            "scheme": "sdirk443", "mu": [0.0, -1.0], "tau": 0.02,
            "t_final": 0.5, "n_skip": 5, "nonlinearity": "nls_cubic",
            "initial": [{"fn": "soliton", "v": -2.0, "x0": 15.0},
                        {"fn": "soliton", "v": 2.0, "x0": -15.0},
                        {"fn": "soliton", "v": 2.0, "x0": -15.0}],
            "conserve": ["mass", "momentum"],
            "momentum_orientation": [-1, 1, 1],
        },
    })
    out = tmp_path / "nls"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    cons = np.genfromtxt(out / "conservation.csv", delimiter=",", skip_header=1)
    header = (out / "conservation.csv").read_text().splitlines()[0].split(",")
    mass_drift = cons[:, header.index("mass_drift")]
    assert mass_drift.max() < 1e-4
    state = np.genfromtxt(out / "state_0001.csv", delimiter=",", skip_header=1)
    assert np.any(state[:, 3] != 0.0)  # complex state persisted


def test_cli_continue_dumbbell(tmp_path):
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "continue": {
            "from": "eig", "index": 1, "n_eigenfunctions": 3,
            "options": {"max_points": 12, "ds": 0.05, "verbose_flag": False},
        },
    })
    out = tmp_path / "data"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
    run = out / "dumbbell" / "001"
    lam = np.loadtxt(run / "branch001" / "lambda.csv")
    assert len(lam) <= 12
    events = json.loads((run / "branch001" / "provenance.json").read_text())["events"]
    assert events[-1].startswith(f"finished with {len(lam)} points")
    assert not (run / "logfile.txt").exists()
    assert (run / "diagram.csv").exists()
    assert not list(out.rglob("*.tmp"))


def test_cli_continue_from_branch_point_end_and_saved_in_one_run(tmp_path):
    def run_continue(table, max_points, name):
        options = {"max_points": max_points, "ds": 0.05, "verbose_flag": False}
        cfg = write_config(tmp_path, {"template": "dumbbell",
                                      "continue": {**table, "options": options}}, name)
        assert main(["continue", "--config", cfg, "--out", str(tmp_path / "data")]) == 0

    run_continue({"from": "eig", "index": 1, "n_eigenfunctions": 2}, 12, "eig.json")
    run = tmp_path / "data" / "dumbbell" / "001"
    biftype = np.loadtxt(run / "branch001" / "biftype.csv")
    assert np.any(biftype == 1)  # a pitchfork on the constant branch
    point = int(np.flatnonzero(biftype == 1)[0])

    run_continue({"from": "branch_point", "run_dir": str(run), "branch": 1,
                  "point": point}, 3, "switch.json")
    lam1 = np.loadtxt(run / "branch001" / "lambda.csv")
    lam2 = np.loadtxt(run / "branch002" / "lambda.csv")
    assert len(lam2) == 3 and lam2[0] == lam1[point]
    assert json.loads((run / "branch002" / "provenance.json").read_text())["kind"] \
        == "branch_point"

    run_continue({"from": "end", "run_dir": str(run), "branch": 2}, 5, "end.json")
    extended = np.loadtxt(run / "branch002" / "lambda.csv")
    assert len(extended) == 5 and np.array_equal(extended[:3], lam2)

    bundle = discretize(from_template("dumbbell"), "uniform")
    name = save_standing_wave(run, bundle, np.full(bundle.n_ext, 0.5), -0.5)
    run_continue({"from": "saved", "run_dir": str(run), "name": name}, 4, "saved.json")
    lam3 = np.loadtxt(run / "branch003" / "lambda.csv")
    assert len(lam3) == 4 and lam3[1] < lam3[0]  # the default direction lowers lambda
    diagram = np.loadtxt(run / "diagram.csv", delimiter=",", skiprows=1)
    assert sorted(set(diagram[:, 0])) == [1.0, 2.0, 3.0]
    assert not (tmp_path / "data" / "dumbbell" / "002").exists()


def test_cli_continue_determinism(tmp_path):
    payload = {
        "template": "dumbbell",
        "continue": {
            "from": "eig", "index": 1, "n_eigenfunctions": 2,
            "options": {"max_points": 8, "ds": 0.05, "verbose_flag": False},
        },
    }
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["continue", "--config", cfg, "--seed", "3", "--out", str(out1)]) == 0
    assert main(["continue", "--config", cfg, "--seed", "3", "--out", str(out2)]) == 0
    # the state arrays hold every point of the branch, one row each
    for name in ("lambda.csv", "psi.npy", "tangent.npy"):
        b1 = (out1 / "dumbbell" / "001" / "branch001" / name).read_bytes()
        b2 = (out2 / "dumbbell" / "001" / "branch001" / name).read_bytes()
        assert b1 == b2, name


def test_cli_continue_runs_in_two_directories_give_identical_trees(tmp_path, monkeypatch):
    options = {"ds": 0.05, "verbose_flag": False}
    steps = [({"from": "eig", "index": 1, "n_eigenfunctions": 2}, 5),
             ({"from": "end", "branch": 1, "run_dir": "data/dumbbell/001"}, 9)]
    trees = []
    for work in (tmp_path / "first", tmp_path / "second"):
        if trees:  # a clock reading in any file would differ between the trees
            time.sleep(1.0 - time.time() % 1.0)
        work.mkdir()
        monkeypatch.chdir(work)
        for k, (table, max_points) in enumerate(steps):
            cfg = write_config(tmp_path, {"template": "dumbbell", "continue": {
                **table, "options": {**options, "max_points": max_points}}}, f"step{k}.json")
            assert main(["continue", "--config", cfg, "--out", "data"]) == 0
        trees.append({str(f.relative_to(work)): f.read_bytes()
                      for f in sorted(work.rglob("*")) if f.is_file()})
    assert "data/dumbbell/001/branch001/psi.npy" in trees[0]
    assert sorted(trees[0]) == sorted(trees[1])
    for name, content in trees[0].items():
        assert content == trees[1][name], name


def test_cli_continue_refuses_an_unknown_axis_before_any_output(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "continue": {
            "from": "eig", "index": 1, "n_eigenfunctions": 2, "axes": ["lambda", "mas"],
            "options": {"max_points": 4, "ds": 0.05, "verbose_flag": False},
        },
    })
    out = tmp_path / "data"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    assert "mas" in capsys.readouterr().err
    assert not (out / "dumbbell" / "001" / "branch001").exists()
    assert not (out / "dumbbell").exists()


def test_cli_continue_refuses_a_zero_amplitude(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "continue": {
            "from": "eig", "index": 1, "n_eigenfunctions": 2, "amplitude": 0,
            "options": {"max_points": 4, "ds": 0.05, "verbose_flag": False},
        },
    })
    out = tmp_path / "data"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    assert "amplitude" in capsys.readouterr().err
    assert not (out / "dumbbell" / "001" / "branch001").exists()


@pytest.mark.parametrize("fault, word", [({"from": "eig", "amplitude": 0}, "amplitude"),
                                         ({"from": "eigenfunction"}, "eigenfunction"),
                                         ({"from": "branch_point", "branch": 1}, "point"),
                                         ({"from": "end", "branch": "x"}, "branch"),
                                         ({"from": "eig", "index": "one"}, "index"),
                                         ({"from": 3}, "'from' takes one of")])
def test_cli_continue_checks_its_config_before_writing_anything(tmp_path, capsys,
                                                                fault, word):
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "continue": {"index": 1, "n_eigenfunctions": 2, **fault,
                     "options": {"max_points": 4, "ds": 0.05, "verbose_flag": False}},
    })
    out = tmp_path / "data"
    out.mkdir()
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    assert word in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("start", [{"from": "branch_point", "branch": 1, "point": 6},
                                   {"from": "saved", "name": "wave_001"},
                                   {"from": "end", "branch": 1}])
def test_cli_continue_from_a_stored_start_needs_a_run_dir(tmp_path, capsys, start):
    # a fresh run holds no branch and no saved wave, so these starts need an old one
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "continue": {**start, "options": {"max_points": 4, "ds": 0.05, "verbose_flag": False}},
    })
    out = tmp_path / "data"
    out.mkdir()
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    assert f"from {start['from']!r} needs the 'run_dir' key" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, cfg, key", [
    ("evolve", {"evolution": {"scheme": "crank_nicolson", "tau": 0.1, "t_final": 0.3,
                              "initial": [1.0, 1.0, 1.0], "conserve": "mass"}}, "conserve"),
    ("continue", {"continue": {"from": "eig", "index": 1, "n_eigenfunctions": 2,
                               "axes": "lambda"}}, "axes"),
])
def test_cli_refuses_a_bare_string_for_a_list_before_writing_anything(
        tmp_path, capsys, command, cfg, key):
    cfg = write_config(tmp_path, {"template": "dumbbell", **cfg})
    out = tmp_path / "data"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"'{key}' must be a list" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, cfg, key", [
    ("eigs", {"m": 3.7}, "m"),
    ("secdet", {"k_max": 4.0, "samples": 50.5}, "samples"),
    ("evolve", {"evolution": {"scheme": "crank_nicolson", "tau": 0.1, "t_final": 0.3,
                              "initial": [1.0, 1.0, 1.0], "n_skip": 1.5}}, "n_skip"),
    ("continue", {"continue": {"from": "eig", "index": 1.9}}, "index"),
    ("continue", {"continue": {"from": "branch_point", "branch": 1, "point": 2.5}}, "point"),
    ("continue", {"continue": {"from": "eig", "options": {"max_points": 4.5}}}, "max_points"),
])
def test_cli_refuses_a_fractional_integer_before_writing_anything(
        tmp_path, capsys, command, cfg, key):
    cfg = write_config(tmp_path, {"template": "dumbbell", **cfg})
    out = tmp_path / "data"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"'{key}' must be int" in capsys.readouterr().err
    assert list(out.iterdir()) == []


_QUIET = {"max_points": 4, "verbose_flag": False}
_EDGE = {"template": None, "source": [1], "target": [2], "length": [1.0]}  # None: no key


def _initial(expression):
    """An evolution table whose second edge starts at expression."""
    return {"evolution": {"scheme": "crank_nicolson", "initial": [1.0, expression, 1.0]}}


@pytest.mark.parametrize("command, cfg, message", [
    ("poisson", {"edge_dat": [1.0, 1.0, 1.0]}, "config: unknown key 'edge_dat'"),
    ("eigs", {"mm": 3, "shfit": 5}, "config: unknown key 'mm'"),
    ("secdet", {"sampels": 50}, "config: unknown key 'sampels'"),
    ("evolve", {"evolutoin": {}}, "config: unknown key 'evolutoin'"),
    ("continue", {"contineu": {}}, "config: unknown key 'contineu'"),
    ("evolve", {"evolution": {"scheme": "crank_nicolson", "initial": [1.0, 1.0, 1.0],
                              "tua": 0.1}}, "config.evolution: unknown key 'tua'"),
    ("continue", {"continue": {"ampltude": 0.1, "options": _QUIET}},
     "config.continue: unknown key 'ampltude'"),
    ("continue", {"continue": {"options": {**_QUIET, "max_pionts": 4}}},
     "config.continue.options: unknown key 'max_pionts'"),
    ("eigs", {"source": [1], "target": [2], "length": [1.0]},
     "config: 'template' excludes the edge keys ['length', 'source', 'target']"),
    ("continue", {"continue": {"options": {**_QUIET, "verbose_flag": "no"}}},
     "config.continue.options: 'verbose_flag' must be bool"),
    ("eigs", {"shift": "0.5"}, "config: 'shift' must be float"),
    ("evolve", {"evolution": [1.0]}, "config.evolution must be a table, got [1.0]"),
    ("continue", {"continue": "eig"}, "config.continue must be a table, got 'eig'"),
    ("evolve", {"evolution": {"scheme": "crank_nicolson"}},
     "config.evolution: 'initial' edge expressions are required"),
    ("continue", {}, "config needs a 'continue' table"),
    ("eigs", {**_EDGE, "length": ["2"]},
     "config: 'length' must be a number or a list of numbers, got ['2']"),
    ("eigs", {**_EDGE, "robin": ["1.5", 0]},
     """config: 'robin' must be a number or "dirichlet", or a list of these, got ['1.5', 0]"""),
    ("eigs", {**_EDGE, "robin": [True, 0]},
     """config: 'robin' must be a number or "dirichlet", or a list of these, got [True, 0]"""),
    ("eigs", {"overrides": {"nx": True}},
     "config.overrides: 'nx' must be a number or a list of numbers, got True"),
    ("eigs", {"template": "interval", "overrides": {"length": "3"}},
     "config.overrides: 'length' must be a number or a list of numbers, got '3'"),
    ("evolve", _initial({"fn": "poly", "coeffs": "12"}),
     "config.evolution.initial[1]: 'coeffs' must be a nonempty list of numbers, got '12'"),
    ("evolve", _initial({"fn": "sin", "scale": "2"}),
     "config.evolution.initial[1]: 'scale' must be float, got '2'"),
    ("evolve", _initial({"fn": "sin", "a": True}),
     "config.evolution.initial[1]: 'a' must be float, got True"),
    ("evolve", _initial(True), "config.evolution.initial[1] must be an expression"),
    ("evolve", _initial({"fn": "poly"}),
     "config.evolution.initial[1]: 'poly' needs the 'coeffs' key"),
    ("evolve", _initial([]), "config.evolution.initial[1] must be an expression"),
    ("evolve", {"evolution": {"scheme": "crank_nicolson", "initial": [1.0, 1.0, 1.0], "mu": "1"}},
     "config.evolution: 'mu' must be a number or a list of two numbers, got '1'"),
    ("eigs", {"template": "necklace", "overrides": {"n_pairs": 2.5}},
     "config.overrides: 'n_pairs' must be int, got 2.5"),
    ("eigs", {**_EDGE, "length": [math.nan]},
     "config: 'length' must be a number or a list of numbers, got [nan]"),
    ("eigs", {**_EDGE, "length": math.inf},
     "config: 'length' must be a number or a list of numbers, got inf"),
    ("eigs", {**_EDGE, "weight": [-math.inf]},
     "config: 'weight' must be a number or a list of numbers, got [-inf]"),
    ("eigs", {**_EDGE, "nx": math.nan},
     "config: 'nx' must be a number or a list of numbers, got nan"),
    ("poisson", {**_EDGE, "node_data": [0.0, math.inf]},
     "config: 'node_data' must be a number or a list of numbers, got [0.0, inf]"),
    ("eigs", {"overrides": {"handle_length": math.inf}},
     "config.overrides: 'handle_length' must be a number or a list of numbers, got inf"),
    ("eigs", {"overrides": {"robin": [0, math.nan]}},
     """config.overrides: 'robin' must be a number or "dirichlet", or a list of these, """
     "got [0, nan]"),
    ("eigs", {**_EDGE, "source": None}, "config: an edge-list graph needs the 'source' key"),
    ("eigs", {**_EDGE, "target": None}, "config: an edge-list graph needs the 'target' key"),
    ("eigs", {**_EDGE, "length": None}, "config: an edge-list graph needs the 'length' key"),
    ("continue", {"continue": {"from": "branch_point", "branch": 1, "options": _QUIET}},
     "config.continue: from 'branch_point' needs the 'point' key"),
    ("continue", {"continue": {"from": "saved", "options": _QUIET}},
     "config.continue: from 'saved' needs the 'name' key"),
    ("continue", {"continue": {"from": "end", "options": _QUIET}},
     "config.continue: from 'end' needs the 'branch' key"),
    ("continue", {"continue": {"amplitude": 0, "options": _QUIET}},
     "config.continue.amplitude must be finite and nonzero, got 0"),
    ("continue", {"continue": {"amplitude": -math.inf, "options": _QUIET}},
     "config.continue.amplitude must be finite and nonzero, got -inf"),
    ("secdet", {"samples": 0}, "config.samples must be at least 1, got 0"),
    ("eigs", {"overrides": {"lengths": [1.0, 2.0, 3.0]}},
     "config.overrides: unknown key 'lengths'"),
])
def test_cli_refuses_an_unknown_or_ill_typed_key_before_writing_anything(
        tmp_path, capsys, command, cfg, message):
    cfg = {"template": "dumbbell", **cfg}
    cfg = write_config(tmp_path, {key: v for key, v in cfg.items() if v is not None})
    out = tmp_path / "data"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_refuses_a_config_that_is_not_json_before_writing_anything(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"template": "dumbbell", "m": 3')
    out = tmp_path / "data"
    assert main(["eigs", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config file is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_cli_template_commands(capsys):
    assert main(["template", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "dumbbell" in names and "Y" in names
    assert main(["template", "show", "lasso"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["source"] == [1, 2] and info["target"] == [2, 2]
    assert main(["template", "show", "moebius"]) == 2


def test_cli_unknown_evolution_scheme(tmp_path):
    cfg = write_config(tmp_path, {
        "template": "ring",
        "evolution": {"scheme": "magic", "initial": [1.0]},
    })
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("keys", [{"index": 0}, {"index": 4, "n_eigenfunctions": 3}],
                         ids=["index-0", "index-above-count"])
def test_cli_continue_refuses_an_index_of_no_eigenfunction_before_any_output(
        tmp_path, capsys, keys):
    cfg = write_config(tmp_path, {"template": "dumbbell",
                                  "continue": {**keys, "options": _QUIET}})
    out = tmp_path / "data"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    assert "config.continue: 'index' must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sign", [0, 2, -3])
def test_cli_continue_refuses_a_branch_point_sign_other_than_one_before_any_output(
        tmp_path, capsys, sign):
    out = tmp_path / "data"
    cfg = write_config(tmp_path, {"template": "dumbbell", "continue": {
        "from": "eig", "n_eigenfunctions": 2, "options": {**_QUIET, "ds": 0.05}}})
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
    run = out / "dumbbell" / "001"
    cfg = write_config(tmp_path, {"template": "dumbbell", "continue": {
        "from": "branch_point", "run_dir": str(run), "branch": 1, "point": 0,
        "sign": sign, "options": _QUIET}}, "switch.json")
    capsys.readouterr()
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    assert f"'sign' must be 1 or -1, got {sign}" in capsys.readouterr().err
    assert sorted(p.name for p in run.glob("branch*")) == ["branch001"]


@pytest.mark.parametrize("bad", [
    {"tau": -0.1}, {"t_final": 0}, {"n_skip": 0}, {"mu": [1.0]},
    {"nonlinearity": "nls_cubic"},
    {"mu": 0.5, "scheme": "leapfrog", "initial_velocity": [0.0, 0.0, 0.0]},
    {"initial_velocity": [0.0, 0.0, 0.0], "scheme": "imex_euler"},
], ids=["tau", "t_final", "n_skip", "mu", "crank_nicolson-nls_cubic", "leapfrog-mu",
        "imex_euler-initial_velocity"])
def test_cli_evolve_refuses_bad_run_values_as_configuration_errors(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, {
        "template": "dumbbell",
        "evolution": {"scheme": "crank_nicolson", "tau": 0.1, "t_final": 0.3,
                      "initial": [1.0, 1.0, 1.0], **bad},
    })
    out = tmp_path / "data"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: config.evolution:" in err and next(iter(bad)) in err
    assert not out.exists()


@pytest.mark.parametrize("m", [0, 71, 76])
def test_cli_eigs_refuses_an_m_of_no_finite_eigenvalue_before_any_output(tmp_path, capsys, m):
    # the Y graph's pencil has n_int = 70 finite eigenvalues (n_ext = 76)
    bundle = discretize(from_template("Y"), "uniform")
    assert (bundle.n_int, bundle.n_ext) == (70, 76)
    out = tmp_path / "data"
    cfg = write_config(tmp_path, {"template": "Y", "m": m})
    assert main(["eigs", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config: 'm' must be at least 1 and at most 70" in err
    assert err.rstrip().endswith(f"got {m}")
    assert not out.exists()


def test_cli_eigs_takes_every_finite_eigenvalue(tmp_path):
    out = tmp_path / "data"
    cfg = write_config(tmp_path, {"template": "Y", "m": 70})
    assert main(["eigs", "--config", cfg, "--out", str(out)]) == 0
    assert len(json.loads((out / "spectrum.json").read_text())["eigenvalues"]) == 70


def test_cli_continue_from_a_non_finite_seed_is_a_solver_failure(tmp_path, capsys):
    # f(a v) overflows at the amplitude 1e200: the seed polish meets a non-finite
    # residual, which is the solver's failure, not the configuration's
    cfg = write_config(tmp_path, {"template": "dumbbell", "continue": {"amplitude": 1e200}})
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["continue", "--config", cfg, "--out", str(tmp_path / "data")])
    err = capsys.readouterr().err
    assert code == 1 and "non-finite residual" in err and "configuration error" not in err


def test_cli_template_overrides_take_dirichlet_robin(tmp_path, capsys):
    # the Y template's default robin is [0, 0, DIRICHLET, DIRICHLET]
    spectra = []
    for k, graph in enumerate([{}, {"overrides": {"robin": [0, 0, "dirichlet", "Dirichlet"]}}]):
        cfg = write_config(tmp_path, {"template": "Y", "m": 3, **graph}, f"y{k}.json")
        out = tmp_path / f"y{k}"
        assert main(["eigs", "--config", cfg, "--out", str(out)]) == 0
        spectra.append((out / "spectrum.json").read_bytes())
    assert spectra[0] == spectra[1]
    cfg = write_config(tmp_path, {"template": "Y", "overrides": {"robin": [0, 0, "dirichlet",
                                                                           "neumann"]}})
    assert main(["eigs", "--config", cfg, "--out", str(tmp_path / "bad")]) == 2
    assert "'neumann'" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("graph, keys, count", [
    ({"template": "dumbbell"}, {"n_eigenfunctions": 400}, 400),
    ({"template": "interval", "overrides": {"nx": [4]}}, {"n_eigenfunctions": 5}, 5),
    ({"template": "interval", "overrides": {"nx": [2]}}, {}, 6),
], ids=["dumbbell-400", "interval-nx4-5", "interval-nx2-default"])
def test_cli_continue_refuses_more_eigenfunctions_than_the_pencil_has_before_any_output(
        tmp_path, capsys, graph, keys, count):
    cfg = write_config(tmp_path, {**graph, "continue": {**keys, "options": _QUIET}})
    out = tmp_path / "data"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config.continue: 'n_eigenfunctions'" in err and err.rstrip().endswith(f"got {count}")
    assert not out.exists()


def test_cli_secdet_reads_a_numeric_zero_potential_as_no_potential(tmp_path):
    star = {"source": [1, 1, 1], "target": [2, 3, 4], "length": [1, 1, 1], "k_max": 3.0,
            "samples": 10}
    outputs = []
    for k, graph in enumerate([star, {**star, "potential": [0, 0.0, 0]}]):
        out = tmp_path / f"sd{k}"
        assert main(["secdet", "--config", write_config(tmp_path, graph, f"star{k}.json"),
                     "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("zeros.json", "sigma.csv")])
        outputs[-1].append(json.loads((out / "run.json").read_text())["graph_hash"])
    assert outputs[0] == outputs[1]


def test_cli_continue_refuses_a_run_dir_that_is_not_a_run_directory_before_any_solve(
        tmp_path, capsys, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("continued a branch")

    monkeypatch.setattr("graphpde.continuation.continue_from_end", solve)
    empty = tmp_path / "empty"
    empty.mkdir()
    for run_dir in (tmp_path / "nowhere", empty):
        cfg = write_config(tmp_path, {"template": "dumbbell", "continue": {
            "from": "end", "branch": 1, "run_dir": str(run_dir), "options": _QUIET}})
        out = tmp_path / "data"
        assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
        assert (f"config.continue: 'run_dir' must be a run directory, got '{run_dir}'"
                in capsys.readouterr().err)
        assert not out.exists() and not (tmp_path / "nowhere").exists()
    assert list(empty.iterdir()) == []


_CONTINUE = {"template": "dumbbell", "continue": {"n_eigenfunctions": 2, "options": _QUIET}}


def _with(cfg, path, value):
    """A copy of the config cfg with the key path (a tuple of keys) set to value."""
    cfg = json.loads(json.dumps(cfg))
    table = cfg
    for key in path[:-1]:
        table = table.setdefault(key, {})
    table[path[-1]] = value
    return cfg


_EVOLVE = {"template": "dumbbell", "evolution": {"scheme": "crank_nicolson", "tau": 0.1,
                                                 "t_final": 0.2, "initial": [1.0, 1.0, 1.0]}}


@pytest.mark.parametrize("command, cfg, message", [
    ("eigs", {"template": "Y", "shift": math.nan}, "config: 'shift' must be float, got nan"),
    ("eigs", {"template": "Y", "shift": math.inf}, "config: 'shift' must be float, got inf"),
    ("secdet", {"template": "Y", "k_max": math.nan}, "config: 'k_max' must be float, got nan"),
    ("secdet", {"template": "Y", "k_max": -3}, "config.k_max must be positive, got -3.0"),
    ("evolve", _with(_EVOLVE, ("evolution", "tau"), math.nan),
     "config.evolution: 'tau' must be float, got nan"),
    ("evolve", _with(_EVOLVE, ("evolution", "t_final"), math.inf),
     "config.evolution: 't_final' must be float, got inf"),
    ("evolve", _with(_EVOLVE, ("evolution", "sigma"), -math.inf),
     "config.evolution: 'sigma' must be float, got -inf"),
    ("evolve", _with(_EVOLVE, ("evolution", "initial"), [1.0, {"fn": "sin", "a": math.nan}, 1.0]),
     "config.evolution.initial[1]: 'a' must be float, got nan"),
    ("continue", _with(_CONTINUE, ("continue", "sigma"), math.nan),
     "config.continue: 'sigma' must be float, got nan"),
    ("continue", _with(_CONTINUE, ("continue", "sigma"), math.inf),
     "config.continue: 'sigma' must be float, got inf"),
    ("continue", _with(_CONTINUE, ("continue", "direction"), math.nan),
     "config.continue: 'direction' must be float, got nan"),
    ("continue", _with(_CONTINUE, ("continue", "amplitude"), math.nan),
     "config.continue: 'amplitude' must be a number, Infinity or -Infinity, got nan"),
    ("continue", _with(_CONTINUE, ("continue", "options", "ds"), math.inf),
     "config.continue.options: 'ds' must be float, got inf"),
    ("continue", _with(_CONTINUE, ("continue", "options", "n_thresh"), math.nan),
     "config.continue.options: 'n_thresh' must be a number, Infinity or -Infinity, got nan"),
    ("continue", _with(_CONTINUE, ("continue", "options", "lambda_thresh"), math.nan),
     "config.continue.options: 'lambda_thresh' must be a number, Infinity or -Infinity, "
     "got nan"),
])
def test_cli_refuses_a_non_finite_float_before_writing_anything(
        tmp_path, capsys, command, cfg, message):
    out = tmp_path / "data"
    out.mkdir()
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_refuses_a_negative_sigma_before_writing_anything(tmp_path, capsys):
    cfg = write_config(tmp_path, {"template": "dumbbell", "continue": {"sigma": -0.5}})
    out = tmp_path / "data"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    assert ("config.continue: 'sigma': sigma must be finite and at least 0, got -0.5"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_infinite_thresholds_turn_the_thresholds_off(tmp_path):
    options = {**_QUIET, "n_thresh": math.inf, "lambda_thresh": -math.inf}
    cfg = write_config(tmp_path, _with(_CONTINUE, ("continue", "options"), options))
    assert main(["continue", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
    provenance = tmp_path / "data" / "dumbbell" / "001" / "branch001" / "provenance.json"
    assert json.loads(provenance.read_text())["termination"] == "max_points"
