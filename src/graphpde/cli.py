"""Command-line front end: graph configs in, reproducible data artifacts out.

    qg poisson  --config cfg.json --scheme uniform --out results/
    qg eigs     --config cfg.json --out results/
    qg secdet   --config cfg.json --out results/
    qg evolve   --config cfg.json --out results/
    qg continue --config cfg.json --out data/
    qg template list | show TAG

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import continuation as cont
from . import evolution as evo
from . import stationary
from .discretize import (apply_function_to_edges, discretize, save_scalar_csv,
                         save_state_csv)
from .expressions import ConfigError, compile_edge_expressions
from .functionals import make_context
from .graphs import DIRICHLET, GraphError, MetricGraph, TEMPLATES, build_graph, \
    from_template, graph_config, graph_hash


def graph_from_config(cfg: dict) -> MetricGraph:
    """Build a graph from a JSON config: a template reference or edge lists."""
    if "template" in cfg:
        overrides = dict(cfg.get("overrides", {}))
        return from_template(cfg["template"], **overrides)
    for key in ("source", "target", "length"):
        if key not in cfg:
            raise ConfigError(f"graph config is missing the {key!r} key")
    robin = cfg.get("robin")
    if isinstance(robin, str):
        robin = DIRICHLET if robin.lower() == "dirichlet" else float(robin)
    elif robin is not None and not np.isscalar(robin):
        robin = [DIRICHLET if isinstance(v, str) and v.lower() == "dirichlet"
                 else float(v) for v in robin]
    potentials = None
    if cfg.get("potential") is not None:
        potentials = compile_edge_expressions(cfg["potential"], len(cfg["source"]))
    return build_graph(cfg["source"], cfg["target"], cfg["length"],
                       weights=cfg.get("weight"), robin_coeffs=robin,
                       nx=cfg.get("nx"), potentials=potentials)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_json(out: Path, args, cfg: dict, graph: MetricGraph, extra=None):
    payload = {
        "command": args.command,
        "scheme": args.scheme,
        "seed": args.seed,
        "graph_hash": graph_hash(graph),
        "config": cfg,
    }
    payload.update(extra or {})
    (out / "run.json").write_text(json.dumps(payload, indent=1, sort_keys=True))


def _number(table: dict, key: str, kind, default=None):
    """table[key] converted by kind (int or float), or default when key is absent.

    An int key refuses a number with a fractional part instead of truncating it.
    """
    if key not in table:
        return default
    value = table[key]
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} must be {kind.__name__}, got {value!r}") from None


def _list(table: dict, key: str, default: list) -> list:
    """table[key], which must be a list, or default when key is absent."""
    value = table.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list, got {value!r}")
    return value


def _sampled_exact(bundle, cfg):
    exprs = cfg.get("exact")
    if exprs is None:
        return None
    fns = compile_edge_expressions(exprs, bundle.graph.num_edges)
    return apply_function_to_edges(bundle, fns)


# ---------------------------------------------------------------------------
# commands

def _cmd_poisson(args) -> int:
    cfg = _load_config(args.config)
    graph = graph_from_config(cfg)
    bundle = discretize(graph, args.scheme)
    f = None
    if cfg.get("edge_data") is not None:
        fns = compile_edge_expressions(cfg["edge_data"], graph.num_edges)
        f = apply_function_to_edges(bundle, fns)
    psi = stationary.solve_poisson(bundle, f, cfg.get("node_data"))
    out = _out_dir(args)
    save_state_csv(bundle, psi, out / "solution.csv")
    extra = {}
    exact = _sampled_exact(bundle, cfg)
    if exact is not None:
        err = np.abs(psi - exact)
        per_edge = {str(m): float(np.max(err[bundle.edge_slice(m)]))
                    for m in range(1, graph.num_edges + 1)}
        report = {"max_error": float(np.max(err)), "per_edge": per_edge}
        (out / "error_report.json").write_text(json.dumps(report, indent=1))
        extra["max_error"] = report["max_error"]
    _write_run_json(out, args, cfg, graph, extra)
    return 0


def _cmd_eigs(args) -> int:
    cfg = _load_config(args.config)
    graph = graph_from_config(cfg)
    bundle = discretize(graph, args.scheme)
    m = _number(cfg, "m", int, 4)
    sigma = float(cfg.get("shift", 1e-2))
    lam, vecs = stationary.eigs(bundle, m, sigma=sigma)
    out = _out_dir(args)
    residuals = []
    for j in range(m):
        r = bundle.lap_vc @ vecs[:, j] - lam[j] * (bundle.interp_zero @ vecs[:, j])
        residuals.append(float(np.linalg.norm(r)))
        save_state_csv(bundle, vecs[:, j], out / f"eigenvector_{j + 1:03d}.csv")
    spectrum = {
        "scheme": args.scheme,
        "eigenvalues": [float(np.real(v)) for v in lam],
        "k": [float(math.sqrt(max(-np.real(v), 0.0))) for v in lam],
        "residuals": residuals,
    }
    (out / "spectrum.json").write_text(json.dumps(spectrum, indent=1))
    _write_run_json(out, args, cfg, graph)
    return 0


def _cmd_secdet(args) -> int:
    cfg = _load_config(args.config)
    graph = graph_from_config(cfg)
    k_max = float(cfg.get("k_max", 2.0 * math.pi))
    samples = _number(cfg, "samples", int, 800)
    if samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    sigma = stationary.secular_function(graph)
    zeros = stationary.find_spectrum_secular(graph, k_max)  # refuses a bad k_max before any output
    out = _out_dir(args)
    ks = np.linspace(k_max / samples, k_max, samples)
    save_scalar_csv(out / "sigma.csv", np.column_stack([ks, sigma(ks)]), header="k,sigma")
    # scale-free: |Sigma| grows like e^{|E|}, sigma_min / sigma_max does not
    sv = stationary.secular_singular_values(graph, [k for k, _ in zeros])
    residuals = sv[:, -1] / sv[:, 0]
    payload = [{"k": k, "lambda": -k * k, "multiplicity": mult,
                "scheme": "secular", "residual": float(res)}
               for (k, mult), res in zip(zeros, residuals)]
    (out / "zeros.json").write_text(json.dumps(payload, indent=1))
    _write_run_json(out, args, cfg, graph)
    return 0


_EVOLUTION_NONLINEARITIES = {
    "none": None,
    "nls_cubic": lambda z: -2j * np.abs(z) ** 2 * z,
}


def _leapfrog(problem, u0, ev):
    b = problem.bundle
    vel = compile_edge_expressions(ev.get("initial_velocity"), b.graph.num_edges)
    if vel is None:
        raise ConfigError("leapfrog needs 'initial_velocity' edge expressions")
    name = ev.get("nonlinearity", "sine_gordon")
    g = {"sine_gordon": np.sin, "none": lambda u: 0.0 * u}.get(name)
    if g is None:
        raise ConfigError(f"unknown leapfrog nonlinearity {name!r}")
    return evo.leapfrog_klein_gordon(problem, g, u0, apply_function_to_edges(b, vel))


# scheme -> run(problem, u0, evolution table); the implicit steppers read f
_EVOLUTION_SCHEMES = {
    "crank_nicolson": lambda p, u0, ev: evo.crank_nicolson_heat(p, u0),
    "imex_euler": lambda p, u0, ev: evo.imex_euler(p, u0),
    "sdirk443": lambda p, u0, ev: evo.sdirk443(p, u0),
    "leapfrog": _leapfrog,
}


def _cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    graph = graph_from_config(cfg)
    bundle = discretize(graph, args.scheme)
    ev = cfg.get("evolution")
    if not isinstance(ev, dict):
        raise ConfigError("config needs an 'evolution' table")
    scheme = ev.get("scheme")
    if scheme not in _EVOLUTION_SCHEMES:
        raise ConfigError(f"unknown evolution scheme {scheme!r}")
    mu = ev.get("mu", 1.0)
    if isinstance(mu, (list, tuple)):
        mu = complex(mu[0], mu[1])
    fname = ev.get("nonlinearity", "none")
    if scheme != "leapfrog" and fname not in _EVOLUTION_NONLINEARITIES:
        raise ConfigError(f"unknown nonlinearity {fname!r}")
    init = compile_edge_expressions(ev.get("initial"), graph.num_edges)
    if init is None:
        raise ConfigError("evolution config needs 'initial' edge expressions")
    quantities = _list(ev, "conserve", ["mass"])
    unknown = [q for q in quantities if q not in evo.QUANTITIES]
    if unknown:
        raise ConfigError(f"unknown quantity {unknown[0]!r}; pick from {evo.QUANTITIES}")
    problem = evo.EvolutionProblem(
        bundle, mu=mu, f=_EVOLUTION_NONLINEARITIES.get(fname),
        tau=float(ev.get("tau", 1e-2)), t_final=float(ev.get("t_final", 1.0)),
        n_skip=_number(ev, "n_skip", int, 1))
    u0 = apply_function_to_edges(bundle, init)
    times, states = _EVOLUTION_SCHEMES[scheme](problem, u0, ev)
    table = evo.conservation_trace(
        make_context(bundle), times, states, quantities, sigma=float(ev.get("sigma", 1.0)),
        momentum_orientations=ev.get("momentum_orientation"))
    names = ["times"] + [n for q in quantities for n in (q, q + "_drift")]

    out = _out_dir(args)
    save_scalar_csv(out / "times.csv", times)
    for j in range(states.shape[1]):
        save_state_csv(bundle, states[:, j], out / f"state_{j:04d}.csv")
    save_scalar_csv(out / "conservation.csv", np.column_stack([table[n] for n in names]),
                    header=",".join(names))
    _write_run_json(out, args, cfg, graph, {"evolution_scheme": scheme})
    return 0


def _cmd_continue(args) -> int:
    cfg = _load_config(args.config)
    graph = graph_from_config(cfg)
    bundle = discretize(graph, args.scheme)
    cc = cfg.get("continue")
    if not isinstance(cc, dict):
        raise ConfigError("config needs a 'continue' table")
    opts = cont.ContinuationOptions(**cc.get("options", {}))
    problem = stationary.nls_problem(bundle, sigma=float(cc.get("sigma", 1.0)))
    sys_ = cont.nls_system(problem, make_context(bundle))
    start = cc.get("from", "eig")
    axes = tuple(_list(cc, "axes", ["lambda", "mass"]))
    unknown = [ax for ax in axes if ax not in cont.DIAGRAM_AXES]
    if unknown:
        raise ConfigError(f"unknown axis {unknown[0]!r}; pick from {cont.DIAGRAM_AXES}")
    # checked before any output: the start, its keys and the amplitude
    needs = {"eig": (), "branch_point": ("branch", "point"), "saved": ("name",),
             "end": ("branch",)}
    if start not in needs:
        raise ConfigError(f"unknown continuation start {start!r}")
    missing = [key for key in needs[start] if key not in cc]
    if missing:
        raise ConfigError(f"continuation from {start!r} needs the {missing[0]!r} key")
    amplitude = _number(cc, "amplitude", float, 1e-2)
    if amplitude == 0.0 or not math.isfinite(amplitude):
        raise ConfigError(f"amplitude must be finite and nonzero, got {amplitude}")
    index = _number(cc, "index", int, 1)
    count = _number(cc, "n_eigenfunctions", int, max(6, index + 2))
    branch_id, point = _number(cc, "branch", int), _number(cc, "point", int)
    sign = _number(cc, "sign", int, 1)
    direction = _number(cc, "direction", float, -1.0)
    if "run_dir" in cc:
        run_dir = Path(cc["run_dir"])
        cont.check_run_layout(run_dir, bundle)
    else:
        tag = cfg.get("template", "graph")
        run_dir = cont.create_run(_out_dir(args), tag, bundle)
    if start == "eig":
        if not (Path(run_dir) / "eigenfunctions").exists():
            cont.save_eigenfunctions(run_dir, bundle, count)
        branch = cont.continue_from_eig(run_dir, sys_, index, amplitude, opts)
    elif start == "branch_point":
        branch = cont.continue_from_branch_point(run_dir, sys_, branch_id, point, sign, opts)
    elif start == "saved":
        branch = cont.continue_from_saved(run_dir, sys_, cc["name"], opts, direction=direction)
    else:
        branch = cont.continue_from_end(run_dir, sys_, branch_id, opts)

    diagram = cont.bifurcation_diagram(run_dir, axes)
    rows = []
    for bid, table in diagram.items():
        for row in table:
            rows.append([bid, *row])
    save_scalar_csv(Path(run_dir) / "diagram.csv", rows,
                    header=",".join(("branch",) + axes))
    _write_run_json(Path(run_dir), args, cfg, graph,
                    {"points": len(branch.points)})
    return 0


def _cmd_template(args) -> int:
    if args.action == "list":
        for tag in sorted(TEMPLATES):
            print(tag)
        return 0
    if args.tag not in TEMPLATES:
        raise ConfigError(f"unknown template {args.tag!r}")
    graph = from_template(args.tag)
    info = graph_config(graph)
    info["vertices"] = graph.num_vertices
    info["edges"] = graph.num_edges
    print(json.dumps(info, indent=1))
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qg",
                                description="PDE computations on metric graphs")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON configuration file")
        sp.add_argument("--scheme", choices=["uniform", "chebyshev"],
                        default="uniform")
        sp.add_argument("--out", default="qg_out", help="output directory")
        sp.add_argument("--seed", type=int, default=0)

    for name in ("poisson", "eigs", "secdet", "evolve", "continue"):
        common(sub.add_parser(name))
    tp = sub.add_parser("template")
    tp.add_argument("action", choices=["list", "show"])
    tp.add_argument("tag", nargs="?")

    return p


_COMMANDS = {
    "poisson": _cmd_poisson,
    "eigs": _cmd_eigs,
    "secdet": _cmd_secdet,
    "evolve": _cmd_evolve,
    "continue": _cmd_continue,
    "template": _cmd_template,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, GraphError, KeyError) as exc:
        print(f"qg {args.command}: configuration error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"qg {args.command}: {exc}", file=sys.stderr)
        return 1
    except (TypeError, ValueError) as exc:
        print(f"qg {args.command}: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver-level failure
        print(f"qg {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
