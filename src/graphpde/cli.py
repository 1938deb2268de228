"""Command-line front end: graph configs in, reproducible data artifacts out.

    qg poisson  --config cfg.json --scheme uniform --out results/
    qg eigs     --config cfg.json --out results/
    qg secdet   --config cfg.json --out results/
    qg evolve   --config cfg.json --out results/
    qg continue --config cfg.json --out data/
    qg template list | show TAG

A command reads only the keys of its table in _SCHEMAS, and an unknown or
ill-typed key exits with code 2 before anything is written.  A config names
a template or lists edges, never both.

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import continuation as cont
from . import evolution as evo
from . import stationary, store
from .discretize import (apply_function_to_edges, discretize, save_scalar_csv,
                         save_state_csv)
from .expressions import ConfigError, compile_edge_expressions
from .functionals import make_context
from .graphs import DIRICHLET, GraphError, MetricGraph, TEMPLATES, build_graph, \
    from_template, graph_config, graph_hash


def _robin(value):
    """A config's robin, a number or a list, with each "dirichlet" read as DIRICHLET."""
    if isinstance(value, list):
        return [_robin(v) for v in value]
    if isinstance(value, str):
        return DIRICHLET if value.lower() == "dirichlet" else float(value)
    return value


def graph_from_config(cfg: dict) -> MetricGraph:
    """Build a graph from a JSON config: a template reference or edge lists, not both."""
    named, listed = cfg.keys() & {"template", "overrides"}, cfg.keys() & _EDGE_KEYS
    if named and listed:
        raise ConfigError(f"config: {min(named)!r} excludes the edge keys {sorted(listed)}")
    if "template" in cfg:
        overrides = {key: _robin(v) if key == "robin" else v
                     for key, v in cfg.get("overrides", {}).items()}
        return from_template(cfg["template"], **overrides)
    for key in ("source", "target", "length"):
        if key not in cfg:
            raise ConfigError(f"graph config is missing the {key!r} key")
    potentials = compile_edge_expressions(cfg.get("potential"), len(cfg["source"]))
    return build_graph(cfg["source"], cfg["target"], cfg["length"],
                       weights=cfg.get("weight"), robin_coeffs=_robin(cfg.get("robin")),
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


def _typed(value, kind, key: str, where: str):
    """value as kind; an int key takes an integral float, and no number key a bool."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number or kind is int and number and value % 1 == 0:
        return kind(value)
    if kind not in (int, float) and isinstance(value, kind):
        return value
    what = {list: "a list", dict: "a table"}.get(kind, kind.__name__)
    raise ConfigError(f"{where}: {key!r} must be {what}, got {value!r}")


def _read(table, schema: dict, where: str) -> dict:
    """table checked against schema (see _SCHEMAS), with every absent key at its default."""
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must be a table, got {table!r}")
    unknown = sorted(table.keys() - schema.keys())
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    cfg = {}
    for key, default in schema.items():
        if isinstance(default, dict):
            cfg[key] = _read(table.get(key, {}), default, f"{where}.{key}")
        elif isinstance(default, tuple):
            default, choices = default
            cfg[key] = table.get(key, default)
            many = isinstance(default, list)
            for entry in _typed(cfg[key], list, key, where) if many else [cfg[key]]:
                if entry not in choices:
                    raise ConfigError(f"{where}: {key!r} takes one of {choices}, got {entry!r}")
        elif key not in table:
            cfg[key] = None if isinstance(default, type) else default
        else:
            kind = default if isinstance(default, type) else type(default)
            cfg[key] = _typed(table[key], kind, key, where)
    return cfg


# ---------------------------------------------------------------------------
# commands

def _cmd_poisson(args, raw, cfg, graph) -> int:
    bundle = discretize(graph, args.scheme)
    edge_data, exact = (compile_edge_expressions(cfg[key], graph.num_edges)
                        for key in ("edge_data", "exact"))
    f = None if edge_data is None else apply_function_to_edges(bundle, edge_data)
    psi = stationary.solve_poisson(bundle, f, cfg["node_data"])
    out = _out_dir(args)
    save_state_csv(bundle, psi, out / "solution.csv")
    extra = {}
    if exact is not None:
        err = np.abs(psi - apply_function_to_edges(bundle, exact))
        per_edge = {str(m): float(np.max(err[bundle.edge_slice(m)]))
                    for m in range(1, graph.num_edges + 1)}
        report = {"max_error": float(np.max(err)), "per_edge": per_edge}
        (out / "error_report.json").write_text(json.dumps(report, indent=1))
        extra["max_error"] = report["max_error"]
    _write_run_json(out, args, raw, graph, extra)
    return 0


def _cmd_eigs(args, raw, cfg, graph) -> int:
    bundle = discretize(graph, args.scheme)
    lam, vecs = stationary.eigs(bundle, cfg["m"], sigma=cfg["shift"])
    out = _out_dir(args)
    residuals = []
    for j in range(cfg["m"]):
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
    _write_run_json(out, args, raw, graph)
    return 0


def _cmd_secdet(args, raw, cfg, graph) -> int:
    k_max, samples = cfg["k_max"], cfg["samples"]
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
    _write_run_json(out, args, raw, graph)
    return 0


_NLS_NONLINEARITIES = {"none": None, "nls_cubic": lambda z: -2j * np.abs(z) ** 2 * z}

# scheme -> (stepper, its nonlinearities by name with the default first, the
# evolution key it does not read).  An implicit stepper takes its nonlinearity
# as the problem's f and reads mu; leapfrog takes it as the g of
# psi_tt = Lap(psi) - g(psi) and reads initial_velocity.
_EVOLUTION = {
    "crank_nicolson": (evo.crank_nicolson_heat, {"none": None}, "initial_velocity"),
    "imex_euler": (evo.imex_euler, _NLS_NONLINEARITIES, "initial_velocity"),
    "sdirk443": (evo.sdirk443, _NLS_NONLINEARITIES, "initial_velocity"),
    "leapfrog": (evo.leapfrog_klein_gordon,
                 {"sine_gordon": np.sin, "none": lambda u: 0.0 * u}, "mu"),
}


def _cmd_evolve(args, raw, cfg, graph) -> int:
    bundle = discretize(graph, args.scheme)
    ev = cfg["evolution"]
    scheme = ev["scheme"]
    stepper, nonlinearities, unread = _EVOLUTION[scheme]
    if ev[unread] is not None:
        raise ConfigError(f"config.evolution: {scheme} does not read {unread!r}")
    name = next(iter(nonlinearities)) if ev["nonlinearity"] is None else ev["nonlinearity"]
    if name not in nonlinearities:
        raise ConfigError(f"config.evolution: 'nonlinearity' of {scheme} takes one of "
                          f"{tuple(nonlinearities)}, got {name!r}")
    f, leapfrog = nonlinearities[name], scheme == "leapfrog"
    mu = 1.0 if ev["mu"] is None else ev["mu"]
    parts = mu if isinstance(mu, list) and len(mu) == 2 else [mu]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ConfigError("config.evolution: 'mu' must be a number or a list of two numbers, "
                          f"got {mu!r}")
    mu = complex(*parts) if isinstance(mu, list) else mu
    init = compile_edge_expressions(ev["initial"], graph.num_edges)
    if init is None:
        raise ConfigError("config.evolution: 'initial' edge expressions are required")
    try:
        problem = evo.EvolutionProblem(
            bundle, mu=mu, f=None if leapfrog else f,
            tau=ev["tau"], t_final=ev["t_final"], n_skip=ev["n_skip"])
    except evo.EvolutionError as exc:
        raise ConfigError(f"config.evolution: {exc}") from exc
    u0 = apply_function_to_edges(bundle, init)
    if leapfrog:
        vel = compile_edge_expressions(ev["initial_velocity"], graph.num_edges)
        if vel is None:
            raise ConfigError("config.evolution: leapfrog needs 'initial_velocity' "
                              "edge expressions")
        times, states = stepper(problem, f, u0, apply_function_to_edges(bundle, vel))
    else:
        times, states = stepper(problem, u0)
    table = evo.conservation_trace(
        make_context(bundle), times, states, ev["conserve"], sigma=ev["sigma"],
        momentum_orientations=ev["momentum_orientation"])
    names = ["times"] + [n for q in ev["conserve"] for n in (q, q + "_drift")]

    out = _out_dir(args)
    save_scalar_csv(out / "times.csv", times)
    for j in range(states.shape[1]):
        save_state_csv(bundle, states[:, j], out / f"state_{j:04d}.csv")
    save_scalar_csv(out / "conservation.csv", np.column_stack([table[n] for n in names]),
                    header=",".join(names))
    _write_run_json(out, args, raw, graph, {"evolution_scheme": scheme})
    return 0


def _cmd_continue(args, raw, cfg, graph) -> int:
    if "continue" not in raw:
        raise ConfigError("config needs a 'continue' table")
    bundle = discretize(graph, args.scheme)
    cc = cfg["continue"]
    opts = cont.ContinuationOptions(**cc["options"])
    problem = stationary.nls_problem(bundle, sigma=cc["sigma"])
    sys_ = cont.nls_system(problem, make_context(bundle))
    start, axes = cc["from"], tuple(cc["axes"])
    # checked before any output: the start's keys, the amplitude, the index, the
    # sign and the count
    needs = {"branch_point": ("branch", "point"), "saved": ("name",), "end": ("branch",)}
    missing = [key for key in needs.get(start, ()) if cc[key] is None]
    if missing:
        raise ConfigError(f"continuation from {start!r} needs the {missing[0]!r} key")
    amplitude = cc["amplitude"]
    if amplitude == 0.0 or not math.isfinite(amplitude):
        raise ConfigError(f"amplitude must be finite and nonzero, got {amplitude}")
    index, count = cc["index"], cc["n_eigenfunctions"]
    if index < 1 or count is not None and index > count:
        raise ConfigError("config.continue: 'index' must be at least 1 and at most "
                          f"'n_eigenfunctions', got {index}")
    if cc["sign"] not in (1, -1):
        raise ConfigError(f"config.continue: 'sign' must be 1 or -1, got {cc['sign']}")
    count = max(6, index + 2) if count is None else count
    if count > bundle.n_int:  # the pencil's finite eigenvalues, one per interior point
        raise ConfigError("config.continue: 'n_eigenfunctions' (default max(6, index + 2)) "
                          f"must be at most {bundle.n_int} on this grid, got {count}")
    if cc["run_dir"] is not None:
        run_dir = Path(cc["run_dir"])
    else:
        run_dir = store.create_run(_out_dir(args), cfg["template"] or "graph", bundle)
    if start == "eig":
        if not store.eigenfunctions_saved(run_dir):
            store.save_eigenfunctions(run_dir, bundle, count)
        branch = cont.continue_from_eig(run_dir, sys_, index, amplitude, opts)
    elif start == "branch_point":
        branch = cont.continue_from_branch_point(run_dir, sys_, cc["branch"], cc["point"],
                                                 cc["sign"], opts)
    elif start == "saved":
        branch = cont.continue_from_saved(run_dir, sys_, cc["name"], opts,
                                          direction=cc["direction"])
    else:
        branch = cont.continue_from_end(run_dir, sys_, cc["branch"], opts)

    store.save_diagram(run_dir, axes)
    _write_run_json(Path(run_dir), args, raw, graph, {"points": len(branch.points)})
    return 0


def _cmd_template(args) -> int:
    if args.action == "list":
        for tag in sorted(TEMPLATES):
            print(tag)
        return 0
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


# the keys of an explicit graph; a template's own are "template" and "overrides"
_EDGE_KEYS = {"source": list, "target": list, "length": object, "weight": object,
              "robin": object, "nx": object, "potential": list}
_GRAPH = {"template": str, "overrides": dict, **_EDGE_KEYS}

# Each command's keys and their defaults.  The default gives the kind: a number,
# bool, string or list takes only that type, and an int no fractional number.
# A type means that type, None when absent; a dict is a nested table; a pair
# (default, choices) takes one of choices, or a list of them if default is one.
_SCHEMAS = {
    "poisson": {**_GRAPH, "edge_data": list, "node_data": object, "exact": list},
    "eigs": {**_GRAPH, "m": 4, "shift": 1e-2},
    "secdet": {**_GRAPH, "k_max": 2.0 * math.pi, "samples": 800},
    "evolve": {**_GRAPH, "evolution": {
        "scheme": (None, tuple(_EVOLUTION)), "initial": list,
        "initial_velocity": list, "mu": object, "nonlinearity": str, "tau": 1e-2,
        "t_final": 1.0, "n_skip": 1, "conserve": (["mass"], evo.QUANTITIES), "sigma": 1.0,
        "momentum_orientation": list}},
    "continue": {**_GRAPH, "continue": {
        "from": ("eig", ("eig", "branch_point", "saved", "end")), "run_dir": str,
        "options": {f.name: f.default for f in dataclasses.fields(cont.ContinuationOptions)},
        "sigma": 1.0, "axes": (["lambda", "mass"], store.DIAGRAM_AXES), "index": 1,
        "n_eigenfunctions": int, "amplitude": 1e-2, "branch": int, "point": int, "sign": 1,
        "name": str, "direction": -1.0}},
}

_COMMANDS = {
    "poisson": _cmd_poisson,
    "eigs": _cmd_eigs,
    "secdet": _cmd_secdet,
    "evolve": _cmd_evolve,
    "continue": _cmd_continue,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "template":
            return _cmd_template(args)
        raw = _load_config(args.config)
        cfg = _read(raw, _SCHEMAS[args.command], "config")
        return _COMMANDS[args.command](args, raw, cfg, graph_from_config(raw))
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught before the next clause
        print(f"qg {args.command}: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError, GraphError among them
        print(f"qg {args.command}: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver-level failure
        print(f"qg {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
