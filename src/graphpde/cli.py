"""Command-line front end: graph configs in, reproducible data artifacts out.

    qg poisson  --config cfg.json --scheme uniform --out results/
    qg eigs     --config cfg.json --out results/
    qg secdet   --config cfg.json --out results/
    qg evolve   --config cfg.json --out results/
    qg continue --config cfg.json --out data/
    qg template list | show TAG

A command reads only its keys in _COMMANDS, by expressions.read_table, and
compiles its edge expressions before any output: an unknown or ill-typed value
exits with code 2.  A config names a template or lists edges, never both.

Every output file is written by graphpde.store, atomically, and the first one
creates --out.  A command returns the directory of its run record and the
entries it adds to it; main writes that run.json.

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import continuation as cont
from . import evolution as evo
from . import stationary, store
from .discretize import apply_function_to_edges, discretize
from .expressions import INTEGERS, MU, NUMBER_LIST, NUMBERS, ROBIN, UNBOUNDED, ConfigError, \
    compile_edge_expressions, read_table
from .functionals import make_context
from .graphs import GraphError, MetricGraph, TEMPLATES, build_graph, from_template, \
    graph_config, graph_hash


def graph_from_config(cfg: dict) -> MetricGraph:
    """Build a graph from a JSON config: a template reference or edge lists, not both."""
    named, listed = cfg.keys() & {"template", "overrides"}, cfg.keys() & _EDGE_KEYS
    if named and listed:
        raise ConfigError(f"config: {min(named)!r} excludes the edge keys {sorted(listed)}")
    g = read_table({key: cfg[key] for key in cfg.keys() & _GRAPH.keys()}, _GRAPH, "config")
    if "template" in cfg:
        # the template's own keys; from_template names an unknown template
        keys = _OVERRIDES.get(g["template"], _GRAPH["overrides"])
        overrides = read_table(cfg.get("overrides", {}), keys, "config.overrides")
        return from_template(g["template"], **{k: v for k, v in overrides.items() if v is not None})
    for key in ("source", "target", "length"):
        if key not in cfg:
            raise ConfigError(f"config: an edge-list graph needs the {key!r} key")
    potentials = compile_edge_expressions(g["potential"], len(g["source"]), "config.potential")
    if potentials is not None:  # build_graph reads a numeric 0 as no potential
        potentials = [p if p == 0 else f for p, f in zip(g["potential"], potentials)]
    return build_graph(g["source"], g["target"], g["length"], weights=g["weight"],
                       robin_coeffs=g["robin"], nx=g["nx"], potentials=potentials)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# commands

def _cmd_poisson(args, raw, cfg, graph) -> tuple[Path, dict]:
    bundle = discretize(graph, args.scheme)
    edge_data, exact = (compile_edge_expressions(cfg[key], graph.num_edges, f"config.{key}")
                        for key in ("edge_data", "exact"))
    f = None if edge_data is None else apply_function_to_edges(bundle, edge_data)
    psi = stationary.solve_poisson(bundle, f, cfg["node_data"])
    store.save_state_csv(bundle, psi, args.out / "solution.csv")
    extra = {}
    if exact is not None:
        err = np.abs(psi - apply_function_to_edges(bundle, exact))
        per_edge = {str(m): float(np.max(err[bundle.edge_slice(m)]))
                    for m in range(1, graph.num_edges + 1)}
        report = {"max_error": float(np.max(err)), "per_edge": per_edge}
        store.write_json(args.out / "error_report.json", report)
        extra["max_error"] = report["max_error"]
    return args.out, extra


def _cmd_eigs(args, raw, cfg, graph) -> tuple[Path, dict]:
    bundle = discretize(graph, args.scheme)
    if not 1 <= cfg["m"] <= bundle.n_int:  # the pencil's finite eigenvalues
        raise ConfigError(f"config: 'm' must be at least 1 and at most {bundle.n_int} "
                          f"on this grid, got {cfg['m']}")
    lam, vecs = stationary.eigs(bundle, cfg["m"], sigma=cfg["shift"])
    residuals = [float(np.linalg.norm(bundle.lap_vc @ v - lam_j * (bundle.interp_zero @ v)))
                 for lam_j, v in zip(lam, vecs.T)]
    store.save_state_csv(bundle, vecs, [args.out / f"eigenvector_{j:03d}.csv"
                                        for j in range(1, cfg["m"] + 1)])
    spectrum = {
        "scheme": args.scheme,
        "eigenvalues": [float(np.real(v)) for v in lam],
        "k": [float(math.sqrt(max(-np.real(v), 0.0))) for v in lam],
        "residuals": residuals,
    }
    store.write_json(args.out / "spectrum.json", spectrum)
    return args.out, {}


def _cmd_secdet(args, raw, cfg, graph) -> tuple[Path, dict]:
    k_max, samples = cfg["k_max"], cfg["samples"]
    if k_max <= 0:
        raise ConfigError(f"config.k_max must be positive, got {k_max}")
    if samples < 1:
        raise ConfigError(f"config.samples must be at least 1, got {samples}")
    sigma = stationary.secular_function(graph)
    zeros = stationary.find_spectrum_secular(graph, k_max)
    ks = np.linspace(k_max / samples, k_max, samples)
    store.save_scalar_csv(args.out / "sigma.csv", np.column_stack([ks, sigma(ks)]),
                          header="k,sigma")
    # scale-free: |Sigma| grows like e^{|E|}, sigma_min / sigma_max does not
    sv = stationary.secular_singular_values(graph, [k for k, _ in zeros])
    residuals = sv[:, -1] / sv[:, 0]
    payload = [{"k": k, "lambda": -k * k, "multiplicity": mult,
                "scheme": "secular", "residual": float(res)}
               for (k, mult), res in zip(zeros, residuals)]
    store.write_json(args.out / "zeros.json", payload)
    return args.out, {}


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


def _cmd_evolve(args, raw, cfg, graph) -> tuple[Path, dict]:
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
    init = compile_edge_expressions(ev["initial"], graph.num_edges, "config.evolution.initial")
    if init is None:
        raise ConfigError("config.evolution: 'initial' edge expressions are required")
    try:
        problem = evo.EvolutionProblem(
            bundle, mu=1.0 if ev["mu"] is None else ev["mu"], f=None if leapfrog else f,
            tau=ev["tau"], t_final=ev["t_final"], n_skip=ev["n_skip"])
    except evo.EvolutionError as exc:
        raise ConfigError(f"config.evolution: {exc}") from exc
    u0 = apply_function_to_edges(bundle, init)
    if leapfrog:
        vel = compile_edge_expressions(ev["initial_velocity"], graph.num_edges,
                                       "config.evolution.initial_velocity")
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

    store.save_scalar_csv(args.out / "times.csv", times)
    store.save_state_csv(bundle, states, [args.out / f"state_{j:04d}.csv"
                                          for j in range(states.shape[1])])
    store.save_scalar_csv(args.out / "conservation.csv",
                          np.column_stack([table[n] for n in names]), header=",".join(names))
    return args.out, {"evolution_scheme": scheme}


def _cmd_continue(args, raw, cfg, graph) -> tuple[Path, dict]:
    if "continue" not in raw:
        raise ConfigError("config needs a 'continue' table")
    bundle = discretize(graph, args.scheme)
    cc = cfg["continue"]
    opts = cont.ContinuationOptions(**{k: v for k, v in cc["options"].items() if v is not None})
    try:
        problem = stationary.nls_problem(bundle, sigma=cc["sigma"])
    except ValueError as exc:  # a negative sigma, refused before any output
        raise ConfigError(f"config.continue: 'sigma': {exc}") from exc
    sys_ = cont.nls_system(problem, make_context(bundle))
    start, axes = cc["from"], tuple(cc["axes"])
    # checked before any output: the start's keys, the amplitude, the index, the
    # sign and the count
    needs = {"branch_point": ("branch", "point", "run_dir"), "saved": ("name", "run_dir"),
             "end": ("branch", "run_dir")}
    missing = [key for key in needs.get(start, ()) if cc[key] is None]
    if missing:
        raise ConfigError(f"config.continue: from {start!r} needs the {missing[0]!r} key")
    amplitude = 1e-2 if cc["amplitude"] is None else cc["amplitude"]
    if amplitude == 0.0 or not math.isfinite(amplitude):
        raise ConfigError(f"config.continue.amplitude must be finite and nonzero, got {amplitude}")
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
    run_dir = cc["run_dir"]
    if run_dir is None:
        run_dir = store.create_run(args.out, cfg["template"] or "graph", bundle)
    elif not store.is_run(run_dir):
        raise ConfigError(f"config.continue: 'run_dir' must be a run directory, got {run_dir!r}")
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
    return Path(run_dir), {"points": len(branch.points)}


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
        sp.add_argument("--out", type=Path, default=Path("qg_out"), help="output directory")
        sp.add_argument("--seed", type=int, default=0)

    for name in _COMMANDS:
        common(sub.add_parser(name))
    tp = sub.add_parser("template")
    tp.add_argument("action", choices=["list", "show"])
    tp.add_argument("tag", nargs="?")

    return p


# the keys of an explicit graph; a template's own are "template" and "overrides",
# whose keys are the parameters of the templates (an int default takes an int)
_EDGE_KEYS = {"source": INTEGERS, "target": INTEGERS, "length": NUMBERS, "weight": NUMBERS,
              "robin": ROBIN, "nx": NUMBERS, "potential": list}
_OVERRIDES = {tag: {key: ROBIN if key == "robin" else int if type(p.default) is int else NUMBERS
                    for key, p in inspect.signature(build).parameters.items()}
              for tag, build in TEMPLATES.items()}
_GRAPH = {"template": str, "overrides": {key: kind for keys in _OVERRIDES.values()
                                         for key, kind in keys.items()}, **_EDGE_KEYS}

# each command, and its keys and defaults for read_table (a list holds per-edge expressions)
_COMMANDS = {
    "poisson": (_cmd_poisson, {**_GRAPH, "edge_data": list, "node_data": NUMBERS, "exact": list}),
    "eigs": (_cmd_eigs, {**_GRAPH, "m": 4, "shift": 1e-2}),
    "secdet": (_cmd_secdet, {**_GRAPH, "k_max": 2.0 * math.pi, "samples": 800}),
    "evolve": (_cmd_evolve, {**_GRAPH, "evolution": {
        "scheme": (None, tuple(_EVOLUTION)), "initial": list,
        "initial_velocity": list, "mu": MU, "nonlinearity": str, "tau": 1e-2,
        "t_final": 1.0, "n_skip": 1, "conserve": (["mass"], evo.QUANTITIES), "sigma": 1.0,
        "momentum_orientation": NUMBER_LIST}}),
    "continue": (_cmd_continue, {**_GRAPH, "continue": {
        "from": ("eig", ("eig", "branch_point", "saved", "end")), "run_dir": str,
        # +-Infinity turns a threshold off; an infinite amplitude gets its own refusal
        "options": {f.name: UNBOUNDED if f.name.endswith("_thresh") else f.default
                    for f in dataclasses.fields(cont.ContinuationOptions)},
        "sigma": 1.0, "axes": (["lambda", "mass"], store.DIAGRAM_AXES), "index": 1,
        "n_eigenfunctions": int, "amplitude": UNBOUNDED, "branch": int, "point": int, "sign": 1,
        "name": str, "direction": -1.0}}),
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
        command, schema = _COMMANDS[args.command]
        cfg = read_table(raw, schema, "config")
        graph = graph_from_config(raw)
        out, extra = command(args, raw, cfg, graph)
        run = {"command": args.command, "scheme": args.scheme, "seed": args.seed,
               "graph_hash": graph_hash(graph), "config": raw, **extra}
        store.write_json(out / "run.json", run, sort_keys=True)
        return 0
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
