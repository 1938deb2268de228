"""graphpde benchmark: three closed-loop workloads, checked outputs, one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gallery-solve --seed 1 --seconds 40 --trace 0

One caller in one process runs passes of the workload back to back (a
closed loop: each library call starts after the previous one returned)
with the BLAS pinned to BLAS_THREADS threads.  An untimed warm-up pass comes
first; timed passes follow while another one still fits in ``--seconds``
(counted from the start of the warm-up), and at least MIN_PASSES times.
Every pass checks every output.

``--trace 0`` prints the end-to-end metrics.  A machine-speed probe (see
``probe.py``) runs before the first timed pass and after each one; each
pass's times are rescaled to the reference machine's speed by the probe
readings on either side of it, and the run reports their medians over the
passes.  The raw medians and the probe readings go to the report file.
``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics of the traced ones plus the tracing overhead, and checks that every
count repeats exactly for two passes of the seed and for one pass of the
next seed.  Spans are written to ``.perfbench/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is the
number of operations in a pass (``ops_total``); ``failed`` counts those that
raised, returned a wrong answer or failed a check in any pass, so
``fail_ratio`` = failed / attempted.  ``correct`` is false when the run
itself cannot be trusted: passes that disagree on what they did, or counts
that change with the seed.
"""
from __future__ import annotations

import os

# must precede the first numpy import
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

from probe import PROBE_REF_S, Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_PASSES = 3          # timed passes with --trace 0
MIN_TRACED_PASSES = 2   # traced and untraced passes each with --trace 1


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _environment() -> dict:
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = ""
    try:
        info = np.show_config(mode="dicts")
        blas = " ".join(str(info["Build Dependencies"]["blas"].get(k, ""))
                        for k in ("name", "version"))
    except (TypeError, KeyError):
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "graphpde").glob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "cpu": cpu, "blas_threads": BLAS_THREADS, "src_lines": src_lines}


class Pass:
    """Timings, operation outcomes and extras of one pass."""

    def __init__(self, phases, ops, extras, spans=None):
        self.setup_s = phases.setup_s
        self.solve_s = phases.solve_s
        self.wall_s = phases.setup_s + phases.solve_s
        self.ops = ops.ops
        self.extras = extras
        self.spans = spans


def _one_pass(run_pass, inputs, workdir, tracer=None) -> Pass:
    from workloads import OpLog, Phases

    ph, ops = Phases(), OpLog()
    passdir = workdir / "pass"
    passdir.mkdir(parents=True)
    if tracer is not None:
        tracer.install()
    try:
        extras = run_pass(inputs, ph, ops, passdir)
    finally:
        spans = None
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.take()
        shutil.rmtree(passdir, ignore_errors=True)
        # free this pass's cycles now rather than inside the next pass's timing
        gc.collect()
    return Pass(ph, ops, extras, spans)


def _fits(rounds, deadline) -> bool:
    """Whether one more round, as long as the typical one so far, ends in time."""
    return time.perf_counter() + statistics.median(rounds) <= deadline


def _at_ref_speed(seconds, probes) -> float:
    """Median over passes of a pass's time at the reference machine's speed.

    Pass i ran between probe readings i and i + 1; its time is scaled by
    PROBE_REF_S over their mean.
    """
    return statistics.median(t * 2 * PROBE_REF_S / (before + after)
                             for t, before, after in zip(seconds, probes, probes[1:]))


def _end_to_end(passes, probes, all_passes) -> dict:
    margins = [m for p in all_passes for op in p.ops if op.ok for m in op.margins]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (_at_ref_speed([p.wall_s for p in passes], probes), "s"),
        "setup_s": (_at_ref_speed([p.setup_s for p in passes], probes), "s"),
        "solve_s": (_at_ref_speed([p.solve_s for p in passes], probes), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "accuracy_margin_digits": (min(margins, default=0.0), "digits"),
    }


def _pass_layer(p: Pass, installed) -> dict:
    from tracing import layer_metrics

    extras = dict(p.extras)
    extras["secular_failed"] = sum(1 for op in p.ops if op.layer == "secular" and not op.ok)
    return layer_metrics(p.spans, installed, extras)


def _layer(traced, untraced, per_pass) -> dict:
    """Counts of the first traced pass, medians of the times, tracing overhead."""
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median([m[name][0] for m in per_pass])
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median([p.wall_s for p in traced])
                                   - statistics.median([p.wall_s for p in untraced]), "s")
    return metrics


def _counts(layer: dict, ops_total: int) -> dict:
    counts = {k: v for k, (v, unit) in layer.items() if unit == "count"}
    counts["ops_total"] = ops_total
    return counts


def _count_problems(per_pass, traced, other_seed, installed) -> list[str]:
    """Every count must repeat for two passes of the seed and for the next seed."""
    reference = _counts(per_pass[0], len(traced[0].ops))
    problems = []
    if any(_counts(m, len(p.ops)) != reference for m, p in zip(per_pass[1:], traced[1:])):
        problems.append("count metrics differ between two passes of the same seed")
    if _counts(_pass_layer(other_seed, installed), len(other_seed.ops)) != reference:
        problems.append("count metrics differ for the next seed")
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "graphpde" / "__init__.py").is_file():
        print(f"perfbench: no graphpde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")   # e.g. initial states off the vertex conditions

    from tracing import Tracer, bundle_sizes, layer_self_times, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, run_pass = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    problems = []
    timed, traced, probes = [], [], []
    deadline = time.perf_counter() + args.seconds
    try:
        t0 = time.perf_counter()
        warm = _one_pass(run_pass, inputs, workdir)
        if args.trace == 0:
            probe = Probe()
            rounds = [time.perf_counter() - t0]
            probes.append(probe.measure())
            while len(timed) < MIN_PASSES or _fits(rounds, deadline):
                t0 = time.perf_counter()
                timed.append(_one_pass(run_pass, inputs, workdir))
                probes.append(probe.measure())
                rounds.append(time.perf_counter() - t0)
        else:
            tracer = Tracer()
            rounds = [2 * (time.perf_counter() - t0)]
            while len(traced) < MIN_TRACED_PASSES or _fits(rounds, deadline):
                t0 = time.perf_counter()
                timed.append(_one_pass(run_pass, inputs, workdir))
                traced.append(_one_pass(run_pass, inputs, workdir, tracer))
                rounds.append(time.perf_counter() - t0)
            other_seed = _one_pass(run_pass, make_inputs(args.seed + 1), workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_passes = [warm] + timed + traced
    op_names = [op.name for op in warm.ops]
    for p in all_passes:
        if [op.name for op in p.ops] != op_names:
            problems.append("passes disagree on the operations they ran")
            break
    failed_ops = {}
    for p in all_passes:
        for op in p.ops:
            if not op.ok:
                failed_ops.setdefault(op.name, op.problems)
    attempted, failed = len(op_names), len(failed_ops)

    env = _environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(timed), "environment": env,
              "pass_wall_s": [p.wall_s for p in timed],
              "pass_setup_s": [p.setup_s for p in timed],
              "failed_operations": failed_ops,
              "op_margin_digits": {op.name: min(op.margins, default=None)
                                   for op in warm.ops if op.ok}}
    if args.trace == 0:
        metrics = _end_to_end(timed, probes, all_passes)
        report["probe_s"] = probes
        report["probe_ref_s"] = PROBE_REF_S
        report["raw_median_s"] = {
            "wall_s": statistics.median(report["pass_wall_s"]),
            "setup_s": statistics.median(report["pass_setup_s"]),
            "solve_s": statistics.median([p.solve_s for p in timed])}
    else:
        per_pass = [_pass_layer(p, tracer.installed) for p in traced]
        metrics = _layer(traced, timed, per_pass)
        problems += _count_problems(per_pass, traced, other_seed, tracer.installed)
        report["traced_passes"] = len(traced)
        report["layer_share_of_traced_wall"] = {
            layer: t / traced[0].wall_s
            for layer, t in sorted(layer_self_times(traced[0].spans).items())}
        report["bundles"] = bundle_sizes(traced[0].spans)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    [(f"traced-{i}", p.spans) for i, p in enumerate(traced)]
                    + [("next-seed", other_seed.spans)])
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["problems"] = problems
    (OUT / f"report-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(report, indent=1, default=str))

    for name, problem_list in failed_ops.items():
        print(f"FAILED  {name}: {'; '.join(problem_list)}")
    for problem in problems:
        print(f"SELF-CHECK  {problem}")
    print(f"{args.workload}  seed {args.seed}  passes {len(timed)}"
          + (f" untraced + {len(traced)} traced" if args.trace else "")
          + f"  blas threads {BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if args.trace == 0:
        print(f"  times above are at the reference speed; probe median "
              f"{statistics.median(probes):.4g} s against {PROBE_REF_S} s; raw medians "
              + ", ".join(f"{k} {v:.4g} s" for k, v in report["raw_median_s"].items()))
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} ({failed} of ops_total {attempted})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
