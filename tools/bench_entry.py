"""Build a BENCH_<n>.json trajectory entry from perfbench reports, or diff two.

    python3 tools/bench_entry.py build BENCH_2.json --label TEXT REPORT.json ...
    python3 tools/bench_entry.py diff BENCH_1.json BENCH_2.json

The reports are the .perfbench/report-*.json files that perfbench/run.py
writes, one per run, copied aside after each run (the next run of the same
workload and trace setting overwrites its file).  `build` groups them by
workload.  The untraced runs give each end-to-end metric's median and
quartiles over the runs, every run's value, the failed operations, the
per-operation `op_margin_digits` of the first run and every probe reading.
A traced run gives the per-layer metrics.  `diff` prints per workload each
end-to-end median, and each per-layer value, that differs between two
entries, with the relative change.
"""
import argparse
import json
import statistics
import sys


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def build(out, label, paths):
    workloads, env = {}, None
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        env = env or report["environment"]
        entry = workloads.setdefault(report["workload"], {"untraced": [], "traced": []})
        entry["untraced" if report["trace"] == 0 else "traced"].append(report)
    result = {"label": label, "src_lines": env["src_lines"], "environment": env,
              "workloads": {}}
    for name, entry in sorted(workloads.items()):
        runs, traced = entry["untraced"], entry["traced"]
        w = {"seed": runs[0]["seed"], "runs": len(runs),
             "passes_per_run": [r["passes"] for r in runs],
             "failed_operations": sorted({op for r in runs + traced
                                          for op in r["failed_operations"]}),
             "problems": sorted({p for r in runs + traced for p in r["problems"]}),
             "end_to_end": {}}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = _quartiles(values)
            w["end_to_end"][metric] = {"median": median, "q1": q1, "q3": q3,
                                       "unit": first["unit"], "runs": values}
        w["op_margin_digits"] = runs[0]["op_margin_digits"]
        w["probe_s"] = [r["probe_s"] for r in runs]
        if traced:
            w["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        result["workloads"][name] = w
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


def diff(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    print(f"src_lines: {old['src_lines']} -> {new['src_lines']}")
    for name, w_new in new["workloads"].items():
        w_old = old["workloads"].get(name)
        if w_old is None:
            print(f"{name}: new workload")
            continue
        print(f"{name}:")
        pairs = [(m, w_old["end_to_end"][m]["median"], v["median"])
                 for m, v in w_new["end_to_end"].items() if m in w_old["end_to_end"]]
        pairs += [(m, w_old.get("per_layer", {})[m], v)
                  for m, v in w_new.get("per_layer", {}).items()
                  if m in w_old.get("per_layer", {})]
        for metric, a, b in pairs:
            if a != b:
                rel = f" ({(b - a) / a:+.1%})" if a else ""
                print(f"  {metric}: {a:.6g} -> {b:.6g}{rel}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build")
    b.add_argument("out")
    b.add_argument("--label", required=True)
    b.add_argument("reports", nargs="+")
    d = sub.add_parser("diff")
    d.add_argument("old")
    d.add_argument("new")
    args = ap.parse_args(argv)
    if args.command == "build":
        build(args.out, args.label, args.reports)
    else:
        diff(args.old, args.new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
