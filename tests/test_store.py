import ast
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import graphpde.continuation as cont
import graphpde.store as store
from graphpde import discretize, from_template, make_context, nls_problem
from graphpde.discretize import save_scalar_csv


def test_continuation_binds_the_store_objects():
    # perfbench/workloads.py calls create_run and save_eigenfunctions on continuation
    for name in ("create_run", "save_eigenfunctions", "save_standing_wave", "save_branch",
                 "check_run_layout", "bundle_hash", "list_branches", "bifurcation_diagram",
                 "DIAGRAM_AXES", "ContinuationError", "StaleLayoutError"):
        assert getattr(cont, name) is getattr(store, name), name


def test_store_sits_below_continuation():
    tree = ast.parse(Path(store.__file__).read_text())
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert local == {"discretize", "graphs", "stationary"}
    src = str(Path(store.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", "import graphpde.store"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_save_branch_writes_each_staged_file_once(tmp_path, monkeypatch):
    b = discretize(from_template("dumbbell"), "uniform")
    sys_ = cont.nls_system(nls_problem(b), make_context(b))
    run = store.create_run(tmp_path, "dumbbell", b)
    store.save_eigenfunctions(run, b, 2)
    opts = cont.ContinuationOptions(ds=0.05, max_points=8, verbose_flag=False, save_flag=False)
    branch = cont.continue_from_eig(run, sys_, 1, 1e-2, opts)

    renames = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda *a: renames.append(a) or real_replace(*a))
    bid = store.save_branch(run, branch, b)
    monkeypatch.undo()
    bdir = run / f"branch{bid:03d}"
    assert renames == [(bdir.with_name(bdir.name + ".stage"), bdir)]
    assert sorted(p.name for p in run.iterdir() if p.name.startswith("branch")) == [bdir.name]
    assert not [p for p in bdir.iterdir() if p.suffix == ".tmp"]

    # the same bytes as the atomic writers give
    fields = {"lambda": "lam", "mass": "mass", "energy": "energy", "biftype": "bif_type",
              "lambda_dot": "tangent_lam"}
    for name, attr in fields.items():
        save_scalar_csv(tmp_path / f"{name}.csv", [getattr(p, attr) for p in branch.points])
        assert (bdir / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.csv").read_bytes()
    assert (bdir / "options.json").read_text() == json.dumps(asdict(opts), indent=1)
    assert (bdir / "provenance.json").read_text() == json.dumps(branch.provenance, indent=1)
