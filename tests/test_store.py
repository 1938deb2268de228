import ast
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import graphpde.continuation as cont
import graphpde.store as store
from graphpde import discretize, from_template, make_context, nls_problem
from graphpde.discretize import save_scalar_csv, save_state_csv


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


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_seeds_load_bitwise_as_float64(tmp_path, scheme):
    b = discretize(from_template("dumbbell"), scheme)
    run = store.create_run(tmp_path, "dumbbell", b)
    lam, vecs = store.save_eigenfunctions(run, b, 4)
    for j in range(4):
        lam_j, v = store.load_eigenfunction(run, b, j + 1)
        assert lam_j == np.real(lam[j])
        assert v.dtype == np.float64 and v.tobytes() == np.real(vecs[:, j]).tobytes()

    wave = np.linspace(-1.0, 1.0, b.n_ext) ** 3
    wave[::7] = -0.0
    complex_wave = wave.astype(complex)
    complex_wave.imag = wave[::-1]  # assigned: a sum would turn -0.0 real parts into +0.0
    for psi in (wave, complex_wave):  # a complex wave keeps its real part
        psi_back, lam_back = store.load_standing_wave(run, b, store.save_standing_wave(
            run, b, psi, -0.75))
        assert psi_back.dtype == np.float64 and psi_back.tobytes() == wave.tobytes()
        assert lam_back == -0.75


def _seed_run(tmp_path):
    b = discretize(from_template("dumbbell"), "uniform")
    run = store.create_run(tmp_path, "dumbbell", b)
    store.save_eigenfunctions(run, b, 3)
    name = store.save_standing_wave(run, b, np.full(b.n_ext, 0.5), -0.5)
    return b, run, name


@pytest.mark.parametrize("path, reshape", [
    ("eigenfunctions/eigenfunctions.npy", lambda a: a.astype(np.float32)),
    ("eigenfunctions/eigenfunctions.npy", lambda a: a.astype(complex)),
    ("eigenfunctions/eigenfunctions.npy", lambda a: a[:-1]),
    ("eigenfunctions/eigenfunctions.npy", lambda a: a[:, :-1]),
    ("saved/wave_001_psi.npy", lambda a: a.astype(np.float32)),
    ("saved/wave_001_psi.npy", lambda a: a.astype(complex)),
    ("saved/wave_001_psi.npy", lambda a: a[:-1]),
    ("saved/wave_001_psi.npy", lambda a: a[None, :]),
], ids=["eig-float32", "eig-complex", "eig-row-short", "eig-column-short",
        "wave-float32", "wave-complex", "wave-short", "wave-2d"])
def test_malformed_seed_arrays_are_refused(tmp_path, path, reshape):
    b, run, name = _seed_run(tmp_path)
    np.save(run / path, reshape(np.load(run / path)))
    read = {"eigenfunctions": lambda: store.load_eigenfunction(run, b, 1),
            "saved": lambda: store.load_standing_wave(run, b, name)}[path.split("/")[0]]
    with pytest.raises(store.StaleLayoutError, match=Path(path).name):
        read()


def test_csv_seeds_of_an_older_run_name_the_missing_npy(tmp_path):
    b, run, name = _seed_run(tmp_path)
    edir, sdir = run / "eigenfunctions", run / "saved"
    # the older layout: one %.17g state CSV per eigenfunction and per saved wave
    for j, row in enumerate(np.load(edir / "eigenfunctions.npy"), start=1):
        save_state_csv(b, row, edir / f"eigenfunction_{j:03d}.csv")
    save_state_csv(b, np.load(sdir / f"{name}_psi.npy"), sdir / f"{name}_psi.csv")
    (edir / "eigenfunctions.npy").unlink()
    (sdir / f"{name}_psi.npy").unlink()
    with pytest.raises(FileNotFoundError, match="eigenfunctions.npy"):
        store.load_eigenfunction(run, b, 1)
    with pytest.raises(FileNotFoundError, match="wave_001_psi.npy"):
        store.load_standing_wave(run, b, name)


def test_a_wave_of_another_length_is_refused_when_saved(tmp_path):
    b, run, name = _seed_run(tmp_path)
    for psi in (np.ones(b.n_ext - 1), np.ones(b.n_ext + 1)):
        with pytest.raises(ValueError, match=str(b.n_ext)):
            store.save_standing_wave(run, b, psi, -0.5)
    assert sorted(f.name for f in (run / "saved").iterdir()) == [f"{name}_lambda.csv",
                                                                  f"{name}_psi.npy"]


def test_scalar_files_parse_bit_for_bit_as_loadtxt_reads_them(tmp_path):
    b = discretize(from_template("dumbbell"), "uniform")
    sys_ = cont.nls_system(nls_problem(b), make_context(b))
    run = store.create_run(tmp_path, "dumbbell", b)
    store.save_eigenfunctions(run, b, 2)
    cont.continue_from_eig(run, sys_, 1, 1e-2, cont.ContinuationOptions(
        ds=0.05, max_points=8, verbose_flag=False))
    column = run / "branch001" / "lambda.csv"
    bits = np.random.default_rng(7).integers(0, 2**63, 4000).view(np.float64)
    save_scalar_csv(tmp_path / "doubles.csv", [-0.0, 5e-324, *bits[np.isfinite(bits)]])
    for path in (column, tmp_path / "doubles.csv"):
        parsed = store._load_scalars(path)
        assert parsed.dtype == np.float64
        assert parsed.tobytes() == np.loadtxt(path, ndmin=1).tobytes(), path
    biftype = store._load_scalars(run / "branch001" / "biftype.csv", int)
    assert biftype.tolist() == np.loadtxt(run / "branch001" / "biftype.csv").tolist()


def test_store_readers_refuse_an_index_or_axis_that_was_not_saved(tmp_path):
    b, run, _ = _seed_run(tmp_path)  # three eigenfunctions
    for index in (0, 4):
        with pytest.raises(store.ContinuationError, match=f"eigenfunction index {index} not"):
            store.load_eigenfunction(run, b, index)
    with pytest.raises(store.ContinuationError, match="unknown axis 'mas'"):
        store.bifurcation_diagram(run, ("lambda", "mas"))
