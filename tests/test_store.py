import ast
import json
import math
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
from graphpde.store import load_state_csv, save_scalar_csv, save_state_csv


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


# calls that write a file: a method of any object, or a function of a module
_WRITING_METHODS = {"write_text", "write_bytes", "mkdir"}
_WRITING_FUNCTIONS = {("np", "save"), ("np", "savetxt"), ("np", "savez"), ("os", "replace"),
                      ("os", "rename"), ("json", "dump")}


def _writes(call: ast.Call) -> bool:
    f = call.func
    if isinstance(f, ast.Attribute):
        owner = f.value.id if isinstance(f.value, ast.Name) else None
        if f.attr in _WRITING_METHODS or (owner, f.attr) in _WRITING_FUNCTIONS:
            return True
    if getattr(f, "attr", getattr(f, "id", None)) != "open":
        return False
    # open(path, mode) or path.open(mode); a mode that is not a literal may write
    at = 0 if isinstance(f, ast.Attribute) else 1
    modes = call.args[at:at + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def test_only_the_store_writes_files():
    writers = {}
    for path in sorted(Path(store.__file__).parent.glob("*.py")):
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and _writes(node)]
        writers[path.name] = [f"line {c.lineno}: {ast.unparse(c.func)}" for c in calls]
    assert writers.pop("store.py")  # the check sees the store's own writes
    assert {name: lines for name, lines in writers.items() if lines} == {}


@pytest.mark.parametrize("source, writes", [
    ("Path(p).write_text(s)", True), ("p.mkdir()", True), ("np.save(p, a)", True),
    ("os.replace(a, b)", True), ("json.dump(x, fh)", True), ("open(p, 'w')", True),
    ("open(p, mode='a')", True), ("p.open('r+')", True), ("open(p, m)", True),
    ("open(p)", False), ("open(p, 'r')", False), ("p.open()", False), ("s.replace(a, b)", False),
    ("json.dumps(x)", False), ("np.load(p)", False)])
def test_the_write_check_tells_writes_from_reads(source, writes):
    assert _writes(ast.parse(source).body[0].value) is writes


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


def test_a_seed_write_that_raises_leaves_the_previous_file_and_no_tmp(tmp_path, monkeypatch):
    b, run, name = _seed_run(tmp_path)
    edir, sdir = run / "eigenfunctions", run / "saved"
    before = {p: p.read_bytes() for d in (edir, sdir) for p in d.iterdir()}

    def partial_save(fh, array, **kwargs):
        fh.write(b"\x93NUMPY")
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", partial_save)
    with pytest.raises(OSError, match="disk full"):
        store.save_eigenfunctions(run, b, 3)
    with pytest.raises(OSError, match="disk full"):
        store.save_standing_wave(run, b, np.full(b.n_ext, 0.25), -0.25)
    monkeypatch.undo()
    assert {p: p.read_bytes() for d in (edir, sdir) for p in d.iterdir()} == before
    assert store.load_standing_wave(run, b, name)[1] == -0.5


def test_eigenfunctions_whose_npy_write_raised_read_as_unsaved(tmp_path, monkeypatch):
    b = discretize(from_template("dumbbell"), "uniform")
    run = store.create_run(tmp_path, "dumbbell", b)

    def failing_save(fh, array, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", failing_save)
    with pytest.raises(OSError, match="disk full"):
        store.save_eigenfunctions(run, b, 3)
    monkeypatch.undo()
    assert not store.eigenfunctions_saved(run)
    lam, vecs = store.save_eigenfunctions(run, b, 3)
    assert store.eigenfunctions_saved(run)
    lam_2, v = store.load_eigenfunction(run, b, 2)
    assert lam_2 == np.real(lam[1]) and v.tobytes() == np.real(vecs[:, 1]).tobytes()


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


def _state_csv_per_value(bundle, u):
    """The reference formatting: one complex() conversion per value."""
    lines = ["edge,x,re,im\n"]
    for m in range(1, bundle.graph.num_edges + 1):
        for x, v in zip(bundle.grid.x_ext[m - 1], np.asarray(u)[bundle.edge_slice(m)]):
            z = complex(v)
            lines.append(f"{m},{x:.17g},{z.real:.17g},{z.imag:.17g}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_state_csv_bytes_match_per_value_formatting(tmp_path, scheme):
    b = discretize(from_template("lasso", nx=[4, 5]), scheme)
    rng = np.random.default_rng(5)
    real = rng.standard_normal(b.n_ext)
    real[:6] = [-0.0, 0.0, 1e300, -2.5e-310, 1.0 / 3.0, 7.0]
    cplx = real + 1j * rng.standard_normal(b.n_ext) * 1e-200
    cplx[:3] = [complex(1.0, -0.0), complex(-0.0, 1e308), complex(-0.0, -0.0)]
    single = rng.standard_normal(b.n_ext).astype(np.float32)
    states = [real, cplx, single, np.arange(b.n_ext), -real + 0j]
    for u in states:
        path = tmp_path / "state.csv"
        save_state_csv(b, u, path)
        assert path.read_bytes() == _state_csv_per_value(b, u), u.dtype


def test_state_csv_round_trip(tmp_path):
    g = from_template("lasso", nx=[4, 5])
    b = discretize(g, "uniform")
    rng = np.random.default_rng(11)
    u = rng.standard_normal(b.n_ext) + 1j * rng.standard_normal(b.n_ext)
    path = tmp_path / "state.csv"
    save_state_csv(b, u, path)
    back = load_state_csv(b, path)
    assert np.array_equal(back, u)
    save_state_csv(b, u.real, path)
    back = load_state_csv(b, path)
    assert back.dtype.kind == "f" and np.array_equal(back, u.real)


def _state_csv_one_call(bundle, u):
    """save_state_csv's formatting before the row prefixes were cached."""
    z = np.asarray(u).astype(complex)
    edge = np.repeat(np.arange(1, bundle.graph.num_edges + 1), bundle.grid.n + 2).tolist()
    x = np.concatenate(bundle.grid.x_ext).tolist()
    rows = list(zip(edge, x, z.real.tolist(), z.imag.tolist()))
    body = ("%d,%.17g,%.17g,%.17g\n" * len(rows)) % tuple(v for r in rows for v in r)
    return ("edge,x,re,im\n" + body).encode()


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_state_csv_bytes_match_one_call_formatting(tmp_path, scheme):
    b = discretize(from_template("dumbbell"), scheme)
    rng = np.random.default_rng(8)
    real = rng.standard_normal(b.n_ext)
    real[:4] = [-0.0, 5e-324, -1e300, 1e-300]
    cplx = real + 1j * rng.standard_normal(b.n_ext)
    path = tmp_path / "state.csv"
    for u in (real, cplx, real + 0j):
        save_state_csv(b, u, path)   # the second save overwrites the first
        save_state_csv(b, u, path)
        assert path.read_bytes() == _state_csv_one_call(b, u)


def test_state_csv_round_trip_is_bitwise(tmp_path):
    b = discretize(from_template("lasso", nx=[4, 5]), "chebyshev")
    rng = np.random.default_rng(12)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
               np.nextafter(1.0, 2.0), 1.0 / 3.0]
    re = rng.standard_normal(b.n_ext) * 10.0 ** rng.integers(-300, 300, b.n_ext)
    im = rng.standard_normal(b.n_ext)
    re[:len(special)] = special
    im[-len(special):] = special
    cplx = re.astype(complex)   # re + 1j * im would turn the real -0.0 into +0.0
    cplx.imag = im
    path = tmp_path / "state.csv"
    for u in (re, cplx):
        save_state_csv(b, u, path)
        back = load_state_csv(b, path)
        assert back.dtype == u.dtype
        assert np.array_equal(back.real.view(np.uint64), u.real.view(np.uint64))
        assert np.array_equal(np.imag(back).view(np.uint64), np.imag(u).view(np.uint64))


def test_scalar_csv_bytes_match_the_per_value_formats(tmp_path):
    # the formats the CLI outputs and the branch directories were written with:
    # f"{v:.17g}" per number or per row entry, and "%d" for bifurcation types
    path = tmp_path / "values.csv"
    values = [0.1, -0.0, 5e-324, -2.5e300, math.inf, math.pi, 3, np.float64(2) / 3,
              np.int64(-1)]
    save_scalar_csv(path, values)
    assert path.read_text() == "".join(f"{v:.17g}\n" for v in values)
    save_scalar_csv(path, np.array([-1, 0, 1]))
    assert path.read_text() == "-1\n0\n1\n"
    rows = [[1, 0.25, -0.0], np.array([1e-17, 7.0, -math.e])]
    save_scalar_csv(path, rows, header="branch,lambda,mass")
    assert path.read_text() == "branch,lambda,mass\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert [f.name for f in tmp_path.iterdir()] == ["values.csv"]


@pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
def test_state_csv_writes_each_column_to_its_own_path(tmp_path, scheme):
    b = discretize(from_template("dumbbell"), scheme)
    rng = np.random.default_rng(9)
    real = rng.standard_normal((b.n_ext, 3))
    real[:2, 0] = [-0.0, 5e-324]
    for states in (real, real + 1j * rng.standard_normal((b.n_ext, 3))):
        paths = [tmp_path / "out" / f"state_{j}.csv" for j in range(3)]
        save_state_csv(b, states, paths)  # creates out/
        for j, path in enumerate(paths):
            save_state_csv(b, states[:, j], tmp_path / "one.csv")
            assert path.read_bytes() == (tmp_path / "one.csv").read_bytes()
    with pytest.raises(ValueError):  # refused before any file is written
        save_state_csv(b, real, [tmp_path / "short" / f"state_{j}.csv" for j in range(2)])
    assert not (tmp_path / "short").exists()
    assert not list(tmp_path.rglob("*.tmp"))
