"""The one module that writes files: the `qg` outputs and the continuation
run directories, whose files only this module names.

    <base>/<tag>/<NNN>/  template.json (with the bundle hash)
      eigenfunctions/    eigenvalues.csv, eigenfunctions.npy (a row per eigenpair)
      saved/             wave_NNN_psi.npy, wave_NNN_lambda.csv
      branchNNN/         lambda, mass, energy, biftype, lambda_dot CSVs, psi.npy
                         and tangent.npy (a row per point),
                         perturbation_NNNN.npy, options.json, provenance.json
                         (seed, termination and events)
      diagram.csv

In a run directory every state is a float64 .npy, read back through
_load_states, and every scalar a %.17g CSV, read back through _load_scalars.
No file records the time.  Every reader checks the run's hash against the
bundle first; StaleLayoutError marks another discretization or an older
layout.  Every file is written through write_atomic, except in a branch
directory, which is staged whole.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .discretize import DiscretizationError, OperatorBundle
from .graphs import graph_config, graph_hash
from .stationary import eigs


class ContinuationError(RuntimeError):
    pass


class StaleLayoutError(ContinuationError):
    pass


def write_atomic(path, data) -> None:
    """Write text, or an array as .npy, to a temporary file beside path, then
    rename it over path; a write that raises leaves path and no temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            if isinstance(data, str):
                fh.write(data.encode())
            else:  # to an open file, np.save appends no '.npy'
                np.save(fh, data, allow_pickle=False)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, obj, sort_keys: bool = False) -> None:
    """Write obj as JSON with one-space indents, atomically."""
    write_atomic(path, json.dumps(obj, indent=1, sort_keys=sort_keys))


def scalar_csv_text(rows, header=None) -> str:
    """Numbers, or rows of numbers, one line each as %.17g.

    A header line, when given, comes first.
    """
    lines = [header] if header else []
    for row in rows:
        values = [row] if np.ndim(row) == 0 else row
        lines.append(",".join("%.17g" % v for v in values))
    return "".join(line + "\n" for line in lines)


def save_scalar_csv(path, rows, header=None) -> None:
    """Write scalar_csv_text(rows, header) to path atomically."""
    write_atomic(path, scalar_csv_text(rows, header))


def save_state_csv(bundle: OperatorBundle, states, paths) -> None:
    """Write a state vector to a path, or each column of an array of states to
    its own path, as CSV rows (edge id, x, value_real, value_imag), atomically."""
    # one formatting call per state over Python floats; the values and their
    # signed zeros are those complex(v) gives per entry (+0.0 imaginary if real)
    z = np.asarray(states).astype(complex)
    if z.ndim == 1:
        z, paths = z[:, None], [paths]
    edge = np.repeat(np.arange(1, bundle.graph.num_edges + 1), bundle.grid.n + 2)
    body = "edge,x,re,im\n" + "".join(
        "%d,%.17g,%%.17g,%%.17g\n" % row
        for row in zip(edge.tolist(), np.concatenate(bundle.grid.x_ext).tolist()))
    for column, path in list(zip(z.T, paths, strict=True)):  # the count checked first
        values = np.column_stack((column.real, column.imag)).ravel().tolist()
        write_atomic(path, body % tuple(values))


def load_state_csv(bundle: OperatorBundle, path) -> np.ndarray:
    """Read a state vector written by save_state_csv; validates the layout."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != bundle.n_ext or data.shape[1] != 4:
        raise DiscretizationError(
            f"state file {path} does not match layout (n_ext={bundle.n_ext})")
    if np.all(data[:, 3] == 0.0):
        return data[:, 2]
    # assigned, not summed: re + 1j*im turns a real part of -0.0 into +0.0
    values = data[:, 2].astype(complex)
    values.imag = data[:, 3]
    return values


def bundle_hash(bundle: OperatorBundle) -> str:
    payload = json.dumps({
        "graph": graph_hash(bundle.graph),
        "scheme": bundle.scheme,
        "n": [int(v) for v in bundle.grid.n],
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def create_run(base, tag: str, bundle: OperatorBundle) -> Path:
    """Create data/<tag>/<run id>/ with template.json."""
    root = Path(base) / tag
    run_dir = root / f"{_first_free(lambda k: root / f'{k:03d}'):03d}"
    run_dir.mkdir(parents=True)
    template = {
        "tag": tag,
        "scheme": bundle.scheme,
        "graph": graph_config(bundle.graph),
        "n_per_edge": [int(v) for v in bundle.grid.n],
        "hash": bundle_hash(bundle),
    }
    write_json(run_dir / "template.json", template)
    return run_dir


def check_run_layout(run_dir, bundle: OperatorBundle) -> None:
    meta = json.loads((Path(run_dir) / "template.json").read_text())
    if meta["hash"] != bundle_hash(bundle):
        raise StaleLayoutError(
            f"run directory {run_dir} was created for a different discretization "
            f"({meta['hash']} != {bundle_hash(bundle)})")


def _first_free(path_of) -> int:
    """The least k >= 1 for which path_of(k) does not exist."""
    k = 1
    while path_of(k).exists():
        k += 1
    return k


def _load_states(path, shape) -> np.ndarray:
    """The float64 array of the given shape stored at path, else StaleLayoutError."""
    try:
        states = np.load(path, allow_pickle=False)
    except ValueError as exc:  # an object array, or not an .npy file
        raise StaleLayoutError(f"{path}: {exc}") from exc
    if states.dtype != np.float64 or states.shape != shape:
        raise StaleLayoutError(f"{path} holds {states.dtype} {states.shape}, not float64 {shape}")
    return states


def _load_scalars(path, kind=float) -> np.ndarray:
    """The numbers of a one-column scalar CSV, parsed as kind (np.loadtxt is slower)."""
    return np.array(Path(path).read_text().split(), dtype=kind)


def is_run(run_dir) -> bool:
    return (Path(run_dir) / "template.json").is_file()


def eigenfunctions_saved(run_dir) -> bool:
    """True once save_eigenfunctions has written its last file, eigenvalues.csv."""
    return (Path(run_dir) / "eigenfunctions" / "eigenvalues.csv").is_file()


def save_eigenfunctions(run_dir, bundle: OperatorBundle, count: int):
    """Compute the count eigenpairs nearest zero and persist them under
    <run>/eigenfunctions/ as the seeds of continue_from_eig."""
    check_run_layout(run_dir, bundle)
    lam, vecs = eigs(bundle, count)
    edir = Path(run_dir) / "eigenfunctions"
    write_atomic(edir / "eigenfunctions.npy", np.real(vecs).T)  # creates edir
    save_scalar_csv(edir / "eigenvalues.csv", np.real(lam))
    return lam, vecs


def load_eigenfunction(run_dir, bundle: OperatorBundle, index: int):
    """(eigenvalue, real state) of the index-th saved eigenfunction, from 1."""
    check_run_layout(run_dir, bundle)
    edir = Path(run_dir) / "eigenfunctions"
    lams = _load_scalars(edir / "eigenvalues.csv")
    if not 1 <= index <= len(lams):
        raise ContinuationError(f"eigenfunction index {index} not saved")
    states = _load_states(edir / "eigenfunctions.npy", (len(lams), bundle.n_ext))
    return float(lams[index - 1]), states[index - 1]


def save_standing_wave(run_dir, bundle: OperatorBundle, psi, lam: float) -> str:
    """Save a wave's n_ext real values as the first free saved/wave_NNN; returns that name."""
    check_run_layout(run_dir, bundle)
    sdir = Path(run_dir) / "saved"
    name = f"wave_{_first_free(lambda k: sdir / f'wave_{k:03d}_psi.npy'):03d}"
    write_atomic(sdir / f"{name}_psi.npy", np.real(psi).astype(float).reshape(bundle.n_ext))
    save_scalar_csv(sdir / f"{name}_lambda.csv", [lam])
    return name


def load_standing_wave(run_dir, bundle: OperatorBundle, name: str):
    """(real state, lambda) of the standing wave saved under name."""
    check_run_layout(run_dir, bundle)
    sdir = Path(run_dir) / "saved"
    return (_load_states(sdir / f"{name}_psi.npy", (bundle.n_ext,)),
            float(_load_scalars(sdir / f"{name}_lambda.csv")[0]))


def _branch_dir(run_dir, branch_id: int) -> Path:
    return Path(run_dir) / f"branch{branch_id:03d}"


# per-point files of a branch directory (typed CSVs; .npy rows) and their BranchPoint fields
_BRANCH_SCALARS = {"lambda": ("lam", float), "mass": ("mass", float), "energy": ("energy", float),
                   "biftype": ("bif_type", int), "lambda_dot": ("tangent_lam", float)}
_BRANCH_STATES = {"psi": "psi", "tangent": "tangent_psi"}


def save_branch(run_dir, branch, bundle: OperatorBundle, branch_id: int | None = None) -> int:
    """Write a Branch's directory, staged and then renamed so that it appears whole."""
    check_run_layout(run_dir, bundle)
    if branch_id is None:
        branch_id = _first_free(lambda k: _branch_dir(run_dir, k))
    final = _branch_dir(run_dir, branch_id)
    stage = final.with_name(final.name + ".stage")
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir(parents=True)
    # written in place: the rename of stage below is what makes the save whole
    for name, (attr, _) in _BRANCH_SCALARS.items():
        (stage / f"{name}.csv").write_text(
            scalar_csv_text([getattr(p, attr) for p in branch.points]))
    for name, attr in _BRANCH_STATES.items():
        rows = np.array([getattr(p, attr) for p in branch.points], dtype=float)
        np.save(stage / f"{name}.npy", rows, allow_pickle=False)
    for idx, pert in branch.perturbations.items():
        np.save(stage / f"perturbation_{idx + 1:04d}.npy", pert, allow_pickle=False)
    (stage / "options.json").write_text(json.dumps(asdict(branch.options), indent=1))
    (stage / "provenance.json").write_text(json.dumps(branch.provenance, indent=1))
    if final.exists():
        shutil.rmtree(final)
    os.replace(stage, final)
    return branch_id


def read_branch(run_dir, branch_id: int, bundle: OperatorBundle, option_names):
    """A saved branch as (points, perturbations, options, provenance): a dict of
    fields per point, the perturbations by point index and the two stored dicts.
    An option not in option_names is stale."""
    check_run_layout(run_dir, bundle)
    bdir = _branch_dir(run_dir, branch_id)
    if not bdir.exists():
        raise ContinuationError(f"no branch directory {bdir}")
    if not (bdir / "psi.npy").exists() and (bdir / "psi_0001.csv").exists():
        raise StaleLayoutError(f"{bdir / 'psi_0001.csv'} has the older per-point layout")
    columns = {attr: _load_scalars(bdir / f"{name}.csv", kind).tolist()
               for name, (attr, kind) in _BRANCH_SCALARS.items()}
    shape = (len(columns["lam"]), bundle.n_ext)
    columns.update({attr: _load_states(bdir / f"{name}.npy", shape)
                    for name, attr in _BRANCH_STATES.items()})
    options = json.loads((bdir / "options.json").read_text())
    stale = sorted(options.keys() - set(option_names))
    if stale:
        raise StaleLayoutError(f"{bdir / 'options.json'} holds the unknown option {stale[0]!r}")
    provenance = json.loads((bdir / "provenance.json").read_text())
    points = [dict(zip(columns, row)) for row in zip(*columns.values(), strict=True)]
    perturbations = {int(f.stem.split("_")[1]) - 1: _load_states(f, (bundle.n_ext,))
                     for f in sorted(bdir.glob("perturbation_*.npy"))}
    return points, perturbations, options, provenance


def list_branches(run_dir) -> list[int]:
    return [int(d.name[-3:]) for d in sorted(Path(run_dir).glob("branch[0-9][0-9][0-9]"))]


DIAGRAM_AXES = ("lambda", "mass", "energy")


def bifurcation_diagram(run_dir, axes=("lambda", "mass")) -> dict[int, np.ndarray]:
    """Per-branch polyline tables of the requested axes (from stored CSVs)."""
    for ax in axes:
        if ax not in DIAGRAM_AXES:
            raise ContinuationError(f"unknown axis {ax!r}; pick from {DIAGRAM_AXES}")
    return {bid: np.column_stack([_load_scalars(_branch_dir(run_dir, bid) / f"{ax}.csv")
                                  for ax in axes])
            for bid in list_branches(run_dir)}


def save_diagram(run_dir, axes: tuple) -> None:
    """Write <run>/diagram.csv: one row per point of every branch, after its branch id."""
    rows = [[bid, *row] for bid, table in bifurcation_diagram(run_dir, axes).items()
            for row in table]
    save_scalar_csv(Path(run_dir) / "diagram.csv", rows, header=",".join(("branch",) + axes))
