"""The three closed-loop workloads, their seeded inputs, and their output checks.

Each workload is a pair ``(inputs(seed), run_pass(inputs, phases, ops, workdir))``.
A pass makes the library calls a user would make, one after the other, and
books their time as set-up (graph construction, ``discretize``,
``make_context``/``nls_problem``/``nls_system``, ``create_run``/
``save_eigenfunctions``) or as solve time (everything else).  The checks run
between the timed calls and are never timed.

The seed changes data only (forcing amplitudes, vertex data, small shifts
of initial profiles), never grid sizes, step counts or branch lengths, so the
work done and every count repeat exactly from seed to seed.
"""
from __future__ import annotations

import contextlib
import math
import os
import time

import numpy as np

import graphpde as qg
import graphpde.continuation as cont
from graphpde.evolution import EvolutionProblem

_perf = time.perf_counter

VC_TOL = 1e-8   # vertex-condition defect allowed on every returned state


class Phases:
    """Wall time of the library calls of one pass, split into set-up and solve."""

    def __init__(self):
        self.setup_s = 0.0
        self.solve_s = 0.0

    @contextlib.contextmanager
    def setup(self):
        t0 = _perf()
        try:
            yield
        finally:
            self.setup_s += _perf() - t0

    @contextlib.contextmanager
    def solve(self):
        t0 = _perf()
        try:
            yield
        finally:
            self.solve_s += _perf() - t0


class Op:
    """Checks on one operation's outputs.

    Continuous checks record their margin log10(tolerance / error); a check
    that does not hold, or an exception, marks the operation failed.
    """

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.margins: list[float] = []
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def upper(self, label: str, err, tol: float) -> None:
        """Require err <= tol."""
        err = float(err)
        if math.isfinite(err) and err <= tol:
            self.margins.append(math.log10(tol / max(err, 1e-300)))
        else:
            self.problems.append(f"{label}: {err:.3e} exceeds {tol:.3e}")

    def lower(self, label: str, value, floor: float) -> None:
        """Require value > floor."""
        value = float(value)
        if math.isfinite(value) and value > floor:
            self.margins.append(math.log10(value / floor))
        else:
            self.problems.append(f"{label}: {value:.3e} not above {floor:.3e}")

    def require(self, label: str, cond: bool) -> None:
        if not cond:
            self.problems.append(label)

    def vc_defect(self, bundle, states, node_data=None) -> None:
        """Require ||vc_rows @ u - data||_inf <= VC_TOL for every state column."""
        states = np.asarray(states)
        if states.ndim == 1:
            states = states[:, None]
        target = 0.0
        if node_data is not None:
            target = (bundle.nh_map @ np.asarray(node_data, dtype=float))[bundle.n_int:]
        worst = 0.0
        for j in range(states.shape[1]):
            u = states[:, j]
            if not np.all(np.isfinite(u)):
                self.problems.append("non-finite state")
                return
            worst = max(worst, float(np.max(np.abs(bundle.vc_rows @ u - target))))
        self.upper("vertex-condition defect", worst, VC_TOL)


class OpLog:
    """The operations of one pass, in order."""

    def __init__(self):
        self.ops: list[Op] = []

    @contextlib.contextmanager
    def op(self, name: str, layer: str = ""):
        rec = Op(name, layer)
        try:
            yield rec
        except Exception as exc:  # a raised error is a failed operation, not a crash
            rec.problems.append(f"raised {type(exc).__name__}: {exc}")
        self.ops.append(rec)


def _run_bytes(path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# ---------------------------------------------------------------------------
# gallery-solve: discretize, dense Chebyshev LU, ARPACK, secular scan

FIVE_EDGE_EXACT = (np.sin, lambda x: np.sin(x) ** 2, lambda x: 3 * x - 2 * x**2,
                   lambda x: 1 + np.sin(x), lambda x: 1 / np.cosh(x))
FIVE_EDGE_RHS = (lambda x: -np.sin(3 * x), lambda x: 2 * np.cos(2 * x), lambda x: -4.0 + 0 * x,
                 lambda x: -np.sin(x), lambda x: 1 / np.cosh(x) - 2 / np.cosh(x) ** 3)
FIVE_EDGE_PHI = (8.0, 3.0, 1 / math.cosh(2.0))
# uniform-scheme errors for the unscaled problem (acceptance criterion 1); the
# problem is linear, so the seed's scale factor multiplies them and the
# spectral tolerances alike
FIVE_EDGE_FD_ERR = {20: 1.02e-3, 40: 2.56e-4}

Y_EXACT_K = np.array([
    math.acos((3 + math.sqrt(33)) / 12), math.acos((3 - math.sqrt(33)) / 12),
    math.pi, math.pi,
    2 * math.pi - math.acos((3 - math.sqrt(33)) / 12),
    2 * math.pi - math.acos((3 + math.sqrt(33)) / 12),
    2 * math.pi,
])
# uniform-scheme eigenvalue errors at h = 1/40 (acceptance criterion 2)
Y_FD40_ERRORS = np.array([1.687e-05, 5.486e-04, 5.072e-03, 5.072e-03,
                          2.100e-02, 4.864e-02, 8.111e-02])

NECKLACE_CASES = (("uniform", 54, 20), ("uniform", 54, 80),
                  ("chebyshev", 5, 20), ("chebyshev", 10, 20), ("chebyshev", 20, 20))
NECKLACE_EIGS = 6

# unit-weight, potential-free gallery; k_max sits inside a spectral gap
SECULAR_GALLERY = (("interval", {}, 7.0), ("star", {}, 5.5), ("Y", {}, 2 * math.pi + 0.1),
                   ("dumbbell", {}, 2.6), ("lasso", {}, 2.9), ("ring", {}, 2.5),
                   ("tetrahedron", {}, 5.0), ("bubbleTower", {}, 1.16),
                   ("necklace", {"n_pairs": 3}, 2.45), ("necklace", {"n_pairs": 5}, 2.8))


def gallery_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    necklace = {}
    for scheme, pairs, nx in NECKLACE_CASES:
        necklace[(scheme, pairs, nx)] = {
            "f": rng.uniform(0.5, 1.5, size=3),          # string, upper, lower pearl
            "wave": rng.uniform(-0.5, 0.5),
            "phi": rng.uniform(-1.0, 1.0, size=2 * pairs),
        }
    return {"scale": 1.0 + 0.05 * rng.uniform(-1.0, 1.0), "necklace": necklace}


def _five_edge_graph(nx):
    return qg.build_graph([1, 1, 1, 2, 2], [1, 1, 2, 2, 3],
                          [math.pi, 2 * math.pi, 1.0, 2 * math.pi, 2.0],
                          weights=[1, 1, 2, 1, 1], robin_coeffs=[1.0, 1.0, qg.DIRICHLET],
                          nx=nx, potentials=[lambda x: 2 * np.cos(2 * x), 0, 0, 0, 0])


def _five_edge(ph, ops, a):
    errors = {}
    for label, nx, scheme in (("uniform nx=20", 20, "uniform"),
                              ("uniform nx=40", 40, "uniform"),
                              ("chebyshev N=16", [16] * 5, "chebyshev"),
                              ("chebyshev N=32", [32] * 5, "chebyshev")):
        with ops.op(f"five-edge Poisson {label}", "poisson") as op:
            with ph.setup():
                b = qg.discretize(_five_edge_graph(nx), scheme)
            phi = [a * v for v in FIVE_EDGE_PHI]
            with ph.solve():
                f = qg.apply_function_to_edges(b, [lambda x, g=g: a * g(x)
                                                   for g in FIVE_EDGE_RHS])
                psi = qg.solve_poisson(b, f, phi)
            exact = a * qg.apply_function_to_edges(b, FIVE_EDGE_EXACT)
            err = float(np.max(np.abs(psi - exact)))
            errors[label] = err
            op.vc_defect(b, psi, phi)
            if scheme == "uniform":
                ref = a * FIVE_EDGE_FD_ERR[nx]
                op.upper("error against the reference error", abs(err - ref), 0.1 * ref)
            else:
                op.upper("spectral error", err, a * (5e-7 if nx[0] == 16 else 1e-11))
            if label == "uniform nx=40":
                ratio = errors["uniform nx=20"] / err
                op.upper("second-order error ratio", abs(ratio - 4.01), 0.05)


def _y_spectrum(ph, ops):
    exact = -Y_EXACT_K**2
    errs = {}
    for label, nx, scheme in (("uniform nx=40", 40, "uniform"),
                              ("uniform nx=80", 80, "uniform"),
                              ("chebyshev [30,20,20]", [30, 20, 20], "chebyshev")):
        with ops.op(f"Y spectrum {label}", "eigs") as op:
            with ph.setup():
                b = qg.discretize(qg.from_template("Y", nx=nx), scheme)
            with ph.solve():
                lam, vecs = qg.eigs(b, 7)
            op.require("real spectrum", np.all(np.imag(lam) == 0))
            err = np.abs(np.real(lam) - exact)
            errs[label] = err
            op.vc_defect(b, vecs)
            if label == "uniform nx=40":
                for j in range(7):
                    op.upper(f"FD error {j}", abs(err[j] - Y_FD40_ERRORS[j]),
                             0.1 * Y_FD40_ERRORS[j])
            elif label == "uniform nx=80":
                for j in range(7):
                    op.upper(f"error ratio {j}", abs(errs["uniform nx=40"][j] / err[j] - 4.0),
                             0.02)
            else:
                op.upper("spectral eigenvalue error", np.max(err), 1e-9)


def _necklace(ph, ops, inputs):
    for (scheme, pairs, nx), data in inputs.items():
        name = f"necklace {pairs} pairs {scheme} nx={nx}"
        c_string, c_up, c_down = data["f"]
        with ops.op(f"{name} Poisson+eigs", "necklace") as op:
            with ph.setup():
                b = qg.discretize(qg.from_template("necklace", n_pairs=pairs, nx=nx,
                                                   robin=1.0), scheme)
            phi = data["phi"]
            fns = []
            for _ in range(pairs):
                fns += [lambda x, c=c_string: c + data["wave"] * np.sin(x),
                        c_up, c_down]
            with ph.solve():
                f = qg.apply_function_to_edges(b, fns)
                psi = qg.solve_poisson(b, f, phi)
                lam, vecs = qg.eigs(b, NECKLACE_EIGS)
            op.vc_defect(b, psi, phi)
            op.vc_defect(b, vecs)
            op.require("finite real eigenvalues",
                       np.all(np.isfinite(lam)) and np.all(np.imag(lam) == 0))


def _secular_gallery(ph, ops):
    for tag, kw, k_max in SECULAR_GALLERY:
        name = tag + "".join(f" {k}={v}" for k, v in kw.items())
        with ops.op(f"secular vs eigs {name}", "secular") as op:
            with ph.setup():
                g0 = qg.from_template(tag, **kw)
                nx = [24 + math.ceil(1.5 * k_max * e.length) for e in g0.edges]
                g = qg.from_template(tag, nx=nx, **kw)
                b = qg.discretize(g, "chebyshev")
            total = sum(e.length for e in g.edges)
            m = math.ceil(total * k_max / math.pi) + g.num_edges + 4
            with ph.solve():
                lam, _ = qg.eigs(b, m)
                zeros = qg.find_spectrum_secular(g, k_max)
            k = np.sqrt(np.maximum(-np.real(lam), 0.0))
            k_eigs = np.sort(k[(k > 1e-3) & (k <= k_max)])
            k_sec = np.sort(np.repeat([z for z, _ in zeros], [mult for _, mult in zeros]))
            op.require(f"zeros with multiplicity: secular {len(k_sec)}, eigs {len(k_eigs)}",
                       len(k_sec) == len(k_eigs))
            if len(k_sec) == len(k_eigs) and len(k_sec):
                op.upper("secular zeros against eigs", np.max(np.abs(k_sec - k_eigs)), 1e-6)


def gallery_pass(inputs, ph, ops, workdir) -> dict:
    _five_edge(ph, ops, inputs["scale"])
    _y_spectrum(ph, ops)
    _necklace(ph, ops, inputs["necklace"])
    _secular_gallery(ph, ops)
    return {}


# ---------------------------------------------------------------------------
# time-stepping: one factorization per run, thousands of solves and matvecs

KINK_SPEED, KINK_LENGTH, KINK_T = 0.9, 20.0, 24.0


def stepping_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"heat_scale": rng.uniform(0.95, 1.05),
            "heat_offset": rng.uniform(-0.05, 0.05),
            "soliton_shift": rng.uniform(-0.05, 0.05),
            "kink_shift": rng.uniform(-0.05, 0.05)}


def _solitons(shift):
    """Three solitons heading for the star vertex, as in acceptance criterion 5."""
    def soliton(v, x0):
        return lambda x: np.exp(1j * (-v * x / 2)) / np.cosh(x - x0 - shift)
    return [soliton(-2, 15), soliton(2, -15), soliton(2, -15)]


def _nls(z):
    return -2j * np.abs(z) ** 2 * z


def stepping_pass(inputs, ph, ops, workdir) -> dict:
    for scheme in ("uniform", "chebyshev"):
        with ops.op(f"Crank-Nicolson heat dumbbell {scheme}", "evolution") as op:
            with ph.setup():
                b = qg.discretize(qg.from_template("dumbbell"), scheme)
                ctx = qg.make_context(b)
            a, c = inputs["heat_scale"], inputs["heat_offset"]
            with ph.solve():
                # scale and offset keep the profile on the vertex conditions
                u0 = qg.apply_function_to_edges(
                    b, [lambda x: c + a * (2 - 2 * np.cos(x - math.pi / 3)), c + a,
                        lambda x: c + a * np.cos(x)])
                p = EvolutionProblem(b, mu=1.0, tau=0.01, t_final=10.0, n_skip=50)
                times, states = qg.crank_nicolson_heat(p, u0)
                tr = qg.conservation_trace(ctx, times, states, ["total_heat"])
            op.upper("total-heat drift", tr["total_heat_drift"].max(), 1e-10)
            op.vc_defect(b, states[:, 1:])

    s = inputs["soliton_shift"]
    star = star_ctx = None
    with ops.op("ARS(4,4,3) NLS star weights [2,1,1]", "evolution") as op:
        with ph.setup():
            star = qg.discretize(qg.from_template("star", lengths=30.0, weight=[2, 1, 1]),
                                 "uniform")
            star_ctx = qg.make_context(star)
        with ph.solve():
            u0 = qg.apply_function_to_edges(star, _solitons(s))
            p = EvolutionProblem(star, mu=-1j, f=_nls, tau=0.01, t_final=11.0, n_skip=50)
            times, states = qg.sdirk443(p, u0)
            tr = qg.conservation_trace(star_ctx, times, states,
                                       ["mass", "energy", "momentum"],
                                       momentum_orientations=[-1, 1, 1])
        op.upper("mass drift", tr["mass_drift"].max(), 1e-4)
        op.upper("energy drift", tr["energy_drift"].max(), 1e-3)
        op.upper("momentum drift", tr["momentum_drift"].max(), 1e-3)
        op.vc_defect(star, states[:, 1:])

    with ops.op("IMEX Euler NLS star weights [2,1,1]", "evolution") as op:
        with ph.solve():
            u0 = qg.apply_function_to_edges(star, _solitons(s))
            p = EvolutionProblem(star, mu=-1j, f=_nls, tau=0.01, t_final=2.0, n_skip=50)
            times, states = qg.imex_euler(p, u0)
            tr = qg.conservation_trace(star_ctx, times, states, ["mass"])
        op.require("finite mass trace", np.all(np.isfinite(tr["mass"])))
        op.vc_defect(star, states[:, 1:])

    with ops.op("leapfrog sine-Gordon tetrahedron c=0.9", "evolution") as op:
        ell, c, k = KINK_LENGTH, KINK_SPEED, inputs["kink_shift"]
        with ph.setup():
            b = qg.discretize(qg.from_template("tetrahedron", length=ell, nx=80), "uniform")
            ctx = qg.make_context(b)
        gam = math.sqrt(1 - c * c)
        with ph.solve():
            u0 = qg.apply_function_to_edges(
                b, [lambda x: 4 * np.arctan(np.exp((x - ell / 2 - k) / gam))] * 3
                + [2 * math.pi] * 3)
            v0 = qg.apply_function_to_edges(
                b, [lambda x: -(2 * c / gam) / np.cosh((x - ell / 2 - k) / gam)] * 3
                + [0.0] * 3)
            p = EvolutionProblem(b, tau=0.005, t_final=KINK_T, n_skip=400)
            times, states = qg.leapfrog_klein_gordon(p, np.sin, u0, v0)
            tr = qg.conservation_trace(ctx, times, states, ["mass"])
        op.require("finite mass trace", np.all(np.isfinite(tr["mass"])))
        final = np.real(states[:, -1])
        for m in range(1, 7):
            um = final[b.edge_slice(m)]
            crossings = int(np.count_nonzero(np.diff(np.sign(um - math.pi))))
            want = "at least one" if m <= 3 else "none"
            op.require(f"kink crossings on edge {m}: {crossings}, want {want}",
                       crossings >= 1 if m <= 3 else crossings == 0)
        op.vc_defect(b, states[:, 1:])
    return {}


# ---------------------------------------------------------------------------
# branch-tracing: many small factorizations, bordered solves, CSV persistence

def branch_inputs(seed: int) -> dict:
    # The inputs are those of acceptance criterion 7 for every seed.  The
    # corrector stops within roundoff of the branch, so a 0.1 % change of the
    # seed amplitude already moves the continuous errors by up to a digit.
    return {"tag": "dumbbell", "amplitude": 1e-2}


def _branch_vc_defect(op, b, branch):
    op.vc_defect(b, np.column_stack([p.psi for p in branch.points]))


def branch_pass(inputs, ph, ops, workdir) -> dict:
    run_dirs = []
    for scheme in ("uniform", "chebyshev"):
        # a failed operation must not hand its predecessor's results on
        b = sys_ = run = idx = lam2 = None
        with ops.op(f"eigenfunctions dumbbell {scheme}", "continuation") as op:
            with ph.setup():
                b = qg.discretize(qg.from_template("dumbbell"), scheme)
                sys_ = cont.nls_system(qg.nls_problem(b), qg.make_context(b))
                run = cont.create_run(workdir, inputs["tag"], b)
                lam, vecs = cont.save_eigenfunctions(run, b, 4)
            run_dirs.append(run)
            lam2 = float(np.real(lam[1]))
            op.vc_defect(b, np.real(vecs))

        with ops.op(f"continue_from_eig dumbbell {scheme}", "continuation") as op:
            opts = cont.ContinuationOptions(ds=0.05, verbose_flag=False)
            with ph.solve():
                branch = cont.continue_from_eig(run, sys_, 1, inputs["amplitude"], opts)
            dev = max(np.max(np.abs(p.psi - math.sqrt(max(-p.lam, 0.0) / 2)))
                      for p in branch.points)
            op.upper("constant-branch deviation", dev, 1e-8)
            bps = [i for i, p in enumerate(branch.points) if p.bif_type == 1]
            op.require("pitchfork detected", bool(bps))
            idx = bps[0]
            op.upper("pitchfork location", abs(branch.points[idx].lam - lam2 / 2), 1e-3)
            _branch_vc_defect(op, b, branch)

        with ops.op(f"branch-point legs dumbbell {scheme}", "continuation") as op:
            leg_opts = cont.ContinuationOptions(ds=0.05, max_points=20, verbose_flag=False)
            with ph.solve():
                leg_p = cont.continue_from_branch_point(run, sys_, 1, idx, +1, leg_opts)
                leg_m = cont.continue_from_branch_point(run, sys_, 1, idx, -1, leg_opts)
            k = min(len(leg_p.points), len(leg_m.points))
            op.upper("leg mass difference",
                     np.max(np.abs(leg_p.masses[:k] - leg_m.masses[:k])), 1e-6)
            tail = leg_p.points[-1].psi
            op.lower("leg departs from the constant branch",
                     np.max(np.abs(tail - np.mean(tail))), 1e-4)
            _branch_vc_defect(op, b, leg_p)
            _branch_vc_defect(op, b, leg_m)
            saved = sorted(p.name for p in run.glob("branch[0-9][0-9][0-9]"))
            op.require(f"three branch directories persisted, found {saved}",
                       saved == ["branch001", "branch002", "branch003"])
    return {"run_bytes": sum(_run_bytes(r) for r in run_dirs)}


WORKLOADS = {
    "gallery-solve": (gallery_inputs, gallery_pass),
    "time-stepping": (stepping_inputs, stepping_pass),
    "branch-tracing": (branch_inputs, branch_pass),
}

