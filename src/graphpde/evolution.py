"""Time integration on the discretized graph, vertex conditions on every state.

The implicit steppers (Crank-Nicolson, IMEX Euler, ARS(4,4,3)) are one IMEX
Runge-Kutta loop over ARS-form tableau pairs for ``psi_t = mu * Lap(psi) +
f(psi)``, Laplacian implicit and f explicit.  Every stage solves with the
run's one factorization of interp_vc - gamma tau mu lap_zero, whose last
2|E| rows are exactly vc_rows for every tau and mu.  Leapfrog, for the
wave analogue, is explicit: a matvec, then a rank-2|E| projection onto the
vertex conditions (a solve with interp_vc, exactly) that writes only the
rows it reaches, 16 of 9 612 on a uniform tetrahedron.  Every produced
state satisfies the conditions to solver accuracy, and one factorization
per (scheme, tau) serves the whole run.  Steps update their arrays in place.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import linalg
from .discretize import OperatorBundle
from .functionals import FunctionalContext, energy_nls, integral, mass, momentum


class EvolutionError(RuntimeError):
    pass


@dataclass(eq=False)
class EvolutionProblem:
    """Scheme-independent run data: coefficients, step size, output sampling."""

    bundle: OperatorBundle
    mu: complex = 1.0
    f: Callable | None = None
    tau: float = 1e-2
    t_final: float = 1.0
    n_skip: int = 1

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise EvolutionError("tau must be positive and finite")
        if self.n_skip < 1:
            raise EvolutionError("n_skip must be >= 1")
        if not 0 < self.t_final < np.inf:
            raise EvolutionError("t_final must be positive and finite")

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_final / self.tau))


def _check_initial(problem: EvolutionProblem, u0: np.ndarray) -> np.ndarray:
    u0 = np.asarray(u0)
    if u0.shape != (problem.bundle.n_ext,):
        raise EvolutionError(
            f"initial state length {u0.shape} != n_ext ({problem.bundle.n_ext})")
    defect = np.linalg.norm(problem.bundle.vc_rows @ u0, np.inf)
    if defect > 1e-8:
        warnings.warn(f"initial state violates the vertex conditions by {defect:.2e}",
                      stacklevel=3)
    return u0


class _Sampler:
    """Keeps the initial state, every n_skip-th step and the final step.

    A non-finite kept state raises EvolutionError naming its step and time.
    """

    def __init__(self, problem, u0):
        self.n_skip, self.tau = problem.n_skip, problem.tau
        self.times, self.states = [], []
        self.push(0, u0)

    def push(self, step_index, u, final=False):
        if step_index % self.n_skip == 0 or final:
            t = step_index * self.tau
            if not np.all(np.isfinite(u)):
                raise EvolutionError(f"non-finite state at step {step_index} (t = {t:g})")
            self.times.append(t)
            self.states.append(np.array(u))

    def result(self):
        return np.array(self.times), np.column_stack(self.states)


def crank_nicolson_heat(problem: EvolutionProblem, u0) -> tuple[np.ndarray, np.ndarray]:
    """Crank-Nicolson for the heat equation (f ignored; mu absorbed into L)."""
    return _imex_rk(problem, _check_initial(problem, u0), *_CRANK_NICOLSON)


def leapfrog_klein_gordon(problem: EvolutionProblem, g: Callable, u0, v0
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Leapfrog for psi_tt = Lap(psi) - g(psi) with initial velocity v0.

    Explicit: y = 2u - u_prev + tau^2 (lap_ext u - g(u)), then u_next = y -
    Z (vc_rows y).  With E the unit columns of the 2|E| constraint rows,
    interp_vc = interp_zero + E vc_rows, so Z = interp_vc^-1 E (one
    multi-column solve) gives interp_vc^-1 interp_zero = I - Z vc_rows, and
    the step equals the constrained solve interp_vc u_next = interp_zero (2u
    - u_prev - tau^2 g(u)) + tau^2 lap_zero u: vc_rows u_next = 0 to
    roundoff.  The projection writes only Z's nonempty rows, every step, as
    e_next = 2e - e_prev would amplify the defect.  2I + tau^2 lap_ext is not
    one matrix: rounding 2 + tau^2 lap_ii biases every step alike.  The first
    step uses the O(tau^2) initializer; the run aborts if the state grows by
    a factor 1e6 (instability detector).
    """
    b, tau = problem.bundle, problem.tau
    u0, v0 = _check_initial(problem, u0), np.asarray(v0)
    if v0.shape != u0.shape:
        raise EvolutionError(f"initial velocity length {v0.shape} != n_ext ({b.n_ext})")
    rows, Z_rows = _projection(b, linalg.factorize(b.interp_vc))

    def project(y):
        y[rows] -= Z_rows @ (b.vc_rows @ y)
        return y

    scale0 = max(1.0, np.linalg.norm(u0, np.inf))
    out = _Sampler(problem, u0)
    n, u_prev = problem.n_steps, u0
    u = project(u0 + tau * v0 + 0.5 * tau**2 * (b.lap_ext @ u0 - g(u0)))
    out.push(1, u, final=(n == 1))
    for k in range(2, n + 1):
        y = _into(np.subtract, 2.0 * u, u_prev)
        force = _into(np.multiply, _into(np.subtract, b.lap_ext @ u, g(u)), tau**2)
        u_prev, u = u, project(_into(np.add, y, force))
        if np.abs(u).max() > 1e6 * scale0:
            raise EvolutionError(f"leapfrog unstable at step {k} (state grew past 1e6 x initial)")
        out.push(k, u, final=(k == n))
    return out.result()


def _projection(b: OperatorBundle, fact):
    """The rows of Z = interp_vc^-1 E that hold entries, and Z on those rows."""
    Z = sp.csr_matrix(fact.solve(np.eye(b.n_ext, b.n_ext - b.n_int, -b.n_int)))
    rows = np.flatnonzero(np.diff(Z.indptr))
    return rows, Z[rows]


def _into(op, acc, x):
    """op(acc, x), written into acc unless numpy's promotion changes its type."""
    inplace = isinstance(acc, np.ndarray) and np.result_type(acc, x) == acc.dtype
    return op(acc, x, out=acc if inplace else None)


def imex_euler(problem: EvolutionProblem, u0) -> tuple[np.ndarray, np.ndarray]:
    """Forward-backward Euler: stiff Laplacian implicit, nonlinearity explicit."""
    return _imex_rk(problem, _check_initial(problem, u0), *_ARS111)


def sdirk443(problem: EvolutionProblem, u0) -> tuple[np.ndarray, np.ndarray]:
    """Third-order four-stage IMEX Runge-Kutta stepper, ARS(4,4,3)."""
    return _imex_rk(problem, _check_initial(problem, u0), *_ARS443)


# ARS-form tableau pairs (implicit, explicit) of Ascher, Ruuth & Spiteri
# (Appl. Numer. Math. 25, 1997): level 0 is the current state, every later
# level has the implicit diagonal gamma, the last level is the new state.
_CRANK_NICOLSON = (np.array([[0, 0], [1 / 2, 1 / 2]]), np.zeros((2, 2)))
_ARS111 = (np.array([[0, 0], [0, 1]]), np.array([[0, 0], [1, 0]]))
_ARS443 = (np.array([[0, 0, 0, 0, 0], [0, 1 / 2, 0, 0, 0], [0, 1 / 6, 1 / 2, 0, 0],
                     [0, -1 / 2, 1 / 2, 1 / 2, 0], [0, 3 / 2, -3 / 2, 1 / 2, 1 / 2]]),
           np.array([[0, 0, 0, 0, 0], [1 / 2, 0, 0, 0, 0], [11 / 18, 1 / 18, 0, 0, 0],
                     [5 / 6, -5 / 6, 1 / 2, 0, 0], [1 / 4, 7 / 4, 3 / 4, -7 / 4, 0]]))


def _imex_rk(problem: EvolutionProblem, u, a_im, a_ex):
    """IMEX Runge-Kutta over an ARS-form tableau pair, one factorization.

    Level i >= 1 solves (interp_vc - gamma tau mu lap_zero) U_i =
    interp_zero (u + tau sum_j a_ex[i, j] f(U_j)) + tau mu sum_{j<i}
    a_im[i, j] lap_zero U_j, whose last 2|E| rows are vc_rows U_i = 0 for
    every tau and mu; gamma is the common diagonal a_im[i, i].  f = None
    counts as f = 0.  A level without explicit terms (Crank-Nicolson's) applies
    interp_zero + tau mu a_im[i, 0] lap_zero to u as one matrix.  lap_zero U_j
    and f(U_j) are formed only for the levels whose tableau column feeds a
    later level.
    """
    b = problem.bundle
    tau, mu, f = problem.tau, problem.mu, problem.f
    fact = linalg.factorize(b.interp_vc - (a_im[-1, -1] * tau * mu) * b.lap_zero)
    levels = range(len(a_im))
    if f is None:
        a_ex = 0 * a_ex
    # (level j, coefficient) terms of level i, strictly below the diagonal
    ex = [[(j, tau * a_ex[i, j]) for j in range(i) if a_ex[i, j]] for i in levels]
    im = [[(j, tau * mu * a_im[i, j]) for j in range(i) if a_im[i, j]] for i in levels]
    # a level-0 implicit term folded into interp_zero, for the levels whose
    # interp_zero acts on u alone (with explicit terms it acts on u + tau sum f)
    start = {}
    for i in levels:
        if i and not ex[i] and im[i] and im[i][0][0] == 0:
            start[i] = b.interp_zero + im[i].pop(0)[1] * b.lap_zero
    need_f = {j for terms in ex for j, _ in terms}
    need_lap = {j for terms in im for j, _ in terms}
    out, n = _Sampler(problem, u), problem.n_steps
    for k in range(1, n + 1):
        stage, fs, laps = u, {}, {}
        for i in levels:
            if i:
                if i in start:
                    rhs = start[i] @ u
                else:
                    x = 0
                    for j, c in ex[i]:
                        x = _into(np.add, x, c * fs[j])
                    rhs = b.interp_zero @ (_into(np.add, x, u) if ex[i] else u)
                for j, c in im[i]:
                    rhs = _into(np.add, rhs, c * laps[j])
                stage = fact.solve(rhs)
            if i in need_f:
                fs[i] = f(stage)
            if i in need_lap:
                laps[i] = b.lap_zero @ stage
        u = stage
        out.push(k, u, final=(k == n))
    return out.result()


# ---------------------------------------------------------------------------

QUANTITIES = ("mass", "energy", "momentum", "total_heat")


def conservation_trace(ctx: FunctionalContext, times, states,
                       quantities: Sequence[str] = ("mass",), *,
                       sigma: float = 1.0, momentum_orientations=None) -> dict:
    """Evaluate conserved quantities on sampled states and their relative drift.

    Returns {"times": t, name: values, name + "_drift": |q - q0| / scale}
    with scale = |q0| (or 1 if q0 vanishes).
    """
    for q in quantities:
        if q not in QUANTITIES:
            raise EvolutionError(f"unknown quantity {q!r}; pick from {QUANTITIES}")
    value = {"mass": lambda u: mass(ctx, u), "energy": lambda u: energy_nls(ctx, u, sigma),
             "momentum": lambda u: momentum(ctx, u, momentum_orientations),
             "total_heat": lambda u: np.real(integral(ctx, u))}
    table: dict[str, np.ndarray] = {"times": np.asarray(times, dtype=float)}
    for name in quantities:
        vals = np.array([value[name](u) for u in np.asarray(states).T], dtype=float)
        scale = abs(vals[0]) if abs(vals[0]) > 0 else 1.0
        table[name] = vals
        table[name + "_drift"] = np.abs(vals - vals[0]) / scale
    return table
