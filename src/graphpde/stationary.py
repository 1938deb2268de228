"""Poisson solves, spectra, secular determinant, and standing-wave Newton.

The discretized Poisson problem is the square system
    lap_vc psi = interp_zero f + nh_map phi,
the eigenproblem is the generalized pencil lap_vc v = lambda interp_zero v,
and standing waves of the stationary NLS solve
    lap_vc psi + interp_zero (Lambda psi + f(psi)) = 0,
whose constraint rows reduce to vc_rows psi = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import linalg
from .discretize import OperatorBundle
from .functionals import make_context, mass
from .graphs import MetricGraph, as_node_data


class StationaryError(RuntimeError):
    pass


class NullspaceError(StationaryError):
    pass


class NewtonError(StationaryError):
    pass


class SingularJacobianError(NewtonError):
    pass


# ---------------------------------------------------------------------------
# Poisson

def solve_poisson(bundle: OperatorBundle, f=None, node_data=None) -> np.ndarray:
    """Solve the Poisson problem with edge data f and vertex data node_data."""
    g = bundle.graph
    all_free = all(not v.is_dirichlet and v.alpha == 0.0 for v in g.vertices)
    if all_free and not g.has_potential():
        raise NullspaceError(
            "the Laplacian with pure Neumann-Kirchhoff conditions is singular; "
            "pin a vertex (Dirichlet or nonzero Robin coefficient) or project "
            "onto the compatible subspace")
    rhs = np.zeros(bundle.n_ext)
    if f is not None:
        f = np.asarray(f)
        rhs = rhs.astype(f.dtype) + bundle.interp_zero @ f
    phi = as_node_data(g, node_data)
    rhs = rhs + bundle.nh_map @ phi
    try:
        fact = linalg.factorize(bundle.lap_vc)
    except linalg.SingularMatrixError as exc:
        raise NullspaceError(f"singular vertex-condition system: {exc}") from exc
    psi = fact.solve(rhs)
    # one step of iterative refinement; the ill-conditioned Chebyshev
    # blocks benefit
    psi = psi + fact.solve(rhs - bundle.lap_vc @ psi)
    return psi


# ---------------------------------------------------------------------------
# eigenproblem

def eigs(bundle: OperatorBundle, m: int, sigma: float = 1e-2):
    """m eigenpairs of the graph Laplacian nearest zero (via the shift sigma).

    Eigenvectors are normalized to unit mass under the graph quadrature and
    returned as extended-grid columns satisfying the constraint rows.
    """
    lam, vecs = linalg.generalized_eigs(bundle.lap_vc, bundle.interp_zero,
                                        m, sigma=sigma)
    ctx = make_context(bundle)
    out = np.empty_like(vecs)
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        v = v / math.sqrt(mass(ctx, v))
        k = int(np.argmax(np.abs(v)))
        if np.real(v[k]) < 0:
            v = -v
        out[:, j] = v
    return lam, out


# ---------------------------------------------------------------------------
# numeric secular determinant

class SecularError(ValueError):
    pass


def _check_secular_graph(graph: MetricGraph):
    if any(e.weight != 1.0 for e in graph.edges):
        raise SecularError("secular determinant requires unit edge weights")
    if graph.has_potential():
        raise SecularError("secular determinant requires zero potentials")


def secular_matrix(graph: MetricGraph, k: float) -> np.ndarray:
    """Vertex-condition system for plane-wave edge solutions at wavenumber k.

    Edge m carries psi_m = a_m e^{ikx} + b_m e^{ik(l_m - x)}; the rows are
    the flux-or-Dirichlet condition then the continuity conditions per
    vertex (same ordering as the discretized constraint block), in the
    unknowns (a_1, b_1, ..., a_E, b_E).
    """
    _check_secular_graph(graph)
    if k == 0.0:
        raise SecularError("secular matrix is not defined at k = 0")
    ne = graph.num_edges
    S = np.zeros((2 * ne, 2 * ne), dtype=complex)

    def value_row(m, end):
        e = graph.edges[m - 1]
        z = np.exp(1j * k * e.length)
        cols = np.array([2 * (m - 1), 2 * (m - 1) + 1])
        if end == 0:  # source: a + b e^{ikl}
            return cols, np.array([1.0, z])
        return cols, np.array([z, 1.0])

    def outward_row(m, end):
        e = graph.edges[m - 1]
        z = np.exp(1j * k * e.length)
        cols = np.array([2 * (m - 1), 2 * (m - 1) + 1])
        if end == 0:  # +psi'(0) = ik (a - b e^{ikl})
            return cols, 1j * k * np.array([1.0, -z])
        return cols, 1j * k * np.array([-z, 1.0])  # -psi'(l) = ik (b - a e^{ikl})

    r = 0
    for n in range(1, graph.num_vertices + 1):
        ends = graph.incident_ends(n)
        anchor = ends[0]
        cond = graph.vertices[n - 1]
        if cond.is_dirichlet:
            cols, vals = value_row(*anchor)
            S[r, cols] += vals
        else:
            for (m, end) in ends:
                cols, vals = outward_row(m, end)
                S[r, cols] += vals
            if cond.alpha != 0.0:
                cols, vals = value_row(*anchor)
                S[r, cols] += cond.alpha * vals
            S[r] /= k  # keeps Sigma proportional to the symbolic determinant
        r += 1
        ca, va = value_row(*anchor)
        for other in ends[1:]:
            co, vo = value_row(*other)
            S[r, ca] += va
            S[r, co] -= vo
            r += 1
    return S


def secular_function(graph: MetricGraph, k_ref: float = 1.0) -> Callable[[float], float]:
    """Real-normalized secular determinant Sigma(k) as a callable.

    det S(k) is multiplied by exp(-ik sum_m l_m) and by one constant
    unit-modulus phase fixed at a reference wavenumber; realness of the
    result is then asserted, not assumed.  (In the a_m e^{ikx} +
    b_m e^{ik(l_m - x)} parameterization each edge contributes one factor
    e^{ik l_m} to the determinant, so the full total length appears here.)
    """
    _check_secular_graph(graph)
    total = sum(e.length for e in graph.edges)

    def raw(k: float) -> complex:
        return np.linalg.det(secular_matrix(graph, k)) * np.exp(-1j * k * total)

    phase = None
    for kr in (k_ref, 0.5 * k_ref + 0.25, 2.0 * k_ref + 0.37):
        z = raw(kr)
        if abs(z) > 1e-12:
            phase = z / abs(z)
            break
    if phase is None:
        raise SecularError("could not calibrate the secular normalization phase")

    def sigma(k: float) -> float:
        z = raw(k) / phase
        if abs(z.imag) > 1e-10 * max(1.0, abs(z)):
            raise SecularError(
                f"secular determinant did not normalize to a real value at k={k} "
                f"(imaginary part {z.imag:.2e})")
        return z.real

    return sigma


def secular_det(graph: MetricGraph, k: float) -> float:
    return secular_function(graph)(k)


def find_spectrum_secular(graph: MetricGraph, k_max: float):
    """Zeros of Sigma on (0, k_max] with multiplicity flags.

    Sign-change-bracketed zeros are bisected to 1e-10.  Even-multiplicity
    zeros leave no sign change; they are detected as valleys of |Sigma|
    below 1e-8 of the scan scale, refined by golden-section search, and
    flagged with multiplicity 2.  Deeper even multiplicities may be missed.
    """
    if k_max <= 0:
        raise SecularError("k_max must be positive")
    sigma = secular_function(graph)
    total = sum(e.length for e in graph.edges)
    n_samples = max(400, int(16.0 * k_max * total / math.pi))
    ks = np.linspace(k_max / n_samples, k_max, n_samples)
    vals = np.array([sigma(k) for k in ks])
    scale = np.max(np.abs(vals))

    zeros = []
    for i in range(len(ks) - 1):
        if vals[i] == 0.0:
            zeros.append((float(ks[i]), 1))
        elif vals[i] * vals[i + 1] < 0.0:
            a, b = ks[i], ks[i + 1]
            fa = vals[i]
            while b - a > 1e-10:
                c = 0.5 * (a + b)
                fc = sigma(c)
                if fc == 0.0:
                    a = b = c
                elif fa * fc < 0.0:
                    b = c
                else:
                    a, fa = c, fc
            zeros.append((0.5 * (a + b), 1))
    if vals[-1] == 0.0:
        zeros.append((float(ks[-1]), 1))

    # valleys of |Sigma| without a sign change: candidate double zeros
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    absvals = np.abs(vals)
    for i in range(1, len(ks) - 1):
        if not (absvals[i] < absvals[i - 1] and absvals[i] <= absvals[i + 1]):
            continue
        if vals[i - 1] * vals[i + 1] < 0.0 or vals[i] * vals[i + 1] < 0.0 \
                or vals[i - 1] * vals[i] < 0.0:
            continue
        a, b = ks[i - 1], ks[i + 1]
        x1 = b - gold * (b - a)
        x2 = a + gold * (b - a)
        f1, f2 = abs(sigma(x1)), abs(sigma(x2))
        while b - a > 1e-10:
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - gold * (b - a)
                f1 = abs(sigma(x1))
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + gold * (b - a)
                f2 = abs(sigma(x2))
        k_star = 0.5 * (a + b)
        if abs(sigma(k_star)) <= 1e-8 * scale:
            if all(abs(k_star - kz) > 1e-6 for kz, _ in zeros):
                zeros.append((k_star, 2))
    zeros.sort()
    return zeros


# ---------------------------------------------------------------------------
# stationary NLS

def _default_f(z):
    return 2.0 * z**3


def _default_fprime(z):
    return 6.0 * z**2


@dataclass(frozen=True, eq=False)
class NLSProblem:
    """Stationary NLS data: bundle, nonlinearity power, f and f'.

    The default cubic pair f(z) = 2 z^3, f'(z) = 6 z^2 is the sigma = 1
    case.  f(0) = 0 is required so that linear eigenfunctions continue from
    the zero solution.
    """

    bundle: OperatorBundle
    sigma: float = 1.0
    f: Callable = _default_f
    fprime: Callable = _default_fprime

    def __post_init__(self):
        if abs(float(self.f(0.0))) > 0.0:
            raise ValueError("nonlinearity must satisfy f(0) = 0")

    @cached_property
    def jacobian_pattern(self):
        """CSC arrays (indptr, row indices, column of each entry, lap_vc
        values, interp_zero values) on the union pattern of lap_vc and
        interp_zero, shared by every Jacobian of the problem."""
        L = self.bundle.lap_vc.tocoo()
        P = self.bundle.interp_zero.tocoo()
        # real parts carry lap_vc, imaginary parts interp_zero; entries at
        # the same position are summed, and none is dropped
        tagged = sp.csc_matrix((np.concatenate([L.data, 1j * P.data]),
                                (np.concatenate([L.row, P.row]),
                                 np.concatenate([L.col, P.col]))), shape=L.shape)
        cols = np.repeat(np.arange(L.shape[1]), np.diff(tagged.indptr))
        return (tagged.indptr, tagged.indices, cols,
                tagged.data.real.copy(), tagged.data.imag.copy())


def nls_problem(bundle: OperatorBundle, sigma: float = 1.0,
                f=None, fprime=None) -> NLSProblem:
    if (f is None) != (fprime is None):
        raise ValueError("provide both f and fprime, or neither")
    if f is None:
        if sigma == 1.0:
            return NLSProblem(bundle)

        def f(z, _s=sigma):
            return (_s + 1.0) * np.abs(z) ** (2.0 * _s) * z

        def fprime(z, _s=sigma):
            return (_s + 1.0) * (2.0 * _s + 1.0) * np.abs(z) ** (2.0 * _s)

    return NLSProblem(bundle, sigma, f, fprime)


def nls_residual(problem: NLSProblem, psi: np.ndarray, lam: float) -> np.ndarray:
    b = problem.bundle
    return b.lap_vc @ psi + b.interp_zero @ (lam * psi + problem.f(psi))


def nls_jacobian(problem: NLSProblem, psi: np.ndarray, lam: float):
    """lap_vc + interp_zero diag(f'(psi) + lam), as CSC on the problem's fixed pattern."""
    indptr, rows, cols, lap, interp = problem.jacobian_pattern
    d = problem.fprime(psi) + lam
    return sp.csc_matrix((lap + interp * d[cols], rows, indptr),
                         shape=problem.bundle.lap_vc.shape)


@dataclass
class NewtonResult:
    psi: np.ndarray
    iterations: int
    residual_norm: float


def solve_newton(problem: NLSProblem, psi0: np.ndarray, lam: float,
                 tol: float = 1e-10, max_iter: int = 50) -> NewtonResult:
    """Newton iteration for a standing wave at fixed frequency.

    Plain Newton steps; a single halving backtrack is applied only when a
    step increases the residual norm.
    """
    psi = np.asarray(psi0, dtype=float).copy()
    res = nls_residual(problem, psi, lam)
    rnorm = np.linalg.norm(res, np.inf)
    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return NewtonResult(psi, it - 1, rnorm)
        try:
            fact = linalg.factorize(nls_jacobian(problem, psi, lam))
        except linalg.SingularMatrixError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {it} (possible bifurcation "
                f"point): {exc}") from exc
        step = fact.solve(res)
        trial = psi - step
        trial_res = nls_residual(problem, trial, lam)
        trial_norm = np.linalg.norm(trial_res, np.inf)
        if trial_norm > rnorm:
            trial = psi - 0.5 * step
            trial_res = nls_residual(problem, trial, lam)
            trial_norm = np.linalg.norm(trial_res, np.inf)
        psi, res, rnorm = trial, trial_res, trial_norm
    if rnorm <= tol:
        return NewtonResult(psi, max_iter, rnorm)
    raise NewtonError(f"Newton did not reach {tol:.1e} in {max_iter} iterations "
                      f"(residual {rnorm:.2e})")
