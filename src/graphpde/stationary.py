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
    if graph.has_potential():
        raise SecularError("secular determinant requires zero potentials")


def secular_matrix(graph: MetricGraph, k) -> np.ndarray:
    """Vertex-condition system for plane-wave edge solutions at wavenumber k.

    Edge m carries psi_m = a_m e^{ikx} + b_m e^{ik(l_m - x)}, so with
    z_m = e^{ikl_m} its end values are F = (a + b z, a z + b) and its
    outward derivatives F' = ik (a - b z, b - a z), source end first.
    S(k) is A F + B F' for the graph's vertex_conditions (A, B), in the
    unknowns (a_1, b_1, ..., a_E, b_E): the same rows in the same order
    as the discretized constraint block.  The flux rows are divided by k,
    which keeps Sigma proportional to the symbolic determinant.  A scalar
    k gives one (2E, 2E) matrix; a 1-D array of K wavenumbers gives the
    stack (K, 2E, 2E).
    """
    _check_secular_graph(graph)
    k = np.asarray(k, dtype=float)
    if np.any(k == 0.0):
        raise SecularError("secular matrix is not defined at k = 0")
    ks = k.reshape(-1)
    ne = graph.num_edges
    rows, edges, (a0, a1, b0, b1) = graph.vertex_conditions.edge_blocks
    z = np.exp(1j * ks[:, None] * np.array([e.length for e in graph.edges]))[:, edges]
    ik = 1j * ks[:, None]
    # the a and b columns of A [F_source, F_target] + B [F'_source, F'_target]
    # per (row, edge) block; no product of two general complex numbers is
    # formed, so fused multiply-adds cannot change the last bits
    S = np.zeros((ks.size, 2 * ne, 2 * ne), dtype=complex)
    S[:, rows, 2 * edges] = ik * b0 + ik * -(b1 * z) + a0 + a1 * z
    S[:, rows, 2 * edges + 1] = ik * -(b0 * z) + ik * b1 + a0 * z + a1
    S[:, np.unique(rows[b0 + b1 > 0])] /= ks[:, None, None]  # the flux rows
    return S.reshape(k.shape + S.shape[1:])


# entries in one stacked batch of secular (2 MiB) or Dirichlet-to-Neumann
# matrices; longer k-grids are evaluated in chunks, which bounds memory on
# large graphs
_SECULAR_BATCH_ENTRIES = 1 << 17


def _secular_batches(graph: MetricGraph, ks: np.ndarray, fn) -> np.ndarray:
    """fn(k_chunk, secular_matrix(graph, k_chunk)) over chunks of the 1-D ks, concatenated."""
    step = max(1, _SECULAR_BATCH_ENTRIES // (2 * graph.num_edges) ** 2)
    return np.concatenate([fn(ks[i:i + step], secular_matrix(graph, ks[i:i + step]))
                           for i in range(0, max(ks.size, 1), step)])


def secular_singular_values(graph: MetricGraph, ks) -> np.ndarray:
    """Singular values of S(k), descending, for the 1-D array ks: shape (K, 2E).

    One stacked svd per batch; sigma_min / sigma_max is the scale-free
    distance of S(k) from singularity.
    """
    return _secular_batches(graph, np.asarray(ks, dtype=float),
                            lambda _, S: np.linalg.svd(S, compute_uv=False))


def secular_function(graph: MetricGraph) -> Callable:
    """Real-normalized secular determinant Sigma(k) as a callable.

    det S(k) is multiplied by exp(-ik sum_m l_m) and by one constant
    unit-modulus phase, fixed at k = 1 (or 0.75, 2.37); realness of the
    result is then asserted, not assumed.  (In the a_m e^{ikx} +
    b_m e^{ik(l_m - x)} parameterization each edge contributes one factor
    e^{ik l_m} to the determinant, so the full total length appears here.)
    The imaginary part must stay within 1e-10 of max(1, prod_r |S_r(k)|),
    Hadamard's bound on |det S(k)|, which is the scale of the LU roundoff.
    The callable takes a scalar k (returns a float) or an array of
    wavenumbers (returns an array of the same shape), evaluated as stacked
    determinants.
    """
    _check_secular_graph(graph)
    total = sum(e.length for e in graph.edges)

    def raw(ks, S):
        d, e = np.linalg.det(S), np.exp(-1j * ks * total)
        # the product in real arithmetic: numpy's vectorized complex multiply
        # may fuse multiply-adds, which makes the last bits CPU-dependent
        z = np.empty_like(d)
        z.real = d.real * e.real - d.imag * e.imag
        z.imag = d.real * e.imag + d.imag * e.real
        return z

    phase = None
    for z in _secular_batches(graph, np.array([1.0, 0.75, 2.37]), raw):
        if abs(z) > 1e-12:
            phase = z / abs(z)
            break
    if phase is None:
        raise SecularError("could not calibrate the secular normalization phase")

    def normalized(ks, S):
        z = raw(ks, S) / phase
        # Hadamard's bound prod_r |S_r|; einsum on the real and imaginary
        # views makes no stack-sized temporaries
        rows = (np.einsum("kij,kij->ki", S.real, S.real)
                + np.einsum("kij,kij->ki", S.imag, S.imag))
        hadamard = np.prod(np.sqrt(rows), axis=-1)
        bad = np.flatnonzero(np.abs(z.imag) > 1e-10 * np.maximum(1.0, hadamard))
        if bad.size:
            i = bad[0]
            raise SecularError(
                f"secular determinant did not normalize to a real value at k={ks[i]} "
                f"(imaginary part {z[i].imag:.2e})")
        return z.real

    def sigma(k):
        k = np.asarray(k, dtype=float)
        vals = _secular_batches(graph, k.reshape(-1), normalized).reshape(k.shape)
        return float(vals) if k.ndim == 0 else vals

    return sigma


def secular_det(graph: MetricGraph, k: float) -> float:
    return secular_function(graph)(k)


# the fraction at which every edge is split: it is irrational, so no
# Dirichlet wavenumber of a sub-edge is one of its whole edge
_SPLIT = (3.0 - math.sqrt(5.0)) / 2.0


def _eigenvalue_counts(split, ks: np.ndarray) -> np.ndarray:
    """N(k) at the 1-D ks for the split graph of find_spectrum_secular, given
    as its sub-edge lengths, B, edge weights and alpha."""
    sub, B, weights, alpha = split
    nf, ne = B.shape[0], weights.size
    n = nf + ne
    diag = np.arange(n)

    def count(k):
        kl = k[:, None] * sub
        cot, csc = -k[:, None] / np.tan(kl), k[:, None] / np.sin(kl)
        M = np.zeros((k.size, n, n))
        M[:, :nf, nf:] = (B * csc[:, None, :]).reshape(k.size, nf, ne, 2).sum(axis=3)
        M[:, nf:, :nf] = M[:, :nf, nf:].transpose(0, 2, 1)
        M[:, diag, diag] = np.hstack([cot @ B.T + alpha,
                                      weights * cot.reshape(k.size, ne, 2).sum(axis=2)])
        return (np.floor(kl / math.pi).sum(axis=1).astype(int)
                + np.count_nonzero(np.linalg.eigvalsh(M) > 0.0, axis=1))

    step = max(1, _SECULAR_BATCH_ENTRIES // n ** 2)
    return np.concatenate([count(ks[i:i + step]) for i in range(0, ks.size, step)])


def find_spectrum_secular(graph: MetricGraph, k_max: float):
    """Zeros of Sigma on (k_lo, k_max] with their multiplicities, as [(k, m)].

    Every edge is split at the fraction (3 - sqrt 5) / 2 by a degree-2
    Kirchhoff vertex, which leaves the spectrum unchanged.  The number of
    eigenvalues k'^2 with k' <= k is then N(k) = sum_c floor(k l_c / pi)
    + n_+(M(k)) over the sub-edges c of lengths l_c, where n_+ counts the
    positive eigenvalues of the Dirichlet-to-Neumann matrix M(k) on the
    non-Dirichlet vertices (Friedlander, Israel J. Math. 146, 2005): a
    sub-edge of weight w adds w k [[-cot k l_c, csc k l_c], [csc k l_c,
    -cot k l_c]] on its two ends, and alpha sits on the diagonal.  k = 0
    is excluded: at k_lo = 1e-4 / sqrt(min l_c * mean l_c) the eigenvalue
    of M that counts a constant state, about k^2 mean(l_c), stands clear
    of the roundoff of M, about 1e-16 / min(l_c).  Every interval with a
    positive count is halved, all midpoints counted in one batch, until it
    is 1e-10 wide and holds one zero, at its midpoint, with the count as
    multiplicity.  A zero on a pole of M (k l_c a multiple of pi) may be
    bracketed only to about 1e-8.  Potentials are refused.
    """
    if not 0.0 < k_max < math.inf:
        raise SecularError(f"k_max must be positive and finite, got {k_max}")
    _check_secular_graph(graph)
    vc, ne = graph.vertex_conditions, graph.num_edges
    flux = vc.AB.toarray()[vc.first_row]
    free = flux[:, 2 * ne:].any(axis=1)  # a Dirichlet row carries no flux
    B = flux[free, 2 * ne:]
    weights = B.sum(axis=0).reshape(ne, 2).max(axis=1)
    # an edge with two Dirichlet ends carries no flux coefficient; its
    # split vertex is a block of its own, whose count ignores the weight
    weights[weights == 0.0] = 1.0
    sub = np.outer([e.length for e in graph.edges], [_SPLIT, 1.0 - _SPLIT]).ravel()
    split = (sub, B, weights, flux[free, vc.anchor[free]])
    a = np.array([1e-4 / math.sqrt(np.min(sub) * np.mean(sub))])
    if a[0] >= k_max:
        return []
    b = np.array([float(k_max)])
    na, nb = np.split(_eigenvalue_counts(split, np.concatenate([a, b])), 2)
    while a.size and b[0] - a[0] > 1e-10:
        m = 0.5 * (a + b)
        nm = _eigenvalue_counts(split, m)
        a, b = np.column_stack([a, m]).ravel(), np.column_stack([m, b]).ravel()
        na, nb = np.column_stack([na, nm]).ravel(), np.column_stack([nm, nb]).ravel()
        keep = nb > na
        a, b, na, nb = a[keep], b[keep], na[keep], nb[keep]
    # roundoff at a multiple zero that is also a midpoint can split its
    # count between two touching intervals: merge them
    first = np.flatnonzero(a != np.r_[0.0, b][:-1])
    last = np.flatnonzero(b != np.r_[a, math.inf][1:])
    return [(float(k), int(mult)) for k, mult in
            zip(0.5 * (a[first] + b[last]), nb[last] - na[first])]


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
