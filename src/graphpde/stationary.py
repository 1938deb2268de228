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

    Eigenvectors have unit mass under the graph quadrature, their largest
    entry positive, and are extended-grid columns satisfying the constraint
    rows.  A shift on the spectrum raises linalg.SingularMatrixError.
    """
    lam, vecs = linalg.generalized_eigs(bundle.lap_vc, bundle.interp_zero,
                                        m, sigma=sigma)
    ctx = make_context(bundle)
    return lam, vecs / np.sqrt([mass(ctx, v) for v in vecs.T])


# ---------------------------------------------------------------------------
# numeric secular determinant

class SecularError(ValueError):
    pass


def _check_secular_graph(graph: MetricGraph):
    if graph.has_potential():
        raise SecularError("secular determinant requires zero potentials")


def secular_matrix(graph: MetricGraph, k) -> np.ndarray:
    """Vertex-condition system S(k) = [A B] @ W(k) at wavenumber k.

    Edge m carries psi_m = c_m cos kx + s_m sin(kx) / k; with C = cos k l_m
    and S = sin k l_m, the trace matrix W(k) (4E x 2E, unknowns c_1, s_1,
    ..., c_E, s_E) holds its end values F = (c, c C + s S / k) and outward
    derivatives F' = (s, c k S - s C), source end first.  S(k) is real and
    has the rows of the discretized vc_rows = [A B] @ end_traces, the flux
    rows divided by k to keep Sigma proportional to the symbolic
    determinant.  A scalar k gives one (2E, 2E) matrix, a 1-D array of K
    wavenumbers the stack (K, 2E, 2E), equal to the scalar calls bit for bit.
    """
    _check_secular_graph(graph)
    k = np.asarray(k, dtype=float)
    if np.any(k == 0.0):
        raise SecularError("secular matrix is not defined at k = 0")
    ks = k.reshape(-1)
    vc, ne = graph.vertex_conditions, graph.num_edges
    kl = np.outer([e.length for e in graph.edges], ks)
    cos, sin = np.cos(kl), np.sin(kl)
    # W(k) as (4E, K, 2E): end rows of edge m, then the K wavenumbers
    m = np.arange(ne)
    W = np.zeros((4 * ne, ks.size, 2 * ne))
    W[2 * m, :, 2 * m] = 1.0
    W[2 * m + 1, :, 2 * m], W[2 * m + 1, :, 2 * m + 1] = cos, sin / ks
    W[2 * ne + 2 * m, :, 2 * m + 1] = 1.0
    W[2 * ne + 2 * m + 1, :, 2 * m], W[2 * ne + 2 * m + 1, :, 2 * m + 1] = ks * sin, -cos
    # the sparse product sums each row in a fixed order, whatever the batch
    S = (vc.AB @ W.reshape(4 * ne, -1)).reshape(2 * ne, ks.size, 2 * ne).transpose(1, 0, 2)
    flux = [r for r, v in zip(vc.first_row, graph.vertices) if not v.is_dirichlet]
    S[:, flux] /= ks[:, None, None]
    return S.reshape(k.shape + S.shape[1:])


# entries in one stacked batch of secular (1 MiB) or Dirichlet-to-Neumann
# matrices; longer k-grids are evaluated in chunks, which bounds memory on
# large graphs
_SECULAR_BATCH_ENTRIES = 1 << 17


def _batched(fn, ks: np.ndarray, n: int) -> np.ndarray:
    """fn over chunks of the 1-D ks, each with _SECULAR_BATCH_ENTRIES / n^2 ks, concatenated."""
    step = max(1, _SECULAR_BATCH_ENTRIES // n ** 2)
    return np.concatenate([fn(ks[i:i + step]) for i in range(0, max(ks.size, 1), step)])


def secular_singular_values(graph: MetricGraph, ks) -> np.ndarray:
    """Singular values of S(k), descending, for the 1-D array ks: shape (K, 2E).

    One stacked svd per batch; sigma_min / sigma_max is the scale-free
    distance of S(k) from singularity.
    """
    return _batched(lambda k: np.linalg.svd(secular_matrix(graph, k), compute_uv=False),
                    np.asarray(ks, dtype=float), 2 * graph.num_edges)


def secular_function(graph: MetricGraph) -> Callable:
    """Real-normalized secular determinant Sigma(k) = s (2k)^E det S(k) as a callable.

    (2k)^E undoes the factor 1 / (2k) per edge of the cos/sin basis against
    the plane waves a e^{ikx} + b e^{ik(l - x)}.  det S(k) comes from one
    Householder QR: prod sign(R_ii), times -1 per nonzero reflector, times
    a magnitude summed in logs, so that no partial product overflows.  The
    sign s makes the first of Sigma(1), Sigma(0.75) and Sigma(2.37) above
    1e-12 in size positive.  The callable takes a scalar k (returns a float)
    or an array of wavenumbers (returns an array of the same shape).
    """
    _check_secular_graph(graph)
    ne = graph.num_edges

    def scaled_det(ks):
        h, tau = np.linalg.qr(secular_matrix(graph, ks), mode="raw")
        # a contiguous copy: a strided reduction may round differently
        # for a batch than for one k
        r = np.diagonal(h, axis1=-2, axis2=-1).copy()
        sign = np.prod(np.sign(r), axis=-1) * (-1.0) ** np.count_nonzero(tau, axis=-1)
        return sign * np.exp(ne * np.log(2.0 * ks) + np.log(np.abs(r)).sum(axis=-1))

    for v in _batched(scaled_det, np.array([1.0, 0.75, 2.37]), 2 * ne):
        if abs(v) > 1e-12:
            s = math.copysign(1.0, v)
            break
    else:
        raise SecularError("could not calibrate the secular normalization sign")

    def sigma(k):
        k = np.asarray(k, dtype=float)
        vals = s * _batched(scaled_det, k.reshape(-1), 2 * ne).reshape(k.shape)
        return float(vals) if k.ndim == 0 else vals

    return sigma


def secular_det(graph: MetricGraph, k: float) -> float:
    return secular_function(graph)(k)


# the fraction at which every edge is split: it is irrational, so no
# Dirichlet wavenumber of a sub-edge is one of its whole edge
_SPLIT = (3.0 - math.sqrt(5.0)) / 2.0

# the width of the bracket that certifies a zero of find_spectrum_secular
_SECULAR_TOL = 1e-10


def _dtn_split(graph: MetricGraph):
    """The split graph of find_spectrum_secular: its sub-edge lengths, B,
    edge weights and alpha."""
    _check_secular_graph(graph)
    vc, ne = graph.vertex_conditions, graph.num_edges
    flux = vc.AB.toarray()[vc.first_row]
    free = flux[:, 2 * ne:].any(axis=1)  # a Dirichlet row carries no flux
    weights = np.array([e.weight for e in graph.edges])
    sub = np.outer([e.length for e in graph.edges], [_SPLIT, 1.0 - _SPLIT]).ravel()
    return sub, flux[free, 2 * ne:], weights, flux[free, vc.anchor[free]]


def _eigenvalue_counts(split, ks: np.ndarray):
    """N(k) at the 1-D ks for a split graph of _dtn_split, and the
    eigenvalues of M(k) in ascending order, one row per k."""
    sub, B, weights, alpha = split
    nf, ne = B.shape[0], weights.size
    n = nf + ne
    diag = np.arange(n)

    def dtn_eigenvalues(k):
        kl = k[:, None] * sub
        cot, csc = -k[:, None] / np.tan(kl), k[:, None] / np.sin(kl)
        M = np.zeros((k.size, n, n))
        M[:, :nf, nf:] = (B * csc[:, None, :]).reshape(k.size, nf, ne, 2).sum(axis=3)
        M[:, nf:, :nf] = M[:, :nf, nf:].transpose(0, 2, 1)
        M[:, diag, diag] = np.hstack([cot @ B.T + alpha,
                                      weights * cot.reshape(k.size, ne, 2).sum(axis=2)])
        return np.linalg.eigvalsh(M)

    mu = _batched(dtn_eigenvalues, ks, n)
    floor = np.floor(ks[:, None] * sub / math.pi).sum(axis=1).astype(int)
    return floor + (mu > 0.0).sum(axis=1), mu


def eigenvalue_count(graph: MetricGraph, k):
    """Friedlander's N(k): the number of eigenvalues lambda = -k'^2 of the
    graph with lambda >= -k^2, counted with multiplicity, those with
    lambda >= 0 included.

    k is a positive wavenumber or a 1-D array of them (an int or an int
    array back).  The count is find_spectrum_secular's, from the same split
    graph and stacked eigvalsh batch.  Potentials are refused.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim > 1 or not np.all((k > 0.0) & (k < math.inf)):
        raise SecularError("k must be a positive finite wavenumber or a 1-D array of them")
    counts = _eigenvalue_counts(_dtn_split(graph), k.reshape(-1))[0]
    return int(counts[0]) if k.ndim == 0 else counts


def _secular_k_lo(split) -> float:
    """The lower end of find_spectrum_secular's scan for a split graph of _dtn_split."""
    return 1e-4 / math.sqrt(np.min(split[0]) * np.mean(split[0]))


def _secular_cuts(a, b, c, cap):
    """The cuts t1 <= t2 of a bracket (a, b, c), and the cut outside [t1, t2]: a, b or None."""
    (ka, na, mua), (kb, nb, mub) = a, b
    w, m = kb - ka, nb - na
    if w <= _SECULAR_TOL:  # done: cut on its ends, so passed on whole
        return ka, kb, None
    cap = max(cap, 0.5 * w)
    pos_a = np.count_nonzero(mua > 0.0)
    if na - pos_a != nb - np.count_nonzero(mub > 0.0):  # a pole inside: halve
        return max(0.5 * (ka + kb), ka), kb, None
    # h, the mean of the m eigenvalues at or below 0 at a that cross 0 inside
    crossing = np.repeat([False, True, False], [mua.size - pos_a - m, m, pos_a])
    ha, hb, hc = (np.where(crossing, p[2], 0.0).sum() / m if p else None for p in (a, b, c))
    # without an estimate inside: the secant through a and b
    s, delta = ka - ha * w / (hb - ha), w / 16.0
    if c is not None:
        # the closest two of a, b and c: a secant, corrected by the quadratic through the third
        pa, pb, pc = (ka, ha), (kb, hb), (c[0], hc)
        near, far = (pa, pb) if c[0] < ka else (pb, pa)
        (x0, h0), (x1, h1), (x2, h2) = (pc, near, far) if abs(c[0] - near[0]) < w else (pa, pb, pc)
        d01 = (h1 - h0) / (x1 - x0)
        d012 = ((h2 - h1) / (x2 - x1) - d01) / (x2 - x0)
        lin = x1 - h1 / d01
        corr = d012 * (lin - x0) * (lin - x1) / d01
        if ka < lin - corr < kb:
            s, delta = lin - corr, 0.5 * abs(corr)
    delta = min(max(delta, _SECULAR_TOL / 8.0), w / 4.0)
    t1, t2 = max(min(s - delta, ka + cap), ka), min(max(s + delta, kb - cap), kb)
    return t1, t2, a if t1 > ka and (t2 == kb or s - ka < kb - s) else b


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
    of the roundoff of M, about 1e-16 / min(l_c).  So the N(k_lo)
    eigenvalues with lambda >= -k_lo^2 are not located; eigenvalue_count
    gives N(k_max), and N(k_max) less the multiplicities returned is their
    number.

    Every interval [a, b] whose count rises by m is cut, the cuts of all
    intervals counted in one stacked eigvalsh batch per round, until it is
    1e-10 wide and holds one zero, at its midpoint, with the count as
    multiplicity.  M(k) grows with k between its poles (k l_c a multiple
    of pi).  So when [a, b] holds no pole, the mean h(k) of the m
    eigenvalues at or below 0 at a that cross 0 inside rises through 0,
    smoothly at a zero of any multiplicity.  The zero of h is estimated by
    the secant through the closest two of a, b and the last cut outside
    [a, b], corrected by the quadratic through all three (or by the secant
    through a and b when that lands outside), and two cuts straddle the
    estimate by half the correction (by (b - a) / 16 without one).  An
    interval that holds a pole is halved.  Every cut is pulled within
    bisection's width of the ends, the safeguard of the ITP method
    (Oliveira and Takahashi, ACM TOMS 47, 2020), so the scan takes no more
    rounds than bisection would.  Within about 1e-8 of a pole the counts
    are roundoff, so a zero there may be bracketed only that well; a count
    out of order is clipped between its interval's, and the multiplicities
    always sum to N(k_max) - N(k_lo).  Potentials are refused.
    """
    if not 0.0 < k_max < math.inf:
        raise SecularError(f"k_max must be positive and finite, got {k_max}")
    split = _dtn_split(graph)
    k_lo = _secular_k_lo(split)
    if k_lo >= k_max:
        return []
    a, b = zip((k_lo, float(k_max)), *_eigenvalue_counts(split, np.array([k_lo, k_max])))
    if a[1] == b[1]:
        return []
    # the brackets (a, b, c) in order: ends a and b, points (k, N(k), eigenvalues of M(k)),
    # and the last cut c outside [a, b] or None; one no wider than 1e-10 is done, and kept
    brackets = [(a, b, None)]
    width = _SECULAR_TOL * 2.0 ** math.ceil(math.log2((k_max - k_lo) / _SECULAR_TOL))
    ulps = 8.0 * np.spacing(float(k_max))
    while any(b[0] - a[0] > _SECULAR_TOL for a, b, _ in brackets):
        # no piece wider than bisection's width after this round, less a few
        # ulps for the cuts' rounding, or than half its interval: a rounding
        # excess is halved each round and does not add up
        width = max(0.5 * width, _SECULAR_TOL)
        with np.errstate(all="ignore"):  # a zero slope or an overflow: no estimate inside
            cuts = [_secular_cuts(a, b, c, width - ulps) for a, b, c in brackets]
        new = [cut[i] for i in (0, 1) for br, cut in zip(brackets, cuts) if cut[i] != br[i][0]]
        found = {k: (k, n, mu) for k, n, mu in zip(new, *_eigenvalue_counts(split, np.array(new)))}
        pieces = []
        for (a, b, _), (t1, t2, mid) in zip(brackets, cuts):
            (_, n1, mu1), (_, n2, mu2) = found.get(t1, a), found.get(t2, b)
            # N is nondecreasing: a count out of order is roundoff within
            # about 1e-8 of a pole of M, and is clipped so that the pieces'
            # counts still rise by m in all
            p1 = (t1, min(max(n1, a[1]), b[1]), mu1)
            p2 = (t2, min(max(n2, p1[1]), b[1]), mu2)
            # the pieces [a, t1], [t1, t2] and [t2, b]; the cut outside each
            # is the other cut for the outer two, mid for the middle one,
            # and none after a halving, whose pieces may lie across a pole
            pieces += [(a, p1, mid and p2), (p1, p2, mid), (p2, b, mid and p1)]
        brackets = [br for br in pieces if br[1][1] > br[0][1]]
    a, b, na, nb = np.array([(a[0], b[0], a[1], b[1]) for a, b, _ in brackets]).T
    # roundoff at a multiple zero that is also a cut can split its count
    # between two touching intervals: merge them
    first = np.flatnonzero(a != np.r_[0.0, b][:-1])
    last = np.flatnonzero(b != np.r_[a, math.inf][1:])
    return [(float(k), int(mult)) for k, mult in
            zip(0.5 * (a[first] + b[last]), nb[last] - na[first])]


# ---------------------------------------------------------------------------
# stationary NLS

@dataclass(frozen=True, eq=False)
class NLSProblem:
    """Stationary NLS data: bundle, nonlinearity power, f and f'.

    Give both f and fprime or neither; left out, they are the power law
    (sigma + 1) |z|^(2 sigma) z and its derivative, for any finite sigma >= 0
    (ValueError otherwise).  f(0) = 0 is required, and NaN fails it, so that
    linear eigenfunctions continue from the zero solution.
    """

    bundle: OperatorBundle
    sigma: float = 1.0
    f: Callable | None = None
    fprime: Callable | None = None

    def __post_init__(self):
        if (self.f is None) != (self.fprime is None):
            raise ValueError("provide both f and fprime, or neither")
        s = self.sigma
        if not (math.isfinite(s) and s >= 0.0):
            raise ValueError(f"sigma must be finite and at least 0, got {s}")
        if self.f is None:
            object.__setattr__(self, "f", lambda z: (s + 1.0) * np.abs(z) ** (2.0 * s) * z)
            object.__setattr__(self, "fprime",
                               lambda z: (s + 1.0) * (2.0 * s + 1.0) * np.abs(z) ** (2.0 * s))
        if float(self.f(0.0)) != 0.0:
            raise ValueError("nonlinearity must satisfy f(0) = 0")

    @cached_property
    def jacobian_pattern(self):
        """Canonical CSC arrays (indptr, row indices, column of each entry,
        lap_vc values, interp_zero values) on the union pattern of lap_vc
        and interp_zero, shared by every Jacobian of the problem."""
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

    def jacobian_values(self, psi, lam):
        """The values of nls_jacobian(self, psi, lam), in jacobian_pattern's order."""
        _, _, cols, lap, interp = self.jacobian_pattern
        return lap + interp * (self.fprime(psi) + lam)[cols]


def nls_problem(bundle: OperatorBundle, sigma: float = 1.0,
                f=None, fprime=None) -> NLSProblem:
    return NLSProblem(bundle, sigma, f, fprime)


def nls_residual(problem: NLSProblem, psi: np.ndarray, lam: float) -> np.ndarray:
    b = problem.bundle
    return b.lap_vc @ psi + b.interp_zero @ (lam * psi + problem.f(psi))


def nls_jacobian(problem: NLSProblem, psi: np.ndarray, lam: float):
    """lap_vc + interp_zero diag(f'(psi) + lam): problem.jacobian_values as CSC on its pattern."""
    indptr, rows, *_ = problem.jacobian_pattern
    return sp.csc_matrix((problem.jacobian_values(psi, lam), rows, indptr),
                         shape=problem.bundle.lap_vc.shape)


@dataclass
class NewtonResult:
    psi: np.ndarray
    iterations: int
    residual_norm: float


def newton(residual: Callable, factor: Callable, u0, tol: float = 1e-10,
           max_iter: int = 50) -> NewtonResult:
    """Newton iteration for residual(u) = 0, factor(u) the LU of its Jacobian.

    The package's one Newton loop, run by solve_newton and by continuation's
    corrector and seed polish.  Plain Newton steps, one halving backtrack
    when a step raises the residual norm.  A non-finite residual or Jacobian
    raises NewtonError, an exactly singular Jacobian SingularJacobianError,
    and a residual above tol after max_iter steps NewtonError.
    """
    psi = np.asarray(u0, dtype=float).copy()
    res = residual(psi)
    rnorm = np.linalg.norm(res, np.inf)
    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return NewtonResult(psi, it - 1, rnorm)
        if not math.isfinite(rnorm):
            raise NewtonError(f"non-finite residual at iteration {it}")
        try:
            fact = factor(psi)
        except linalg.SingularMatrixError as exc:
            raise SingularJacobianError(f"singular Jacobian at iteration {it} (possible "
                                        f"bifurcation point): {exc}") from exc
        except linalg.NonFiniteMatrixError as exc:
            raise NewtonError(f"non-finite Jacobian at iteration {it}") from exc
        step = fact.solve(res)
        for scale in (1.0, 0.5):  # the half step is taken whatever its residual
            trial = psi - scale * step
            trial_res = residual(trial)
            trial_norm = np.linalg.norm(trial_res, np.inf)
            if trial_norm <= rnorm:
                break
        psi, res, rnorm = trial, trial_res, trial_norm
    if rnorm <= tol:
        return NewtonResult(psi, max_iter, rnorm)
    raise NewtonError(f"Newton did not reach {tol:.1e} in {max_iter} iterations "
                      f"(residual {rnorm:.2e})")


def solve_newton(problem: NLSProblem, psi0: np.ndarray, lam: float,
                 tol: float = 1e-10, max_iter: int = 50) -> NewtonResult:
    """Newton iteration (see newton) for a standing wave at fixed frequency."""
    return newton(lambda psi: nls_residual(problem, psi, lam),
                  lambda psi: linalg.factorize(nls_jacobian(problem, psi, lam)),
                  psi0, tol, max_iter)
