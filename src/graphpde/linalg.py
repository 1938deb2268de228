"""Factorizations with determinant signs, linear solves, generalized eigensolver.

Matrices are scipy.sparse (the operator bundles are CSR); dense ndarrays
are accepted and converted.  Factorizations expose a ``solve`` method and
the determinant read from the sparse LU factors: its sign (permutation
parities times diagonal signs) and the log of its magnitude (the sum of
log |U_ii|).  The continuation code monitors the sign for bifurcations and
localizes branch points on the signed determinant.  ``generalized_eigs``
runs ARPACK with scipy's default basis of about 2m vectors, and refuses a
shift by the eigenvalues it computes, never by U's pivots.

SuperLU orders the columns by COLAMD, postordered by the elimination
tree.  ``Factorization(A, natural=True)`` keeps A's own column order
instead and computes no ordering.  The continuation code factors its
bordered matrices so: their border row and column come last, where they
add little fill on the graphs it traces.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(np.linalg.LinAlgError):
    pass


class EigenSolverError(RuntimeError):
    pass


class NonFiniteMatrixError(ValueError):
    pass


def permutation_parity(perm) -> int:
    """Sign of a permutation given as an index array: (-1)^(n - #cycles).

    Cycles are counted by pointer doubling: after k rounds, label[i] is the
    smallest of i, perm[i], perm[perm[i]], ... (2^k entries), so once
    2^k >= n every cycle is labelled by its smallest member.
    """
    perm = np.asarray(perm, dtype=np.intp)
    n = perm.size
    label = np.arange(n)
    step = perm
    span = 1
    while span < n:
        label = np.minimum(label, label[step])
        step = step[step]
        span *= 2
    cycles = np.count_nonzero(label == np.arange(n))
    return -1 if (n - cycles) % 2 else 1


class Factorization:
    """Sparse LU factorization (SuperLU); shareable, reusable solves.

    The determinant sign and its log magnitude are read from U's diagonal
    on first use only, so plain solves never pay for extracting U.  With
    natural=True the columns are taken in A's own order, not COLAMD's.
    """

    def __init__(self, A, natural: bool = False):
        if A.shape[0] != A.shape[1]:
            raise ValueError("factorize needs a square matrix")
        self.n = A.shape[0]
        # tocsc() returns a CSC input itself, as rewrapping it costs as much
        # as the empty-line test below; duplicates are summed as splu sums them
        A = A.tocsc() if sp.issparse(A) else sp.csc_matrix(A)
        A.sum_duplicates()
        if not np.isfinite(A.data).all():
            raise NonFiniteMatrixError("matrix entries must be finite")
        # SuperLU can crash, not just fail, on an empty row or column; a stored
        # zero is no entry, and indptr masks reduceat's value for an empty column
        live = A.data != 0
        columns = np.logical_or.reduceat(np.append(live, False), A.indptr[:-1])
        for axis, filled in (("row", np.bincount(A.indices[live], minlength=self.n)),
                             ("column", columns & (A.indptr[1:] > A.indptr[:-1]))):
            if not filled.all():
                raise SingularMatrixError(f"{axis} {np.argmin(filled)} of the matrix is empty")
        try:
            # SuperLU reports an exactly zero pivot as a RuntimeError
            self._lu = spla.splu(A, permc_spec="NATURAL" if natural else "COLAMD")
        except RuntimeError as exc:
            raise SingularMatrixError(str(exc)) from exc
        self._complex = np.iscomplexobj(A.data)

    @cached_property
    def _diag(self):
        return self._lu.U.diagonal()

    @cached_property
    def det_sign(self):
        """Sign of the determinant: +-1, or a unit complex number."""
        # P_r A P_c = L U; the sign of a composition is the product of signs
        parity = permutation_parity(self._lu.perm_r[self._lu.perm_c])
        diag = self._diag
        if self._complex:
            return complex(np.prod(np.sign(diag / np.abs(diag)))) * parity
        return int(parity * np.prod(np.sign(diag)))

    @cached_property
    def log_abs_det(self) -> float:
        """log |det A|: L has a unit diagonal and permutations keep |det|."""
        return float(np.sum(np.log(np.abs(self._diag))))

    def solve(self, b):
        b = np.asarray(b)
        if np.iscomplexobj(b) and not self._complex:
            return self._lu.solve(b.real) + 1j * self._lu.solve(b.imag)
        return self._lu.solve(b)


def factorize(A) -> Factorization:
    return Factorization(A)


def solve(A, b):
    """One-shot linear solve; accepts a matrix or an existing Factorization."""
    if isinstance(A, Factorization):
        return A.solve(b)
    return Factorization(A).solve(b)


def det_sign(A):
    return Factorization(A).det_sign


# ---------------------------------------------------------------------------
_EIG_RESIDUAL_TOL = 1e-8  # relative residual bound on a returned eigenpair


def fix_phase(v):
    """v, or each column of v, over the phase of its largest entry, which turns positive."""
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=0)[None], axis=0)
    return v / (top / np.abs(top))


def generalized_eigs(A, B, m: int, sigma: float = 1e-2):
    """The m finite eigenpairs of A v = lambda B v nearest the shift sigma.

    B may be singular (zero constraint rows); the infinite eigenvalues of
    the pencil are excluded structurally by iterating on (A - sigma B)^-1 B,
    whose null directions they occupy.  ARPACK takes scipy's default basis
    of min(n, max(2m + 1, 20)) vectors, one solve per Arnoldi step.
    Eigenvalues are sorted by ascending magnitude (ties by value); imaginary
    parts below 1e-8 (1 + |lambda|) are truncated to zero.  Each vector has
    unit 2-norm and its largest entry real and positive.  The residuals are
    tested on the whole block (one product by A, one by B); the pairs above
    the bound get one inverse-iteration step, all in one solve.
    SingularMatrixError means sigma lies on the spectrum: A - sigma B has a
    zero pivot, or the nearest eigenvalue is within 1e-9 max(1, |sigma|).
    """
    n = A.shape[0]
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < {n}, got {m}")
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    amax = float(np.max(np.abs(A.data), initial=0.0))
    fact = factorize(A - sigma * B)

    if m > n - 3:
        # ARPACK needs k < n - 1; near that limit take every eigenvalue
        nu, V = sla.eig(fact.solve(B.toarray()))
    else:
        # with its dtype given, scipy spends no solve probing the operator
        op = spla.LinearOperator((n, n), matvec=lambda v: fact.solve(B @ v),
                                 dtype=complex if fact._complex else float)
        v0 = np.random.default_rng(1729).standard_normal(n)
        try:
            nu, V = spla.eigs(op, k=m, which="LM", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise EigenSolverError(f"eigensolver did not converge: {exc}") from exc

    order = np.argsort(-np.abs(nu))[:m]
    nu, V = nu[order], V[:, order]
    # sigma + 1/nu[0] is the computed eigenvalue nearest sigma
    if abs(nu[0]) * 1e-9 * max(1.0, abs(sigma)) >= 1.0:
        raise SingularMatrixError(
            f"shift {sigma} lies on (or numerically on) the pencil spectrum")
    if np.any(np.abs(nu) < 1e3 * np.finfo(float).eps):
        raise EigenSolverError("requested more finite eigenvalues than the pencil has")
    lam = sigma + 1.0 / nu

    small = np.abs(lam.imag) <= 1e-8 * (1.0 + np.abs(lam))
    lam = np.where(small, lam.real + 0.0j, lam)
    order = np.lexsort((lam.real, np.abs(lam)))
    lam, small, vecs = lam[order], small[order], fix_phase(V[:, order])
    # once the dominant entry is real, a negligible imaginary part goes
    real = small & (np.max(np.abs(vecs.imag), axis=0) <= 1e-8 * np.max(np.abs(vecs.real), axis=0))
    vecs[:, real] = vecs[:, real].real
    vecs /= np.linalg.norm(vecs, axis=0)

    def residuals(V, lam):
        # relative to ||A v||, floored at the matrix scale: at the zero
        # eigenvalue ||A v|| itself is pure roundoff
        AV = A @ V
        return (np.linalg.norm(AV - lam * (B @ V), axis=0)
                / np.maximum(np.linalg.norm(AV, axis=0), amax))

    res = residuals(vecs, lam)
    bad = res > _EIG_RESIDUAL_TOL
    if bad.any():
        # one inverse-iteration polish before giving up
        W = fact.solve(B @ vecs[:, bad])
        vecs[:, bad] = fix_phase(W / np.linalg.norm(W, axis=0))
        res[bad] = residuals(vecs[:, bad], lam[bad])
    if np.any(res > _EIG_RESIDUAL_TOL):
        j = int(np.argmax(res > _EIG_RESIDUAL_TOL))
        raise EigenSolverError(f"eigenpair {j} relative residual {res[j]:.2e} exceeds tolerance")

    if np.all(lam.imag == 0.0):
        lam = lam.real
        if np.max(np.abs(vecs.imag)) == 0.0:
            vecs = vecs.real
    return lam, vecs
