"""Factorizations with determinant signs, linear solves, generalized eigensolver.

Matrices are scipy.sparse (the operator bundles are CSR); dense ndarrays
are accepted and converted.  Factorizations expose a ``solve`` method and
the determinant read from the sparse LU factors: its sign (permutation
parities times diagonal signs) and the log of its magnitude (the sum of
log |U_ii|).  The continuation code monitors the sign for bifurcations and
localizes branch points on the signed determinant.

SuperLU orders the columns by COLAMD, postordered by the elimination tree,
and ``column_order`` exposes that order.  ``Factorization(B, order)``
factors a matrix A of the same pattern given as B = A[:, order.perm], with
SuperLU told to keep the natural order, so no ordering is computed.  The
elimination tree, the supernodes and the pivot search then repeat those of
the COLAMD run, and solves, U's diagonal and the row order come out bitwise
the same.  The one freedom is SuperLU's preference for the diagonal entry
on an exact tie of pivot magnitudes, as the diagonal moves with the
columns; tests/test_linalg.py checks the bitwise equality on the
continuation's bordered matrices and on random patterns.  ``solve``
scatters the result back to A's columns and ``det_sign`` multiplies by the
order's parity, computed once with the order.  The continuation code
factors every bordered matrix of a system after the first in the first
one's order.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(np.linalg.LinAlgError):
    pass


class EigenSolverError(RuntimeError):
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


class ColumnOrder(NamedTuple):
    """A column order: column j of the ordered matrix is column perm[j] of A."""

    perm: np.ndarray
    parity: int


class Factorization:
    """Sparse LU factorization (SuperLU); shareable, reusable solves.

    The determinant sign, its log magnitude and the pivot ratio are read
    from U's diagonal on first use only, so plain solves never pay for
    extracting U.  With an order, A holds the columns of the matrix to
    factor in that order (see the module docstring); solve and the
    determinant still refer to the matrix in its own column order.
    """

    def __init__(self, A, order: ColumnOrder | None = None):
        if A.shape[0] != A.shape[1]:
            raise ValueError("factorize needs a square matrix")
        self.n = A.shape[0]
        self._order = order
        # tocsc() returns a CSC input itself, as rewrapping it costs as much
        # as the empty-line test below; duplicates are summed as splu sums them
        A = A.tocsc() if sp.issparse(A) else sp.csc_matrix(A)
        A.sum_duplicates()
        if not np.isfinite(A.data).all():
            raise ValueError("matrix entries must be finite")
        # SuperLU can crash, not just fail, on an empty row or column; a stored
        # zero is no entry, and indptr masks reduceat's value for an empty column
        live = A.data != 0
        columns = np.logical_or.reduceat(np.append(live, False), A.indptr[:-1])
        for axis, filled in (("row", np.bincount(A.indices[live], minlength=self.n)),
                             ("column", columns & (A.indptr[1:] > A.indptr[:-1]))):
            if not filled.all():
                k = np.argmin(filled)
                if axis == "column" and order is not None:
                    k = order.perm[k]
                raise SingularMatrixError(f"{axis} {k} of the matrix is empty")
        try:
            # SuperLU reports an exactly zero pivot as a RuntimeError
            self._lu = spla.splu(A) if order is None else spla.splu(A, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SingularMatrixError(str(exc)) from exc
        self._complex = np.iscomplexobj(A.data)

    @cached_property
    def _diag(self):
        return self._lu.U.diagonal()

    @property
    def diag_ratio(self) -> float:
        """Smallest over largest pivot magnitude."""
        absdiag = np.abs(self._diag)
        return float(absdiag.min() / absdiag.max())

    @cached_property
    def det_sign(self):
        """Sign of the determinant: +-1, or a unit complex number."""
        # P_r A P_c = L U; the sign of a composition is the product of signs
        parity = permutation_parity(self._lu.perm_r[self._lu.perm_c])
        if self._order is not None:
            parity *= self._order.parity
        diag = self._diag
        if self._complex:
            return complex(np.prod(np.sign(diag / np.abs(diag)))) * parity
        return int(parity * np.prod(np.sign(diag)))

    @cached_property
    def log_abs_det(self) -> float:
        """log |det A|: L has a unit diagonal and permutations keep |det|."""
        return float(np.sum(np.log(np.abs(self._diag))))

    @cached_property
    def column_order(self) -> ColumnOrder:
        """The order SuperLU took the columns in, for factoring the same pattern again."""
        perm = np.argsort(self._lu.perm_c)
        if self._order is not None:
            perm = self._order.perm[perm]
        return ColumnOrder(perm, permutation_parity(perm))

    def solve(self, b):
        b = np.asarray(b)
        if np.iscomplexobj(b) and not self._complex:
            x = self._lu.solve(b.real) + 1j * self._lu.solve(b.imag)
        else:
            x = self._lu.solve(b)
        if self._order is None:
            return x
        out = np.empty_like(x)
        out[self._order.perm] = x
        return out


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


def generalized_eigs(A, B, m: int, sigma: float = 1e-2):
    """The m finite eigenpairs of A v = lambda B v nearest the shift sigma.

    B may be singular (zero constraint rows); the infinite eigenvalues of
    the pencil are excluded structurally by iterating on (A - sigma B)^-1 B,
    whose null directions they occupy.  Eigenvalues are sorted by ascending
    magnitude (ties by value); imaginary parts below 1e-8 (1 + |lambda|)
    are truncated to zero.
    """
    n = A.shape[0]
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < {n}, got {m}")
    A = sp.csr_matrix(A)
    B = sp.csr_matrix(B)
    fact = factorize(A - sigma * B)
    if fact.diag_ratio < 1e-13:
        raise SingularMatrixError(
            f"shift {sigma} lies on (or numerically on) the pencil spectrum")

    if m > n - 3:
        # ARPACK needs k < n - 1; near that limit take every eigenvalue
        nu, V = sla.eig(fact.solve(B.toarray()))
    else:
        op = spla.LinearOperator((n, n), matvec=lambda v: fact.solve(B @ v))
        v0 = np.random.default_rng(1729).standard_normal(n)
        ncv = min(n, max(4 * m + 10, 40))
        try:
            nu, V = spla.eigs(op, k=m, which="LM", v0=v0, ncv=ncv)
        except spla.ArpackNoConvergence as exc:
            raise EigenSolverError(f"eigensolver did not converge: {exc}") from exc

    order = np.argsort(-np.abs(nu))[:m]
    nu = nu[order]
    V = V[:, order]
    if np.any(np.abs(nu) < 1e3 * np.finfo(float).eps):
        raise EigenSolverError("requested more finite eigenvalues than the pencil has")
    lam = sigma + 1.0 / nu

    small = np.abs(lam.imag) <= 1e-8 * (1.0 + np.abs(lam))
    lam = np.where(small, lam.real + 0.0j, lam)

    vecs = np.empty((n, m), dtype=complex)
    for j in range(m):
        v = V[:, j]
        # rotate the dominant component onto the real axis, then drop a
        # negligible imaginary part
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = v / phase
        if small[j] and np.max(np.abs(v.imag)) <= 1e-8 * np.max(np.abs(v.real)):
            v = v.real + 0.0j
        vecs[:, j] = v / np.linalg.norm(v)

    order = np.lexsort((lam.real, np.abs(lam)))
    lam = lam[order]
    vecs = vecs[:, order]

    amax = float(np.max(np.abs(A.data), initial=0.0))

    def residual_and_scale(v, lam_j):
        Av = A @ v
        # matrix-scale floor keeps the relative contract meaningful for the
        # zero eigenvalue, where ||A v|| itself is pure roundoff
        return np.linalg.norm(Av - lam_j * (B @ v)), max(np.linalg.norm(Av), amax)

    for j in range(m):
        res, scale = residual_and_scale(vecs[:, j], lam[j])
        if res > _EIG_RESIDUAL_TOL * scale:
            # one inverse-iteration polish before giving up
            v = fact.solve(B @ vecs[:, j])
            v = v / np.linalg.norm(v)
            k = int(np.argmax(np.abs(v)))
            v = v / (v[k] / abs(v[k]))
            vecs[:, j] = v
            res, scale = residual_and_scale(v, lam[j])
            if res > _EIG_RESIDUAL_TOL * scale:
                raise EigenSolverError(
                    f"eigenpair {j} residual {res:.2e} exceeds tolerance")

    if np.all(lam.imag == 0.0):
        lam = lam.real
        if np.max(np.abs(vecs.imag)) == 0.0:
            vecs = vecs.real
    return lam, vecs
