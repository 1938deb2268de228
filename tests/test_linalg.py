import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphpde import build_graph, discretize, DIRICHLET, from_template
from graphpde.linalg import (EigenSolverError, Factorization,
                             SingularMatrixError, det_sign, factorize, generalized_eigs,
                             permutation_parity, solve)
from tests_support import bordered_reference, eigs_pencils


def cofactor_det(A):
    A = np.asarray(A)
    n = A.shape[0]
    if n == 1:
        return A[0, 0]
    total = 0
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        total += (-1) ** j * A[0, j] * cofactor_det(minor)
    return total


def test_permutation_parity():
    assert permutation_parity([0, 1, 2]) == 1
    assert permutation_parity([1, 0, 2]) == -1
    assert permutation_parity([1, 2, 0]) == 1
    assert permutation_parity([]) == 1
    assert permutation_parity([0]) == 1
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8, 17, 64, 65, 129, 300, 511):
        for _ in range(3):
            perm = rng.permutation(n)
            expected = round(np.linalg.det(np.eye(n)[perm]))
            assert permutation_parity(perm) == expected


def test_det_sign_simple_cases():
    assert det_sign(np.eye(3)) == 1
    assert det_sign(np.diag([1.0, -2.0])) == -1
    assert det_sign(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1


def test_det_sign_against_cofactor_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        A = rng.integers(-4, 5, size=(4, 4)).astype(float)
        d = cofactor_det(A)
        if d == 0:
            continue
        assert det_sign(A) == int(np.sign(d))
        assert det_sign(sp.csr_matrix(A)) == int(np.sign(d))
        checked += 1


def test_log_abs_det_on_cofactor_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        A = rng.integers(-4, 5, size=(4, 4)).astype(float)
        d = cofactor_det(A)
        if d == 0:
            continue
        fact = factorize(sp.csr_matrix(A))
        assert fact.det_sign == int(np.sign(d))
        assert fact.log_abs_det == pytest.approx(math.log(abs(d)), abs=1e-12)
        checked += 1


@pytest.mark.parametrize("dtype", [float, complex])
def test_log_abs_det_matches_slogdet_under_pivoting(dtype):
    rng = np.random.default_rng(3)
    for n in (5, 12, 40, 90):
        M = np.zeros((n, n), dtype=dtype)
        for part in ((1.0,) if dtype is float else (1.0, 1j)):
            M += part * rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
        # a zero diagonal and a scrambled heavy entry per row force both pivots
        np.fill_diagonal(M, 0.0)
        M[np.arange(n), rng.permutation(n)] = 10.0 + rng.random(n)
        A = sp.csc_matrix(M)
        fact = factorize(A)
        assert np.any(fact._lu.perm_r != np.arange(n))
        assert np.any(fact._lu.perm_c != np.arange(n))
        sign, logdet = np.linalg.slogdet(M)
        assert fact.log_abs_det == pytest.approx(logdet, rel=1e-12, abs=1e-10)
        assert fact.det_sign == pytest.approx(sign, abs=1e-10)


def test_solve_identity_and_diagonal():
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(solve(np.eye(3), b), b)
    assert np.allclose(solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1.0, 1.0])


def test_solve_residual_contract():
    rng = np.random.default_rng(1)
    for n in (5, 20):
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        x_true = rng.standard_normal(n)
        b = A @ x_true
        x = solve(A, b)
        res = np.linalg.norm(A @ x - b)
        bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
        assert res <= bound


def test_complex_rhs_with_real_factorization():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = factorize(A).solve(b)
    assert np.linalg.norm(A @ x - b) < 1e-10
    As = sp.csr_matrix(A)
    xs = factorize(As).solve(b)
    assert np.linalg.norm(As @ xs - b) < 1e-10


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        factorize(np.zeros((3, 3)))
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        factorize(A)


def test_empty_row_or_column_raises_before_superlu():
    # interp_vc - lap_vc on the uniform dumbbell: the vertex rows cancel to
    # (1 - 1) vc_rows, six empty rows on which splu can crash the process
    b = discretize(from_template("dumbbell"), "uniform")
    A = b.interp_vc - b.lap_vc
    with pytest.raises(SingularMatrixError, match=r"row \d+ of the matrix is empty"):
        factorize(A)
    # a stored zero is not an entry, in a row or in a column
    zero_row = sp.csr_matrix(([1.0, 1.0, 0.0], [0, 1, 2], [0, 1, 2, 3]), shape=(3, 3))
    with pytest.raises(SingularMatrixError, match="row 2 of the matrix is empty"):
        factorize(zero_row)
    zero_column = sp.csc_matrix(
        sp.csr_matrix(([1.0, 0.0, 1.0, 1.0, 1.0], [0, 1, 2, 0, 2], [0, 3, 4, 5]),
                      shape=(3, 3)))
    with pytest.raises(SingularMatrixError, match="column 1 of the matrix is empty"):
        factorize(zero_column)
    assert zero_column.nnz == 5  # the caller's matrix keeps its stored zero
    # duplicates are summed first, as SuperLU sums them: 1 - 1 empties row 1
    cancelling = sp.csr_matrix(([1.0, 1.0, -1.0, 1.0], [0, 1, 1, 2], [0, 1, 3, 4]),
                               shape=(3, 3))
    with pytest.raises(SingularMatrixError, match="row 1 of the matrix is empty"):
        factorize(cancelling)


def test_non_finite_entries_rejected():
    A = np.eye(3)
    A[1, 2] = np.nan
    for M in (A, sp.csr_matrix(A)):
        with pytest.raises(ValueError, match="finite"):
            factorize(M)
    B = sp.csr_matrix(np.diag([1.0, np.inf, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        factorize(B)


def test_manufactured_second_order_convergence():
    # - u'' = f with u = sin on a Dirichlet interval of length pi
    errs = []
    for nx in (20, 40):
        g = build_graph([1], [2], math.pi, robin_coeffs=[DIRICHLET, DIRICHLET],
                        nx=[nx])
        b = discretize(g, "uniform")
        from graphpde import apply_function_to_edges, solve_poisson
        f = apply_function_to_edges(b, [lambda x: -np.sin(x)])
        psi = solve_poisson(b, f)
        exact = apply_function_to_edges(b, [np.sin])
        errs.append(np.max(np.abs(psi - exact)))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_generalized_eigs_dirichlet_interval():
    g = build_graph([1], [2], math.pi, robin_coeffs=[DIRICHLET, DIRICHLET], nx=60)
    b = discretize(g, "uniform")
    lam, vecs = generalized_eigs(b.lap_vc, b.interp_zero, 3)
    assert np.allclose(np.real(lam), [-1.0, -4.0, -9.0], atol=2e-2)
    for j in range(3):
        r = b.lap_vc @ vecs[:, j] - lam[j] * (b.interp_zero @ vecs[:, j])
        amax = np.max(np.abs(b.lap_vc.data))
        assert np.linalg.norm(r) <= 1e-8 * max(np.linalg.norm(b.lap_vc @ vecs[:, j]), amax)


def test_generalized_eigs_null_mode():
    g = build_graph([1], [2], 1.0, nx=20)  # NK both ends
    b = discretize(g, "uniform")
    lam, vecs = generalized_eigs(b.lap_vc, b.interp_zero, 1)
    assert abs(lam[0]) < 1e-10
    v = np.real(vecs[:, 0])
    assert np.max(np.abs(v - np.mean(v))) < 1e-8


def test_generalized_eigs_dense_and_sparse_agree():
    g = from_template("Y", nx=12)
    b = discretize(g, "uniform")
    lam_sparse, _ = generalized_eigs(b.lap_vc, b.interp_zero, 4)
    lam_dense, _ = generalized_eigs(b.lap_vc.toarray(), b.interp_zero.toarray(), 4)
    assert np.allclose(np.real(lam_sparse), np.real(lam_dense), atol=1e-9)


def test_finite_eigenvalue_budget():
    # the pencil has n_ext - 2|E| finite eigenvalues; asking for more fails
    g = build_graph([1], [2], 1.0, robin_coeffs=[DIRICHLET, DIRICHLET], nx=[4])
    b = discretize(g, "uniform")
    with pytest.raises((EigenSolverError, ValueError)):
        generalized_eigs(b.lap_vc.toarray(), b.interp_zero.toarray(), 5)


def test_shift_on_spectrum_detected():
    g = build_graph([1], [2], 1.0, nx=20)  # NK: zero eigenvalue
    b = discretize(g, "uniform")
    with pytest.raises(SingularMatrixError):
        generalized_eigs(b.lap_vc, b.interp_zero, 2, sigma=0.0)


def test_eigenvalues_sorted_by_magnitude():
    g = from_template("Y", nx=20)
    b = discretize(g, "uniform")
    lam, _ = generalized_eigs(b.lap_vc, b.interp_zero, 5)
    mags = np.abs(lam)
    assert np.all(np.diff(mags) >= -1e-12)


# --- the natural path: the columns taken in the matrix's own order ---

def factorize_natural(A):
    return Factorization(sp.csc_matrix(A), natural=True)


def test_natural_det_sign_against_cofactor_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        A = rng.integers(-4, 5, size=(4, 4)).astype(float)
        d = cofactor_det(A)
        if d == 0:
            continue
        fact = factorize_natural(A)
        assert fact.det_sign == int(np.sign(d))
        assert fact.log_abs_det == pytest.approx(math.log(abs(d)), abs=1e-12)
        checked += 1


@pytest.mark.parametrize("dtype", [float, complex])
def test_natural_log_abs_det_matches_slogdet_under_pivoting(dtype):
    rng = np.random.default_rng(3)
    for n in (5, 12, 40, 90):
        M = np.zeros((n, n), dtype=dtype)
        for part in ((1.0,) if dtype is float else (1.0, 1j)):
            M += part * rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
        np.fill_diagonal(M, 0.0)
        M[np.arange(n), rng.permutation(n)] = 10.0 + rng.random(n)
        fact = factorize_natural(M)
        assert np.any(fact._lu.perm_r != np.arange(n))
        sign, logdet = np.linalg.slogdet(M)
        assert fact.log_abs_det == pytest.approx(logdet, rel=1e-12, abs=1e-10)
        assert fact.det_sign == pytest.approx(sign, abs=1e-10)


def test_natural_solve_residual_and_complex_rhs():
    rng = np.random.default_rng(1)
    for n in (5, 20):
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        fact = factorize_natural(A)
        for b in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n),
                  rng.standard_normal((n, 3))):
            x = fact.solve(b)
            bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
            assert np.linalg.norm(A @ x - b) <= bound


def test_natural_empty_row_or_column_and_non_finite_entries():
    b = discretize(from_template("dumbbell"), "uniform")
    with pytest.raises(SingularMatrixError, match=r"row \d+ of the matrix is empty"):
        factorize_natural(b.interp_vc - b.lap_vc)
    zero_column = sp.csr_matrix(([1.0, 0.0, 1.0, 1.0, 1.0], [0, 1, 2, 0, 2], [0, 3, 4, 5]),
                                shape=(3, 3))
    with pytest.raises(SingularMatrixError, match="column 1 of the matrix is empty"):
        factorize_natural(zero_column)
    A = np.eye(3)
    A[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        factorize_natural(A)


def _bordered_dumbbell_matrices(scheme):
    import graphpde.continuation as cont
    from graphpde import make_context, nls_problem

    bundle = discretize(from_template("dumbbell"), scheme)
    system = cont.nls_system(nls_problem(bundle), make_context(bundle))
    rng = np.random.default_rng(5)
    # on the constant branch psi^2 = -lambda/2, across its first pitchfork
    for lam in (-0.02, -0.0335, -0.05, -0.3):
        u = np.sqrt(-lam / 2) + 1e-3 * rng.standard_normal(bundle.n_ext)
        t = rng.standard_normal(bundle.n_ext)
        yield bordered_reference(system.jacobian(u, lam), system.dlam(u, lam),
                                 system.weights * t, 0.1 * rng.standard_normal())


def _random_patterns():
    rng = np.random.default_rng(11)
    for k in range(40):
        n = int(rng.integers(5, 80))
        M = sp.random(n, n, density=0.1, random_state=rng, format="csc")
        if k % 2:
            M = M + 1j * sp.random(n, n, density=0.1, random_state=rng, format="csc")
        # a scrambled heavy entry per column keeps every row and column filled
        yield sp.csc_matrix(M + sp.csc_matrix((1.0 + rng.random(n),
                                               (rng.permutation(n), np.arange(n))), (n, n)))


@pytest.mark.parametrize("source", ["uniform", "chebyshev", "random"])
def test_natural_order_agrees_with_colamd(source):
    # the continuation code factors its bordered matrices in natural order and
    # reads branch points off the determinant's sign: both orders must agree
    matrices = (_random_patterns() if source == "random"
                else _bordered_dumbbell_matrices(source))
    rng = np.random.default_rng(0)
    for M in matrices:
        colamd, natural = factorize(M), Factorization(M, natural=True)
        assert np.array_equal(natural._lu.perm_c, np.arange(M.shape[0]))
        assert natural.det_sign == pytest.approx(colamd.det_sign, abs=1e-12)
        assert natural.log_abs_det == pytest.approx(colamd.log_abs_det, rel=1e-12, abs=1e-12)
        b = rng.standard_normal(M.shape[0])
        assert np.allclose(natural.solve(b), colamd.solve(b), rtol=1e-9, atol=1e-12)


# --- the shift test and the eigenpair polish ---

def _count_solves(monkeypatch):
    """Counters of Factorization.solve calls and of the matvecs ARPACK asks for."""
    counts = {"solve": 0, "matvec": 0}
    real_solve, real_eigs = Factorization.solve, spla.eigs

    def solve(self, b):
        counts["solve"] += 1
        return real_solve(self, b)

    def eigs(op, **kw):
        def matvec(v):
            counts["matvec"] += 1
            return op.matvec(v)
        return real_eigs(spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), **kw)

    monkeypatch.setattr(Factorization, "solve", solve)
    monkeypatch.setattr(spla, "eigs", eigs)
    return counts


def test_the_polish_rescues_a_shift_close_to_an_eigenvalue(monkeypatch):
    # 1e-8 above the second eigenvalue of the uniform Y graph (3.1e-9 times
    # |sigma| from the spectrum, above the 1e-9 refusal), one of ARPACK's
    # vectors misses the residual bound and one inverse-iteration step mends it
    b = discretize(from_template("Y"), "uniform")
    counts = _count_solves(monkeypatch)
    lam, _ = generalized_eigs(b.lap_vc, b.interp_zero, 5)
    # the operator carries its dtype: every solve is one of ARPACK's matvecs
    assert counts["solve"] == counts["matvec"]
    counts.update(solve=0, matvec=0)
    near, vecs = generalized_eigs(b.lap_vc, b.interp_zero, 5, sigma=lam[1] + 1e-8)
    assert counts["solve"] == counts["matvec"] + 1  # and the polish
    np.testing.assert_allclose(near, lam, rtol=1e-6)
    amax = np.max(np.abs(b.lap_vc.data))
    for mu, v in zip(near, vecs.T):
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v[np.argmax(np.abs(v))] > 0
        Av = b.lap_vc @ v
        res = np.linalg.norm(Av - mu * (b.interp_zero @ v))
        assert res <= 1e-8 * max(np.linalg.norm(Av), amax)


def test_a_shift_is_refused_by_its_distance_to_the_computed_spectrum():
    b = discretize(from_template("Y"), "uniform")
    lam, _ = generalized_eigs(b.lap_vc, b.interp_zero, 4)
    for off, refused in ((1e-10, True), (1e-8, False)):
        sigma = lam[1] + off
        if refused:
            with pytest.raises(SingularMatrixError, match="lies on"):
                generalized_eigs(b.lap_vc, b.interp_zero, 4, sigma=sigma)
        else:
            near, _ = generalized_eigs(b.lap_vc, b.interp_zero, 4, sigma=sigma)
            np.testing.assert_allclose(near, lam, rtol=1e-6)


# --- ARPACK's basis: scipy's default, min(n, max(2m + 1, 20)) vectors ---

def test_the_default_basis_takes_fewer_solves_on_the_y_graph(monkeypatch):
    # the basis of max(4m + 10, 40) vectors took 42 solves here (41 matvecs
    # and the dtype probe); a regrowing basis shows up as this count
    b = discretize(from_template("Y", nx=40), "uniform")
    counts = _count_solves(monkeypatch)
    generalized_eigs(b.lap_vc, b.interp_zero, 7)
    assert counts["solve"] == counts["matvec"] < 42


def test_generalized_eigs_matches_a_dense_eig_of_the_shifted_operator():
    # the m eigenvalues nearest the shift of (A - sigma B)^-1 B, from a dense eig
    sigma = 1e-2
    for name, b, m in eigs_pencils():
        n = b.lap_vc.shape[0]
        if n > 300:
            continue
        lam, _ = generalized_eigs(b.lap_vc, b.interp_zero, m, sigma=sigma)
        op = np.linalg.solve((b.lap_vc - sigma * b.interp_zero).toarray(), b.interp_zero.toarray())
        nu = sla.eig(op, right=False)
        ref = sigma + 1.0 / nu[np.argsort(-np.abs(nu))[:m]]
        assert np.max(np.abs(ref.imag) / np.maximum(1.0, np.abs(ref))) <= 1e-9, name
        ref = np.sort(ref.real)
        err = np.abs(np.sort(np.real(lam)) - ref)
        assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 1e-9, name
        if name.startswith("Y uniform"):
            # the double eigenvalue -pi^2 of the Y graph comes back as a pair
            pair = lam[np.abs(lam + math.pi**2) < 0.1]
            assert pair.size == 2 and abs(pair[0] - pair[1]) <= 1e-9 * math.pi**2, name


def test_arpack_no_convergence_is_an_eigen_solver_error(monkeypatch):
    def eigs(op, k, **kw):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.zeros(0), np.zeros((op.shape[0], 0)))

    monkeypatch.setattr(spla, "eigs", eigs)
    b = discretize(from_template("Y"), "uniform")
    with pytest.raises(EigenSolverError, match="did not converge"):
        generalized_eigs(b.lap_vc, b.interp_zero, 4)


def test_non_finite_refusal_is_its_own_value_error():
    from graphpde.linalg import NonFiniteMatrixError

    assert issubclass(NonFiniteMatrixError, ValueError)
    for M in (np.diag([1.0, np.nan]), sp.csc_matrix(np.diag([np.inf, 1.0]))):
        with pytest.raises(NonFiniteMatrixError, match="matrix entries must be finite"):
            factorize(M)
