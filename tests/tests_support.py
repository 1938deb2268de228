"""Shared brute-force oracles for the test suite."""
import math

import numpy as np
import scipy.sparse as sp

# unit-weight, potential-free gallery with k_max inside a spectral gap
SECULAR_GALLERY = (("interval", {}, 7.0), ("star", {}, 5.5), ("Y", {}, 2 * math.pi + 0.1),
                   ("dumbbell", {}, 2.6), ("lasso", {}, 2.9), ("ring", {}, 2.5),
                   ("tetrahedron", {}, 5.0), ("bubbleTower", {}, 1.16),
                   ("necklace", {"n_pairs": 3}, 2.45), ("necklace", {"n_pairs": 5}, 2.8))


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


def cofactor_det_sign(A):
    return int(np.sign(cofactor_det(A)))


def bordered_reference(J, col, row, corner):
    """CSC of [[J, col], [row, corner]] by sp.bmat, every border entry stored, zeros too."""
    n = J.shape[0]
    line, zero = np.arange(n), np.zeros(n, dtype=int)
    return sp.bmat([[sp.csc_matrix(J), sp.coo_matrix((col, (line, zero)), shape=(n, 1))],
                    [sp.coo_matrix((row, (zero, line)), shape=(1, n)),
                     sp.coo_matrix(([corner], ([0], [0])), shape=(1, 1))]], format="csc")


def reference_corrector(sys, opts, u_pred, lam_pred, t_u, t_lam):
    """The continuation corrector's own Newton loop, as it was before the corrector
    became one call to stationary.newton: a plain bordered Newton step per
    iterate, no backtrack, and CorrectorError on a diverged or unconverged run."""
    import graphpde.continuation as cont
    from graphpde import linalg

    u = np.array(u_pred, dtype=float)
    lam = float(lam_pred)
    for _ in range(opts.max_newton):
        F = sys.residual(u, lam)
        g = sys.inner(u - u_pred, t_u) + opts.beta * (lam - lam_pred) * t_lam
        try:
            fact = cont._bordered_factor(sys, u, lam, t_u, t_lam, opts.beta)
        except linalg.SingularMatrixError as exc:
            raise cont.CorrectorError(f"singular bordered system: {exc}") from exc
        if max(np.linalg.norm(F, np.inf), abs(g)) <= opts.newton_tol:
            return u, lam, fact
        step = fact.solve(np.concatenate([F, [g]]))
        u = u - step[:-1]
        lam = lam - step[-1]
        if not np.all(np.isfinite(u)) or not math.isfinite(lam):
            raise cont.CorrectorError("corrector diverged")
    raise cont.CorrectorError(f"corrector did not converge in {opts.max_newton} steps")


def dumbbell_localizations(scheme, workdir):
    """Trace the dumbbell's constant branch from its first eigenfunction (ds=0.05).

    Returns the branch and one record per localization: the arguments of
    locate_branch_point, the corrector calls it made and the lambda it
    returned.
    """
    import graphpde.continuation as cont
    from graphpde import discretize, from_template, make_context, nls_problem

    bundle = discretize(from_template("dumbbell"), scheme)
    sys_ = cont.nls_system(nls_problem(bundle), make_context(bundle))
    run = cont.create_run(workdir, "dumbbell", bundle)
    cont.save_eigenfunctions(run, bundle, 4)
    records = []
    locate, correct = cont.locate_branch_point, cont.corrector

    def counting_corrector(*args, **kwargs):
        if records and records[-1]["lam"] is None:
            records[-1]["calls"] += 1
        return correct(*args, **kwargs)

    def recording_locate(*args):
        records.append({"args": args, "calls": 0, "lam": None})
        out = locate(*args)
        records[-1]["lam"] = out[1]
        return out

    cont.corrector, cont.locate_branch_point = counting_corrector, recording_locate
    try:
        opts = cont.ContinuationOptions(ds=0.05, verbose_flag=False, save_flag=False)
        branch = cont.continue_from_eig(run, sys_, 1, 1e-2, opts)
    finally:
        cont.corrector, cont.locate_branch_point = correct, locate
    return branch, records


def localization_report():
    """One line per dumbbell scheme: localization corrector calls per branch point."""
    import tempfile

    lines = []
    for scheme in ("uniform", "chebyshev"):
        with tempfile.TemporaryDirectory() as workdir:
            _, records = dumbbell_localizations(scheme, workdir)
        calls = [r["calls"] for r in records]
        lines.append(f"{scheme} dumbbell (ds=0.05): {sum(calls)} localization corrector "
                     f"calls for {len(calls)} branch points "
                     f"({sum(calls) / max(len(calls), 1):.1f} per branch point; {calls})")
    return "\n".join(lines)


def eigs_pencils():
    """(name, bundle, m) of the uniform Y graph (nx=40, m = 7) and of the Chebyshev
    secular gallery, at the grids and m of its cross-validation against the scan."""
    from graphpde import discretize, from_template

    yield "Y uniform nx=40", discretize(from_template("Y", nx=40), "uniform"), 7
    for tag, kw, k_max in SECULAR_GALLERY:
        g0 = from_template(tag, **kw)
        g = from_template(tag, nx=[24 + math.ceil(1.5 * k_max * e.length) for e in g0.edges], **kw)
        m = math.ceil(sum(e.length for e in g.edges) * k_max / math.pi) + g.num_edges + 4
        name = tag + "".join(f" {k}={v}" for k, v in kw.items())
        yield f"{name} chebyshev", discretize(g, "chebyshev"), m


def arpack_report():
    """One line per eigs call on eigs_pencils: n, m and the Factorization.solve calls made."""
    from graphpde import eigs, linalg

    real_solve = linalg.Factorization.solve
    count = [0]

    def counting_solve(self, b):
        count[0] += 1
        return real_solve(self, b)

    lines, total = [], 0
    linalg.Factorization.solve = counting_solve
    try:
        for name, bundle, m in eigs_pencils():
            count[0] = 0
            eigs(bundle, m)
            total += count[0]
            lines.append(f"{name}: n {bundle.lap_vc.shape[0]}, m {m}, {count[0]} solves")
    finally:
        linalg.Factorization.solve = real_solve
    lines.append(f"total: {total} solves in {len(lines)} eigs calls")
    return "\n".join(lines)
