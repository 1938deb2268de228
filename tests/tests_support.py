"""Shared brute-force oracles for the test suite."""
import contextlib
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
    iterate, no backtrack, and CorrectorError on a diverged or unconverged run.
    It returns the LU of the last iterate it stepped from, or the point's own
    when it took no step."""
    import graphpde.continuation as cont
    from graphpde import linalg

    u = np.array(u_pred, dtype=float)
    lam = float(lam_pred)
    fact = None
    for _ in range(opts.max_newton):
        F = sys.residual(u, lam)
        g = sys.inner(u - u_pred, t_u) + opts.beta * (lam - lam_pred) * t_lam
        converged = max(np.linalg.norm(F, np.inf), abs(g)) <= opts.newton_tol
        if converged and fact is not None:
            return u, lam, fact
        try:
            fact = cont._bordered_factor(sys, u, lam, t_u, t_lam, opts.beta)
        except linalg.SingularMatrixError as exc:
            raise cont.CorrectorError(f"singular bordered system: {exc}") from exc
        if converged:
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


def bordered_lu_report():
    """One line per dumbbell scheme, on the constant branch dumbbell_localizations
    traces: the bordered LUs, the LUs that asked SuperLU for a column ordering
    and the bordered LUs' mean count of L and U entries.  Then a line with the
    bordered LUs per point of each branch, one with the CSC matrices built per
    bordered LU after its pattern's first, and one with the L+U entries of a
    bordered NLS matrix of the uniform 54-pair necklace, bordered by its unit
    branch tangent."""
    import tempfile
    from unittest import mock

    import graphpde.continuation as cont
    from graphpde import discretize, from_template, linalg, make_context, nls_problem

    real_splu, real_factor = linalg.spla.splu, cont._bordered_factor
    lines, built, per_point = [], [], []
    for scheme in ("uniform", "chebyshev"):
        n_bordered = discretize(from_template("dumbbell"), scheme).n_ext + 1
        lus, count = [], [0]

        def recording_splu(A, permc_spec=None, **kwargs):
            lu = real_splu(A, permc_spec=permc_spec, **kwargs)
            lus.append((A.shape[0], permc_spec, lu.L.nnz + lu.U.nnz))
            return lu

        def counting_factor(system, *args):
            # the CSC matrices built by one bordered LU, kept when it reused a layout
            layout, count[0] = system._bordered_layout, 0
            fact = real_factor(system, *args)
            if system._bordered_layout is layout:
                built.append((scheme, count[0]))
            return fact

        def counting_init(self, *args, real=sp.csc_matrix.__init__, **kwargs):
            count[0] += 1
            real(self, *args, **kwargs)

        linalg.spla.splu, cont._bordered_factor = recording_splu, counting_factor
        try:
            with tempfile.TemporaryDirectory() as workdir, \
                    mock.patch.object(sp.csc_matrix, "__init__", counting_init):
                branch, _ = dumbbell_localizations(scheme, workdir)
        finally:
            linalg.spla.splu, cont._bordered_factor = real_splu, real_factor
        fill = [entries for n, _, entries in lus if n == n_bordered]
        ordered = sum(spec != "NATURAL" for _, spec, _ in lus)
        per_point.append(f"{scheme} {len(fill) / len(branch.points):.2f} "
                         f"({len(fill)} for {len(branch.points)} points)")
        lines.append(f"{scheme} dumbbell (ds=0.05): {len(fill)} bordered LUs (n {n_bordered}) "
                     f"of {len(lus)}; {ordered} LUs asked SuperLU for an ordering; "
                     f"bordered L+U entries {sum(fill) / max(len(fill), 1):.0f} on average")
    lines.append("bordered LUs per point of the branch: " + ", ".join(per_point))
    counts = {scheme: [c for s, c in built if s == scheme] for scheme in ("uniform", "chebyshev")}
    lines.append("CSC matrices built per bordered LU after its pattern's first: " + ", ".join(
        f"{scheme} {sum(c) / max(len(c), 1):.2f} ({sum(c)} in {len(c)} LUs)"
        for scheme, c in counts.items()))
    # the constant state 0.5 (lambda -0.5) bordered by its unit branch tangent
    b = discretize(from_template("necklace", n_pairs=54, nx=20), "uniform")
    system = cont.nls_system(nls_problem(b), make_context(b))
    u = np.full(b.n_ext, 0.5)
    tangent = cont.tangent_at(system, u, -0.5, np.ones(b.n_ext), -2.0, 0.1)
    natural = cont._bordered_factor(system, u, -0.5, *tangent, 0.1)
    colamd = real_splu(system._bordered_layout.matrix, permc_spec="COLAMD")
    lines.append(f"uniform 54-pair necklace (nx 20), one bordered NLS matrix (n {b.n_ext + 1}) "
                 f"at the constant state 0.5, bordered by its unit tangent: L+U entries "
                 f"{natural._lu.L.nnz + natural._lu.U.nnz} in natural order, "
                 f"{colamd.L.nnz + colamd.U.nnz} with COLAMD")
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


def reference_imex_rk(problem, u, a_im, a_ex):
    """evolution._imex_rk's loop as it was before its stage sums were accumulated
    in place: sum(...) for the explicit terms, rhs = rhs + c * lap for the
    implicit ones."""
    from graphpde import linalg
    from graphpde.evolution import _Sampler

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
    out = _Sampler(problem, u)
    n = problem.n_steps
    for k in range(1, n + 1):
        stage, fs, laps = u, {}, {}
        for i in levels:
            if i:
                if i in start:
                    rhs = start[i] @ u
                else:
                    x = u + sum(c * fs[j] for j, c in ex[i]) if ex[i] else u
                    rhs = b.interp_zero @ x
                for j, c in im[i]:
                    rhs = rhs + c * laps[j]
                stage = fact.solve(rhs)
            if i in need_f:
                fs[i] = f(stage)
            if i in need_lap:
                laps[i] = b.lap_zero @ stage
        u = stage
        out.push(k, u, final=(k == n))
    return out.result()


def reference_leapfrog(problem, g, u0, v0):
    """leapfrog_klein_gordon as it was before the folded step operator and the
    restricted projection: y = 2u - u_prev + tau^2 (lap_ext u - g(u)), then
    y - Z (vc_rows y) over all n_ext rows."""
    from graphpde import linalg
    from graphpde.evolution import EvolutionError, _check_initial, _Sampler

    b = problem.bundle
    u0 = _check_initial(problem, u0)
    v0 = np.asarray(v0)
    tau = problem.tau
    fact = linalg.factorize(b.interp_vc)
    # Z = interp_vc^-1 E, stored sparse: on uniform grids it reaches only
    # the rows next to the vertices
    Z = sp.csr_matrix(fact.solve(np.eye(b.n_ext, b.n_ext - b.n_int, -b.n_int)))
    lap, vc = b.lap_ext, b.vc_rows

    def project(y):
        return y - Z @ (vc @ y)

    scale0 = max(1.0, np.linalg.norm(u0, np.inf))
    out = _Sampler(problem, u0)
    n = problem.n_steps
    u_prev = u0
    u = project(u0 + tau * v0 + 0.5 * tau**2 * (lap @ u0 - g(u0)))
    out.push(1, u, final=(n == 1))
    for k in range(2, n + 1):
        u_next = project(2.0 * u - u_prev + tau**2 * (lap @ u - g(u)))
        u_prev, u = u, u_next
        if np.linalg.norm(u, np.inf) > 1e6 * scale0:
            raise EvolutionError(f"leapfrog unstable at step {k} "
                                 f"(state grew past 1e6 x initial)")
        out.push(k, u, final=(k == n))
    return out.result()


def stepping_runs(n_steps=20):
    """(name, problem, run) of each stepper on the time-stepping benchmark's graphs,
    step sizes, coefficients and initial profiles (seed shifts and scales at 0
    and 1), every run cut to n_steps steps."""
    import graphpde as qg
    from graphpde.evolution import EvolutionProblem

    for scheme in ("uniform", "chebyshev"):
        b = qg.discretize(qg.from_template("dumbbell"), scheme)
        u0 = qg.apply_function_to_edges(
            b, [lambda x: 2 - 2 * np.cos(x - math.pi / 3), 1.0, np.cos])
        p = EvolutionProblem(b, mu=1.0, tau=0.01, t_final=0.01 * n_steps, n_skip=50)
        yield f"Crank-Nicolson heat dumbbell {scheme}", p, \
            lambda p=p, u0=u0: qg.crank_nicolson_heat(p, u0)
    star = qg.discretize(qg.from_template("star", lengths=30.0, weight=[2, 1, 1]), "uniform")
    u0 = qg.apply_function_to_edges(star, [
        lambda x: np.exp(1j * x) / np.cosh(x - 15), lambda x: np.exp(-1j * x) / np.cosh(x + 15),
        lambda x: np.exp(-1j * x) / np.cosh(x + 15)])
    p = EvolutionProblem(star, mu=-1j, f=lambda z: -2j * np.abs(z) ** 2 * z, tau=0.01,
                         t_final=0.01 * n_steps, n_skip=50)
    yield "ARS(4,4,3) NLS star", p, lambda: qg.sdirk443(p, u0)
    yield "IMEX Euler NLS star", p, lambda: qg.imex_euler(p, u0)
    b, u0, v0 = kink_tetrahedron()
    p = EvolutionProblem(b, tau=0.005, t_final=0.005 * n_steps, n_skip=400)
    yield "leapfrog sine-Gordon tetrahedron", p, \
        lambda: qg.leapfrog_klein_gordon(p, np.sin, u0, v0)


def kink_tetrahedron():
    """(bundle, u0, v0): the time-stepping benchmark's sine-Gordon kinks, speed 0.9,
    on the uniform tetrahedron with edges of length 20 (nx 80, n_ext 9 612)."""
    import graphpde as qg

    ell, c = 20.0, 0.9
    b = qg.discretize(qg.from_template("tetrahedron", length=ell, nx=80), "uniform")
    gam = math.sqrt(1 - c * c)
    u0 = qg.apply_function_to_edges(
        b, [lambda x: 4 * np.arctan(np.exp((x - ell / 2) / gam))] * 3 + [2 * math.pi] * 3)
    v0 = qg.apply_function_to_edges(
        b, [lambda x: -(2 * c / gam) / np.cosh((x - ell / 2) / gam)] * 3 + [0.0] * 3)
    return b, u0, v0


@contextlib.contextmanager
def recorded_projection_rows():
    """Yields a list that receives the rows each leapfrog run's projection writes."""
    from graphpde import evolution

    rows, real = [], evolution._projection

    def recording(*args):
        out = real(*args)
        rows.append(out[0])
        return out

    evolution._projection = recording
    try:
        yield rows
    finally:
        evolution._projection = real


def stepping_report(n_steps=20):
    """One line per stepper of stepping_runs: steps, Factorization.solve calls per
    step and, for the leapfrog, the rows its projection writes per step."""
    import warnings

    from graphpde import linalg

    real_solve = linalg.Factorization.solve
    solves = [0]

    def counting_solve(self, b):
        solves[0] += 1
        return real_solve(self, b)

    lines = []
    linalg.Factorization.solve = counting_solve
    try:
        for name, problem, run in stepping_runs(n_steps):
            solves[0] = 0
            with recorded_projection_rows() as rows, warnings.catch_warnings():
                # the benchmark's profiles miss the vertex conditions by up to 3e-4
                warnings.simplefilter("ignore")
                run()
            steps = problem.n_steps
            line = f"{name}: {steps} steps, {solves[0] / steps:.2f} solves per step"
            if rows:
                line += (f", the projection writes {rows[0].size} of n_ext "
                         f"{problem.bundle.n_ext} rows per step")
            lines.append(line)
    finally:
        linalg.Factorization.solve = real_solve
    return "\n".join(lines)
