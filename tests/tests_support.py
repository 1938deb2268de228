"""Shared brute-force oracles for the test suite."""
import numpy as np


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
