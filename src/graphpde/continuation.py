"""Pseudo-arclength continuation with bifurcation detection.

Branches of solutions of F(u, lambda) = 0 are traced with a secant
predictor and a Newton corrector on the bordered system

    F(u, lambda) = 0,
    <u - u_pred, t_u> + beta (lambda - lambda_pred) t_lambda = 0,

where <.,.> is the problem's inner product and (t_u, t_lambda) the current
unit tangent in the beta-metric.  The corrector is stationary.newton on
x = [u; lambda], the package's one Newton loop; it factors each iterate's
bordered matrix once and returns the LU of the last iterate it stepped
from (the solution's if none), whose determinant costs no further LU.
One layout per pattern of J holds the bordered matrix SuperLU reads,
every border entry stored; each bordered LU gathers J's values (an NLS
problem's straight from its pattern) and the border into it, in natural
column order (see linalg).  One rule rejects a step: when the corrector
fails, the step has zero length, or the turn angle exceeds maxTheta, the
step halves, and the branch ends once it falls below min_norm_delta.
The step grows by 1.3x (capped at 8x the initial step) when the turn
angle stays below maxTheta/2.

Two determinant signs are monitored at every accepted point: branch
points flip the sign of the bordered Jacobian determinant and are
localized in pseudo-arclength by a safeguarded secant on the signed
determinant (see locate_branch_point), also a flip read within a Newton
step of a point; folds flip the sign of d(lambda)/ds without a bordered
sign change and are tagged at the nearer point.  Simultaneous events
resolve as branch points.  Switching onto the crossing branch uses only
the stored branch point from its directory.  A branch records the
problem's sigma, and extending it or switching off it with a system of
another sigma is refused.

The seeds of continue_branch, continue_from_eig and continue_from_saved are
polished at their fixed lambda by the same loop (NewtonError on failure).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from . import linalg
from .discretize import OperatorBundle
from .functionals import FunctionalContext, energy_nls
from .stationary import NLSProblem, NewtonError, newton, nls_jacobian, nls_residual
# the store's own objects, also bound here under the names they had in this module
from .store import (DIAGRAM_AXES, ContinuationError, StaleLayoutError, bifurcation_diagram,
                    bundle_hash, check_run_layout, create_run, list_branches,
                    load_eigenfunction, load_standing_wave, read_branch, save_branch,
                    save_eigenfunctions, save_standing_wave)


class CorrectorError(ContinuationError):
    pass


class CodimensionTwoError(ContinuationError):
    pass


@dataclass
class ContinuationOptions:
    """Step control, thresholds, and bookkeeping flags.

    max_theta is the largest allowed turn angle between consecutive branch
    segments, in degrees.  beta weights the frequency component in the
    inner product used for angles and distances.  The branch terminates
    when the mass crosses n_thresh, the frequency crosses lambda_thresh,
    max_points is reached, or the step falls below min_norm_delta.
    """

    max_theta: float = 4.0
    min_norm_delta: float = 1e-3
    beta: float = 0.1
    n_thresh: float = 4.0
    lambda_thresh: float = -1.0
    max_points: int = 999
    save_flag: bool = True
    verbose_flag: bool = True
    ds: float = 0.1
    newton_tol: float = 1e-10
    max_newton: int = 25

    def __post_init__(self):
        # written as "not inside" so that NaN fails too; n_thresh and
        # lambda_thresh may be +-inf, which turns a threshold off
        if math.isnan(self.n_thresh) or math.isnan(self.lambda_thresh):
            raise ValueError("n_thresh and lambda_thresh must not be NaN")
        if not 0.0 < self.max_theta < 90.0:
            raise ValueError("max_theta must lie in (0, 90) degrees")
        for name in ("min_norm_delta", "beta", "ds", "newton_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name, least in (("max_points", 2), ("max_newton", 1)):
            value = getattr(self, name)
            if not (value >= least and value % 1 == 0):
                raise ValueError(f"{name} must be an integer of at least {least}")


@dataclass
class BranchPoint:
    """One accepted solution with its conserved quantities and unit tangent."""

    psi: np.ndarray
    lam: float
    mass: float
    energy: float
    bif_type: int = 0  # 0 regular, 1 branch point, -1 fold
    tangent_psi: np.ndarray | None = None
    tangent_lam: float = 0.0


@dataclass
class Branch:
    points: list[BranchPoint]
    provenance: dict
    options: ContinuationOptions
    perturbations: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    @property
    def masses(self) -> np.ndarray:
        return np.array([p.mass for p in self.points])

    @property
    def bif_types(self) -> np.ndarray:
        return np.array([p.bif_type for p in self.points], dtype=int)


# ---------------------------------------------------------------------------
# problem interface

@dataclass(eq=False)
class ContinuationSystem:
    """What continuation needs from a problem F(u, lambda) = 0.

    residual, jacobian and dlam give F, dF/du and dF/dlambda at (u, lambda).
    Angles, distances and the mass <u, u> use <u, v> = sum(weights u v), a
    plain dot product when weights is None.  Run-directory initializers use
    bundle and problem; an nls_system's bordered LUs use problem's pattern.
    """

    residual: Callable
    jacobian: Callable
    dlam: Callable
    weights: np.ndarray | None = None
    energy: Callable = lambda u, lam: 0.0
    bundle: OperatorBundle | None = None
    problem: NLSProblem | None = None
    # where _bordered_factor gathers each entry from, for the last pattern of J
    _bordered_layout: _BorderedLayout | None = field(default=None, init=False, repr=False)
    # set by nls_system: J's values on problem.jacobian_pattern, without a matrix
    _jacobian_values: Callable | None = field(default=None, init=False, repr=False)

    def inner(self, u, v) -> float:
        return float(np.dot(u, v) if self.weights is None else self.weights @ (u * v))


def nls_system(problem: NLSProblem, ctx: FunctionalContext) -> ContinuationSystem:
    """Continuation system for real standing waves of the stationary NLS.

    ctx must be made from problem.bundle.  The energy column is the
    power-law energy of problem.sigma, also when problem has another f.
    """
    b = problem.bundle
    if ctx.bundle is not b:
        raise ValueError("the functional context belongs to another bundle")
    sys = ContinuationSystem(
        residual=lambda u, lam: nls_residual(problem, u, lam),
        jacobian=lambda u, lam: nls_jacobian(problem, u, lam),
        dlam=lambda u, lam: b.interp_zero @ u, weights=ctx.q,
        energy=lambda u, lam: energy_nls(ctx, u, problem.sigma), bundle=b, problem=problem)
    sys._jacobian_values = problem.jacobian_values
    return sys


def beta_metric(sys: ContinuationSystem, u1, lam1, u2, lam2, beta: float) -> float:
    """<u1, u2> + beta lam1 lam2: the inner product behind angles and distances."""
    return sys.inner(u1, u2) + beta * lam1 * lam2


def _beta_norm(sys, du, dlam, beta):
    return math.sqrt(max(beta_metric(sys, du, dlam, du, dlam, beta), 0.0))


def _normalized(sys, du, dlam, beta):
    n = _beta_norm(sys, du, dlam, beta)
    if n == 0.0:
        raise ContinuationError("cannot normalize a zero tangent")
    return du / n, dlam / n


class _BorderedLayout(NamedTuple):
    """One pattern of J and its bordered CSC, canonical with intc indices, in natural column
    order: entry k is values[take[k]], values = [J.data, row, col, corner].  SuperLU copies
    matrix.data into L and U, so each gather may overwrite it under earlier LUs."""

    j_indptr: np.ndarray
    j_indices: np.ndarray
    take: np.ndarray
    matrix: sp.csc_matrix


def _bordered_factor(sys, u, lam, t_u, t_lam, beta):
    """LU of the bordered matrix [[J, col], [row, corner]], gathered into its layout.

    An nls_system's J values come from its problem's pattern; any other J is
    made canonical CSC.  Once per pattern of J, one sp.bmat numbers the
    bordered entries from 1 (none dropped, every border entry stored, zeros
    too); each LU is then one np.take into the layout's matrix, natural order.
    """
    if sys._jacobian_values is None:
        J = sys.jacobian(u, lam)
        J = J.tocsc() if sp.issparse(J) else sp.csc_matrix(J)
        J.sum_duplicates()
        indptr, indices, j_values = J.indptr, J.indices, J.data
    else:
        indptr, indices = sys.problem.jacobian_pattern[:2]
        j_values = sys._jacobian_values(u, lam)
    values = np.concatenate([j_values, t_u if sys.weights is None else sys.weights * t_u,
                             sys.dlam(u, lam), [beta * t_lam]])
    lay = sys._bordered_layout
    if lay is None or lay.matrix.dtype != values.dtype or not (
            lay.j_indptr is indptr and lay.j_indices is indices
            or np.array_equal(lay.j_indptr, indptr) and np.array_equal(lay.j_indices, indices)):
        n, nnz = indptr.size - 1, indices.size
        number = np.arange(1, values.size + 1)
        numbered = sp.bmat([[sp.csc_matrix((number[:nnz], indices, indptr), (n, n)),
                             number[nnz + n:-1, None]],
                            [number[None, nnz:nnz + n], number[-1:, None]]], format="csc")
        numbered.sum_duplicates()
        matrix = sp.csc_matrix((np.empty(values.size, values.dtype), numbered.indices.astype(
            np.intc), numbered.indptr.astype(np.intc)), shape=numbered.shape)
        if sys._jacobian_values is None:  # J's arrays are the caller's
            indptr, indices = indptr.copy(), indices.copy()
        lay = sys._bordered_layout = _BorderedLayout(indptr, indices, numbered.data - 1, matrix)
    np.take(values, lay.take, out=lay.matrix.data)
    return linalg.Factorization(lay.matrix, natural=True)


def corrector(sys: ContinuationSystem, opts: ContinuationOptions,
              u_pred, lam_pred, t_u, t_lam):
    """stationary.newton on the bordered system anchored at the predicted point.

    x = [u; lambda], the residual is [F(u, lambda); g], and every iterate's
    bordered matrix is factored once.  Returns (u, lambda, the LU of the
    last iterate Newton stepped from, or the solution's when it took none),
    whose det_sign and log_abs_det are the test functions.  A Newton failure
    (non-finite values too) or an exactly singular or non-finite bordered
    matrix raises CorrectorError.
    """
    n = np.size(u_pred)
    last = []  # the LU of the last iterate factored

    def residual(x):
        g = sys.inner(x[:n] - u_pred, t_u) + opts.beta * (x[n] - lam_pred) * t_lam
        return np.append(sys.residual(x[:n], x[n]), g)

    def factor(x):
        last[:] = [_bordered_factor(sys, x[:n], x[n], t_u, t_lam, opts.beta)]
        return last[0]

    try:
        x = newton(residual, factor, np.append(u_pred, lam_pred), opts.newton_tol,
                   opts.max_newton).psi
        return x[:n], float(x[n]), last[0] if last else factor(x)
    except linalg.SingularMatrixError as exc:
        raise CorrectorError(f"singular bordered system: {exc}") from exc
    except linalg.NonFiniteMatrixError as exc:
        raise CorrectorError(f"non-finite bordered system: {exc}") from exc
    except NewtonError as exc:
        raise CorrectorError(f"corrector failed: {exc}") from exc


def _polish(sys: ContinuationSystem, u, lam, opts: ContinuationOptions):
    """A seed state corrected at fixed lambda by the stationary Newton (opts.max_newton steps)."""
    return newton(lambda v: sys.residual(v, lam),
                  lambda v: linalg.factorize(sys.jacobian(v, lam)),
                  u, opts.newton_tol, opts.max_newton).psi


def tangent_at(sys: ContinuationSystem, u, lam, guess_u, guess_lam, beta):
    """Unit branch tangent along the guess: the guess borders the solve, so <t, guess>_beta = 1."""
    rhs = np.zeros(np.size(u) + 1)
    rhs[-1] = 1.0
    t = _bordered_factor(sys, u, lam, guess_u, guess_lam, beta).solve(rhs)
    return _normalized(sys, t[:-1], t[-1], beta)


def _make_point(sys, u, lam, t_u, t_lam, bif_type=0):
    return BranchPoint(np.array(u), float(lam), sys.inner(u, u),
                       sys.energy(u, lam), bif_type, np.array(t_u), float(t_lam))


def null_vector(sys: ContinuationSystem, u, lam):
    """Unit null vector of the (unbordered) Jacobian by inverse iteration, its largest
    entry positive; an exactly singular Jacobian is factored at lambda + 1e-10 (1 + |lambda|)."""
    J = sys.jacobian(u, lam)
    try:
        fact = linalg.factorize(J)
    except linalg.SingularMatrixError:
        fact = linalg.factorize(sys.jacobian(u, lam + 1e-10 * (1.0 + abs(lam))))
    n = np.asarray(u).size
    rng = np.random.default_rng(4242)
    v = rng.standard_normal(n)
    for _ in range(5):
        v = fact.solve(v)
        v = v / math.sqrt(max(sys.inner(v, v), 1e-300))
    v = linalg.fix_phase(v)
    if n > 1:
        # deflated inverse iteration: a second near-null direction means the
        # bifurcation has codimension two or higher
        w = rng.standard_normal(n)
        for _ in range(5):
            w = w - v * (sys.inner(v, w) / sys.inner(v, v))
            w = fact.solve(w)
            w = w / math.sqrt(max(sys.inner(w, w), 1e-300))
        w = w - v * (sys.inner(v, w) / sys.inner(v, v))
        nw = math.sqrt(max(sys.inner(w, w), 1e-300))
        if nw > 1e-8:
            w = w / nw
            jw = np.linalg.norm(J @ w, np.inf)
            jv = np.linalg.norm(J @ v, np.inf)
            if jw <= 10.0 * max(jv, 1e-12):
                raise CodimensionTwoError(
                    "Jacobian null space at the bifurcation has dimension > 1; "
                    "codimension-two branching is not supported")
    return v


_LOCATE_TOL = 1e-7  # beta-width of the final bracket
# offset of a secant evaluation from the zero, in bracket widths, after an
# evaluation that took Newton steps (False) and after one that took none
_LOCATE_SHIFT = {False: 0.03, True: 1e-3}


class _NoSignChange(ContinuationError):
    def __init__(self, sign):  # the one sign of the bracket's ends
        super().__init__("bordered determinant does not change sign across the detection bracket")
        self.sign = sign


def locate_branch_point(sys: ContinuationSystem, opts: ContinuationOptions,
                        a: BranchPoint, b: BranchPoint, direction):
    """Safeguarded secant in pseudo-arclength on the signed bordered determinant.

    direction is the unit tangent (t_u, t_lambda) the corrector used to
    reach b.  Points are corrected on hyperplanes normal to it, so the
    fraction s of the way from a to b along it parameterizes them.  The
    test function g(s) = det_sign exp(log_abs_det - ref) of the Jacobian
    bordered by direction is continuous and changes sign at a simple
    branch point.  The bracket ends are factored at a and b themselves;
    every later evaluation reads the LU the corrector returns, so an
    evaluation costs no extra LU.

    Each step corrects at the Illinois zero of the sign bracket, moved
    toward the bracket's middle by 0.03 of its width.  Near the zero the
    bordered system is nearly singular, and a Newton step there slides the
    state toward the crossing branch; the offset keeps such steps off the
    zero.  Each state is predicted by the quadratic through the bracket
    ends and the last end given up, so once the bracket is small the
    corrector accepts the prediction as it is; after such an evaluation
    the offset is only 0.001 of the width.  A bisection step follows
    whenever two secant steps have not halved the bracket, which keeps the
    iteration off a double crossing (two eigenvalues at once, no sign
    change) inside the bracket, and after a corrector failure.

    Returns (u*, lambda*, null vector) at the interpolated zero of the
    last bracket, once its beta-width is at most 1e-7; no corrector runs
    at that point.  Ends of one sign, a corrector failure at a bisection
    step, or a bracket still wider after 60 steps raise ContinuationError.
    """
    t_u, t_lam = direction
    fa, fb = (_bordered_factor(sys, p.psi, p.lam, t_u, t_lam, opts.beta) for p in (a, b))
    sign, ref = fa.det_sign, fa.log_abs_det
    if fb.det_sign == sign:
        raise _NoSignChange(sign)

    def value(fact):
        return fact.det_sign * math.exp(fact.log_abs_det - ref)

    # bracket ends as (s, u, lambda, g), end 0 with the sign at a
    ends = [(0.0, np.array(a.psi), a.lam, float(sign)),
            (1.0, np.array(b.psi), b.lam, value(fb))]
    gone = []             # the last end given up
    weight = [1.0, 1.0]   # Illinois weights of the end values
    moved = None          # end replaced by the previous step
    secants, mark, bisect = 0, 1.0, False  # secant steps since the width was mark
    quiet = False         # the previous evaluation took no Newton step

    def zero(g0, g1):
        (s0, *_), (s1, *_) = ends
        z = s0 + (s1 - s0) * g0 / (g0 - g1)
        return z if s0 < z < s1 else 0.5 * (s0 + s1)

    def predict(s):
        """(u, lambda) at s, interpolated through the ends and the end given up."""
        nodes = ends + gone
        w = [math.prod((s - q[0]) / (p[0] - q[0]) for q in nodes if q is not p)
             for p in nodes]
        return (sum(wi * p[1] for wi, p in zip(w, nodes)),
                sum(wi * p[2] for wi, p in zip(w, nodes)))

    for _ in range(60):
        (s0, u0, lam0, g0), (s1, u1, lam1, g1) = ends
        if _beta_norm(sys, u1 - u0, lam1 - lam0, opts.beta) <= _LOCATE_TOL:
            break
        if secants == 2:
            bisect = bisect or s1 - s0 > 0.5 * mark
            secants, mark = 0, s1 - s0
        mid = 0.5 * (s0 + s1)
        if bisect:
            s = mid
        else:
            z = zero(weight[0] * g0, weight[1] * g1)
            s = z + math.copysign(_LOCATE_SHIFT[quiet] * (s1 - s0), mid - z)
            secants += 1
        u_pred, lam_pred = predict(s)
        try:
            u, lam, fact = corrector(sys, opts, u_pred, lam_pred, t_u, t_lam)
        except CorrectorError:
            if bisect:
                raise ContinuationError(
                    "corrector failed during branch-point localization") from None
            bisect = True
            continue
        quiet = lam == lam_pred and np.array_equal(u, u_pred)
        end = 0 if fact.det_sign == sign else 1
        if moved == end:
            weight[1 - end] *= 0.5
        weight[end], moved = 1.0, end
        gone = [ends[end]]
        ends[end] = (s, u, lam, value(fact))
        if bisect:
            bisect, secants, mark = False, 0, ends[1][0] - ends[0][0]
    else:
        raise ContinuationError("branch-point localization exceeded its budget")
    u_star, lam_star = predict(zero(ends[0][3], ends[1][3]))
    return u_star, lam_star, null_vector(sys, u_star, lam_star)


# ---------------------------------------------------------------------------
# main driver

def _run_continuation(sys, opts, points, prev_dir, events):
    """Advance a branch from its last point; points and events are extended in place."""
    ds = opts.ds
    ds_cap = 8.0 * opts.ds
    last = points[-1]
    try:
        prev_bordered = _bordered_factor(sys, last.psi, last.lam, *prev_dir, opts.beta).det_sign
    except linalg.SingularMatrixError:
        prev_bordered = None
    behind = None  # the last accepted step's bracket for locate_branch_point
    perturbations: dict[int, np.ndarray] = {}
    termination = "max_points"
    first_step = True
    # thresholds fire when the branch crosses them, not when it starts beyond
    mass_side = np.sign(last.mass - opts.n_thresh)
    lam_side = np.sign(last.lam - opts.lambda_thresh)

    def note(msg):
        if opts.verbose_flag:
            print(f"[continuation] {msg}")
        events.append(msg)

    while len(points) < opts.max_points:
        # one rejection rule halves ds: the corrector failed, or its point is
        # the last one or turns by more than max_theta (allowed on the first step)
        try:
            u, lam, fact = corrector(sys, opts, last.psi + ds * prev_dir[0],
                                     last.lam + ds * prev_dir[1], *prev_dir)
            du, dlam = u - last.psi, lam - last.lam
            step_len = _beta_norm(sys, du, dlam, opts.beta)
            if step_len < 1e-14:
                raise CorrectorError("zero step")
            new_dir = (du / step_len, dlam / step_len)
            cosang = np.clip(beta_metric(sys, *new_dir, *prev_dir, opts.beta), -1.0, 1.0)
            angle = math.degrees(math.acos(cosang))
            if not first_step and angle > opts.max_theta:
                raise CorrectorError("turn angle above max_theta")
        except CorrectorError:
            ds *= 0.5
            if ds < opts.min_norm_delta:
                termination = "step below min_norm_delta"
                break
            continue
        point = _make_point(sys, u, lam, *new_dir)

        sign = fact.det_sign
        if prev_bordered is not None and sign != prev_bordered:
            at, bp_dir = len(points), new_dir
            try:
                try:
                    located = locate_branch_point(sys, opts, last, point, prev_dir)
                except _NoSignChange as same:  # signs read up to a Newton step off their points
                    sign, located = same.sign, None  # the flip is next to point: test its sign
                    if sign == fact.det_sign:  # or next to last (a run's first sign is exact)
                        at, bp_dir = at - 1, (last.tangent_psi, last.tangent_lam)
                        located = locate_branch_point(sys, opts, *behind)
                if located is not None:
                    u_star, lam_star, v = located
                    eps = 1e-2 * math.sqrt(max(sys.inner(u_star, u_star), 0.0)) + 1e-3
                    points.insert(at, _make_point(sys, u_star, lam_star, *bp_dir, bif_type=1))
                    perturbations[at] = eps * v
                    note(f"branch point located at lambda={lam_star:.8g}")
                    if len(points) == opts.max_points:
                        break
            except CodimensionTwoError:
                raise
            except ContinuationError as exc:
                note(f"bifurcation localization failed: {exc}")
        elif prev_bordered is not None and last.tangent_lam * new_dir[1] < 0.0:
            fold_at = point if abs(new_dir[1]) <= abs(last.tangent_lam) else last
            fold_at.bif_type = -1
            note(f"fold tagged at lambda={fold_at.lam:.8g}")

        points.append(point)
        if opts.verbose_flag:
            print(f"[continuation] point {len(points) - 1}: "
                  f"lambda={lam:.6g} N={point.mass:.6g} ds={ds:.3g}")
        prev_bordered, behind = sign, (last, point, prev_dir)
        last = point
        prev_dir = new_dir
        first_step = False
        if angle < 0.5 * opts.max_theta:
            ds = min(1.3 * ds, ds_cap)
        new_mass_side = np.sign(point.mass - opts.n_thresh)
        new_lam_side = np.sign(point.lam - opts.lambda_thresh)
        if mass_side != 0.0 and new_mass_side == -mass_side:
            termination = "n_thresh"
            break
        if lam_side != 0.0 and new_lam_side == -lam_side:
            termination = "lambda_thresh"
            break
        mass_side = mass_side or new_mass_side
        lam_side = lam_side or new_lam_side
    note(f"finished with {len(points)} points ({termination})")
    return perturbations, termination


def continue_branch(sys: ContinuationSystem, seed_u, seed_lam,
                    tangent_u, tangent_lam, opts: ContinuationOptions | None = None) -> Branch:
    """Trace a branch along a tangent from a seed polished by stationary.newton."""
    opts = opts or ContinuationOptions()
    t = _normalized(sys, np.asarray(tangent_u, dtype=float), float(tangent_lam), opts.beta)
    points = [_make_point(sys, _polish(sys, seed_u, seed_lam, opts), seed_lam, *t)]
    return _run_and_save(None, sys, opts, points, t, {"kind": "seed"})


def load_branch(run_dir, branch_id: int, bundle: OperatorBundle) -> Branch:
    """A saved branch, read by store.read_branch."""
    points, perturbations, options, provenance = read_branch(
        run_dir, branch_id, bundle, [f.name for f in fields(ContinuationOptions)])
    return Branch([BranchPoint(**p) for p in points], provenance,
                  ContinuationOptions(**options), perturbations)


# ---------------------------------------------------------------------------
# the four initializers

def _run_and_save(run_dir, sys: ContinuationSystem, opts: ContinuationOptions, points,
                  prev_dir, provenance: dict, perturbations=None, branch_id=None) -> Branch:
    """Advance points along prev_dir; save the branch if save_flag and run_dir are set.

    The problem's sigma (when the system has a problem), the termination
    reason and the events, after those it holds, go into the provenance, and
    the perturbations found are merged over the given ones.
    """
    if sys.problem is not None:
        provenance = {**provenance, "sigma": float(sys.problem.sigma)}
    events = list(provenance.get("events", []))
    found, termination = _run_continuation(sys, opts, points, prev_dir, events)
    branch = Branch(points, {**provenance, "termination": termination, "events": events},
                    opts, {**(perturbations or {}), **found})
    if opts.save_flag and run_dir is not None:
        save_branch(run_dir, branch, sys.bundle, branch_id)
    return branch


def _check_sigma(sys: ContinuationSystem, provenance: dict, branch_id: int) -> None:
    """Refuse to go on from a branch traced for another sigma; a branch that
    records none, or a system without a problem, passes."""
    stored = provenance.get("sigma")
    if stored is not None and sys.problem is not None and stored != sys.problem.sigma:
        raise ContinuationError(f"branch {branch_id} was traced with sigma = {stored}, "
                                f"not with this system's sigma = {sys.problem.sigma}")


def continue_from_eig(run_dir, sys: ContinuationSystem, index: int,
                      amplitude: float = 1e-2,
                      opts: ContinuationOptions | None = None) -> Branch:
    """Branch bifurcating from zero along the index-th saved eigenfunction.

    The seed a v (a = amplitude) at lambda = -lambda_index - <f(a v), v> /
    (a <v, v>) is polished by stationary.newton (NewtonError on failure).
    A zero or non-finite amplitude raises ValueError before any solve.
    """
    if amplitude == 0.0 or not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite and nonzero, got {amplitude}")
    opts = opts or ContinuationOptions()
    lam_j, v = load_eigenfunction(run_dir, sys.bundle, index)

    a = amplitude
    f = sys.problem.f
    offset = sys.inner(np.asarray(f(a * v), dtype=float), v) / (a * sys.inner(v, v))
    lam_seed = -lam_j - offset
    seed = _polish(sys, a * v, lam_seed, opts)
    direction = v if sys.inner(v, seed) >= 0 else -v
    t = _normalized(sys, direction, 0.0, opts.beta)
    return _run_and_save(run_dir, sys, opts, [_make_point(sys, seed, lam_seed, *t)], t,
                         {"kind": "eigenfunction", "index": index, "amplitude": amplitude})


def continue_from_saved(run_dir, sys: ContinuationSystem, name: str,
                        opts: ContinuationOptions | None = None,
                        direction: float = -1.0) -> Branch:
    """Continue a saved standing wave, first polished by stationary.newton
    (NewtonError on failure); direction sets d(lambda)/ds."""
    opts = opts or ContinuationOptions()
    psi, lam = load_standing_wave(run_dir, sys.bundle, name)
    psi = _polish(sys, psi, lam, opts)
    t = tangent_at(sys, psi, lam, np.zeros_like(psi), math.copysign(1.0, direction), opts.beta)
    return _run_and_save(run_dir, sys, opts, [_make_point(sys, psi, lam, *t)], t,
                         {"kind": "saved", "name": name})


def continue_from_branch_point(run_dir, sys: ContinuationSystem, branch_id: int,
                               point_index: int, sign: int,
                               opts: ContinuationOptions | None = None) -> Branch:
    """Switch onto the branch crossing at a stored branch point.

    Uses only that point's lambda, state and perturbation from the parent
    branch, as store.read_branch gives them, and refuses a parent traced for
    another sigma.  sign (1 or -1, ValueError otherwise) chooses the leg.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign}")
    opts = opts or ContinuationOptions()
    stored, perturbations, _, provenance = read_branch(
        run_dir, branch_id, sys.bundle, [f.name for f in fields(ContinuationOptions)])
    _check_sigma(sys, provenance, branch_id)
    if point_index not in perturbations:
        raise ContinuationError(
            f"branch {branch_id} has no stored perturbation at point {point_index}")
    lam0, psi0 = stored[point_index]["lam"], stored[point_index]["psi"]
    pert = sign * perturbations[point_index]
    t_u, t_lam = _normalized(sys, pert, 0.0, opts.beta)
    u1, lam1, _ = corrector(sys, opts, psi0 + pert, lam0, t_u, t_lam)
    points = [_make_point(sys, psi0, lam0, t_u, t_lam, bif_type=1),
              _make_point(sys, u1, lam1, t_u, t_lam)]
    du, dlam = u1 - psi0, lam1 - lam0
    prev_dir = _normalized(sys, du, dlam, opts.beta)
    points[1].tangent_psi, points[1].tangent_lam = prev_dir
    return _run_and_save(run_dir, sys, opts, points, prev_dir,
                         {"kind": "branch_point", "parent": branch_id,
                          "point": point_index, "sign": int(sign)})


def continue_from_end(run_dir, sys: ContinuationSystem, branch_id: int,
                      opts: ContinuationOptions | None = None) -> Branch:
    """Extend a stored branch beyond its last point (re-saved in place); a branch
    traced for another sigma is refused."""
    opts = opts or ContinuationOptions()
    branch = load_branch(run_dir, branch_id, sys.bundle)
    _check_sigma(sys, branch.provenance, branch_id)
    if len(branch.points) < 2:
        raise ContinuationError("need at least two points to extend a branch")
    a, b = branch.points[-2], branch.points[-1]
    prev_dir = _normalized(sys, b.psi - a.psi, b.lam - a.lam, opts.beta)
    return _run_and_save(run_dir, sys, opts, branch.points, prev_dir,
                         {**branch.provenance, "extended": True}, branch.perturbations,
                         branch_id)

