"""Weighted integrals, norms, inner products, and NLS conserved quantities.

All functionals integrate with the edge weights w_m of the parent graph:
integral(u) = sum_m w_m int_{e_m} u dx via the grid quadrature, and the
inner product is conjugate-linear in its first slot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import OperatorBundle, vertex_value


class FunctionalError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FunctionalContext:
    """Quadrature row (edge weights folded in) plus the operator bundle."""

    bundle: OperatorBundle
    q: np.ndarray  # w_m * integration weight, aligned with the extended grid


def make_context(bundle: OperatorBundle) -> FunctionalContext:
    weights = [e.weight for e in bundle.graph.edges]
    return FunctionalContext(bundle, bundle.quad_ext * np.repeat(weights, bundle.grid.n + 2))


def _check(ctx: FunctionalContext, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u)
    if u.shape != (ctx.bundle.n_ext,):
        raise FunctionalError(
            f"state length {u.shape} does not match layout ({ctx.bundle.n_ext})")
    return u


def integral(ctx: FunctionalContext, u) -> float | complex:
    u = _check(ctx, u)
    return ctx.q @ u


def norm_lp(ctx: FunctionalContext, u, p: float = 2.0) -> float:
    if p < 1:
        raise FunctionalError("p must be >= 1")
    u = _check(ctx, u)
    return float(ctx.q @ np.abs(u) ** p) ** (1.0 / p)


def mass(ctx: FunctionalContext, u) -> float:
    """Squared L2 norm; the N axis of bifurcation diagrams."""
    u = _check(ctx, u)
    return float(ctx.q @ np.abs(u) ** 2)


def inner_product(ctx: FunctionalContext, u, v) -> float | complex:
    u = _check(ctx, u)
    v = _check(ctx, v)
    return ctx.q @ (np.conj(u) * v)


def energy_nls(ctx: FunctionalContext, u, sigma: float = 1.0) -> float:
    """NLS energy: |u'|^2 - |u|^{2(s+1)} terms plus potential and Robin parts.

    E = ||u'||^2 - ||u||_{2(s+1)}^{2(s+1)} + sum_m w_m int V_m |u|^2
        + sum_n alpha_n |u(v_n)|^2,
    with u' taken edgewise through the derivative matrix and vertex values
    interpolated the same way column_to_graph interpolates them.
    """
    b = ctx.bundle
    u = _check(ctx, u)
    du = b.deriv @ u
    e = float(np.real(ctx.q @ np.abs(du) ** 2))
    e -= float(ctx.q @ np.abs(u) ** (2.0 * (sigma + 1.0)))
    if np.any(b.potential_ext):
        e += float(np.real(ctx.q @ (b.potential_ext * np.abs(u) ** 2)))
    for n, cond in enumerate(b.graph.vertices, start=1):
        if not cond.is_dirichlet and cond.alpha != 0.0:
            e += cond.alpha * abs(vertex_value(b, u, n)) ** 2
    return e


def momentum(ctx: FunctionalContext, u, orientations=None) -> float:
    """Im sum_m s_m w_m int conj(u) u' dx with optional per-edge signs.

    ``orientations`` selects the transit direction on each edge (+1 along
    increasing edge coordinate); it defaults to all +1.  Real states have
    zero momentum.
    """
    b = ctx.bundle
    u = _check(ctx, u)
    du = b.deriv @ u
    w = np.conj(u) * du
    if orientations is not None:
        orientations = np.asarray(orientations, dtype=float)
        if orientations.shape != (b.graph.num_edges,):
            raise FunctionalError("one orientation sign per edge required")
        w = w * np.repeat(orientations, b.grid.n + 2)
    return float(np.imag(ctx.q @ w))
