"""Whitelisted function expressions for configuration files.

Config files describe edge functions without a general evaluator.  An
expression is a number (constant), a list of numbers (polynomial
coefficients, ascending), a term dict, or a list of term dicts (summed).

Term dicts:
    {"fn": "poly", "coeffs": [c0, c1, ...]}
    {"fn": "const", "value": c}
    {"fn": "sin"|"cos"|"sech"|"exp", "scale": s, "a": a, "b": b, "power": p}
        -> s * fn(a x + b) ** p
    {"fn": "gauss", "scale": s, "x0": x0, "rate": r} -> s exp(-r (x - x0)^2)
    {"fn": "soliton", "v": v, "x0": x0} -> exp(-i v x / 2) sech(x - x0)
    {"fn": "kink", "c": c, "x0": x0} -> 4 atan(exp((x - x0)/sqrt(1 - c^2)))
    {"fn": "kink_velocity", "c": c, "x0": x0}
        -> -(2 c / g) sech((x - x0)/g), g = sqrt(1 - c^2)
"""
from __future__ import annotations

import math

import numpy as np


class ConfigError(ValueError):
    pass


def _sech(x):
    return 1.0 / np.cosh(x)


_AFFINE_FNS = {"sin": np.sin, "cos": np.cos, "sech": _sech, "exp": np.exp}

# the keys each term function takes, besides "fn"
_TERM_KEYS = {"poly": {"coeffs"}, "const": {"value"}, "gauss": {"scale", "x0", "rate"},
              "soliton": {"v", "x0"}, "kink": {"c", "x0"}, "kink_velocity": {"c", "x0"},
              **{fn: {"scale", "a", "b", "power"} for fn in _AFFINE_FNS}}


def _term_callable(term: dict):
    if not isinstance(term, dict) or "fn" not in term:
        raise ConfigError(f"expression term must be a dict with an 'fn' key: {term!r}")
    fn = term["fn"]
    if fn not in _TERM_KEYS:
        raise ConfigError(f"unknown expression function {fn!r}; known: {sorted(_TERM_KEYS)}")
    extra = set(term) - _TERM_KEYS[fn] - {"fn"}
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in expression term {fn!r}")

    if fn == "poly":
        coeffs = [float(c) for c in term.get("coeffs", [])]
        return lambda x: np.polynomial.polynomial.polyval(x, coeffs)
    if fn == "const":
        value = float(term.get("value", 0.0))
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    if fn == "gauss":
        s = float(term.get("scale", 1.0))
        x0 = float(term.get("x0", 0.0))
        r = float(term.get("rate", 1.0))
        return lambda x: s * np.exp(-r * (np.asarray(x) - x0) ** 2)
    if fn == "soliton":
        v = float(term.get("v", 0.0))
        x0 = float(term.get("x0", 0.0))
        return lambda x: np.exp(-0.5j * v * np.asarray(x)) / np.cosh(np.asarray(x) - x0)
    if fn in ("kink", "kink_velocity"):
        c = float(term.get("c", 0.0))
        if not -1.0 < c < 1.0:
            raise ConfigError("kink speed must satisfy |c| < 1")
        gamma = math.sqrt(1.0 - c * c)
        x0 = float(term.get("x0", 0.0))
        if fn == "kink":
            return lambda x: 4.0 * np.arctan(np.exp((np.asarray(x) - x0) / gamma))
        return lambda x: -(2.0 * c / gamma) * _sech((np.asarray(x) - x0) / gamma)

    base = _AFFINE_FNS[fn]
    s = float(term.get("scale", 1.0))
    a = float(term.get("a", 1.0))
    b = float(term.get("b", 0.0))
    p = float(term.get("power", 1.0))
    if p == 1.0:
        return lambda x: s * base(a * np.asarray(x) + b)
    return lambda x: s * base(a * np.asarray(x) + b) ** p


def compile_expression(expr):
    """Turn a whitelisted expression description into a vectorized callable of x."""
    if expr is None:
        return None
    if isinstance(expr, (int, float)):
        value = float(expr)
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    if isinstance(expr, dict):
        return _term_callable(expr)
    if isinstance(expr, (list, tuple)):
        if all(isinstance(v, (int, float)) for v in expr):
            coeffs = [float(c) for c in expr]
            return lambda x: np.polynomial.polynomial.polyval(x, coeffs)
        terms = [_term_callable(t) for t in expr]

        def total(x, _terms=terms):
            return sum(t(x) for t in _terms)

        return total
    raise ConfigError(f"cannot interpret expression {expr!r}")


def compile_edge_expressions(exprs, n_edges: int):
    """One expression per edge; numbers broadcast as constants."""
    if exprs is None:
        return None
    if not isinstance(exprs, (list, tuple)) or len(exprs) != n_edges:
        raise ConfigError(f"expected a list of {n_edges} per-edge expressions")
    return [compile_expression(e) for e in exprs]
