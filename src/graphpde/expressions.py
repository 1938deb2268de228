"""Config values: read_table, the one reader of `qg` configs, and edge expressions.

Config files describe edge functions without a general evaluator.  An
expression is a number (constant), a nonempty list of numbers (polynomial
coefficients, ascending), a term table, or a nonempty list of term tables
(summed).  A term table takes "fn" and only that function's keys, each at
the default shown when absent; poly's coeffs is required:
    {"fn": "poly", "coeffs": [c0, c1, ...]}
    {"fn": "const", "value": 0}
    {"fn": "sin"|"cos"|"sech"|"exp", "scale": 1, "a": 1, "b": 0, "power": 1}
        -> scale * fn(a x + b) ** power
    {"fn": "gauss", "scale": 1, "x0": 0, "rate": 1} -> scale exp(-rate (x - x0)^2)
    {"fn": "soliton", "v": 0, "x0": 0} -> exp(-i v x / 2) sech(x - x0)
    {"fn": "kink", "c": 0, "x0": 0} -> 4 atan(exp((x - x0)/sqrt(1 - c^2))), |c| < 1
    {"fn": "kink_velocity", "c": 0, "x0": 0}
        -> -(2 c / g) sech((x - x0)/g), g = sqrt(1 - c^2)
"""
from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .graphs import DIRICHLET


class ConfigError(ValueError):
    pass


class Kind(NamedTuple):
    """A value kind beyond a type: what a value must be, and read(value), None if it is not."""
    what: str
    read: Callable


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """A JSON number: NaN and Infinity, which Python's JSON reader takes, are not."""
    return _number(value) and (isinstance(value, int) or math.isfinite(value))


def _numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_finite, value))


def _robin(value):
    entries = value if isinstance(value, list) else [value]
    if not all(_finite(v) or isinstance(v, str) and v.lower() == "dirichlet" for v in entries):
        return None
    read = [DIRICHLET if isinstance(v, str) else v for v in entries]
    return read if isinstance(value, list) else read[0]


NUMBERS = Kind("a number or a list of numbers", lambda v: v if _finite(v) or _numbers(v) else None)
NUMBER_LIST = Kind("a nonempty list of numbers",
                   lambda v: [float(n) for n in v] if v and _numbers(v) else None)
INTEGERS = Kind("a list of integers",
                lambda v: v if _numbers(v) and all(n % 1 == 0 for n in v) else None)
ROBIN = Kind('a number or "dirichlet", or a list of these', _robin)
MU = Kind("a number or a list of two numbers",
          lambda v: v if _finite(v) else complex(*v) if _numbers(v) and len(v) == 2 else None)
UNBOUNDED = Kind("a number, Infinity or -Infinity", lambda v: v if _number(v) and v == v else None)


def _typed(value, kind, key: str, where: str):
    """value read as kind, a type or a Kind; int and float take finite non-bool numbers."""
    if isinstance(kind, Kind):
        read, what = kind.read(value), kind.what
    elif kind in (int, float):
        number = _finite(value) and (kind is float or value % 1 == 0)
        read, what = kind(value) if number else None, kind.__name__
    else:
        read = value if isinstance(value, kind) else None
        what = "a list" if kind is list else kind.__name__
    if read is None:
        raise ConfigError(f"{where}: {key!r} must be {what}, got {value!r}")
    return read


def read_table(table, schema: dict, where: str) -> dict:
    """table checked against schema, every absent key at its default; where is its path.

    An unknown key is refused.  The default gives the kind: a number (finite JSON,
    never a string or a bool), bool, string or list takes only that type, an int no
    fraction; a type or a Kind that kind, None when absent; a dict is a nested
    table; a pair (default, choices) one of choices (a list if default is one).
    """
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must be a table, got {table!r}")
    unknown = sorted(table.keys() - schema.keys())
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    cfg = {}
    for key, default in schema.items():
        if isinstance(default, dict):
            cfg[key] = read_table(table.get(key, {}), default, f"{where}.{key}")
        elif isinstance(default, (type, Kind)):
            cfg[key] = _typed(table[key], default, key, where) if key in table else None
        elif isinstance(default, tuple):
            default, choices = default
            cfg[key] = table.get(key, default)
            many = isinstance(default, list)
            for entry in _typed(cfg[key], list, key, where) if many else [cfg[key]]:
                if entry not in choices:
                    raise ConfigError(f"{where}: {key!r} takes one of {choices}, got {entry!r}")
        else:
            cfg[key] = _typed(table[key], type(default), key, where) if key in table else default
    return cfg


# each term function: its keys for read_table (a Kind key is required), and its value at x
_TERMS = {
    "poly": ({"coeffs": NUMBER_LIST},
             lambda x, coeffs: np.polynomial.polynomial.polyval(x, coeffs)),
    "const": ({"value": 0.0}, lambda x, value: np.full_like(np.asarray(x, dtype=float), value)),
    "gauss": ({"scale": 1.0, "x0": 0.0, "rate": 1.0},
              lambda x, scale, x0, rate: scale * np.exp(-rate * (np.asarray(x) - x0) ** 2)),
    "soliton": ({"v": 0.0, "x0": 0.0}, lambda x, v, x0:
                np.exp(-0.5j * v * np.asarray(x)) / np.cosh(np.asarray(x) - x0)),
    "kink": ({"c": 0.0, "x0": 0.0}, lambda x, c, x0:
             4.0 * np.arctan(np.exp((np.asarray(x) - x0) / math.sqrt(1.0 - c * c)))),
    "kink_velocity": ({"c": 0.0, "x0": 0.0}, lambda x, c, x0: -(2.0 * c / math.sqrt(1.0 - c * c))
                      * (1.0 / np.cosh((np.asarray(x) - x0) / math.sqrt(1.0 - c * c)))),
    **{fn: ({"scale": 1.0, "a": 1.0, "b": 0.0, "power": 1.0}, lambda x, scale, a, b, power,
            base=base: scale * base(a * np.asarray(x) + b) ** power)
       for fn, base in {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                        "sech": lambda y: 1.0 / np.cosh(y)}.items()},
}


def _term_callable(term, where: str):
    fn = term.get("fn") if isinstance(term, dict) else None
    if not isinstance(fn, str) or fn not in _TERMS:
        raise ConfigError(f"{where}: expression term must be a dict with an 'fn' key: {term!r}, "
                          f"and 'fn' one of {sorted(_TERMS)}")
    keys, value_at = _TERMS[fn]
    params = read_table({key: v for key, v in term.items() if key != "fn"}, keys, where)
    missing = [key for key, value in params.items() if value is None]
    if missing:
        raise ConfigError(f"{where}: {fn!r} needs the {missing[0]!r} key")
    if fn.startswith("kink") and not -1.0 < params["c"] < 1.0:
        raise ConfigError(f"{where}: kink speed must satisfy |c| < 1")
    return partial(value_at, **params)


def compile_expression(expr, where: str = "expression"):
    """The vectorized callable of x that expr describes, None for None; where is its path."""
    if expr is None:
        return None
    if _number(expr) or expr and _numbers(expr):  # a const or a poly term
        expr = {"fn": "const", "value": expr} if _number(expr) else {"fn": "poly", "coeffs": expr}
    if isinstance(expr, dict):
        return _term_callable(expr, where)
    if isinstance(expr, (list, tuple)) and expr:
        terms = [_term_callable(t, f"{where}[{j}]") for j, t in enumerate(expr)]
        return lambda x: sum(t(x) for t in terms)
    raise ConfigError(f"{where} must be an expression (see graphpde.expressions), got {expr!r}")


def compile_edge_expressions(exprs, n_edges: int, where: str = "expressions"):
    """One expression per edge, each compiled at its path where[i]; numbers are constants."""
    if exprs is None:
        return None
    if not isinstance(exprs, (list, tuple)) or len(exprs) != n_edges:
        raise ConfigError(f"{where}: expected a list of {n_edges} per-edge expressions")
    return [compile_expression(e, f"{where}[{i}]") for i, e in enumerate(exprs)]
