"""Scalar test functions with explicit derivatives.

Every function carries its derivatives up to ``max_order`` as vectorized
callables.  The generalized absolute value ``s * |s|`` is special: it is only
C^1, its first derivative is ``2|s|``, and its second-order divided difference
on the full diagonal is fixed to 0 by convention (see divdiff).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import BadParameter, OrderUnsupported

KIND_SMOOTH = "smooth"
KIND_GENERALIZED_ABS = "generalized_abs"


@dataclass(frozen=True)
class ScalarFunction:
    name: str
    kind: str
    max_order: int
    derivs: Sequence[Callable]  # derivs[0] is the function itself
    singular_points: tuple = field(default=())

    def eval(self, s):
        return self.derivs[0](s)

    def deriv(self, j: int) -> Callable:
        """j-th derivative as a vectorized callable, 0 <= j <= max_order."""
        if j < 0 or j > self.max_order:
            raise OrderUnsupported(
                f"{self.name}: derivative order {j} not available (max {self.max_order})"
            )
        return self.derivs[j]

    def max_abs_deriv(self, j: int, lo: float, hi: float, samples: int = 512) -> float:
        """Sampled sup of |f^(j)| on [lo, hi] (end points included)."""
        if lo > hi:
            lo, hi = hi, lo
        xs = np.linspace(lo, hi, samples)
        return float(np.max(np.abs(self.deriv(j)(xs))))


def _poly_derivs(coeffs):
    """Derivative chain of a polynomial given by ascending coefficients."""
    return [partial(polyval, c=polyder(np.asarray(coeffs, dtype=float), j)) for j in range(9)]


def _trig_chain(shift: int):
    """Derivative chain of sin (shift 0) or cos (shift 1) from the cycle sin, cos, -sin, -cos."""
    cycle = [np.sin, np.cos, lambda s: -np.sin(np.asarray(s, float)),
             lambda s: -np.cos(np.asarray(s, float))]
    return [cycle[(j + shift) % 4] for j in range(9)]


def _abs2(s):
    s = np.asarray(s, dtype=float)
    return s * np.abs(s)


def _abs2_prime(s):
    return 2.0 * np.abs(np.asarray(s, dtype=float))


FUNCTIONS = {
    "square": ScalarFunction("square", KIND_SMOOTH, 8, _poly_derivs([0.0, 0.0, 1.0])),
    "cube": ScalarFunction("cube", KIND_SMOOTH, 8, _poly_derivs([0.0, 0.0, 0.0, 1.0])),
    "sin": ScalarFunction("sin", KIND_SMOOTH, 8, _trig_chain(0)),
    "cos": ScalarFunction("cos", KIND_SMOOTH, 8, _trig_chain(1)),
    "exp": ScalarFunction("exp", KIND_SMOOTH, 8, [np.exp] * 9),
    "abs2": ScalarFunction("abs2", KIND_GENERALIZED_ABS, 1, [_abs2, _abs2_prime],
                           singular_points=(0.0,)),
}

#: Functions that are everywhere smooth; used by the randomized identity suites.
SMOOTH_TEST_SET = ("square", "cube", "sin", "exp")


def get_function(name: str) -> ScalarFunction:
    if name not in FUNCTIONS:
        raise BadParameter(f"unknown scalar function {name!r}; known: {sorted(FUNCTIONS)}")
    return FUNCTIONS[name]


def sup_deriv(f: ScalarFunction, n: int, lo: float, hi: float) -> float:
    """Sup of |f^(n)| on [lo, hi] from 2048 samples; for s*|s| and n = 2 the weak bound 2."""
    if f.kind == KIND_GENERALIZED_ABS and n == 2:
        return 2.0
    return f.max_abs_deriv(n, lo, hi, 2048)
