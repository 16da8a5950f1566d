"""Hoermander-Mikhlin-Schur quantities for two-variable symbols (d = 1).

For a symbol phi on R^2 minus the diagonal the quantity computed here is

    |||phi||| = sup |phi|  +  sup |lam - mu| (|d_lam phi| + |d_mu phi|),

sampled over a diagonal-avoiding grid, so the reported value is monotone
non-decreasing under grid refinement and never exceeds the true supremum.

For phi(lam, mu) = f^[n](lam^(k), mu^(n+1-k)) the first-order partials are

    d_lam = k f^[n+1](lam^(k+1), mu^(n+1-k)),
    d_mu  = (n+1-k) f^[n+1](lam^(k), mu^(n+2-k)),

and |||phi||| <= (2n+3)/n! * sup|f^(n)|, which is the bound verified by the
test suite alongside the window estimate

    |lam-mu|^g |d^g_lam phi| <= 2^g (k+g-1)!/(k-1)! * sup|f^(n)|/n!,  g <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divdiff import divdiff_two_var_grid
from .errors import BadGrid, BadParameter, DiagonalMargin, OrderUnsupported, check_count
from .functions import KIND_GENERALIZED_ABS, ScalarFunction, sup_deriv

_FD_STEP = 1e-6  # central-difference step of partials without a closed form
_MIN_GAP = 1e-3  # least |lam - mu| of a lemma43_check sample
_BLOCK_ROWS = 32  # grid rows per block of hms_norm


@dataclass(frozen=True)
class GridSpec:
    """Chebyshev tensor grid on box^2 with a strip of width margin = 1e-3 (hi - lo)
    removed around the diagonal."""

    box: tuple = (-5.0, 5.0)
    points: int = 512

    def __post_init__(self):
        lo, hi = self.box
        if not (math.isfinite(lo) and math.isfinite(hi) and self.margin > 0):
            raise BadGrid(f"box must be finite with positive width, got {self.box}")
        check_count("points", self.points, 2)

    @property
    def margin(self) -> float:
        return 1e-3 * (self.box[1] - self.box[0])

    def nodes(self) -> np.ndarray:
        lo, hi = self.box
        k = np.arange(self.points)
        cheb = np.cos((2 * k + 1) * math.pi / (2 * self.points))
        return (lo + hi) / 2 + (hi - lo) / 2 * cheb


@dataclass
class TwoVariableSymbol:
    """Symbol with value and first partials; ``mask`` restricts the domain."""

    value: Callable
    partial_lam: Callable
    partial_mu: Callable
    mask: Optional[Callable] = None


def symbol_from_divdiff(f: ScalarFunction, n: int, k: int) -> TwoVariableSymbol:
    """phi_f(lam, mu) = f^[n](lam^(k), mu^(n+1-k)) with analytic partials when
    f^(n+1) exists, central finite differences otherwise."""
    check_count("n", n)
    if not 1 <= k <= n:
        raise BadParameter(f"need 1 <= k <= n, got k={k}, n={n}")

    def value(lam, mu):
        return divdiff_two_var_grid(f, n, k, lam, mu)

    analytic = f.kind != KIND_GENERALIZED_ABS and n + 1 <= f.max_order
    if analytic:
        def partial_lam(lam, mu):
            return k * divdiff_two_var_grid(f, n + 1, k + 1, lam, mu)

        def partial_mu(lam, mu):
            return (n + 1 - k) * divdiff_two_var_grid(f, n + 1, k, lam, mu)
    else:
        def partial_lam(lam, mu):
            return (value(lam + _FD_STEP, mu) - value(lam - _FD_STEP, mu)) / (2 * _FD_STEP)

        def partial_mu(lam, mu):
            return (value(lam, mu + _FD_STEP) - value(lam, mu - _FD_STEP)) / (2 * _FD_STEP)

    return TwoVariableSymbol(value, partial_lam, partial_mu)


def make_ks_symbol(s: float, sigma: int = 1) -> TwoVariableSymbol:
    """|mu - lam|^{is} on the half plane sigma(mu - lam) > 0, zero elsewhere."""
    if sigma not in (1, -1):
        raise BadParameter("sigma must be +1 or -1")

    def mask(lam, mu):
        return sigma * (np.asarray(mu) - np.asarray(lam)) > 0

    def value(lam, mu):
        gap = np.abs(np.asarray(mu) - np.asarray(lam))
        return np.exp(1j * s * np.log(gap))

    def partial_lam(lam, mu):
        gap = np.asarray(mu) - np.asarray(lam)
        return value(lam, mu) * (-1j * s) / gap

    def partial_mu(lam, mu):
        gap = np.asarray(mu) - np.asarray(lam)
        return value(lam, mu) * (1j * s) / gap

    return TwoVariableSymbol(value, partial_lam, partial_mu, mask=mask)


@dataclass
class HmsReport:
    value: float
    sup_abs: float
    sup_weighted: float
    points_used: int


def hms_norm(sym: TwoVariableSymbol, grid: GridSpec = GridSpec()) -> HmsReport:
    """Sampled |||phi||| over the grid (restricted to the symbol's domain),
    evaluated in blocks of _BLOCK_ROWS grid rows."""
    nodes = grid.nodes()
    mu = nodes[None, :]
    sups_abs, sups_w = [], []  # the maxima of the blocks, exactly the grid's
    used = 0
    for start in range(0, len(nodes), _BLOCK_ROWS):
        lam = nodes[start:start + _BLOCK_ROWS, None]
        keep = np.abs(lam - mu) >= grid.margin
        if sym.mask is not None:
            keep = keep & sym.mask(lam, mu)
        lam_b, mu_b = np.broadcast_arrays(lam, mu)
        lv, mv = lam_b[keep], mu_b[keep]
        if lv.size == 0:
            continue
        used += lv.size
        sups_abs.append(np.max(np.abs(sym.value(lv, mv))))
        sups_w.append(np.max(np.abs(lv - mv) * (np.abs(sym.partial_lam(lv, mv))
                                                + np.abs(sym.partial_mu(lv, mv)))))
    if used == 0:
        raise DiagonalMargin("grid left no admissible sample points")
    sup_abs, sup_w = float(np.max(sups_abs)), float(np.max(sups_w))
    return HmsReport(sup_abs + sup_w, sup_abs, sup_w, used)


def hms_theorem_bound(n: int, k: int, f: ScalarFunction, interval=(-5.0, 5.0)) -> float:
    """(2n+3)/n! * sup|f^(n)| with the sup estimated on the given interval."""
    if n < 1:
        raise OrderUnsupported(f"need n >= 1, got n={n}")
    if not 1 <= k <= n:
        raise BadParameter(f"need 1 <= k <= n, got k={k}, n={n}")
    if f.kind != KIND_GENERALIZED_ABS and n > f.max_order:
        raise OrderUnsupported(f"{f.name} has no derivative of order {n}")
    return (2 * n + 3) / math.factorial(n) * sup_deriv(f, n, *interval)


def lemma43_check(n: int, k: int, gamma: int, f: ScalarFunction, samples: int = 1000) -> float:
    """Max over random samples in (-5, 5)^2 (seed 0) of lhs - rhs for the weighted
    derivative bound; non-positive up to roundoff when the bound holds."""
    if gamma not in (0, 1) or gamma > min(k, n + 1 - k):
        raise OrderUnsupported(
            f"need 0 <= gamma <= min(k, n+1-k) and gamma <= 1, got {gamma}")
    if f.kind == KIND_GENERALIZED_ABS or n + gamma > f.max_order:
        raise OrderUnsupported(f"{f.name} lacks derivatives of order {n + gamma}")
    sym = symbol_from_divdiff(f, n, k)  # BadParameter unless 1 <= k <= n
    rng = np.random.default_rng(0)
    lo, hi = -5.0, 5.0
    lam = rng.uniform(lo, hi, samples)
    mu = rng.uniform(lo, hi, samples)
    shift = np.where(mu >= lam, _MIN_GAP, -_MIN_GAP)
    mu = mu + shift  # keep |lam - mu| >= _MIN_GAP
    sup_fn = sup_deriv(f, n, min(lo, np.min(mu)), max(hi, np.max(mu)))
    rhs = 2.0 ** gamma * math.factorial(k + gamma - 1) / math.factorial(k - 1) \
        * sup_fn / math.factorial(n)
    lhs = (np.abs(lam - mu) * np.abs(sym.partial_lam(lam, mu)) if gamma
           else np.abs(sym.value(lam, mu)))
    return float(np.max(lhs - rhs))
