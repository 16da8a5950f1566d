"""Explicit constants: beta_q = q q*, the composite bounds C, D, C', the BMO
and Kahane-Khintchine constants, and their asymptotics tables.

    C(p,p1,p2) = b_p b_p1 b_p2 + min(b_p1^2 b_p, b_p^2 b_p1)
                 + min(b_p2^2 b_p, b_p^2 b_p2) + min(b_p2^2 b_p1, b_p1^2 b_p2)
    D(p,p1,p2) = C(p,p1,p2) (b_p1 + b_p2) + b_p1 b_p2 (b_p + b_p1 + b_p2)
    C'(p,p1,p2) = C + min(C''(p,p1), C''(p,p2)) + min(C''(p1,p2), C''(p1,p))
                  + min(C''(p2,p1), C''(p2,p)),   C''(p,q) = b_p^3 b_q^2 C_BMO(q)
    C_BMO(p)   = 2e (e p Gamma(p))^{1/p}
    kappa(p,q) = 2^{1+1/q} e (1 + 2 p / q)

D(p, 2p, 2p) grows like p^4 p*; the lower-bound reference scale is p^2 p*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBudget, BadExponent, BadParameter, check_count, check_exponent

_MAX_ROWS = 100_000  # rows of asymptotics_table: one Python-level D(p, 2p, 2p) each


def log_gamma(x: float) -> float:
    """log Gamma on (0, inf)."""
    if not x > 0:
        raise BadParameter(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


def conj(p: float) -> float:
    """Hoelder conjugate p/(p-1)."""
    check_exponent("p", p)
    return p / (p - 1.0)


def beta(q: float) -> float:
    """q q* = q^2/(q-1), the Schatten UMD-scale factor."""
    check_exponent("q", q)
    return q * q / (q - 1.0)


@dataclass(frozen=True)
class ExponentTriple:
    p: float
    p1: float
    p2: float

    def __post_init__(self):
        for name in ("p", "p1", "p2"):
            check_exponent(name, getattr(self, name))
        if abs(1.0 / self.p - (1.0 / self.p1 + 1.0 / self.p2)) > 1e-12:
            raise BadExponent(
                f"need 1/p = 1/p1 + 1/p2, got ({self.p}, {self.p1}, {self.p2})")

    @staticmethod
    def split(p: float) -> "ExponentTriple":
        return ExponentTriple(p, 2.0 * p, 2.0 * p)


def C_constant(t: ExponentTriple) -> float:
    bp, b1, b2 = beta(t.p), beta(t.p1), beta(t.p2)
    return (bp * b1 * b2
            + min(b1 ** 2 * bp, bp ** 2 * b1)
            + min(b2 ** 2 * bp, bp ** 2 * b2)
            + min(b2 ** 2 * b1, b1 ** 2 * b2))


def D_constant(t: ExponentTriple) -> float:
    bp, b1, b2 = beta(t.p), beta(t.p1), beta(t.p2)
    return C_constant(t) * (b1 + b2) + b1 * b2 * (bp + b1 + b2)


def C_BMO(p: float) -> float:
    """2e (e p Gamma(p))^{1/p}, the John-Nirenberg normalization; O(p) growth."""
    check_exponent("p", p, 0.0)
    return 2.0 * math.e * math.exp((1.0 + math.log(p) + log_gamma(p)) / p)


def C_double_prime(p: float, q: float) -> float:
    return beta(p) ** 3 * beta(q) ** 2 * C_BMO(q)


def Cprime_constant(t: ExponentTriple) -> float:
    return (C_constant(t)
            + min(C_double_prime(t.p, t.p1), C_double_prime(t.p, t.p2))
            + min(C_double_prime(t.p1, t.p2), C_double_prime(t.p1, t.p))
            + min(C_double_prime(t.p2, t.p1), C_double_prime(t.p2, t.p)))


def kappa(p: float, q: float) -> float:
    """Kahane-Khintchine comparison constant 2^{1+1/q} e (1 + 2p/q)."""
    check_exponent("p", p, 0.0)
    check_exponent("q", q, 0.0)
    return 2.0 ** (1.0 + 1.0 / q) * math.e * (1.0 + 2.0 * p / q)


@dataclass
class AsymptoticsTable:
    ps: np.ndarray
    d_values: np.ndarray
    ratio: np.ndarray        # D(p,2p,2p) / (p^4 p*)
    lower_reference: np.ndarray  # p^2 p*
    slope_top_decade: float

    def rows(self):
        return zip(self.ps, self.d_values, self.ratio, self.lower_reference)


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(coef[0])


def asymptotics_table(pmin: float = 1.01, pmax: float = 64.0,
                      points_per_decade: int = 32) -> AsymptoticsTable:
    """D(p, 2p, 2p) over a log grid with its p^4 p* ratio and top-decade slope."""
    check_count("points_per_decade", points_per_decade)
    check_exponent("pmin", pmin)
    check_exponent("pmax", pmax)
    if pmin >= pmax:
        raise BadParameter(f"need pmin < pmax, got {pmin:g} and {pmax:g}")
    decades = math.log10(pmax / pmin)
    if decades > _MAX_ROWS / points_per_decade:  # exact for ints beyond float range
        raise BadBudget(f"{points_per_decade} points per decade over {decades:.4g} decades "
                        f"exceed the budget of {_MAX_ROWS} rows")
    n = max(2, int(round(points_per_decade * decades)))
    ps = np.geomspace(pmin, pmax, n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a BadParameter below
        dvals = np.asarray([D_constant(ExponentTriple.split(p)) for p in ps])
    if not np.all(np.isfinite(dvals)):
        raise BadParameter(f"D(p, 2p, 2p) overflows from p = {ps[~np.isfinite(dvals)][0]:g} "
                           f"on; need pmax below it, got {pmax:g}")
    pstar = ps / (ps - 1.0)
    ratio = dvals / (ps ** 4 * pstar)
    lower = ps ** 2 * pstar
    top = ps >= pmax / 10.0
    slope = loglog_slope(ps[top], dvals[top])
    return AsymptoticsTable(ps, dvals, ratio, lower, slope)
