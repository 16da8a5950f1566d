"""Lower-bound laboratory: geometric discretizations of the s|s| second-order
divided difference, their limit symbols, Volterra matrices, truncation norm
sweeps, and the two norm-growth experiments.

Discretization variants (q in (0,1), scale k, indices 1..n):

  B1:  (l0, l1, l2) = (q^{ki}, -q^{kj}, q^{kl}),  i != j, j != l;
       the symbol tends to -1 when j < min(i, l) and +1 otherwise, so its
       bilinear action tends to (y, x) -> y x - 2 T^-(y) T^+(x) on inputs with
       zero diagonal.

  B2:  (l0, l1, l2) = (q^{ki}, q^{k(i+l)}, -q^{kl}),  i != l;
       the symbol tends to sign(l - i), so the off-diagonal part of its action
       tends to M^+(y x).

All symbol values are evaluated in the log domain (nodes kept as k*i*ln q), so
k = 40 with n in the hundreds never underflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, IndexConstraint, NodeUnderflow, check_count
from .functions import get_function
from .matrixnum import marcinkiewicz_norm_from_sv, schatten_norm
from .schur import (Budget, PointSet, _bilinear, apply_bilinear, diagonal_part,
                    m_plus, m_plus_symbol, norm_lower_search, row_slabs,
                    triangular_truncation, truncation_symbol)


@dataclass(frozen=True)
class GeometricDiscretization:
    q: float
    k: int
    variant: str  # "B1" | "B2"
    n: int

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise BadParameter(f"q must lie in (0,1), got {self.q}")
        check_count("k", self.k)
        check_count("n", self.n)
        if self.variant not in ("B1", "B2"):
            raise BadParameter(f"variant must be 'B1' or 'B2', got {self.variant!r}")

    @property
    def log_q(self) -> float:
        return math.log(self.q)

    def underflow_safe(self) -> bool:
        return self.k * self.n * math.log2(1.0 / self.q) <= 900.0

    def nodes(self) -> np.ndarray:
        """Node magnitudes q^{k i}, i = 1..n; only safe when underflow_safe()."""
        if not self.underflow_safe():
            raise NodeUnderflow(
                "node magnitudes underflow for this (q, k, n); use the log-domain symbol")
        return self.q ** (self.k * np.arange(1, self.n + 1, dtype=float))

    def _check_indices(self, i, j, l):
        arrs = [np.asarray(v) for v in (i, j, l)]
        for a in arrs:
            if np.any(a < 1) or np.any(a > self.n):
                raise IndexConstraint(f"indices must lie in 1..{self.n}")
        if self.variant == "B1":
            if np.any(arrs[0] == arrs[1]) or np.any(arrs[1] == arrs[2]):
                raise IndexConstraint("B1 requires i != j and j != l")
        else:
            if np.any(arrs[0] == arrs[2]):
                raise IndexConstraint("B2 requires i != l")


def _signed_ratio(e_num, num_signs, e_den1, e_den2):
    """sum_t s_t exp(e_num[t]) / ((exp(e_den1[0])+exp(e_den1[1])) *
    (exp(e_den2[0])+exp(e_den2[1]))), all in the log domain."""
    e_num = np.broadcast_arrays(*e_num)
    u = np.maximum.reduce(e_num)
    s = sum(sgn * np.exp(e - u) for sgn, e in zip(num_signs, e_num))
    d1 = np.maximum(e_den1[0], e_den1[1])
    d2 = np.maximum(e_den2[0], e_den2[1])
    den = (np.exp(e_den1[0] - d1) + np.exp(e_den1[1] - d1)) \
        * (np.exp(e_den2[0] - d2) + np.exp(e_den2[1] - d2))
    return np.exp(u - d1 - d2) * s / den


def _phi_values(d: GeometricDiscretization, i, j, l):
    """Log-domain closed forms of the discretized symbol (no index checks)."""
    ln_q = d.log_q
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    l = np.asarray(l, dtype=float)
    if d.variant == "B1":
        # f^[2](e^a, -e^b, e^c) = (e^{a+b} + e^{b+c} + e^{a+c} - e^{2b})
        #                         / ((e^a + e^b)(e^b + e^c))
        a, b, c = d.k * i * ln_q, d.k * j * ln_q, d.k * l * ln_q
        return _signed_ratio([a + b, b + c, a + c, 2 * b], (1, 1, 1, -1),
                             (a, b), (b, c))
    # B2: f^[2](e^a, e^b, -e^c) with b = a + c:
    #     (e^{a+b} + e^{a+c} + e^{b+c} - e^{2c}) / ((e^a + e^c)(e^b + e^c))
    a, c = d.k * i * ln_q, d.k * l * ln_q
    b = a + c
    return _signed_ratio([a + b, a + c, b + c, 2 * c], (1, 1, 1, -1),
                         (a, c), (b, c))


def phi_symbol(d: GeometricDiscretization, i: int, j: int, l: int) -> float:
    """Discretized symbol value at one admissible index triple."""
    d._check_indices(i, j, l)
    return float(_phi_values(d, i, j, l))


def limit_symbol(variant: str, i: int, j: int, l: int) -> int:
    """The k -> infinity limit: B1 gives -1 iff j < min(i, l); B2 sign(l - i)."""
    if variant == "B1":
        if i == j or j == l:
            raise IndexConstraint("B1 requires i != j and j != l")
        return -1 if (j < i and j < l) else 1
    if variant == "B2":
        if i == l:
            raise IndexConstraint("B2 requires i != l")
        return 1 if i < l else -1
    raise ValueError(f"variant must be 'B1' or 'B2', got {variant!r}")


def phi_slab(d: GeometricDiscretization, r: slice) -> np.ndarray:
    """Rows r (0-based values of i - 1) of phi_table(d); inadmissible triples
    are 0."""
    n = d.n
    idx = np.arange(1, n + 1, dtype=float)
    rows = np.arange(n)[r]
    slab = np.empty((len(rows), n, n))
    slab[...] = _phi_values(d, idx[r, None, None], idx[None, :, None], idx[None, None, :])
    k, ar = np.arange(len(rows)), np.arange(n)
    if d.variant == "B1":
        slab[k, rows, :] = 0.0  # j == i
        slab[:, ar, ar] = 0.0   # j == l
    else:
        slab[k, :, rows] = 0.0  # i == l
    return slab


def phi_table(d: GeometricDiscretization) -> np.ndarray:
    """(n, n, n) table of the discretized symbol, filled in row slabs of i;
    inadmissible triples are 0."""
    tab = np.empty((d.n,) * 3)
    for r in row_slabs(d.n):
        tab[r] = phi_slab(d, r)
    return tab


def limit_table(variant: str, n: int) -> np.ndarray:
    idx = np.arange(1, n + 1)
    i = idx[:, None, None]
    j = idx[None, :, None]
    l = idx[None, None, :]
    if variant == "B1":
        tab = np.where((j < i) & (j < l), -1.0, 1.0)
        tab = np.where((j == i) | (j == l), 0.0, tab)
    else:
        tab = np.where(i < l, 1.0, np.where(l < i, -1.0, 0.0))
        tab = np.broadcast_to(tab, (n, n, n)).copy()
    return tab


@dataclass
class ConvergenceReport:
    variant: str
    q: float
    k: int
    n: int
    max_discrepancy: float
    exponent_gap_bound: float  # 4 q^{k * minimal gap}, from the leading correction

    def __str__(self):
        return (f"{self.variant} q={self.q} k={self.k} n={self.n}: "
                f"max|phi - limit| = {self.max_discrepancy:.3e} "
                f"(gap bound {self.exponent_gap_bound:.3e})")


def limit_convergence_report(d: GeometricDiscretization, n: int = None) -> ConvergenceReport:
    """Max |phi_symbol - limit_symbol| over all admissible triples with indices <= n."""
    n = d.n if n is None else min(n, d.n)
    dd = GeometricDiscretization(d.q, d.k, d.variant, n)
    phi = phi_table(dd)
    lim = limit_table(d.variant, n)
    disc = float(np.max(np.abs(phi - lim) * (lim != 0)))
    # leading correction: 2 q^{k(i-j)} + 2 q^{k(l-j)} for B1 (worst i = l = j+1),
    # 2 q^{k|l-i|} for B2; both bounded by 4 q^k.
    return ConvergenceReport(d.variant, d.q, d.k, n, disc, 4.0 * d.q ** d.k)


def volterra_matrix(n: int) -> np.ndarray:
    """Midpoint discretization of the integration operator on [0,1]:
    1/n below the diagonal, 1/(2n) on it."""
    if n < 2:
        raise ValueError("n must be >= 2")
    v = np.tril(np.full((n, n), 1.0 / n), -1)
    np.fill_diagonal(v, 1.0 / (2.0 * n))
    return v.astype(complex)


def volterra_candidates(n: int) -> list:
    """Structured ascent seeds: Volterra-style triangular matrices, the rank-one
    block, and a Hilbert-type Toeplitz matrix."""
    v = volterra_matrix(n)
    ones = np.ones((n, n), dtype=complex)
    idx = np.arange(n)
    gap = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore"):
        hilbert = np.where(gap != 0, 1.0 / np.where(gap != 0, gap, 1), 0.0).astype(complex)
    return [v, v.conj().T, ones, hilbert, np.eye(n, dtype=complex) + hilbert]


@dataclass
class SweepRow:
    p: float
    t_plus_ratio: float
    m_plus_ratio: float


def truncation_norm_sweep(p_list, n: int, budget: Budget = Budget(),
                          threads: int | None = None) -> list:
    """Best achieved S_p ratios for T+ and M+ on the integer point set."""
    X = PointSet.integers(n)
    seeds = volterra_candidates(n)
    rows = []
    for p in p_list:
        t_plus = norm_lower_search("linear", truncation_symbol("+"), X, p,
                                   budget, seeds=seeds, threads=threads).ratio
        mp = norm_lower_search("linear", m_plus_symbol(), X, p,
                               budget, seeds=seeds, threads=threads).ratio
        rows.append(SweepRow(float(p), t_plus, mp))
    return rows


@dataclass
class B1Report:
    p: float
    n: int
    q: float
    k: int
    seed: int
    nu: float                # best ||M+(x)||_2p / ||x||_2p
    direct_value: float      # discretized bilinear action at ((1-P)x*, (1-P)x)
    implied_bound: float     # direct / ||(1-P)x||_2p^2
    factorized_value: float  # limit-symbol action y x - 2 T-(y) T+(x)
    factorization_gap: float


def theorem_b1_experiment(p: float, n: int, d: GeometricDiscretization,
                          budget: Budget = Budget(), threads: int | None = None) -> B1Report:
    if d.variant != "B1":
        raise IndexConstraint("theorem_b1_experiment needs a B1 discretization")
    X = PointSet.integers(n)
    search = norm_lower_search("linear", m_plus_symbol(), X, 2 * p, budget,
                               seeds=volterra_candidates(n), threads=threads)
    x = search.witness[0]
    xo = x - diagonal_part(x)          # (1 - P) x
    y = xo.conj().T                    # (1 - P) x^*
    # the table serves one action: its slabs are made as the action reads them
    slabs = functools.partial(phi_slab, GeometricDiscretization(d.q, d.k, "B1", n))
    direct = schatten_norm(_bilinear(slabs, y, xo), p)
    denom = schatten_norm(xo, 2 * p) ** 2
    factorized = schatten_norm(
        y @ xo - 2.0 * triangular_truncation(y, X, "-") @ triangular_truncation(xo, X, "+"),
        p)
    return B1Report(p=float(p), n=n, q=d.q, k=d.k, seed=budget.seed,
                    nu=search.ratio,
                    direct_value=float(direct),
                    implied_bound=float(direct / denom) if denom > 0 else 0.0,
                    factorized_value=float(factorized),
                    factorization_gap=float(abs(direct - factorized)))


@dataclass
class B2Report:
    p: float
    n: int
    q: float
    k: int
    seed: int
    mu: float                # best ||M+(z)||_p / ||z||_p
    direct_value: float      # ||(1-P) M_k(y, x)||_p after the Hoelder split
    implied_bound: float     # direct / (||y||_2p ||x||_2p)
    mplus_value: float       # ||M+(z)||_p at the chosen z
    consistency_gap: float   # |mplus_value - direct_value|


def theorem_b2_experiment(p: float, n: int, d: GeometricDiscretization,
                          budget: Budget = Budget(), threads: int | None = None) -> B2Report:
    from .matrixnum import holder_split

    if d.variant != "B2":
        raise IndexConstraint("theorem_b2_experiment needs a B2 discretization")
    X = PointSet.integers(n)
    search = norm_lower_search("linear", m_plus_symbol(), X, p, budget,
                               seeds=volterra_candidates(n), threads=threads)
    z = search.witness[0]
    z = z / schatten_norm(z, p)
    mplus_value = schatten_norm(m_plus(z, X), p)
    y, x = holder_split(z, p)
    slabs = functools.partial(phi_slab, GeometricDiscretization(d.q, d.k, "B2", n))
    out = _bilinear(slabs, y, x)
    direct = schatten_norm(out - diagonal_part(out), p)
    denom = schatten_norm(y, 2 * p) * schatten_norm(x, 2 * p)
    return B2Report(p=float(p), n=n, q=d.q, k=d.k, seed=budget.seed,
                    mu=search.ratio,
                    direct_value=float(direct),
                    implied_bound=float(direct / denom) if denom > 0 else 0.0,
                    mplus_value=float(mplus_value),
                    consistency_gap=float(abs(mplus_value - direct)))


# ----------------------------------------------------------------------------
# extrapolation experiment
# ----------------------------------------------------------------------------

def geometric_point_set(n: int, q: float = 0.8) -> PointSet:
    """Symmetric geometric labels -q, ..., -q^{n/2}, q^{n/2}, ..., q."""
    half = n // 2
    pos = q ** np.arange(1, n - half + 1)
    neg = -(q ** np.arange(1, half + 1))
    return PointSet(tuple(np.sort(np.concatenate([neg, pos]))))


@dataclass
class ExtrapolationReport:
    n: int
    trials: int
    seed: int
    envelope: float          # max over trials of sup_s (int_0^s mu) / log(1+s)
    per_trial: np.ndarray = field(repr=False, default=None)


def extrapolation_experiment(n: int = 128, trials: int = 50, seed: int = 0,
                             q: float = 0.8, fname: str = "abs2") -> ExtrapolationReport:
    """Marcinkiewicz-scale envelope of the bilinear action on random S_2 inputs.

    Each trial draws Gaussian x, y normalized in S_2, applies the multiplier
    with symbol f^[2] on the geometric point set, and records
    max_{1 <= s <= n} (sum of the s largest singular values) / log(1+s).
    """
    from .decomp import f2_table

    check_count("n", n)
    check_count("trials", trials)
    f = get_function(fname)
    X = geometric_point_set(n, q)
    tab = f2_table(f, X.values)
    sups = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        t = apply_bilinear(tab, X, x, y)
        sups[trial] = marcinkiewicz_norm_from_sv(np.linalg.svd(t, compute_uv=False))
    return ExtrapolationReport(n, trials, seed, float(np.max(sups)), sups)
