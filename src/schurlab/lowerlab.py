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

With e_i = k i ln q, P_ij = expit(e_i - e_j), Q_ij = expit(e_j - e_i) and
W = Q - P, the symbols factor: B1 phi_ijl = 1 - 2 Q_ij P_jl = P_ij + Q_ij W_jl,
and B2 phi_ijl = 1 - 2 Q_il expit(-e_i) for every j.  So the B1 action is two
n x n matrix products and the B2 action one.  Each expit is formed from
exp(-|x|) <= 1: nothing overflows, and a factor that underflows is below
1e-308, so k = 40 with n in the hundreds is safe although the nodes q^{ki}
are not.  Q is not formed as 1 - P, so a small factor keeps its relative
accuracy, and the distance of phi from its limit +-1 needs no cancellation.

The extrapolation experiment applies f^[2] for f(t) = t|t| on sorted labels,
negative ones first.  On three nodes of one sign s, f^[2] = s.  Otherwise,
with m the majority sign and z the node of the other sign,

    f^[2](x, y, z) = m (1 - 2 R_xz R_yz),    R_xz = z / (x - z) in (-1, 0),

so no step cancels, and the action is a sum of GEMMs of the sign-half blocks
of a, b and R: one per sign pattern of (i, j, l), and one more per mixed
pattern for its correction term.  As in the f^[2] table, the full diagonal
i = j = l contributes 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, IndexConstraint, check_count
from .matrixnum import (_one_blas_thread, holder_split, marcinkiewicz_norm_from_sv,
                        schatten_norm, svd)
from .schur import (Budget, PointSet, diagonal_part, m_plus, m_plus_symbol,
                    norm_lower_search, row_slabs, triangular_truncation,
                    truncation_symbol)


def _check_q(q: float):
    if not 0.0 < q < 1.0:  # also rejects NaN
        raise BadParameter(f"q must lie in (0,1), got {q}")


@dataclass(frozen=True)
class GeometricDiscretization:
    q: float
    k: int
    variant: str  # "B1" | "B2"
    n: int

    def __post_init__(self):
        _check_q(self.q)
        check_count("k", self.k)
        check_count("n", self.n)
        if self.variant not in ("B1", "B2"):
            raise BadParameter(f"variant must be 'B1' or 'B2', got {self.variant!r}")

    @property
    def log_q(self) -> float:
        return math.log(self.q)


def _expit_pair(x):
    """(expit(x), expit(-x)) from t = exp(-|x|): no overflow, and neither is
    formed as 1 minus the other."""
    x = np.asarray(x, dtype=float)
    t = np.exp(-np.abs(x))
    pos = x >= 0
    return np.where(pos, 1.0, t) / (1.0 + t), np.where(pos, t, 1.0) / (1.0 + t)


def _gaps(d: GeometricDiscretization, i, j):
    """(P_ij, Q_ij) = (expit(e_i - e_j), expit(e_j - e_i)) at index arrays."""
    return _expit_pair(d.k * d.log_q * (np.asarray(i, dtype=float) - j))


def _b2_symbol(d: GeometricDiscretization, i, l):
    """Phi_il = 1 - 2 Q_il expit(-e_i), the B2 symbol at every j."""
    return 1.0 - 2.0 * _gaps(d, i, l)[1] * _expit_pair(d.k * d.log_q * i)[1]


def _grid(n: int):
    idx = np.arange(1, n + 1, dtype=float)
    return idx[:, None], idx[None, :]


def _b1_factors(d: GeometricDiscretization):
    """P and Q with zero diagonals (i == j is inadmissible), and W = Q - P,
    whose diagonal is 0 since P_jj = Q_jj = 1/2."""
    P, Q = _gaps(d, *_grid(d.n))
    W = Q - P
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(Q, 0.0)
    return P, Q, W


def _b2_factor(d: GeometricDiscretization):
    """Phi with a zero diagonal (i == l is inadmissible)."""
    i, l = _grid(d.n)
    return np.where(i != l, _b2_symbol(d, i, l), 0.0)


def phi_symbol(d: GeometricDiscretization, i: int, j: int, l: int) -> float:
    """Discretized symbol value at one admissible index triple."""
    if not all(1 <= v <= d.n for v in (i, j, l)):
        raise IndexConstraint(f"indices must lie in 1..{d.n}")
    limit_symbol(d.variant, i, j, l)  # IndexConstraint at an inadmissible triple
    if d.variant == "B1":
        p_ij, q_ij = _gaps(d, i, j)
        p_jl, q_jl = _gaps(d, j, l)
        return float(p_ij + q_ij * (q_jl - p_jl))
    return float(_b2_symbol(d, i, l))


@_one_blas_thread()
def phi_action(d: GeometricDiscretization, a, b) -> np.ndarray:
    """C_il = sum_j phi_ijl a_ij b_jl over the admissible triples, for n x n
    complex a, b: (a o P) b' + (a o Q)(b o W) for B1, with b' = b minus its
    diagonal, and Phi o (a b) for B2."""
    if d.variant == "B1":
        P, Q, W = _b1_factors(d)
        return (a * P) @ (b - diagonal_part(b)) + (a * Q) @ (b * W)
    return _b2_factor(d) * (a @ b)


def _abs2_f2_action(v, a, b) -> np.ndarray:
    """C_il = sum_j f^[2](v_i, v_j, v_l) a_ij b_jl for f(t) = t|t| on sorted
    nonzero labels v, from the sign-half blocks: for each sign s, I holds the
    indices of that sign and J the others, and R_IJ = v_J / (v_I - v_J)."""
    h = int(np.searchsorted(v, 0.0))
    ad = np.diagonal(a)
    a_off, b_off = a - diagonal_part(a), b - diagonal_part(b)
    out = np.empty(a.shape, dtype=complex)
    for s, I, J in ((-1.0, slice(None, h), slice(h, None)),
                    (1.0, slice(h, None), slice(None, h))):
        R_IJ = v[J] / (v[I, None] - v[J])
        R_JI_t = (v[I] / (v[J, None] - v[I])).T
        # i, l in I: j in I drops the full diagonal exactly, j in J is odd
        out[I, I] = s * (a_off[I, I] @ b[I, I] + ad[I, None] * b_off[I, I]
                         + a[I, J] @ b[J, I] - 2.0 * (a[I, J] * R_IJ) @ (b[J, I] * R_IJ.T))
        # i in I, l in J: for j in I the odd node is l, for j in J it is i
        out[I, J] = s * (a[I, I] @ b[I, J] - 2.0 * R_IJ * (a[I, I] @ (R_IJ * b[I, J]))
                         - a[I, J] @ b[J, J] + 2.0 * R_JI_t * ((a[I, J] * R_JI_t) @ b[J, J]))
    return out


def _limit_values(variant: str, i, j, l):
    """The k -> infinity limit on broadcastable index arrays: B1 gives -1 iff
    j < min(i, l), B2 sign(l - i); 0 at an inadmissible triple (B1: i == j or
    j == l, B2: i == l)."""
    i, j, l = np.broadcast_arrays(i, j, l)
    if variant == "B1":
        return np.where((i == j) | (j == l), 0.0, np.where((j < i) & (j < l), -1.0, 1.0))
    if variant == "B2":
        return np.sign(l - i).astype(float)
    raise BadParameter(f"variant must be 'B1' or 'B2', got {variant!r}")


def limit_symbol(variant: str, i: int, j: int, l: int) -> int:
    """The limit at one index triple; IndexConstraint at an inadmissible one."""
    value = int(_limit_values(variant, i, j, l))
    if value == 0:
        raise IndexConstraint(f"{variant} index triple ({i}, {j}, {l}) is inadmissible")
    return value


def phi_table(d: GeometricDiscretization) -> np.ndarray:
    """(n, n, n) table of the discretized symbol, filled from the factors in
    row slabs of i; inadmissible triples are 0."""
    n = d.n
    tab = np.empty((n,) * 3)
    if d.variant == "B1":
        P, Q, W = _b1_factors(d)
        for r in row_slabs(n):
            np.multiply(Q[r, :, None], W, out=tab[r])
            tab[r] += P[r, :, None]
        ar = np.arange(n)
        tab[:, ar, ar] = 0.0  # j == l
    else:
        tab[...] = _b2_factor(d)[:, None, :]
    return tab


def limit_table(variant: str, n: int) -> np.ndarray:
    """(n, n, n) table of the limit symbol; inadmissible triples are 0."""
    return _limit_values(variant, *np.ogrid[1:n + 1, 1:n + 1, 1:n + 1])


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


def limit_convergence_report(d: GeometricDiscretization) -> ConvergenceReport:
    """Max |phi_symbol - limit_symbol| over all admissible triples, each
    distance taken from the factors without cancellation."""
    if d.variant == "B1":
        # per column j: |phi + 1| = 2 (P_ij + P_lj - P_ij P_lj) over i, l > j
        # and |phi - 1| = 2 Q_ij Q_lj over i < j or l < j; both grow with
        # their factors, so their maxima sit at the column maxima of P and Q
        # (the zero diagonal of Q drops i == j and l == j)
        P, Q, _ = _b1_factors(d)
        a = np.max(np.tril(P, -1), axis=0)
        dist = np.maximum(2.0 * (a + a - a * a),
                          2.0 * np.max(np.triu(Q, 1), axis=0) * np.max(Q, axis=0))
    else:
        # |phi - 1| = 2 Q_il expit(-e_i) for l > i, |phi + 1| = 2 (P_il + Q_il expit(e_i))
        i, l = _grid(d.n)
        P, Q = _gaps(d, i, l)
        up, down = _expit_pair(d.k * d.log_q * i)
        dist = np.where(l > i, 2.0 * Q * down, np.where(l < i, 2.0 * (P + Q * up), 0.0))
    # leading correction: 2 q^{k(i-j)} + 2 q^{k(l-j)} for B1 (worst i = l = j+1),
    # 2 q^{k|l-i|} for B2; both bounded by 4 q^k.
    return ConvergenceReport(d.variant, d.q, d.k, d.n, float(np.max(dist)), 4.0 * d.q ** d.k)


def volterra_matrix(n: int) -> np.ndarray:
    """Midpoint discretization of the integration operator on [0,1]:
    1/n below the diagonal, 1/(2n) on it."""
    if n < 2:
        raise BadParameter(f"a Volterra matrix needs n >= 2, got {n}")
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
    hilbert = np.divide(1.0, gap, out=np.zeros((n, n)), where=gap != 0).astype(complex)
    return [v, v.conj().T, ones, hilbert, np.eye(n, dtype=complex) + hilbert]


@dataclass
class SweepRow:
    p: float
    t_plus_ratio: float
    m_plus_ratio: float


def truncation_norm_sweep(p_list, n: int, budget: Budget = Budget()) -> list:
    """Best achieved S_p ratios for T+ and M+ on the integer point set."""
    X = PointSet.integers(n)
    seeds = volterra_candidates(n)
    rows = []
    for p in p_list:
        t_plus, mp = (norm_lower_search("linear", sym, X, p, budget, seeds=seeds).ratio
                      for sym in (truncation_symbol("+"), m_plus_symbol()))
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


@_one_blas_thread()
def theorem_b1_experiment(p: float, n: int, d: GeometricDiscretization,
                          budget: Budget = Budget()) -> B1Report:
    if d.variant != "B1":
        raise IndexConstraint("theorem_b1_experiment needs a B1 discretization")
    if n != d.n:
        raise BadParameter(f"n = {n} differs from the discretization's n = {d.n}")
    X = PointSet.integers(n)
    search = norm_lower_search("linear", m_plus_symbol(), X, 2 * p, budget,
                               seeds=volterra_candidates(n))
    x = search.witness[0]
    xo = x - diagonal_part(x)          # (1 - P) x
    y = xo.conj().T                    # (1 - P) x^*
    direct = schatten_norm(phi_action(d, y, xo), p)
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


@_one_blas_thread()
def theorem_b2_experiment(p: float, n: int, d: GeometricDiscretization,
                          budget: Budget = Budget()) -> B2Report:
    if d.variant != "B2":
        raise IndexConstraint("theorem_b2_experiment needs a B2 discretization")
    if n != d.n:
        raise BadParameter(f"n = {n} differs from the discretization's n = {d.n}")
    X = PointSet.integers(n)
    search = norm_lower_search("linear", m_plus_symbol(), X, p, budget,
                               seeds=volterra_candidates(n))
    z = search.witness[0]
    z = z / schatten_norm(z, p)
    mplus_value = schatten_norm(m_plus(z, X), p)
    y, x = holder_split(z, p)
    # Phi has a zero diagonal: the action is already off-diagonal
    direct = schatten_norm(phi_action(d, y, x), p)
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
    _check_q(q)
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


@_one_blas_thread()
def extrapolation_experiment(n: int = 128, trials: int = 50, seed: int = 0,
                             q: float = 0.8) -> ExtrapolationReport:
    """Marcinkiewicz-scale envelope of the bilinear action on random S_2 inputs.

    Each trial draws Gaussian x, y normalized in S_2, applies the multiplier
    with symbol f^[2], f(t) = t|t|, on the geometric point set, and records
    max_{1 <= s <= n} (sum of the s largest singular values) / log(1+s).
    """
    check_count("n", n)
    check_count("trials", trials)
    v = geometric_point_set(n, q).values
    sups = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        t = _abs2_f2_action(v, x, y)
        sups[trial] = marcinkiewicz_norm_from_sv(svd(t, compute_uv=False))
    return ExtrapolationReport(n, trials, seed, float(np.max(sups)), sups)
