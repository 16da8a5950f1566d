"""Linear and bilinear Schur multipliers on finite labeled point sets.

A linear multiplier acts entrywise, C = m(x_i, x_k) * A_ik.  A bilinear one
couples an intermediate index,

    C_il = sum_j m(x_i, x_j, x_l) * A_ij * B_jl.

Norm estimation is lower-bound only: random complex Gaussian restarts followed
by normalized subgradient ascent on the achieved ratio, then a dual-alignment
polish (Higham's nonlinear power method, "Estimating the matrix p-norm",
Numer. Math. 1992) whose norming step uses the SVD.  The ascent works on an
operator, a forward map of the tuple of arguments and one adjoint per
argument; a symbol table supplies one (``_table_operator``).

The Schatten-norm subgradient has two paths.  For an even integer exponent
p = 2k no SVD is needed: with f = ||Z||_F, Y = Z/f and G = Y^*Y,

    ||Z||_p = f tr(G^k)^(1/p),    D = Y G^(k-1) (f/||Z||_p)^(p-1),

where G^(k-1) comes from repeated squaring; the SVD is used only when the
scaled trace underflows or is not finite.  Every other exponent reads norm
and subgradient off the SVD factors.  On the Gram path the best value of each
restart is re-measured by one SVD of its witness, so every reported value is
an SVD-measured achieved ratio and therefore a certified lower bound of the
true multiplier norm.

The bilinear action and its two adjoints are evaluated in slabs of
SLAB_ROWS leading indices, so no n^3 temporary is built.  The action makes
no BLAS call, so its results do not depend on the BLAS thread count; the
first adjoint runs one BLAS matrix-vector product per slab row, and only
inside the search.

A job whose table and starts are real (every structured seed of a real
table) runs its whole ascent and polish in float64: each step maps real
matrices to real matrices, at a quarter of the complex flops.  Gaussian
restarts stay complex, and every reported value is an SVD-measured ratio and
every witness a complex matrix either way.

The search runs its jobs on a thread pool, or in the calling thread when it
has one worker (the default below n = POOL_MIN_N), with the bundled OpenBLAS
pinned to one thread, restored afterwards; either way the longest jobs, the
complex ones, start first.  Each restart draws from its own generator and the
outcomes are kept in job order, so its results do not depend on the BLAS or
pool thread count or schedule.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BadBudget, BadParameter, DimensionMismatch, check_count, check_exponent
from .matrixnum import _one_blas_thread, as_matrix, schatten_norm, schatten_norm_from_sv, svd

_TINY = 1e-300


@dataclass(frozen=True)
class PointSet:
    """Strictly increasing real labels x_1 < ... < x_n."""

    labels: tuple

    def __post_init__(self):
        vals = np.asarray(self.labels, dtype=float)
        if vals.ndim != 1 or len(vals) == 0:
            raise BadParameter("labels must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(vals)):
            raise BadParameter("labels must be finite")
        if np.any(np.diff(vals) <= 0):
            raise BadParameter("labels must be strictly increasing and distinct")
        object.__setattr__(self, "labels", tuple(float(v) for v in vals))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=float)

    @staticmethod
    def integers(n: int) -> "PointSet":
        check_count("n", n)
        return PointSet(tuple(range(1, n + 1)))


class DiscreteSymbol:
    """Coefficient function over label pairs (arity 2) or triples (arity 3).

    ``coeff`` must broadcast over numpy label arrays; a table keeps the dtype
    of the values ``coeff`` returns.  A tabulated symbol needs no wrapper:
    every entry point takes the array.
    """

    def __init__(self, arity: int, coeff: Callable):
        if arity not in (2, 3):
            raise BadParameter(f"arity must be 2 or 3, got {arity}")
        self.arity = arity
        self.coeff = coeff

    def table(self, X: PointSet) -> np.ndarray:
        v = X.values
        grids = ((v[:, None], v[None, :]) if self.arity == 2
                 else (v[:, None, None], v[None, :, None], v[None, None, :]))
        tab = np.asarray(self.coeff(*grids))
        return np.broadcast_to(tab, (X.n,) * self.arity).copy()


def ones_symbol(arity: int) -> DiscreteSymbol:
    return DiscreteSymbol(arity, lambda *a: np.ones(np.broadcast(*a).shape))


def diagonal_symbol() -> DiscreteSymbol:
    return DiscreteSymbol(2, lambda lam, mu: (lam == mu).astype(float))


def truncation_symbol(sign: str) -> DiscreteSymbol:
    """h_+(lam - mu) keeps lam < mu (strictly upper); h_- keeps lam > mu."""
    if sign == "+":
        return DiscreteSymbol(2, lambda lam, mu: (lam < mu).astype(float))
    if sign == "-":
        return DiscreteSymbol(2, lambda lam, mu: (lam > mu).astype(float))
    raise BadParameter(f"sign must be '+' or '-', got {sign!r}")


def m_plus_symbol() -> DiscreteSymbol:
    """sign(mu - lam) with 0 on the diagonal: T+ minus T-."""
    return DiscreteSymbol(2, lambda lam, mu: np.sign(mu - lam))


def _table_of(m, X: PointSet, arity: int) -> np.ndarray:
    if isinstance(m, DiscreteSymbol):
        if m.arity != arity:
            raise DimensionMismatch(f"symbol arity {m.arity}, expected {arity}")
        m = m.table(X)
    arr = np.asarray(m)
    if arr.dtype.kind not in "biufc":
        raise BadParameter(f"symbol table must be numeric, got dtype {arr.dtype}")
    if arr.ndim != arity or arr.shape != (X.n,) * arity:
        raise DimensionMismatch(f"table shape {arr.shape} incompatible with |X| = {X.n}")
    if not np.isfinite(arr).all():
        raise BadParameter("symbol table entries must be finite")
    return arr


def _square(a, n: int) -> np.ndarray:
    """a as a finite complex n x n matrix, else DimensionMismatch or BadParameter."""
    a = as_matrix(a)
    if a.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {a.shape} != ({n}, {n})")
    return a


# ----------------------------------------------------------------------------
# n^3 kernels in row slabs
# ----------------------------------------------------------------------------

# Leading indices per slab: at n = 128 a complex slab is 2 MB and stays in
# cache, where the whole n^3 product (34 MB) would not.
SLAB_ROWS = 8


def row_slabs(n: int):
    """Slices of SLAB_ROWS consecutive indices that cover range(n)."""
    return [slice(s, s + SLAB_ROWS) for s in range(0, n, SLAB_ROWS)]


# Each kernel does, slab by slab, what numpy's optimized plan of its
# three-operand einsum does to the whole table: one broadcast product, then
# one reduction in the same summation order.  So for n >= 2 the results equal
# that einsum's bitwise, Fortran order included, with neither its path
# planning nor its n^3 temporary.

def _bilinear(t, a, b):
    """C_il = sum_j t_ijl a_ij b_jl, in slabs of i."""
    out = np.empty(a.shape, dtype=np.result_type(t, a, b), order="F")
    for r in row_slabs(len(a)):
        out[r] = np.einsum("ijl,jl->il", a[r, :, None] * t[r], b)
    return out


def _bilinear_adjoint_first(d, tc, bc):
    """G_ij = sum_l d_il tc_ijl bc_jl, in slabs of j: one BLAS matrix-vector
    product per j, as in the einsum plan (only the search calls it, with BLAS
    on one thread)."""
    out = np.empty(d.shape, dtype=np.result_type(d, tc, bc), order="F")
    for r in row_slabs(len(tc)):
        prod = (tc[:, r] * d[:, None, :]).transpose(1, 0, 2)
        out[:, r] = np.matmul(prod, bc[r, :, None])[:, :, 0].T
    return out


def _bilinear_adjoint_second(d, tc, ac):
    """H_jl = sum_i d_il tc_ijl ac_ij, in slabs of j."""
    out = np.empty(d.shape, dtype=np.result_type(d, tc, ac), order="F")
    for r in row_slabs(len(tc)):
        out[r] = np.einsum("il,ijl->jl", d, ac[:, r, None] * tc[:, r])
    return out


def _table_operator(t, tc):
    """(forward, adjoints) of a table on the tuple of arguments a: a 2-d table
    maps a to t * a[0], a 3-d table to the bilinear action on (a[0], a[1]).
    Adjoint k maps (d, a) to the gradient of Re<forward(a), d> in a[k]; tc is
    the complex conjugate of t."""
    if t.ndim == 2:
        return (lambda a: t * a[0]), (lambda d, a: d * tc,)
    return ((lambda a: _bilinear(t, a[0], a[1])),
            (lambda d, a: _bilinear_adjoint_first(d, tc, np.conj(a[1])),
             lambda d, a: _bilinear_adjoint_second(d, tc, np.conj(a[0]))))


def apply_linear(m, X: PointSet, a) -> np.ndarray:
    a = _square(a, X.n)
    return _table_of(m, X, 2) * a


def apply_bilinear(m, X: PointSet, a, b) -> np.ndarray:
    a, b = _square(a, X.n), _square(b, X.n)
    return _bilinear(_table_of(m, X, 3), a, b)


def triangular_truncation(a, X: PointSet, sign: str) -> np.ndarray:
    """Strict triangular part relative to the label order (diagonal dropped)."""
    return apply_linear(truncation_symbol(sign), X, a)


def diagonal_part(a) -> np.ndarray:
    a = as_matrix(a)
    return np.diag(np.diag(a))


def m_plus(a, X: PointSet) -> np.ndarray:
    return triangular_truncation(a, X, "+") - triangular_truncation(a, X, "-")


# ----------------------------------------------------------------------------
# lower-bound norm estimation
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Budget:
    restarts: int = 20
    iterations: int = 60
    seed: int = 0

    def __post_init__(self):
        check_count("restarts", self.restarts, 0)
        check_count("iterations", self.iterations)


@dataclass
class EstimateResult:
    ratio: float
    witness: tuple  # (x,) for linear, (x, y) for bilinear
    per_restart: list = field(default_factory=list)


def _even_half(p) -> int:
    """k for an even integer exponent p = 2k, else 0."""
    if p < np.inf and p == int(p) and int(p) % 2 == 0:
        return int(p) // 2
    return 0


def _svd_subgradient(z: np.ndarray, p: float):
    u, s, vh = svd(z)
    norm = schatten_norm_from_sv(s, p)
    if norm == 0.0:
        return 0.0, np.zeros_like(z)
    w = (s / norm) ** (p - 1.0)
    return norm, (u * w) @ vh


def _subgradient(z: np.ndarray, p: float):
    """(norm, D) with d||Z||_p = Re tr(D^* dZ) at Z = z."""
    k = _even_half(p)
    f = float(np.linalg.norm(z)) if k else 0.0
    if _TINY < f < np.inf:
        y = z / f
        w = y if k == 1 else y @ np.linalg.matrix_power(y.conj().T @ y, k - 1)
        t = float(np.vdot(y, w).real)  # tr G^k
        if _TINY < t < np.inf:
            return f * t ** (1.0 / p), w * t ** (1.0 / p - 1.0)
    return _svd_subgradient(z, p)


def _schatten(z: np.ndarray, p: float) -> float:
    """||Z||_p; for even p, tr G^k is the squared Frobenius norm of G^(k/2)
    (k even) or Y G^((k-1)/2) (k odd)."""
    k = _even_half(p)
    f = float(np.linalg.norm(z)) if k else 0.0
    if _TINY < f < np.inf:
        y = z / f
        if k == 1:
            w = y
        else:
            h = np.linalg.matrix_power(y.conj().T @ y, k // 2)
            w = y @ h if k % 2 else h
        t = float(np.vdot(w, w).real)  # tr G^k
        if _TINY < t < np.inf:
            return f * t ** (1.0 / p)
    return schatten_norm_from_sv(svd(z, compute_uv=False), p)


def _normalize(x: np.ndarray, p: float) -> np.ndarray:
    n = _schatten(x, p)
    if n < _TINY:
        raise BadParameter("cannot normalize the zero matrix")
    return x / n


def linear_ratio(m, X: PointSet, x, p: float) -> float:
    """Achieved ratio ||M_m(x)||_p / ||x||_p for a single candidate."""
    x = as_matrix(x)
    denom = schatten_norm(x, p)
    if denom == 0.0:
        return 0.0
    return schatten_norm(apply_linear(m, X, x), p) / denom


def bilinear_ratio(m, X: PointSet, x, y, p1: float, p2: float, p: float) -> float:
    x, y = as_matrix(x), as_matrix(y)
    dx, dy = schatten_norm(x, p1), schatten_norm(y, p2)
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return schatten_norm(apply_bilinear(m, X, x, y), p) / (dx * dy)


def _ascend(op, starts, qs, p: float, iterations: int):
    """One restart: the best ||M(a)||_p found over unit-S_q arguments a.

    op is the pair (forward, adjoints) of M on the tuple of arguments, as
    ``_table_operator`` builds it; qs holds the argument exponents.
    Normalized subgradient ascent from the normalized starts is followed by
    an alternating dual-alignment polish, one argument at a time; every
    polish half-step is an exact partial maximization, so the objective is
    monotone there.  Returns the best value and its argument tuple, as
    complex matrices.  An operator that maps real matrices to real ones,
    with real starts, keeps every step real: the restart then runs in
    float64.

    SVDs of a restart that runs to the end, with P = max(8, iterations // 8)
    polish steps: one per norming step, and at a non-even exponent one per
    norm or subgradient: 1 + 2 iterations + 2 P + 1 for a linear search at
    non-even p (start, ascent steps, polish steps, final value).  An even p
    adds one SVD that re-measures the best value.
    """
    forward, adjoints = op
    args = [_normalize(a, q) for a, q in zip(starts, qs)]
    best, best_args = -np.inf, tuple(args)

    def measure():
        """Subgradient at the current arguments; records a new best."""
        nonlocal best, best_args
        norm, d = _subgradient(forward(args), p)
        if norm > best:
            best, best_args = norm, tuple(a.copy() for a in args)
        return d

    for it in range(1, iterations + 1):
        d = measure()
        gs = [adj(d, args) for adj in adjoints]
        gn = math.hypot(*(np.linalg.norm(g) for g in gs))
        if gn < 1e-14:
            break
        step = 0.5 / math.sqrt(it)
        args = [_normalize(a + step * (g / gn), q) for a, g, q in zip(args, gs, qs)]
    args = list(best_args)
    for _ in range(max(8, iterations // 8)):
        moved = False
        for k, (adj, q) in enumerate(zip(adjoints, qs)):
            # the norming element, argmax of Re<a, w> over the unit ball of
            # S_q, is the S_q* subgradient of w
            a = _svd_subgradient(adj(measure(), args), q / (q - 1.0))[1]
            if np.linalg.norm(a) > 1e-14:
                args[k], moved = a, True
        if not moved:  # a vanishing norming element: the value is 0
            break
    norm = _schatten(forward(args), p)
    if norm > best:
        best, best_args = norm, tuple(args)
    if _even_half(p):  # re-certify the Gram-path value by one SVD
        best = schatten_norm(forward(best_args), p)
    return best, tuple(a.astype(complex, copy=False) for a in best_args)


# Least n at which a search without a thread setting runs its jobs on the
# pool.  Speed-up of 2 pool threads over 1 (6 jobs, best of 3, BLAS on one
# thread, 2-core host):
#
#   search                 n=16  n=32  n=64  n=128
#   linear p=4             0.55  0.90  0.98  1.94
#   linear p=1.1           0.96  0.98  1.28  1.59
#   linear p=32            0.94  1.01  1.36  1.58
#   bilinear (4,4,2)       0.78  1.18  1.67
#   bilinear (1.5,3,1.1)   0.63  1.22  1.50
#
# (bilinear at n=8: 0.60 and 0.76).  Below n=64 the gain is small or
# negative.
POOL_MIN_N = 64


def _pool_threads(n: int, jobs: int) -> int:
    """Pool threads of a search over ``jobs`` jobs at size n: SCHURLAB_THREADS
    if set (BadBudget unless it is an integer >= 1), else one per available
    CPU (at most one per job) when n >= POOL_MIN_N, else 1."""
    threads = os.environ.get("SCHURLAB_THREADS")
    if threads is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        return min(cpus, jobs) if n >= POOL_MIN_N else 1
    with suppress(ValueError):
        threads = int(threads)
    check_count("SCHURLAB_THREADS", threads)
    return threads


def norm_lower_search(kind: str, m, X: PointSet, exponents, budget: Budget = Budget(),
                      seeds: Sequence = ()) -> EstimateResult:
    """Best achieved ratio over seeded candidates plus Gaussian restarts.

    The jobs (seeds, then restarts; ``per_restart`` keeps this order) run on
    ``_pool_threads`` pool threads, or in the calling thread when that is 1.
    Restart r draws its start from default_rng([budget.seed, r]), so the
    result is independent of how restarts are distributed over threads;
    numpy's bundled OpenBLAS runs on one thread meanwhile, which makes it
    independent of the BLAS thread setting too.  A seed with a zero matrix is
    a BadParameter.  A seed without imaginary parts on a table without them
    (real dtype or all-zero imaginary part) runs in float64.
    """
    n = X.n
    workers = _pool_threads(n, len(seeds) + budget.restarts)
    if kind == "linear":
        (p,) = tuple(np.atleast_1d(exponents)) if np.ndim(exponents) else (exponents,)
        qs = (p,)
    elif kind == "bilinear":
        p1, p2, p = exponents
        qs = (p1, p2)
    else:
        raise BadParameter(f"kind must be 'linear' or 'bilinear', got {kind!r}")
    for q in (*qs, p):
        check_exponent("exponent", q)
    t = _table_of(m, X, len(qs) + 1)
    real_table = t.dtype.kind != "c" or not np.any(t.imag)

    def checked(seed):
        """The seed's matrices: real ones for a real job, else complex."""
        mats = tuple(_square(a, n) for a in ((seed,) if kind == "linear" else seed))
        if len(mats) != len(qs):
            raise DimensionMismatch(f"a {kind} seed needs {len(qs)} matrices")
        if not all(np.any(a) for a in mats):
            raise BadParameter(f"a {kind} seed holds a zero matrix")
        if real_table and not any(np.any(a.imag) for a in mats):
            return tuple(a.real.copy() for a in mats)
        return mats

    def run(job):
        if isinstance(job, int):  # restart number
            rng = np.random.default_rng([budget.seed, job])
            job = tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                        for _ in qs)
        op = complex_op if job[0].dtype.kind == "c" else real_op
        return _ascend(op, job, qs, p, budget.iterations)

    jobs = [checked(s) for s in seeds] + list(range(budget.restarts))
    if not jobs:
        raise BadBudget("nothing to search: no seeds and budget.restarts == 0")
    real_jobs = [not isinstance(job, int) and job[0].dtype.kind != "c" for job in jobs]
    tr = t.real.copy() if t.dtype.kind == "c" and any(real_jobs) else t
    # one conjugate per search, in complex: a real t would keep +0.0
    # imaginary parts where the conjugate of a complex table has -0.0, and in
    # the linear adjoint those signed zeros reach the SVD and move its last bits
    tc = None if all(real_jobs) else np.conj(t, dtype=complex)
    real_op, complex_op = _table_operator(tr, tr), _table_operator(t, tc)
    # longest first: a complex job costs about four real ones, and the last
    # job to start bounds the pool's wall time
    order = sorted(range(len(jobs)), key=real_jobs.__getitem__)
    outcomes = [None] * len(jobs)
    with _one_blas_thread(), ExitStack() as stack:
        # one worker runs in this thread: on a pool thread the jobs ran 10-60% slower
        mapped = (map if workers == 1
                  else stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map)
        for i, outcome in zip(order, mapped(run, [jobs[i] for i in order])):
            outcomes[i] = outcome

    ratio, wit = max(outcomes, key=lambda o: o[0])  # the first best on ties
    return EstimateResult(ratio, wit, [o[0] for o in outcomes])


def load_symbol_table(path, arity: int) -> np.ndarray:
    """Read a tabulated symbol in the matrix text format.

    Arity 2 is one n x n block; arity 3 is n stacked n x n blocks (n^2 rows),
    block i holding m(x_i, x_j, x_l) at row j, column l.
    """
    from .matrixnum import read_matrix

    if arity not in (2, 3):
        raise BadParameter("arity must be 2 or 3")
    flat = read_matrix(path)
    n = flat.shape[1]
    if flat.shape[0] != n ** (arity - 1):
        raise DimensionMismatch(f"arity-{arity} table needs n^{arity - 1} x n rows, "
                                f"got {flat.shape}")
    return flat.reshape((n,) * arity)
