"""Linear and bilinear Schur multipliers on finite labeled point sets.

A linear multiplier acts entrywise, C = m(x_i, x_k) * A_ik.  A bilinear one
couples an intermediate index,

    C_il = sum_j m(x_i, x_j, x_l) * A_ij * B_jl.

Norm estimation is lower-bound only: random complex Gaussian restarts followed
by normalized subgradient ascent on the achieved ratio, then a dual-alignment
polish (Higham's nonlinear power method, "Estimating the matrix p-norm",
Numer. Math. 1992) whose norming step uses the SVD.

The Schatten-norm subgradient has two paths.  For an even integer exponent
p = 2k no SVD is needed: with f = ||Z||_F, Y = Z/f and G = Y^*Y,

    ||Z||_p = f tr(G^k)^(1/p),    D = Y G^(k-1) (f/||Z||_p)^(p-1),

where G^(k-1) comes from repeated squaring; the SVD is used only when the
scaled trace underflows or is not finite.  Every other exponent reads norm
and subgradient off the SVD factors.  On the Gram path the best value of each
restart is re-measured by one SVD of its witness, so every reported value is
an SVD-measured achieved ratio and therefore a certified lower bound of the
true multiplier norm.

The search runs with the bundled OpenBLAS pinned to one thread (restored
afterwards), so its results do not depend on the BLAS or pool thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import BadBudget, BadExponent, DimensionMismatch
from .matrixnum import as_matrix, schatten_norm_from_sv

_TINY = 1e-300


@dataclass(frozen=True)
class PointSet:
    """Strictly increasing real labels x_1 < ... < x_n."""

    labels: tuple

    def __post_init__(self):
        vals = np.asarray(self.labels, dtype=float)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("labels must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError("labels must be finite")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("labels must be strictly increasing and distinct")
        object.__setattr__(self, "labels", tuple(float(v) for v in vals))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=float)

    @staticmethod
    def integers(n: int) -> "PointSet":
        return PointSet(tuple(range(1, n + 1)))


class DiscreteSymbol:
    """Coefficient function over label pairs (arity 2) or triples (arity 3).

    ``coeff`` must broadcast over numpy label arrays.  Tables and sup bounds
    are cached per point set.
    """

    def __init__(self, arity: int, coeff: Callable, name: str = ""):
        if arity not in (2, 3):
            raise ValueError(f"arity must be 2 or 3, got {arity}")
        self.arity = arity
        self.coeff = coeff
        self.name = name
        self._tables: dict = {}

    def table(self, X: PointSet) -> np.ndarray:
        tab = self._tables.get(X)
        if tab is None:
            v = X.values
            if self.arity == 2:
                tab = np.asarray(self.coeff(v[:, None], v[None, :]), dtype=complex)
                tab = np.broadcast_to(tab, (X.n, X.n)).copy()
            else:
                tab = np.asarray(
                    self.coeff(v[:, None, None], v[None, :, None], v[None, None, :]),
                    dtype=complex)
                tab = np.broadcast_to(tab, (X.n, X.n, X.n)).copy()
            self._tables[X] = tab
        return tab

    def sup_bound(self, X: PointSet) -> float:
        return float(np.max(np.abs(self.table(X))))

    @staticmethod
    def from_table(arr, name: str = "") -> "DiscreteSymbol":
        arr = np.asarray(arr, dtype=complex)
        if arr.ndim not in (2, 3):
            raise ValueError("table must be 2-d or 3-d")
        sym = DiscreteSymbol(arr.ndim, lambda *a: None, name=name)
        sym._fixed = arr

        def table(X, _sym=sym):
            if _sym._fixed.shape[0] != X.n:
                raise DimensionMismatch(
                    f"tabulated symbol size {_sym._fixed.shape[0]} != |X| = {X.n}")
            return _sym._fixed

        sym.table = table  # type: ignore[method-assign]
        return sym


def ones_symbol(arity: int) -> DiscreteSymbol:
    return DiscreteSymbol(arity, lambda *a: np.ones(np.broadcast(*a).shape), name="ones")


def diagonal_symbol() -> DiscreteSymbol:
    return DiscreteSymbol(2, lambda lam, mu: (lam == mu).astype(float), name="diag")


def truncation_symbol(sign: str) -> DiscreteSymbol:
    """h_+(lam - mu) keeps lam < mu (strictly upper); h_- keeps lam > mu."""
    if sign == "+":
        return DiscreteSymbol(2, lambda lam, mu: (lam < mu).astype(float), name="t_plus")
    if sign == "-":
        return DiscreteSymbol(2, lambda lam, mu: (lam > mu).astype(float), name="t_minus")
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def m_plus_symbol() -> DiscreteSymbol:
    """sign(mu - lam) with 0 on the diagonal: T+ minus T-."""
    return DiscreteSymbol(2, lambda lam, mu: np.sign(mu - lam), name="m_plus")


def _table_of(m, X: PointSet, arity: int) -> np.ndarray:
    if isinstance(m, DiscreteSymbol):
        if m.arity != arity:
            raise DimensionMismatch(f"symbol arity {m.arity}, expected {arity}")
        return m.table(X)
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != arity or arr.shape != (X.n,) * arity:
        raise DimensionMismatch(f"table shape {arr.shape} incompatible with |X| = {X.n}")
    return arr


def apply_linear(m, X: PointSet, a) -> np.ndarray:
    a = as_matrix(a)
    if a.shape != (X.n, X.n):
        raise DimensionMismatch(f"matrix shape {a.shape} != ({X.n}, {X.n})")
    return _table_of(m, X, 2) * a


def apply_bilinear(m, X: PointSet, a, b) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != (X.n, X.n) or b.shape != (X.n, X.n):
        raise DimensionMismatch(
            f"matrix shapes {a.shape}, {b.shape} != ({X.n}, {X.n})")
    t = _table_of(m, X, 3)
    return np.einsum("ijl,ij,jl->il", t, a, b, optimize=True)


def triangular_truncation(a, X: PointSet, sign: str) -> np.ndarray:
    """Strict triangular part relative to the label order (diagonal dropped)."""
    a = as_matrix(a)
    if a.shape != (X.n, X.n):
        raise DimensionMismatch(f"matrix shape {a.shape} != ({X.n}, {X.n})")
    v = X.values
    if sign == "+":
        mask = v[:, None] < v[None, :]
    elif sign == "-":
        mask = v[:, None] > v[None, :]
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return a * mask


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
        for name, low in (("restarts", 0), ("iterations", 1)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise BadBudget(f"{name} must be an integer >= {low}, got {v!r}")


@dataclass
class EstimateResult:
    ratio: float
    witness: tuple  # (x,) for linear, (x, y) for bilinear
    per_restart: list = field(default_factory=list)


def _check_open_exponent(p):
    if not (1 < p < np.inf):
        raise BadExponent(f"exponent must lie in (1, inf), got {p}")


def _even_half(p) -> int:
    """k for an even integer exponent p = 2k, else 0."""
    if p < np.inf and p == int(p) and int(p) % 2 == 0:
        return int(p) // 2
    return 0


def _svd_subgradient(z: np.ndarray, p: float):
    u, s, vh = np.linalg.svd(z)
    norm = schatten_norm_from_sv(s, p)
    if norm == 0.0:
        return 0.0, np.zeros_like(z)
    if p == np.inf:
        return norm, np.outer(u[:, 0], vh[0, :])
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


def _svd_schatten(z: np.ndarray, p: float) -> float:
    return schatten_norm_from_sv(np.linalg.svd(z, compute_uv=False), p)


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
    return _svd_schatten(z, p)


def _normalize(x: np.ndarray, p: float) -> np.ndarray:
    n = _schatten(x, p)
    if n < _TINY:
        raise ValueError("cannot normalize the zero matrix")
    return x / n


def linear_ratio(m, X: PointSet, x, p: float) -> float:
    """Achieved ratio ||M_m(x)||_p / ||x||_p for a single candidate."""
    x = as_matrix(x)
    denom = schatten_norm_from_sv(np.linalg.svd(x, compute_uv=False), p)
    if denom == 0.0:
        return 0.0
    z = apply_linear(m, X, x)
    return schatten_norm_from_sv(np.linalg.svd(z, compute_uv=False), p) / denom


def bilinear_ratio(m, X: PointSet, x, y, p1: float, p2: float, p: float) -> float:
    x, y = as_matrix(x), as_matrix(y)
    dx = schatten_norm_from_sv(np.linalg.svd(x, compute_uv=False), p1)
    dy = schatten_norm_from_sv(np.linalg.svd(y, compute_uv=False), p2)
    if dx == 0.0 or dy == 0.0:
        return 0.0
    z = apply_bilinear(m, X, x, y)
    return schatten_norm_from_sv(np.linalg.svd(z, compute_uv=False), p) / (dx * dy)


def _norming(w: np.ndarray, q: float) -> np.ndarray:
    """argmax of Re<x, w> over the unit ball of S_q (the norming element)."""
    u, s, vh = np.linalg.svd(w)
    if s[0] == 0.0:
        return np.zeros_like(w)
    qs = q / (q - 1.0)
    norm = schatten_norm_from_sv(s, qs)
    return (u * (s / norm) ** (qs - 1.0)) @ vh


def _ascend_linear(t2: np.ndarray, x0: np.ndarray, p: float, iterations: int):
    x = _normalize(np.array(x0, dtype=complex), p)
    best, best_x = -np.inf, x
    for it in range(1, iterations + 1):
        z = t2 * x
        norm, d = _subgradient(z, p)
        if norm > best:
            best, best_x = norm, x.copy()
        g = d * np.conj(t2)
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        x = _normalize(x + (0.5 / math.sqrt(it)) * (g / gn), p)
    # alternating dual-alignment polish; every half-step is an exact partial
    # maximization, so the objective is monotone from here on
    x = best_x
    for _ in range(max(8, iterations // 8)):
        z = t2 * x
        norm, d = _subgradient(z, p)
        if norm > best:
            best, best_x = norm, x.copy()
        x = _norming(d * np.conj(t2), p)
        if np.linalg.norm(x) < 1e-14:
            break
    norm = _schatten(t2 * x, p)
    if norm > best:
        best, best_x = norm, x
    if _even_half(p):  # re-certify the Gram-path value by one SVD
        best = _svd_schatten(t2 * best_x, p)
    return best, best_x


def _ascend_bilinear(t3: np.ndarray, x0, y0, p1, p2, p, iterations: int):
    x = _normalize(np.array(x0, dtype=complex), p1)
    y = _normalize(np.array(y0, dtype=complex), p2)
    tc = np.conj(t3)
    best, best_xy = -np.inf, (x, y)
    for it in range(1, iterations + 1):
        z = np.einsum("ijl,ij,jl->il", t3, x, y, optimize=True)
        norm, d = _subgradient(z, p)
        if norm > best:
            best, best_xy = norm, (x.copy(), y.copy())
        gx = np.einsum("il,ijl,jl->ij", d, tc, np.conj(y), optimize=True)
        gy = np.einsum("ijl,ij,il->jl", tc, np.conj(x), d, optimize=True)
        gn = math.hypot(np.linalg.norm(gx), np.linalg.norm(gy))
        if gn < 1e-14:
            break
        step = 0.5 / math.sqrt(it)
        x = _normalize(x + step * (gx / gn), p1)
        y = _normalize(y + step * (gy / gn), p2)
    # alternating polish, one argument at a time
    x, y = best_xy
    for _ in range(max(8, iterations // 8)):
        z = np.einsum("ijl,ij,jl->il", t3, x, y, optimize=True)
        norm, d = _subgradient(z, p)
        if norm > best:
            best, best_xy = norm, (x.copy(), y.copy())
        gx = np.einsum("il,ijl,jl->ij", d, tc, np.conj(y), optimize=True)
        xn = _norming(gx, p1)
        if np.linalg.norm(xn) > 1e-14:
            x = xn
        z = np.einsum("ijl,ij,jl->il", t3, x, y, optimize=True)
        norm, d = _subgradient(z, p)
        if norm > best:
            best, best_xy = norm, (x.copy(), y.copy())
        gy = np.einsum("ijl,ij,il->jl", tc, np.conj(x), d, optimize=True)
        yn = _norming(gy, p2)
        if np.linalg.norm(yn) > 1e-14:
            y = yn
    norm = _schatten(np.einsum("ijl,ij,jl->il", t3, x, y, optimize=True), p)
    if norm > best:
        best, best_xy = norm, (x, y)
    if _even_half(p):  # re-certify the Gram-path value by one SVD
        best = _svd_schatten(np.einsum("ijl,ij,jl->il", t3, *best_xy, optimize=True), p)
    return best, best_xy


@functools.lru_cache(maxsize=None)
def _openblas_threads_api():
    """(get, set) thread-count calls of numpy's bundled OpenBLAS, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
            get = handle.scipy_openblas_get_num_threads64_
            put = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    Overlapping searches share one pin: the first to enter saves the count,
    the last to leave restores it.  A no-op when the symbols are absent."""
    global _pin_depth, _pin_saved
    api = _openblas_threads_api()
    if api is None:
        yield
        return
    get, put = api
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_saved)


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get("SCHURLAB_THREADS", "1")))
    except ValueError:
        return 1


def norm_lower_search(kind: str, m, X: PointSet, exponents, budget: Budget = Budget(),
                      seeds: Sequence = (), threads: int | None = None) -> EstimateResult:
    """Best achieved ratio over seeded candidates plus Gaussian restarts.

    Restart r draws its start from default_rng([budget.seed, r]), so the result
    is independent of how restarts are distributed over threads; numpy's
    bundled OpenBLAS runs on one thread meanwhile, which makes it independent
    of the BLAS thread setting too.
    """
    n = X.n
    if kind == "linear":
        (p,) = tuple(np.atleast_1d(exponents)) if np.ndim(exponents) else (exponents,)
        _check_open_exponent(p)
        t = _table_of(m, X, 2)

        def run(job):
            tag, payload = job
            if tag == "seed":
                x0 = as_matrix(payload)
            else:
                rng = np.random.default_rng([budget.seed, payload])
                x0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return _ascend_linear(t, x0, p, budget.iterations)

    elif kind == "bilinear":
        p1, p2, p = exponents
        for q in (p1, p2, p):
            _check_open_exponent(q)
        t = _table_of(m, X, 3)

        def run(job):
            tag, payload = job
            if tag == "seed":
                x0, y0 = payload
            else:
                rng = np.random.default_rng([budget.seed, payload])
                x0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                y0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return _ascend_bilinear(t, x0, y0, p1, p2, p, budget.iterations)

    else:
        raise ValueError(f"kind must be 'linear' or 'bilinear', got {kind!r}")

    jobs = [("seed", s) for s in seeds]
    jobs += [("rand", r) for r in range(budget.restarts)]
    if not jobs:
        raise BadBudget("nothing to search: no seeds and budget.restarts == 0")
    workers = default_threads() if threads is None else max(1, threads)
    with _one_blas_thread():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(run, jobs))
        else:
            outcomes = [run(job) for job in jobs]

    ratio, wit = max(outcomes, key=lambda o: o[0])  # the first best on ties
    return EstimateResult(ratio, (wit,) if kind == "linear" else wit,
                          [o[0] for o in outcomes])


def norm_lower_estimate(kind: str, m, X: PointSet, exponents, budget: Budget = Budget(),
                        seeds: Sequence = (), threads: int | None = None) -> float:
    return norm_lower_search(kind, m, X, exponents, budget, seeds, threads).ratio


def load_symbol_table(path, arity: int) -> np.ndarray:
    """Read a tabulated symbol in the matrix text format.

    Arity 2 is one n x n block; arity 3 is n stacked n x n blocks (n^2 rows),
    block i holding m(x_i, x_j, x_l) at row j, column l.
    """
    from .matrixnum import read_matrix

    flat = read_matrix(path)
    if arity == 2:
        if flat.shape[0] != flat.shape[1]:
            raise DimensionMismatch(f"arity-2 table must be square, got {flat.shape}")
        return flat
    if arity == 3:
        n = flat.shape[1]
        if flat.shape[0] != n * n:
            raise DimensionMismatch(
                f"arity-3 table needs n^2 x n rows, got {flat.shape}")
        return flat.reshape(n, n, n)
    raise ValueError("arity must be 2 or 3")
