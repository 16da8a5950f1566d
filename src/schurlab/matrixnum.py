"""Dense complex matrices: singular values, Schatten and Marcinkiewicz norms,
decreasing rearrangement, polar-based Hoelder factorization, and text I/O.

Matrices are plain complex numpy arrays throughout.  Every SVD of the package
goes through `svd`, which runs under `_one_blas_thread`, the OpenBLAS pin that
the package's other LAPACK and BLAS callers share.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import BadParameter, ConvergenceFailure, DimensionMismatch, check_exponent


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

    The count is process-wide: meanwhile other threads see one thread too.
    Overlapping pins share one: the first to enter saves the count, the last
    to leave restores it.  A no-op when the symbols are absent.  As a
    decorator, ``@_one_blas_thread()`` pins every call of the function."""
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


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise BadParameter("matrix entries must be finite")
    return m


@_one_blas_thread()
def svd(m: np.ndarray, compute_uv: bool = True):
    """np.linalg.svd of a matrix or a stack of them, on one OpenBLAS thread; a
    LAPACK non-convergence is a ConvergenceFailure."""
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def singular_values(a) -> np.ndarray:
    """Non-increasing singular values (LAPACK SVD behind the spec contract)."""
    return svd(as_matrix(a), compute_uv=False)


def schatten_norm(a, p) -> float:
    """(sum s_j^p)^(1/p); the largest singular value for p = inf."""
    check_exponent("Schatten exponent", p, closed=True)
    return schatten_norm_from_sv(singular_values(a), p)


def schatten_norm_from_sv(s: np.ndarray, p) -> float:
    """schatten_norm from the non-increasing singular values s; the top value
    is scaled out so that a large p cannot overflow."""
    check_exponent("Schatten exponent", p, closed=True)
    top = float(s[0]) if len(s) else 0.0
    if top == 0.0:
        return 0.0
    if p == np.inf:
        return top
    return top * float(np.sum((s / top) ** p)) ** (1.0 / p)


def decreasing_rearrangement(a, t: float) -> float:
    """mu_t: right-continuous step function of the singular values."""
    if t < 0:
        raise BadParameter(f"t must be >= 0, got {t}")
    s = singular_values(a)
    idx = int(math.floor(t))
    return float(s[idx]) if idx < len(s) else 0.0


def marcinkiewicz_norm_from_sv(s: np.ndarray) -> float:
    """max_k (s_1 + ... + s_k) / log(1 + k) for non-increasing values s."""
    csum = np.cumsum(s)
    return float(np.max(csum / np.log1p(np.arange(1, len(s) + 1))))


def marcinkiewicz_norm(a) -> float:
    """sup_t (integral_0^t mu_s ds) / log(1+t), the M_{1,inf} quasi-norm.

    The integral is piecewise linear with integer breakpoints, and on each
    segment [m, m+1] the ratio has at most one interior critical point, a
    minimum; on [0, 1] it is increasing, and past the rank the numerator is
    constant while log grows.  So the supremum sits at a breakpoint t = k.
    """
    return marcinkiewicz_norm_from_sv(singular_values(a))


@_one_blas_thread()
def holder_split(z, p: float):
    """Factor z = y @ x with ||z||_p = ||y||_2p * ||x||_2p via the polar parts.

    y = U |z|^{1/2} and x = |z|^{1/2} where z = U |z|.
    """
    check_exponent("p", p, closed=True)
    m = as_matrix(z)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("holder_split needs a square matrix")
    u, s, vh = svd(m)
    root = np.sqrt(s)
    y = (u * root) @ vh
    x = (vh.conj().T * root) @ vh
    return y, x


def write_matrix(path, a):
    """Plain text: header 'rows cols', then row-major 're im' pairs (17 digits)."""
    m = np.ascontiguousarray(as_matrix(a))
    np.savetxt(path, m.view(float), fmt="%.17g", header="%d %d" % m.shape, comments="")


def read_matrix(path) -> np.ndarray:
    """A write_matrix file, signed zeros kept; BadParameter names a malformed file."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise BadParameter(f"{path}: missing header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        data = np.asarray([float(t) for t in tokens[2:]], dtype=float)
    except ValueError as exc:
        raise BadParameter(f"{path}: {exc}") from None
    if min(rows, cols) < 0 or data.size != 2 * rows * cols:
        raise BadParameter(f"{path}: header {rows} {cols} does not match {data.size} numbers")
    return data.view(complex).reshape(rows, cols)
