"""Homogeneous symbol calculus: circle Fourier expansions, the order -2
convolution kernel of odd symbols, size/smoothness constants, and the
oscillatory factorization of quadrant-supported symbols with its constant.

A homogeneous order-0 symbol is determined by its circle profile rho.  For an
odd symbol with rho(theta) = sum_k alpha_k e^{ik theta} (alpha_0 = 0), the
Fourier transform is

    K(z) = sum_{k != 0} |k| alpha_k / (2 pi i^k) * z^k / |z|^{k+2},

homogeneous of order -2 with gradient homogeneous of order -3.

A symbol supported in the open quadrant sigma_1 R_+ x sigma_2 R_+ factorizes
through imaginary powers: with h(t) = m(sigma_1 e^t, sigma_2) one has
h(t) = int g(s) e^{ist} ds, hence m(xi) = int g(s) |xi_1|^{is} |xi_2|^{-is} ds
on the quadrant, and the associated constant is C(m) = int |g(s)| (1+2|s|)^2 ds.
The Toeplitz bases a_3..a_6 are odd, a_i(-lambda) = -a_i(lambda), so their two
opposite quadrants have equal constants and one factorization gives both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .decomp import SectorPartition, a_value, smoothstep
from .errors import (BadGrid, BadParameter, NonFiniteNode, OriginQuery, SupportViolation,
                     check_count)
from .matrixnum import _one_blas_thread

_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
_SUPPORT_TOL = 1e-12  # largest |m| a profile may keep outside its quadrant
_RADII = (1e-100, 1e100)  # circle radii whose r^3 and r^-3 are finite floats
TWO_PI = 2.0 * math.pi
_PROBE = TWO_PI * np.arange(8192) / 8192  # the support probe of s1_factorize, with its cos, sin
_PROBE_COS, _PROBE_SIN = np.cos(_PROBE), np.sin(_PROBE)
_PROBE.flags.writeable = False  # each profile sees this one array and must not write it


def _expi(y):
    """e^{iy} for real y, with cos y and sin y written into one complex array:
    np.exp(1j * y) without the exp of its zero real part (bitwise equal with
    numpy 2.4.6, which keeps every C(m) bitwise)."""
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape, dtype=complex)
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    return out[()]  # a scalar for a scalar y, as np.exp gives


@dataclass
class HomogeneousSymbol:
    """Order-0 homogeneous symbol given by its circle profile."""

    profile: Callable  # theta (array ok) -> complex value
    parity: str = "none"  # even | odd | none

    def __post_init__(self):
        if self.parity not in ("even", "odd", "none"):
            raise BadParameter(f"parity must be even/odd/none, got {self.parity!r}")
        if self.parity != "none":
            th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
            a = np.asarray(self.profile(th), dtype=complex)
            b = np.asarray(self.profile(th + math.pi), dtype=complex)
            sgn = 1.0 if self.parity == "even" else -1.0
            scale = 1.0 + np.max(np.abs(a))
            if np.max(np.abs(b - sgn * a)) > 1e-12 * scale:
                raise BadParameter(f"profile does not have parity {self.parity!r}")

    def __call__(self, xi1, xi2):
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        if np.any((xi1 == 0) & (xi2 == 0)):
            raise OriginQuery("homogeneous symbol undefined at the origin")
        return self.profile(np.mod(np.arctan2(xi2, xi1), TWO_PI))


def harmonic_symbol(k: int, real: bool = False) -> HomogeneousSymbol:
    """e^{ik theta}, or its real form cos(k theta)."""
    parity = "even" if k % 2 == 0 else "odd"
    if real:
        return HomogeneousSymbol(lambda th: np.cos(k * th), parity)
    return HomogeneousSymbol(lambda th: _expi(k * th), parity)


def sine_symbol(k: int) -> HomogeneousSymbol:
    parity = "even" if k % 2 == 0 else "odd"
    return HomogeneousSymbol(lambda th: np.sin(k * th), parity)


def bump_symbol() -> HomogeneousSymbol:
    """Smooth bump supported in the angular arc (pi/8, 3pi/8) of the first quadrant.

    The transition width (b-a)/2 makes the two smoothsteps meet in the
    middle, which maximizes the decay rate of the factorization transform."""
    a, b = math.pi / 8, 3 * math.pi / 8
    width = (b - a) / 2

    def profile(th):
        th = np.mod(np.asarray(th, dtype=float), TWO_PI)
        return smoothstep((th - a) / width) * smoothstep((b - th) / width)

    return HomogeneousSymbol(profile, "none")


@dataclass
class CircleCoefficients:
    K: int
    alphas: np.ndarray  # index k + K, k in [-K, K]

    def alpha(self, k: int) -> complex:
        if abs(k) > self.K:
            return 0.0 + 0j
        return complex(self.alphas[k + self.K])

    def kernel_factors(self):
        """c_k = |k| alpha_k / (2 pi i^k) for k != 0."""
        ks = np.arange(-self.K, self.K + 1)
        ipow = np.asarray([_I_POWERS[k % 4] for k in ks])
        c = np.abs(ks) * self.alphas / (TWO_PI * ipow)
        c[self.K] = 0.0
        return ks, c


def circle_fourier_coeffs(m: HomogeneousSymbol, K: int) -> CircleCoefficients:
    """alpha_k from 4K-point uniform circle sampling (exact for band limit < 3K)."""
    check_count("K", K)
    n = 4 * K
    th = TWO_PI * np.arange(n) / n
    vals = np.asarray(m.profile(th), dtype=complex)
    c = np.fft.fft(vals) / n
    return CircleCoefficients(K, c[np.arange(-K, K + 1) % n])


def coeff_tail_bound(m: HomogeneousSymbol, K: int) -> float:
    """Recorded tail sum_{K < |k| <= 4K} |k| |alpha_k|."""
    big = circle_fourier_coeffs(m, 4 * K)
    ks = np.arange(-4 * K, 4 * K + 1)
    mask = np.abs(ks) > K
    return float(np.sum(np.abs(ks[mask]) * np.abs(big.alphas[mask])))


def _expi_grid(x, y0: float, dy: float, n: int):
    """e^{i x (y0 + j dy)} for j < n at points x (1-d), shaped (n, points): with
    b = ceil(sqrt(n)) and j = qb + u, a table e^{i x (y0 + qb dy)} times a table
    e^{i x u dy}, so each point needs about 2 sqrt(n) sines and cosines."""
    b = math.isqrt(n - 1) + 1
    q = -(-n // b)
    outer = _expi(np.multiply.outer(y0 + b * dy * np.arange(q), x))
    inner = _expi(np.multiply.outer(dy * np.arange(b), x))
    return (outer[:, None] * inner).reshape(q * b, len(x))[:n]


@_one_blas_thread()
def _phase_sum(x, s0: float, ds: float, c):
    """sum_k c[..., k] e^{i x (s0 + k ds)} for x of any shape, shaped c.shape[:-1] + x.shape.
    Coarse x fine split: with B = ceil(sqrt(N)) and k = bB + r, c in rows of B times a
    (B x points) table e^{i x r ds}, weighted by an (N/B x points) table e^{i x (s0 + bB ds)}.
    `_expi_grid` builds each table from two of about sqrt(B) rows, so a point costs about
    4 N^{1/4} sines and cosines and O(sqrt N) memory, within about 1e-14 sum|c| of the
    dense sum."""
    x = np.asarray(x, dtype=float)
    B = math.isqrt(c.shape[-1] - 1) + 1
    pad = [(0, 0)] * (c.ndim - 1) + [(0, -c.shape[-1] % B)]
    blocks = np.pad(c, pad).reshape(c.shape[:-1] + (-1, B))
    xs = x.reshape(-1)
    fine = _expi_grid(xs, 0.0, ds, B)
    coarse = _expi_grid(xs, s0, B * ds, blocks.shape[-2])
    out = np.sum((blocks @ fine) * coarse, axis=-2)
    return out.reshape(c.shape[:-1] + x.shape)


def _kernel_terms(m, z, K):
    """|z|, arg z, and the kernel sums sum_k c_k e^{ik arg z}, sum_k k c_k e^{ik arg z}."""
    ks, c = circle_fourier_coeffs(m, K).kernel_factors()
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise NonFiniteNode("kernel evaluation point is NaN or infinite")
    r = np.abs(z)
    if np.any(r == 0):
        raise OriginQuery("kernel undefined at the origin")
    th = np.angle(z)
    return r, th, _phase_sum(th, ks[0], 1.0, np.stack([c, ks * c]))


def kernel_eval(m: HomogeneousSymbol, z, K: int = 256):
    """Truncated kernel sum at z (complex number(s) standing for R^2 points); the sum
    over k is `_phase_sum`'s coarse x fine split, 20 sines and cosines per point at
    K = 256, within about 1e-14 sum|c_k|."""
    r, _, (sums, _) = _kernel_terms(m, z, K)
    return sums / r ** 2


def kernel_gradient(m: HomogeneousSymbol, z, K: int = 256):
    """(d/dx, d/dy) of the truncated kernel, term-wise analytic."""
    return _gradient(*_kernel_terms(m, z, K))


def _gradient(r, th, kernel_sums):
    """The kernel gradient from `_kernel_terms`' |z|, arg z and kernel sums."""
    sums, k_sums = kernel_sums
    cos_t, sin_t = np.cos(th), np.sin(th)
    gx = (-2.0 * cos_t * sums - 1j * sin_t * k_sums) / r ** 3
    gy = (-2.0 * sin_t * sums + 1j * cos_t * k_sums) / r ** 3
    return gx, gy


@dataclass
class SizeSmoothnessReport:
    c1_hat: float
    c2_hat: float
    c1_per_annulus: tuple
    c2_per_annulus: tuple
    tail: float


def size_smoothness_check(m: HomogeneousSymbol, radii=(1.0, 10.0), K: int = 256,
                          n_angles: int = 720) -> SizeSmoothnessReport:
    """Sampled sup of |z|^2 |K(z)| and |z|^3 |grad K(z)| over circles of radii in
    _RADII, beyond which r^3 overflows or vanishes and the sup would be nan."""
    radii = np.asarray(radii, dtype=float)
    lo, hi = _RADII
    if not (radii.ndim == 1 and radii.size and np.all((radii >= lo) & (radii <= hi))
            and n_angles >= 1):
        raise BadGrid(f"need radii in [{lo:g}, {hi:g}] and n_angles >= 1; "
                      f"got {radii}, {n_angles}")
    th = TWO_PI * np.arange(n_angles) / n_angles
    abs_z, arg_z, sums = _kernel_terms(m, radii[:, None] * _expi(th), K)
    gx, gy = _gradient(abs_z, arg_z, sums)
    c1s = (np.max(np.abs(sums[0] / abs_z ** 2), axis=1) * radii ** 2).tolist()
    c2s = (np.max(np.hypot(np.abs(gx), np.abs(gy)), axis=1) * radii ** 3).tolist()
    return SizeSmoothnessReport(max(c1s), max(c2s), tuple(c1s), tuple(c2s),
                                coeff_tail_bound(m, K))


# ----------------------------------------------------------------------------
# quadrant factorization
# ----------------------------------------------------------------------------

@dataclass
class S1Factorization:
    sigma1: int
    sigma2: int
    s_grid: np.ndarray
    g_values: np.ndarray
    C_m: float
    t_window: tuple
    t_points: int

    def reconstruct(self, xi1, xi2):
        """int g(s) |xi1|^{is} |xi2|^{-is} ds on the quadrant by the trapezoid rule on
        s_grid; the sum over s is `_phase_sum`'s coarse x fine split, with about
        4 N^{1/4} sines and cosines (32 at N = 4096) and O(sqrt N) memory per point,
        within about 1e-14 sum|g w| of the dense sum."""
        xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
        if not np.all(np.isfinite(xi1) & np.isfinite(xi2)
                      & (self.sigma1 * xi1 > 0) & (self.sigma2 * xi2 > 0)):
            raise SupportViolation("reconstruction point not finite and inside the quadrant")
        t = np.log(np.abs(xi1)) - np.log(np.abs(xi2))
        s = self.s_grid
        w = np.full(len(s), s[1] - s[0])
        w[[0, -1]] *= 0.5
        return _phase_sum(t, s[0], (s[-1] - s[0]) / (len(s) - 1), self.g_values * w)


def _uniform_transform(s, t, x):
    """sum_k x_k e^{-i s_j t_k} on uniform grids (N, T >= 2) by Bluestein's chirp-z
    (Rabiner, Schafer and Rader 1969): with j, k counted from the grid midpoints,
    j k = (j^2 + k^2 - (j-k)^2)/2 makes the sum one chirp convolution, done by FFT."""
    N, T = len(s), len(t)
    ds, dt = (s[-1] - s[0]) / (N - 1), (t[-1] - t[0]) / (T - 1)
    sc, tc = (s[0] + s[-1]) / 2, (t[0] + t[-1]) / 2
    j, k = np.arange(N) - (N - 1) / 2, np.arange(T) - (T - 1) / 2
    half_a = ds * dt / 2
    L = 1 << (N + T - 2).bit_length()  # power of two >= N + T - 1: no wrap-around
    y = np.fft.fft(x * _expi(-(sc * dt * k + half_a * k ** 2)), L)
    chirp = np.fft.fft(_expi(half_a * (np.arange(1 - T, N) - (N - T) / 2) ** 2), L)
    conv = np.fft.ifft(y * chirp)[T - 1:T - 1 + N]
    return _expi(-(sc * tc + ds * tc * j + half_a * j ** 2)) * conv


def s1_factorize(m: HomogeneousSymbol, quadrant=( -1, 1), S: float = 40.0,
                 N: int = 4096, t_points: int = 8192) -> S1Factorization:
    """Fourier factorization of a one-quadrant symbol, with its constant C(m).

    The profile is checked to vanish (up to _SUPPORT_TOL) outside the open
    quadrant; the t-integral runs over the detected support padded by 2.  g comes
    from Bluestein's chirp-z transform, whose absolute error is about eps log(N + T) max|g|.
    Grids that alias (`_check_aliasing`) and a C(m) that overflows (the weight grows as
    S^2) are a BadGrid.
    """
    sigma1, sigma2 = quadrant
    if sigma1 not in (-1, 1) or sigma2 not in (-1, 1):
        raise BadParameter(f"quadrant signs must be +-1, got {quadrant}")
    if not (math.isfinite(S) and S > 0 and N >= 2 and t_points >= 2):
        raise BadGrid(f"need finite S > 0, N >= 2, t_points >= 2; got {S}, {N}, {t_points}")
    size = np.abs(np.asarray(m.profile(_PROBE), dtype=complex))
    outside = ~((sigma1 * _PROBE_COS > 0) & (sigma2 * _PROBE_SIN > 0))
    if np.max(size[outside], initial=0.0) > _SUPPORT_TOL:
        raise SupportViolation(
            f"symbol mass outside quadrant ({sigma1:+d},{sigma2:+d}) exceeds {_SUPPORT_TOL}")

    s_grid = np.linspace(-S, S, N)
    inside = ~outside
    if np.max(size[inside], initial=0.0) <= _SUPPORT_TOL:
        g = np.zeros(N, dtype=complex)
        return S1Factorization(sigma1, sigma2, s_grid, g, 0.0, (-1.0, 1.0), t_points)

    kept = inside & (size > 1e-15)
    t_vals = np.log(np.abs(_PROBE_COS[kept])) - np.log(np.abs(_PROBE_SIN[kept]))
    t_lo, t_hi = float(np.min(t_vals)) - 2.0, float(np.max(t_vals)) + 2.0
    _check_aliasing(S, N, t_points, t_hi - t_lo)
    t = np.linspace(t_lo, t_hi, t_points)
    h = np.asarray(m.profile(np.mod(np.arctan2(sigma2, sigma1 * np.exp(t)), TWO_PI)),
                   dtype=complex)
    edge = max(abs(h[0]), abs(h[-1]))
    if edge > 1e-12 * (1.0 + np.max(np.abs(h))):
        raise SupportViolation("profile does not decay within the detected t-window")

    w = np.full(t_points, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    g = _uniform_transform(s_grid, t, h * w) / TWO_PI
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a BadGrid below
        weight = (1.0 + 2.0 * np.abs(s_grid)) ** 2
        C_m = float(np.trapezoid(np.abs(g) * weight, s_grid))
    _check_constant(C_m, S)
    return S1Factorization(sigma1, sigma2, s_grid, g, C_m, (t_lo, t_hi), t_points)


def _check_aliasing(S: float, N: int, t_points: int, width: float):
    """BadGrid unless the grids resolve each other: S below pi/dt, where the t-samples
    of spacing dt = width/(t_points - 1) alias g, and the t-window of that width
    shorter than 2 pi/ds, the period of the reconstruction sum over s (ds = 2S/(N - 1))."""
    nyquist, period = math.pi * (t_points - 1) / width, TWO_PI * (N - 1) / (2.0 * S)
    if not (S < nyquist and width < period):
        raise BadGrid(f"the grids alias at S = {S:g}: need S < pi/dt = {nyquist:.6g} "
                      f"(t_points = {t_points}) and the t-window {width:.6g} < 2 pi/ds = "
                      f"{period:.6g} (N = {N})")


def a_base_profile(P: SectorPartition, which: int, sigma: int) -> HomogeneousSymbol:
    """Circle profile of the Toeplitz base of a_which (which in 3..6) restricted
    to the quadrant (-sigma R_+, sigma R_+): decomp.a_value at the triple
    (-cos th, 0, sin th), whose gaps (l1 - l0, l2 - l1) are (cos th, sin th),
    evaluated at the angles inside the quadrant only, and 0 elsewhere."""
    if not (isinstance(which, (int, np.integer)) and which in (3, 4, 5, 6)):
        raise BadParameter(f"which must be one of 3, 4, 5, 6, got {which!r}")
    if sigma not in (1, -1):
        raise BadParameter(f"sigma must be 1 or -1, got {sigma!r}")

    def profile(th):
        th = np.asarray(th, dtype=float)
        c, s = np.cos(th), np.sin(th)
        inside = (-sigma * c > 0) & (sigma * s > 0)
        out = np.zeros(th.shape)
        out[inside] = a_value(which, -c[inside], 0.0, s[inside], P)
        return out

    return HomogeneousSymbol(profile, "none")


def corollary52_constants(P: SectorPartition, which: int, S: float = 40.0,
                          N: int = 4096, t_points: int = 8192) -> float:
    """C(a_which) over the quadrants (-1, 1) and (1, -1), computed as twice the
    first.  a_which is odd off the zero gaps: theta_j is even (the partition
    symmetrizes phi and phi + pi), psi_j is homogeneous of degree 0 and each
    e_k = sign1(gap) changes sign.  So the (1, -1) profile at th + pi is minus
    the (-1, 1) profile at th, h(t) and g(s) change sign, and
    C = int |g(s)| (1+2|s|)^2 ds is the same on both."""
    C = 2.0 * s1_factorize(a_base_profile(P, which, 1), (-1, 1), S=S, N=N,
                           t_points=t_points).C_m
    return _check_constant(C, S)


def _check_constant(C: float, S: float) -> float:
    """C, or BadGrid when the weight (1+2|s|)^2 out to S made it overflow."""
    if not math.isfinite(C):
        raise BadGrid(f"the constant overflows on the grid up to S = {S:g}")
    return C
