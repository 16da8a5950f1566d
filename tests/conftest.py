"""Shared oracles for the test suite.

Two independent reference implementations of the divided-difference recursion:
an exact-rational one (Fraction arithmetic, for polynomial kernels and s|s| at
rational nodes) and an extended-precision one (mpmath at >= 40 digits, for the
transcendental functions).  Both follow the bare textbook recursion with exact
equality tests and are kept independent of the production path.  ``mp_phi``
runs the mpmath recursion on the geometric B1/B2 nodes, whose magnitudes span
thousands of decades, with enough digits to cover the span.

The dense exponential sums are the references for the quadrant factorization
transform, which production computes by Bluestein's chirp-z algorithm, and for
the phase sums of the reconstruction and the kernel, which production splits
into coarse and fine tables.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

MP_FUNCS = {
    "square": lambda s: s * s,
    "cube": lambda s: s ** 3,
    "sin": mp.sin,
    "cos": mp.cos,
    "exp": mp.exp,
    "abs2": lambda s: s * abs(s),
}
MP_DERIVS = {
    "square": lambda s: 2 * s,
    "cube": lambda s: 3 * s ** 2,
    "sin": mp.cos,
    "cos": lambda s: -mp.sin(s),
    "exp": mp.exp,
    "abs2": lambda s: 2 * abs(s),
}


def mp_divdiff(fname, nodes, dps=40, as_float=True):
    """Bare recursion at dps digits.  A coincident pair takes the first
    derivative, so no node may occur three times.  as_float=False returns the
    mpf value."""
    f, fprime = MP_FUNCS[fname], MP_DERIVS[fname]
    with mp.workdps(dps):
        xs = [mp.mpf(str(v)) for v in nodes]

        def rec(zs):
            if len(zs) == 1:
                return f(zs[0])
            if len(zs) == 2 and zs[0] == zs[1]:
                return fprime(zs[0])
            # split on the widest gap
            best = None
            for a in range(len(zs)):
                for b in range(len(zs)):
                    if zs[a] != zs[b]:
                        if best is None or abs(zs[a] - zs[b]) > abs(zs[best[0]] - zs[best[1]]):
                            best = (a, b)
            if best is None:
                raise ValueError("confluent tuple needs derivative data")
            a, b = best
            za = [z for i, z in enumerate(zs) if i != a]
            zb = [z for i, z in enumerate(zs) if i != b]
            return (rec(za) - rec(zb)) / (zs[b] - zs[a])

        value = rec(xs)
        return float(value) if as_float else value


def mp_phi(q, k, variant, i, j, l, dps=60, as_float=True):
    """The geometric B1/B2 symbol by the bare three-point recursion for s|s|
    at the nodes (q^{ki}, -q^{kj}, q^{kl}) (B1) or (q^{ki}, q^{k(i+l)},
    -q^{kl}) (B2), to dps significant digits.  The working precision also
    spans the ratio of the largest to the smallest node, which the
    recursion's differences cancel."""
    powers = (i, j, l) if variant == "B1" else (i, i + l, l)
    span = k * (max(powers) - min(powers)) * math.log10(1.0 / q)
    with mp.workdps(dps + int(span) + 1):
        x = [mp.mpf(q) ** (k * m) for m in powers]
        # x0 != x2 in this order; B1 has x0 == x1 when i == l
        x0, x1, x2 = (x[0], x[2], -x[1]) if variant == "B1" else (x[0], x[1], -x[2])
        f = MP_FUNCS["abs2"]
        d01 = (f(x0) - f(x1)) / (x0 - x1) if x0 != x1 else 2 * abs(x0)
        d12 = (f(x1) - f(x2)) / (x1 - x2)
        value = (d01 - d12) / (x0 - x2)
        return float(value) if as_float else value


def rational_divdiff(f, nodes, fprime=None):
    """Exact recursion over Fraction nodes; f maps Fraction -> Fraction.
    A first derivative handles order-1 confluent pairs when supplied."""
    xs = [Fraction(v) for v in nodes]

    def rec(zs):
        if len(zs) == 1:
            return f(zs[0])
        if len(zs) == 2 and zs[0] == zs[1] and fprime is not None:
            return fprime(zs[0])
        for a in range(len(zs)):
            for b in range(len(zs)):
                if zs[a] != zs[b]:
                    za = [z for i, z in enumerate(zs) if i != a]
                    zb = [z for i, z in enumerate(zs) if i != b]
                    return (rec(za) - rec(zb)) / (zs[b] - zs[a])
        raise ValueError("confluent tuple")

    return rec(xs)


def abs2_prime_rational(s: Fraction) -> Fraction:
    return 2 * abs(s)


def abs2_rational(s: Fraction) -> Fraction:
    return s * abs(s)


def dense_uniform_transform(s, t, x, chunk=256):
    """sum_k x_k e^{-i s_j t_k}, one block of rows of the N x T exponential
    matrix at a time."""
    g = np.empty(len(s), dtype=complex)
    for start in range(0, len(s), chunk):
        g[start:start + chunk] = np.exp(-1j * np.outer(s[start:start + chunk], t)) @ x
    return g


def dense_phase_sum(x, s0, ds, c):
    """sum_k c[..., k] e^{i x (s0 + k ds)} from the full (points x N) exponential
    table, shaped c.shape[:-1] + x.shape."""
    s = s0 + ds * np.arange(c.shape[-1])
    phase = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), s))
    return np.tensordot(c, phase, axes=([-1], [-1]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def cumulative_singular_integral(s, t):
    """integral_0^t mu of the step function with values s (piecewise linear)."""
    full = int(math.floor(t))
    out = float(np.sum(s[:min(full, len(s))]))
    if full < len(s):
        out += float(s[full]) * (t - full)
    return out


def random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
