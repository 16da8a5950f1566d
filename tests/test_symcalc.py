import json
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from schurlab import decomp, symcalc
from schurlab.decomp import SectorPartition, a_value, a_values
from schurlab.errors import (BadBudget, BadGrid, BadParameter, NonFiniteNode,
                             OriginQuery, SupportViolation)
from schurlab.symcalc import (TWO_PI, HomogeneousSymbol, _phase_sum, _uniform_transform,
                              a_base_profile, bump_symbol,
                              circle_fourier_coeffs, coeff_tail_bound,
                              corollary52_constants, harmonic_symbol,
                              kernel_eval, kernel_gradient, s1_factorize,
                              sine_symbol, size_smoothness_check)

from conftest import dense_phase_sum, dense_uniform_transform


def test_parity_validation():
    with pytest.raises(BadParameter, match="does not have parity"):
        HomogeneousSymbol(lambda th: np.cos(th), "even")
    with pytest.raises(BadParameter, match="parity must be"):
        HomogeneousSymbol(lambda th: np.cos(th), "twisted")
    HomogeneousSymbol(lambda th: np.cos(th), "odd")  # fine
    HomogeneousSymbol(lambda th: np.cos(2 * np.asarray(th)), "even")


def test_quadrant_and_which_are_bad_parameter():
    # these were bare ValueErrors
    with pytest.raises(BadParameter, match="quadrant signs"):
        s1_factorize(bump_symbol(), (1, 0), N=256, t_points=512)
    for which in (2, 7, 3.0):
        with pytest.raises(BadParameter, match="which must be one of 3, 4, 5, 6"):
            a_base_profile(SectorPartition(), which, 1)
    # 3.0 passed the membership test and then raised a TypeError
    with pytest.raises(BadParameter, match="which must be one of 3, 4, 5, 6"):
        corollary52_constants(SectorPartition(), 3.0, S=20, N=256, t_points=512)
    # sigma 0 gave an all-zero profile (C = 0.0), and 2 or 0.5 acted as 1
    for sigma in (0, 2, 0.5, -1.5):
        with pytest.raises(BadParameter, match="sigma must be 1 or -1"):
            a_base_profile(SectorPartition(), 3, sigma)


def test_coeffs_single_harmonic():
    c = circle_fourier_coeffs(harmonic_symbol(1, real=True), 8)
    assert c.alpha(1) == pytest.approx(0.5, abs=1e-12)
    assert c.alpha(-1) == pytest.approx(0.5, abs=1e-12)
    others = [abs(c.alpha(k)) for k in range(-8, 9) if abs(k) != 1]
    assert max(others) <= 1e-12


def test_coeffs_sine3():
    c = circle_fourier_coeffs(sine_symbol(3), 8)
    assert c.alpha(3) == pytest.approx(-0.5j, abs=1e-12)
    assert c.alpha(-3) == pytest.approx(0.5j, abs=1e-12)
    assert abs(c.alpha(0)) <= 1e-12


def test_odd_symbol_zero_mean(rng):
    # random odd profile: sum of odd harmonics
    ks = [1, 3, 5]
    ws = rng.standard_normal(3)
    prof = lambda th: sum(w * np.sin(k * np.asarray(th)) for w, k in zip(ws, ks))
    c = circle_fourier_coeffs(HomogeneousSymbol(prof, "odd"), 16)
    assert abs(c.alpha(0)) <= 1e-12


def test_kernel_single_harmonic_closed_form(rng):
    m = harmonic_symbol(1)
    z = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    ref = z / (2j * math.pi * np.abs(z) ** 3)
    np.testing.assert_allclose(kernel_eval(m, z, K=64), ref, atol=1e-13)


def test_kernel_homogeneity_and_oddness(rng):
    m = sine_symbol(3)
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    k1 = kernel_eval(m, z, K=64)
    np.testing.assert_allclose(kernel_eval(m, 2 * z, K=64), k1 / 4.0, atol=1e-13)
    np.testing.assert_allclose(kernel_eval(m, -z, K=64), -k1, atol=1e-13)
    with pytest.raises(OriginQuery):
        kernel_eval(m, 0.0, K=8)


def test_kernel_gradient_matches_finite_differences(rng):
    m = sine_symbol(3)
    h = 1e-6
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    z = z[np.abs(z) > 0.3]
    gx, gy = kernel_gradient(m, z, K=64)
    fdx = (kernel_eval(m, z + h, K=64) - kernel_eval(m, z - h, K=64)) / (2 * h)
    fdy = (kernel_eval(m, z + 1j * h, K=64) - kernel_eval(m, z - 1j * h, K=64)) / (2 * h)
    np.testing.assert_allclose(gx, fdx, atol=1e-6)
    np.testing.assert_allclose(gy, fdy, atol=1e-6)


def test_size_smoothness_harmonic():
    rep = size_smoothness_check(harmonic_symbol(1))
    assert rep.c1_hat == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-8)
    assert abs(rep.c1_per_annulus[0] - rep.c1_per_annulus[1]) <= 1e-8
    assert abs(rep.c2_per_annulus[0] - rep.c2_per_annulus[1]) <= 1e-6
    assert rep.c2_hat == pytest.approx(math.sqrt(5.0) / (2.0 * math.pi), abs=1e-8)


def test_size_smoothness_equals_kernel_functions_bitwise():
    # the kernel sums on the (radii x angles) grid give at each radius what
    # kernel_eval and kernel_gradient give
    m, th = harmonic_symbol(3, real=True), TWO_PI * np.arange(333) / 333
    rep = size_smoothness_check(m, radii=(1.0, 7.3), K=64, n_angles=333)
    for r, c1, c2 in zip((1.0, 7.3), rep.c1_per_annulus, rep.c2_per_annulus):
        z = r * np.exp(1j * th)
        gx, gy = kernel_gradient(m, z, K=64)
        assert c1 == float(np.max(np.abs(kernel_eval(m, z, K=64))) * r ** 2)
        assert c2 == float(np.max(np.hypot(np.abs(gx), np.abs(gy))) * r ** 3)


def test_size_smoothness_annuli_equal_one_radius_calls():
    # all annuli go through one kernel sum on the (radii x angles) grid
    radii = (0.25, 1.0, 3.7, 10.0, 1e3)
    for m in (harmonic_symbol(1), sine_symbol(3), bump_symbol()):
        rep = size_smoothness_check(m, radii=radii)
        ones = [size_smoothness_check(m, radii=(r,)) for r in radii]
        assert rep.c1_per_annulus == tuple(o.c1_hat for o in ones)
        assert rep.c2_per_annulus == tuple(o.c2_hat for o in ones)
        assert (rep.c1_hat, rep.c2_hat) == (max(rep.c1_per_annulus), max(rep.c2_per_annulus))


def test_size_smoothness_zero():
    z = HomogeneousSymbol(lambda th: np.zeros_like(np.asarray(th, dtype=float)))
    rep = size_smoothness_check(z)
    assert rep.c1_hat == 0.0 and rep.c2_hat == 0.0


def test_coefficient_tail_decay():
    # kernel-side (odd, band-limited) symbols: tail at the default truncation
    # is at machine level
    for sym in (harmonic_symbol(1), sine_symbol(3), harmonic_symbol(1, real=True)):
        assert coeff_tail_bound(sym, 256) <= 1e-10
    # smooth non-band-limited profile: tail is recorded and decays under K
    t64 = coeff_tail_bound(bump_symbol(), 64)
    t256 = coeff_tail_bound(bump_symbol(), 256)
    assert t256 < t64 / 10.0


def test_factorize_reconstruction(rng):
    b = bump_symbol()
    fac = s1_factorize(b, (1, 1), S=160.0, N=8192, t_points=8192)
    th = rng.uniform(math.pi / 8, 3 * math.pi / 8, 1000)
    r = rng.uniform(0.5, 2.0, 1000)
    xi1, xi2 = r * np.cos(th), r * np.sin(th)
    err = np.max(np.abs(fac.reconstruct(xi1, xi2) - b(xi1, xi2)))
    assert err <= 1e-6
    assert np.isfinite(fac.C_m) and fac.C_m > 0


def test_factorize_zero_and_scaling():
    z = HomogeneousSymbol(lambda th: np.zeros_like(np.asarray(th, dtype=float)))
    fz = s1_factorize(z, (1, 1))
    assert fz.C_m == 0.0
    b = bump_symbol()
    b2 = HomogeneousSymbol(lambda th: 2.0 * b.profile(th))
    f1 = s1_factorize(b, (1, 1), S=40, N=2048, t_points=4096)
    f2 = s1_factorize(b2, (1, 1), S=40, N=2048, t_points=4096)
    assert f2.C_m == pytest.approx(2.0 * f1.C_m, rel=1e-12)


def test_factorize_reflection_invariance():
    b = bump_symbol()
    refl = HomogeneousSymbol(lambda th: b.profile(np.asarray(th) + math.pi))
    f1 = s1_factorize(b, (1, 1), S=40, N=2048, t_points=4096)
    f2 = s1_factorize(refl, (-1, -1), S=40, N=2048, t_points=4096)
    assert f2.C_m == pytest.approx(f1.C_m, rel=1e-10)


def test_factorize_tail_convergence():
    # enlarging the s-window only moves C by the (recorded, shrinking) tail
    b = bump_symbol()
    c1 = s1_factorize(b, (1, 1), S=160, N=4096, t_points=8192).C_m
    c2 = s1_factorize(b, (1, 1), S=320, N=8192, t_points=8192).C_m
    c3 = s1_factorize(b, (1, 1), S=640, N=16384, t_points=8192).C_m
    assert abs(c3 - c2) < abs(c2 - c1)
    assert abs(c3 - c2) <= 1e-6 * c3


def test_factorize_support_violation():
    with pytest.raises(SupportViolation):
        s1_factorize(bump_symbol(), (-1, 1))
    with pytest.raises(SupportViolation):
        s1_factorize(harmonic_symbol(2), (1, 1))


@pytest.mark.parametrize("grid", [dict(S=0.0), dict(S=-5.0), dict(S=math.nan),
                                  dict(S=math.inf), dict(N=1), dict(N=0),
                                  dict(t_points=1), dict(t_points=0),
                                  dict(S=1e150), dict(S=1e300), dict(S=1e4), dict(S=1e5)])
def test_factorize_rejects_bad_grid(grid):
    # S <= 0 or N = 1 used to report C = 0.0 or a negative C, S = nan a NaN,
    # N = 0 and t_points = 1 a bare IndexError, S = 1e150 and 1e300 C = inf;
    # S = 1e4 and 1e5 alias (C 746873212 and 4.06e11, reconstruction errors 1.99, 25.1)
    with pytest.raises(BadGrid):
        s1_factorize(bump_symbol(), (1, 1), **grid)


def _t_samples(m, fac):
    """The weighted t-samples h_k w_k that s1_factorize transformed."""
    t = np.linspace(*fac.t_window, fac.t_points)
    h = np.asarray(m.profile(np.mod(np.arctan2(fac.sigma2, fac.sigma1 * np.exp(t)),
                                    TWO_PI)), dtype=complex)
    w = np.full(len(t), t[1] - t[0])
    w[[0, -1]] *= 0.5
    return t, h * w


@pytest.mark.parametrize("N, T", [(64, 256), (300, 50), (101, 77), (2, 2)])
def test_uniform_transform_matches_dense_sum(N, T, rng):
    s = np.linspace(-3.7, 11.2, N)
    t = np.linspace(-2.1, 4.3, T)
    x = rng.standard_normal(T) + 1j * rng.standard_normal(T)
    g = _uniform_transform(s, t, x)
    ref = dense_uniform_transform(s, t, x)
    assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert not np.any(_uniform_transform(s, t, np.zeros(T)))


def test_factorize_matches_dense_oracle():
    P = SectorPartition()
    cases = [(bump_symbol(), (1, 1)),
             (HomogeneousSymbol(lambda th: bump_symbol().profile(np.asarray(th) + math.pi)),
              (-1, -1)),
             (a_base_profile(P, 3, 1), (-1, 1)),
             (a_base_profile(P, 3, -1), (1, -1))]
    for m, quadrant in cases:
        for N, T in ((1024, 2048), (2048, 1024)):
            fac = s1_factorize(m, quadrant, S=40, N=N, t_points=T)
            t, x = _t_samples(m, fac)
            g = dense_uniform_transform(fac.s_grid, t, x) / TWO_PI
            assert np.max(np.abs(fac.g_values - g)) <= 1e-12 * np.max(np.abs(g))
            weight = (1.0 + 2.0 * np.abs(fac.s_grid)) ** 2
            C_m = np.trapezoid(np.abs(g) * weight, fac.s_grid)
            assert fac.C_m == pytest.approx(C_m, rel=1e-8)


def test_factorize_error_floor_at_grid_edges():
    # against the exact sum of the same double inputs: at s = +-S the density
    # |g| ~ 4e-17 is below the floor
    b = bump_symbol()
    N, T = 16384, 8192
    fac = s1_factorize(b, (1, 1), S=640, N=N, t_points=T)
    t, x = _t_samples(b, fac)
    floor = 3 * np.finfo(float).eps * math.log2(N + T) * np.max(np.abs(fac.g_values))
    nz = np.nonzero(x)[0]
    # s = -S, an interior point, the grid point next to s = 0, s = +S
    for j in (0, N // 4, N // 2, N - 1):
        with mp.workdps(30):
            s = mp.mpf(float(fac.s_grid[j]))
            ref = mp.fsum(mp.mpc(x[k].real, x[k].imag) * mp.expj(-s * mp.mpf(t[k]))
                          for k in nz) / (2 * mp.pi)
        assert abs(fac.g_values[j] - complex(ref)) <= floor, j


def test_corollary52_constants_finite_and_repeatable():
    P = SectorPartition()
    vals = {}
    for j in (3, 6):
        c1 = corollary52_constants(P, j, S=20, N=1024, t_points=4096)
        c2 = corollary52_constants(P, j, S=20, N=1024, t_points=4096)
        assert np.isfinite(c1) and c1 > 0
        assert c1 == c2
        vals[j] = c1
    # reflected pieces contribute equally, so the two quadrant halves agree
    for j in (3,):
        sym_p = a_base_profile(P, j, 1)
        sym_m = a_base_profile(P, j, -1)
        f_p = s1_factorize(sym_p, (-1, 1), S=20, N=1024, t_points=4096)
        f_m = s1_factorize(sym_m, (1, -1), S=20, N=1024, t_points=4096)
        assert f_p.C_m == pytest.approx(f_m.C_m, rel=1e-10)


# the sizes and partition of the benchmark's factorize workload
COR52 = {"S": 40.0, "N": 1024, "t_points": 2048}
GOLDEN_C = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
                      .read_text())["corollary52"]


@pytest.mark.parametrize("band", [None, 0.3])
def test_a_base_profiles_are_odd_reflections(band):
    # the (1, -1) profile at th + pi is minus the (-1, 1) profile at th:
    # theta_j is even, psi_j has degree 0 and each sign e_k flips.  th + pi is
    # rounded by up to half an ulp of 20 + pi, which moves the profile by that
    # times its slope (about 34 at the default band, 213 at band 0.3)
    P = SectorPartition(band=band)
    th = np.linspace(-20.0, 20.0, 200_001)
    for which in (3, 4, 5, 6):
        a = a_base_profile(P, which, 1).profile(th)
        b = a_base_profile(P, which, -1).profile(th + math.pi)
        slope = np.max(np.abs(np.diff(a))) / (th[1] - th[0])
        assert np.max(np.abs(a)) > 0.5
        tol = 1e-13 * np.max(np.abs(a)) + slope * np.spacing(20.0 + math.pi)
        assert np.max(np.abs(a + b)) <= tol


@pytest.mark.parametrize("which", [3, 4, 5, 6])
def test_opposite_quadrants_have_equal_constants(which):
    P = SectorPartition(epsilon=math.pi / 32)
    c_left = s1_factorize(a_base_profile(P, which, 1), (-1, 1), **COR52).C_m
    c_right = s1_factorize(a_base_profile(P, which, -1), (1, -1), **COR52).C_m
    assert c_right == pytest.approx(c_left, rel=1e-12)
    assert corollary52_constants(P, which, **COR52) == 2.0 * c_left


def test_corollary52_constants_make_one_factorization(monkeypatch):
    calls = []

    def counting(m, quadrant, **kw):
        calls.append(quadrant)
        return s1_factorize(m, quadrant, **kw)

    monkeypatch.setattr(symcalc, "s1_factorize", counting)
    symcalc.corollary52_constants(SectorPartition(), 4, S=20, N=256, t_points=512)
    assert calls == [(-1, 1)]


@pytest.mark.parametrize("which", [3, 4, 5, 6])
def test_corollary52_constants_match_benchmark_golden(which):
    c = corollary52_constants(SectorPartition(epsilon=math.pi / 32), which, **COR52)
    assert c == pytest.approx(GOLDEN_C[str(which)], rel=1e-12)


def _a_closed_form(P, which, sigma, th):
    """The a_3..a_6 profiles as closed forms in c = cos th, s = sin th and
    u = c + s: a signed ratio (sign(0) = +1, 0 where the denominator is 0)
    times theta_2 or theta_3, on the quadrant (-sigma R_+, sigma R_+) only."""
    c, s = np.cos(th), np.sin(th)
    u = c + s
    num, den, sgn = {3: (u, s, u), 4: (-c, s, c), 5: (-s, c, s), 6: (u, c, u)}[which]
    ratio = np.where(sgn >= 0, 1.0, -1.0) * np.divide(num, den, out=np.zeros(th.shape),
                                                       where=den != 0)
    sector = 2 if which in (3, 4) else 3
    inside = (-sigma * c > 0) & (sigma * s > 0)
    return np.where(inside, P.theta_of_angle(sector, th) * ratio, 0.0)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("which", [3, 4, 5, 6])
def test_a_base_profile_matches_closed_form(which, sigma):
    # the profile goes through decomp.a_value; the closed forms are its oracle
    P = SectorPartition()
    th = TWO_PI * np.arange(4096) / 4096
    vals = a_base_profile(P, which, sigma).profile(th)
    assert np.max(np.abs(vals - _a_closed_form(P, which, sigma, th))) <= 1e-13
    outside = ~((-sigma * np.cos(th) > 0) & (sigma * np.sin(th) > 0))
    assert np.all(vals[outside] == 0.0)
    for t in th[[0, 1300, 1500, 3500, 3700]]:  # a 0-d angle gives a 0-d value
        one = a_base_profile(P, which, sigma).profile(np.float64(t))
        assert np.shape(one) == ()
        assert abs(one - _a_closed_form(P, which, sigma, np.asarray(t))) <= 1e-13


def test_a_base_profiles_live_in_their_quadrant():
    P = SectorPartition()
    th = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    for j in (3, 4, 5, 6):
        prof = a_base_profile(P, j, 1)
        vals = np.asarray(prof.profile(th))
        outside = ~((np.cos(th) < 0) & (np.sin(th) > 0))
        assert np.max(np.abs(vals[outside])) == 0.0


@pytest.mark.parametrize("x_max, s0, ds, shape", [
    *[pytest.param(1.0, -40.0, 80.0 / (N - 1), (N,), id=str(N)) for N in (2, 3, 7, 4096, 4097)],
    # the kernel sums at K = 256: x = arg z, k = -256..256, sums and k-weighted sums
    pytest.param(math.pi, -256.0, 1.0, (2, 513), id="kernel-K256"),
    # the reconstruction grid of the bump at S = 160, N = 4096
    pytest.param(1.0, -160.0, 320.0 / 4095, (4096,), id="reconstruct-S160-N4096"),
])
def test_phase_sum_matches_dense_sum(x_max, s0, ds, shape, rng):
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = np.append(rng.uniform(-x_max, x_max, 200), x_max)
    err = np.abs(_phase_sum(x, s0, ds, c) - dense_phase_sum(x, s0, ds, c))
    assert np.max(err) <= 1e-13 * np.sum(np.abs(c))


@pytest.mark.parametrize("N, per_point", [(4096, 32), (513, 20)])
def test_phase_sum_needs_about_4_n_quarter_exponentials_per_point(N, per_point, monkeypatch,
                                                                 rng):
    # the (64 x 64) tables of N = 4096 from four tables of 8 entries per point, not
    # 2 sqrt(N) = 128 entries; the kernel sums at K = 256 (N = 513) need 20, not 46
    entries = []
    expi = symcalc._expi

    def counted(y):
        entries.append(np.size(y))
        return expi(y)

    monkeypatch.setattr(symcalc, "_expi", counted)
    x = rng.uniform(-1.0, 1.0, 100)
    _phase_sum(x, -40.0, 80.0 / (N - 1), np.ones((2, N), dtype=complex))
    assert sum(entries) <= per_point * x.size


@pytest.mark.parametrize("shape", [(), (0,), (5,), (3, 4)])
def test_phase_sum_keeps_the_point_shape(shape, rng):
    x = np.asarray(rng.uniform(-2.0, 2.0, shape))
    c = rng.standard_normal((2, 33)) + 1j * rng.standard_normal((2, 33))
    got = _phase_sum(x, -16.0, 1.0, c)
    assert got.shape == (2,) + shape
    np.testing.assert_allclose(got, dense_phase_sum(x, -16.0, 1.0, c), rtol=0,
                               atol=1e-13 * np.sum(np.abs(c)))
    assert _phase_sum(x, -16.0, 1.0, c[1]).shape == shape


def test_phase_sum_against_extended_precision():
    # the sum reconstruct forms, against 40 digits on the ideal grid -S + 2S k/(N-1)
    S, N = 160.0, 4096
    fac = s1_factorize(bump_symbol(), (1, 1), S=S, N=N)
    w = np.full(N, fac.s_grid[1] - fac.s_grid[0])
    w[[0, -1]] *= 0.5
    c = fac.g_values * w
    edge = math.log(1.0 / math.tan(math.pi / 8))  # t at either end of the bump sector
    ts = np.array([-edge, -0.37, 0.0, 0.52, edge])
    got = _phase_sum(ts, fac.s_grid[0], (fac.s_grid[-1] - fac.s_grid[0]) / (N - 1), c)
    cs = [mp.mpc(v.real, v.imag) for v in c]
    for t, v in zip(ts, got):
        with mp.workdps(40):
            ds = 2 * mp.mpf(S) / (N - 1)
            ref = mp.fsum(ck * mp.expj(mp.mpf(float(t)) * (k * ds - S))
                          for k, ck in enumerate(cs))
        assert abs(v - complex(ref)) <= 1e-13 * np.sum(np.abs(c)), t


def test_reconstruct_keeps_the_point_shape():
    fac = s1_factorize(bump_symbol(), (1, 1), N=512, t_points=1024)
    assert np.shape(fac.reconstruct(1.0, 1.0)) == ()
    assert fac.reconstruct([], []).shape == (0,)
    xi = np.full((2, 3), 0.7)
    assert fac.reconstruct(xi, xi).shape == (2, 3)
    assert abs(fac.reconstruct(1.0, 1.0) - 1.0) <= 1e-3  # the bump's top at pi/4


def test_reconstruct_memory_grows_with_sqrt_of_the_grid(rng):
    # the dense (points x N) table alone is 1000 * 4096 * 16 B = 64 MB
    fac = s1_factorize(bump_symbol(), (1, 1), N=4096)
    th = rng.uniform(math.pi / 8, 3 * math.pi / 8, 1000)
    tracemalloc.start()
    try:
        fac.reconstruct(np.cos(th), np.sin(th))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("xi", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                (1.0, math.inf), (0.0, 1.0), (-1.0, 1.0), (1.0, -0.0)])
def test_reconstruct_rejects_points_off_the_open_quadrant(xi):
    # NaN and infinite points used to reconstruct to nan+nanj
    fac = s1_factorize(bump_symbol(), (1, 1), N=256, t_points=512)
    with pytest.raises(SupportViolation):
        fac.reconstruct([0.5, xi[0]], [0.5, xi[1]])


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                               complex(math.inf, 1.0), complex(1.0, -math.inf)])
def test_kernel_rejects_non_finite_points(z):
    # NaN used to give NaN, an infinite point 0
    m = harmonic_symbol(1)
    for fn in (kernel_eval, kernel_gradient):
        with pytest.raises(NonFiniteNode):
            fn(m, np.array([1.0, z]), K=8)


@pytest.mark.parametrize("radii, n_angles", [((math.nan,), 720), ((1.0, math.inf), 720),
                                             ((0.0,), 720), ((-1.0,), 720), ((), 720),
                                             ((1.0,), 0), ((1.0,), -3), ((1e300, 1.0), 720),
                                             ((1e-300,), 720), ((1e110,), 720)])
def test_size_smoothness_rejects_bad_grid(radii, n_angles):
    # radii = (nan,) used to give c1_hat = nan; () and n_angles = 0 bare errors;
    # 1e300 and 1e-300 nan from r^2 and r^3 overflowing or vanishing, 1e110 c2_hat = nan
    with pytest.raises(BadGrid):
        size_smoothness_check(harmonic_symbol(1), radii=radii, K=8, n_angles=n_angles)


@pytest.mark.parametrize("K", [0, -2, 1.5])
def test_circle_coeffs_reject_bad_truncation(K):
    with pytest.raises(BadBudget):
        circle_fourier_coeffs(harmonic_symbol(1), K)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("which", [3, 4, 5, 6])
def test_a_base_profile_is_its_a_values_entry_bitwise(which, sigma):
    # on the support probe and on the t-grid of a factorization's window, the
    # profile evaluates a_which alone and must equal that entry of all six
    P = SectorPartition()
    prof = a_base_profile(P, which, sigma)
    fac = s1_factorize(prof, (-sigma, sigma), S=40.0, N=1024, t_points=2048)
    t = np.linspace(*fac.t_window, fac.t_points)
    for th in (symcalc._PROBE, np.mod(np.arctan2(sigma, -sigma * np.exp(t)), TWO_PI)):
        c, s = np.cos(th), np.sin(th)
        inside = (-sigma * c > 0) & (sigma * s > 0)
        six = a_values(-c[inside], 0.0, s[inside], P)
        one = a_value(which, -c[inside], 0.0, s[inside], P)
        assert one.tobytes() == six[which - 1].tobytes()
        want = np.zeros(th.shape)
        want[inside] = six[which - 1]
        assert np.asarray(prof.profile(th)).tobytes() == want.tobytes()


def test_a_base_profile_evaluates_one_psi_and_one_sign(monkeypatch):
    calls = {"a_values": 0, "_psi_value": 0, "sign1": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counted(decomp, name)
    # an a_values imported into symcalc again is counted too
    monkeypatch.setattr(symcalc, "a_values", decomp.a_values, raising=False)
    P = SectorPartition()
    for which in (3, 4, 5, 6):
        a_base_profile(P, which, 1).profile(symcalc._PROBE)
    assert calls == {"a_values": 0, "_psi_value": 4, "sign1": 4}


def test_support_probe_is_read_only():
    # every profile sees the one probe array; a profile that wrote into its
    # argument would change the support of every later factorization
    with pytest.raises(ValueError, match="read-only"):
        symcalc._PROBE[0] = 1.0


def test_factorize_aliasing_bounds_are_sharp():
    # with t_points samples over a t-window of width w the samples resolve s up
    # to pi (t_points - 1)/w; with N points over [-S, S] the reconstruction sum
    # has period 2 pi (N - 1)/(2S), which must exceed w
    b = bump_symbol()
    width = float(np.subtract(*s1_factorize(b, (1, 1), N=256, t_points=512).t_window[::-1]))
    nyquist = math.pi * 511 / width
    s1_factorize(b, (1, 1), S=nyquist * (1 - 1e-9), N=4096, t_points=512)
    with pytest.raises(BadGrid, match="alias"):
        s1_factorize(b, (1, 1), S=nyquist * (1 + 1e-9), N=4096, t_points=512)
    S = 100.0
    edge = 2.0 * S * width / TWO_PI  # the N - 1 at which the period equals the width
    s1_factorize(b, (1, 1), S=S, N=math.ceil(edge) + 1, t_points=4096)
    with pytest.raises(BadGrid, match="alias"):
        s1_factorize(b, (1, 1), S=S, N=math.floor(edge) + 1, t_points=4096)


@pytest.mark.parametrize("m, quadrant, grid", [
    (a_base_profile(SectorPartition(math.pi / 32), 3, 1), (-1, 1), COR52),
    (a_base_profile(SectorPartition(math.pi / 32), 5, 1), (-1, 1), COR52),
    (bump_symbol(), (1, 1), {"S": 160.0, "N": 4096, "t_points": 4096}),
    (bump_symbol(), (1, 1), {"S": 640.0, "N": 16384, "t_points": 8192}),
    (a_base_profile(SectorPartition(), 4, 1), (-1, 1), {}),
    (bump_symbol(), (1, 1), {}),
])
def test_factorize_keeps_the_grids_in_use(m, quadrant, grid):
    # the benchmark's COR52 and bump grids, the S = 640 edge-floor grid, the defaults
    assert math.isfinite(s1_factorize(m, quadrant, **grid).C_m)
