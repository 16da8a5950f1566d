import math
import warnings

import numpy as np
import pytest

from schurlab.constants import (C_BMO, C_constant, C_double_prime,
                                Cprime_constant, D_constant, ExponentTriple,
                                asymptotics_table, beta, conj, kappa,
                                log_gamma, loglog_slope)
from schurlab.errors import BadBudget, BadExponent, BadParameter


def test_beta_and_conj():
    assert beta(2.0) == pytest.approx(4.0)
    assert beta(4.0) == pytest.approx(16.0 / 3.0)
    for q in (1.2, 1.9, 2.0, 3.7, 31.0):
        assert conj(conj(q)) == pytest.approx(q, rel=1e-12)
        assert beta(q) == pytest.approx(beta(conj(q)), rel=1e-12)
    with pytest.raises(BadExponent):
        beta(1.0)


def test_beta_monotone_right_of_two():
    qs = np.linspace(2.0, 64.0, 200)
    vals = [beta(q) for q in qs]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_exponent_triple_validation():
    ExponentTriple(2.0, 4.0, 4.0)
    with pytest.raises(BadExponent):
        ExponentTriple(2.0, 3.0, 4.0)
    with pytest.raises(BadExponent):
        ExponentTriple(1.0, 2.0, 2.0)


@pytest.mark.parametrize("call", [
    lambda: C_BMO(math.nan), lambda: C_BMO(math.inf), lambda: kappa(math.nan, 2.0),
    lambda: kappa(2.0, math.nan), lambda: kappa(2.0, math.inf), lambda: kappa(math.inf, 2.0),
    lambda: conj(math.nan), lambda: beta(math.nan), lambda: ExponentTriple(2.0, math.nan, 4.0)])
def test_nan_and_infinite_exponents_raise(call):
    # C_BMO and kappa returned NaN (kappa(2, inf) 2e, kappa(inf, 2) inf)
    with pytest.raises(BadExponent):
        call()


def test_C_value():
    t = ExponentTriple(2.0, 4.0, 4.0)
    expected = 1024.0 / 9.0 + 256.0 / 3.0 + 256.0 / 3.0 + 4096.0 / 27.0
    assert C_constant(t) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(436.148148, abs=1e-5)


def test_C_symmetric_in_p1_p2():
    a = C_constant(ExponentTriple(2.0, 3.0, 6.0))
    b = C_constant(ExponentTriple(2.0, 6.0, 3.0))
    assert a == pytest.approx(b, rel=1e-14)


def test_C_blows_up_toward_one():
    vals = [C_constant(ExponentTriple(p, 2 * p, 2 * p)) for p in (1.1, 1.01, 1.001)]
    assert vals[0] < vals[1] < vals[2]


def test_D_value():
    t = ExponentTriple(2.0, 4.0, 4.0)
    c = C_constant(t)
    expected = c * (32.0 / 3.0) + (256.0 / 9.0) * (4.0 + 32.0 / 3.0)
    assert D_constant(t) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(5069.4321, abs=1e-3)
    assert D_constant(t) >= c * (32.0 / 3.0)


def test_C_BMO_values():
    assert C_BMO(1.0) == pytest.approx(2.0 * math.e ** 2, rel=1e-12)
    # O(p) growth: C_BMO(p)/p settles
    ratios = [C_BMO(p) / p for p in (50.0, 100.0, 200.0)]
    assert max(ratios) / min(ratios) < 1.2


def test_Cprime_dominates_C():
    for (p, p1, p2) in ((2.0, 4.0, 4.0), (1.5, 3.0, 3.0), (2.0, 3.0, 6.0)):
        t = ExponentTriple(p, p1, p2)
        assert Cprime_constant(t) >= C_constant(t)
        assert C_double_prime(p, p1) > 0


def test_kappa():
    assert kappa(2.0, 2.0) == pytest.approx(2.0 ** 1.5 * math.e * 3.0, rel=1e-13)
    qs = np.linspace(1.0, 64.0, 2000)
    assert max(kappa(2.0, q) for q in qs) <= 60.0


def test_log_gamma_accuracy():
    for n in range(1, 20):
        assert math.exp(log_gamma(n)) == pytest.approx(math.factorial(n - 1),
                                                       rel=1e-12)
    xs = np.linspace(1.0, 200.0, 500)
    worst = max(abs(log_gamma(x) - math.lgamma(x)) / max(1.0, abs(math.lgamma(x)))
                for x in xs)
    assert worst <= 1e-12


def test_log_gamma_domain():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            log_gamma(x)


def test_asymptotics_table():
    tab = asymptotics_table(1.01, 64.0)
    assert np.all(np.isfinite(tab.d_values))
    assert np.all(tab.ratio > 0)
    # D(p,2p,2p)*(p-1) stays bounded toward p = 1 (order p*)
    small = asymptotics_table(1.001, 1.1, 64)
    scaled = small.d_values * (small.ps - 1.0)
    assert scaled.max() / scaled.min() < 3.0
    # top-decade slope approaches the quartic rate
    top = asymptotics_table(16.0, 64.0, 32)
    slope = loglog_slope(top.ps, top.d_values)
    assert slope == pytest.approx(4.0, abs=0.1)


def test_table_row_count_is_checked_before_allocating():
    # 10^9 points per decade over [1.01, 64] used to allocate 13.4 GiB; 10^400
    # is past the float range, which the check must not convert it to
    for points in (10 ** 9, 10 ** 400):
        with pytest.raises(BadBudget, match="budget of 100000 rows"):
            asymptotics_table(points_per_decade=points)
    assert len(asymptotics_table(1.01, 64.0, 55_000).ps) == 99_102


def test_table_names_where_d_overflows():
    # --pmax 1e300 printed "slope nan" with RuntimeWarnings and exit status 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParameter, match=r"overflows from p = 4\.32713e\+76"):
            asymptotics_table(1.01, 1e300)
        tab = asymptotics_table(1.01, 4e76)
    assert np.all(np.isfinite(tab.d_values)) and math.isfinite(tab.slope_top_decade)
