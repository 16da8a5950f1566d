import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.divdiff import (_cluster_sorted, divdiff_partial, divdiff_two_var,
                              divdiff_two_var_grid, divided_difference,
                              node_insertion_split)
from schurlab.errors import (CoincidentPivot, DegenerateTolerance,
                             NonFiniteNode, OrderUnsupported)
from schurlab.functions import FUNCTIONS, SMOOTH_TEST_SET, ScalarFunction, get_function

from conftest import (abs2_prime_rational, abs2_rational, mp_divdiff,
                      rational_divdiff)


def test_quadratic_second_difference_is_one():
    f = get_function("square")
    assert divided_difference(f, (0.3, -1.7, 42.0)) == pytest.approx(1.0, abs=1e-12)


def test_cubic_second_difference_is_node_sum():
    f = get_function("cube")
    assert divided_difference(f, (0, 1, 2)) == pytest.approx(3.0, abs=1e-12)


def test_abs2_mixed_sign_value():
    # exact rational oracle for the (1, -1, 1) tuple
    f = get_function("abs2")
    exact = rational_divdiff(abs2_rational, (Fraction(1), Fraction(-1), Fraction(1)),
                             fprime=abs2_prime_rational)
    assert exact == Fraction(1, 2)
    # closed form for the (+,-,+) sign pattern, second independent route
    l0, l1t, l2 = Fraction(1), Fraction(1), Fraction(1)
    closed = ((l0 + l2) * l1t + l0 * l2 - l1t ** 2) / ((l0 + l1t) * (l1t + l2))
    assert closed == Fraction(1, 2)
    assert divided_difference(f, (1, -1, 1)) == pytest.approx(0.5, abs=1e-14)


def test_abs2_positive_axis():
    f = get_function("abs2")
    assert divided_difference(f, (1, 2, 3)) == pytest.approx(1.0, abs=1e-14)


def test_abs2_full_diagonal_convention():
    f = get_function("abs2")
    assert divided_difference(f, (0.7, 0.7, 0.7)) == 0.0
    assert divided_difference(f, (0.7, 0.7 + 1e-12, 0.7 - 1e-12)) == 0.0


def test_confluent_smooth_diagonal():
    f = get_function("sin")
    val = divided_difference(f, (0.4, 0.4, 0.4))
    assert val == pytest.approx(-math.sin(0.4) / 2.0, abs=1e-14)


def test_derivative_chain_matches_finite_differences(rng):
    h = 1e-6
    for name, f in FUNCTIONS.items():
        pts = rng.uniform(-2.0, 2.0, 16)
        if f.singular_points:
            pts = pts[np.abs(pts) > 0.1]
        for j in range(1, min(f.max_order, 4) + 1):
            fd = (f.deriv(j - 1)(pts + h) - f.deriv(j - 1)(pts - h)) / (2 * h)
            scale = np.maximum(1.0, np.abs(f.deriv(j)(pts)))
            assert np.max(np.abs(fd - f.deriv(j)(pts)) / scale) < 1e-6, (name, j)


def _horner_chain(coeffs):
    """The polynomial derivative chain as it was hand-rolled: a Horner loop
    from zeros_like(s) over each coefficient vector of the derivative chain."""
    chain, c = [], np.asarray(coeffs, dtype=float)
    for _ in range(9):
        def f(s, cc=c.copy()):
            s = np.asarray(s, dtype=float)
            out = np.zeros_like(s)
            for a in cc[::-1]:
                out = out * s + a
            return out
        chain.append(f)
        c = c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)
    return chain


@pytest.mark.parametrize("name, coeffs", [("square", [0.0, 0.0, 1.0]),
                                          ("cube", [0.0, 0.0, 0.0, 1.0])])
def test_polynomial_chains_equal_horner_bitwise(name, coeffs, rng):
    s = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e103, -1e103, 1e200,
                         -1e200, np.inf, -np.inf],
                        rng.uniform(-3.0, 3.0, 1000), rng.standard_normal(100) * 1e5])
    f = FUNCTIONS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        for j, old in enumerate(_horner_chain(coeffs)):
            assert f.deriv(j)(s).tobytes() == old(s).tobytes(), (name, j)
            for x in (0.0, -0.0, 0.7, -2.5):  # scalars keep their sign of zero too
                assert np.asarray(f.deriv(j)(x)).tobytes() == old(x).tobytes(), (name, j, x)


def test_clusters_equal_the_scan_loop(rng):
    # the clustering as it was hand-rolled: one scan for gaps above tol
    def scan(nodes, tol):
        means, sizes, start = [], [], 0
        for i in range(1, len(nodes) + 1):
            if i == len(nodes) or nodes[i] - nodes[i - 1] > tol:
                means.append(float(np.mean(nodes[start:i])))
                sizes.append(i - start)
                start = i
        return means, sizes

    for size in (1, 2, 3, 5, 9):
        for _ in range(50):
            z = np.sort(rng.choice([0.0, -0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, -3.0, 2.5], size))
            for tol in (1e-9, 1e-12, 1.5):
                assert _cluster_sorted(z, tol) == scan(z, tol)


def test_trig_chains_cycle_with_period_four():
    s = np.array([0.0, -0.0, 0.3, -1.2, 4.0])
    cycle = (np.sin(s), np.cos(s), -np.sin(s), -np.cos(s))
    for name, shift in (("sin", 0), ("cos", 1)):
        for j in range(9):
            assert FUNCTIONS[name].deriv(j)(s).tobytes() == cycle[(j + shift) % 4].tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=5),
       st.randoms(use_true_random=False))
def test_permutation_invariance(nodes, pyrandom):
    nodes = [round(v, 4) for v in nodes]
    if min(abs(a - b) for i, a in enumerate(nodes) for b in nodes[i + 1:]) < 1e-3:
        return
    f = get_function("sin")
    base = divided_difference(f, nodes)
    perm = list(nodes)
    pyrandom.shuffle(perm)
    assert abs(divided_difference(f, perm) - base) <= 1e-10 * (1.0 + abs(base))


def test_uniform_bound(rng):
    # |f^[n]| <= sup_hull |f^(n)| / n!
    for name in SMOOTH_TEST_SET:
        f = get_function(name)
        for _ in range(250):
            n = int(rng.integers(1, 5))
            nodes = rng.uniform(-3, 3, n + 1)
            val = abs(divided_difference(f, nodes))
            bound = f.max_abs_deriv(n, nodes.min(), nodes.max()) / math.factorial(n)
            assert val <= bound + 1e-9, (name, nodes)


def test_against_extended_precision_oracle(rng):
    for name in ("sin", "exp", "cube"):
        for _ in range(40):
            nodes = np.round(rng.uniform(-2, 2, 4), 6)
            if min(np.diff(np.sort(nodes))) < 1e-3:
                continue
            ref = mp_divdiff(name, nodes)
            val = divided_difference(get_function(name), nodes)
            assert abs(val - ref) <= 1e-10 * (1.0 + abs(ref)), (name, nodes)


def test_two_var_trivial_cases():
    assert divdiff_two_var(get_function("square"), 2, 1, 5.0, 7.0) == pytest.approx(1.0)
    assert divdiff_two_var(get_function("cube"), 2, 2, 1.0, 0.0) == pytest.approx(2.0)


def test_two_var_matches_expanded_tuple():
    f = get_function("sin")
    a = divdiff_two_var(f, 2, 1, 0.2, 0.9)
    b = divided_difference(f, (0.2, 0.9, 0.9))
    assert a == pytest.approx(b, abs=1e-12)
    assert a == pytest.approx(mp_divdiff("sin", (0.2, 0.9, 0.9 + 1e-9), dps=50), abs=1e-8)


def test_two_var_symmetry(rng):
    f = get_function("exp")
    for _ in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, n + 2))
        lam, mu = rng.uniform(-2, 2, 2)
        a = divdiff_two_var(f, n, k, lam, mu)
        b = divdiff_two_var(f, n, n + 1 - k, mu, lam)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_two_var_grid_matches_scalar(rng):
    for name in ("sin", "cube", "abs2"):
        f = get_function(name)
        lam = rng.uniform(-2, 2, 50)
        mu = lam + np.where(rng.uniform(size=50) > 0.5, 1.0, -1.0) * rng.uniform(0.01, 2, 50)
        for (n, k) in ((1, 1), (2, 1), (2, 2)):
            grid = divdiff_two_var_grid(f, n, k, lam, mu)
            for i in range(0, 50, 7):
                assert grid[i] == pytest.approx(
                    divdiff_two_var(f, n, k, lam[i], mu[i]), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("name", ["sin", "exp", "cube", "abs2"])
def test_two_var_grid_on_the_diagonal(name, rng):
    # where lambda == mu the grid value is f^(n)(lambda)/n!, 0 for s|s| at n = 2
    f = get_function(name)
    v = np.sort(rng.uniform(-2, 2, 9))
    for n in range(1, 3 if name == "abs2" else 4):
        want = (np.zeros(9) if name == "abs2" and n == 2
                else f.deriv(n)(v) / math.factorial(n))
        for k in range(n + 2):
            grid = divdiff_two_var_grid(f, n, k, v[:, None], v[None, :])
            assert grid.shape == (9, 9) and np.isfinite(grid).all()
            assert np.diagonal(grid).tobytes() == want.tobytes(), (n, k)
            if 0 < k <= n:
                i, j = np.nonzero(~np.eye(9, dtype=bool))
                for a, b in zip(i[::11], j[::11]):
                    assert grid[a, b] == pytest.approx(
                        divdiff_two_var(f, n, k, v[a], v[b]), rel=1e-10, abs=1e-12)


def test_partial_trivial_cases():
    assert divdiff_partial(get_function("square"), 1, 1, 0.3, 1.7, "lambda") == \
        pytest.approx(1.0)
    assert divdiff_partial(get_function("cube"), 2, 1, 1.0, 2.0, "mu") == \
        pytest.approx(2.0)


def test_partial_matches_finite_differences(rng):
    h = 1e-5
    for name in ("sin", "exp"):
        f = get_function(name)
        count = 0
        while count < 1000:
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))
            lam, mu = rng.uniform(-3, 3, 2)
            if abs(lam - mu) < 0.05:
                continue
            count += 1
            for which in ("lambda", "mu"):
                an = divdiff_partial(f, n, k, lam, mu, which)
                if which == "lambda":
                    fd = (divdiff_two_var(f, n, k, lam + h, mu)
                          - divdiff_two_var(f, n, k, lam - h, mu)) / (2 * h)
                else:
                    fd = (divdiff_two_var(f, n, k, lam, mu + h)
                          - divdiff_two_var(f, n, k, lam, mu - h)) / (2 * h)
                assert abs(an - fd) <= 1e-5 * (1.0 + abs(an)), (name, n, k, which)
    # spec instance
    f = get_function("sin")
    an = divdiff_partial(f, 2, 1, 0.3, 1.1, "lambda")
    fd = (divdiff_two_var(f, 2, 1, 0.3 + h, 1.1)
          - divdiff_two_var(f, 2, 1, 0.3 - h, 1.1)) / (2 * h)
    assert abs(an - fd) <= 1e-5 * (1 + abs(an))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=4), st.floats(-5, 5),
       st.integers(0, 3), st.integers(0, 3))
def test_node_insertion_identity(nodes, mu, i, j):
    nodes = [round(v, 3) for v in nodes]
    i, j = i % len(nodes), j % len(nodes)
    if i == j or abs(nodes[i] - nodes[j]) < 0.05:
        return
    gaps = [abs(a - b) for x, a in enumerate(nodes + [mu]) for b in (nodes + [mu])[x + 1:]]
    if min(gaps) < 1e-3:
        return
    f = get_function("sin")
    lhs, rhs, res = node_insertion_split(f, nodes, i, j, mu)
    assert abs(res) <= 1e-10 * max(1.0, abs(lhs))


def test_node_insertion_examples():
    f = get_function("cube")
    lhs, rhs, res = node_insertion_split(f, (0, 1, 2), 0, 1, 5.0)
    assert lhs == pytest.approx(3.0) and rhs == pytest.approx(3.0)
    assert abs(res) < 1e-12
    fexp = get_function("exp")
    lhs, rhs, res = node_insertion_split(fexp, (0, 0.5, 1.5), 0, 2, 0.7)
    assert abs(res) <= 1e-12 * max(1.0, abs(lhs))
    # high-precision oracle for the same instance
    ref = mp_divdiff("exp", (0, 0.5, 1.5))
    assert lhs == pytest.approx(ref, abs=1e-13)


def test_error_conditions():
    f = get_function("sin")
    with pytest.raises(DegenerateTolerance):
        divided_difference(f, (0, 1), tol=0.0)
    with pytest.raises(OrderUnsupported):
        divided_difference(f, np.linspace(0, 1, 11))  # order 10 > max_order 8
    with pytest.raises(OrderUnsupported):
        divided_difference(get_function("abs2"), (0.0, 0.5, 1.0, 2.0))
    with pytest.raises(OrderUnsupported):
        divdiff_partial(get_function("abs2"), 2, 1, 0.5, 1.0)
    with pytest.raises(CoincidentPivot):
        node_insertion_split(f, (1.0, 1.0, 2.0), 0, 1, 0.5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=0, max_size=4),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 4),
       st.sampled_from(sorted(FUNCTIONS)))
def test_non_finite_node_raises(nodes, bad, at, name):
    nodes.insert(at % (len(nodes) + 1), bad)
    with pytest.raises(NonFiniteNode):
        divided_difference(get_function(name), nodes)


@pytest.mark.parametrize("k, calls", [(1, [2, 2, 1]), (2, [2, 1, 1])])
def test_grid_evaluates_each_derivative_once_per_node_array(k, calls):
    # the nodes are [lam]*k + [mu]*(3-k): f^(w) runs once on each distinct
    # array it is asked for, not once per window that asks
    sin = get_function("sin")
    counts = [0, 0, 0]

    def counted(w):
        def g(x):
            counts[w] += 1
            return sin.derivs[w](x)
        return g

    f = ScalarFunction("counted sin", sin.kind, 2, [counted(w) for w in range(3)])
    v = np.linspace(-1.0, 1.0, 9)  # the diagonal makes every window partly confluent
    lam, mu = v[:, None], v[None, :]
    got = divdiff_two_var_grid(f, 2, k, lam, mu)
    assert counts == calls
    assert got.tobytes() == divdiff_two_var_grid(sin, 2, k, lam, mu).tobytes()
