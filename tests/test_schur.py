import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import schurlab
from schurlab import matrixnum, schur
from schurlab.errors import (BadBudget, BadExponent, BadParameter, DimensionMismatch,
                             SchurLabError)
from schurlab.lowerlab import volterra_candidates
from schurlab.matrixnum import schatten_norm, write_matrix
from schurlab.schur import (Budget, DiscreteSymbol, PointSet, apply_bilinear,
                            apply_linear, diagonal_part, diagonal_symbol,
                            linear_ratio, load_symbol_table, m_plus,
                            m_plus_symbol, norm_lower_search, ones_symbol,
                            triangular_truncation)


def random_pair(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def test_point_set_validation():
    # BadParameter is also a ValueError
    with pytest.raises(BadParameter):
        PointSet((1.0, 1.0, 2.0))
    with pytest.raises(BadParameter):
        PointSet((2.0, 1.0))
    assert PointSet.integers(3).labels == (1.0, 2.0, 3.0)
    with pytest.raises(BadParameter):
        PointSet((1.0, float("nan"), 2.0))
    with pytest.raises(BadParameter):
        PointSet(())


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=6))
def test_point_set_accepts_exactly_finite_increasing_labels(labels):
    good = (all(math.isfinite(v) for v in labels)
            and all(a < b for a, b in zip(labels, labels[1:])))
    if good:
        assert PointSet(tuple(labels)).labels == tuple(labels)
    else:
        with pytest.raises(ValueError):
            PointSet(tuple(labels))


@given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=6, unique=True),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 6))
def test_point_set_rejects_any_non_finite_label(labels, bad, at):
    labels = sorted(labels)
    labels.insert(min(at, len(labels)), bad)
    with pytest.raises(ValueError):
        PointSet(tuple(labels))


def test_apply_linear_cases(rng):
    X = PointSet.integers(6)
    a, _ = random_pair(rng, 6)
    np.testing.assert_array_equal(apply_linear(ones_symbol(2), X, a), a)
    np.testing.assert_allclose(apply_linear(diagonal_symbol(), X, a),
                               np.diag(np.diag(a)))
    g = lambda lam: np.sin(lam)
    h = lambda mu: np.exp(-mu)
    sym = DiscreteSymbol(2, lambda lam, mu: g(lam) * h(mu))
    v = X.values
    np.testing.assert_allclose(apply_linear(sym, X, a),
                               np.diag(g(v)) @ a @ np.diag(h(v)), atol=1e-12)
    with pytest.raises(DimensionMismatch):
        apply_linear(ones_symbol(2), X, np.eye(5))


def test_apply_bilinear_cases(rng):
    X = PointSet.integers(5)
    a, b = random_pair(rng, 5)
    np.testing.assert_allclose(apply_bilinear(ones_symbol(3), X, a, b), a @ b,
                               atol=1e-12)
    g = lambda lam: lam ** 2
    h = lambda mu: 1.0 / mu
    sym = DiscreteSymbol(3, lambda l0, l1, l2: g(l0) * h(l2))
    v = X.values
    np.testing.assert_allclose(apply_bilinear(sym, X, a, b),
                               np.diag(g(v)) @ a @ b @ np.diag(h(v)), atol=1e-12)


def test_apply_bilinear_brute_force(rng):
    # n = 2, all-ones inputs: C_il = sum_j m(x_i, x_j, x_l)
    X = PointSet.integers(2)
    tab = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    ones = np.ones((2, 2), dtype=complex)
    out = apply_bilinear(tab, X, ones, ones)
    for i in range(2):
        for l in range(2):
            assert out[i, l] == pytest.approx(np.sum(tab[i, :, l]))


def test_triangular_truncation(rng):
    X = PointSet((1.0, 2.0))
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(triangular_truncation(a, X, "+"),
                                  [[0, 2], [0, 0]])
    np.testing.assert_array_equal(triangular_truncation(a, X, "-"),
                                  [[0, 0], [3, 0]])
    Xn = PointSet.integers(9)
    m, _ = random_pair(rng, 9)
    total = (triangular_truncation(m, Xn, "+") + triangular_truncation(m, Xn, "-")
             + diagonal_part(m))
    np.testing.assert_array_equal(total, m)
    # S_2 contraction
    assert schatten_norm(triangular_truncation(m, Xn, "+"), 2) <= schatten_norm(m, 2)


def test_m_plus(rng):
    X = PointSet.integers(2)
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(m_plus(a, X), [[0, 2], [-3, 0]])
    Xn = PointSet.integers(8)
    h, _ = random_pair(rng, 8)
    h = h + h.conj().T
    mp_h = m_plus(h, Xn)
    np.testing.assert_allclose(mp_h, -mp_h.conj().T, atol=1e-12)
    # adjoint consistency: M-(a*) = (M+(a))*
    a, _ = random_pair(rng, 8)
    lhs = triangular_truncation(a.conj().T, Xn, "-") - triangular_truncation(a.conj().T, Xn, "+")
    np.testing.assert_allclose(lhs, m_plus(a, Xn).conj().T, atol=1e-14)
    assert schatten_norm(m_plus(a, Xn), 2) <= schatten_norm(a, 2) + 1e-12


def test_linear_identity_estimate():
    X = PointSet.integers(6)
    for p in (1.5, 2.0, 4.0):
        est = norm_lower_search("linear", ones_symbol(2), X, p, Budget(4, 15, 0)).ratio
        assert abs(est - 1.0) <= 1e-9


def test_bilinear_hoelder_sharpness():
    X = PointSet.integers(8)
    est = norm_lower_search("bilinear", ones_symbol(3), X, (4.0, 4.0, 2.0),
                            Budget(20, 60, 0)).ratio
    assert est <= 1.0 + 1e-9
    assert est >= 0.99


def test_s2_exactness_via_matrix_unit(rng):
    X = PointSet.integers(8)
    sym = DiscreteSymbol(2, lambda lam, mu: np.sin(lam) * np.cos(mu) + 0.3j)
    tab = sym.table(X)
    i, k = np.unravel_index(np.argmax(np.abs(tab)), tab.shape)
    unit = np.zeros((8, 8), dtype=complex)
    unit[i, k] = 1.0
    assert linear_ratio(sym, X, unit, 2.0) == pytest.approx(np.max(np.abs(tab)), rel=1e-14)


def test_bilinear_s2_bound_222(rng):
    # the elementary Cauchy-Schwarz bound: the (2,2,2) ratio never beats sup|m|
    X = PointSet.integers(6)
    for trial in range(4):
        tab = rng.uniform(-1, 1, (6, 6, 6)) + 1j * rng.uniform(-1, 1, (6, 6, 6))
        est = norm_lower_search("bilinear", tab, X, (2.0, 2.0, 2.0),
                                Budget(10, 40, trial)).ratio
        assert est <= np.max(np.abs(tab)) + 1e-9


def test_linear_duality_small():
    X = PointSet.integers(4)
    rng = np.random.default_rng(3)
    tab = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    p = 4.0
    a = norm_lower_search("linear", tab, X, p, Budget(200, 100, 0)).ratio
    b = norm_lower_search("linear", tab, X, p / (p - 1), Budget(200, 100, 0)).ratio
    assert abs(a - b) <= 0.05 * max(a, b)


def test_restriction_monotonicity(rng):
    # the best candidate on a sub point set, zero-padded, achieves the same
    # ratio under the full symbol
    X = PointSet(tuple(np.linspace(-1, 1, 8)))
    Xs = PointSet(X.labels[:5])
    sym = DiscreteSymbol(2, lambda lam, mu: np.cos(3 * lam - mu))
    p = 3.0
    res = norm_lower_search("linear", sym, Xs, p, Budget(10, 40, 1))
    padded = np.zeros((8, 8), dtype=complex)
    padded[:5, :5] = res.witness[0]
    assert linear_ratio(sym, X, padded, p) >= res.ratio - 1e-12


def test_determinism_and_threads(monkeypatch):
    X = PointSet.integers(6)
    sym = m_plus_symbol()
    a = norm_lower_search("linear", sym, X, 4.0, Budget(8, 25, 42)).ratio
    b = norm_lower_search("linear", sym, X, 4.0, Budget(8, 25, 42)).ratio
    monkeypatch.setenv("SCHURLAB_THREADS", "4")
    c = norm_lower_search("linear", sym, X, 4.0, Budget(8, 25, 42)).ratio
    assert a == b == c


@pytest.mark.parametrize("cpus, jobs", [(4, 6), (4, 3), (1, 6)])
def test_pool_gate(monkeypatch, cpus, jobs):
    # without a thread setting the pool takes every available CPU (one per
    # job at most) from n = POOL_MIN_N = 64 on, and one thread below
    monkeypatch.delenv("SCHURLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert schur.POOL_MIN_N == 64
    assert schur._pool_threads(63, jobs) == 1
    assert schur._pool_threads(64, jobs) == min(cpus, jobs)
    monkeypatch.setenv("SCHURLAB_THREADS", "1")
    assert schur._pool_threads(128, jobs) == 1
    monkeypatch.setenv("SCHURLAB_THREADS", "3")
    assert schur._pool_threads(8, jobs) == 3


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
def test_bad_schurlab_threads_is_bad_budget(monkeypatch, value):
    monkeypatch.setenv("SCHURLAB_THREADS", value)
    with pytest.raises(BadBudget, match="SCHURLAB_THREADS"):
        norm_lower_search("linear", m_plus_symbol(), PointSet.integers(4), 4.0,
                          Budget(1, 2))


def test_one_worker_runs_in_the_calling_thread(monkeypatch):
    # no pool below POOL_MIN_N: every job on this thread, still the complex
    # restarts before the real seeds
    monkeypatch.delenv("SCHURLAB_THREADS", raising=False)
    monkeypatch.setattr(schur, "ThreadPoolExecutor", None)
    calls, ascend = [], schur._ascend

    def recorded(op, starts, *args):
        calls.append((threading.get_ident(), starts[0].dtype.kind))
        return ascend(op, starts, *args)

    monkeypatch.setattr(schur, "_ascend", recorded)
    res = norm_lower_search("linear", m_plus_symbol(), PointSet.integers(16), 4.0,
                            Budget(2, 3, 7), seeds=volterra_candidates(16)[:2])
    assert {thread for thread, _ in calls} == {threading.get_ident()}
    assert [kind for _, kind in calls] == ["c", "c", "f", "f"]
    assert len(res.per_restart) == 4


def _pooled_and_serial(monkeypatch, *args, **kwargs):
    """The search with the default pool (two CPUs available) and with one thread."""
    monkeypatch.delenv("SCHURLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = norm_lower_search(*args, **kwargs)
    monkeypatch.setenv("SCHURLAB_THREADS", "1")
    return [pooled, norm_lower_search(*args, **kwargs)]


def _same_bits(a, b):
    return (a.ratio.hex() == b.ratio.hex()
            and [r.hex() for r in a.per_restart] == [r.hex() for r in b.per_restart]
            and [w.tobytes() for w in a.witness] == [w.tobytes() for w in b.witness])


@pytest.mark.parametrize("p", [4.0, 1.1, 32.0])
@pytest.mark.parametrize("n", [64, 128])
def test_pooled_default_equals_serial_linear(monkeypatch, n, p):
    pooled, serial = _pooled_and_serial(monkeypatch, "linear", m_plus_symbol(),
                                        PointSet.integers(n), p, Budget(1, 4, 3),
                                        seeds=volterra_candidates(n))
    assert _same_bits(pooled, serial)


def test_pooled_default_equals_serial_bilinear(monkeypatch):
    from schurlab.lowerlab import GeometricDiscretization, phi_table

    tab = phi_table(GeometricDiscretization(0.5, 40, "B1", 64))
    pooled, serial = _pooled_and_serial(monkeypatch, "bilinear", tab, PointSet.integers(64),
                                        (4.0, 4.0, 2.0), Budget(2, 3, 7))
    assert _same_bits(pooled, serial)


def test_estimate_budget_monotone():
    X = PointSet.integers(6)
    sym = m_plus_symbol()
    small = norm_lower_search("linear", sym, X, 4.0, Budget(4, 20, 7))
    big = norm_lower_search("linear", sym, X, 4.0, Budget(12, 20, 7))
    assert big.ratio >= small.ratio - 1e-15
    assert big.per_restart[:4] == small.per_restart


def test_bad_exponent():
    X = PointSet.integers(4)
    with pytest.raises(BadExponent):
        norm_lower_search("linear", ones_symbol(2), X, 1.0, Budget(1, 1, 0))
    with pytest.raises(BadExponent):
        norm_lower_search("bilinear", ones_symbol(3), X, (4.0, 4.0, 1.0),
                          Budget(1, 1, 0))


def test_symbol_table_io(tmp_path, rng):
    n = 4
    tab2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path2 = tmp_path / "sym2.txt"
    write_matrix(path2, tab2)
    assert np.array_equal(load_symbol_table(path2, 2), tab2)
    tab3 = rng.standard_normal((n * n, n)) + 1j * rng.standard_normal((n * n, n))
    path3 = tmp_path / "sym3.txt"
    write_matrix(path3, tab3)
    loaded = load_symbol_table(path3, 3)
    assert loaded.shape == (n, n, n)
    assert np.array_equal(loaded, tab3.reshape(n, n, n))
    X = PointSet.integers(n)
    a, b = (rng.standard_normal((n, n)) for _ in range(2))
    out = apply_bilinear(loaded, X, a, b)
    ref = np.einsum("ijl,ij,jl->il", loaded, a.astype(complex), b.astype(complex))
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_budget_validation():
    for bad in (dict(restarts=-1), dict(iterations=0), dict(iterations=-3),
                dict(restarts=1.5), dict(iterations=2.0), dict(restarts=True)):
        with pytest.raises(BadBudget):
            Budget(**bad)
    assert issubclass(BadBudget, SchurLabError)
    assert Budget(np.int64(2), 3).restarts == 2


def test_empty_search_fails_fast():
    X = PointSet.integers(4)
    with pytest.raises(BadBudget):
        norm_lower_search("linear", m_plus_symbol(), X, 4.0, Budget(0, 5, 0))
    with pytest.raises(BadBudget):
        norm_lower_search("bilinear", ones_symbol(3), X, (4.0, 4.0, 2.0), Budget(0, 5, 0))
    res = norm_lower_search("linear", m_plus_symbol(), X, 4.0, Budget(0, 5, 0),
                            seeds=[np.ones((4, 4))])
    assert len(res.per_restart) == 1 and res.ratio > 0 and len(res.witness) == 1


def _gram_cases(rng, n=12):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    low = g[:, :3] @ (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    return {"gaussian": g, "rank3": low, "big": 1e150 * g, "small": 1e-150 * g,
            "big_rank3": 1e150 * low, "small_rank3": 1e-150 * low}


@pytest.mark.parametrize("p", [2.0, 4.0, 8.0, 16.0, 32.0])
def test_gram_path_matches_svd(p, rng, monkeypatch):
    cases = _gram_cases(rng)
    want = {name: (schur._svd_subgradient(z, p), schatten_norm(z, p))
            for name, z in cases.items()}

    def no_svd(*args, **kwargs):
        raise AssertionError("the Gram path called the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for name, z in cases.items():
        (norm, d), ref = want[name]
        gnorm, gd = schur._subgradient(z, p)
        assert gnorm == pytest.approx(norm, rel=1e-12), name
        assert np.linalg.norm(gd - d) <= 1e-12 * np.linalg.norm(d), name
        assert schur._schatten(z, p) == pytest.approx(ref, rel=1e-12), name
        unit = schur._normalize(z, p)
        assert np.linalg.norm(unit - z / ref) <= 1e-12 * np.linalg.norm(z / ref), name


@pytest.mark.parametrize("p", [2.0, 4.0, 8.0, 16.0, 32.0])
def test_gram_path_zero_matrix(p):
    z = np.zeros((5, 5), dtype=complex)
    norm, d = schur._subgradient(z, p)
    assert norm == 0.0 and not np.any(d)
    assert schur._schatten(z, p) == 0.0
    with pytest.raises(ValueError):
        schur._normalize(z, p)


def test_gram_path_certified_by_svd(rng):
    # every reported even-p ratio is the SVD value at its witness
    X = PointSet.integers(10)
    res = norm_lower_search("linear", m_plus_symbol(), X, 8.0, Budget(3, 15, 2))
    (x,) = res.witness
    assert res.ratio == schatten_norm(m_plus(x, X), 8.0)
    assert linear_ratio(m_plus_symbol(), X, x, 8.0) == pytest.approx(res.ratio, rel=1e-13)


def test_search_restores_blas_threads(monkeypatch):
    api = matrixnum._openblas_threads_api()
    if api is None:
        pytest.skip("no bundled OpenBLAS thread control")
    get, _ = api
    before = get()
    with matrixnum._one_blas_thread():
        assert get() == 1
        with matrixnum._one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == before
    monkeypatch.setenv("SCHURLAB_THREADS", "2")
    norm_lower_search("linear", m_plus_symbol(), PointSet.integers(8), 4.0, Budget(2, 5, 0))
    assert get() == before


def test_blas_pin_under_overlapping_threads():
    # more threads than cores entering and leaving the pin with a short switch
    # interval: inside, BLAS is always on one thread; afterwards the count is back
    api = matrixnum._openblas_threads_api()
    if api is None:
        pytest.skip("no bundled OpenBLAS thread control")
    get, _ = api
    before = get()
    seen = []

    def worker():
        for _ in range(200):
            with matrixnum._one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert get() == before


_SEARCH = ("import sys; from schurlab.schur import *; "
           "r = norm_lower_search('linear', m_plus_symbol(), PointSet.integers(int(sys.argv[1])), "
           "8.0, Budget(2, 20, 0)); print([x.hex() for x in r.per_restart])")


@pytest.mark.parametrize("n", [64, 128])  # unpinned, n = 128 differs in the last bits
def test_search_independent_of_blas_threads(n):
    env = dict(os.environ, PYTHONPATH=str(Path(schurlab.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    outs = []
    for threads in (None, "1"):
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", _SEARCH, str(n)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


# Ratios of norm_lower_search recorded before the linear and bilinear ascents
# were folded into one engine: n = 12, Budget(2, 15, 5), M+ for the linear
# kind and the B1 phi table for the bilinear one.
_FROZEN = [
    ("linear", 3.0, 1.2448711768301322),
    ("linear", 4.0, 1.4098626102257323),
    ("linear", 1.1, 1.8012725832618988),
    ("bilinear", (4.0, 4.0, 2.0), 1.6026035070960585),
    ("bilinear", (2.0, 2.0, 2.0), 0.9957020710216431),
    ("bilinear", (1.5, 3.0, 1.1), 1.4420867158244708),
]


@pytest.mark.parametrize("kind, exps, want", _FROZEN)
def test_search_values_frozen(kind, exps, want):
    from schurlab.lowerlab import GeometricDiscretization, phi_table
    X = PointSet.integers(12)
    m = (m_plus_symbol() if kind == "linear"
         else phi_table(GeometricDiscretization(0.5, 40, "B1", 12)))
    res = norm_lower_search(kind, m, X, exps, Budget(2, 15, 5))
    assert res.ratio == pytest.approx(want, rel=1e-13, abs=0)
    assert len(res.witness) == (1 if kind == "linear" else 2)


# A real table is taken as it is: numpy promotes it slab by slab to x + 0j,
# the bits of its complex copy, so searches and actions equal those on the
# complex copy bitwise.
def _real_tables(kind, n):
    from schurlab.lowerlab import GeometricDiscretization, phi_table
    X = PointSet.integers(n)
    if kind == "linear":
        return X, [m_plus_symbol().table(X)]
    return X, [phi_table(GeometricDiscretization(0.5, 40, v, n)) for v in ("B1", "B2")]


def _assert_same_search(kind, tab, X, exps):
    # the structured seeds are real jobs on either table, the restarts complex
    assert tab.dtype == float
    cands = volterra_candidates(X.n)
    seeds = cands if kind == "linear" else list(zip(cands, reversed(cands)))
    got = norm_lower_search(kind, tab, X, exps, Budget(2, 10, 3), seeds=seeds)
    want = norm_lower_search(kind, tab.astype(complex), X, exps, Budget(2, 10, 3),
                             seeds=seeds)
    assert got.ratio == want.ratio and got.per_restart == want.per_restart
    assert [w.tobytes() for w in got.witness] == [w.tobytes() for w in want.witness]


@pytest.mark.parametrize("p", [4.0, 1.1, 32.0])
@pytest.mark.parametrize("n", [16, 64])
def test_linear_search_on_real_table_equals_complex_bitwise(n, p):
    X, (tab,) = _real_tables("linear", n)
    _assert_same_search("linear", tab, X, p)


@pytest.mark.parametrize("exps", [(4.0, 4.0, 2.0), (2.0, 2.0, 2.0), (1.5, 3.0, 1.1)])
def test_bilinear_search_on_real_table_equals_complex_bitwise(exps):
    X, tables = _real_tables("bilinear", 16)
    for tab in tables:
        _assert_same_search("bilinear", tab, X, exps)


def test_actions_on_real_table_equal_complex_bitwise(rng):
    for n in (16, 64):
        a, b = random_pair(rng, n)
        X, (t2,) = _real_tables("linear", n)
        assert apply_linear(t2, X, a).tobytes() == \
            apply_linear(t2.astype(complex), X, a).tobytes()
        for t3 in _real_tables("bilinear", n)[1]:
            assert apply_bilinear(t3, X, a, b).tobytes() == \
                apply_bilinear(t3.astype(complex), X, a, b).tobytes()


# Real jobs run in float64.  The reference below runs every job in complex
# arithmetic on the complex conjugate table.
def _complex_search(sym, X, p, budget, seeds):
    """Per-job values of the linear search with every job complex."""
    n, t = X.n, sym.table(X)
    tc = np.conj(t, dtype=complex)
    starts = [np.asarray(a, dtype=complex) for a in seeds]
    for r in range(budget.restarts):
        rng = np.random.default_rng([budget.seed, r])
        starts.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return [schur._ascend(schur._table_operator(t, tc), (a,), (p,), p, budget.iterations)[0]
            for a in starts]


@pytest.mark.parametrize("restarts", [0, 1])
@pytest.mark.parametrize("p", [4.0, 1.1, 32.0])
@pytest.mark.parametrize("n", [16, 64, 128])
def test_real_jobs_match_complex_arithmetic(n, p, restarts):
    X, budget = PointSet.integers(n), Budget(restarts, 10, 0)
    seeds = volterra_candidates(n)
    for sym in (m_plus_symbol(), schur.truncation_symbol("+")):
        got = norm_lower_search("linear", sym, X, p, budget, seeds=seeds)
        want = _complex_search(sym, X, p, budget, seeds)
        assert got.ratio == pytest.approx(max(want), rel=1e-12, abs=0)
        # from the rank-one all-ones seed (job 2) the p = 32 polish leaves an
        # unstable fixed point along a rounding-level direction, so each
        # arithmetic ends at another value below the best
        skip = {2} if p == 32.0 else set()
        for k, (g, w) in enumerate(zip(got.per_restart, want)):
            if k not in skip:
                assert g == pytest.approx(w, rel=1e-12, abs=0), k


@pytest.mark.parametrize("p", [1.1, 4.0])
def test_real_search_makes_no_complex_svd(p, monkeypatch):
    # a real table with real seeds only: the one complex SVD per job is the
    # re-measure of an even-p best value
    n = 16
    inputs = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        inputs.append(np.iscomplexobj(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    res = norm_lower_search("linear", m_plus_symbol(), PointSet.integers(n), p,
                            Budget(0, 10, 0), seeds=volterra_candidates(n))
    assert len(inputs) >= 45
    assert sum(inputs) == (len(res.per_restart) if p == 4.0 else 0)
    assert res.witness[0].dtype == np.complex128


def test_real_bilinear_search_returns_complex_witness():
    from schurlab.lowerlab import GeometricDiscretization, phi_table
    n = 8
    cands = volterra_candidates(n)
    res = norm_lower_search("bilinear", phi_table(GeometricDiscretization(0.5, 40, "B1", n)),
                            PointSet.integers(n), (4.0, 4.0, 2.0), Budget(0, 5, 0),
                            seeds=[(cands[0], cands[1])])
    assert [w.dtype for w in res.witness] == [np.complex128] * 2
    assert res.ratio > 0


@pytest.mark.parametrize("kind", ["linear", "bilinear"])
def test_pooled_mixed_search_keeps_job_order(kind, monkeypatch):
    # real seed jobs and complex restarts: the pool starts the restarts first
    # but reports every job in its place, seeds then restarts
    from schurlab.lowerlab import GeometricDiscretization, phi_table
    n = 64
    X, cands = PointSet.integers(n), volterra_candidates(n)
    if kind == "linear":
        m, exps, seeds = m_plus_symbol(), 4.0, cands
    else:
        m = phi_table(GeometricDiscretization(0.5, 40, "B1", n))
        exps, seeds = (4.0, 4.0, 2.0), list(zip(cands[:2], cands[1:3]))
    pooled, serial = _pooled_and_serial(monkeypatch, kind, m, X, exps, Budget(2, 3, 7),
                                        seeds=seeds)
    assert _same_bits(pooled, serial)
    seeds_only = norm_lower_search(kind, m, X, exps, Budget(0, 3, 7), seeds=seeds)
    restarts_only = norm_lower_search(kind, m, X, exps, Budget(2, 3, 7))
    assert pooled.per_restart == seeds_only.per_restart + restarts_only.per_restart


def test_zero_seed_is_rejected_before_any_job(monkeypatch):
    def no_job(*args, **kwargs):
        raise AssertionError("a job ran")

    monkeypatch.setattr(schur, "_ascend", no_job)
    X, good = PointSet.integers(4), np.eye(4)
    cases = [("linear", m_plus_symbol(), 4.0, [good, np.zeros((4, 4))]),
             ("bilinear", ones_symbol(3), (4.0, 4.0, 2.0), [(good, good),
                                                            (good, np.zeros((4, 4)))])]
    for kind, m, exps, seeds in cases:
        with pytest.raises(BadParameter, match="zero matrix"):
            norm_lower_search(kind, m, X, exps, Budget(1, 3, 0), seeds=seeds)


def _polish_steps(iterations):
    return max(8, iterations // 8)


# SVDs of one restart that runs to the end: a non-even p takes one per norm,
# subgradient and norming step; an even p only the norming steps plus one
# re-certification of the best value.
_SVD_COUNTS = [
    ("linear", 3.0, lambda it: 1 + 2 * it + 2 * _polish_steps(it) + 1),
    ("linear", 4.0, lambda it: _polish_steps(it) + 1),
    ("bilinear", (4.0, 4.0, 2.0), lambda it: 2 * _polish_steps(it) + 1),
]


@pytest.mark.parametrize("kind, exps, count", _SVD_COUNTS)
@pytest.mark.parametrize("iterations", [5, 80])
def test_svds_per_restart(kind, exps, count, iterations, monkeypatch):
    X = PointSet.integers(6)
    m = m_plus_symbol() if kind == "linear" else ones_symbol(3)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    norm_lower_search(kind, m, X, exps, Budget(1, iterations, 11))
    assert len(calls) == count(iterations)


@pytest.mark.parametrize("kind, exps", [("linear", 3.0), ("linear", 4.0),
                                        ("bilinear", (4.0, 4.0, 2.0))])
def test_zero_symbol_search_is_zero(kind, exps):
    X = PointSet.integers(5)
    arity = 2 if kind == "linear" else 3
    res = norm_lower_search(kind, np.zeros((5,) * arity), X, exps, Budget(2, 10, 0))
    assert res.ratio == 0.0 and res.per_restart == [0.0, 0.0]
    assert len(res.witness) == arity - 1


def test_seeds_are_validated_for_both_kinds():
    X = PointSet.integers(4)
    good, bad_shape = np.eye(4), np.eye(3)
    nan = np.full((4, 4), np.nan)
    cases = [("linear", m_plus_symbol(), 4.0, lambda a: a),
             ("bilinear", ones_symbol(3), (4.0, 4.0, 2.0), lambda a: (good, a))]
    for kind, m, exps, seed in cases:
        with pytest.raises(ValueError, match="finite"):
            norm_lower_search(kind, m, X, exps, Budget(0, 3, 0), seeds=[seed(nan)])
        with pytest.raises(DimensionMismatch):
            norm_lower_search(kind, m, X, exps, Budget(0, 3, 0), seeds=[seed(bad_shape)])
    for pair in [(good,), (good, good, good), good]:
        with pytest.raises(DimensionMismatch):
            norm_lower_search("bilinear", ones_symbol(3), X, (4.0, 4.0, 2.0),
                              Budget(0, 3, 0), seeds=[pair])
    res = norm_lower_search("bilinear", ones_symbol(3), X, (4.0, 4.0, 2.0),
                            Budget(0, 3, 0), seeds=[(good, good)])
    assert res.ratio == pytest.approx(1.0)


def test_tabulated_symbol():
    # a tabulated symbol is its array, taken in the dtype of its values
    tab = np.arange(9.0).reshape(3, 3)
    a = np.full((3, 3), 1.0 + 2.0j)
    assert np.array_equal(apply_linear(tab, PointSet.integers(3), a), tab * a)
    with pytest.raises(DimensionMismatch):
        apply_linear(tab, PointSet.integers(4), np.ones((4, 4)))
    with pytest.raises(DimensionMismatch):
        apply_linear(np.ones(3), PointSet.integers(3), a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_table_is_rejected(bad):
    # the search used to fail inside the SVD with LinAlgError
    X = PointSet.integers(3)
    for arity, kind, exps in ((2, "linear", 4.0), (3, "bilinear", (4.0, 4.0, 2.0))):
        tab = np.ones((3,) * arity)
        tab[(1,) * arity] = bad
        with pytest.raises(BadParameter, match="finite"):
            norm_lower_search(kind, tab, X, exps, Budget(1, 2, 0))
    with pytest.raises(BadParameter, match="finite"):
        apply_bilinear(tab, X, np.eye(3), np.eye(3))
    with pytest.raises(BadParameter, match="finite"):
        apply_linear(tab[1] + 0j, X, np.eye(3))


def test_string_table_is_rejected():
    X = PointSet.integers(2)
    tab = np.array([["1", "0"], ["0", "1"]])
    sym = DiscreteSymbol(2, lambda lam, mu: np.where(lam == mu, "1", "0"))
    for call in (lambda: apply_linear(tab, X, np.eye(2)),
                 lambda: apply_linear(sym, X, np.eye(2)),
                 lambda: norm_lower_search("linear", tab, X, 4.0, Budget(1, 2, 0))):
        with pytest.raises(ValueError, match="numeric"):
            call()


# The n^3 kernels against the three-operand optimized einsum they replace.
# Sizes cover one slab, whole slabs and every kind of partial last slab.
_KERNEL_SIZES = [2, 3, 8, 17, 33, 64]


def _kernel_inputs(n, real):
    """A real-valued or complex table (as complex) and three complex matrices."""
    rng = np.random.default_rng([n, real])
    t = rng.standard_normal((n, n, n))
    if not real:
        t = t + 1j * rng.standard_normal((n, n, n))
    a, b = random_pair(rng, n)
    d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return t.astype(complex), a, b, d


def _kernel_pairs(t, a, b, d):
    """(slab kernel result, einsum reference) for the action and both adjoints."""
    tc, ac, bc = np.conj(t), np.conj(a), np.conj(b)
    return [
        (schur._bilinear(t, a, b),
         np.einsum("ijl,ij,jl->il", t, a, b, optimize=True)),
        (schur._bilinear_adjoint_first(d, tc, bc),
         np.einsum("il,ijl,jl->ij", d, tc, bc, optimize=True)),
        (schur._bilinear_adjoint_second(d, tc, ac),
         np.einsum("ijl,ij,il->jl", tc, ac, d, optimize=True)),
    ]


@pytest.mark.parametrize("real", [True, False], ids=["real_table", "complex_table"])
@pytest.mark.parametrize("n", _KERNEL_SIZES)
def test_bilinear_kernels_equal_einsum_bitwise(n, real):
    for got, want in _kernel_pairs(*_kernel_inputs(n, real)):
        assert np.array_equal(got, want)
        # np.linalg.norm sums in memory order, so the order is part of the result
        assert got.flags.f_contiguous


def test_bilinear_kernels_at_one_point():
    # at n = 1 the einsum plan takes another path: equal to rounding only
    for got, want in _kernel_pairs(*_kernel_inputs(1, False)):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


# The operators the engine runs on: each adjoint is the gradient of
# Re<forward(a), d> in its argument.
@pytest.mark.parametrize("real", [True, False], ids=["real_table", "complex_table"])
@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("n", [3, 8, 17])
def test_table_operator_adjoint_identity(n, arity, real):
    rng = np.random.default_rng([n, arity, real])
    t = rng.standard_normal((n,) * arity)
    if not real:
        t = t + 1j * rng.standard_normal((n,) * arity)
    forward, adjoints = schur._table_operator(t, np.conj(t))
    args = random_pair(rng, n)[:arity - 1]
    d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lhs = np.vdot(forward(args), d).real
    assert len(adjoints) == len(args)
    for a, adj in zip(args, adjoints):
        assert np.vdot(a, adj(d, args)).real == pytest.approx(lhs, rel=1e-12, abs=0)


def test_ascend_runs_on_a_matrix_free_operator():
    # the B2 phi as closures over its n x n factor, with no n^3 table, climbs
    # to the value the table's operator reaches from the same starts
    from schurlab.lowerlab import GeometricDiscretization, _b2_factor, phi_table

    d = GeometricDiscretization(0.5, 40, "B2", 16)
    Phi = _b2_factor(d)
    op = ((lambda a: Phi * (a[0] @ a[1])),
          (lambda g, a: (Phi * g) @ a[1].conj().T,
           lambda g, a: a[0].conj().T @ (Phi * g)))
    t = phi_table(d)
    table_op = schur._table_operator(t, np.conj(t, dtype=complex))
    rng = np.random.default_rng(11)
    for exps in [(4.0, 4.0, 2.0), (1.5, 3.0, 1.1)]:
        starts = random_pair(rng, d.n)
        want = schur._ascend(table_op, starts, exps[:2], exps[2], 20)[0]
        got = schur._ascend(op, starts, exps[:2], exps[2], 20)[0]
        assert got == pytest.approx(want, rel=1e-12, abs=0)
