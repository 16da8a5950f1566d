import hashlib
import tracemalloc

import numpy as np
import pytest

from schurlab.errors import IndexConstraint, SchurLabError
from schurlab.functions import get_function
from schurlab import lowerlab
from schurlab.lowerlab import (B1Report, GeometricDiscretization,
                               extrapolation_experiment, geometric_point_set,
                               limit_convergence_report, limit_symbol,
                               limit_table, phi_symbol, phi_table,
                               theorem_b1_experiment, theorem_b2_experiment,
                               truncation_norm_sweep, volterra_candidates,
                               volterra_matrix)
from schurlab.matrixnum import schatten_norm
from schurlab.schur import (Budget, PointSet, apply_bilinear, m_plus,
                            triangular_truncation)

from conftest import mp_divdiff


def test_discretization_validation():
    with pytest.raises(ValueError):
        GeometricDiscretization(1.5, 10, "B1", 4)
    with pytest.raises(ValueError):
        GeometricDiscretization(0.5, 10, "B3", 4)
    d = GeometricDiscretization(0.5, 10, "B1", 8)
    nodes = d.nodes()
    assert np.all(np.diff(nodes) < 0) and np.all(nodes > 0)
    deep = GeometricDiscretization(0.5, 40, "B1", 128)
    assert not deep.underflow_safe()
    with pytest.raises(OverflowError):
        deep.nodes()
    with pytest.raises(SchurLabError):  # the CLI maps it to exit status 2
        deep.nodes()


def test_phi_symbol_matches_divided_difference():
    # log-domain closed form vs the generic engine at materializable scales
    f = get_function("abs2")
    d = GeometricDiscretization(0.5, 6, "B1", 5)
    q, k = d.q, d.k
    for (i, j, l) in ((2, 1, 3), (1, 2, 3), (3, 2, 1), (1, 3, 2)):
        direct = phi_symbol(d, i, j, l)
        from schurlab.divdiff import divided_difference
        ref = divided_difference(f, (q ** (k * i), -q ** (k * j), q ** (k * l)))
        assert direct == pytest.approx(ref, rel=1e-12)
    d2 = GeometricDiscretization(0.5, 6, "B2", 5)
    for (i, l) in ((1, 3), (3, 1), (2, 4)):
        direct = phi_symbol(d2, i, 2, l)
        ref = divided_difference(
            f, (q ** (k * i), q ** (k * (i + l)), -q ** (k * l)))
        assert direct == pytest.approx(ref, rel=1e-12)


def test_phi_symbol_oracle_high_precision():
    d = GeometricDiscretization(0.5, 10, "B1", 5)
    val = phi_symbol(d, 2, 1, 3)
    ref = mp_divdiff("abs2", (0.5 ** 20, -(0.5 ** 10), 0.5 ** 30), dps=60)
    assert val == pytest.approx(ref, rel=1e-12)
    assert val == pytest.approx(-1.0, abs=2e-3)
    assert phi_symbol(d, 1, 2, 3) == pytest.approx(1.0, abs=2e-3)
    d2 = GeometricDiscretization(0.5, 10, "B2", 5)
    assert phi_symbol(d2, 1, 2, 3) == pytest.approx(1.0, abs=2e-3)
    assert phi_symbol(d2, 3, 2, 1) == pytest.approx(-1.0, abs=2e-3)


def test_limit_symbol_cases():
    assert limit_symbol("B1", 2, 1, 3) == -1
    assert limit_symbol("B1", 1, 2, 1) == 1
    assert limit_symbol("B1", 1, 2, 3) == 1
    for j in (1, 2, 4):
        assert limit_symbol("B2", 1, j, 3) == 1
        assert limit_symbol("B2", 3, j, 1) == -1
    with pytest.raises(IndexConstraint):
        limit_symbol("B1", 2, 2, 3)
    with pytest.raises(IndexConstraint):
        limit_symbol("B2", 3, 1, 3)
    with pytest.raises(IndexConstraint):
        phi_symbol(GeometricDiscretization(0.5, 10, "B1", 5), 1, 1, 2)


def test_limit_convergence():
    for variant in ("B1", "B2"):
        rep = limit_convergence_report(GeometricDiscretization(0.5, 40, variant, 5))
        assert rep.max_discrepancy <= 1e-3
        assert rep.max_discrepancy <= rep.exponent_gap_bound * (1 + 1e-6)
        tight = limit_convergence_report(GeometricDiscretization(0.5, 60, variant, 2))
        assert tight.max_discrepancy <= 1e-15


def test_limit_convergence_doubling_squares():
    # away from the float floor, doubling k at least squares the discrepancy
    for variant in ("B1", "B2"):
        d10 = limit_convergence_report(GeometricDiscretization(0.5, 10, variant, 5))
        d20 = limit_convergence_report(GeometricDiscretization(0.5, 20, variant, 5))
        assert d20.max_discrepancy <= d10.max_discrepancy ** 2 * 1.5
        assert d20.max_discrepancy < d10.max_discrepancy


def test_volterra_matrix():
    v2 = volterra_matrix(2)
    np.testing.assert_allclose(v2, [[0.25, 0.0], [0.5, 0.25]])
    v = volterra_matrix(64)
    s = np.linalg.svd(v, compute_uv=False)
    for j in range(1, 9):
        assert s[j - 1] * (2 * j - 1) * np.pi / 2 == pytest.approx(1.0, abs=0.05)
    # refinement convergence of the leading singular value toward 2/pi
    s256 = np.linalg.svd(volterra_matrix(256), compute_uv=False)
    assert abs(s256[0] - 2 / np.pi) < abs(s[0] - 2 / np.pi)
    assert schatten_norm(v, np.inf) <= 1.0


def test_b1_limit_action_is_truncation_factorization(rng):
    # brute force on all off-diagonal matrix units, n <= 8
    n = 8
    X = PointSet.integers(n)
    tab = limit_table("B1", n).astype(complex)
    for _ in range(30):
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.fill_diagonal(y, 0.0)
        np.fill_diagonal(x, 0.0)
        lhs = apply_bilinear(tab, X, y, x)
        rhs = y @ x - 2.0 * triangular_truncation(y, X, "-") @ triangular_truncation(x, X, "+")
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.linalg.norm(y) * np.linalg.norm(x)


def test_b2_limit_action_is_mplus_of_product(rng):
    n = 8
    X = PointSet.integers(n)
    tab = limit_table("B2", n).astype(complex)
    for _ in range(30):
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out = apply_bilinear(tab, X, y, x)
        out -= np.diag(np.diag(out))
        assert np.max(np.abs(out - m_plus(y @ x, X))) <= 1e-12 * np.linalg.norm(y @ x)


def test_b1_experiment_small():
    d = GeometricDiscretization(0.5, 40, "B1", 16)
    rep = theorem_b1_experiment(2.0, 16, d, Budget(6, 25, 0))
    assert isinstance(rep, B1Report)
    scale = max(rep.direct_value, rep.factorized_value, 1e-30)
    assert rep.factorization_gap <= 1e-6 * scale
    assert rep.implied_bound > 0
    # diagonal input gives zero
    X = PointSet.integers(16)
    tab = phi_table(d)
    diag = np.diag(np.linspace(1, 2, 16)).astype(complex)
    out = apply_bilinear(tab, X, diag - np.diag(np.diag(diag)), diag - np.diag(np.diag(diag)))
    assert np.all(out == 0)


def test_b2_experiment_consistency_instance():
    # the discretized action reproduces the truncation value at p = 1.25, n = 64
    d = GeometricDiscretization(0.5, 40, "B2", 64)
    rep = theorem_b2_experiment(1.25, 64, d, Budget(4, 20, 0))
    assert rep.consistency_gap <= 1e-3  # ||z||_p is normalized to 1
    assert rep.implied_bound > 0


def test_sweep_ratios_and_duality():
    rows = truncation_norm_sweep([2.0], 12, Budget(6, 25, 0))
    assert rows[0].t_plus_ratio <= 1.0 + 1e-9
    assert rows[0].m_plus_ratio <= 1.0 + 1e-9
    # converged duality agreement on a small matrix size
    n = 8
    rows_p = truncation_norm_sweep([4.0, 4.0 / 3.0], n, Budget(60, 60, 1))
    assert rows_p[0].m_plus_ratio == pytest.approx(rows_p[1].m_plus_ratio, rel=0.10)


def test_budget_monotonicity_of_implied_bound():
    d = GeometricDiscretization(0.5, 40, "B1", 12)
    small = theorem_b1_experiment(3.0, 12, d, Budget(3, 15, 5))
    big = theorem_b1_experiment(3.0, 12, d, Budget(10, 15, 5))
    assert big.nu >= small.nu - 1e-15


def test_volterra_candidates_shapes():
    cands = volterra_candidates(6)
    assert all(c.shape == (6, 6) for c in cands)


def test_geometric_point_set():
    X = geometric_point_set(10, 0.8)
    assert X.n == 10
    assert 0.0 not in X.labels


def test_extrapolation_report():
    rep = extrapolation_experiment(n=32, trials=8, seed=1)
    assert rep.envelope > 0
    assert len(rep.per_trial) == 8
    rep2 = extrapolation_experiment(n=32, trials=8, seed=1)
    assert rep.envelope == rep2.envelope


# sha256 of phi_table(GeometricDiscretization(0.7, 3, variant, 33)) as built
# in one shot before the slabs
FROZEN_PHI_TABLE = {
    "B1": "8bec54309164c4bc957c593a77cd5a786628dfbcdbaed22e5296e6097800cccb",
    "B2": "cc6098015da42db097bc26233c0483576aa8c3091edca4bd22655dcada430237",
}


@pytest.mark.parametrize("variant", ["B1", "B2"])
def test_phi_table_equals_one_shot_bitwise(variant):
    n = 33
    d = GeometricDiscretization(0.7, 3, variant, n)
    tab = phi_table(d)
    i, j, l = np.indices((n, n, n)) + 1
    admissible = (i != j) & (j != l) if variant == "B1" else i != l
    one_shot = np.broadcast_to(lowerlab._phi_values(d, i, j, l), (n, n, n))
    assert tab.tobytes() == np.where(admissible, one_shot, 0.0).tobytes()
    assert hashlib.sha256(tab.tobytes()).hexdigest() == FROZEN_PHI_TABLE[variant]


# sha256 of phi_table(GeometricDiscretization(0.5, 40, variant, n)) as built
# before the tables were filled from phi_slab
FROZEN_PHI_TABLE_40 = {
    ("B1", 5): "feb8f3d6d57160567b06ce5c99bde2105b7d6448c7abe759399a265f8ac333c1",
    ("B1", 8): "9747345fe09d9b6a8e822b8ff8fb38960a7cfc66ecb4446890443a989a1345f6",
    ("B1", 13): "964f0a6057148be84b8d8a3e461448a53510c079c1986e45b6a621c9cf9cb467",
    ("B1", 64): "8600a9050dbb5281dcca882b83ad2b19d53e78d6ab6724473810f44d9f17854d",
    ("B1", 128): "d8a3f84bff68b7644360efcc872003def12df0f82f3d3a4248266f5153bfc4fb",
    ("B2", 5): "f0b645f74c3d0a9fc53aa12649ca87f33e4f6fbfe0bc3df3a32d22be4ca91138",
    ("B2", 8): "c5421963a99820ae75cc5a79573c1743b70b6c7ca0e2a537100b8d79ed6d303d",
    ("B2", 13): "8fb0d36a8b476c44eaa6d5d30b45873888ef19141da2f15039f2e960fa27beae",
    ("B2", 64): "92f552ab5ae1ed7e8164b309c0c61c93c0c591258f08569e0b93231c453fd738",
    ("B2", 128): "bc34e9f290a3cd1b0e78d4085bb0a9af97f7bb613dda35b3360cb65ac822b645",
}


@pytest.mark.parametrize("variant, n", sorted(FROZEN_PHI_TABLE_40))
def test_phi_table_from_slabs_frozen(variant, n):
    d = GeometricDiscretization(0.5, 40, variant, n)
    tab = phi_table(d)
    assert hashlib.sha256(tab.tobytes()).hexdigest() == FROZEN_PHI_TABLE_40[variant, n]
    assert lowerlab.phi_slab(d, slice(1, 4)).tobytes() == tab[1:4].tobytes()


def test_b1_b2_reports_frozen():
    # n = 128 reports as computed from a stored phi_table and a serial search
    b1 = theorem_b1_experiment(16.0, 128, GeometricDiscretization(0.5, 40, "B1", 128),
                               Budget(1, 10))
    assert b1 == B1Report(
        p=16.0, n=128, q=0.5, k=40, seed=0, nu=3.25412488676874,
        direct_value=5.106900001354235, implied_bound=5.106900001354233,
        factorized_value=5.1069000013603905, factorization_gap=6.155076448521868e-12)
    b2 = theorem_b2_experiment(1.1, 128, GeometricDiscretization(0.5, 40, "B2", 128),
                               Budget(1, 10))
    assert b2 == lowerlab.B2Report(
        p=1.1, n=128, q=0.5, k=40, seed=0, mu=2.6859652859834293,
        direct_value=2.6859652859820344, implied_bound=2.685965285982034,
        mplus_value=2.685965285983428, consistency_gap=1.3935519405094965e-12)


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_n3_builds_hold_no_n3_temporaries():
    # at n = 128 a complex n^3 table is 32 MB and a real one 16 MB; the
    # one-shot builds peaked at 212 MB (f^[2] table and action) and 81 MB (B1),
    # and the B1 experiment at 22.8 MB with a stored table
    assert _traced_peak_mb(lambda: extrapolation_experiment(n=128, trials=1)) < 64
    for variant in ("B1", "B2"):
        d = GeometricDiscretization(0.5, 40, variant, 128)
        assert _traced_peak_mb(lambda: phi_table(d)) < 32
    # the B1 experiment reads its table slab by slab: a stored one is 16 MB
    d = GeometricDiscretization(0.5, 40, "B1", 128)
    assert _traced_peak_mb(lambda: theorem_b1_experiment(16, 128, d, Budget(1, 10),
                                                         threads=1)) < 12


def test_action_on_real_table_makes_no_complex_copy():
    # the real B1 table is 16 MB at n = 128: a complex copy per call would
    # peak at 34 MB, the slabs alone take about 2.5 MB
    tab = phi_table(GeometricDiscretization(0.5, 40, "B1", 128))
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
            for _ in range(2))
    X = PointSet.integers(128)
    assert _traced_peak_mb(lambda: apply_bilinear(tab, X, a, b)) < 8
