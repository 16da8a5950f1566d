import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from schurlab.decomp import f2_table
from schurlab.errors import BadParameter, IndexConstraint, SchurLabError
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

from conftest import mp_divdiff, mp_phi


def test_discretization_validation():
    with pytest.raises(ValueError):
        GeometricDiscretization(1.5, 10, "B1", 4)
    with pytest.raises(ValueError):
        GeometricDiscretization(0.5, 10, "B3", 4)
    with pytest.raises(SchurLabError):  # the CLI maps it to exit status 2
        GeometricDiscretization(0.5, 0, "B1", 4)
    # the nodes q^{k i} underflow far below the smallest double; the factors do not
    deep = GeometricDiscretization(0.5, 40, "B1", 128)
    assert phi_symbol(deep, 128, 127, 128) == pytest.approx(
        mp_phi(0.5, 40, "B1", 128, 127, 128), abs=1e-15)


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


def _limit_table_formula(variant, n):
    """The broadcast limit table as limit_table built it before it shared
    _limit_values with limit_symbol."""
    idx = np.arange(1, n + 1)
    i, j, l = idx[:, None, None], idx[None, :, None], idx[None, None, :]
    if variant == "B1":
        tab = np.where((j < i) & (j < l), -1.0, 1.0)
        return np.where((j == i) | (j == l), 0.0, tab)
    tab = np.where(i < l, 1.0, np.where(l < i, -1.0, 0.0))
    return np.broadcast_to(tab, (n, n, n)).copy()


@pytest.mark.parametrize("variant", ["B1", "B2"])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_limit_table_equals_broadcast_formula(variant, n):
    tab = limit_table(variant, n)
    ref = _limit_table_formula(variant, n)
    assert tab.shape == ref.shape and tab.dtype == ref.dtype
    assert np.array_equal(tab, ref)
    for i, j, l in np.ndindex(n, n, n):
        if tab[i, j, l]:
            assert limit_symbol(variant, i + 1, j + 1, l + 1) == tab[i, j, l]


def test_unknown_variant_is_bad_parameter():
    # limit_table used to return the B2 table for any variant but "B1"
    with pytest.raises(BadParameter, match="B3"):
        limit_symbol("B3", 1, 2, 3)
    with pytest.raises(BadParameter, match="B3"):
        limit_table("B3", 4)


def test_limit_convergence():
    for variant in ("B1", "B2"):
        rep = limit_convergence_report(GeometricDiscretization(0.5, 40, variant, 5))
        assert rep.max_discrepancy <= 1e-3
        assert rep.max_discrepancy <= rep.exponent_gap_bound * (1 + 1e-6)
        tight = limit_convergence_report(GeometricDiscretization(0.5, 60, variant, 2))
        assert tight.max_discrepancy <= 1e-15


def _oracle_discrepancy(q, k, variant, n):
    """Max |phi - limit| over the admissible triples, at 60 digits."""
    worst = mp.mpf(0)
    for i, j, l in np.ndindex(n, n, n):
        i, j, l = i + 1, j + 1, l + 1
        if _admissible(variant, i, j, l):
            phi = mp_phi(q, k, variant, i, j, l, as_float=False)
            with mp.workdps(60):
                worst = max(worst, abs(phi - limit_symbol(variant, i, j, l)))
    return worst


@pytest.mark.parametrize("variant", ["B1", "B2"])
@pytest.mark.parametrize("q, k, n", [(0.5, 40, 5), (0.8, 3, 6), (0.9, 1, 6)])
def test_limit_convergence_matches_oracle(variant, q, k, n):
    # each distance is taken from the factors, without the cancellation of
    # phi - limit near +-1
    rep = limit_convergence_report(GeometricDiscretization(q, k, variant, n))
    assert rep.max_discrepancy == pytest.approx(float(_oracle_discrepancy(q, k, variant, n)),
                                                rel=1e-14)
    if k == 40:  # 2^-39 for B2; for B1 the exact value lies 1.4e-12 relative below 2^-38
        assert rep.max_discrepancy < rep.exponent_gap_bound


def _n3_b1_discrepancy(d):
    """The B1 report's maximum from the whole (n, n, n) distance array."""
    P, Q, _ = lowerlab._b1_factors(d)
    pi, pl = P[:, :, None], P.T[None]
    dist = np.where(limit_table("B1", d.n) < 0, 2.0 * (pi + pl - pi * pl),
                    2.0 * Q[:, :, None] * Q.T[None])
    return float(np.max(dist))


@pytest.mark.parametrize("q", [0.5, 0.8, 0.99])
@pytest.mark.parametrize("k, n", [(1, 2), (3, 5), (40, 6), (1, 33), (40, 128)])
def test_b1_limit_report_matches_n3_reference(q, k, n):
    d = GeometricDiscretization(q, k, "B1", n)
    assert limit_convergence_report(d).max_discrepancy == _n3_b1_discrepancy(d)


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
    for n in (1, 0):
        with pytest.raises(BadParameter):
            volterra_matrix(n)


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


@pytest.mark.parametrize("run, variant", [(theorem_b1_experiment, "B1"),
                                          (theorem_b2_experiment, "B2")])
def test_experiment_size_must_match_its_discretization(run, variant):
    # ran silently at n = 6, rebuilding the discretization at that size
    with pytest.raises(BadParameter, match="n = 6"):
        run(2.0, 6, GeometricDiscretization(0.5, 40, variant, 4), Budget(1, 2))


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
    # q <= 0 interleaves the signs, which the sign blocks of the action need split
    for q in (-0.5, 0.0, 1.0, 1.5, float("nan"), float("inf")):
        with pytest.raises(BadParameter):
            geometric_point_set(10, q)


def test_extrapolation_report():
    rep = extrapolation_experiment(n=32, trials=8, seed=1)
    assert rep.envelope > 0
    assert len(rep.per_trial) == 8
    rep2 = extrapolation_experiment(n=32, trials=8, seed=1)
    assert rep.envelope == rep2.envelope
    # one node: f^[2] is 0 on the full diagonal, so the action is exactly 0
    assert extrapolation_experiment(n=1, trials=3).envelope == 0.0


# envelope and per-trial values as computed from the stored f^[2] table
FROZEN_EXTRAPOLATION = {
    (64, 10, 0): (0.16457411016098217, [
        0.1629262851601017, 0.1601017604061766, 0.16457411016098217,
        0.16260718489805012, 0.162010923634983, 0.16384719614530102, 0.1617607739217124,
        0.16446821249725624, 0.16268204219500124, 0.16375963870574156,
    ]),
    (64, 10, 1): (0.16342795348733474, [
        0.16340835524822173, 0.16083835129246943, 0.16302535027581924,
        0.16183465511138256, 0.16212749065134735, 0.16195541263236993,
        0.16342795348733474, 0.1629719120131612, 0.1625353843709364,
        0.16189158741560733,
    ]),
    (128, 10, 0): (0.15188781702475593, [
        0.15110568119714637, 0.15031581146460232, 0.15037924089334767,
        0.15047940240930374, 0.15188781702475593, 0.1510480353711853,
        0.15015272584577385, 0.15150544370900482, 0.15054350377058004,
        0.15088048992882216,
    ]),
    (128, 10, 1): (0.15171840613137422, [
        0.15025627021726895, 0.1507400084356479, 0.15135246920582493,
        0.1503259045406504, 0.15150356823401612, 0.15125590872744854,
        0.15112326385211816, 0.15153810123433342, 0.15136500722460422,
        0.15171840613137422,
    ]),
    (128, 50, 0): (0.15201986313161295, [
        0.15110568119714637, 0.15031581146460232, 0.15037924089334767,
        0.15047940240930374, 0.15188781702475593, 0.1510480353711853,
        0.15015272584577385, 0.15150544370900482, 0.15054350377058004,
        0.15088048992882216, 0.15148494745679653, 0.15056978192045106,
        0.15139153123649052, 0.15112887053044322, 0.1512257734588442,
        0.15078343948233167, 0.1504039626197398, 0.15056943129674533,
        0.15093580013997177, 0.15122927025902333, 0.1503589443101714,
        0.15045348535395392, 0.15080418047187077, 0.15055934415937425,
        0.1504830804030517, 0.15050264299689126, 0.15201986313161295, 0.150806119018461,
        0.15122298200754652, 0.15037041433840018, 0.15119421447935896,
        0.15086901885873433, 0.15078555406238336, 0.15089311029117664,
        0.15098887048421622, 0.15137902341279075, 0.15050555152995773,
        0.15071412054146013, 0.15139907113627946, 0.15102840224712857,
        0.1512650573351277, 0.15073964458730774, 0.15079237420769226,
        0.15094381745177368, 0.1511488268369781, 0.14976636862825693,
        0.15037532364015482, 0.1500556062066891, 0.1513885871175748,
        0.15044612460733134,
    ]),
}


@pytest.mark.parametrize("n, trials, seed", sorted(FROZEN_EXTRAPOLATION))
def test_extrapolation_frozen(n, trials, seed):
    envelope, per_trial = FROZEN_EXTRAPOLATION[n, trials, seed]
    rep = extrapolation_experiment(n, trials, seed)
    assert rep.envelope == pytest.approx(envelope, rel=1e-12, abs=0)
    np.testing.assert_allclose(rep.per_trial, per_trial, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33, 64, 128])
def test_abs2_f2_action_equals_table_action(n):
    rng = np.random.default_rng(n)
    for q in (0.5, 0.8):
        X = geometric_point_set(n, q)
        a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(2))
        want = apply_bilinear(f2_table(get_function("abs2"), X.values), X, a, b)
        got = lowerlab._abs2_f2_action(X.values, a, b)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), q


def test_abs2_f2_action_entries_match_oracle():
    # at q = 0.95 the nodes crowd and the table's divided differences lose
    # digits (3e-14 here); the closed form keeps them.  The action on
    # a = column j of ones, b = row j of ones is C_il = f^[2](v_i, v_j, v_l).
    n = 16
    v = geometric_point_set(n, 0.95).values
    for j in range(n):
        a = np.zeros((n, n), dtype=complex)
        a[:, j] = 1.0
        got = lowerlab._abs2_f2_action(v, a, a.T.copy())
        assert np.all(got.imag == 0.0)
        assert got[j, j] == 0.0
        for i in range(n):
            for l in range(n):
                if len({i, j, l}) == 3:
                    want = mp_divdiff("abs2", (v[i], v[j], v[l]))
                    assert got[i, l].real == pytest.approx(want, abs=1e-15), (i, j, l)


def _admissible(variant, i, j, l):
    return (i != j) & (j != l) if variant == "B1" else i != l


def _assert_matches_oracle(d, tab, samples=200):
    """|phi - oracle| <= 1e-15 at sampled admissible triples and at every
    triple of unit gaps, where phi lies farthest from its limit +-1; there
    phi_symbol gives the table entry bitwise."""
    n = d.n
    rng = np.random.default_rng([n, d.k])
    ar = np.arange(1, n + 1)
    near = [(j + s, j, j + t) for j in ar for s in (-1, 1) for t in (-1, 1)] \
        if d.variant == "B1" else [(i, 1, i + s) for i in ar for s in (-1, 1)]
    triples = [tuple(int(v) for v in t) for t in rng.integers(1, n + 1, (samples, 3))]
    triples += [t for t in near if min(t) >= 1 and max(t) <= n]
    for i, j, l in triples:
        if not _admissible(d.variant, i, j, l):
            continue
        got = tab[i - 1, j - 1, l - 1]
        assert got == phi_symbol(d, i, j, l)
        assert abs(got - mp_phi(d.q, d.k, d.variant, i, j, l)) <= 1e-15, (i, j, l)


@pytest.mark.parametrize("variant", ["B1", "B2"])
def test_phi_table_equals_one_shot_bitwise(variant):
    # the row-slab fill against one broadcast of the closed form
    n = 33
    d = GeometricDiscretization(0.7, 3, variant, n)
    tab = phi_table(d)
    i, j, l = np.indices((n, n, n)) + 1
    if variant == "B1":
        p_ij, q_ij = lowerlab._gaps(d, i, j)
        p_jl, q_jl = lowerlab._gaps(d, j, l)
        one_shot = p_ij + q_ij * (q_jl - p_jl)
    else:
        one_shot = lowerlab._b2_symbol(d, i, l)
    assert tab.tobytes() == np.where(_admissible(variant, i, j, l), one_shot, 0.0).tobytes()
    _assert_matches_oracle(d, tab)


# sha256 of phi_table(GeometricDiscretization(0.5, 40, variant, n)) as built
# from the closed-form factors
FROZEN_PHI_TABLE_40 = {
    ("B1", 5): "156fbb178c4b902fe488d7421455827216d6c8da593ebb0b8dbdb8945bd91a23",
    ("B1", 8): "1f32c78d79aa68b30e766dc6e3a86fb3bda8c8cc274ade47810d2dfcf6a9698e",
    ("B1", 13): "1bd4706f66153a923ebd306c59d1e1e219087838cc1a7c1f8db6bd4ffb0996df",
    ("B1", 64): "6f23f26b8a2aa5199f3f237882bdde7f703bc99013275822a75511481b54b5a6",
    ("B1", 128): "9762ed97e5935b3d2a7b5d81c3a68c6b799e45a40c408743bce8d09137dd0e9d",
    ("B2", 5): "d4c0c2551bca199ec18e08d35aacfa3a1429b344c6eec63a45f2cb95dda6bce9",
    ("B2", 8): "d45844ffced05c3095a823151efe34a00077ebc95bd47193a9b3e75d9d6195fa",
    ("B2", 13): "128d1f743250d662b60527d5d32d3ed3bd6a320cc281f0444f96ffc5bebedce4",
    ("B2", 64): "9d19e333f88265e3a06584908735dd46dd261a31c100ecef3ea7c6bfb23f6d95",
    ("B2", 128): "7a9db43d6382616a7af9c2f6c934ca1f67e2e1423eba63b6b9127c7c7576c2ba",
}


@pytest.mark.parametrize("variant, n", sorted(FROZEN_PHI_TABLE_40))
def test_phi_table_from_slabs_frozen(variant, n):
    d = GeometricDiscretization(0.5, 40, variant, n)
    tab = phi_table(d)
    _assert_matches_oracle(d, tab)
    assert hashlib.sha256(tab.tobytes()).hexdigest() == FROZEN_PHI_TABLE_40[variant, n]


@pytest.mark.parametrize("variant", ["B1", "B2"])
@pytest.mark.parametrize("n", [5, 8, 33, 64])
def test_phi_action_equals_table_action(variant, n):
    rng = np.random.default_rng([n, variant == "B1"])
    X = PointSet.integers(n)
    for q in (0.5, 0.7, 0.9):
        for k in (1, 3, 40):
            d = GeometricDiscretization(q, k, variant, n)
            a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(2))
            want = apply_bilinear(phi_table(d), X, a, b)
            got = lowerlab.phi_action(d, a, b)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (q, k)


def test_b1_b2_reports_frozen():
    # n = 128 reports as computed from a stored phi_table before the actions
    # were factored: values within 1e-12 relative, the gaps, differences of
    # near-equal numbers, within 1e-13
    b1 = theorem_b1_experiment(16.0, 128, GeometricDiscretization(0.5, 40, "B1", 128),
                               Budget(1, 10))
    _assert_report_near(b1, B1Report(
        p=16.0, n=128, q=0.5, k=40, seed=0, nu=3.25412488676874,
        direct_value=5.106900001354235, implied_bound=5.106900001354233,
        factorized_value=5.1069000013603905, factorization_gap=6.155076448521868e-12),
        "factorization_gap")
    b2 = theorem_b2_experiment(1.1, 128, GeometricDiscretization(0.5, 40, "B2", 128),
                               Budget(1, 10))
    _assert_report_near(b2, lowerlab.B2Report(
        p=1.1, n=128, q=0.5, k=40, seed=0, mu=2.6859652859834293,
        direct_value=2.6859652859820344, implied_bound=2.685965285982034,
        mplus_value=2.685965285983428, consistency_gap=1.3935519405094965e-12),
        "consistency_gap")


def _assert_report_near(got, frozen, gap):
    for name, want in vars(frozen).items():
        value = getattr(got, name)
        if name == gap:
            assert value == pytest.approx(want, abs=1e-13), name
        elif isinstance(want, float):
            assert value == pytest.approx(want, rel=1e-12), name
        else:
            assert value == want, name


def test_b1_experiment_leaves_scipy_special_unimported():
    # importing scipy.special costs about 6 MB of peak RSS, beyond the
    # benchmark's 5% bound; the factors compute expit in numpy
    code = ("import sys; from schurlab.schur import Budget; from schurlab.lowerlab import "
            "GeometricDiscretization as G, theorem_b1_experiment as b1; "
            "b1(2.0, 16, G(0.5, 40, 'B1', 16), Budget(1, 5)); "
            "print('scipy.special' in sys.modules)")
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_n3_builds_hold_no_n3_temporaries(monkeypatch):
    # at n = 128 a complex n^3 table is 32 MB and a real one 16 MB; the
    # one-shot builds peaked at 212 MB (f^[2] table and action) and 81 MB (B1),
    # and the B1 experiment at 22.8 MB with a stored table.  The extrapolation
    # action works on n x n blocks (1.6 MB); its f^[2] table alone was 16 MB
    assert _traced_peak_mb(lambda: extrapolation_experiment(n=128, trials=1)) < 4
    for variant in ("B1", "B2"):
        d = GeometricDiscretization(0.5, 40, variant, 128)
        assert _traced_peak_mb(lambda: phi_table(d)) < 32
    # the B1 experiment builds no table: a stored one is 16 MB
    d = GeometricDiscretization(0.5, 40, "B1", 128)
    monkeypatch.setenv("SCHURLAB_THREADS", "1")
    assert _traced_peak_mb(lambda: theorem_b1_experiment(16, 128, d, Budget(1, 10))) < 12
    # the B1 limit report takes column maxima of P and Q: it peaked at 50.5 MB
    # with its n^3 distance arrays
    assert _traced_peak_mb(lambda: limit_convergence_report(d)) < 2


def test_action_on_real_table_makes_no_complex_copy():
    # the real B1 table is 16 MB at n = 128: a complex copy per call would
    # peak at 34 MB, the slabs alone take about 2.5 MB
    tab = phi_table(GeometricDiscretization(0.5, 40, "B1", 128))
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
            for _ in range(2))
    X = PointSet.integers(128)
    assert _traced_peak_mb(lambda: apply_bilinear(tab, X, a, b)) < 8
