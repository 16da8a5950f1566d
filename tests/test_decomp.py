import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from conftest import mp_divdiff

from schurlab.decomp import (_FORMULA_CHUNK, SectorPartition, a_symbol, a_tables, a_value,
                             a_values,
                             decomposition_residual, decomposition_residuals,
                             decomposition_tables, f2_table, f2_values, psi,
                             schur_decomposition_residual, sign1, smoothstep,
                             theta, two_var_tables)
from schurlab.divdiff import divided_difference
from schurlab.errors import (BadParameter, DiagonalQuery, NonFiniteNode, OriginQuery,
                             PoleHit)
from schurlab.functions import get_function
from schurlab.lowerlab import geometric_point_set
from schurlab.schur import PointSet

ALL_FUNS = ("square", "cube", "sin", "exp", "abs2")


@pytest.fixture(scope="module")
def P():
    return SectorPartition()


def random_triples(rng, count, span=3.0, min_spread=1e-6):
    out = []
    while len(out) < count:
        t = rng.uniform(-span, span, 3)
        if max(t) - min(t) >= min_spread:
            out.append(t)
    return out


def test_smoothstep_endpoints():
    assert smoothstep(-1.0) == 0.0 and smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0 and smoothstep(2.0) == 1.0
    mid = smoothstep(0.5)
    assert mid == pytest.approx(0.5)


def test_partition_of_unity(P, rng):
    phis = rng.uniform(0, 2 * math.pi, 10000)
    total = sum(P.theta_of_angle(j, phis) for j in (1, 2, 3))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_theta_even_and_homogeneous(P, rng):
    for _ in range(400):
        xi = rng.standard_normal(2)
        r = rng.uniform(0.1, 50.0)
        for j in (1, 2, 3):
            v = theta(j, xi, P)
            assert abs(v - theta(j, -xi, P)) <= 1e-12
            assert abs(v - theta(j, r * xi, P)) <= 1e-12
            assert 0.0 <= v <= 1.0


def test_theta_support_containment(P):
    # theta_j vanishes identically outside its sector family
    phis = np.linspace(0, 2 * math.pi, 10000, endpoint=False)
    for j in (1, 2, 3):
        vals = P.theta_of_angle(j, phis)
        inside = np.zeros_like(phis, dtype=bool)
        for a, b in P.arcs(j):
            inside |= np.mod(phis - a, 2 * math.pi) < (b - a)
        assert np.all(vals[~inside] == 0.0)


def test_theta_sector_membership(P):
    assert theta(1, (1.0, 1.0), P) == pytest.approx(1.0)
    assert theta(2, (1.0, 1.0), P) == 0.0
    assert theta(3, (1.0, 1.0), P) == 0.0
    xi = (math.cos(5 * math.pi / 8), math.sin(5 * math.pi / 8))
    assert theta(2, xi, P) == pytest.approx(1.0)


def test_theta_origin_query(P):
    with pytest.raises(OriginQuery):
        theta(1, (0.0, 0.0), P)


def test_psi_values_and_poles():
    assert psi(1, (1.0, 0.0, -1.0)) == pytest.approx(0.5)
    assert psi(2, (0.0, 1.0, 2.0)) == pytest.approx(2.0)
    t = (0.3, 1.4, -0.2)
    assert psi(1, t) + (1.0 - psi(1, t)) == pytest.approx(1.0)
    assert psi(2, t) == pytest.approx(psi(1, (t[2], t[0], t[1])))
    assert psi(3, t) == pytest.approx(psi(1, (t[1], t[2], t[0])))
    with pytest.raises(PoleHit):
        psi(1, (1.0, 0.5, 1.0))


def test_bounded_extension(P, rng):
    # sup over off-diagonal triples of |theta_j psi_j| stays under the
    # recorded epsilon bound
    bound = 1.0 / math.sin(2.0 * P.epsilon) + 1.0
    worst = 0.0
    for t in random_triples(rng, 4000):
        xi = (t[1] - t[0], t[2] - t[1])
        for j, pole in ((1, t[0] != t[2]), (2, t[2] != t[1]), (3, t[1] != t[0])):
            th = theta(j, xi, P) if (xi[0] or xi[1]) else 0.0
            if th > 0 and pole:
                worst = max(worst, th * abs(psi(j, t)))
    assert worst <= bound
    assert worst > 1.0  # the psi factors genuinely exceed 1 on the supports


def test_a_symbol_examples(P):
    assert a_symbol(1, (0.0, 1.0, 2.0), P) == pytest.approx(0.5)
    # support convention kills the psi pole: theta_2 vanishes at i = l triples
    assert a_symbol(3, (1.0, 5.0, 1.0), P) == 0.0
    with pytest.raises(DiagonalQuery):
        a_symbol(2, (1.0, 1.0, 1.0), P)
    for i in (0, 7):
        with pytest.raises(BadParameter, match="a_i index"):
            a_symbol(i, (0.0, 1.0, 2.0), P)


def test_a_symbol_odd(P, rng):
    for t in random_triples(rng, 500):
        for i in range(1, 7):
            assert a_symbol(i, t, P) + a_symbol(i, -t, P) == pytest.approx(0.0, abs=1e-12)


def test_pointwise_residual_all_functions(P, rng):
    triples = np.asarray(random_triples(rng, 3000))
    for name in ALL_FUNS:
        f = get_function(name)
        res = decomposition_residuals(f, triples, P)
        scale = 1.0 + np.abs(f2_values(f, triples[:, 0], triples[:, 1], triples[:, 2]))
        assert np.max(np.abs(res) / scale) <= 1e-10, name


def test_pointwise_residual_spec_instances(P):
    f = get_function("sin")
    assert abs(decomposition_residual(f, (0.1, 0.7, -0.4), P)) <= 1e-10
    fa = get_function("abs2")
    assert abs(decomposition_residual(fa, (1.0, -1.0, 2.0), P)) <= 1e-10
    fs = get_function("square")
    assert abs(decomposition_residual(fs, (0.2, 1.7, -0.9), P)) <= 1e-12


def test_f2_values_matches_engine(P, rng):
    for name in ALL_FUNS:
        f = get_function(name)
        v = np.sort(rng.uniform(-2, 2, 7))
        tab = f2_values(f, v[:, None, None], v[None, :, None], v[None, None, :])
        for i in range(7):
            for j in range(7):
                for l in range(7):
                    ref = divided_difference(f, (v[i], v[j], v[l]))
                    assert tab[i, j, l] == pytest.approx(ref, abs=1e-11), (name, i, j, l)


@pytest.mark.parametrize("name", ["sin", "exp", "cube", "abs2"])
def test_f2_values_equals_divided_difference_bitwise(name, rng):
    # both read the one Newton table: f2_values on whole arrays or on
    # scalars, divided_difference on the sorted scalar nodes
    f = get_function(name)
    t = rng.uniform(-3, 3, (300, 3))
    want = np.array([divided_difference(f, row) for row in t])
    assert f2_values(f, t[:, 0], t[:, 1], t[:, 2]).tobytes() == want.tobytes()
    for row, w in zip(t[:20], want):
        assert np.float64(f2_values(f, *row)).tobytes() == w.tobytes(), row


def test_two_var_tables(P, rng):
    f = get_function("sin")
    X = PointSet(tuple(np.sort(rng.uniform(-2, 2, 6))))
    phi, ring = two_var_tables(f, X)
    v = X.values
    for i in range(6):
        for j in range(6):
            assert phi[i, j] == pytest.approx(
                divided_difference(f, (v[i], v[j], v[j])), abs=1e-12)
            assert ring[i, j] == pytest.approx(
                divided_difference(f, (v[i], v[i], v[j])), abs=1e-12)


def test_a_tables_match_scalar(P):
    X = PointSet((-1.3, -0.2, 0.7, 2.1))
    tabs = a_tables(X, P)
    v = X.values
    for i in range(1, 7):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if a == b == c:
                        expected = 1.0 if i == 1 else 0.0
                    else:
                        expected = a_symbol(i, (v[a], v[b], v[c]), P)
                    assert tabs[i - 1][a, b, c] == pytest.approx(expected, abs=1e-13)


def test_operator_identity(P, rng):
    X = PointSet(tuple(np.cos((2 * np.arange(16) + 1) * np.pi / 32)[::-1] * 2.0))
    for name in ("square", "sin", "abs2"):
        f = get_function(name)
        tables = decomposition_tables(f, X, P)
        for _ in range(4):
            a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            res = schur_decomposition_residual(f, X, a, b, P, tables)
            assert res <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(b), name


def test_operator_identity_zero_input(P):
    X = PointSet.integers(5)
    f = get_function("sin")
    z = np.zeros((5, 5))
    assert schur_decomposition_residual(f, X, z, z, P) == 0.0


def test_epsilon_is_a_knob():
    for eps in (math.pi / 64, math.pi / 32, math.pi / 16):
        P = SectorPartition(epsilon=eps)
        f = get_function("sin")
        assert abs(decomposition_residual(f, (0.3, -0.9, 1.4), P)) <= 1e-10
    with pytest.raises(ValueError):
        SectorPartition(epsilon=1.0)


def test_sign1_convention():
    assert sign1(0.0) == 1.0
    assert sign1(-0.0) == 1.0
    np.testing.assert_array_equal(sign1(np.array([-2.0, 0.0, 3.0])), [-1.0, 1.0, 1.0])


def test_residuals_reject_diagonal_triples(P):
    f = get_function("sin")
    with pytest.raises(DiagonalQuery, match=r"\[\[0.5, 0.5, 0.5\]\]"):
        decomposition_residuals(f, [(0.1, 0.7, -0.4), (0.5, 0.5, 0.5)], P)
    with pytest.raises(DiagonalQuery):
        decomposition_residual(f, (0.5, 0.5, 0.5), P)
    # a_values still takes the diagonal, which a_tables overwrites
    tabs = a_tables(PointSet((-1.0, 0.5, 2.0)), P)
    assert all(np.all(np.isfinite(t)) for t in tabs)
    assert [t[1, 1, 1] for t in tabs] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("band", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_partition_rejects_bad_band(band):
    with pytest.raises(BadParameter, match="band must be positive and finite"):
        SectorPartition(band=band)


def test_partition_rejects_underflowing_normalizer():
    # every bump underflows to 0 for so wide a band, so theta would be 0/0
    P = SectorPartition(band=1e300)
    with pytest.raises(BadParameter, match="normalizing sum"):
        P.thetas(0.3)
    with pytest.raises(BadParameter, match="normalizing sum"):
        decomposition_residuals(get_function("sin"), [(0.1, 0.7, -0.4)], P)


# ----------------------------------------------------------------------------
# frozen values: the partition and the six a_i are evaluated once per angle,
# and every digit must match the per-sector evaluation they were recorded from.
# FROZEN_A_SYMBOL and FROZEN_RESIDUAL[square, sin, abs2] were re-recorded when
# the scalar a_symbol and decomposition_residual began to evaluate a_values
# (np.arctan2 in place of math.atan2, and -0.0 off the supports), after the
# new values passed the mpmath oracle below
# ----------------------------------------------------------------------------

FROZEN_THETA = {
    1: "2baa31c3561ff05932f7840697fc760984dfdbe32ea9d56de458a3799e54dbb9",
    2: "2e5e5b1c1939e3f56ac18d107108f2251092118008846aa02ddc95d6cba8ac23",
    3: "e89969c18e7cb7982b6ca3db5d5ed574a0ef968ec8b925e92d443ede164fee31",
}
FROZEN_A_SYMBOL = "a5f5a9206725e1f4a90123264d9100a6eeaefecd133fff1ecf6c1b84ecb04da0"
FROZEN_RESIDUAL = {
    "square": "48d11bf6b2f39474e970475e398e2d28e52ce3644ee5a507759e78d3c14121f6",
    "cube": "9d87a08411f5dd88a2f36efc9f8ac91b44d65d5e01f785a809db4fc7a9f5619d",
    "sin": "41227bb721874b15efa676ab6e95c4c805cf627303d5bd2532fa952f60683e52",
    "exp": "383b5d26ff7d20078b155695a240aa2bb48dcab1d83d017ed82c5ff96c3281bd",
    "abs2": "3a9de8a432ea730ec36022acc8daeb87cef0d75e1d373177b7edec59e3fcfabb",
}
FROZEN_A_TABLES = "2bc2d9ec13a45765d8c254059fbb245fc1d441b3d936615588a254fc5cb0d041"
FROZEN_DECOMPOSITION_TABLES = {
    "square": "99a1c3edaad89753b29dcf2e7a44720b6231c838c05c1b8bd90c9b2039cd901c",
    "cube": "de63a01cae78de81fce0bff924dddbb86dc5100b25cc40b0c5ca6974c7e9638a",
    "sin": "c32b8dce1aba4e4898114aa8c159e218483b10dc8e8b73a07ee17ce89cf9e950",
    "exp": "65544ac45e63a0f7549c64560dce887f1bc53fe74c39f95fec4648da59026272",
    "abs2": "a0d7aa5b529a766c17b741c0fccecc9a0d26eee7f426ba576b83c62c0ab66ccc",
}


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _frozen_angles():
    return np.random.default_rng(6).uniform(0.0, 2 * math.pi, 10000)


def _frozen_triples():
    return random_triples(np.random.default_rng(6), 50)


# ----------------------------------------------------------------------------
# a 40-digit oracle: the smoothstep partition, psi and the sign factors
# restated in mpmath from the module docstring, with f^[2] from mp_divdiff
# ----------------------------------------------------------------------------

ORACLE_DPS = 40


def _mp_smoothstep(t):
    if t <= 0:
        return mp.mpf(0)
    if t >= 1:
        return mp.mpf(1)
    a, b = mp.exp(-1 / t), mp.exp(-1 / (1 - t))
    return a / (a + b)


def _mp_thetas(phi, P):
    """theta_j = bump_j / sum_k bump_k, each bump a sum over the two arcs
    (a, b) and (a + pi, b + pi) of the family, pulled epsilon/4 inside."""
    e, band = mp.mpf(P.epsilon), mp.mpf(P.band)
    inset = e / 4
    base = ((-2 * e, mp.pi / 2 + 2 * e), (mp.pi / 2 + e, 3 * mp.pi / 4 + e),
            (3 * mp.pi / 4 - e, mp.pi - e))
    bumps = []
    for a, b in base:
        total = mp.mpf(0)
        for shift in (0, mp.pi):
            d = (phi - a - shift) % (2 * mp.pi)
            total += _mp_smoothstep((d - inset) / band) \
                * _mp_smoothstep((b - a - inset - d) / band)
        bumps.append(total)
    return [bump / sum(bumps) for bump in bumps]


def _mp_signs(l0, l1, l2):
    """e_1, e_2, e_3: the signs of l1 - l0, l2 - l1, l2 - l0 with sign(0) = 1."""
    return [1 if d >= 0 else -1 for d in (l1 - l0, l2 - l1, l2 - l0)]


def _mp_a(l0, l1, l2, P):
    """a_1 ... a_6 at an off-diagonal triple of mpf values."""
    th = _mp_thetas(mp.atan2(l2 - l1, l1 - l0), P)
    e1, e2, e3 = _mp_signs(l0, l1, l2)

    def th_psi(j, num, den):  # theta_j psi_j and theta_j (1 - psi_j), 0 off supp
        if th[j] == 0:
            return mp.mpf(0), mp.mpf(0)
        return th[j] * num / den, th[j] * (1 - num / den)

    t1, c1 = th_psi(0, l0 - l1, l0 - l2)
    t2, c2 = th_psi(1, l2 - l0, l2 - l1)
    t3, c3 = th_psi(2, l1 - l2, l1 - l0)
    return [e1 * t1, e2 * c1, e3 * t2, e1 * c2, e2 * t3, e3 * c3]


def _mp_residual(name, l0, l1, l2, P):
    """(f^[2] minus its six-term reconstruction, f^[2]) at mpf values."""
    def f2(*nodes):
        return mp_divdiff(name, nodes, dps=ORACLE_DPS, as_float=False)

    a, (e1, e2, e3) = _mp_a(l0, l1, l2, P), _mp_signs(l0, l1, l2)
    lhs = f2(l0, l1, l2)
    rhs = (a[0] * e1 * f2(l0, l1, l1) + a[1] * e2 * f2(l1, l1, l2)
           + a[2] * e3 * f2(l0, l0, l2) + a[3] * e1 * f2(l0, l0, l1)
           + a[4] * e2 * f2(l1, l2, l2) + a[5] * e3 * f2(l0, l2, l2))
    return lhs - rhs, lhs


def test_a_values_against_mp_oracle(P):
    triples = np.asarray(_frozen_triples())
    got = np.array(a_values(triples[:, 0], triples[:, 1], triples[:, 2], P)).T
    with mp.workdps(ORACLE_DPS):
        want = np.array([[float(v) for v in _mp_a(*map(mp.mpf, t), P)] for t in triples])
    assert np.max(np.abs(got - want)) <= 2e-14


@pytest.mark.parametrize("name", ALL_FUNS)
def test_decomposition_residuals_against_mp_oracle(P, name):
    triples = _frozen_triples()
    got = decomposition_residuals(get_function(name), triples, P)
    with mp.workdps(ORACLE_DPS):
        for t, r in zip(triples, got):
            want, lhs = _mp_residual(name, *map(mp.mpf, t), P)
            # the six-term identity is exact, so the oracle's own residual
            # checks its restated a_i
            assert abs(want) <= mp.mpf("1e-30") * (1 + abs(lhs)), t
            assert abs(r - float(want)) <= 4e-15 * (1 + float(abs(lhs))), t


@pytest.mark.parametrize("j", [1, 2, 3])
def test_theta_of_angle_frozen(P, j):
    assert _sha256(P.theta_of_angle(j, _frozen_angles())) == FROZEN_THETA[j]


def test_thetas_equal_theta_of_angle_bitwise(P):
    phis = _frozen_angles()
    ths = P.thetas(phis)
    assert len(ths) == 3
    for j in (1, 2, 3):
        assert ths[j - 1].tobytes() == P.theta_of_angle(j, phis).tobytes()
    for phi in phis[:200]:
        assert tuple(P.thetas(phi)) == tuple(P.theta_of_angle(j, phi) for j in (1, 2, 3))


def _thetas_by_arcs(P, phi):
    """The partition with every angle through the formula: both arcs of each
    sector at phi and at phi + pi, summed arc by arc, over one normalizing sum."""
    phi = np.asarray(phi, dtype=float)
    inset = P.epsilon / 4

    def bump(j, psi):
        out = np.zeros_like(psi)
        for a, b in P.arcs(j):
            d = np.mod(psi - a, 2 * math.pi)
            out = out + smoothstep((d - inset) / P.band) \
                * smoothstep((b - a - inset - d) / P.band)
        return out

    nums = [0.5 * (bump(j, phi) + bump(j, phi + math.pi)) for j in (1, 2, 3)]
    den = nums[0] + nums[1] + nums[2]
    if np.any(den <= 0.0):
        raise BadParameter("normalizing sum 0")
    return [num / den for num in nums]


def _theta_bytes(thetas, phi):
    """Bytes of the three theta_j at phi, or the name of what they raise."""
    try:
        return [np.asarray(t).tobytes() for t in thetas(phi)]
    except BadParameter:
        return "BadParameter"


@pytest.mark.parametrize("epsilon, band", [(math.pi / 32, None), (0.1, None),
                                           (math.pi / 32, 0.001), (math.pi / 32, 0.3),
                                           (math.pi / 32, 2.0)])
def test_thetas_equal_formula_bitwise_at_piece_edges(epsilon, band):
    # thetas runs the formula on the ramps only and takes the flat pieces
    # from a table: probe every piece edge from both sides, one period away,
    # on the other symmetric copy, and past the range the table serves
    P = SectorPartition(epsilon, band)
    edges = np.concatenate([[0.0], P._pieces[0]])
    near = [edges + dx for dx in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9)]
    near += [np.nextafter(edges, math.inf), np.nextafter(edges, -math.inf)]
    probes = np.concatenate([x + shift for x in near
                             for shift in (0.0, -math.pi, 2 * math.pi, -2 * math.pi)])
    v = np.linspace(-2.0, 2.0, 64)
    table = np.arctan2(v[None, None, :] - v[None, :, None], v[None, :, None] - v[:, None, None])
    for phi in (probes, table, table - math.pi, np.float64(0.3), np.array(-1e-17), 1e17,
                -1e17, np.array([1e17, 0.3, -1e-17, 4 * math.pi, -4 * math.pi])):
        want = _theta_bytes(lambda x: _thetas_by_arcs(P, x), phi)
        assert _theta_bytes(P.thetas, phi) == want
    # a NaN angle raised BadParameter "normalizing sum 0 at angle nan", blaming the band
    with pytest.raises(NonFiniteNode, match=r"theta needs finite input, got \[nan\]"):
        P.thetas(np.array([0.3, math.nan]))


def test_normalizing_sum_error_names_the_first_bad_angle():
    # the ramp angles go through the formula in chunks; the first bad angle
    # sits in the second chunk, a later one in the third.  At band 50 every
    # angle is on a ramp, and the sum underflows to 0 at 1.68 and 4.8 but
    # not at 0.3 (6e-61).  These bad angles were -inf and nan, which now
    # raise NonFiniteNode (test_non_finite_angles_raise_non_finite_node)
    P = SectorPartition(band=50.0)
    phi = np.full(3 * _FORMULA_CHUNK, 0.3)
    phi[_FORMULA_CHUNK + 7] = 1.68
    phi[2 * _FORMULA_CHUNK + 3] = 4.8
    with pytest.raises(BadParameter, match="normalizing sum 0 at angle 1.68, band 50.0"):
        P.thetas(phi)


def test_non_finite_angles_raise_non_finite_node(P):
    # a_values returned NaN a_i at (0, inf, 1) with only RuntimeWarnings, and
    # thetas raised BadParameter "normalizing sum 0", which blamed the band;
    # at band 50 every angle is on a ramp, so phi fills three chunks; the
    # non-finite angles of the first chunk that holds any are named
    phi = np.full(3 * _FORMULA_CHUNK, 0.3)
    phi[_FORMULA_CHUNK + 7] = -math.inf
    phi[2 * _FORMULA_CHUNK + 3] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteNode, match="a_values"):
            a_values(0.0, math.inf, 1.0, P)
        with pytest.raises(NonFiniteNode, match="a_values"):
            a_values(np.array([0.0, 0.5]), 1.0, np.array([2.0, math.nan]), P)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteNode, match=rf"theta needs finite input, got \[{bad}\]"):
                P.thetas(bad)
        with pytest.raises(NonFiniteNode, match=r"got \[-inf\]$"):
            SectorPartition(band=50.0).thetas(phi)


def test_a_symbol_frozen(P):
    vals = np.array([[a_symbol(i, t, P) for i in range(1, 7)] for t in _frozen_triples()])
    assert _sha256(vals) == FROZEN_A_SYMBOL


@pytest.mark.parametrize("name", ALL_FUNS)
def test_decomposition_residual_frozen(P, name):
    f = get_function(name)
    vals = np.array([decomposition_residual(f, t, P) for t in _frozen_triples()])
    assert _sha256(vals) == FROZEN_RESIDUAL[name]


def test_a_tables_frozen(P):
    X = PointSet(tuple(np.linspace(-2.0, 2.0, 12)))
    assert _sha256(*a_tables(X, P)) == FROZEN_A_TABLES


@pytest.mark.parametrize("name", ALL_FUNS)
def test_decomposition_tables_frozen(P, name):
    X = PointSet(tuple(np.linspace(-2.0, 2.0, 12)))
    t = decomposition_tables(get_function(name), X, P)
    # the digests hash complex views of the real f2 / eps tables, the form
    # in which they were recorded
    assert all(t[k].dtype == float for k in ("f2", "eps_phi", "eps_ring"))
    digest = _sha256(t["f2"].astype(complex), *t["a"], t["eps_phi"].astype(complex),
                     t["eps_ring"].astype(complex))
    assert digest == FROZEN_DECOMPOSITION_TABLES[name]


@pytest.mark.parametrize("j", [0, 4, -1])
def test_sector_index_is_validated(P, j):
    with pytest.raises(BadParameter, match="sector index must be 1, 2 or 3"):
        P.theta_of_angle(j, 2.0)
    with pytest.raises(BadParameter, match="sector index must be 1, 2 or 3"):
        theta(j, (1.0, -1.0), P)
    with pytest.raises(BadParameter, match="sector index must be 1, 2 or 3"):
        psi(j, (0.0, 1.0, 2.0))  # a bare KeyError before


# ----------------------------------------------------------------------------
# the f^[2] table built in row slabs
# ----------------------------------------------------------------------------

# sha256 of the one-shot table (sorted nodes, then astype(complex)) that
# decomposition_tables and extrapolation_experiment built before the slabs,
# on geometric_point_set(33): four whole slabs and one partial one
FROZEN_F2_TABLE = {
    "abs2": "df9f1b157cec41fea54b30b5a4a303c2e884d58feda98458391befc87b04324f",
    "sin": "ec3d2f2bb678bc2e076fb98d7929f2af5cd2655233058df5925b8f0965c36c9c",
    "exp": "6ec8af48112d492b4ecc482726ba6141a80241af2e4150dfecc7032c8d824691",
    "cube": "ec4fab9b9a6565f1c464eedd0b7b1bf85e3abdce686711b7fbc4588215842ec2",
}


@pytest.mark.parametrize("name", sorted(FROZEN_F2_TABLE))
def test_f2_table_equals_one_shot_bitwise(name):
    f = get_function(name)
    v = geometric_point_set(33).values
    tab = f2_table(f, v)
    one_shot = f2_values(f, v[:, None, None], v[None, :, None], v[None, None, :])
    assert tab.dtype == float and tab.shape == (33, 33, 33)
    assert tab.tobytes() == one_shot.tobytes()
    assert _sha256(tab.astype(complex)) == FROZEN_F2_TABLE[name]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_f2_values_rejects_non_finite_nodes(P, bad):
    f = get_function("sin")
    with pytest.raises(NonFiniteNode):
        f2_values(f, 0.1, bad, 0.5)
    with pytest.raises(NonFiniteNode):
        f2_values(f, np.array([0.1, 0.2]), 0.3, np.array([0.5, bad]))
    # the vectorized residual used to report 0.0 where the scalar one raises
    with pytest.raises(NonFiniteNode):
        decomposition_residual(f, (0.1, bad, 0.5), P)
    with pytest.raises(NonFiniteNode):
        decomposition_residuals(f, [(0.1, 0.7, -0.4), (0.1, bad, 0.5)], P)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_scalar_queries_reject_non_finite_input(P, bad, slot):
    # psi used to return nan, a_symbol nan with RuntimeWarnings at inf, and
    # a_symbol and theta a BadParameter on the partition at nan
    triple = [0.0, 1.0, 2.5]
    triple[slot] = bad
    with pytest.raises(NonFiniteNode, match="psi_1"):
        psi(1, triple)
    with pytest.raises(NonFiniteNode, match="a_3"):
        a_symbol(3, triple, P)
    if slot < 2:
        xi = [1.0, -0.5]
        xi[slot] = bad
        with pytest.raises(NonFiniteNode, match="theta"):
            theta(2, xi, P)


def test_a_value_is_its_a_values_entry_bitwise_at_zero_gaps(P):
    # every triple over these coordinates: psi poles, full diagonals and signed
    # zeros, in the gaps and in the a_i off the supports
    coords = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    l0, l1, l2 = (g.ravel() for g in np.meshgrid(coords, coords, coords, indexing="ij"))
    six = a_values(l0, l1, l2, P)
    for i in range(1, 7):
        one = a_value(i, l0, l1, l2, P)
        assert one.dtype == six[i - 1].dtype and one.tobytes() == six[i - 1].tobytes(), i
    assert any(np.any((a == 0) & np.signbit(a)) for a in six)  # a -0.0 is among them
    assert np.any((l1 - l0 == 0) | (l2 - l1 == 0) | (l2 - l0 == 0))


@pytest.mark.parametrize("epsilon, band", [(math.pi / 32, None), (0.3, 0.05)])
def test_arc_table_is_the_arcs(epsilon, band):
    P = SectorPartition(epsilon, band)
    start, length = P._arc_table
    assert start.shape == length.shape == (3, 2, 1)
    for j in (1, 2, 3):
        for arc, (lo, hi) in enumerate(P.arcs(j)):
            assert start[j - 1, arc, 0] == lo and length[j - 1, arc, 0] == hi - lo
