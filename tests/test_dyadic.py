import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from schurlab.dyadic import (Cube, DyadicSystem, ShiftSpec, StepFunction,
                             average, bk_bound_check, carleson_norm,
                             haar, haar_cell_values,
                             haar_reconstruction, inner, lp_schatten_norm,
                             martingale_difference, paraproduct_apply,
                             random_admissible_spec, rotate_spec, shift_apply,
                             shift_norm_probe, trace_pairing, trilinear_form)
from schurlab.errors import (BadBudget, BadExponent, CarlesonViolation, CoefficientBound,
                             OutOfWindow, ScaleMismatch)


@pytest.fixture(scope="module")
def D():
    return DyadicSystem(-4, 2)


def random_step(D, rng, d=1):
    vals = rng.standard_normal((D.n_units, d, d)) + 1j * rng.standard_normal((D.n_units, d, d))
    return StepFunction(D, vals)


def test_tiling_and_children(D):
    for scale in range(D.k_min, D.k_max + 1):
        cells = np.concatenate([D.cells(q) for q in D.cubes(scale)])
        assert sorted(cells) == list(range(D.n_units))
        if scale > D.k_min:
            for q in D.cubes(scale):
                c1, c2 = D.subcubes(q, 1)
                assert sorted(np.concatenate([D.cells(c1), D.cells(c2)])) == \
                    sorted(D.cells(q))


def test_random_grid_covariance():
    D0 = DyadicSystem(-4, 2)
    Dw = DyadicSystem(-4, 2, omega=(1, 0, 1, 1, 0, 1))
    for scale in range(-4, 3):
        off = sum(Dw.omega[i] * 2 ** i for i in range(scale - Dw.k_min)) % Dw.n_units
        starts0 = sorted((q.start + off) % D0.n_units for q in D0.cubes(scale))
        assert starts0 == sorted(q.start for q in Dw.cubes(scale))
        cells = np.concatenate([Dw.cells(q) for q in Dw.cubes(scale)])
        assert sorted(cells) == list(range(Dw.n_units))


def test_haar_pointwise(D):
    Q = D.cubes(0)[0]  # [0, 1)
    assert haar(D, Q, 1, 0.25) == 1.0
    assert haar(D, Q, 1, 0.75) == -1.0
    assert haar(D, Q, 0, 0.5) == 1.0
    assert haar(D, Q, 1, 1.5) == 0.0
    with pytest.raises(OutOfWindow):
        haar(D, Q, 1, -0.5)
    with pytest.raises(OutOfWindow):
        haar(D, Q, 1, 4.0)


def test_haar_orthonormality(D):
    cubes = [q for q in D.all_cubes() if q.scale > D.k_min]
    vals = np.stack([haar_cell_values(D, q, 1) for q in cubes])
    gram = vals @ vals.T * D.unit
    assert np.max(np.abs(gram - np.eye(len(cubes)))) <= 1e-12
    for q in cubes:
        assert abs(np.sum(haar_cell_values(D, q, 1)) * D.unit) == 0.0


def test_martingale_difference_cases(D, rng):
    Q = D.cubes(1)[1]
    ind = StepFunction(D, haar_cell_values(D, Q, 0)[:, None, None].astype(complex))
    assert np.max(np.abs(martingale_difference(ind, Q).values)) == 0.0
    hq = StepFunction(D, haar_cell_values(D, Q, 1)[:, None, None].astype(complex))
    np.testing.assert_allclose(martingale_difference(hq, Q).values, hq.values,
                               atol=1e-14)
    f = random_step(D, rng, d=2)
    dq = martingale_difference(f, Q)
    c1, c2 = D.subcubes(Q, 1)
    alt = np.zeros_like(f.values)
    for c in (c1, c2):
        alt[D.cells(c)] += average(f, c)[None, :, :]
    alt[D.cells(Q)] -= average(f, Q)[None, :, :]
    np.testing.assert_allclose(dq.values, alt, atol=1e-13)


def test_haar_reconstruction_exact(D, rng):
    f = random_step(D, rng, d=2)
    rec = haar_reconstruction(f)
    assert np.max(np.abs(rec.values - f.values)) <= 1e-12


def test_shift_spec_validation(D):
    Q = D.cubes(0)[0]
    bound = D.measure(Q) ** (-0.5)
    ShiftSpec(D, (0, 0, 0), 3, {(Q, Q, Q, Q): bound})
    with pytest.raises(CoefficientBound):
        ShiftSpec(D, (0, 0, 0), 3, {(Q, Q, Q, Q): 2.0 * bound})
    with pytest.raises(ScaleMismatch):
        bad = D.cubes(-1)[0]
        ShiftSpec(D, (0, 0, 0), 3, {(Q, bad, Q, Q): 0.1 * bound})


def test_single_term_shift_hand_value(D):
    Q = D.cubes(0)[1]
    alpha = D.measure(Q) ** (-0.5)
    spec = ShiftSpec(D, (0, 0, 0), 3, {(Q, Q, Q, Q): alpha})
    hq = StepFunction(D, haar_cell_values(D, Q, 1)[:, None, None].astype(complex))
    out = shift_apply(spec, hq, hq)
    expected = alpha * haar_cell_values(D, Q, 0)
    np.testing.assert_allclose(out.values[:, 0, 0], expected, atol=1e-14)


def test_shift_orthogonal_input_gives_zero(D, rng):
    spec = random_admissible_spec(D, (1, 1, 0), 3, np.random.default_rng(2))
    # f constant: orthogonal to every cancellative slot
    f = StepFunction(D, np.ones((D.n_units, 1, 1), dtype=complex))
    g = random_step(D, rng)
    out = shift_apply(spec, f, g)
    assert np.max(np.abs(out.values)) <= 1e-14


def test_shift_linearity(D, rng):
    spec = random_admissible_spec(D, (1, 0, 1), 1, np.random.default_rng(4))
    f, g = random_step(D, rng), random_step(D, rng)
    half = ShiftSpec(D, spec.complexity, spec.j0,
                     {k: 0.5 * v for k, v in spec.coefficients.items()})
    np.testing.assert_allclose(shift_apply(half, f, g).values,
                               0.5 * shift_apply(spec, f, g).values, atol=1e-14)


def test_trilinear_matches_pairing(D, rng):
    for j0 in (1, 2, 3):
        spec = random_admissible_spec(D, (1, 1, 1), j0, np.random.default_rng(j0),
                                      n_cubes=3)
        f1, f2, f3 = (random_step(D, rng, d=2) for _ in range(3))
        lam = trilinear_form(spec, f1, f2, f3)
        assert abs(lam - trace_pairing(shift_apply(spec, f1, f2), f3)) <= 1e-12


def test_trilinear_cyclic_permutation(D, rng):
    spec = random_admissible_spec(D, (2, 1, 1), 1, np.random.default_rng(9),
                                  n_cubes=2)
    f1, f2, f3 = (random_step(D, rng, d=2) for _ in range(3))
    lam = trilinear_form(spec, f1, f2, f3)
    rot = rotate_spec(spec)
    assert rot.j0 == 2
    assert trilinear_form(rot, f3, f1, f2) == lam


def dense_extremal_spec(D, complexity, j0, q):
    """All admissible (I1, I2, I3) under one cube, every coefficient at the
    bound (|I1| |I2| |I3|)^(1/2) / |Q|^2."""
    keys = itertools.product([q], *(D.subcubes(q, k) for k in complexity))
    m = D.measure
    return ShiftSpec(D, complexity, j0,
                     {key: (m(key[1]) * m(key[2]) * m(key[3])) ** 0.5 / m(q) ** 2
                      for key in keys})


def test_bk_extremal_tightness(D):
    # the regrouped-coefficient check is tight on the dense extremal spec
    Q = D.cubes(1)[0]
    spec = dense_extremal_spec(D, (1, 1, 1), 3, Q)
    val = bk_bound_check(spec, samples=512, seed=0)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert val <= 1.0 + 1e-10


def test_bk_zero_and_random(D):
    Q = D.cubes(1)[0]
    zero = ShiftSpec(D, (1, 1, 1), 3, {})
    assert bk_bound_check(zero, samples=16, seed=0) == 0.0
    rng = np.random.default_rng(11)
    worst = 0.0
    for t in range(100):
        spec = random_admissible_spec(D, (1, 2, 1), int(rng.integers(1, 4)), rng)
        worst = max(worst, bk_bound_check(spec, samples=64, seed=t))
    assert worst <= 1.0 + 1e-10


@pytest.mark.parametrize("j0", [1, 2, 3])
def test_bk_bound_at_every_valid_regrouping(D, j0):
    # |b_K| <= 1 for every l with l_j0 = 0 and 0 <= l_j <= k_j, not only the
    # default l_j = k_j; the dense extremal spec is tight at each of them
    for complexity in itertools.product(range(3), repeat=3):
        rng = np.random.default_rng(list(complexity))
        specs = [random_admissible_spec(D, complexity, j0, rng) for _ in range(20)]
        extremal = dense_extremal_spec(D, complexity, j0, D.cubes(D.k_max)[0])
        ranges = [[0] if j == j0 else range(k + 1) for j, k in enumerate(complexity, start=1)]
        for l in itertools.product(*ranges):
            worst = max(bk_bound_check(spec, l=l, seed=t) for t, spec in enumerate(specs))
            assert worst <= 1.0 + 1e-10, (complexity, l)
            assert bk_bound_check(extremal, l=l) == pytest.approx(1.0, abs=1e-10)


def test_bk_rejects_unspecified_regrouping(D):
    Q = D.cubes(1)[0]
    spec = dense_extremal_spec(D, (1, 1, 1), 3, Q)
    with pytest.raises(ValueError):
        bk_bound_check(spec, l=(1, 1, 1))  # l_{j0} must be 0


def test_paraproduct_single_term(D, rng):
    Q = D.cubes(1)[1]
    f, g = random_step(D, rng, d=2), random_step(D, rng, d=2)
    out = paraproduct_apply({Q: 1.0}, D, f, g, 3)
    expected = haar_cell_values(D, Q, 1)[:, None, None] \
        * (average(f, Q) @ average(g, Q))[None, :, :]
    np.testing.assert_allclose(out.values, expected, atol=1e-13)
    zero = StepFunction(D, np.zeros((D.n_units, 2, 2), dtype=complex))
    assert np.max(np.abs(paraproduct_apply({Q: 1.0}, D, zero, g, 3).values)) == 0.0


def test_paraproduct_carleson_validation(D, rng):
    f, g = random_step(D, rng), random_step(D, rng)
    bad = {D.cubes(0)[0]: 1.1}  # measure-1 cube: packing norm 1.1
    assert carleson_norm(D, bad) == pytest.approx(1.1)
    with pytest.raises(CarlesonViolation):
        paraproduct_apply(bad, D, f, g, 3)
    ok = {D.cubes(0)[0]: 0.99}
    assert carleson_norm(D, ok) <= 1.0
    paraproduct_apply(ok, D, f, g, 1)


def test_norm_probe(D):
    zero = ShiftSpec(D, (1, 1, 1), 3, {})
    assert shift_norm_probe(zero, 4, 4, 2, trials=4) == 0.0
    Q = D.cubes(1)[1]
    one = ShiftSpec(D, (0, 0, 0), 3, {(Q, Q, Q, Q): D.measure(Q) ** (-0.5)})
    ratio = shift_norm_probe(one, 4, 4, 2, trials=64, seed=3)
    assert ratio <= 1.0
    with pytest.raises(BadExponent):
        shift_norm_probe(one, 4, 4, 3, trials=2)


def test_lp_schatten_norm(D):
    vals = np.zeros((D.n_units, 1, 1), dtype=complex)
    vals[D.cells(D.cubes(0)[0])] = 2.0  # |f| = 2 on a unit-length cube
    f = StepFunction(D, vals)
    assert lp_schatten_norm(f, 2.0) == pytest.approx(2.0)
    assert lp_schatten_norm(f, 4.0) == pytest.approx(2.0)
    assert lp_schatten_norm(f, math.inf) == 2.0
    with pytest.raises(BadExponent):
        lp_schatten_norm(f, math.nan)  # returned NaN


def test_lp_schatten_norm_large_exponent(D, rng):
    # sv ** p overflows here; the norm must come out finite, not 0 or inf
    f = StepFunction(D, 10.0 * rng.standard_normal((D.n_units, 2, 2)))
    sv = np.linalg.svd(f.values, compute_uv=False).ravel()
    with mp.workdps(40):
        ref = (mp.fsum(mp.mpf(float(s)) ** 1000 for s in sv) * D.unit) ** (mp.mpf(1) / 1000)
    val = lp_schatten_norm(f, 1000.0)
    assert np.isfinite(val) and val == pytest.approx(float(ref), rel=1e-13)


def test_trilinear_orthogonal_output_slot(D, rng):
    spec = random_admissible_spec(D, (1, 1, 1), 1, np.random.default_rng(31),
                                  n_cubes=2)
    f1, f2 = random_step(D, rng), random_step(D, rng)
    f3 = StepFunction(D, np.ones((D.n_units, 1, 1), dtype=complex))
    # constant f3 is orthogonal to every cancellative output slot (j0 = 1
    # puts the non-cancellative Haar on the first slot, so slot 3 cancels)
    assert abs(trilinear_form(spec, f1, f2, f3)) <= 1e-14


def test_probe_sweep_below_constant_envelope(D):
    from schurlab.constants import C_constant, ExponentTriple

    spec = random_admissible_spec(D, (1, 1, 1), 3, np.random.default_rng(17),
                                  n_cubes=3)
    kappa_rec = 0.0
    for p in (1.25, 2.0, 8.0):
        ratio = shift_norm_probe(spec, 2 * p, 2 * p, p, trials=32, d=2, seed=5)
        c = C_constant(ExponentTriple(p, 2 * p, 2 * p))
        kappa_rec = max(kappa_rec, ratio / c)
    # recorded envelope: random-candidate ratios sit far below the constant
    assert np.isfinite(kappa_rec) and kappa_rec < 1.0


def test_haar_layout_errors(D):
    f = StepFunction(D, np.ones((D.n_units, 1, 1), dtype=complex))
    Q = D.cubes(0)[0]
    for bad_eta in (2, -1):
        with pytest.raises(ValueError):
            haar_cell_values(D, Q, bad_eta)
        with pytest.raises(ValueError):
            inner(f, Q, bad_eta)
    finest = D.cubes(D.k_min)[3]
    assert inner(f, finest, 0)[0, 0] == D.measure(finest) ** 0.5
    with pytest.raises(ScaleMismatch):
        haar_cell_values(D, finest, 1)
    with pytest.raises(ScaleMismatch):
        inner(f, finest, 1)
    with pytest.raises(ScaleMismatch):
        ShiftSpec(D, (0, 0, 0), 3, {(finest,) * 4: 0.0})
    below = Cube(D.k_min - 1, 0)
    for eta in (0, 1):
        with pytest.raises(ScaleMismatch):
            haar_cell_values(D, below, eta)
        with pytest.raises(ScaleMismatch):
            inner(f, below, eta)


# Values recorded before the Haar layout, the coefficient bound and the slot
# rule were each given one definition; they must stay bitwise equal.
BK_FROZEN = {
    ((1, 1, 1), 1): 0.6116818523114823,
    ((1, 1, 1), 2): 0.6718617738859268,
    ((1, 1, 1), 3): 0.4887009768818859,
    ((1, 2, 1), 1): 0.6116818523114824,
    ((1, 2, 1), 2): 0.33593088694296336,
    ((1, 2, 1), 3): 0.4887009768818859,
}
TRILINEAR_FROZEN = {
    1: -0.03342371761742825 + 0.2112952459274517j,
    2: 0.06966627505237057 - 0.028676388195801917j,
    3: 0.017745270772179602 - 9.648209820775633e-05j,
}


@pytest.mark.parametrize("j0", [1, 2, 3])
@pytest.mark.parametrize("complexity", [(1, 1, 1), (1, 2, 1)], ids=["111", "121"])
def test_bk_frozen_values(D, complexity, j0):
    spec = random_admissible_spec(D, complexity, j0, np.random.default_rng(40 + j0),
                                  n_cubes=3)
    assert bk_bound_check(spec, samples=64, seed=j0) == BK_FROZEN[complexity, j0]


def test_probe_and_trilinear_frozen_values(D):
    spec = random_admissible_spec(D, (1, 1, 1), 3, np.random.default_rng(17), n_cubes=3)
    assert shift_norm_probe(spec, 4, 4, 2, trials=16, d=2, seed=5) == 0.03698170978375635
    rng = np.random.default_rng(8)
    for j0 in (1, 2, 3):
        spec = random_admissible_spec(D, (2, 1, 1), j0, np.random.default_rng(50 + j0),
                                      n_cubes=3)
        fs = [random_step(D, rng, d=2) for _ in range(3)]
        assert trilinear_form(spec, *fs) == TRILINEAR_FROZEN[j0]


@pytest.mark.parametrize("k_min, k_max", [(-4, 50), (-100, 2), (-19, 4), (0, 10 ** 18)])
def test_level_range_over_the_cell_budget_is_rejected(k_min, k_max):
    # --kmax 50 tried to allocate 512 TiB, --kmin -100 raised "Maximum allowed
    # size exceeded"; 2^23 cells of one complex entry are 128 MiB
    with pytest.raises(BadBudget, match=f"k_min = {k_min} to k_max = {k_max}"):
        DyadicSystem(k_min, k_max)


def test_cell_budget_admits_its_largest_window():
    assert DyadicSystem(-18, 4).n_units == 1 << 22  # 64 MiB of complex cells


def test_probe_matrix_size_counts_against_the_cell_budget(D):
    # 64 cells of 257 x 257 complex entries are 64.5 MiB, over the 64 MiB budget
    spec = random_admissible_spec(D, (1, 1, 1), 3, np.random.default_rng(0))
    with pytest.raises(BadBudget, match="66049 complex entries"):
        shift_norm_probe(spec, 4.0, 4.0, 2.0, trials=1, d=257)
