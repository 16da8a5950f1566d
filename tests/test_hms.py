import numpy as np
import pytest

from schurlab.errors import (BadBudget, BadGrid, BadParameter, DiagonalMargin,
                             OrderUnsupported)
from schurlab.functions import get_function
from schurlab.hms import (GridSpec, TwoVariableSymbol, hms_norm,
                          hms_theorem_bound, lemma43_check, make_ks_symbol,
                          symbol_from_divdiff)


def test_constant_symbol():
    one = TwoVariableSymbol(lambda l, m: np.ones(np.broadcast(l, m).shape),
                            lambda l, m: np.zeros(np.broadcast(l, m).shape),
                            lambda l, m: np.zeros(np.broadcast(l, m).shape))
    assert hms_norm(one).value == 1.0


def test_quadratic_symbol_is_constant():
    sym = symbol_from_divdiff(get_function("square"), 2, 1)
    assert hms_norm(sym).value == pytest.approx(1.0, abs=1e-8)


def test_ks_symbol_norm():
    for s in (0.0, 1.0, 3.0):
        rep = hms_norm(make_ks_symbol(s))
        assert rep.value == pytest.approx(1.0 + 2.0 * s, abs=1e-3)


def test_theorem_bound_values():
    assert hms_theorem_bound(2, 1, get_function("square")) == pytest.approx(7.0)
    assert hms_theorem_bound(2, 1, get_function("sin")) == pytest.approx(3.5, abs=1e-6)
    # n = 1 with ||f'|| = 1: (2*1+3)/1! = 5
    assert hms_theorem_bound(1, 1, get_function("sin"), interval=(0.0, 0.1)) == \
        pytest.approx(5.0, abs=1e-3)


def test_norm_below_theorem_bound():
    for name in ("square", "cube", "sin", "exp", "abs2"):
        f = get_function(name)
        for k in (1, 2):
            val = hms_norm(symbol_from_divdiff(f, 2, k), GridSpec(points=256)).value
            assert val <= hms_theorem_bound(2, k, f), (name, k)


def test_grid_refinement_monotone():
    sym = symbol_from_divdiff(get_function("sin"), 2, 1)
    coarse = hms_norm(sym, GridSpec(points=64)).value
    fine = hms_norm(sym, GridSpec(points=256)).value
    finer = hms_norm(sym, GridSpec(points=512)).value
    assert coarse <= fine + 1e-12 <= finer + 2e-12


def test_partials_match_finite_differences(rng):
    sym = symbol_from_divdiff(get_function("exp"), 2, 1)
    h = 1e-6
    for _ in range(50):
        lam, mu = rng.uniform(-2, 2, 2)
        if abs(lam - mu) < 0.05:
            continue
        fd = (sym.value(lam + h, mu) - sym.value(lam - h, mu)) / (2 * h)
        assert abs(sym.partial_lam(lam, mu) - fd) <= 1e-5 * (1 + abs(fd))
        fd = (sym.value(lam, mu + h) - sym.value(lam, mu - h)) / (2 * h)
        assert abs(sym.partial_mu(lam, mu) - fd) <= 1e-5 * (1 + abs(fd))


def test_abs2_symbol_uses_fd_fallback():
    sym = symbol_from_divdiff(get_function("abs2"), 2, 1)
    val = hms_norm(sym, GridSpec(box=(-3, 3), points=128)).value
    assert np.isfinite(val)
    assert val <= hms_theorem_bound(2, 1, get_function("abs2"))


# lemma43_check before it took phi and d_lam phi from symbol_from_divdiff
_FROZEN_LEMMA43 = [
    ((2, 1, 1, "square", 200), -1.9999999999974665),
    ((2, 1, 0, "cube", 2000), -0.4278424719595879),
    ((2, 1, 1, "sin", 10000), -0.5639893938806084),
    ((3, 1, 1, "exp", 2000), -43.0602213060096),
]


def test_lemma43_trivial_and_derived():
    # flat phi: lhs is identically zero, so the gap is the full bound
    v = lemma43_check(2, 1, 1, get_function("square"), samples=200)
    assert v < 0
    v = lemma43_check(2, 1, 0, get_function("cube"), samples=2000)
    assert v <= 1e-9
    v = lemma43_check(2, 1, 1, get_function("sin"), samples=10000)
    assert v <= 1e-9
    v = lemma43_check(3, 1, 1, get_function("exp"), samples=2000)
    assert v <= 1e-9


@pytest.mark.parametrize("args, frozen", _FROZEN_LEMMA43)
def test_lemma43_values_frozen(args, frozen):
    n, k, gamma, name, samples = args
    assert lemma43_check(n, k, gamma, get_function(name), samples=samples) == frozen


@pytest.mark.parametrize("k", [0, 3])
def test_lemma43_rejects_k_outside_1_to_n(k):
    # k = 0 used to fail in math.factorial, and k = n + 1 lies outside the lemma
    with pytest.raises(BadParameter, match="1 <= k <= n"):
        lemma43_check(2, k, 0, get_function("sin"))


@pytest.mark.parametrize("k", [0, 3])
def test_theorem_bound_rejects_k_outside_1_to_n(k):
    # these raised OrderUnsupported, where symbol_from_divdiff and
    # lemma43_check raise BadParameter for the same k
    with pytest.raises(BadParameter, match="1 <= k <= n"):
        hms_theorem_bound(2, k, get_function("sin"))


def test_lemma43_rejects_bad_gamma():
    with pytest.raises(OrderUnsupported):
        lemma43_check(2, 3, 1, get_function("sin"))  # gamma > n+1-k = 0
    with pytest.raises(OrderUnsupported):
        lemma43_check(2, 1, 1, get_function("abs2"))


def test_margin_validation():
    with pytest.raises(OrderUnsupported):
        hms_theorem_bound(0, 1, get_function("sin"))


@pytest.mark.parametrize("box", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf),
                                 (1.0, 1.0), (2.0, 1.0)])
def test_bad_box_is_bad_grid(box):
    with pytest.raises(BadGrid):
        GridSpec(box=box)


@pytest.mark.parametrize("points", [0, 1, -4, 2.5, 512.0, True])
def test_bad_point_count_is_bad_budget(points):
    # points=2.5 used to give 3 nodes, points=0 "no admissible sample points"
    with pytest.raises(BadBudget):
        GridSpec(points=points)


def test_empty_domain_is_diagonal_margin():
    # a mask that keeps no grid pair leaves no sample to take the sup over
    ks = make_ks_symbol(1.0)
    nowhere = TwoVariableSymbol(ks.value, ks.partial_lam, ks.partial_mu,
                                mask=lambda lam, mu: np.zeros_like(lam - mu, dtype=bool))
    with pytest.raises(DiagonalMargin):
        hms_norm(nowhere, GridSpec(points=16))


def _hms_whole_grid(sym, grid):
    """(sup |phi|, weighted sup, pairs) over every grid pair at once."""
    lam, mu = np.broadcast_arrays(*np.ix_(grid.nodes(), grid.nodes()))
    keep = np.abs(lam - mu) >= grid.margin
    if sym.mask is not None:
        keep &= sym.mask(lam, mu)
    lv, mv = lam[keep], mu[keep]
    weighted = np.abs(lv - mv) * (np.abs(sym.partial_lam(lv, mv))
                                  + np.abs(sym.partial_mu(lv, mv)))
    return float(np.max(np.abs(sym.value(lv, mv)))), float(np.max(weighted)), lv.size


@pytest.mark.parametrize("points", [7, 100, 512])
def test_row_blocks_equal_whole_grid_bitwise(points):
    grid = GridSpec(points=points)
    syms = [symbol_from_divdiff(get_function(f), n, k)
            for f, n, k in (("sin", 2, 1), ("exp", 3, 2), ("abs2", 2, 1))]
    for sym in syms + [make_ks_symbol(2.0), make_ks_symbol(1.0, -1)]:
        rep = hms_norm(sym, grid)
        sup_abs, sup_w, used = _hms_whole_grid(sym, grid)
        assert (rep.sup_abs, rep.sup_weighted, rep.points_used) == (sup_abs, sup_w, used)
        assert rep.value == sup_abs + sup_w


def test_hms_norm_memory_is_bounded():
    # the whole 512 x 512 grid at once peaked at 30 MB
    import tracemalloc

    sym = symbol_from_divdiff(get_function("sin"), 2, 1)
    tracemalloc.start()
    try:
        hms_norm(sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
