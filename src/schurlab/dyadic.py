"""Dyadic grids on a bounded window, Haar functions, martingale differences,
bilinear shifts, paraproducts, trilinear forms, and the coefficient-regrouping
bound check.

Geometry: scales k_min..k_max, spatial window [0, 2^{k_max}) treated as a
circle, all positions integer multiples of the unit 2^{k_min}.  A shifted grid
translates scale-j cubes by sum_{i < j} omega_i 2^i (mod window), which keeps
every scale a refinement of the next.

Haar convention (``_haar_layout``): h_Q^0 is |Q|^{-1/2} on Q, and h_Q^1 is
+|Q|^{-1/2} on the left half of Q (cells in order from its start) and
-|Q|^{-1/2} on the right half.  A cube at the finest scale has no h_Q^1.

A bilinear dyadic shift of complexity (k1, k2, k3) is

    S(f, g) = sum_Q sum_{I_j subcube of Q, |I_j| = 2^{-k_j} |Q|}
              alpha_{I1,I2,I3,Q} <f, h_{I1}> <g, h_{I2}> h_{I3},

with exactly one slot (index j0) carrying the non-cancellative Haar function
and coefficients bounded by |Q|^{-2} prod_j |I_j|^{1/2}.  Matrix-valued step
functions multiply in the order written; the trilinear form closes the third
slot with a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import (BadBudget, BadExponent, BadParameter, CarlesonViolation, CoefficientBound,
                     OutOfWindow, ScaleMismatch, check_count, check_exponent)
from .matrixnum import schatten_norm_from_sv, svd

_BOUND_SLACK = 1.0 + 1e-12
_CELL_BUDGET = 1 << 26  # bytes one array of complex values over the window's cells may take


@dataclass(frozen=True)
class Cube:
    scale: int
    start: int  # unit-cell index of the left endpoint, modulo the window


@dataclass(frozen=True)
class DyadicSystem:
    k_min: int
    k_max: int
    omega: tuple = ()

    def __post_init__(self):
        if self.k_max <= self.k_min:
            raise BadParameter("need k_min < k_max")
        _check_cells(self, 1)
        depth = self.k_max - self.k_min
        om = tuple(int(b) for b in self.omega) if self.omega else (0,) * depth
        if len(om) != depth or any(b not in (0, 1) for b in om):
            raise BadParameter(f"omega must be {depth} bits")
        object.__setattr__(self, "omega", om)

    @property
    def n_units(self) -> int:
        return 1 << (self.k_max - self.k_min)

    @property
    def unit(self) -> float:
        return 2.0 ** self.k_min

    @property
    def window(self) -> float:
        return 2.0 ** self.k_max

    def _check_scale(self, scale: int):
        if not self.k_min <= scale <= self.k_max:
            raise ScaleMismatch(f"scale {scale} outside [{self.k_min}, {self.k_max}]")

    def len_units(self, scale: int) -> int:
        self._check_scale(scale)
        return 1 << (scale - self.k_min)

    def offset_units(self, scale: int) -> int:
        """Translation of the scale grid: sum_{i < scale} omega_i 2^i in units."""
        self._check_scale(scale)
        off = 0
        for i in range(scale - self.k_min):
            off += self.omega[i] << i
        return off % self.n_units

    def cubes(self, scale: int) -> list:
        ln = self.len_units(scale)
        off = self.offset_units(scale)
        return [Cube(scale, (off + m * ln) % self.n_units)
                for m in range(self.n_units // ln)]

    def all_cubes(self) -> list:
        out = []
        for scale in range(self.k_min, self.k_max + 1):
            out.extend(self.cubes(scale))
        return out

    def is_grid_cube(self, q: Cube) -> bool:
        if not self.k_min <= q.scale <= self.k_max:
            return False
        ln = self.len_units(q.scale)
        return (q.start - self.offset_units(q.scale)) % ln == 0

    def cells(self, q: Cube) -> np.ndarray:
        if not self.is_grid_cube(q):
            raise ScaleMismatch(f"{q} is not a cube of this grid")
        ln = self.len_units(q.scale)
        return (q.start + np.arange(ln)) % self.n_units

    def measure(self, q: Cube) -> float:
        return self.len_units(q.scale) * self.unit

    def cube_containing(self, scale: int, cell: int) -> Cube:
        ln = self.len_units(scale)
        off = self.offset_units(scale)
        rel = (cell - off) % self.n_units
        return Cube(scale, (off + (rel // ln) * ln) % self.n_units)

    def ancestor(self, q: Cube, levels: int) -> Cube:
        if levels < 0:
            raise BadParameter("levels must be >= 0")
        return self.cube_containing(q.scale + levels, q.start)

    def contains(self, outer: Cube, inner: Cube) -> bool:
        if inner.scale > outer.scale:
            return False
        return self.cube_containing(outer.scale, inner.start) == outer

    def subcubes(self, q: Cube, depth: int) -> list:
        ln = self.len_units(q.scale - depth)
        return [Cube(q.scale - depth, (q.start + t * ln) % self.n_units)
                for t in range(1 << depth)]

    def cell_of_point(self, x: float) -> int:
        if not 0.0 <= x < self.window:
            raise OutOfWindow(f"{x} outside [0, {self.window})")
        return int(x / self.unit)


def _check_cells(D: DyadicSystem, entries: int):
    """BadBudget before anything is allocated, when `entries` complex values on each of
    the 2^(k_max - k_min) unit cells of D's window take more than _CELL_BUDGET bytes."""
    depth = D.k_max - D.k_min
    if 16 * entries > _CELL_BUDGET >> depth:  # 16 entries 2^depth > budget, without 2^depth
        raise BadBudget(f"levels k_min = {D.k_min} to k_max = {D.k_max} give 2^{depth} cells, "
                        f"and {entries} complex entries on each take more than the "
                        f"{_CELL_BUDGET}-byte budget")


def _haar_layout(D: DyadicSystem, q: Cube, eta: int):
    """(cells, split, amp): h_Q^eta is amp on cells[:split], -amp on
    cells[split:] and 0 off Q."""
    if eta not in (0, 1):
        raise BadParameter("eta must be 0 or 1")
    cells = D.cells(q)
    if eta == 1 and q.scale <= D.k_min:
        raise ScaleMismatch("cancellative Haar needs a scale above the finest")
    split = len(cells) // 2 if eta else len(cells)
    return cells, split, D.measure(q) ** -0.5


def haar_cell_values(D: DyadicSystem, q: Cube, eta: int) -> np.ndarray:
    """Dense per-unit-cell values of h_Q^eta over the whole window."""
    cells, split, amp = _haar_layout(D, q, eta)
    out = np.zeros(D.n_units)
    out[cells[:split]] = amp
    out[cells[split:]] = -amp
    return out


def haar(D: DyadicSystem, q: Cube, eta: int, x: float) -> float:
    """Pointwise Haar value at x (OutOfWindow outside the spatial window)."""
    cell = D.cell_of_point(x)
    return float(haar_cell_values(D, q, eta)[cell])


@dataclass
class StepFunction:
    """Piecewise constant d x d matrix values on the unit cells."""

    system: DyadicSystem
    values: np.ndarray  # (n_units, d, d) complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None, None]
        if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
            raise BadParameter("values must be (n_units, d, d)")
        if vals.shape[0] != self.system.n_units:
            raise ScaleMismatch(
                f"expected {self.system.n_units} cells, got {vals.shape[0]}")
        self.values = vals

    @property
    def d(self) -> int:
        return self.values.shape[1]


def inner(f: StepFunction, q: Cube, eta: int) -> np.ndarray:
    """<f, h_Q^eta> as a d x d matrix (exact finite sum).

    The two halves are summed separately and subtracted, so the cancellative
    pairing with any function constant on Q is an exact zero."""
    D = f.system
    cells, split, amp = _haar_layout(D, q, eta)
    left = f.values[cells[:split]].sum(axis=0)
    right = f.values[cells[split:]].sum(axis=0)
    return (left - right) * (amp * D.unit)


def average(f: StepFunction, q: Cube) -> np.ndarray:
    D = f.system
    cells = D.cells(q)
    return f.values[cells].sum(axis=0) * D.unit / D.measure(q)


def martingale_difference(f: StepFunction, q: Cube) -> StepFunction:
    """D_Q f = <f, h_Q> h_Q; equals the children-averages combination."""
    D = f.system
    coef = inner(f, q, 1)
    h = haar_cell_values(D, q, 1)
    return StepFunction(D, h[:, None, None] * coef[None, :, :])


def haar_reconstruction(f: StepFunction) -> StepFunction:
    """sum_{Q below the window's top cube} D_Q f plus its average; equals f."""
    D = f.system
    top = D.cubes(D.k_max)[0]
    out = np.zeros_like(f.values)
    stack = [top]
    while stack:
        q = stack.pop()
        if q.scale > D.k_min:
            out += martingale_difference(f, q).values
            stack.extend(D.subcubes(q, 1))
    avg = average(f, top)
    cells = D.cells(top)
    out[cells] += avg[None, :, :]
    return StepFunction(D, out)


# ----------------------------------------------------------------------------
# bilinear shifts
# ----------------------------------------------------------------------------

def _eta(slot: int, j0: int) -> int:
    """The slot rule: slot j0 is non-cancellative (eta 0), the others not."""
    return 0 if slot == j0 else 1


def _coefficient_bound(D: DyadicSystem, key) -> float:
    """(|I1| |I2| |I3|)^{1/2} / |Q|^2, the bound on |alpha_(Q, I1, I2, I3)|."""
    q, i1, i2, i3 = key
    m = D.measure
    return (m(i1) * m(i2) * m(i3)) ** 0.5 / m(q) ** 2


class ShiftSpec:
    """Complexity (k1,k2,k3), non-cancellative slot j0, sparse coefficients
    keyed by (Q, I1, I2, I3).  The size bound on every coefficient is a hard
    constructor invariant."""

    def __init__(self, system: DyadicSystem, complexity: Tuple[int, int, int],
                 j0: int, coefficients: Dict[tuple, complex]):
        if j0 not in (1, 2, 3):
            raise BadParameter("j0 must be 1, 2 or 3")
        if len(complexity) != 3 or any(k < 0 for k in complexity):
            raise BadParameter("complexity must be three non-negative integers")
        self.system = system
        self.complexity = tuple(int(k) for k in complexity)
        self.j0 = j0
        self.coefficients = dict(coefficients)
        for key, alpha in self.coefficients.items():
            q, *iis = key
            if len(iis) != 3:
                raise BadParameter("coefficient keys are (Q, I1, I2, I3)")
            for j, ij in enumerate(iis, start=1):
                if ij.scale != q.scale - self.complexity[j - 1]:
                    raise ScaleMismatch(
                        f"slot {j} cube at scale {ij.scale}, expected "
                        f"{q.scale - self.complexity[j - 1]}")
                if not system.contains(q, ij):
                    raise ScaleMismatch(f"slot {j} cube not inside Q")
                _haar_layout(system, ij, self.eta(j))  # no h_I^1 at the finest scale
            bound = _coefficient_bound(system, key)
            if abs(alpha) > bound * _BOUND_SLACK:
                raise CoefficientBound(f"|alpha| = {abs(alpha):.3e} exceeds {bound:.3e}")

    def eta(self, slot: int) -> int:
        return _eta(slot, self.j0)


def shift_apply(S: ShiftSpec, f: StepFunction, g: StepFunction) -> StepFunction:
    D = S.system
    if f.system != D or g.system != D:
        raise ScaleMismatch("step functions live on a different dyadic system")
    if f.d != g.d:
        raise BadParameter("matrix dimensions of f and g differ")
    out = np.zeros((D.n_units, f.d, f.d), dtype=complex)
    for (q, i1, i2, i3), alpha in S.coefficients.items():
        cf = inner(f, i1, S.eta(1))
        cg = inner(g, i2, S.eta(2))
        h3 = haar_cell_values(D, i3, S.eta(3))
        out += alpha * h3[:, None, None] * (cf @ cg)[None, :, :]
    return StepFunction(D, out)


def trilinear_form(S: ShiftSpec, f1: StepFunction, f2: StepFunction,
                   f3: StepFunction) -> complex:
    """sum alpha * tr(<f1,h_I1><f2,h_I2><f3,h_I3>); the trace pairing of
    shift_apply(S, f1, f2) against f3.

    The trace is evaluated with the non-cancellative slot leading.  That order
    is invariant under cyclic slot renumbering, so a spec and its rotation give
    bitwise-identical values on cyclically permuted arguments."""
    total = 0.0 + 0j
    fs = (f1, f2, f3)
    for (q, *iis), alpha in S.coefficients.items():
        cs = [inner(fs[j], iis[j], S.eta(j + 1)) for j in range(3)]
        o = [(S.j0 - 1 + s) % 3 for s in range(3)]
        total += alpha * np.trace(cs[o[0]] @ cs[o[1]] @ cs[o[2]])
    return complex(total)


def trace_pairing(f: StepFunction, g: StepFunction) -> complex:
    vals = np.einsum("cij,cji->", f.values, g.values) * f.system.unit
    return complex(vals)


def rotate_spec(S: ShiftSpec) -> ShiftSpec:
    """Cyclic slot renumbering (I1,I2,I3) -> (I3,I1,I2); the trilinear forms
    satisfy Lambda(f1,f2,f3) = Lambda_rotated(f3,f1,f2) exactly."""
    k1, k2, k3 = S.complexity
    new_coeffs = {(q, i3, i1, i2): a for (q, i1, i2, i3), a in S.coefficients.items()}
    new_j0 = S.j0 % 3 + 1
    return ShiftSpec(S.system, (k3, k1, k2), new_j0, new_coeffs)


def random_admissible_spec(D: DyadicSystem, complexity, j0: int,
                           rng: np.random.Generator, n_cubes: int = 2) -> ShiftSpec:
    """Three terms under each of n_cubes random cubes, with coefficients drawn
    uniformly in the admissible disk."""
    k1, k2, k3 = complexity
    min_scale = D.k_min + max(k + _eta(j, j0)
                              for j, k in enumerate(complexity, start=1))
    if min_scale > D.k_max:
        raise ScaleMismatch("complexity too deep for the scale window")
    coeffs = {}
    scales = list(range(min_scale, D.k_max + 1))
    for _ in range(n_cubes):
        scale = int(rng.choice(scales))
        q = D.cubes(scale)[int(rng.integers(len(D.cubes(scale))))]
        subs = [D.subcubes(q, k) for k in complexity]
        for _ in range(3):
            key = (q, subs[0][int(rng.integers(len(subs[0])))],
                   subs[1][int(rng.integers(len(subs[1])))],
                   subs[2][int(rng.integers(len(subs[2])))])
            r = _coefficient_bound(D, key) * math.sqrt(rng.uniform())
            coeffs[key] = r * np.exp(2j * math.pi * rng.uniform())
    return ShiftSpec(D, complexity, j0, coeffs)


# ----------------------------------------------------------------------------
# paraproducts
# ----------------------------------------------------------------------------

def carleson_norm(D: DyadicSystem, a: Dict[Cube, complex]) -> float:
    best = 0.0
    for q0 in D.all_cubes():
        total = sum(abs(aq) ** 2 for q, aq in a.items() if D.contains(q0, q))
        best = max(best, (total / D.measure(q0)) ** 0.5)
    return best


def paraproduct_apply(a: Dict[Cube, complex], D: DyadicSystem, f: StepFunction,
                      g: StepFunction, j0: int) -> StepFunction:
    """Bilinear paraproduct: slot j0 cancellative, the others Q-averages."""
    if j0 not in (1, 2, 3):
        raise BadParameter("j0 must be 1, 2 or 3")
    if carleson_norm(D, a) > _BOUND_SLACK:
        raise CarlesonViolation("coefficients exceed the Carleson normalization")
    out = np.zeros((D.n_units, f.d, f.d), dtype=complex)
    for q, aq in a.items():
        c1 = inner(f, q, 1) if j0 == 1 else average(f, q)
        c2 = inner(g, q, 1) if j0 == 2 else average(g, q)
        if j0 == 3:
            h3 = haar_cell_values(D, q, 1)
        else:
            h3 = np.zeros(D.n_units)
            h3[D.cells(q)] = 1.0 / D.measure(q)
        out += aq * h3[:, None, None] * (c1 @ c2)[None, :, :]
    return StepFunction(D, out)


# ----------------------------------------------------------------------------
# regrouped-coefficient bound
# ----------------------------------------------------------------------------

def bk_bound_check(S: ShiftSpec, samples: int = 64, l: Tuple[int, int, int] = None,
                   seed: int = 0) -> float:
    """Max modulus of the regrouped kernel b_K over random in-cube samples.

    The regrouping folds the non-cancellative slot at K (its scale gap l_{j0}
    is 0, the only case the underlying construction specifies) and groups each
    cancellative slot j at the intermediate scale K.scale - l_j,

        b_{L.,K} = sum_{I_j with ancestor L_j} alpha * prod_j |I_j|^{1/2}/|L_j|^{1/2},
        b_K      = |K|^{3/2} sum_{L.} b_{L.,K} h_{L_a}(z) h_{L_b}(z or y),

    and the admissible size bound forces |b_K| <= 1.
    """
    check_count("samples", samples)
    D = S.system
    if l is None:
        l = tuple(S.complexity[j - 1] * S.eta(j) for j in (1, 2, 3))
    l = tuple(int(v) for v in l)
    for j in (1, 2, 3):
        if l[j - 1] and not S.eta(j):
            raise BadParameter("the non-cancellative slot must regroup with l = 0; "
                               "other choices are not specified by the construction")
        if not 0 <= l[j - 1] <= S.complexity[j - 1]:
            raise BadParameter(f"need 0 <= l_{j} <= k_{j}")

    grouped: Dict[Cube, Dict[tuple, complex]] = {}
    for (q, *iis), alpha in S.coefficients.items():
        ls = []
        weight = 1.0
        for j in (1, 2, 3):
            ij = iis[j - 1]
            lj = D.ancestor(ij, S.complexity[j - 1] - l[j - 1])
            weight *= (D.measure(ij) / D.measure(lj)) ** 0.5
            if S.eta(j):
                ls.append(lj)
        terms = grouped.setdefault(q, {})
        terms[tuple(ls)] = terms.get(tuple(ls), 0.0) + alpha * weight

    rng = np.random.default_rng(seed)
    worst = 0.0
    for q, terms in grouped.items():
        cells = D.cells(q)
        za, zb = cells[rng.integers(0, len(cells), size=(samples, 2))].T
        val = np.zeros(samples, dtype=complex)
        for (la, lb), b in terms.items():
            val += b * haar_cell_values(D, la, 1)[za] * haar_cell_values(D, lb, 1)[zb]
        b_k = D.measure(q) ** 1.5 * val
        # np.hypot, not np.abs: numpy's vectorized complex modulus can differ
        # in the last bit from the scalar hypot the recorded values came from
        worst = np.max(np.hypot(b_k.real, b_k.imag), initial=worst)
    return worst


# ----------------------------------------------------------------------------
# norm probe
# ----------------------------------------------------------------------------

def lp_schatten_norm(f: StepFunction, p: float) -> float:
    """L^p(S_p) norm of a matrix-valued step function (exact finite sum)."""
    check_exponent("p", p, closed=True)
    sv = np.sort(svd(f.values, compute_uv=False), axis=None)[::-1]
    return schatten_norm_from_sv(sv, p) * f.system.unit ** (1.0 / p)


def shift_norm_probe(S: ShiftSpec, p1: float, p2: float, p: float,
                     trials: int = 64, d: int = 1, seed: int = 0) -> float:
    """Best ratio ||S(f,g)|| / (||f|| ||g||) over random step-function pairs."""
    for name, q in (("p1", p1), ("p2", p2), ("p", p)):
        check_exponent(name, q, closed=True)
    if abs(1.0 / p - (1.0 / p1 + 1.0 / p2)) > 1e-12:
        raise BadExponent("need 1/p = 1/p1 + 1/p2")
    check_count("trials", trials)
    check_count("d", d)
    D = S.system
    _check_cells(D, d * d)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        fv = rng.standard_normal((D.n_units, d, d)) + 1j * rng.standard_normal((D.n_units, d, d))
        gv = rng.standard_normal((D.n_units, d, d)) + 1j * rng.standard_normal((D.n_units, d, d))
        f = StepFunction(D, fv)
        g = StepFunction(D, gv)
        denom = lp_schatten_norm(f, p1) * lp_schatten_norm(g, p2)
        if denom == 0.0:
            continue
        best = max(best, lp_schatten_norm(shift_apply(S, f, g), p) / denom)
    return best
