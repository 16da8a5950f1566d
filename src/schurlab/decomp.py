"""Angular sectors, smooth partition of unity, and the six-term decomposition
of second-order divided differences into two-variable and Toeplitz factors.

The three sector families on R^2 \\ {0} are, in angle coordinates,

    A_1 = (-2e, pi/2 + 2e) u (pi - 2e, 3pi/2 + 2e)
    A_2 = (pi/2 + e, 3pi/4 + e) u (3pi/2 + e, 7pi/4 + e)
    A_3 = (3pi/4 - e, pi - e) u (7pi/4 - e, 2pi - e)

with overlap parameter e.  The partition theta_1 + theta_2 + theta_3 = 1 is
built from exp(-1/t) smoothsteps supported strictly inside each arc,
symmetrized under xi -> -xi and normalized by the pointwise sum.

The six Toeplitz-side symbols are

    a_1 = e_1 th_1 psi_1    a_2 = e_2 th_1 (1 - psi_1)
    a_3 = e_3 th_2 psi_2    a_4 = e_1 th_2 (1 - psi_2)
    a_5 = e_2 th_3 psi_3    a_6 = e_3 th_3 (1 - psi_3)

where th_j(l0,l1,l2) = theta_j(l1-l0, l2-l1), psi_1 = (l0-l1)/(l0-l2) and its
cyclic relabelings, and e_1, e_2, e_3 are the signs of l1-l0, l2-l1, l2-l0
with sign(0) = 1.  Each product th_j * psi-factor is extended by zero off the
support of th_j, which absorbs the psi poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divdiff import divdiff_two_var_grid, newton_table
from .errors import BadParameter, DiagonalQuery, NonFiniteNode, OriginQuery, PoleHit
from .functions import ScalarFunction
from .matrixnum import _one_blas_thread, as_matrix
from .schur import PointSet, apply_bilinear, row_slabs

TWO_PI = 2.0 * math.pi
_SUPPORT_FLOOR = 1e-300
_FORMULA_CHUNK = 4096  # ramp angles per _formula call, so its 24 m temporaries stay in cache


def smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) blend between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def _check_sector(j) -> int:
    if j not in (1, 2, 3):
        raise BadParameter(f"sector index must be 1, 2 or 3, got {j}")
    return int(j)


def sign1(t):
    """sign with the convention sign(0) = 1."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class SectorPartition:
    """epsilon-parameterized partition of unity over the three sector families.

    ``band`` is the smoothstep transition width (default epsilon/2); each bump
    support is pulled epsilon/4 inside its open arc.  Both keep the three
    supports overlapping.  ``thetas`` gives all three theta_j from one pass
    over the six bumps (three sectors at phi and phi + pi) and one normalizing
    sum; it raises BadParameter where so wide a band underflows that sum to 0.

    Off the ramps where some smoothstep argument lies in (0, 1), each theta_j
    is a constant 0, 1/2 or 1.  The instance keeps the sorted piece edges of
    [0, 2pi) and the constants of the flat pieces, each taken from the formula
    at the piece midpoint, so ``thetas`` runs the formula on the ramps only.
    """

    epsilon: float = math.pi / 32
    band: float = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.pi / 8:
            raise BadParameter(f"epsilon must lie in (0, pi/8), got {self.epsilon}")
        if self.band is None:
            object.__setattr__(self, "band", self.epsilon / 2)
        if not (math.isfinite(self.band) and self.band > 0):
            raise BadParameter(f"band must be positive and finite, got {self.band}")
        arcs = np.array([self.arcs(j) for j in (1, 2, 3)])  # (sector, arc, end)
        object.__setattr__(self, "_arc_table", (arcs[..., :1], np.diff(arcs)))  # start, length
        object.__setattr__(self, "_pieces", self._flat_pieces())

    def arcs(self, j: int):
        _check_sector(j)
        e = self.epsilon
        if j == 1:
            base = [(-2 * e, math.pi / 2 + 2 * e)]
        elif j == 2:
            base = [(math.pi / 2 + e, 3 * math.pi / 4 + e)]
        else:
            base = [(3 * math.pi / 4 - e, math.pi - e)]
        return base + [(a + math.pi, b + math.pi) for a, b in base]

    def _formula(self, phi):
        """(numerators (3, m), normalizing sum (m,)) of the theta_j on a 1-d
        angle array: the twelve arc smoothsteps at phi and phi + pi in one pass."""
        start, length = self._arc_table  # (sector, arc, 1) each, built once
        inset = self.epsilon / 4
        d = np.mod(np.stack([phi, phi + math.pi])[:, None, None] - start, TWO_PI)
        s = smoothstep(np.stack([(d - inset) / self.band,
                                 (length - inset - d) / self.band]))
        bumps = s[0] * s[1]  # (phi or phi + pi, sector, arc, m)
        nums = 0.5 * (bumps[0, :, 0] + bumps[0, :, 1] + (bumps[1, :, 0] + bumps[1, :, 1]))
        return nums, (nums[0] + nums[1]) + nums[2]

    def _flat_pieces(self):
        """(ends, table): the sorted right ends of the pieces of [0, 2pi), and
        theta_j on the piece searchsorted(ends, ., 'right') in a (3, pieces + 1)
        table that holds NaN on the ramps (widened by 1e-9), where the
        normalizing sum is 0, and at 2pi itself."""
        # the arcs come in pairs pi apart, so phi + pi has the ramps of phi
        arcs = np.array([self.arcs(j) for j in (1, 2, 3)]).reshape(-1, 2)
        inset, width = self.epsilon / 4, self.band + 2e-9
        ramps = np.concatenate([arcs[:, 0] + inset, arcs[:, 1] - inset - self.band])
        lo = np.mod(ramps - 1e-9, TWO_PI)
        edges = np.sort(np.concatenate([[0.0, TWO_PI], lo, np.mod(lo + width, TWO_PI)]))
        mid = 0.5 * (edges[:-1] + edges[1:])
        nums, den = self._formula(mid)
        vals = np.divide(nums, den, out=np.full_like(nums, np.nan), where=den > 0)
        vals[:, np.any(np.mod(mid[:, None] - lo, TWO_PI) <= width, axis=1)] = np.nan
        return edges[1:], np.concatenate([vals, np.full((3, 1), np.nan)], axis=1)

    def thetas(self, phi):
        """(theta_1, theta_2, theta_3) of the angle; even by explicit symmetrization.
        The formula runs on the ramp angles and on |phi| > 4pi, where phi - a
        no longer rounds like mod(phi, 2pi) - a; the rest is looked up.  A NaN
        or infinite angle raises NonFiniteNode, from the ramp branch only."""
        phi = np.asarray(phi, dtype=float)
        ends, table = self._pieces
        with np.errstate(invalid="ignore"):  # a NaN or infinite angle lands on a ramp
            idx = np.searchsorted(ends, np.mod(phi, TWO_PI), side="right")
        # three arrays, not one (3, ...) block, which raised peak RSS through heap layout
        out = [np.asarray(row[idx]) for row in table]
        ramp = np.isnan(out[0]) | ~(np.abs(phi) <= 2 * TWO_PI)
        at = np.flatnonzero(ramp)
        # flat views: writing flat_out fills out, a 0-d value included
        flat_phi, flat_out = phi.reshape(-1), [th.reshape(-1) for th in out]
        for lo in range(0, at.size, _FORMULA_CHUNK):
            chunk = at[lo:lo + _FORMULA_CHUNK]
            _finite("theta", flat_phi[chunk])
            nums, den = self._formula(flat_phi[chunk])
            zero = den <= 0.0
            if np.any(zero):
                raise BadParameter(f"normalizing sum 0 at angle {flat_phi[chunk][zero][0]}, "
                                   f"band {self.band}")
            for th, num in zip(flat_out, nums):
                th[chunk] = num / den
        return tuple(th[()] for th in out)

    def theta_of_angle(self, j: int, phi):
        """theta_j as a function of the angle."""
        return self.thetas(phi)[_check_sector(j) - 1]


def _finite(name: str, *xs) -> list:
    """The inputs as float arrays; NonFiniteNode naming ``name`` at NaN or inf."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    for x in xs:
        if not np.all(np.isfinite(x)):
            raise NonFiniteNode(f"{name} needs finite input, got {x[~np.isfinite(x)].tolist()}")
    return xs


def theta(j: int, xi, P: SectorPartition) -> float:
    """theta_j at a finite nonzero point of R^2."""
    x1, x2 = map(float, _finite("theta", xi[0], xi[1]))
    if x1 == 0.0 and x2 == 0.0:
        raise OriginQuery("theta undefined at the origin")
    return float(P.theta_of_angle(j, math.atan2(x2, x1)))


_PSI_DEFS = {
    1: (0, 1, 0, 2),  # (l0 - l1)/(l0 - l2)
    2: (2, 0, 2, 1),  # (l2 - l0)/(l2 - l1)
    3: (1, 2, 1, 0),  # (l1 - l2)/(l1 - l0)
}


def _psi_value(j: int, lam):
    """psi_j on a triple lam of broadcast arrays, 0 at its poles."""
    a, b, c, d = _PSI_DEFS[j]
    return np.divide(lam[a] - lam[b], lam[c] - lam[d], out=np.zeros(np.shape(lam[0])),
                     where=lam[c] != lam[d])


def psi(j: int, triple) -> float:
    """psi_j, the rational Toeplitz interpolation factor."""
    lam = tuple(map(float, _finite(f"psi_{j}", *triple)))
    _, _, c, d = _PSI_DEFS[_check_sector(j)]
    if lam[c] == lam[d]:
        raise PoleHit(f"psi_{j} pole at {triple}")
    return float(_psi_value(j, lam))


# (sector j, use 1 - psi_j?, k of the sign factor e_k) for a_1 ... a_6
_A_DEFS = {
    1: (1, False, 1), 2: (1, True, 2),
    3: (2, False, 3), 4: (2, True, 1),
    5: (3, False, 2), 6: (3, True, 3),
}
_E_DEFS = ((1, 0), (2, 1), (2, 0))  # e_k = sign1(l_a - l_b): l1 - l0, l2 - l1, l2 - l0


def a_symbol(i: int, triple, P: SectorPartition) -> float:
    """a_i at an off-diagonal triple, with the zero extension off supp(theta)."""
    l0, l1, l2 = map(float, _finite(f"a_{i}", *triple))
    if l0 == l1 == l2:
        raise DiagonalQuery(f"a_{i} undefined on the diagonal, got {triple}")
    return float(a_value(i, l0, l1, l2, P))


# ----------------------------------------------------------------------------
# vectorized tables over a point set
# ----------------------------------------------------------------------------

def f2_values(f: ScalarFunction, l0, l1, l2):
    """Vectorized f^[2] over broadcastable triples: the nodes are sorted by a
    min/max network and passed to the one Newton table, so equal coordinates
    use the derivative conventions and the full diagonal f''/2 (0 for s|s|).
    A NaN or infinite node raises NonFiniteNode."""
    l0, l1, l2 = _finite("f^[2]", l0, l1, l2)
    lo, hi = np.minimum(l0, l1), np.maximum(l0, l1)
    mid = np.maximum(np.minimum(hi, l2), lo)  # the median of the three
    lo, hi = np.minimum(lo, l2), np.maximum(hi, l2)
    return newton_table(f, [lo, mid, hi])


def f2_table(f: ScalarFunction, v) -> np.ndarray:
    """Real (n, n, n) table of f^[2](v_i, v_j, v_l) over grid labels v,
    filled in row slabs of i."""
    v = np.asarray(v, float)
    tab = np.empty((len(v),) * 3)
    for r in row_slabs(len(v)):
        tab[r] = f2_values(f, v[r, None, None], v[None, :, None], v[None, None, :])
    return tab


def two_var_tables(f: ScalarFunction, X: PointSet):
    """(phi, ring) tables on X: phi[i,j] = f^[2](x_i, x_j, x_j) and
    ring[i,j] = f^[2](x_i, x_i, x_j)."""
    v = X.values
    lam, mu = v[:, None], v[None, :]
    return divdiff_two_var_grid(f, 2, 1, lam, mu), divdiff_two_var_grid(f, 2, 2, lam, mu)


def _a_formula(th_j, psi_j, e_k, complement: bool):
    """e_k th_j psi_j, or e_k th_j (1 - psi_j), extended by 0 where th_j <= _SUPPORT_FLOOR."""
    p = 1.0 - psi_j if complement else psi_j
    return e_k * np.where(th_j > _SUPPORT_FLOOR, th_j * p, 0.0)


def a_value(i: int, l0, l1, l2, P: SectorPartition):
    """a_i alone on broadcastable triples, from one psi_j and one e_k: a_values(...)[i - 1]."""
    if i not in _A_DEFS:
        raise BadParameter(f"a_i index must be 1, ..., 6, got {i}")
    lam = np.broadcast_arrays(*_finite(f"a_{i}", l0, l1, l2))
    thetas = P.thetas(np.arctan2(lam[2] - lam[1], lam[1] - lam[0]))
    j, complement, k = _A_DEFS[i]
    a, b = _E_DEFS[k - 1]
    return _a_formula(thetas[j - 1], _psi_value(j, lam), sign1(lam[a] - lam[b]), complement)


def a_values(l0, l1, l2, P: SectorPartition):
    """The six a_i on broadcastable triples, each psi_j and e_k computed once.  A
    diagonal triple gets a finite placeholder, which a_tables overwrites."""
    lam = np.broadcast_arrays(*_finite("a_values", l0, l1, l2))
    thetas = P.thetas(np.arctan2(lam[2] - lam[1], lam[1] - lam[0]))
    psis = [_psi_value(j, lam) for j in (1, 2, 3)]
    signs = [sign1(lam[a] - lam[b]) for a, b in _E_DEFS]
    return [_a_formula(thetas[j - 1], psis[j - 1], signs[k - 1], complement)
            for j, complement, k in _A_DEFS.values()]


def a_tables(X: PointSet, P: SectorPartition):
    """The six a_i tables over X^3, with a_1 = 1 and a_i = 0 (i > 1) on the
    full diagonal so that the operator identity extends to diagonal triples;
    filled in row slabs of the first index, so the temporaries stay O(n^2)."""
    v = X.values
    tables = [np.empty((X.n,) * 3) for _ in _A_DEFS]
    for r in row_slabs(X.n):
        slabs = a_values(v[r, None, None], v[None, :, None], v[None, None, :], P)
        for tab, slab in zip(tables, slabs):
            tab[r] = slab
    idx = np.arange(X.n)
    for i, tab in enumerate(tables, start=1):
        tab[idx, idx, idx] = 1.0 if i == 1 else 0.0
    return tables


def decomposition_residual(f: ScalarFunction, triple, P: SectorPartition) -> float:
    """f^[2](triple) minus the six-term reconstruction, at one off-diagonal triple."""
    return float(decomposition_residuals(f, [triple], P)[0])


def decomposition_residuals(f: ScalarFunction, triples, P: SectorPartition):
    """Six-term residuals at an (m, 3) array of off-diagonal triples; a
    diagonal triple raises DiagonalQuery."""
    triples = np.asarray(triples, dtype=float)
    l0, l1, l2 = triples[..., 0], triples[..., 1], triples[..., 2]
    lhs = f2_values(f, l0, l1, l2)
    diagonal = (l0 == l1) & (l1 == l2)
    if np.any(diagonal):
        raise DiagonalQuery(f"residual undefined at diagonal triples {triples[diagonal].tolist()}")
    a = a_values(l0, l1, l2, P)
    phi01, phi12, phi02 = (f2_values(f, x, y, y) for x, y in ((l0, l1), (l1, l2), (l0, l2)))
    ring12, ring02, ring01 = (f2_values(f, x, x, y) for x, y in ((l1, l2), (l0, l2), (l0, l1)))
    e01, e12, e02 = sign1(l1 - l0), sign1(l2 - l1), sign1(l2 - l0)
    rhs = (a[0] * e01 * phi01 + a[1] * e12 * ring12 + a[2] * e02 * ring02
           + a[3] * e01 * ring01 + a[4] * e12 * phi12 + a[5] * e02 * phi02)
    return lhs - rhs


def decomposition_tables(f: ScalarFunction, X: PointSet, P: SectorPartition) -> dict:
    """Everything schur_decomposition_residual needs, precomputed for X."""
    v = X.values
    phi, ring = two_var_tables(f, X)
    eps2 = sign1(v[None, :] - v[:, None])
    return {
        "f2": f2_table(f, v),
        "a": a_tables(X, P),
        "eps_phi": eps2 * phi,
        "eps_ring": eps2 * ring,
    }


@_one_blas_thread()
def schur_decomposition_residual(f: ScalarFunction, X: PointSet, a, b,
                                 P: SectorPartition, tables: dict = None) -> float:
    """S_2 distance between M_{f^[2]}(a, b) and its six-term composition."""
    a, b = as_matrix(a), as_matrix(b)
    if tables is None:
        tables = decomposition_tables(f, X, P)
    lhs = apply_bilinear(tables["f2"], X, a, b)
    a1, a2, a3, a4, a5, a6 = tables["a"]
    ep, er = tables["eps_phi"], tables["eps_ring"]
    rhs = apply_bilinear(a1, X, ep * a, b)
    rhs += apply_bilinear(a2, X, a, er * b)
    rhs += er * apply_bilinear(a3, X, a, b)
    rhs += apply_bilinear(a4, X, er * a, b)
    rhs += apply_bilinear(a5, X, a, ep * b)
    rhs += ep * apply_bilinear(a6, X, a, b)
    return float(np.linalg.norm(lhs - rhs))
