"""Divided differences with repeated nodes and their analytic partials.

The n-th order divided difference f^[n](l_0, ..., l_n) is computed from the
confluent Newton table: nodes are sorted, clustered with an absolute tolerance,
each cluster is collapsed to its mean, and any all-equal window of the table is
filled with f^(r)(x)/r!.  Sorting first means every division in the table uses
the largest gap available inside its window, which keeps cancellation in check.

For f(s) = s*|s| (kind ``generalized_abs``) the order-2 value on a fully
coincident node triple is 0 by convention; no pointwise second derivative is
ever evaluated.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CoincidentPivot, DegenerateTolerance, NonFiniteNode, OrderUnsupported
from .functions import KIND_GENERALIZED_ABS, ScalarFunction

DEFAULT_TOL = 1e-9


def _cluster_sorted(nodes: np.ndarray, tol: float):
    """Group sorted nodes whose consecutive gaps are <= tol; return (means, sizes)."""
    means, sizes = [], []
    start = 0
    for i in range(1, len(nodes) + 1):
        if i == len(nodes) or nodes[i] - nodes[i - 1] > tol:
            means.append(float(np.mean(nodes[start:i])))
            sizes.append(i - start)
            start = i
    return means, sizes


def _check_order(f: ScalarFunction, n: int):
    if f.kind == KIND_GENERALIZED_ABS:
        if n > 2:
            raise OrderUnsupported(f"order {n} unsupported for {f.name}")
    elif n > f.max_order:
        raise OrderUnsupported(f"order {n} exceeds max_order {f.max_order} of {f.name}")


def divided_difference(f: ScalarFunction, nodes: Sequence[float], tol: float = DEFAULT_TOL) -> float:
    """f^[n] at the given n+1 nodes (any order, repeats allowed)."""
    if tol <= 0:
        raise DegenerateTolerance(f"tol must be positive, got {tol}")
    z = np.sort(np.asarray(nodes, dtype=float))
    n = len(z) - 1
    if n < 0:
        raise ValueError("need at least one node")
    if not np.all(np.isfinite(z)):
        raise NonFiniteNode(f"nodes must be finite, got {z[~np.isfinite(z)].tolist()}")
    _check_order(f, n)

    means, sizes = _cluster_sorted(z, tol)
    if len(means) == 1:
        # fully confluent tuple
        if f.kind == KIND_GENERALIZED_ABS and n == 2:
            return 0.0
        if n > f.max_order:
            raise OrderUnsupported(
                f"confluent order {n} needs f^({n}) which {f.name} lacks")
        return float(f.deriv(n)(means[0])) / math.factorial(n)

    # expanded confluent node list: cluster means with multiplicity
    zz = np.repeat(means, sizes)
    sizes = np.asarray(sizes)
    if f.kind != KIND_GENERALIZED_ABS and int(sizes.max()) - 1 > f.max_order:
        raise OrderUnsupported(
            f"node multiplicity {int(sizes.max())} needs derivatives {f.name} lacks")

    # Newton table over windows [i, j]; only the previous diagonal is kept.
    prev = [float(f.eval(x)) for x in zz]
    for width in range(1, n + 1):
        cur = []
        for i in range(n + 1 - width):
            j = i + width
            if zz[j] == zz[i]:
                if f.kind == KIND_GENERALIZED_ABS and width == 2:
                    cur.append(0.0)
                else:
                    cur.append(float(f.deriv(width)(zz[i])) / math.factorial(width))
            else:
                cur.append((prev[i + 1] - prev[i]) / (zz[j] - zz[i]))
        prev = cur
    return prev[0]


def divdiff_two_var(f: ScalarFunction, n: int, k: int, lam: float, mu: float,
                    tol: float = DEFAULT_TOL) -> float:
    """f^[n] at lambda repeated k times and mu repeated n+1-k times."""
    if not 0 <= k <= n + 1:
        raise ValueError(f"need 0 <= k <= n+1, got k={k}, n={n}")
    nodes = [lam] * k + [mu] * (n + 1 - k)
    return divided_difference(f, nodes, tol)


def divdiff_two_var_grid(f: ScalarFunction, n: int, k: int, lam, mu):
    """Vectorized f^[n](lambda^(k), mu^(n+1-k)) for |lambda - mu| bounded away from 0.

    The confluent table is evaluated on whole arrays at once.  Windows with
    equal endpoints are structural here (both endpoints inside the lambda block
    or inside the mu block), so no per-point branching is needed.
    """
    if not 0 <= k <= n + 1:
        raise ValueError(f"need 0 <= k <= n+1, got k={k}, n={n}")
    _check_order(f, n)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if k == 0 or k == n + 1:
        x = mu if k == 0 else lam
        if f.kind == KIND_GENERALIZED_ABS and n == 2:
            return np.zeros(np.broadcast(lam, mu).shape)
        return f.deriv(n)(x) / math.factorial(n)

    lam, mu = np.broadcast_arrays(lam, mu)
    gap = lam - mu
    # node list sorted by position in the tuple: window [i, j] has equal
    # endpoints iff j < k (all lambda) or i >= k (all mu).
    def node(i):
        return lam if i < k else mu

    prev = [f.eval(node(i)) * np.ones_like(gap) for i in range(n + 1)]
    for width in range(1, n + 1):
        cur = []
        for i in range(n + 1 - width):
            j = i + width
            if j < k:
                if f.kind == KIND_GENERALIZED_ABS and width == 2:
                    cur.append(np.zeros_like(gap))
                else:
                    cur.append(f.deriv(width)(lam) / math.factorial(width) * np.ones_like(gap))
            elif i >= k:
                if f.kind == KIND_GENERALIZED_ABS and width == 2:
                    cur.append(np.zeros_like(gap))
                else:
                    cur.append(f.deriv(width)(mu) / math.factorial(width) * np.ones_like(gap))
            else:
                denom = node(j) - node(i)  # mu - lam, never 0 off the diagonal
                cur.append((prev[i + 1] - prev[i]) / denom)
        prev = cur
    return prev[0]


def divdiff_partial(f: ScalarFunction, n: int, k: int, lam: float, mu: float,
                    which: str = "lambda", tol: float = DEFAULT_TOL) -> float:
    """Analytic partial of (lam, mu) -> f^[n](lam^(k), mu^(n+1-k)).

    d/dlam = k * f^[n+1](lam^(k+1), mu^(n+1-k)),
    d/dmu  = (n+1-k) * f^[n+1](lam^(k), mu^(n+2-k)).
    """
    if not 0 <= k <= n + 1:
        raise ValueError(f"need 0 <= k <= n+1, got k={k}, n={n}")
    if f.kind == KIND_GENERALIZED_ABS or n + 1 > f.max_order:
        raise OrderUnsupported(
            f"partials of order-{n} divided differences need f^({n + 1})")
    if which in ("lambda", "lam"):
        return k * divdiff_two_var(f, n + 1, k + 1, lam, mu, tol)
    if which == "mu":
        return (n + 1 - k) * divdiff_two_var(f, n + 1, k, lam, mu, tol)
    raise ValueError(f"which must be 'lambda' or 'mu', got {which!r}")


def node_insertion_split(f: ScalarFunction, nodes: Sequence[float], i: int, j: int,
                         mu: float, tol: float = DEFAULT_TOL):
    """Two-term split of f^[n] obtained by inserting the extra node mu.

    Returns (lhs, rhs, lhs - rhs) where

      lhs = f^[n](nodes)
      rhs = (l_i - mu)/(l_i - l_j) * f^[n](nodes with mu at slot j)
          + (mu - l_j)/(l_i - l_j) * f^[n](nodes with mu at slot i).
    """
    nodes = list(map(float, nodes))
    li, lj = nodes[i], nodes[j]
    if li == lj:
        raise CoincidentPivot(f"nodes[{i}] == nodes[{j}] == {li}")
    with_mu_at_j = list(nodes)
    with_mu_at_j[j] = mu
    with_mu_at_i = list(nodes)
    with_mu_at_i[i] = mu
    lhs = divided_difference(f, nodes, tol)
    rhs = ((li - mu) / (li - lj)) * divided_difference(f, with_mu_at_j, tol) \
        + ((mu - lj) / (li - lj)) * divided_difference(f, with_mu_at_i, tol)
    return lhs, rhs, lhs - rhs
