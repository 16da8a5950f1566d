"""Divided differences with repeated nodes and their analytic partials.

Every divided difference here comes from one confluent Newton table,
``newton_table(f, nodes)``, whose nodes must list equal values next to each
other.  A window of the table whose two end nodes are equal then has all its
nodes equal and holds f^(w)(x)/w!; every other window is the difference
quotient of the two windows inside it.  The nodes may be arrays, so one table
serves a scalar tuple, a grid of two-variable tuples and an n^3 grid of
triples alike, equal and unequal points mixed.

``divided_difference`` sorts the nodes, clusters them with an absolute
tolerance and collapses each cluster to its mean before building the table.
Sorting first means every division uses the largest gap available inside its
window, which keeps cancellation in check.

For f(s) = s*|s| (kind ``generalized_abs``) the order-2 value on a fully
coincident node triple is 0 by convention; no pointwise second derivative is
ever evaluated.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (BadParameter, CoincidentPivot, DegenerateTolerance, NonFiniteNode,
                     OrderUnsupported)
from .functions import KIND_GENERALIZED_ABS, ScalarFunction

DEFAULT_TOL = 1e-9


def _cluster_sorted(nodes: np.ndarray, tol: float):
    """Group sorted nodes whose consecutive gaps are <= tol; return (means, sizes)."""
    clusters = np.split(nodes, np.flatnonzero(np.diff(nodes) > tol) + 1)
    return [float(np.mean(c)) for c in clusters], [len(c) for c in clusters]


def _check_order(f: ScalarFunction, n: int):
    if f.kind == KIND_GENERALIZED_ABS:
        if n > 2:
            raise OrderUnsupported(f"order {n} unsupported for {f.name}")
    elif n > f.max_order:
        raise OrderUnsupported(f"order {n} exceeds max_order {f.max_order} of {f.name}")


def newton_table(f: ScalarFunction, nodes):
    """f^[n] at the n+1 broadcastable nodes, equal nodes next to each other.

    Only the previous diagonal of the table is kept.  f^(w) is evaluated only
    for a window with some equal end nodes, once per node object (the grid
    callers repeat one array); a window whose end nodes are equal at some
    points and differ at others takes each value where it applies."""
    nodes = list(nodes)  # keeps every node alive, so no two share an id()
    memo = {}  # (w, id(node)) -> f^(w)(node)/w!

    def taylor(w, x):
        key = (w, id(x))
        if key not in memo:
            memo[key] = f.eval(x) if w == 0 else f.deriv(w)(x) / math.factorial(w)
        return memo[key]

    n = len(nodes) - 1
    prev = [taylor(0, x) for x in nodes]
    for w in range(1, n + 1):
        cur = []
        for i in range(n + 1 - w):
            first, last = nodes[i], nodes[i + w]
            same = first == last
            scalar = not isinstance(same, np.ndarray)  # a plain bool: no 0-d reduction
            if not (same if scalar else same.any()):
                cur.append((prev[i + 1] - prev[i]) / (last - first))
                continue
            if f.kind == KIND_GENERALIZED_ABS and w == 2:
                conf = np.zeros(np.shape(same))
            else:
                conf = taylor(w, first)
            if scalar or same.all():
                cur.append(conf)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    cur.append(np.where(same, conf, (prev[i + 1] - prev[i]) / (last - first)))
        prev = cur
    return prev[0]


def divided_difference(f: ScalarFunction, nodes: Sequence[float], tol: float = DEFAULT_TOL) -> float:
    """f^[n] at the given n+1 nodes (any order, repeats allowed)."""
    if tol <= 0:
        raise DegenerateTolerance(f"tol must be positive, got {tol}")
    z = np.sort(np.asarray(nodes, dtype=float))
    n = len(z) - 1
    if n < 0:
        raise BadParameter("need at least one node")
    if not np.all(np.isfinite(z)):
        raise NonFiniteNode(f"nodes must be finite, got {z[~np.isfinite(z)].tolist()}")
    _check_order(f, n)
    means, sizes = _cluster_sorted(z, tol)
    return float(newton_table(f, np.repeat(means, sizes)))


def divdiff_two_var(f: ScalarFunction, n: int, k: int, lam: float, mu: float) -> float:
    """f^[n] at lambda repeated k times and mu repeated n+1-k times."""
    if not 0 <= k <= n + 1:
        raise BadParameter(f"need 0 <= k <= n+1, got k={k}, n={n}")
    nodes = [lam] * k + [mu] * (n + 1 - k)
    return divided_difference(f, nodes)


def divdiff_two_var_grid(f: ScalarFunction, n: int, k: int, lam, mu):
    """Vectorized f^[n](lambda^(k), mu^(n+1-k)) on broadcastable arrays,
    f^(n)(lambda)/n! (0 for s|s| at n = 2) where lambda == mu."""
    if not 0 <= k <= n + 1:
        raise BadParameter(f"need 0 <= k <= n+1, got k={k}, n={n}")
    _check_order(f, n)
    lam, mu = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(mu, dtype=float))
    return newton_table(f, [lam] * k + [mu] * (n + 1 - k))


def divdiff_partial(f: ScalarFunction, n: int, k: int, lam: float, mu: float,
                    which: str = "lambda") -> float:
    """Analytic partial of (lam, mu) -> f^[n](lam^(k), mu^(n+1-k)).

    d/dlam = k * f^[n+1](lam^(k+1), mu^(n+1-k)),
    d/dmu  = (n+1-k) * f^[n+1](lam^(k), mu^(n+2-k)).
    """
    if not 0 <= k <= n + 1:
        raise BadParameter(f"need 0 <= k <= n+1, got k={k}, n={n}")
    if f.kind == KIND_GENERALIZED_ABS or n + 1 > f.max_order:
        raise OrderUnsupported(
            f"partials of order-{n} divided differences need f^({n + 1})")
    if which in ("lambda", "lam"):
        return k * divdiff_two_var(f, n + 1, k + 1, lam, mu)
    if which == "mu":
        return (n + 1 - k) * divdiff_two_var(f, n + 1, k, lam, mu)
    raise BadParameter(f"which must be 'lambda' or 'mu', got {which!r}")


def node_insertion_split(f: ScalarFunction, nodes: Sequence[float], i: int, j: int, mu: float):
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
    lhs = divided_difference(f, nodes)
    rhs = ((li - mu) / (li - lj)) * divided_difference(f, with_mu_at_j) \
        + ((mu - lj) / (li - lj)) * divided_difference(f, with_mu_at_i)
    return lhs, rhs, lhs - rhs
