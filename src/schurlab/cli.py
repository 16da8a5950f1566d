"""Reproducible experiment runner.

Every subcommand prints a one-line summary and, when --out is given, writes
CSV results (floats at 12 significant digits, rows sorted by the sweep key)
plus a manifest.json with the full configuration, library version, and wall
time.  Identical configurations produce byte-identical CSV files.

Exit status: 0 success, 2 validation failure, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .constants import (C_BMO, C_constant, Cprime_constant, D_constant,
                        ExponentTriple, asymptotics_table, kappa)
from .decomp import (SectorPartition, decomposition_residual,
                     decomposition_tables, schur_decomposition_residual)
from .divdiff import divided_difference
from .errors import ConvergenceFailure, SchurLabError
from .functions import get_function
from .hms import GridSpec, hms_norm, hms_theorem_bound, symbol_from_divdiff
from .lowerlab import (GeometricDiscretization, extrapolation_experiment,
                       limit_convergence_report, theorem_b1_experiment,
                       theorem_b2_experiment, truncation_norm_sweep)
from .schur import (Budget, DiscreteSymbol, PointSet, load_symbol_table,
                    m_plus_symbol, norm_lower_estimate, ones_symbol,
                    truncation_symbol, diagonal_symbol)
from .symcalc import (bump_symbol, corollary52_constants, harmonic_symbol,
                      sine_symbol, size_smoothness_check, s1_factorize)
from .dyadic import (DyadicSystem, bk_bound_check, random_admissible_spec,
                     shift_norm_probe)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.12g}"


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(args, name, header, rows, summary: str, extra=None):
    print(summary)
    if args.out:
        out = Path(args.out)
        _write_csv(out / f"{name}.csv", header, rows)
        manifest = {
            "command": name,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k != "func" and v is not None},
            "version": __version__,
            "wall_time_s": round(time.time() - args._t0, 3),
        }
        if extra:
            manifest.update(extra)
        with open(out / f"{name}_manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)


def _parse_floats(text: str):
    return [float(t) for t in text.split(",") if t]


def _budget(args) -> Budget:
    return Budget(restarts=args.restarts, iterations=args.iterations, seed=args.seed)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_divdiff(args):
    f = get_function(args.f)
    nodes = _parse_floats(args.nodes)
    val = divided_difference(f, nodes, tol=args.tol)
    _emit(args, "divdiff", ["f", "nodes", "value"],
          [[args.f, ";".join(_fmt(v) for v in nodes), val]], _fmt(val))


def cmd_decomp(args):
    f = get_function(args.f)
    P = SectorPartition(epsilon=args.epsilon, band=args.band)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.triples):
        t = rng.uniform(-3.0, 3.0, 3)
        while max(t) - min(t) < 1e-6:
            t = rng.uniform(-3.0, 3.0, 3)
        r = decomposition_residual(f, t, P)
        scale = 1.0 + abs(divided_difference(f, t))
        worst = max(worst, abs(r) / scale)
    rows = [[args.f, args.triples, worst]]
    header = ["f", "triples", "max_relative_residual"]
    summary = f"decomp {args.f}: max pointwise residual {worst:.3e} over {args.triples} triples"
    if args.operator_n:
        X = PointSet(tuple(np.linspace(-2.0, 2.0, args.operator_n)))
        tables = decomposition_tables(f, X, P)
        worst_op = 0.0
        for trial in range(args.trials):
            trng = np.random.default_rng([args.seed, trial])
            a = trng.standard_normal((X.n, X.n)) + 1j * trng.standard_normal((X.n, X.n))
            b = trng.standard_normal((X.n, X.n)) + 1j * trng.standard_normal((X.n, X.n))
            res = schur_decomposition_residual(f, X, a, b, P, tables)
            worst_op = max(worst_op, res / (np.linalg.norm(a) * np.linalg.norm(b)))
        rows[0].append(worst_op)
        header.append("max_operator_residual")
        summary += f"; operator residual {worst_op:.3e} (n={args.operator_n})"
    _emit(args, "decomp", header, rows, summary)


def cmd_hms(args):
    f = get_function(args.f)
    lo, hi = _parse_floats(args.box)
    grid = GridSpec(box=(lo, hi), points=args.grid_points)
    sym = symbol_from_divdiff(f, args.n, args.k)
    rep = hms_norm(sym, grid)
    bound = hms_theorem_bound(args.n, args.k, f, interval=(lo, hi))
    summary = (f"hms {args.f} n={args.n} k={args.k}: value {rep.value:.9g} "
               f"<= bound {bound:.9g}")
    _emit(args, "hms", ["f", "n", "k", "hms_value", "theorem_bound"],
          [[args.f, args.n, args.k, rep.value, bound]], summary)


_PROFILES = {
    "harmonic1": lambda: harmonic_symbol(1),
    "cos1": lambda: harmonic_symbol(1, real=True),
    "sin3": lambda: sine_symbol(3),
    "bump": bump_symbol,
}


def cmd_symcalc(args):
    if args.action == "kernel":
        m = _PROFILES[args.profile]()
        rep = size_smoothness_check(m, radii=tuple(_parse_floats(args.radii)), K=args.K)
        summary = (f"kernel {args.profile}: C1_hat {rep.c1_hat:.9g} "
                   f"C2_hat {rep.c2_hat:.9g} tail {rep.tail:.3e}")
        _emit(args, "symcalc_kernel",
              ["profile", "K", "C1_hat", "C2_hat", "coeff_tail"],
              [[args.profile, args.K, rep.c1_hat, rep.c2_hat, rep.tail]], summary)
    elif args.action == "factorize":
        P = SectorPartition(epsilon=args.epsilon, band=args.band)
        rows = []
        for which in args.which:
            c = corollary52_constants(P, which, S=args.S, N=args.N)
            rows.append([which, args.epsilon, args.S, args.N, c])
        summary = "; ".join(f"C(a{r[0]}) = {r[4]:.9g}" for r in rows)
        _emit(args, "symcalc_factorize",
              ["which", "epsilon", "S", "N", "C"], rows, summary)
    else:  # reconstruct
        m = bump_symbol()
        fac = s1_factorize(m, (1, 1), S=args.S, N=args.N)
        rng = np.random.default_rng(args.seed)
        th = rng.uniform(math.pi / 8, 3 * math.pi / 8, 256)
        r = rng.uniform(0.5, 2.0, 256)
        xi1, xi2 = r * np.cos(th), r * np.sin(th)
        err = float(np.max(np.abs(fac.reconstruct(xi1, xi2) - m(xi1, xi2))))
        summary = f"bump factorization: C(m) {fac.C_m:.9g}, reconstruction error {err:.3e}"
        _emit(args, "symcalc_reconstruct", ["C", "max_reconstruction_error"],
              [[fac.C_m, err]], summary)


_SYMBOLS = {
    "ones": lambda arity: ones_symbol(arity),
    "tplus": lambda arity: truncation_symbol("+"),
    "tminus": lambda arity: truncation_symbol("-"),
    "mplus": lambda arity: m_plus_symbol(),
    "diag": lambda arity: diagonal_symbol(),
}


def cmd_schur(args):
    arity = 2 if args.kind == "linear" else 3
    if args.symbol.startswith("@"):
        sym = DiscreteSymbol.from_table(load_symbol_table(args.symbol[1:], arity))
    else:
        sym = _SYMBOLS[args.symbol](arity)
    if args.labels:
        X = PointSet(tuple(_parse_floats(args.labels)))
    else:
        X = PointSet.integers(args.n)
    exps = args.p if args.kind == "linear" else (args.p1, args.p2, args.p)
    est = norm_lower_estimate(args.kind, sym, X, exps, _budget(args),
                              threads=args.threads)
    summary = f"{args.kind} {args.symbol} n={X.n}: achieved ratio {est:.9g}"
    _emit(args, "schur", ["kind", "symbol", "n", "p1", "p2", "p", "ratio"],
          [[args.kind, args.symbol, X.n,
            args.p1 if arity == 3 else args.p, args.p2 if arity == 3 else "",
            args.p, est]], summary)


def cmd_lowerlab(args):
    if args.action == "limits":
        d = GeometricDiscretization(args.q, args.k, args.variant, args.n)
        rep = limit_convergence_report(d)
        _emit(args, "lowerlab_limits",
              ["variant", "q", "k", "n", "max_discrepancy", "gap_bound"],
              [[rep.variant, rep.q, rep.k, rep.n, rep.max_discrepancy,
                rep.exponent_gap_bound]], str(rep))
    elif args.action == "sweep":
        rows = truncation_norm_sweep(_parse_floats(args.plist), args.n,
                                     _budget(args), threads=args.threads)
        out = [[r.p, r.t_plus_ratio, r.m_plus_ratio] for r in rows]
        summary = "; ".join(f"p={r.p:g}: T+ {r.t_plus_ratio:.6g} M+ {r.m_plus_ratio:.6g}"
                            for r in rows)
        _emit(args, "lowerlab_sweep", ["p", "t_plus_ratio", "m_plus_ratio"],
              out, summary)
    elif args.action == "b1":
        d = GeometricDiscretization(args.q, args.k, "B1", args.n)
        rep = theorem_b1_experiment(args.p, args.n, d, _budget(args),
                                    threads=args.threads)
        summary = (f"b1 p={args.p:g} n={args.n}: nu {rep.nu:.6g}, direct "
                   f"{rep.direct_value:.6g}, implied {rep.implied_bound:.6g}")
        _emit(args, "lowerlab_b1",
              ["variant", "p", "n", "q", "k", "nu", "direct_value",
               "implied_bound", "factorized_value", "seed"],
              [["B1", rep.p, rep.n, rep.q, rep.k, rep.nu, rep.direct_value,
                rep.implied_bound, rep.factorized_value, rep.seed]], summary)
    else:  # b2
        d = GeometricDiscretization(args.q, args.k, "B2", args.n)
        rep = theorem_b2_experiment(args.p, args.n, d, _budget(args),
                                    threads=args.threads)
        summary = (f"b2 p={args.p:g} n={args.n}: mu {rep.mu:.6g}, direct "
                   f"{rep.direct_value:.6g}, implied {rep.implied_bound:.6g}")
        _emit(args, "lowerlab_b2",
              ["variant", "p", "n", "q", "k", "mu", "direct_value",
               "implied_bound", "mplus_value", "seed"],
              [["B2", rep.p, rep.n, rep.q, rep.k, rep.mu, rep.direct_value,
                rep.implied_bound, rep.mplus_value, rep.seed]], summary)


def cmd_dyadic(args):
    D = DyadicSystem(args.kmin, args.kmax)
    rng = np.random.default_rng(args.seed)
    complexity = tuple(int(v) for v in _parse_floats(args.complexity))
    if args.action == "bk":
        worst = 0.0
        for _ in range(args.specs):
            spec = random_admissible_spec(D, complexity, args.j0, rng)
            worst = max(worst, bk_bound_check(spec, samples=args.samples,
                                              seed=args.seed))
        summary = f"bk: max |b_K| = {worst:.12g} over {args.specs} specs"
        _emit(args, "dyadic_bk", ["complexity", "j0", "specs", "max_bk"],
              [[";".join(str(c) for c in complexity), args.j0, args.specs, worst]],
              summary)
    else:  # probe
        spec = random_admissible_spec(D, complexity, args.j0, rng)
        ratio = shift_norm_probe(spec, args.p1, args.p2, args.p,
                                 trials=args.trials, d=args.d, seed=args.seed)
        summary = f"probe ({args.p1:g},{args.p2:g},{args.p:g}): best ratio {ratio:.9g}"
        _emit(args, "dyadic_probe",
              ["complexity", "j0", "p1", "p2", "p", "d", "trials", "ratio"],
              [[";".join(str(c) for c in complexity), args.j0, args.p1, args.p2,
                args.p, args.d, args.trials, ratio]], summary)


def cmd_constants(args):
    if args.action == "table":
        tab = asymptotics_table(args.pmin, args.pmax, args.points_per_decade)
        rows = [list(r) for r in tab.rows()]
        summary = (f"D(p,2p,2p) over [{args.pmin:g}, {args.pmax:g}]: "
                   f"top-decade slope {tab.slope_top_decade:.4f}")
        _emit(args, "constants_table",
              ["p", "D_p_2p_2p", "ratio_p4_pstar", "lower_ref_p2_pstar"],
              rows, summary, extra={"slope_top_decade": tab.slope_top_decade})
    else:  # eval
        t = ExponentTriple(args.p, args.p1, args.p2)
        rows = [[args.p, args.p1, args.p2, C_constant(t), D_constant(t),
                 Cprime_constant(t), C_BMO(args.p), kappa(2.0, args.p)]]
        summary = (f"C {rows[0][3]:.9g}, D {rows[0][4]:.9g}, C' {rows[0][5]:.9g}, "
                   f"C_BMO(p) {rows[0][6]:.9g}")
        _emit(args, "constants_eval",
              ["p", "p1", "p2", "C", "D", "Cprime", "C_BMO_p", "kappa_2_p"],
              rows, summary)


def cmd_extrapolate(args):
    reps = []
    for n in (args.n,) if not args.compare_n else (args.n // 2, args.n):
        reps.append(extrapolation_experiment(n=n, trials=args.trials,
                                             seed=args.seed, q=args.q))
    rows = [[r.n, r.trials, r.envelope] for r in reps]
    summary = "; ".join(f"n={r.n}: envelope {r.envelope:.6g}" for r in reps)
    _emit(args, "extrapolate", ["n", "trials", "envelope"], rows, summary)


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schurlab",
        description="Numerical experiments on bilinear Schur multipliers of "
                    "second-order divided differences.")
    ap.add_argument("--seed", type=int, default=0, help="base RNG seed")
    ap.add_argument("--threads", type=int, default=None,
                    help="worker threads (default: SCHURLAB_THREADS or 1)")
    ap.add_argument("--out", type=str, default=None, help="output directory")
    ap.add_argument("--config", type=str, default=None,
                    help="key = value defaults file; explicit flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divdiff", help="evaluate a divided difference at given nodes")
    p.add_argument("--f", required=True)
    p.add_argument("--nodes", required=True, help="comma-separated node list")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_divdiff)

    p = sub.add_parser("decomp", help="residuals of the six-term symbol and "
                                      "operator decomposition identities")
    p.add_argument("--f", default="sin")
    p.add_argument("--triples", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=math.pi / 32)
    p.add_argument("--band", type=float, default=None,
                   help="partition transition band width (default epsilon/2)")
    p.add_argument("--operator-n", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("hms", help="sampled Hoermander-Mikhlin-Schur quantity of a "
                                   "divided-difference symbol vs its (2n+3)/n! bound")
    p.add_argument("--f", default="sin")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--box", default="-5,5")
    p.add_argument("--grid-points", type=int, default=512)
    p.set_defaults(func=cmd_hms)

    p = sub.add_parser("symcalc", help="homogeneous-symbol kernels, size/smoothness "
                                       "constants, and quadrant factorization constants")
    p.add_argument("action", choices=["kernel", "factorize", "reconstruct"])
    p.add_argument("--profile", choices=sorted(_PROFILES), default="harmonic1")
    p.add_argument("--K", type=int, default=256)
    p.add_argument("--radii", default="1,10")
    p.add_argument("--which", type=int, nargs="+", default=[3, 4, 5, 6])
    p.add_argument("--epsilon", type=float, default=math.pi / 32)
    p.add_argument("--band", type=float, default=None,
                   help="partition transition band width (default epsilon/2)")
    p.add_argument("--S", type=float, default=40.0)
    p.add_argument("--N", type=int, default=4096)
    p.set_defaults(func=cmd_symcalc)

    p = sub.add_parser("schur", help="lower-bound estimate of a Schur multiplier norm")
    p.add_argument("--kind", choices=["linear", "bilinear"], default="linear")
    p.add_argument("--symbol", default="mplus",
                   help="named symbol or @file for a tabulated grid")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--labels", default=None)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--p1", type=float, default=4.0)
    p.add_argument("--p2", type=float, default=4.0)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iterations", type=int, default=60)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("lowerlab", help="geometric discretizations: limit symbols, "
                                        "truncation sweeps, and both norm-growth experiments")
    p.add_argument("action", choices=["limits", "sweep", "b1", "b2"])
    p.add_argument("--variant", choices=["B1", "B2"], default="B1")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--k", type=int, default=40)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--plist", default="4,8,16")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iterations", type=int, default=60)
    p.set_defaults(func=cmd_lowerlab)

    p = sub.add_parser("dyadic", help="dyadic-shift coefficient bound checks and norm probes")
    p.add_argument("action", choices=["bk", "probe"])
    p.add_argument("--kmin", type=int, default=-4)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--complexity", default="1,1,1")
    p.add_argument("--j0", type=int, default=3)
    p.add_argument("--specs", type=int, default=100)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--p1", type=float, default=4.0)
    p.add_argument("--p2", type=float, default=4.0)
    p.add_argument("--p", type=float, default=2.0)
    p.set_defaults(func=cmd_dyadic)

    p = sub.add_parser("constants", help="explicit constants and the D(p,2p,2p) growth table")
    p.add_argument("action", choices=["table", "eval"])
    p.add_argument("--mode", default="D2p")
    p.add_argument("--pmin", type=float, default=1.01)
    p.add_argument("--pmax", type=float, default=64.0)
    p.add_argument("--points-per-decade", type=int, default=32)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--p1", type=float, default=4.0)
    p.add_argument("--p2", type=float, default=4.0)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("extrapolate", help="Marcinkiewicz-scale envelope of the bilinear "
                                           "action on random S_2-normalized inputs")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--q", type=float, default=0.8)
    p.add_argument("--compare-n", action="store_true",
                   help="also run at n/2 for the stability comparison")
    p.set_defaults(func=cmd_extrapolate)

    return ap


def _apply_config(ap: argparse.ArgumentParser, argv):
    """Pre-scan --config and install its key = value pairs as defaults."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):  # no path: argparse reports the usage error
        return argv
    path = argv[idx + 1]
    defaults = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            defaults[key.strip().replace("-", "_")] = value.strip()
    for action in ap._actions:
        if action.dest in defaults and action.type is not None:
            action.default = action.type(defaults[action.dest])
        elif action.dest in defaults:
            action.default = defaults[action.dest]
    for sp in ap._subparsers._group_actions[0].choices.values():  # type: ignore[union-attr]
        for action in sp._actions:
            if action.dest in defaults and action.type is not None:
                action.default = action.type(defaults[action.dest])
            elif action.dest in defaults:
                action.default = defaults[action.dest]
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        argv = _apply_config(ap, argv)
        args = ap.parse_args(argv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args._t0 = time.time()
    try:
        args.func(args)
    except ConvergenceFailure as exc:
        print(f"error [numerical]: {exc}", file=sys.stderr)
        return 3
    except (SchurLabError, ValueError, KeyError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
