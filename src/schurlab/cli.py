"""Reproducible experiment runner.

Every subcommand prints a one-line summary and, when --out is given, writes
CSV results (floats at 12 significant digits, rows sorted by the sweep key)
plus a manifest.json with the full configuration, library version, and wall
time.  Identical configurations produce byte-identical CSV files.

Exit status: 0 success, 2 validation failure, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .constants import (C_BMO, C_constant, Cprime_constant, D_constant,
                        ExponentTriple, asymptotics_table, kappa)
from .decomp import (SectorPartition, decomposition_residuals, decomposition_tables,
                     f2_values, schur_decomposition_residual)
from .divdiff import divided_difference
from .errors import BadParameter, ConvergenceFailure, SchurLabError, check_count
from .functions import get_function
from .hms import GridSpec, hms_norm, hms_theorem_bound, symbol_from_divdiff
from .lowerlab import (GeometricDiscretization, extrapolation_experiment,
                       limit_convergence_report, theorem_b1_experiment,
                       theorem_b2_experiment, truncation_norm_sweep)
from .matrixnum import _one_blas_thread
from .schur import (Budget, PointSet, load_symbol_table, m_plus_symbol,
                    norm_lower_search, ones_symbol, truncation_symbol,
                    diagonal_symbol)
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


_started = 0.0  # time.time() when main began the running command


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
            "wall_time_s": round(time.time() - _started, 3),
        }
        if extra:
            manifest.update(extra)
        with open(out / f"{name}_manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)


# argparse types: a ValueError is a usage error that names the option
def float_list(text: str) -> list:
    """Comma-separated floats; empty items are skipped."""
    return [float(t) for t in text.split(",") if t]


def float_pair(text: str) -> tuple:
    lo, hi = float_list(text)
    return lo, hi


def int_triple(text: str) -> tuple:
    a, b, c = (int(t) for t in text.split(","))
    return a, b, c


def _budget(args) -> Budget:
    return Budget(restarts=args.restarts, iterations=args.iterations, seed=args.seed)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_divdiff(args):
    f = get_function(args.f)
    val = divided_difference(f, args.nodes, tol=args.tol)
    _emit(args, "divdiff", ["f", "nodes", "value"],
          [[args.f, ";".join(_fmt(v) for v in args.nodes), val]], _fmt(val))


DECOMP_BLOCK = 4096  # random triples drawn and checked per vectorized pass


def cmd_decomp(args):
    check_count("triples", args.triples)
    check_count("trials", args.trials)
    check_count("operator_n", args.operator_n, 0)
    f = get_function(args.f)
    P = SectorPartition(epsilon=args.epsilon, band=args.band)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for start in range(0, args.triples, DECOMP_BLOCK):
        t = rng.uniform(-3.0, 3.0, (min(DECOMP_BLOCK, args.triples - start), 3))
        while (narrow := np.ptp(t, axis=1) < 1e-6).any():
            t[narrow] = rng.uniform(-3.0, 3.0, (int(narrow.sum()), 3))
        scale = 1.0 + np.abs(f2_values(f, t[:, 0], t[:, 1], t[:, 2]))
        worst = np.maximum(worst, np.max(np.abs(decomposition_residuals(f, t, P)) / scale))
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
    grid = GridSpec(box=args.box, points=args.grid_points)
    sym = symbol_from_divdiff(f, args.n, args.k)
    rep = hms_norm(sym, grid)
    bound = hms_theorem_bound(args.n, args.k, f, interval=args.box)
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
        rep = size_smoothness_check(m, radii=args.radii, K=args.K)
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


_LINEAR_SYMBOLS = {
    "tplus": lambda: truncation_symbol("+"),
    "tminus": lambda: truncation_symbol("-"),
    "mplus": m_plus_symbol,
    "diag": diagonal_symbol,
}


def cmd_schur(args):
    arity = 2 if args.kind == "linear" else 3
    if args.symbol.startswith("@"):
        sym = load_symbol_table(args.symbol[1:], arity)
    elif args.symbol == "ones":
        sym = ones_symbol(arity)
    elif args.symbol in _LINEAR_SYMBOLS:
        sym = _LINEAR_SYMBOLS[args.symbol]()
    else:
        raise BadParameter(f"unknown symbol {args.symbol!r}; known: "
                           f"{['ones', '@file', *_LINEAR_SYMBOLS]}")
    if args.labels:
        X = PointSet(tuple(args.labels))
    else:
        X = PointSet.integers(args.n)
    exps = args.p if args.kind == "linear" else (args.p1, args.p2, args.p)
    est = norm_lower_search(args.kind, sym, X, exps, _budget(args)).ratio
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
        rows = truncation_norm_sweep(args.plist, args.n, _budget(args))
        out = [[r.p, r.t_plus_ratio, r.m_plus_ratio] for r in rows]
        summary = "; ".join(f"p={r.p:g}: T+ {r.t_plus_ratio:.6g} M+ {r.m_plus_ratio:.6g}"
                            for r in rows)
        _emit(args, "lowerlab_sweep", ["p", "t_plus_ratio", "m_plus_ratio"],
              out, summary)
    elif args.action == "b1":
        d = GeometricDiscretization(args.q, args.k, "B1", args.n)
        rep = theorem_b1_experiment(args.p, args.n, d, _budget(args))
        summary = (f"b1 p={args.p:g} n={args.n}: nu {rep.nu:.6g}, direct "
                   f"{rep.direct_value:.6g}, implied {rep.implied_bound:.6g}")
        _emit(args, "lowerlab_b1",
              ["variant", "p", "n", "q", "k", "nu", "direct_value",
               "implied_bound", "factorized_value", "seed"],
              [["B1", rep.p, rep.n, rep.q, rep.k, rep.nu, rep.direct_value,
                rep.implied_bound, rep.factorized_value, rep.seed]], summary)
    else:  # b2
        d = GeometricDiscretization(args.q, args.k, "B2", args.n)
        rep = theorem_b2_experiment(args.p, args.n, d, _budget(args))
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
    if args.action == "bk":
        check_count("specs", args.specs)
        worst = 0.0
        for _ in range(args.specs):
            spec = random_admissible_spec(D, args.complexity, args.j0, rng)
            worst = max(worst, bk_bound_check(spec, samples=args.samples,
                                              seed=args.seed))
        summary = f"bk: max |b_K| = {worst:.12g} over {args.specs} specs"
        _emit(args, "dyadic_bk", ["complexity", "j0", "specs", "max_bk"],
              [[";".join(str(c) for c in args.complexity), args.j0, args.specs, worst]],
              summary)
    else:  # probe
        spec = random_admissible_spec(D, args.complexity, args.j0, rng)
        ratio = shift_norm_probe(spec, args.p1, args.p2, args.p,
                                 trials=args.trials, d=args.d, seed=args.seed)
        summary = f"probe ({args.p1:g},{args.p2:g},{args.p:g}): best ratio {ratio:.9g}"
        _emit(args, "dyadic_probe",
              ["complexity", "j0", "p1", "p2", "p", "d", "trials", "ratio"],
              [[";".join(str(c) for c in args.complexity), args.j0, args.p1, args.p2,
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

# argparse reads a value that starts with a minus sign, unless it is one plain
# number, as another option
_MINUS_FORM = "a list that starts with '-' needs the = form, as in {}"


def build_parser():
    """The parser, and a map from None (the top level) and each subcommand
    name to its parser and the dests of the options that parser owns."""
    owned = {}  # parser -> dests of the options added to it

    def opt(parser, *flags, **kwargs):
        owned.setdefault(parser, set()).add(parser.add_argument(*flags, **kwargs).dest)

    ap = argparse.ArgumentParser(
        prog="schurlab",
        description="Numerical experiments on bilinear Schur multipliers of "
                    "second-order divided differences.")
    opt(ap, "--seed", type=int, default=0, help="base RNG seed")
    opt(ap, "--out", type=str, default=None, help="output directory")
    opt(ap, "--config", type=str, default=None,
            help="key = value defaults file; explicit flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divdiff", help="evaluate a divided difference at given nodes")
    opt(p, "--f", required=True)
    opt(p, "--nodes", type=float_list, required=True,
           help="comma-separated node list; " + _MINUS_FORM.format("--nodes=-1,2"))
    opt(p, "--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_divdiff)

    p = sub.add_parser("decomp", help="residuals of the six-term symbol and "
                                      "operator decomposition identities")
    opt(p, "--f", default="sin")
    opt(p, "--triples", type=int, default=1000)
    opt(p, "--epsilon", type=float, default=math.pi / 32)
    opt(p, "--band", type=float, default=None,
           help="partition transition band width (default epsilon/2)")
    opt(p, "--operator-n", type=int, default=0)
    opt(p, "--trials", type=int, default=5)
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("hms", help="sampled Hoermander-Mikhlin-Schur quantity of a "
                                   "divided-difference symbol vs its (2n+3)/n! bound")
    opt(p, "--f", default="sin")
    opt(p, "--n", type=int, default=2)
    opt(p, "--k", type=int, default=1)
    opt(p, "--box", type=float_pair, default="-5,5",
           help="lo,hi of the sampling box; " + _MINUS_FORM.format("--box=-3,3"))
    opt(p, "--grid-points", type=int, default=512)
    p.set_defaults(func=cmd_hms)

    p = sub.add_parser("symcalc", help="homogeneous-symbol kernels, size/smoothness "
                                       "constants, and quadrant factorization constants")
    opt(p, "action", choices=["kernel", "factorize", "reconstruct"])
    opt(p, "--profile", choices=sorted(_PROFILES), default="harmonic1")
    opt(p, "--K", type=int, default=256)
    opt(p, "--radii", type=float_list, default="1,10",
           help="comma-separated radii; " + _MINUS_FORM.format("--radii=LIST"))
    opt(p, "--which", type=int, nargs="+", default=[3, 4, 5, 6])
    opt(p, "--epsilon", type=float, default=math.pi / 32)
    opt(p, "--band", type=float, default=None,
           help="partition transition band width (default epsilon/2)")
    opt(p, "--S", type=float, default=40.0)
    opt(p, "--N", type=int, default=4096)
    p.set_defaults(func=cmd_symcalc)

    p = sub.add_parser("schur", help="lower-bound estimate of a Schur multiplier norm")
    opt(p, "--kind", choices=["linear", "bilinear"], default="linear")
    opt(p, "--symbol", default="mplus",
           help="named symbol or @file for a tabulated grid")
    opt(p, "--n", type=int, default=16)
    opt(p, "--labels", type=float_list, default=None,
           help="comma-separated point labels; " + _MINUS_FORM.format("--labels=-1,0,1"))
    opt(p, "--p", type=float, default=4.0)
    opt(p, "--p1", type=float, default=4.0)
    opt(p, "--p2", type=float, default=4.0)
    opt(p, "--restarts", type=int, default=20)
    opt(p, "--iterations", type=int, default=60)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("lowerlab", help="geometric discretizations: limit symbols, "
                                        "truncation sweeps, and both norm-growth experiments")
    opt(p, "action", choices=["limits", "sweep", "b1", "b2"])
    opt(p, "--variant", choices=["B1", "B2"], default="B1")
    opt(p, "--q", type=float, default=0.5)
    opt(p, "--k", type=int, default=40)
    opt(p, "--n", type=int, default=32)
    opt(p, "--p", type=float, default=4.0)
    opt(p, "--plist", type=float_list, default="4,8,16",
           help="comma-separated exponents; " + _MINUS_FORM.format("--plist=LIST"))
    opt(p, "--restarts", type=int, default=20)
    opt(p, "--iterations", type=int, default=60)
    p.set_defaults(func=cmd_lowerlab)

    p = sub.add_parser("dyadic", help="dyadic-shift coefficient bound checks and norm probes")
    opt(p, "action", choices=["bk", "probe"])
    opt(p, "--kmin", type=int, default=-4)
    opt(p, "--kmax", type=int, default=2)
    opt(p, "--complexity", type=int_triple, default="1,1,1",
           help="three comma-separated integers; " + _MINUS_FORM.format("--complexity=LIST"))
    opt(p, "--j0", type=int, default=3)
    opt(p, "--specs", type=int, default=100)
    opt(p, "--samples", type=int, default=64)
    opt(p, "--trials", type=int, default=64)
    opt(p, "--d", type=int, default=1)
    opt(p, "--p1", type=float, default=4.0)
    opt(p, "--p2", type=float, default=4.0)
    opt(p, "--p", type=float, default=2.0)
    p.set_defaults(func=cmd_dyadic)

    p = sub.add_parser("constants", help="explicit constants and the D(p,2p,2p) growth table")
    opt(p, "action", choices=["table", "eval"])
    opt(p, "--pmin", type=float, default=1.01)
    opt(p, "--pmax", type=float, default=64.0)
    opt(p, "--points-per-decade", type=int, default=32)
    opt(p, "--p", type=float, default=2.0)
    opt(p, "--p1", type=float, default=4.0)
    opt(p, "--p2", type=float, default=4.0)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("extrapolate", help="Marcinkiewicz-scale envelope of the bilinear "
                                           "action on random S_2-normalized inputs")
    opt(p, "--n", type=int, default=128)
    opt(p, "--trials", type=int, default=50)
    opt(p, "--q", type=float, default=0.8)
    opt(p, "--compare-n", action="store_true",
           help="also run at n/2 for the stability comparison")
    p.set_defaults(func=cmd_extrapolate)

    return ap, {name: (parser, owned[parser])
                for name, parser in {None: ap, **sub.choices}.items()}


def _config_defaults(ap: argparse.ArgumentParser, path, known) -> dict:
    """The key = value lines of a --config file ('#' starts a comment); each
    key must be in ``known``."""
    pairs = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not eq:
                ap.error(f"{path}: {line!r} is not an 'option = value' line")
            if key not in known:
                ap.error(f"{path}: no option is named {key!r}")
            pairs[key] = value.strip()
    return pairs


@_one_blas_thread()
def main(argv=None) -> int:
    global _started
    argv = list(sys.argv[1:] if argv is None else argv)
    ap, options = build_parser()
    args = ap.parse_args(argv)
    if args.config is not None:
        known = set().union(*(dests for _, dests in options.values()))
        try:
            pairs = _config_defaults(ap, args.config, known)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # only the owner takes a key: argparse copies a subcommand's namespace
        # over the top level's, so a top-level key there would beat its flag.
        # A key of another subcommand is skipped (one file may serve several);
        # a string default is converted with the option's type, so a bad value
        # is a usage error.
        for parser, dests in (options[None], options[args.command]):
            parser.set_defaults(**{k: v for k, v in pairs.items() if k in dests})
        args = ap.parse_args(argv)
    _started = time.time()
    try:
        args.func(args)
    except ConvergenceFailure as exc:
        print(f"error [numerical]: {exc}", file=sys.stderr)
        return 3
    except (SchurLabError, ValueError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
