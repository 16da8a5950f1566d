"""The three benchmark workloads: inputs made from a seed, and one checked pass.

``<name>_inputs(seed)`` is the set-up a user pays before any experiment runs;
``<name>_pass(inputs, p, memo)`` performs the workload's operations once
through schurlab's public API, checking every answer (``memo`` carries state
across the passes of one run).  A pass records each operation
with ``Pass.op``: the call is timed work, the check runs with tracing paused,
and a raised exception or a failed check counts as one failed operation
without stopping the pass.

Why these workloads:

- growth: the linear norm search, where the ascent's SVDs do nearly all the
  work.  Mixes even (2p = 32) and non-even (p = 1.1) exponents and matrices
  that fit in L2 (n = 64) with ones where BLAS threading matters (n = 128).
- factorize: ``symcalc`` quadrant factorizations; ``schur`` does no work.
- bilinear: ``schur`` through the n^3 bilinear action (einsum) and the
  symbol-table builds, with a working set above L2, then one round of the
  command-line runner over its cheap subcommands, the only place ``cli``,
  ``divdiff``, ``hms``, ``dyadic`` and ``constants`` are measured.  The CLI
  round is not a workload of its own: it is interpreter-bound, and on a
  shared 2-vCPU host such code drifts about twice as much as BLAS-bound code,
  too much for the wall-time bound when it is timed alone (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import schurlab
from schurlab import cli, decomp, lowerlab, matrixnum, schur, symcalc

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

# Seed whose CLI outputs must also match the hashes recorded in golden.json,
# and the seed kept out of tuning, on which later claims must also hold.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

REL_TOL = 1e-9       # re-measured ratio vs reported ratio
C_REL_TOL = 1e-8     # factorization constants vs the recorded values
RESIDUAL_TOL = 1e-8  # operator residual of the six-term decomposition
GAP_REL_TOL = 1e-6   # B1 factorization gap, B2 consistency gap


class Pass:
    """Bookkeeping of one pass: operations, failures and quality figures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}
        self.ratios: list[float] = []  # the figures ratio_geomean summarizes

    def op(self, name: str, call, check):
        """Run ``call()``, then ``check(result)`` untraced; return the result.

        ``check`` returns a list of problems (empty when the answer holds).
        An operation that raises returns None, so the operations that use its
        result fail in turn and are counted, not skipped.
        """
        self.attempted += 1
        result = None
        try:
            result = call()
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                problems = check(result)
        except Exception as exc:  # a failed operation is counted, never fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))
        return result

    def record(self, key: str, value: float, ratio: bool = False):
        self.quality[key] = float(value)
        if ratio:
            self.ratios.append(float(value))


def _expect(*conditions):
    """Problems for the (ok, message) pairs that do not hold."""
    return [msg for ok, msg in conditions if not ok]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _best_seed_ratio(m, n: int, p: float) -> float:
    """Best ratio among the structured seeds the experiments start from.

    The search evaluates every seed before ascending, so its answer can only
    be at least this."""
    X = schur.PointSet.integers(n)
    return max(schur.linear_ratio(m, X, s, p) for s in lowerlab.volterra_candidates(n))


# ----------------------------------------------------------------------------
# growth
# ----------------------------------------------------------------------------

def growth_inputs(seed: int) -> dict:
    return {
        "budget": schur.Budget(restarts=1, iterations=10, seed=seed),
        "sweep_plist": (4.0, 8.0, 16.0),
        "sweep_n": 64,
        "b1": (16.0, 128, lowerlab.GeometricDiscretization(0.5, 40, "B1", 128)),
        "b2": (1.1, 64, lowerlab.GeometricDiscretization(0.5, 40, "B2", 64)),
    }


def growth_pass(inp: dict, p: Pass, memo: dict):
    budget, n = inp["budget"], inp["sweep_n"]

    def check_sweep(rows):
        out = []
        for r in rows:
            p.record(f"sweep.t_plus[p={r.p:g}]", r.t_plus_ratio, ratio=True)
            p.record(f"sweep.m_plus[p={r.p:g}]", r.m_plus_ratio, ratio=True)
            for label, sym, val in (("T+", schur.truncation_symbol("+"), r.t_plus_ratio),
                                    ("M+", schur.m_plus_symbol(), r.m_plus_ratio)):
                floor = _best_seed_ratio(sym, n, r.p)
                out += _expect((val >= floor * (1 - REL_TOL),
                                f"{label} p={r.p:g} ratio {val!r} below its seed {floor!r}"))
        mp = [r.m_plus_ratio for r in rows]
        out += _expect((all(a < b for a, b in zip(mp, mp[1:])),
                        f"M+ ratios not strictly increasing in p: {mp}"))
        return out

    p.op("truncation_norm_sweep",
         lambda: lowerlab.truncation_norm_sweep(inp["sweep_plist"], n, budget),
         check_sweep)

    b1_p, b1_n, b1_d = inp["b1"]

    def check_b1(rep):
        for k in ("nu", "direct_value", "implied_bound", "factorized_value",
                  "factorization_gap"):
            p.record(f"b1.{k}", getattr(rep, k), ratio=k in ("nu", "implied_bound"))
        floor = _best_seed_ratio(schur.m_plus_symbol(), b1_n, 2 * b1_p)
        return _expect(
            (rep.factorization_gap <= GAP_REL_TOL * max(1.0, rep.direct_value),
             f"B1 factorization gap {rep.factorization_gap!r}"),
            (rep.nu >= floor * (1 - REL_TOL), f"B1 nu {rep.nu!r} below its seed {floor!r}"),
            (math.isfinite(rep.implied_bound) and rep.implied_bound > 0,
             f"B1 implied bound {rep.implied_bound!r}"))

    p.op("theorem_b1_experiment",
         lambda: lowerlab.theorem_b1_experiment(b1_p, b1_n, b1_d, budget), check_b1)

    b2_p, b2_n, b2_d = inp["b2"]

    def check_b2(rep):
        for k in ("mu", "direct_value", "implied_bound", "mplus_value", "consistency_gap"):
            p.record(f"b2.{k}", getattr(rep, k), ratio=k in ("mu", "implied_bound"))
        floor = _best_seed_ratio(schur.m_plus_symbol(), b2_n, b2_p)
        return _expect(
            # mplus_value re-measures M+ at the search's normalized witness
            (_close(rep.mu, rep.mplus_value, REL_TOL),
             f"B2 witness re-measures to {rep.mplus_value!r}, reported {rep.mu!r}"),
            (rep.consistency_gap <= GAP_REL_TOL, f"B2 consistency gap {rep.consistency_gap!r}"),
            (rep.mu >= floor * (1 - REL_TOL), f"B2 mu {rep.mu!r} below its seed {floor!r}"))

    p.op("theorem_b2_experiment",
         lambda: lowerlab.theorem_b2_experiment(b2_p, b2_n, b2_d, budget), check_b2)


# ----------------------------------------------------------------------------
# factorize
# ----------------------------------------------------------------------------

# Grid sizes of the timed factorizations; golden.json holds the constants the
# seed implementation computes at exactly these sizes.
COR52 = {"S": 40.0, "N": 1024, "t_points": 2048}
BUMP = {"S": 160.0, "N": 4096, "t_points": 4096}
RECONSTRUCTION_POINTS = 1000
RECONSTRUCTION_TOL = 1e-6
KERNEL_TOL = 1e-8


def factorize_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    th = rng.uniform(math.pi / 8, 3 * math.pi / 8, RECONSTRUCTION_POINTS)
    r = rng.uniform(0.5, 2.0, RECONSTRUCTION_POINTS)
    return {
        "partition": decomp.SectorPartition(epsilon=math.pi / 32),
        "xi": (r * np.cos(th), r * np.sin(th)),
        "radii": (1.0, float(rng.uniform(2.0, 20.0))),
    }


def factorize_pass(inp: dict, p: Pass, memo: dict):
    P = inp["partition"]
    for which in (3, 4, 5, 6):
        want = GOLDEN["corollary52"][str(which)]

        def check_c(c, which=which, want=want):
            p.record(f"C(a{which})", c, ratio=True)
            return _expect((_close(c, want, C_REL_TOL),
                            f"C(a{which}) = {c!r}, recorded {want!r}"))

        p.op(f"corollary52_constants[a{which}]",
             lambda which=which: symcalc.corollary52_constants(P, which, **COR52), check_c)

    bump = symcalc.bump_symbol()

    def check_bump(fac):
        xi1, xi2 = inp["xi"]
        err = float(np.max(np.abs(fac.reconstruct(xi1, xi2) - bump(xi1, xi2))))
        p.record("C(bump)", fac.C_m, ratio=True)
        p.record("bump.reconstruction_error", err)
        return _expect((err <= RECONSTRUCTION_TOL, f"bump reconstruction error {err!r}"),
                       (math.isfinite(fac.C_m) and fac.C_m > 0, f"C(bump) = {fac.C_m!r}"))

    p.op("s1_factorize[bump]", lambda: symcalc.s1_factorize(bump, (1, 1), **BUMP),
         check_bump)

    def check_kernel(rep):
        p.record("kernel.c1_hat", rep.c1_hat)
        p.record("kernel.c2_hat", rep.c2_hat)
        target = 1.0 / (2.0 * math.pi)  # |z|^2 |K(z)| of e^{i theta}, every radius
        return _expect(*[(abs(c - target) <= KERNEL_TOL, f"|z|^2|K| = {c!r} on annulus {k}")
                         for k, c in enumerate(rep.c1_per_annulus)])

    p.op("size_smoothness_check",
         lambda: symcalc.size_smoothness_check(symcalc.harmonic_symbol(1),
                                               radii=inp["radii"]),
         check_kernel)


# ----------------------------------------------------------------------------
# bilinear
# ----------------------------------------------------------------------------

def bilinear_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "extrapolation": {"n": 128, "trials": 10},
        "partition": decomp.SectorPartition(epsilon=math.pi / 32),
        "X64": schur.PointSet(tuple(np.linspace(-2.0, 2.0, 64))),
        "residual_pairs": [(_gaussian(rng, 64), _gaussian(rng, 64)) for _ in range(2)],
        "search_d": lowerlab.GeometricDiscretization(0.5, 40, "B1", 32),
        "search_budget": schur.Budget(restarts=2, iterations=20, seed=seed),
        "search_exponents": ((4.0, 4.0, 2.0), (2.0, 2.0, 2.0)),
        "marc_d": lowerlab.GeometricDiscretization(0.5, 40, "B1", 128),
        "marc_pairs": [(_gaussian(rng, 128), _gaussian(rng, 128)) for _ in range(4)],
        "cli_argv": [(name, ["--seed", str(seed)] + argv, check)
                     for name, argv, check in CLI_COMMANDS],
    }


def _marcinkiewicz_closed_form(z) -> float:
    """max_k (s_1 + ... + s_k) / log(1 + k): the supremum sits at a breakpoint."""
    s = np.linalg.svd(z, compute_uv=False)
    s = s[s > 0]
    return float(np.max(np.cumsum(s) / np.log1p(np.arange(1, len(s) + 1))))


def bilinear_pass(inp: dict, p: Pass, memo: dict):
    ext = inp["extrapolation"]

    def check_ext(rep):
        p.record("extrapolation.envelope", rep.envelope)
        return _expect((0 < rep.envelope <= 1.0, f"envelope {rep.envelope!r} outside (0, 1]"))

    p.op("extrapolation_experiment",
         lambda: lowerlab.extrapolation_experiment(seed=inp["seed"], **ext), check_ext)

    P, X = inp["partition"], inp["X64"]
    for fname in ("sin", "abs2"):
        f = schurlab.get_function(fname)
        tables = p.op(f"decomposition_tables[{fname}]",
                      lambda: decomp.decomposition_tables(f, X, P),
                      lambda t: _expect((all(np.all(np.isfinite(a)) for a in
                                             [t["f2"], t["eps_phi"], t["eps_ring"], *t["a"]]),
                                         "non-finite decomposition table")))
        for k, (a, b) in enumerate(inp["residual_pairs"]):
            def check_res(res, fname=fname, k=k, a=a, b=b):
                rel = res / (np.linalg.norm(a) * np.linalg.norm(b))
                p.record(f"decomposition.residual[{fname},{k}]", rel)
                return _expect((rel <= RESIDUAL_TOL, f"{fname} operator residual {rel!r}"))

            p.op(f"schur_decomposition_residual[{fname},{k}]",
                 lambda: decomp.schur_decomposition_residual(f, X, a, b, P, tables),
                 check_res)

    def check_table(t, n):
        return _expect((t.shape == (n,) * 3 and bool(np.all(np.isfinite(t))),
                        "phi_table not finite"))

    d = inp["search_d"]
    X32 = schur.PointSet.integers(d.n)
    tab = p.op(f"phi_table[n={d.n}]", lambda: lowerlab.phi_table(d),
               lambda t: check_table(t, d.n))
    for exps in inp["search_exponents"]:
        label = ",".join(f"{e:g}" for e in exps)

        def check_search(res, exps=exps, label=label):
            p.record(f"bilinear_search[{label}]", res.ratio, ratio=True)
            again = schur.bilinear_ratio(tab, X32, *res.witness, *exps)
            out = _expect((_close(res.ratio, again, REL_TOL),
                           f"({label}) witness re-measures to {again!r}, reported {res.ratio!r}"))
            if exps == (2.0, 2.0, 2.0):  # Cauchy-Schwarz: the S_2 norm is at most sup|m|
                sup = float(np.max(np.abs(tab)))
                out += _expect((res.ratio <= sup * (1 + REL_TOL),
                                f"(2,2,2) ratio {res.ratio!r} above sup|m| = {sup!r}"))
            return out

        p.op(f"norm_lower_search[bilinear,{label}]",
             lambda exps=exps: schur.norm_lower_search("bilinear", tab, X32, exps,
                                                       inp["search_budget"]),
             check_search)

    d = inp["marc_d"]
    X128 = schur.PointSet.integers(d.n)
    tab128 = p.op(f"phi_table[n={d.n}]", lambda: lowerlab.phi_table(d),
                  lambda t: check_table(t, d.n))
    for k, (x, y) in enumerate(inp["marc_pairs"]):
        z = p.op(f"apply_bilinear[{k}]", lambda x=x, y=y: schur.apply_bilinear(tab128, X128, x, y),
                 lambda z: _expect((bool(np.all(np.isfinite(z))), "non-finite output")))

        def check_marc(val, k=k, z=z):
            p.record(f"marcinkiewicz[{k}]", val)
            ref = _marcinkiewicz_closed_form(z)
            return _expect((_close(val, ref, REL_TOL),
                            f"Marcinkiewicz norm {val!r}, closed form {ref!r}"))

        p.op(f"marcinkiewicz_norm[{k}]", lambda z=z: matrixnum.marcinkiewicz_norm(z), check_marc)

    cli_round(inp, p, memo)


# ----------------------------------------------------------------------------
# the CLI round of the bilinear workload
# ----------------------------------------------------------------------------

# (name, argv after the global flags, check on the parsed CSV row)
CLI_COMMANDS = (
    ("divdiff", ["divdiff", "--f", "abs2", "--nodes", "1,-1,1"],
     lambda r: [(r["value"] == 0.5, "abs2^[2](1,-1,1) != 0.5")]),
    ("decomp", ["decomp", "--f", "sin", "--triples", "200", "--operator-n", "16",
                "--trials", "5"],
     lambda r: [(r["max_relative_residual"] <= RESIDUAL_TOL, "pointwise residual"),
                (r["max_operator_residual"] <= RESIDUAL_TOL, "operator residual")]),
    ("hms", ["hms", "--f", "sin", "--n", "2", "--k", "1"],
     lambda r: [(r["hms_value"] <= r["theorem_bound"], "HMS value above its bound")]),
    ("symcalc_kernel", ["symcalc", "kernel", "--profile", "harmonic1"],
     lambda r: [(abs(r["C1_hat"] - 1 / (2 * math.pi)) <= KERNEL_TOL, "C1_hat != 1/(2 pi)")]),
    ("schur_linear", ["schur", "--kind", "linear", "--symbol", "mplus", "--n", "16",
                      "--p", "4", "--restarts", "4", "--iterations", "30"],
     lambda r: [(r["ratio"] >= 1.0, "M+ estimate below the matrix-unit ratio 1")]),
    ("schur_bilinear", ["schur", "--kind", "bilinear", "--symbol", "ones", "--n", "8",
                        "--p1", "4", "--p2", "4", "--p", "2", "--restarts", "4",
                        "--iterations", "30"],
     lambda r: [(0 < r["ratio"] <= 1.0 + REL_TOL, "ones (4,4,2) ratio outside (0, 1] (Hoelder)")]),
    ("lowerlab_limits", ["lowerlab", "limits", "--variant", "B1", "--q", "0.5", "--k", "40",
                         "--n", "5"],
     lambda r: [(r["max_discrepancy"] <= r["gap_bound"], "limit discrepancy above its bound")]),
    ("lowerlab_b2", ["lowerlab", "b2", "--p", "1.1", "--n", "32", "--restarts", "2",
                     "--iterations", "20"],
     lambda r: [(_close(r["mu"], r["mplus_value"], REL_TOL), "B2 witness re-measure")]),
    ("dyadic_bk", ["dyadic", "bk", "--kmin", "-4", "--kmax", "2", "--complexity", "1,1,1",
                   "--specs", "50"],
     lambda r: [(r["max_bk"] <= 1.0, "|b_K| above 1")]),
    ("dyadic_probe", ["dyadic", "probe", "--p1", "4", "--p2", "4", "--p", "2",
                      "--trials", "64"],
     lambda r: [(0 < r["ratio"] < math.inf, "probe ratio not positive")]),
    ("constants_table", ["constants", "table", "--pmin", "1.01", "--pmax", "64"],
     lambda r: [(60.0 <= r["ratio_p4_pstar"] <= 400.0, "D(p,2p,2p)/(p^4 p*) outside [60, 400]")]),
    ("constants_eval", ["constants", "eval", "--p", "2", "--p1", "4", "--p2", "4"],
     lambda r: [(r["C"] > 0 and r["D"] > 0, "constants not positive")]),
    ("extrapolate", ["extrapolate", "--n", "64", "--trials", "10"],
     lambda r: [(0 < r["envelope"] <= 1.0, "envelope outside (0, 1]")]),
)
# Ratios of a norm search, summarized by ratio_geomean.  The dyadic probe's
# best-of-random-candidates ratio is recorded in quality but not summarized.
CLI_RATIOS = {"schur_linear": ("ratio",), "schur_bilinear": ("ratio",),
              "lowerlab_b2": ("mu", "implied_bound")}


def _csv_rows(text: str):
    header, *lines = text.strip().split("\n")
    keys = header.split(",")
    rows = []
    for line in lines:
        row = {}
        for k, v in zip(keys, line.split(",")):
            try:
                row[k] = float(v)
            except ValueError:
                row[k] = v
        rows.append(row)
    return rows


def cli_round(inp: dict, p: Pass, memo: dict):
    """Each subcommand of CLI_COMMANDS once, in process, writing under the checkout."""
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=memo["workdir"]))
    try:
        for name, argv, check in inp["cli_argv"]:
            out = scratch / name

            def call(argv=argv, out=out):
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(["--out", str(out)] + argv)

            def check_cli(rc, name=name, out=out, check=check):
                if rc != 0:
                    return [f"exit status {rc}"]
                (csv,) = out.glob("*.csv")
                data = csv.read_bytes()
                rows = _csv_rows(data.decode())
                for i, row in enumerate(rows):
                    for k, v in row.items():
                        if isinstance(v, float):
                            p.record(f"{name}[{i}].{k}", v, ratio=k in CLI_RATIOS.get(name, ()))
                problems = _expect(*[c for row in rows for c in check(row)])
                digest = hashlib.sha256(data).hexdigest()
                first = memo.setdefault(f"csv:{name}", digest)
                problems += _expect((digest == first, "CSV differs from the first invocation"))
                if inp["seed"] == DEFAULT_SEED:
                    want = GOLDEN["cli_sha256"][name]
                    problems += _expect((digest == want, f"CSV sha256 {digest}, recorded {want}"))
                return problems

            p.op(f"cli {name}", call, check_cli)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


WORKLOADS = {
    "growth": (growth_inputs, growth_pass),
    "factorize": (factorize_inputs, factorize_pass),
    "bilinear": (bilinear_inputs, bilinear_pass),
}
