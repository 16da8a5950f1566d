"""schurlab benchmark: one command per workload, every answer checked.

    python3 perfbench/run.py --workload growth --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; schurlab is imported from ``src/``.
The seed only generates inputs (``Budget.seed``, RNG draws, the CLI
``--seed``).  A run repeats one pass of the workload on the same inputs until
``--seconds`` have passed (at least MIN_PASSES times) and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the environment, the quality figures of the passes and every failure.

``--trace 0`` reports the end-to-end metrics (END_TO_END).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (per_layer_metrics), plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3          # untraced passes; a trace run makes as many traced ones
SETUP_RUNS = 3          # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 60

END_TO_END = {          # name -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ratio_geomean": "ratio",
}


def _die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------------
# environment block
# ----------------------------------------------------------------------------

def _blas_runtime_threads():
    """Thread count the bundled OpenBLAS will use, or None if not found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime_threads": _blas_runtime_threads()},
        "threads_env": {k: os.environ.get(k, "unset") for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SCHURLAB_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
    }


# ----------------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> list:
    """Wall times of fresh processes that import schurlab and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return times


def run_pass(workload_pass, inputs, memo, tracer=None):
    from workloads import Pass

    p = Pass(tracer)
    if tracer is not None:
        tracer.reset()
    t0, c0 = time.perf_counter(), time.process_time()
    if tracer is None:
        workload_pass(inputs, p, memo)
    else:
        with tracer.installed():
            workload_pass(inputs, p, memo)
    p.wall_s = time.perf_counter() - t0
    p.cpu_s = time.process_time() - c0
    return p


def per_layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer figures of one traced pass: name -> (value, unit)."""
    from tracer import LAYERS

    def st(name):
        return tracer.stat(name)

    svd = st("lapack.svd")
    nls = st("schur.norm_lower_search")
    out = {
        "lapack.svd.calls": (svd.calls, "count"),
        "lapack.svd.total_s": (svd.total_s, "s"),
        "lapack.svd.calls_per_restart": (svd.calls / tracer.restarts if tracer.restarts else 0.0,
                                         "calls/restart"),
        "lapack.eigh.calls": (st("lapack.eigh").calls, "count"),
        "lapack.einsum.total_s": (st("lapack.einsum").total_s, "s"),
        "schur.norm_lower_search.calls": (nls.calls, "count"),
        "schur.norm_lower_search.self_s": (nls.self_s, "s"),
        "schur.norm_lower_search.near_best_frac": (
            tracer.near_best / tracer.restarts if tracer.restarts else 0.0, "fraction"),
        "schur.apply_bilinear.calls": (st("schur.apply_bilinear").calls, "count"),
        "schur.apply_bilinear.total_s": (st("schur.apply_bilinear").total_s, "s"),
        "schur.apply_bilinear.p50_ms": (st("schur.apply_bilinear").p50() * 1e3, "ms"),
        "matrixnum.holder_split.total_s": (st("matrixnum.holder_split").total_s, "s"),
        "matrixnum.schatten_norm.calls": (st("matrixnum.schatten_norm").calls, "count"),
        "matrixnum.marcinkiewicz_norm.calls": (st("matrixnum.marcinkiewicz_norm").calls, "count"),
        "matrixnum.marcinkiewicz_norm.total_s": (st("matrixnum.marcinkiewicz_norm").total_s, "s"),
        "symcalc.s1_factorize.calls": (st("symcalc.s1_factorize").calls, "count"),
        "symcalc.s1_factorize.total_s": (st("symcalc.s1_factorize").total_s, "s"),
        "symcalc.s1_factorize.p50_s": (st("symcalc.s1_factorize").p50(), "s"),
        "cli.main.calls": (st("cli.main").calls, "count"),
        "cli.main.self_s": (st("cli.main").self_s, "s"),
    }
    for name in ("lowerlab.truncation_norm_sweep", "lowerlab.theorem_b1_experiment",
                 "lowerlab.theorem_b2_experiment", "lowerlab.extrapolation_experiment",
                 "decomp.schur_decomposition_residual", "symcalc.corollary52_constants"):
        out[f"{name}.self_s"] = (st(name).self_s, "s")
    for name in ("lowerlab.phi_table", "decomp.decomposition_tables",
                 "symcalc.size_smoothness_check", "hms.hms_norm",
                 "constants.asymptotics_table"):
        out[f"{name}.total_s"] = (st(name).total_s, "s")
    for name in ("decomp.decomposition_residual", "divdiff.divided_difference",
                 "dyadic.bk_bound_check"):
        out[f"{name}.calls"] = (st(name).calls, "count")
        out[f"{name}.total_s"] = (st(name).total_s, "s")
    layers = {layer: tracer.layer_self_s(layer) for layer in LAYERS}
    for layer, self_s in layers.items():
        out[f"layer.{layer}.self_s"] = (self_s, "s")
    out["trace.wall_s"] = (wall_s, "s")
    # the benchmark's own time: input handling, answer checks, outside any span
    out["trace.bench_s"] = (wall_s - sum(layers.values()), "s")
    return out


def _median_metrics(samples: list) -> dict:
    names = samples[0].keys()
    return {k: (statistics.median(s[k][0] for s in samples), samples[0][k][1]) for k in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import schurlab, make the inputs and exit (times setup_s)")
    args = ap.parse_args(argv)

    if not (SRC / "schurlab" / "__init__.py").is_file():
        return _die(f"no schurlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import schurlab

    if Path(schurlab.__file__).resolve().parent != SRC / "schurlab":
        return _die(f"imported schurlab from {schurlab.__file__}, not {SRC}")
    from workloads import HELD_OUT_SEED, DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        return _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    make_inputs, workload_pass = WORKLOADS[args.workload]
    if args.setup_only:
        make_inputs(args.seed)
        return 0

    env = environment()
    setup_times = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    inputs = make_inputs(args.seed)
    memo = {"workdir": ROOT}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    untraced, traced, layer_samples = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload_pass, inputs, memo))
        if tracer is not None:
            tp = run_pass(workload_pass, inputs, memo, tracer)
            traced.append(tp)
            layer_samples.append(per_layer_metrics(tracer, tp.wall_s))
        if time.perf_counter() - start >= args.seconds and len(untraced) >= MIN_PASSES:
            break

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    # every pass repeats the first on identical inputs: its figures must be bitwise equal
    first = untraced[0]
    for i, p in enumerate(passes[1:], start=1):
        attempted += 1
        if p.quality != first.quality:
            diff = sorted(k for k in first.quality.keys() | p.quality.keys()
                          if first.quality.get(k) != p.quality.get(k))
            failures.append(f"pass {i} differs from pass 0 in {diff[:8]}")

    walls = [p.wall_s for p in untraced]
    if args.trace == 0:
        ratios = first.ratios
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p.cpu_s for p in untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ratio_geomean": (math.exp(statistics.fmean(math.log(r) for r in ratios))
                              if ratios and min(ratios) > 0 else 0.0),
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    else:
        metrics = _median_metrics(layer_samples)
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["trace.overhead_frac"] = (traced_wall / statistics.median(walls) - 1.0,
                                          "fraction")

    report = {
        "workload": args.workload, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "env": env,
        "passes": {"untraced_wall_s": walls, "traced_wall_s": [p.wall_s for p in traced],
                   "setup_s": setup_times},
        "quality": first.quality,
        "failures": failures,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
