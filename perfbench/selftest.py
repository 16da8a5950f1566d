"""Self-test of the benchmark at toy sizes (a few seconds, no pytest needed).

    python3 perfbench/selftest.py

Checks that:
- every metric BENCHMARK.json names is produced, with the unit it states;
- the traced SVD count of one tiny linear search equals the count derived by
  hand from the loop of schur._ascend_linear;
- the answers of a toy pass are bitwise equal with and without tracing.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Pass  # noqa: E402
from schurlab import cli, lowerlab, schur, symcalc  # noqa: E402


def hand_count_svds(iterations: int) -> int:
    """SVDs of one restart of _ascend_linear that never stops early.

    1 to normalize the start, 2 per ascent step (subgradient, normalize),
    2 per polish step (subgradient, norming), max(8, iterations // 8) polish
    steps, and 1 for the final value."""
    return 1 + 2 * iterations + 2 * max(8, iterations // 8) + 1


def toy_pass(inp, p: Pass, memo):
    X = schur.PointSet.integers(5)
    p.op("linear", lambda: schur.norm_lower_search("linear", schur.m_plus_symbol(), X, 4.0,
                                                    schur.Budget(2, 6, 3)),
         lambda r: p.record("linear", r.ratio) or [])
    tab = lowerlab.phi_table(lowerlab.GeometricDiscretization(0.5, 40, "B1", 5))
    p.op("bilinear", lambda: schur.norm_lower_search("bilinear", tab, X, (4.0, 4.0, 2.0),
                                                      schur.Budget(2, 6, 3)),
         lambda r: p.record("bilinear", r.ratio) or [])
    p.op("factorize", lambda: symcalc.s1_factorize(symcalc.bump_symbol(), (1, 1), S=20.0,
                                                    N=128, t_points=256),
         lambda f: p.record("C", f.C_m) or [])
    out = memo["out"]
    with contextlib.redirect_stdout(io.StringIO()):
        p.op("cli", lambda: cli.main(["--out", str(out), "divdiff", "--f", "sin",
                                      "--nodes", "0.1,0.7,1.3"]),
             lambda rc: p.record("csv", float(len((out / "divdiff.csv").read_text()))) or [])


def main() -> int:
    problems = []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = dict(run.END_TO_END)
    if want != got:
        problems.append(f"end-to-end metrics {got} != BENCHMARK.json {want}")

    tracer = Tracer()
    iterations = 5
    X = schur.PointSet.integers(4)
    with tracer.installed():
        res = schur.norm_lower_search("linear", schur.m_plus_symbol(), X, 3.0,
                                      schur.Budget(1, iterations, 11))
    svds = tracer.stat("lapack.svd").calls
    if svds != hand_count_svds(iterations) or tracer.restarts != 1:
        problems.append(f"one restart made {svds} SVDs over {tracer.restarts} restarts, "
                        f"hand count {hand_count_svds(iterations)}")
    if not (math.isfinite(res.ratio) and res.ratio > 0):
        problems.append(f"tiny search ratio {res.ratio!r}")

    layer = run.per_layer_metrics(tracer, 1.0)
    layer["trace.overhead_frac"] = (0.0, "fraction")
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: u for k, (v, u) in layer.items()}
    if want != got:
        problems.append(f"per-layer metrics differ from BENCHMARK.json: missing "
                        f"{sorted(want.keys() - got.keys())}, extra "
                        f"{sorted(got.keys() - want.keys())}, units "
                        f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=HERE.parent))
    try:
        memo = {"out": scratch}
        plain = run.run_pass(toy_pass, None, memo)
        traced = run.run_pass(toy_pass, None, memo, Tracer())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for label, p in (("untraced", plain), ("traced", traced)):
        if p.failures:
            problems.append(f"{label} toy pass failed: {p.failures}")
    if plain.quality != traced.quality or not plain.quality:
        problems.append(f"traced answers {traced.quality} != untraced {plain.quality}")
    if not np.isfinite(list(plain.quality.values())).all():
        problems.append("non-finite toy answer")

    for msg in problems:
        print("FAIL", msg)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
