import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from schurlab.cli import build_parser, main
from schurlab.matrixnum import write_matrix

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_divdiff_prints_value(capsys):
    assert main(["divdiff", "--f", "abs2", "--nodes", "1,-1,1"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_divdiff_unknown_function_is_validation_error(capsys):
    assert main(["divdiff", "--f", "nope", "--nodes", "1,2"]) == 2


def test_non_finite_node_is_validation_error(capsys):
    assert main(["divdiff", "--f", "sin", "--nodes", "0,nan,1"]) == 2
    assert main(["divdiff", "--f", "sin", "--nodes", "0,inf"]) == 2
    assert "NonFiniteNode" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["--N", "1"], ["--N", "0"], ["--S", "0"],
                                  ["--S", "-5"], ["--S", "nan"], ["--S", "inf"],
                                  ["--S", "1e150"], ["--S", "1e300"],
                                  ["--S", "1e4"], ["--S", "1e5"]])
def test_bad_factorization_grid_is_validation_error(grid, capsys):
    # --S 1e4 and 1e5 alias: reconstruct printed C(m) 746873212 and 4.06e11 with exit 0
    assert main(["symcalc", "factorize", "--which", "3"] + grid) == 2
    assert main(["symcalc", "reconstruct"] + grid) == 2
    assert "BadGrid" in capsys.readouterr().err


def test_factorization_defaults_pass_the_aliasing_check(capsys):
    assert main(["symcalc", "factorize"]) == 0
    assert main(["symcalc", "reconstruct"]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("radii", ["nan", "inf", "0", "-1", "1,nan", "", "1e300,1", "1e-300",
                                   "1e110"])
def test_bad_kernel_radii_is_validation_error(radii, capsys):
    # --radii nan, 1e300,1, 1e-300 and 1e110 used to print C1_hat or C2_hat nan and exit 0
    assert main(["symcalc", "kernel", "--radii", radii]) == 2
    assert "BadGrid" in capsys.readouterr().err


def test_dyadic_probe_at_large_exponents_is_positive(capsys):
    # sum(sv ** p) used to overflow here and the probe printed "best ratio 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dyadic", "probe", "--p1", "800", "--p2", "800", "--p", "400"]) == 0
    ratio = float(capsys.readouterr().out.split("best ratio")[1])
    assert 0.0 < ratio < 1.0


def test_bad_tolerance_is_validation_error():
    assert main(["divdiff", "--f", "sin", "--nodes", "1,2", "--tol", "-1"]) == 2


@pytest.mark.parametrize("argv, error", [
    (["hms", "--grid-points", "0"], "BadBudget"),
    (["hms", "--grid-points", "1"], "BadBudget"),
    (["hms", "--box", "0,nan"], "BadGrid"),
    (["hms", "--box", "1,1"], "BadGrid"),
    *((["lowerlab", cmd, "--n", "1"], "BadParameter") for cmd in ("b1", "b2", "sweep")),
])
def test_bad_grid_and_size_are_named_errors(argv, error, capsys):
    assert main(argv) == 2
    assert f"error [{error}]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["hms", "--k", "0"], ["lowerlab", "limits", "--q", "1.5"],
                                  ["decomp", "--epsilon", "1"],
                                  ["dyadic", "bk", "--kmin", "2", "--kmax", "1"],
                                  *(["extrapolate", "--n", "4", "--q", q]
                                    for q in ("-0.5", "0", "1", "nan")),
                                  ["symcalc", "factorize", "--which", "7"],
                                  ["divdiff", "--f", "nosuch", "--nodes", "1"],
                                  ["divdiff", "--f", "sin", "--nodes", ","],
                                  ["dyadic", "bk", "--j0", "4"],
                                  ["schur", "--symbol", "nosuch"]])
def test_bad_parameter_is_named_validation_error(argv, capsys):
    # these exited 2 through a plain ValueError (the last four printed
    # "error [ValueError]" or "error [KeyError]"), except extrapolate
    # --q -0.5, which ran on interleaved signs
    assert main(argv) == 2
    assert "error [BadParameter]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    *(["dyadic", "probe", flag, "0"] for flag in ("--p", "--p1", "--p2")),
    ["dyadic", "probe", "--d", "-1"],
    *(["constants", "table", flag, value]
      for flag, value in (("--pmin", "0"), ("--pmin", "nan"), ("--pmax", "inf"),
                          ("--pmax", "0"), ("--pmax", "-1"), ("--pmax", "1e300"),
                          ("--points-per-decade", "1000000000"))),
    ["dyadic", "bk", "--kmax", "50"], ["dyadic", "bk", "--kmin", "-100"],
    ["dyadic", "probe", "--kmax", "50"], ["dyadic", "probe", "--d", "100000"],
])
def test_bad_probe_and_table_ranges_are_named_errors(argv, capsys):
    # the exponents of 0 and --pmin 0 raised ZeroDivisionError, --pmax inf an
    # OverflowError (tracebacks, which would escape main here); the others
    # printed "error [ValueError]", except --pmax 1e300 ("slope nan" and
    # RuntimeWarnings, exit 0) and the sizes, now checked before they allocate:
    # --points-per-decade 10^9 tried 13.4 GiB, --kmax 50 512 TiB, and --kmin
    # -100 printed "error [ValueError]: Maximum allowed size exceeded"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [Bad")
    assert "Traceback" not in err and "[ValueError]" not in err


def test_list_starting_with_minus_needs_equals_form(capsys):
    # argparse reads "-3,3" after a flag as another option; "--box=-3,3" works
    with pytest.raises(SystemExit) as usage:
        main(["hms", "--box", "-3,3"])
    assert usage.value.code == 2
    assert main(["hms", "--box=-3,3"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["hms", "--help"])
    assert "--box=-3,3" in capsys.readouterr().out


@pytest.mark.parametrize("argv, matrix", [
    (["divdiff", "--f", "sin", "--nodes", "a"], None),
    (["hms", "--box", "1"], None),
    (["hms", "--box", "1,2,3"], None),
    (["dyadic", "bk", "--complexity", "1,1"], None),
    (["dyadic", "bk", "--complexity", "1.5,1,1"], None),
    (["symcalc", "kernel", "--radii", "1,x"], None),
    (["schur", "--labels", "0,x"], None),
    (["lowerlab", "sweep", "--plist", "4,x"], None),
    *((["schur", "--symbol", "@{}"], text)
      for text in ("2 2\n1 0 x 0 1 0 1 0\n", "2 two\n1 0\n", "2\n", "2 2\n1 0\n",
                   "-1 -2\n1 0 1 0\n")),
])
def test_malformed_list_or_matrix_file_is_named(argv, matrix, tmp_path, capsys):
    # these printed "error [ValueError]", and --complexity 1.5,1,1 ran as 1,1,1
    path = tmp_path / "m.txt"
    if matrix is not None:
        path.write_text(matrix)
    argv = [a.format(path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "ValueError" not in err
    assert (str(path) if matrix is not None else f"argument {argv[-2]}:") in err


def test_unknown_symbol_names_the_known_ones(capsys):
    assert main(["schur", "--symbol", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "known: ['ones', '@file', 'tplus', 'tminus', 'mplus', 'diag']" in err


def test_nan_exponents_are_validation_errors(capsys):
    # printed "best ratio 0" and exited 0
    assert main(["dyadic", "probe", "--p", "nan", "--p1", "nan", "--p2", "nan",
                 "--trials", "2"]) == 2
    assert "error [BadExponent]" in capsys.readouterr().err


@pytest.mark.parametrize("band", ["nan", "inf", "1e300"])
@pytest.mark.parametrize("operator", [[], ["--operator-n", "8"]])
def test_decomp_bad_band_is_validation_error(band, operator, capsys):
    # these printed a residual of 0 (and a garbage operator residual) with exit 0
    assert main(["decomp", "--f", "sin", "--triples", "3", "--band", band, *operator]) == 2
    assert "error [BadParameter]" in capsys.readouterr().err


def test_decomp_makes_no_per_triple_calls(monkeypatch, capsys):
    from schurlab import decomp, divdiff
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("divided_difference", divdiff.divided_difference),
                     ("decomposition_residual", decomp.decomposition_residual)):
        for module in [m for key, m in sys.modules.items() if key.startswith("schurlab")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(fn))
    assert main(["decomp", "--f", "sin", "--triples", "2000"]) == 0
    assert calls == []


def test_decomp_csv_independent_of_block_size(tmp_path, monkeypatch, capsys):
    from schurlab import cli
    argv = ["decomp", "--f", "abs2", "--triples", "50", "--operator-n", "4", "--trials", "2"]
    csvs = []
    for block in (1000, 7):  # one block, then eight (the last partial)
        monkeypatch.setattr(cli, "DECOMP_BLOCK", block)
        out = tmp_path / str(block)
        assert main(["--out", str(out), *argv]) == 0
        csvs.append((out / "decomp.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_constants_table_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["--out", str(out), "constants", "table",
                 "--pmin", "1.01", "--pmax", "64"]) == 0
    csv = (out / "constants_table.csv").read_text().splitlines()
    assert csv[0] == "p,D_p_2p_2p,ratio_p4_pstar,lower_ref_p2_pstar"
    assert len(csv) > 50
    manifest = json.loads((out / "constants_table_manifest.json").read_text())
    assert manifest["command"] == "constants_table"
    assert "version" in manifest and "wall_time_s" in manifest
    assert "slope_top_decade" in manifest
    assert "mode" not in manifest["config"]


def test_byte_identical_reruns(tmp_path):
    argsets = [
        ["lowerlab", "b1", "--p", "4", "--n", "8", "--q", "0.5", "--k", "40",
         "--restarts", "2", "--iterations", "10"],
        ["schur", "--kind", "linear", "--symbol", "mplus", "--n", "6",
         "--p", "4", "--restarts", "3", "--iterations", "10"],
    ]
    for tag, args in enumerate(argsets):
        outs = []
        for run in (0, 1):
            out = tmp_path / f"{tag}_{run}"
            assert main(["--seed", "7", "--out", str(out)] + args) == 0
            csvs = sorted(out.glob("*.csv"))
            outs.append(b"".join(p.read_bytes() for p in csvs))
        assert outs[0] == outs[1]


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("f = cube\nnodes = 0,1,2\n")
    assert main(["--config", str(cfg), "divdiff", "--f", "cube",
                 "--nodes", "0,1,2"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    # config supplies the default; flags win
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text("tol = 1e-6\n")
    assert main(["--config", str(cfg2), "divdiff", "--f", "cube",
                 "--nodes", "0,1,2"]) == 0


def test_missing_config_is_validation_error():
    assert main(["--config", "/nonexistent/file.cfg", "divdiff",
                 "--f", "sin", "--nodes", "1,2"]) == 2


def test_config_without_path_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["divdiff", "--f", "sin", "--nodes", "1,2", "--config"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("form", [["--config={}"], ["--conf", "{}"], ["--config", "{}"]])
def test_config_spellings_set_defaults(form, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("restarts = 3  # a comment\n\nseed = 5\n")
    out = tmp_path / "out"
    argv = [a.format(cfg) for a in form] + ["--out", str(out), "schur", "--n", "4",
                                            "--iterations", "3"]
    assert main(argv) == 0
    config = json.loads((out / "schur_manifest.json").read_text())["config"]
    assert config["restarts"] == 3 and config["seed"] == 5
    assert main(argv + ["--restarts", "2"]) == 0  # flags win
    config = json.loads((out / "schur_manifest.json").read_text())["config"]
    assert config["restarts"] == 2


def test_config_keys_go_to_their_parser(tmp_path):
    # a top-level key set in the file loses to the explicit top-level flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nrestarts = 3\nnodes = 0,1\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--seed", "7", "--out", str(out),
                 "schur", "--n", "4", "--iterations", "3"]) == 0
    config = json.loads((out / "schur_manifest.json").read_text())["config"]
    assert config["seed"] == 7 and config["restarts"] == 3
    assert "nodes" not in config  # a divdiff key is skipped for schur


def test_config_leaves_subcommand_abbreviations_alone(tmp_path):
    # --co after the subcommand is extrapolate's --compare-n, not --config
    out = tmp_path / "out"
    assert main(["--out", str(out), "extrapolate", "--n", "8", "--trials", "2",
                 "--co"]) == 0
    config = json.loads((out / "extrapolate_manifest.json").read_text())["config"]
    assert config["compare_n"] is True and "config" not in config


@pytest.mark.parametrize("text", ["restarts = abc\n", "restarts\n", "func = x\n",
                                  "restart = 3\n"])
def test_bad_config_line_is_usage_error(text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "schur", "--n", "4", "--iterations", "3"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, symbol, code", [
    ("linear", "ones", 0), ("linear", "tplus", 0), ("linear", "tminus", 0),
    ("linear", "mplus", 0), ("linear", "diag", 0), ("bilinear", "ones", 0),
    ("bilinear", "mplus", 2), ("linear", "nope", 2)])
def test_schur_named_symbols(kind, symbol, code, capsys):
    assert main(["schur", "--kind", kind, "--symbol", symbol, "--n", "4",
                 "--restarts", "1", "--iterations", "3"]) == code


def test_non_finite_symbol_table_is_validation_error(tmp_path, capsys):
    path = tmp_path / "table.txt"
    entries = ["1 0"] * 9
    entries[4] = "nan 0"
    path.write_text("3 3\n" + " ".join(entries) + "\n")
    assert main(["schur", "--n", "3", "--symbol", f"@{path}",
                 "--restarts", "1", "--iterations", "3"]) == 2
    assert "error [BadParameter]" in capsys.readouterr().err


def test_bad_budget_is_validation_error(capsys):
    assert main(["schur", "--n", "4", "--iterations", "-3"]) == 2
    assert main(["schur", "--n", "4", "--restarts", "0"]) == 2
    assert main(["lowerlab", "sweep", "--n", "4", "--iterations", "0"]) == 2
    assert "BadBudget" in capsys.readouterr().err


def test_dyadic_and_extrapolate_smoke(tmp_path, capsys):
    assert main(["dyadic", "bk", "--specs", "3", "--samples", "16"]) == 0
    assert "max |b_K|" in capsys.readouterr().out
    assert main(["extrapolate", "--n", "16", "--trials", "3"]) == 0


# every count and size option of the CLI, with the flags it needs to be used
# and its least valid value
COUNT_OPTIONS = (
    (["decomp", "--triples"], 1),
    (["decomp", "--operator-n", "4", "--trials"], 1),
    (["decomp", "--operator-n"], 0),  # 0 turns the operator check off
    (["dyadic", "bk", "--specs"], 1),
    (["dyadic", "bk", "--samples"], 1),
    (["dyadic", "probe", "--trials"], 1),
    (["extrapolate", "--trials"], 1),
    (["extrapolate", "--n"], 1),
    (["schur", "--n"], 1),
    (["lowerlab", "sweep", "--n"], 1),
    (["lowerlab", "limits", "--k"], 1),
    (["hms", "--n"], 1),
    (["hms", "--grid-points"], 2),
    (["constants", "table", "--points-per-decade"], 1),
    (["symcalc", "kernel", "--K"], 1),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COUNT_OPTIONS), st.integers(max_value=0))
def test_nonpositive_count_is_bad_budget(option, below):
    argv, least = option
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv + [str(least - 1 + below)]) == 2
    assert "BadBudget" in err.getvalue()


def _cli_csvs(out, argvs, blas_threads="1", pool_threads=None):
    """CSV bytes of the CLI runs of ``argvs`` in fresh processes, with
    SCHURLAB_THREADS set to ``pool_threads`` (unset for None)."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("SCHURLAB_THREADS", None)
    if pool_threads is not None:
        env["SCHURLAB_THREADS"] = pool_threads
    for argv in argvs:
        subprocess.run([sys.executable, "-m", "schurlab.cli", "--seed", "0",
                        "--out", str(out)] + argv, env=env, check=True,
                       capture_output=True, timeout=300)
    return {c.name: c.read_bytes() for c in sorted(out.glob("*.csv"))}


def test_csvs_independent_of_blas_threads(tmp_path):
    # the CSVs must not depend on the BLAS thread setting (every BLAS call
    # runs on one thread), nor on the pool the searches run on by default at
    # n = 128.
    search = ["--restarts", "1", "--iterations", "10"]
    experiments = [["lowerlab", "b1", "--n", "128", *search],
                   ["lowerlab", "b2", "--p", "1.1", "--n", "128", *search]]
    argvs = [["extrapolate", "--n", "128"], ["decomp", "--operator-n", "96"], *experiments]
    runs = {threads: _cli_csvs(tmp_path / threads, argvs, threads) for threads in ("1", "2")}
    assert sorted(runs["1"]) == ["decomp.csv", "extrapolate.csv", "lowerlab_b1.csv",
                                 "lowerlab_b2.csv"]
    assert runs["1"] == runs["2"]
    serial = _cli_csvs(tmp_path / "serial", experiments, pool_threads="1")
    assert serial == {k: v for k, v in runs["1"].items() if k.startswith("lowerlab")}


def test_threads_option_is_gone(tmp_path, capsys):
    # SCHURLAB_THREADS is the one pool-thread setting: no flag, no config key
    argv = ["schur", "--n", "4", "--restarts", "1", "--iterations", "2"]
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "1"] + argv)
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv)
    assert exc.value.code == 2
    assert "no option is named 'threads'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_schurlab_threads_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("SCHURLAB_THREADS", value)
    assert main(["schur", "--n", "4", "--restarts", "1", "--iterations", "2"]) == 2
    assert "SCHURLAB_THREADS" in capsys.readouterr().err


def _benchmark_cli_argv():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: argv for name, argv, _ in workloads.CLI_COMMANDS}


GOLDEN_CLI_SHA256 = json.loads((PERFBENCH / "golden.json").read_text())["cli_sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI_SHA256))
def test_cli_csv_matches_benchmark_golden_hash(name, tmp_path, capsys):
    # the benchmark's argv at seed 0 must reproduce its recorded CSV bytes
    argv = _benchmark_cli_argv()[name]
    assert main(["--seed", "0", "--out", str(tmp_path)] + argv) == 0
    (csv,) = tmp_path.glob("*.csv")  # schur_bilinear writes schur.csv
    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    assert digest == GOLDEN_CLI_SHA256[name]


def test_benchmark_selftest_passes():
    # metric names and units, the hand-counted SVDs of one restart, and
    # traced == untraced answers: a library change that breaks the
    # benchmark's contract fails here (the self-test only reads perfbench/)
    run = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def test_manifest_config_holds_only_option_dests(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "divdiff", "--f", "sin",
                 "--nodes", "1,2"]) == 0
    config = json.loads((tmp_path / "divdiff_manifest.json").read_text())["config"]
    _, options = build_parser()
    dests = {"command"} | options[None][1] | options["divdiff"][1]
    assert "_t0" not in config and set(config) <= dests
    assert config["command"] == "divdiff" and config["f"] == "sin"


def test_symbol_file_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    tab = rng.uniform(-1, 1, (4, 4)).astype(complex)
    path = tmp_path / "sym.txt"
    write_matrix(path, tab)
    assert main(["schur", "--kind", "linear", "--symbol", f"@{path}",
                 "--n", "4", "--p", "2", "--restarts", "2",
                 "--iterations", "10"]) == 0
    out = capsys.readouterr().out
    assert "achieved ratio" in out


def test_csv_field_with_a_comma_is_quoted(tmp_path, capsys):
    # the symbol field "@<dir>/a,b.txt" used to split the row in two
    path = tmp_path / "a,b.txt"
    write_matrix(path, np.arange(9.0).reshape(3, 3))
    out = tmp_path / "run"
    assert main(["--out", str(out), "schur", "--symbol", f"@{path}", "--n", "3",
                 "--p", "2", "--restarts", "1", "--iterations", "2"]) == 0
    with open(out / "schur.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert header == ["kind", "symbol", "n", "p1", "p2", "p", "ratio"]
    assert row[:6] == ["linear", f"@{path}", "3", "2", "", "2"]
    assert f'"@{path}"' in (out / "schur.csv").read_text()


def test_hms_subcommand(capsys):
    assert main(["hms", "--f", "square", "--n", "2", "--k", "1",
                 "--grid-points", "64"]) == 0
    out = capsys.readouterr().out
    assert "<= bound" in out


@pytest.mark.parametrize("argv", [["extrapolate", "--n", "8", "--trials", "1"],
                                  ["schur", "--n", "4", "--restarts", "1", "--iterations", "2"]])
def test_svd_non_convergence_exits_3(argv, monkeypatch, capsys):
    # LinAlgError is a ValueError: unmapped, it would exit 2 as a validation error
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(argv) == 3
    assert "error [numerical]" in capsys.readouterr().err


def test_convergence_failure_maps_to_exit_3(monkeypatch):
    import schurlab.cli as cli
    from schurlab.errors import ConvergenceFailure

    def boom(args):
        raise ConvergenceFailure("synthetic decomposition stall")

    monkeypatch.setitem(cli.__dict__, "cmd_divdiff", boom)
    parser_cmds = cli.build_parser()
    # route through main with the patched handler
    monkeypatch.setattr(cli, "cmd_divdiff", boom)
    assert cli.main(["divdiff", "--f", "sin", "--nodes", "1,2"]) == 3
