import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schurlab
from schurlab import matrixnum
from schurlab.errors import BadExponent, DimensionMismatch
from schurlab.matrixnum import (decreasing_rearrangement, holder_split,
                                marcinkiewicz_norm, read_matrix, schatten_norm,
                                schatten_norm_from_sv, singular_values,
                                write_matrix)

from conftest import cumulative_singular_integral, random_unitary


def test_singular_values_examples():
    np.testing.assert_allclose(singular_values(np.diag([3.0, 4.0])), [4.0, 3.0])
    np.testing.assert_allclose(singular_values([[0, 1], [0, 0]]), [1.0, 0.0])
    np.testing.assert_allclose(singular_values(np.ones((2, 2))), [2.0, 0.0], atol=1e-15)


def test_singular_values_unitary_invariance(rng):
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    u, v = random_unitary(12, rng), random_unitary(12, rng)
    s1 = singular_values(a)
    s2 = singular_values(u @ a @ v)
    assert np.max(np.abs(s1 - s2)) <= 1e-12 * s1[0]


def test_schatten_examples():
    d = np.diag([3.0, 4.0])
    assert schatten_norm(d, 1) == pytest.approx(7.0)
    assert schatten_norm(d, 2) == pytest.approx(5.0)
    assert schatten_norm(d, np.inf) == pytest.approx(4.0)
    eye = np.eye(5)
    for p in (1, 1.5, 2, 3, 7):
        assert schatten_norm(eye, p) == pytest.approx(5.0 ** (1.0 / p))


def test_schatten_norm_is_the_singular_value_routine(rng):
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    for p in (1, 1.5, 2, 3, 40, np.inf):
        assert schatten_norm(a, p) == schatten_norm_from_sv(singular_values(a), p)
    assert schatten_norm(1e200 * a, 2) == pytest.approx(1e200 * schatten_norm(a, 2))


def test_schatten_monotone_in_p(rng):
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ps = [1, 1.5, 2, 3, 7, 40, np.inf]
    vals = [schatten_norm(a, p) for p in ps]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_frobenius_agreement(rng):
    a = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
    assert schatten_norm(a, 2) == pytest.approx(np.linalg.norm(a), rel=1e-12)


def test_duality_pairing(rng):
    for p in (1.5, 2, 3, 7):
        q = p / (p - 1)
        for _ in range(5):
            a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            lhs = abs(np.trace(a @ b.conj().T))
            assert lhs <= schatten_norm(a, p) * schatten_norm(b, q) + 1e-9


def test_rearrangement_examples():
    d = np.diag([3.0, 4.0])
    assert decreasing_rearrangement(d, 0.5) == 4.0
    assert decreasing_rearrangement(d, 1.0) == 3.0
    assert decreasing_rearrangement(d, 2.0) == 0.0
    assert decreasing_rearrangement(d, 7.3) == 0.0
    with pytest.raises(ValueError):
        decreasing_rearrangement(d, -0.1)


def test_rearrangement_integral_is_trace_norm(rng):
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    s = singular_values(a)
    assert cumulative_singular_integral(s, 100.0) == pytest.approx(schatten_norm(a, 1))


def test_marcinkiewicz_values():
    assert marcinkiewicz_norm([[1.0]]) == pytest.approx(1.0 / math.log(2.0), abs=1e-10)
    assert marcinkiewicz_norm(np.zeros((3, 3))) == 0.0
    assert marcinkiewicz_norm(np.eye(2)) == pytest.approx(2.0 / math.log(3.0), abs=1e-10)


def test_marcinkiewicz_supremum_dominates_grid(rng):
    a = rng.standard_normal((10, 10))
    s = singular_values(a)
    norm = marcinkiewicz_norm(a)
    ts = np.linspace(1e-6, 15.0, 4000)
    grid = max(cumulative_singular_integral(s, t) / math.log1p(t) for t in ts)
    assert norm >= grid - 1e-9
    assert norm <= grid + 1e-3  # the exact supremum sits at a breakpoint


def test_holder_split_examples():
    y, x = holder_split(np.diag([4.0]), 1.0)
    np.testing.assert_allclose(y, [[2.0]])
    np.testing.assert_allclose(x, [[2.0]])
    y, x = holder_split(np.eye(3), 2.0)
    np.testing.assert_allclose(y @ x, np.eye(3), atol=1e-14)


def test_holder_split_norm_identity(rng):
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    p = 3.0
    y, x = holder_split(z, p)
    np.testing.assert_allclose(y @ x, z, atol=1e-12 * schatten_norm(z, 2))
    lhs = schatten_norm(z, p)
    rhs = schatten_norm(y, 2 * p) * schatten_norm(x, 2 * p)
    assert abs(lhs - rhs) <= 1e-9 * lhs


def test_bad_exponents():
    with pytest.raises(BadExponent):
        schatten_norm(np.eye(2), 0.5)
    with pytest.raises(BadExponent):
        holder_split(np.eye(2), 0.3)
    with pytest.raises(DimensionMismatch):
        holder_split(np.ones((2, 3)), 2.0)


def test_nan_exponents_raise():
    # schatten_norm returned NaN, holder_split factors
    for call in (lambda p: schatten_norm(np.eye(2), p),
                 lambda p: schatten_norm_from_sv(np.ones(2), p),
                 lambda p: holder_split(np.eye(2), p)):
        with pytest.raises(BadExponent):
            call(math.nan)
        call(math.inf)  # closed at infinity
        call(1.0)


def test_matrix_io_roundtrip(tmp_path, rng):
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    b = read_matrix(path)
    assert b.shape == a.shape
    assert np.array_equal(a, b)  # 17 significant digits round-trip exactly


def test_matrix_file_text(tmp_path):
    # signed zeros, extreme magnitudes, and a transposed (non-contiguous) input
    a = np.array([[complex(-0.0, 1e300), complex(1.0 / 3.0, -2.5e-300), 7.0],
                  [complex(0.0, -0.0), complex(-1e-300, 0.1), 2.0 ** 0.5]]).T
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    assert path.read_text() == (
        "3 2\n"
        "-0 1.0000000000000001e+300 0 -0\n"
        "0.33333333333333331 -2.5e-300 -1e-300 0.10000000000000001\n"
        "7 0 1.4142135623730951 0\n")
    assert read_matrix(path).tobytes() == a.tobytes()  # array_equal takes -0 == 0


def test_matrix_io_keeps_signed_zeros(tmp_path):
    # re + 1j * im turned both -0.0 into +0.0
    a = np.array([complex(-0.0, 1e300), complex(1.5, -0.0)]).reshape(1, 2)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    assert read_matrix(path).tobytes() == a.tobytes()


def test_every_blas_caller_runs_on_one_thread(monkeypatch, rng):
    # each SVD sees one OpenBLAS thread, and each call leaves the count as it
    # found it; the GEMMs of these functions run under the same decorator
    from schurlab.dyadic import DyadicSystem, random_admissible_spec, shift_norm_probe
    from schurlab.lowerlab import (GeometricDiscretization, extrapolation_experiment,
                                   theorem_b1_experiment, theorem_b2_experiment)
    from schurlab.schur import Budget

    api = matrixnum._openblas_threads_api()
    if api is None:
        pytest.skip("no bundled OpenBLAS thread control")
    get, put = api
    seen = []
    svd = np.linalg.svd

    def recording_svd(*args, **kwargs):
        seen.append(get())
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    spec = random_admissible_spec(DyadicSystem(-4, 2), (1, 1, 0), 3, np.random.default_rng(2))
    calls = {
        "extrapolation": lambda: extrapolation_experiment(n=8, trials=2),
        "b1": lambda: theorem_b1_experiment(
            2.0, 8, GeometricDiscretization(0.5, 40, "B1", 8), Budget(1, 3)),
        "b2": lambda: theorem_b2_experiment(
            1.5, 8, GeometricDiscretization(0.5, 40, "B2", 8), Budget(1, 3)),
        "marcinkiewicz": lambda: marcinkiewicz_norm(z),
        "holder_split": lambda: holder_split(z, 2.0),
        "shift_norm_probe": lambda: shift_norm_probe(spec, 4.0, 4.0, 2.0, trials=2),
    }
    saved = get()
    put(2)  # a count the pin must change and then restore
    try:
        for name, call in calls.items():
            before, seen[:] = get(), []
            call()
            assert seen and set(seen) == {1}, name
            assert get() == before, name
    finally:
        put(saved)


_OUTSIDE_SEARCH = """
import numpy as np
from schurlab.lowerlab import (GeometricDiscretization, extrapolation_experiment,
                               theorem_b1_experiment, theorem_b2_experiment)
from schurlab.matrixnum import marcinkiewicz_norm
from schurlab.schur import Budget
from schurlab.symcalc import bump_symbol, s1_factorize

values = list(extrapolation_experiment(n=128, trials=3).per_trial)
for variant, p, run in (("B1", 2.0, theorem_b1_experiment), ("B2", 1.1, theorem_b2_experiment)):
    rep = run(p, 128, GeometricDiscretization(0.5, 40, variant, 128), Budget(1, 5))
    values += [v for v in vars(rep).values() if isinstance(v, float)]
rng = np.random.default_rng(0)
values.append(marcinkiewicz_norm(rng.standard_normal((128, 128))
                                 + 1j * rng.standard_normal((128, 128))))
th, r = rng.uniform(np.pi / 8, 3 * np.pi / 8, 1000), rng.uniform(0.5, 2.0, 1000)
rec = s1_factorize(bump_symbol(), (1, 1), S=160.0, N=4096, t_points=4096).reconstruct(
    r * np.cos(th), r * np.sin(th))
values += list(rec.real) + list(rec.imag)
print(" ".join(float(v).hex() for v in values))
"""


def test_outside_search_bitwise_independent_of_blas_threads():
    # the experiments' own GEMMs and SVDs, a Marcinkiewicz norm and a
    # reconstruction: every last bit, not only the 12 digits of the CSVs
    env = dict(os.environ, PYTHONPATH=str(Path(schurlab.__file__).parents[1]))
    outs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", _OUTSIDE_SEARCH], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
