"""The process-wide thread pool of ``_kernels.thread_map`` and the boundary
checks that run on it: item order, the first failure, the rng stream,
and reports that do not depend on the number of workers; and the oracle's
one OpenBLAS thread, whose reports do not depend on OpenBLAS's count."""

import itertools
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pointbethe import _kernels, cli
from pointbethe.bethe import bethe_state, coefficients_bc_oracle, state_relation_residual
from pointbethe.couplings import CouplingParameters
from pointbethe.errors import OnBoundary
from pointbethe.wavefunction import (boundary_residual, boundary_samples, evaluate,
                                     evaluate_grid, gauge_transformed_state)

FAMILIES = [CouplingParameters(2.0, 0.0, 0.0, 1.3), CouplingParameters(1.7, 1.0 / 1.7)]
FAMILY_IDS = ["family1", "family2"]


def _state(params, n):
    k = np.linspace(1.5, -1.5, n) + np.random.default_rng(n).uniform(-0.05, 0.05, n)
    a = np.zeros(math.factorial(n), dtype=np.complex128)
    a[0] = 1.0
    return bethe_state(params, k, a)


def _serial_lines(state, label, rng):
    """The loop ``cli._pair_lines`` replaces: draw a pair's samples, check
    them, then the next pair."""
    lines, worst = [], 0.0
    for j, kk in itertools.combinations(range(1, state.n + 1), 2):
        r1, r2 = boundary_residual(state, j, kk, boundary_samples(state.n, j, kk, rng, count=50))
        lines.append(f"{label} ({j},{kk}): residuals {r1:.3e} {r2:.3e}")
        worst = cli._worst(worst, r1, r2)
    return lines, worst


def test_results_come_back_in_item_order():
    # later items finish first
    delays = [0.04, 0.03, 0.02, 0.01, 0.0]

    def slow(index, delay):
        time.sleep(delay)
        return index

    assert _kernels.thread_map(slow, range(5), delays) == [0, 1, 2, 3, 4]
    assert _kernels.thread_map(slow, [], []) == []


def test_the_pool_persists_and_has_one_worker_per_cpu():
    assert _kernels._pool() is _kernels._pool()
    assert _kernels._pool()._max_workers == len(os.sched_getaffinity(0))


def test_the_first_failure_in_item_order_is_raised():
    def fail(index):
        if index == 1:
            time.sleep(0.02)  # fails last
            raise ValueError("item 1")
        if index == 3:
            raise KeyError("item 3")
        return index

    with pytest.raises(ValueError, match="item 1"):
        _kernels.thread_map(fail, range(5))


@pytest.mark.parametrize("params", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pair_lines_equal_the_serial_loop(params, n):
    state = _state(params, n)
    rng, serial_rng = np.random.default_rng(n), np.random.default_rng(n)
    cfg = cli.RunConfig(command="eigen")
    worst = cli._pair_lines(cfg, state, "boundary", rng)
    lines, serial_worst = _serial_lines(state, "boundary", serial_rng)
    assert cfg.lines == lines
    assert np.array_equal(worst, serial_worst, equal_nan=True)
    # the draws leave the generator where the serial loop leaves it
    assert rng.bit_generator.state == serial_rng.bit_generator.state


@pytest.mark.parametrize("params", FAMILIES, ids=FAMILY_IDS)
def test_no_reader_writes_to_the_state(params):
    # threads share one state, so reading it must leave its fields as they were
    state = _state(params, 4)
    fields = dict(vars(state))
    rng = np.random.default_rng(4)
    points = rng.uniform(-3.0, 3.0, (10, 4))
    readers = {
        "evaluate": lambda: evaluate(state, points[0]),
        "evaluate_grid": lambda: evaluate_grid(state, points),
        "boundary_residual": lambda: boundary_residual(
            state, 1, 3, boundary_samples(4, 1, 3, rng, count=10)),
        "state_relation_residual": lambda: state_relation_residual(state),
        "_pair_lines": lambda: cli._pair_lines(cli.RunConfig(command="eigen"), state,
                                               "boundary", rng),
    }
    if params.lam == 0:  # the gauge map's family
        readers["gauge_transformed_state"] = lambda: gauge_transformed_state(state)
    for name, read in readers.items():
        read()
        assert vars(state).keys() == fields.keys(), name
        assert all(vars(state)[f] is value for f, value in fields.items()), name


@pytest.mark.parametrize("params", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mapped_checks_equal_serial_checks_bit_for_bit(params, n):
    state = _state(params, n)
    rng = np.random.default_rng(n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    samples = [boundary_samples(n, j, kk, rng, count=50) for j, kk in pairs]
    serial = [boundary_residual(state, j, kk, x) for (j, kk), x in zip(pairs, samples)]
    mapped = _kernels.thread_map(lambda pair, x: boundary_residual(state, *pair, x),
                                 pairs, samples)
    assert np.array(mapped).tobytes() == np.array(serial).tobytes()


@pytest.mark.parametrize("order", ["ValueError first", "OnBoundary first"])
def test_a_failing_pair_raises_what_the_serial_loop_raises_first(order):
    state = _state(FAMILIES[0], 4)
    rng = np.random.default_rng(4)
    pairs = list(itertools.combinations(range(1, 5), 2))
    samples = [np.array(boundary_samples(4, j, kk, rng, count=50)) for j, kk in pairs]
    # pair (1,3) gets a point off its plane, pair (2,4) one on a second plane
    off_plane = samples[1].copy()
    off_plane[0, 2] += 0.5
    second_plane = samples[4].copy()
    second_plane[0, 0] = second_plane[0, 2]
    samples[1], samples[4] = off_plane, second_plane
    if order == "OnBoundary first":
        pairs[1], pairs[4] = pairs[4], pairs[1]
        samples[1], samples[4] = samples[4], samples[1]

    def first_error(run):
        try:
            run()
        except (ValueError, OnBoundary) as exc:
            return type(exc), str(exc)

    def serial():
        for pair, x in zip(pairs, samples):
            boundary_residual(state, *pair, x)

    want = first_error(serial)
    assert want[0] is (ValueError if order == "ValueError first" else OnBoundary)
    assert first_error(lambda: _kernels.thread_map(
        lambda pair, x: boundary_residual(state, *pair, x), pairs, samples)) == want


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("command, family", [("eigen", ["--eta", "1"]),
                                             ("eigen", ["--lambda", "0.5"]),
                                             ("gauge", ["--eta", "1"])])
def test_the_report_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, workers,
                                                         command, family):
    # eight workers on a short switch interval interleave the checks often
    argv = [command, "--N", "6", "--c", "2", *family, "--seed", "3"]
    assert cli.main(argv + ["--out", str(tmp_path / "default.txt")]) == cli.EXIT_OK
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(_kernels, "_pool", lambda: pool)
            assert cli.main(argv + ["--out", str(tmp_path / "pool.txt")]) == cli.EXIT_OK
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "pool.txt").read_bytes() == (tmp_path / "default.txt").read_bytes()


def test_only_eigen_and_gauge_start_the_pool(run_python):
    code = """
import io, contextlib, sys, threading
from pointbethe import _kernels, cli
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
run("scan", "--c=-2,1", "--lambda=0,0.5", "--gamma=0", "--eta=0,1")
run("coeffs", "--N", "4", "--c", "2", "--eta", "1")
run("yb-check", "--N", "5", "--c", "2", "--lambda", "0.5")
run("scatter", "--c", "2", "--eta", "1")
assert "concurrent.futures" not in sys.modules
def workers():
    return sum(t.name.startswith("pointbethe") for t in threading.enumerate())
assert workers() == 0
run("eigen", "--N", "5", "--c", "2", "--eta", "1")
count = workers()
run("gauge", "--N", "5", "--c", "2", "--eta", "1")
run("eigen", "--N", "5", "--c", "2", "--lambda", "0.5")
assert 1 <= count == workers() <= _kernels._pool()._max_workers, count
print("ok")
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


needs_local_setter = pytest.mark.skipif(
    _kernels._blas_thread_setter() is None,
    reason="the OpenBLAS numpy loaded exports no openblas_set_num_threads_local")


@needs_local_setter
def test_coeffs_bytes_do_not_depend_on_the_blas_thread_count(run_python):
    # N = 4 and N = 3 run the oracle's QRs, solve and rank; the process-wide
    # OpenBLAS count is read from the environment when numpy loads it
    code = """
import hashlib, io, contextlib, os
os.environ["OPENBLAS_NUM_THREADS"] = threads
from pointbethe import cli
for n in ("4", "3"):
    for family in (["--eta", "1"], ["--lambda", "0.5"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["coeffs", "--N", n, "--c", "2", *family])
        print(n, *family, status, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""
    runs = {threads: run_python(f"threads = {threads!r}\n" + code) for threads in ("1", "2")}
    for done in runs.values():
        assert done.returncode == 0, done.stderr
        assert done.stdout.count(" 0 ") == 4, done.stdout
    assert runs["1"].stdout == runs["2"].stdout


@needs_local_setter
def test_one_blas_thread_restores_the_calling_threads_count():
    setter = _kernels._blas_thread_setter()
    previous = setter(3)
    try:
        with _kernels.one_blas_thread():
            assert setter(1) == 1
        assert setter(3) == 3
        with pytest.raises(KeyError):
            with _kernels.one_blas_thread():
                raise KeyError("body")
        assert setter(3) == 3
    finally:
        setter(previous)


def test_one_blas_thread_pins_numpys_own_openblas(run_python):
    # scipy, where installed, maps a second OpenBLAS that exports the same
    # setter; numpy's count, read through numpy's own LAPACK extension,
    # must be the one that moves
    code = """
import ctypes, importlib.util, os
os.environ["OPENBLAS_NUM_THREADS"] = "2"
if importlib.util.find_spec("scipy") is not None:
    import scipy.linalg
from numpy.linalg import _umath_linalg
from pointbethe import _kernels
handle = ctypes.CDLL(_umath_linalg.__file__)
getters = [getattr(handle, name) for name in
           ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads") if hasattr(handle, name)]
if _kernels._blas_thread_setter() is None or not getters:
    print("none")
else:
    before = getters[0]()
    with _kernels.one_blas_thread():
        inside = getters[0]()
    print(before, inside, getters[0]())
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    if done.stdout == "none\n":
        pytest.skip("numpy's LAPACK extension links no OpenBLAS thread setter and getter")
    if done.stdout.split()[0] != "2":
        pytest.skip(f"OpenBLAS starts on {done.stdout.split()[0]} threads: one CPU shows no pin")
    assert done.stdout == "2 1 2\n"


@pytest.mark.parametrize("params", FAMILIES, ids=FAMILY_IDS)
def test_the_oracle_runs_without_a_local_setter(monkeypatch, params):
    monkeypatch.setattr(_kernels, "_blas_thread_setter", lambda: None)
    state = _state(params, 4)
    oracle = coefficients_bc_oracle(params, state.k, state.table[0])
    assert oracle.nullity == 24
    assert oracle.residual <= cli.RunConfig(command="coeffs").tolerance
