"""The input gate: ``errors.finite_array`` and ``errors.whole_number``, and
public entry points whose bad arguments once escaped as an IndexError, a
TypeError or a numpy message that named no argument."""

import re

import numpy as np
import pytest

from pointbethe.bethe import bethe_state
from pointbethe.couplings import CouplingParameters
from pointbethe.errors import finite_array, whole_number
from pointbethe.factorization import GridSpec, check_factorization_panel, yang_baxter_matrix_check
from pointbethe.permutations import symmetric_group
from pointbethe.wavefunction import boundary_residual, boundary_samples, evaluate_grid


@pytest.mark.parametrize("x, shape, message", [
    (np.nan, (), r"x must be finite, got nan"),
    ([1.0, np.inf, 2.0, -np.inf], (None,),
     r"x must be finite, got non-finite entries at 0-based indices \[1, 3\]"),
    ([[0.0, 1.0], [np.nan, 1.0], [0.0, -np.inf]], (None, 2),
     r"x must be finite, got non-finite rows at 0-based indices \[1, 2\]"),
    ([1.0, 2.0], (3,), r"x must have shape \(3,\), got \(2,\)"),
    ([[1.0, 2.0]], (None,), r"x must have shape \(M,\), got \(1, 2\)"),
    (3.0, (None, 2), r"x must have shape \(M, 2\), got \(\)"),
    ("one", (), r"x must be a numeric array of shape \(\): could not convert"),
], ids=["scalar", "entries", "rows", "length", "extra-axis", "scalar-for-rows", "text"])
def test_finite_array_names_the_argument_and_the_fault(x, shape, message):
    with pytest.raises(ValueError, match="^" + message):
        finite_array(x, "x", shape)


@pytest.mark.parametrize("x, value", [
    (1.5, 1.5), (-0.0, -0.0), (0.0, 0.0), (5e-324, 5e-324), (-1e308, -1e308),
    (np.float64(1.5), 1.5), (np.float64(-0.0), -0.0), (np.array(2.5), 2.5),
    (3, 3.0), (-2, -2.0), (True, 1.0), (False, 0.0),
], ids=["float", "-0.0", "+0.0", "subnormal", "huge", "float64", "float64-0.0", "0-d",
        "int", "negative-int", "True", "False"])
def test_finite_array_returns_an_equal_scalar(x, value):
    # a Python float takes the fast path; numpy scalars, ints and bools the
    # general one.  Both give the value, and the sign of a zero, of np.float64(x)
    out = finite_array(x, "x")
    assert isinstance(out, float) and out == value
    assert np.signbit(out) == np.signbit(value)


@pytest.mark.parametrize("x, got", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
    (np.float64(np.nan), "nan"), (np.float64(np.inf), "inf"), (np.float64(-np.inf), "-inf"),
    (np.array(-np.inf), "-inf"),
], ids=["nan", "inf", "-inf", "float64-nan", "float64-inf", "float64--inf", "0-d--inf"])
def test_finite_array_refuses_non_finite_scalars_on_and_off_the_fast_path(x, got):
    with pytest.raises(ValueError, match=f"^x must be finite, got {re.escape(got)}$"):
        finite_array(x, "x")


def test_finite_array_fast_path_is_only_for_float64_scalars():
    # a float asked for in another shape or dtype goes through numpy as before
    assert finite_array(1.5, "x", dtype=np.complex128) == 1.5 + 0j
    assert type(finite_array(1.5, "x", dtype=np.complex128)) is np.complex128
    with pytest.raises(ValueError, match=r"^x must have shape \(M,\), got \(\)$"):
        finite_array(1.5, "x", (None,))
    with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
        finite_array(np.nan, "x", dtype=np.complex128)


def test_finite_array_returns_a_fresh_c_ordered_array():
    x = np.asfortranarray(np.ones((2, 3)))
    out = finite_array(x, "x", (None, 3))
    assert not np.shares_memory(out, x) and out.flags.c_contiguous
    assert finite_array([1, 2j], "a", (2,), np.complex128).tolist() == [1, 2j]


@pytest.mark.parametrize("x, got", [
    (True, "True"), (2.0, r"2\.0"), ("3", "'3'"), (0, "0"), (7, "7"),
], ids=["bool", "float", "text", "below", "above"])
def test_whole_number_refuses_bools_non_integers_and_values_out_of_range(x, got):
    with pytest.raises(ValueError, match=rf"^n must be a whole number in 1\.\.6, got {got}$"):
        whole_number(x, "n", 1, 6)


def test_whole_number_returns_a_python_int():
    n = whole_number(np.int64(3), "n", 1)
    assert n == 3 and type(n) is int
    with pytest.raises(ValueError, match=r"^seed must be a whole number >= 0, got -1$"):
        whole_number(-1, "seed", 0)


def _state():
    return bethe_state(CouplingParameters(2.0, 0.0, 0.0, 1.0), [1.1, -0.3, 0.6], np.eye(6)[0])


# each of these raised a TypeError, an OverflowError or numpy's own message
@pytest.mark.parametrize("call, message", [
    (lambda: symmetric_group(2.0), r"n must be a whole number >= 1, got 2\.0$"),
    (lambda: symmetric_group(True), r"n must be a whole number >= 1, got True$"),
    (lambda: yang_baxter_matrix_check(CouplingParameters(2.0), 3.0, [(0.5, 0.2)]),
     r"N must be a whole number in 2\.\.6, got 3\.0$"),
    (lambda: boundary_samples(3, 1, 2, np.random.default_rng(0), count=-1),
     r"count must be a whole number >= 1, got -1$"),
    (lambda: boundary_samples(3.0, 1, 2, np.random.default_rng(0)),
     r"N must be a whole number >= 2, got 3\.0$"),
    (lambda: evaluate_grid(_state(), [[0.1, 0.5, 1.2], [0.3, 0.4]]),
     r"points must be a numeric array of shape \(M, 3\): "),
    (lambda: boundary_residual(_state(), 1, 2, 5.0), r"samples must have shape \(M, 3\), got \(\)$"),
    (lambda: check_factorization_panel(CouplingParameters(2.0), 3.0),
     r"samples must have shape \(M, 2\), got \(\)$"),
    (lambda: yang_baxter_matrix_check(CouplingParameters(2.0), 3, 3.0),
     r"samples must have shape \(M, 2\), got \(\)$"),
    (lambda: GridSpec(("a",), (0.0,), (0.0,), (0.0,)),
     r"grid axis c_values must be a numeric array of shape \(M,\): could not convert"),
    (lambda: GridSpec((0.0,), (0.0,), (0.0, np.nan), (0.0,)),
     r"grid axis gamma_values must be finite, got non-finite entries at 0-based indices \[1\]$"),
    (lambda: GridSpec((0.0,), (0.0,), (0.0,), 1.0),
     r"grid axis eta_values must have shape \(M,\), got \(\)$"),
], ids=["symmetric-group-float", "symmetric-group-bool", "yang-baxter-float-n",
        "boundary-samples-count", "boundary-samples-float-n", "evaluate-grid-ragged",
        "boundary-residual-scalar-samples", "factorization-panel-scalar-samples",
        "yang-baxter-scalar-samples", "grid-text-axis", "grid-nan-axis", "grid-scalar-axis"])
def test_entry_points_name_the_bad_argument(call, message):
    with pytest.raises(ValueError, match="^" + message):
        call()


