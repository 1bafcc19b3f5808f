import dataclasses
import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointbethe import _kernels, bethe
from pointbethe._kernels import MAX_DRAWS_PER_SAMPLE, plane_waves
from pointbethe.bethe import BetheState, bethe_state, state_relation_residual
from pointbethe.couplings import CouplingParameters
from pointbethe.errors import NotGaugeFamily, OnBoundary
from pointbethe.permutations import rank_of, symmetric_group
from pointbethe.wavefunction import (boundary_residual, boundary_samples,
                                     closest_gap, determinant_bethe_state,
                                     determinant_coefficients, evaluate,
                                     evaluate_grid, gauge_transformed_state,
                                     schrodinger_fd_residual)
from reference import (boundary_residual_gathered, gauge_map,
                       plane_waves_point_major,
                       schrodinger_fd_residual_one_point)

FAMILY1 = CouplingParameters(2.0, 0.0, 0.0, 1.3)
FAMILY2 = CouplingParameters(1.7, 1.0 / 1.7)

K3 = np.array([1.4, -0.2, 0.7])


def toy_state(params=FAMILY1, k=K3, seed=0):
    rng = np.random.default_rng(seed)
    f = math.factorial(len(k))
    a = rng.normal(size=f) + 1j * rng.normal(size=f)
    return bethe_state(params, np.asarray(k, float), a)


def test_evaluate_single_particle():
    state = bethe_state(CouplingParameters(0.0), np.array([1.3]), np.array([1.0 + 0j]))
    x = 0.77
    assert evaluate(state, np.array([x])) == pytest.approx(np.exp(1.3j * x))


def test_evaluate_free_two_particles_plane_wave():
    k = np.array([0.9, -0.4])
    state = bethe_state(CouplingParameters(0.0), k, np.array([1.0, 0.0], complex))
    for x in (np.array([0.2, 1.5]), np.array([1.5, 0.2])):
        expected = np.exp(1j * (k[0] * x[0] + k[1] * x[1]))
        assert evaluate(state, x) == pytest.approx(expected)


def test_evaluate_averages_at_coincidence():
    state = toy_state()
    eps = 1e-7
    x = np.array([0.4, 0.4, 1.9])
    below = evaluate(state, x - np.array([eps, 0, 0]))
    above = evaluate(state, x + np.array([eps, 0, 0]))
    mid = evaluate(state, x)
    assert abs(mid - 0.5 * (below + above)) <= 1e-5


def test_evaluate_grid_matches_pointwise():
    state = toy_state()
    rng = np.random.default_rng(1)
    points = rng.uniform(-3, 3, (40, 3))
    vals = evaluate_grid(state, points)
    for x, v in zip(points, vals):
        assert v == pytest.approx(evaluate(state, x), rel=1e-12, abs=0)


def test_evaluate_grid_refuses_coincident_coordinates():
    # here the wedge kernel would silently return one wedge's limit where
    # evaluate averages the two
    state = toy_state(CouplingParameters(2.0, 0.0, 0.0, 1.0))
    points = np.array([[1.0, -0.5, 0.2], [0.3, 0.3, -1.0]])
    with pytest.raises(OnBoundary):
        evaluate_grid(state, points)
    with pytest.raises(OnBoundary):
        evaluate_grid(state, np.array([[0.3, 0.3 + 1e-13, -1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_grid_refuses_non_finite_coordinates(bad):
    state = toy_state()
    with pytest.raises(ValueError, match=r"^points must be finite, got non-finite rows at "
                                         r"0-based indices \[1\]$"):
        evaluate_grid(state, np.array([[0.1, 0.5, 1.2], [0.1, bad, 1.2]]))


@pytest.mark.parametrize("func", [evaluate, gauge_map], ids=["evaluate", "gauge_map"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_single_point_evaluators_refuse_non_finite_coordinates(func, bad):
    state = toy_state(CouplingParameters(2.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match=r"^point x must be finite, got non-finite entries at "
                                         r"0-based indices \[1\]$"):
        func(state, [0.1, bad, 0.5])


def _serial_boundary_samples(n, j, kk, rng, count=50, box=3.0, min_gap=0.2):
    # one candidate per draw, tested as it comes
    out = []
    draws = 0
    keep = [a for a in range(n) if a != kk - 1]
    while len(out) < count:
        if draws == MAX_DRAWS_PER_SAMPLE * count:
            raise ValueError(
                f"boundary_samples: {draws} draws in [-box, box]^{n} with box={box} gave "
                f"only {len(out)} of {count} points with gaps above min_gap={min_gap}"
            )
        draws += 1
        x = rng.uniform(-box, box, n)
        x[kk - 1] = x[j - 1]
        if closest_gap(x[keep]) > min_gap:
            out.append(x)
    return out


def _pairs(n):
    # the first, a middle and the last pair (j, kk)
    pairs = [(j, kk) for j in range(1, n + 1) for kk in range(j + 1, n + 1)]
    return sorted({pairs[0], pairs[len(pairs) // 2], pairs[-1]})


@pytest.mark.parametrize("n, j, kk", [(n, j, kk) for n in range(2, 7) for j, kk in _pairs(n)])
@pytest.mark.parametrize("count, min_gap", [(50, 0.2), (7, 0.2), (10, 0.8), (1, 0.2)])
def test_block_drawn_samples_match_the_serial_stream(monkeypatch, n, j, kk, count, min_gap):
    # min_gap 0.8 keeps about 2 % of the draws at N = 6: many blocks
    monkeypatch.setattr(_kernels, "BOUNDARY_MIN_GAP", min_gap)
    rng = np.random.default_rng(n * 100 + j * 10 + kk)
    ref_rng = np.random.default_rng(n * 100 + j * 10 + kk)
    for _ in range(2):  # a second call starts where the first left the stream
        got = boundary_samples(n, j, kk, rng, count=count)
        ref = _serial_boundary_samples(n, j, kk, ref_rng, count=count, min_gap=min_gap)
        # one float array, x_kk repeating x_j
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == (count, n) and np.array_equal(got[:, kk - 1], got[:, j - 1])
        assert np.array_equal(got, np.array(ref))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_block_drawn_samples_give_up_like_the_serial_loop(monkeypatch):
    # box 0.52 leaves just room for five coordinates 0.2 apart: 2 of 4000 fit
    monkeypatch.setattr(_kernels, "BOUNDARY_BOX", 0.52)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(ValueError) as got:
        boundary_samples(6, 2, 5, rng, count=4)
    with pytest.raises(ValueError) as ref:
        _serial_boundary_samples(6, 2, 5, ref_rng, count=4, box=0.52, min_gap=0.2)
    assert str(got.value) == str(ref.value) == (
        f"boundary_samples: {4 * MAX_DRAWS_PER_SAMPLE} draws in [-box, box]^6 with box=0.52 "
        "gave only 2 of 4 points with gaps above min_gap=0.2")
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_boundary_samples_give_up_on_an_empty_domain(run_python):
    # five other coordinates in [-0.3, 0.3] cannot keep pairwise gaps of 0.2
    proc = run_python(
        "import numpy as np\n"
        "from pointbethe import _kernels\n"
        "from pointbethe.wavefunction import boundary_samples\n"
        "_kernels.BOUNDARY_BOX = 0.3\n"
        "try:\n"
        "    boundary_samples(6, 1, 2, np.random.default_rng(0), count=5)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "box=0.3" in proc.stdout and "min_gap=0.2" in proc.stdout


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2])
@pytest.mark.parametrize("n", [2, 3])
def test_boundary_conditions_hold(params, n):
    rng = np.random.default_rng(n)
    k = np.array([1.4, -0.2, 0.7])[:n]
    f = math.factorial(n)
    a = rng.normal(size=f) + 1j * rng.normal(size=f)
    state = bethe_state(params, k, a)
    for j in range(1, n + 1):
        for kk in range(j + 1, n + 1):
            samples = boundary_samples(n, j, kk, rng, count=25)
            r1, r2 = boundary_residual(state, j, kk, samples)
            assert r1 <= 1e-9 and r2 <= 1e-9


def test_boundary_conditions_hold_four_particles():
    rng = np.random.default_rng(44)
    k = np.array([1.9, 0.8, -0.3, -1.5])
    a = rng.normal(size=24) + 1j * rng.normal(size=24)
    state = bethe_state(FAMILY1, k, a)
    for (j, kk) in ((1, 2), (2, 4), (3, 4)):
        samples = boundary_samples(4, j, kk, rng, count=10)
        r1, r2 = boundary_residual(state, j, kk, samples)
        assert r1 <= 1e-9 and r2 <= 1e-9


def test_boundary_residual_free_params_zero():
    k = np.array([0.9, -0.4])
    state = bethe_state(CouplingParameters(0.0), k, np.array([1.0, 0.0], complex))
    rng = np.random.default_rng(3)
    r1, r2 = boundary_residual(state, 1, 2, boundary_samples(2, 1, 2, rng, count=10))
    assert r1 <= 1e-12 and r2 <= 1e-12


def test_boundary_residual_detects_corruption():
    state = toy_state()
    bad_table = state.table.copy()
    bad_table[2, 3] += 1e-2  # column 3 is one of the wedges adjacent to x1 = x2
    bad = BetheState(params=state.params, k=state.k, table=bad_table)
    # a hand-built state may be given a writeable C-ordered table
    assert bad_table.flags.writeable and bad.columns[3, 2] == bad_table[2, 3]
    rng = np.random.default_rng(4)
    r1, r2 = boundary_residual(bad, 1, 2, boundary_samples(3, 1, 2, rng, count=25))
    assert max(r1, r2) >= 1e-4


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2])
def test_boundary_residual_batch_matches_single_samples(params):
    state = toy_state(params, np.array([1.9, 0.8, -0.3, -1.5]), seed=12)
    rng = np.random.default_rng(12)
    for j, kk in ((1, 2), (1, 4), (2, 3)):
        samples = boundary_samples(4, j, kk, rng, count=20)
        singles = [boundary_residual(state, j, kk, [x]) for x in samples]
        assert boundary_residual(state, j, kk, samples) == tuple(map(max, zip(*singles)))


def _read_only_view(table):
    view = np.ascontiguousarray(table)[:]  # shares, and does not own, the copy's data
    view.flags.writeable = False
    return view


def _strided_slice(table):
    big = np.zeros((2 * len(table), 2 * len(table)), dtype=table.dtype)
    big[::2, ::2] = table
    return big[::2, ::2]


def _hand_built(layout):
    def build():
        ref = toy_state()
        return BetheState(params=ref.params, k=ref.k, table=layout(ref.table)), ref.table
    return build


@pytest.mark.parametrize("build", [
    lambda: (toy_state(), None),
    lambda: (determinant_bethe_state(K3, 1.5, "fermion"), None),
    lambda: (gauge_transformed_state(toy_state()), None),
    _hand_built(np.ascontiguousarray),
    _hand_built(np.asfortranarray),
    _hand_built(lambda table: table.copy(order="F")),
    _hand_built(_read_only_view),
    _hand_built(_strided_slice),
], ids=["bethe_state", "determinant_bethe_state", "gauge_transformed_state", "c-array",
        "f-array", "writeable", "read-only-view", "strided-slice"])
def test_every_table_is_a_frozen_fortran_owner_and_columns_a_free_view(build):
    state, source = build()
    table = state.table
    assert table.flags.f_contiguous and table.flags.owndata and not table.flags.writeable
    assert state.k.flags.owndata and not state.k.flags.writeable
    # a wedge column A_.(Q) is one contiguous row of the transpose, at no copy
    assert state.columns.flags.c_contiguous and np.shares_memory(state.columns, table)
    assert np.array_equal(state.columns, table.T)
    if source is not None:
        assert np.array_equal(table, source)


@pytest.mark.parametrize("build", [
    lambda: toy_state().table,
    lambda: gauge_transformed_state(toy_state()).table,
    lambda: determinant_bethe_state(K3, 1.5, "fermion").table,
], ids=["bethe_state", "gauge_transformed_state", "determinant_bethe_state"])
def test_library_tables_are_read_only(build):
    # a state's arrays cannot change under it
    table = build()
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0


def test_a_state_does_not_alias_the_callers_arrays():
    ref = toy_state()
    k, table = ref.k.copy(), ref.table.copy()
    state = BetheState(params=ref.params, k=k, table=table)
    assert not (state.k.flags.writeable or state.table.flags.writeable)
    rng = np.random.default_rng(6)
    points = rng.uniform(-3.0, 3.0, (20, 3))
    samples = boundary_samples(3, 1, 3, rng, count=20)
    evaluate_grid(state, points)  # reads the state before the writes
    table *= 2
    k += 1.0
    assert np.array_equal(evaluate_grid(state, points), evaluate_grid(ref, points))
    assert boundary_residual(state, 1, 3, samples) == boundary_residual(ref, 1, 3, samples)


def _frozen_fortran(table):
    table = np.asfortranarray(table)
    table.flags.writeable = False
    return table


_NAN_TABLE = np.ones((6, 6), dtype=complex)
_NAN_TABLE[2, 4] = np.nan
_SHAPE_MESSAGE = r"coefficient table must have shape \(6, 6\), got \(24, 24\)"


@pytest.mark.parametrize("field, value, message", [
    ("table", np.eye(24, dtype=complex), _SHAPE_MESSAGE),
    ("table", _frozen_fortran(np.eye(24, dtype=complex)), _SHAPE_MESSAGE),
    ("table", _NAN_TABLE, r"coefficient table must be finite, got non-finite rows at 0-based "
                          r"indices \[2\]"),
    ("table", [["a"] * 6] * 6, r"coefficient table must be a numeric array"),
    ("k", [np.nan, 1.0, 2.0], r"momenta must be finite, got non-finite entries at 0-based "
                              r"indices \[0\]"),
    ("k", [1.0, 1.0, 2.0], r"momenta k\[0\]=1.0 and k\[1\]=1.0 coincide"),
    ("k", [], r"number of momenta must be a whole number >= 1"),
], ids=["table-shape", "frozen-table-shape", "table-nan", "table-text", "k-nan", "k-coincide",
        "k-empty"])
def test_a_state_refuses_fields_it_cannot_use(field, value, message):
    ref = toy_state()
    fields = {"params": ref.params, "k": ref.k, "table": ref.table, field: value}
    with pytest.raises(ValueError, match=message):
        BetheState(**fields)


def test_a_real_table_gives_the_residuals_of_its_complex_cast():
    ref = toy_state()
    real = ref.table.real.copy()
    state = BetheState(params=ref.params, k=ref.k, table=real)
    cast = BetheState(params=ref.params, k=ref.k, table=real.astype(complex))
    assert state.table.dtype == np.complex128 and np.array_equal(state.table, cast.table)
    samples = boundary_samples(3, 1, 2, np.random.default_rng(8), count=20)
    assert boundary_residual(state, 1, 2, samples) == boundary_residual(cast, 1, 2, samples)
    assert state_relation_residual(state) == state_relation_residual(cast)


def test_bethe_state_keeps_the_table_it_fills(monkeypatch):
    filled = []
    fill = _kernels.propagate_table
    monkeypatch.setattr(_kernels, "propagate_table",
                        lambda *args: filled.append(fill(*args)) or filled[-1])
    state = toy_state()
    assert np.shares_memory(state.table, filled[0])
    # a read-only table that owns its data is kept as it is
    assert BetheState(params=state.params, k=state.k, table=state.table).table is state.table


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2], ids=["family1", "family2"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_results_do_not_depend_on_the_table_layout(params, n):
    k = np.linspace(1.2, -1.1, n) + np.random.default_rng(n).uniform(-0.1, 0.1, n)
    table = toy_state(params, k, seed=n).table
    ref, *states = [BetheState(params=params, k=k, table=layout(table)) for layout in
                    (np.ascontiguousarray, np.asfortranarray, _read_only_view, _strided_slice)]
    rng = np.random.default_rng(20 + n)
    for j, kk in ((1, 2), (2, n), (n - 1, n)):
        samples = boundary_samples(n, j, kk, rng, count=20)
        want = boundary_residual(ref, j, kk, samples)
        assert all(boundary_residual(state, j, kk, samples) == want for state in states)
    points = rng.uniform(-3.0, 3.0, (40, n))
    want = evaluate_grid(ref, points)
    assert all(np.array_equal(evaluate_grid(state, points), want) for state in states)
    tie = points[0].copy()
    tie[1] = tie[0]  # a point on x1 = x2 averages two wedges
    for x in (points[1], tie):
        assert all(evaluate(state, x) == evaluate(ref, x) for state in states)


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2], ids=["family1", "family2"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "random"])
def test_contiguous_waves_and_in_place_sums_give_the_reference_bits(params, n, unit):
    rng = np.random.default_rng(30 + n)
    k = np.linspace(1.4, -1.3, n) + rng.uniform(-0.05, 0.05, n)
    f = math.factorial(n)
    a = np.eye(f, 1, dtype=complex)[:, 0] if unit else rng.normal(size=f) + 1j * rng.normal(size=f)
    state = bethe_state(params, k, a)
    images = state.tables.images
    xq = np.sort(rng.uniform(-3.0, 3.0, (40, n)), axis=1)
    waves = plane_waves(k, images, xq)
    assert waves.flags.c_contiguous
    assert waves.tobytes() == plane_waves_point_major(k, images, xq).tobytes()
    for j, kk in itertools.combinations(range(1, n + 1), 2):
        samples = boundary_samples(n, j, kk, rng, count=20)
        assert boundary_residual(state, j, kk, samples) == \
            boundary_residual_gathered(state, j, kk, samples)


@pytest.mark.parametrize("samples, shape", [
    (np.zeros((2, 3, 1)), r"\(2, 3, 1\)"),
    (np.zeros((2, 4)), r"\(2, 4\)"),
    (np.zeros(3), r"\(3,\)"),
], ids=["extra-axis", "wrong-size", "one-point-unwrapped"])
def test_boundary_residual_names_a_bad_sample_shape(samples, shape):
    # a (2, 3, 1) array was reshaped silently, and a wrong size failed with
    # numpy's bare "cannot reshape"
    with pytest.raises(ValueError, match=r"^samples must have shape \(M, 3\), got " + shape + "$"):
        boundary_residual(toy_state(), 1, 2, samples)


def test_boundary_residual_input_checks():
    state = toy_state()
    with pytest.raises(ValueError):
        boundary_residual(state, 2, 1, [])
    with pytest.raises(ValueError, match=r"^sample \[0\.1 0\.2 0\.3\] is not a point on x_1 = x_2$"):
        boundary_residual(state, 1, 2, [np.array([0.1, 0.2, 0.3])])
    with pytest.raises(ValueError, match=r"^samples must be finite, got non-finite rows at "
                                         r"0-based indices \[0\]$"):
        boundary_residual(state, 1, 2, [np.array([np.nan, np.nan, 0.3])])
    # k = 2.0 failed as an index with a bare IndexError
    with pytest.raises(ValueError, match=r"^pair index k must be a whole number in 2\.\.3, got 2\.0$"):
        boundary_residual(state, 1, 2.0, [np.array([0.1, 0.1, 0.3])])
    with pytest.raises(OnBoundary):
        boundary_residual(state, 1, 2, [np.array([0.1, 0.1, 0.1])])


@pytest.mark.parametrize("j, kk, message", [
    (0, 2, r"j must be a whole number in 1\.\.2, got 0"),
    (2, 2, r"k must be a whole number in 3\.\.3, got 2"),
    (3, 1, r"j must be a whole number in 1\.\.2, got 3"),
    (1, 4, r"k must be a whole number in 2\.\.3, got 4"),
    (1.5, 2, r"j must be a whole number in 1\.\.2, got 1\.5"),
], ids=["0-2", "2-2", "3-1", "1-4", "1.5-2"])
def test_boundary_samples_refuse_a_pair_off_the_planes(j, kk, message):
    # (0, 2) wrapped x_0 round to x_3, (2, 2) gave points on no plane, and
    # (1, 4) and (1.5, 2) raised a bare IndexError
    with pytest.raises(ValueError, match="^pair index " + message + "$"):
        boundary_samples(3, j, kk, np.random.default_rng(0))


def test_boundary_residual_refuses_an_empty_sample_list():
    # a maximum over no samples would report the contact conditions as met
    with pytest.raises(ValueError, match="at least one sample"):
        boundary_residual(toy_state(), 1, 2, [])


def test_determinant_single_particle():
    for statistics in ("boson", "fermion"):
        state = determinant_bethe_state([0.8], 1.0, statistics)
        assert evaluate(state, [0.3]) == pytest.approx(np.exp(0.8j * 0.3))


def _sympy_determinant_oracle(kvals, c, xvals):
    """Apply prod_{j>k} (d_j - d_k + c) to det[exp(i k_m x_n)] symbolically."""
    n = len(kvals)
    xs = sympy.symbols(f"x1:{n + 1}")
    det = sympy.Matrix(n, n, lambda m, j: sympy.exp(sympy.I * kvals[m] * xs[j])).det()
    expr = det
    for jj in range(n):
        for kk in range(jj):
            expr = sympy.diff(expr, xs[jj]) - sympy.diff(expr, xs[kk]) + c * expr
    return complex(expr.subs(dict(zip(xs, xvals))).evalf(30))


def _assert_tables_match_the_oracle(k, c, x, want, **tolerance):
    # x lies in the identity wedge; its reversal lies in the wedge of the
    # reversing permutation, whose sign the fermion table carries
    n = len(k)
    for statistics, sigma in (("boson", 1), ("fermion", (-1) ** (n * (n - 1) // 2))):
        state = determinant_bethe_state(k, c, statistics)
        assert evaluate(state, x) == pytest.approx(want, **tolerance)
        assert evaluate(state, x[::-1]) == pytest.approx(sigma * want, **tolerance)


@pytest.mark.parametrize("c", [0.0, 2.0])
def test_determinant_two_particles_vs_symbolic_differentiation(c):
    k = np.array([1.0, -1.0])
    x = np.array([0.0, 1.0])
    want = _sympy_determinant_oracle(k, c, x)
    if c == 0.0:
        # there is no table at c = 0, where lambda = 1/c does not exist
        got = determinant_coefficients(k, c) @ plane_waves(k, symmetric_group(2).images, x[None])[0]
        assert got == pytest.approx(want, abs=1e-12)
    else:
        _assert_tables_match_the_oracle(k, c, x, want, abs=1e-12)


def test_determinant_three_particles_vs_symbolic_differentiation():
    k = np.array([1.3, 0.2, -0.9])
    x = np.array([-0.7, 0.1, 1.2])
    want = _sympy_determinant_oracle(k, 1.5, x)
    _assert_tables_match_the_oracle(k, 1.5, x, want, rel=1e-10)


def test_determinant_state_has_the_exchange_symmetry_of_its_statistics():
    x = np.array([0.9, -1.2, 0.3])
    swapped = x[[1, 0, 2]]
    boson = determinant_bethe_state(K3, 1.7, "boson")
    fermion = determinant_bethe_state(K3, 1.7, "fermion")
    assert evaluate(boson, swapped) == pytest.approx(evaluate(boson, x), rel=1e-14)
    assert evaluate(fermion, swapped) == pytest.approx(-evaluate(fermion, x), rel=1e-14)
    assert evaluate(fermion, [0.4, 0.4, 1.0]) == 0.0
    with pytest.raises(ValueError, match="unknown statistics 'anyon'"):
        determinant_bethe_state(K3, 1.7, "anyon")


def test_determinant_state_needs_nonzero_c():
    # 1/1e-320 overflows: it was blamed on a coupling lam the caller never passed
    for c in (0.0, 1e-320):
        with pytest.raises(ValueError, match=rf"^determinant coupling c = {c} has no finite "
                                             r"lambda = 1/c$"):
            determinant_bethe_state(K3, c, "boson")


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_determinant_form_refuses_a_non_finite_c(c):
    # these returned all-NaN coefficients and a NaN psi
    message = r"^determinant coupling c must be finite, got -?(nan|inf)$"
    with pytest.raises(ValueError, match=message):
        determinant_coefficients([0.3, -0.4, 1.1], c)
    with pytest.raises(ValueError, match=message):
        determinant_bethe_state([0.3, -0.4], c, "fermion")


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
@pytest.mark.parametrize("n", [2, 3])
def test_determinant_state_satisfies_boundary_conditions(statistics, n):
    c = 1.7
    k = K3[:n]
    state = determinant_bethe_state(k, c, statistics)
    rng = np.random.default_rng(5)
    for j in range(1, n + 1):
        for kk in range(j + 1, n + 1):
            r1, r2 = boundary_residual(state, j, kk,
                                       boundary_samples(n, j, kk, rng, count=25))
            assert r1 <= 1e-9 and r2 <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_determinant_coefficients_match_propagation(n):
    # propagating the statistics-adapted identity-wedge row must reproduce
    # the determinant expansion up to one global constant
    c = 1.7
    k = K3[:n]
    params = CouplingParameters(c, 1.0 / c)
    tables = symmetric_group(n)
    a_row = tables.signs.astype(complex)  # fermion wedge profile
    state = bethe_state(params, k, a_row)
    coeff = determinant_coefficients(k, c)
    ratio = state.table[:, 0] / coeff
    assert np.abs(ratio - ratio[0]).max() <= 1e-10 * max(1, np.abs(ratio[0]))


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_separated_family_one_condition_is_automatic(statistics):
    # symmetric states have zero value jump and zero relative-derivative
    # average across a contact plane; antisymmetric states have zero value
    # average and zero relative-derivative jump.  Either way one of the two
    # contact conditions holds identically for the lam = 1/c family.
    c = 1.7
    state = determinant_bethe_state(np.array([1.1, -0.6]), c, statistics)
    eps = 1e-6
    t = 0.42
    lo = evaluate(state, np.array([t - eps, t + eps]))
    hi = evaluate(state, np.array([t + eps, t - eps]))
    if statistics == "boson":
        assert abs(hi - lo) <= 1e-8 * max(1.0, abs(hi))  # continuous value
    else:
        assert abs(hi + lo) <= 1e-8 * max(1.0, abs(hi))  # odd value


def test_gauge_map_eta_zero_is_identity():
    state = toy_state(CouplingParameters(1.5), K3)
    x = np.array([0.3, -0.8, 1.1])
    assert gauge_map(state, x) == pytest.approx(evaluate(state, x))


def test_gauge_map_requires_family():
    state = toy_state(FAMILY2, K3, seed=8)
    with pytest.raises(NotGaugeFamily):
        gauge_map(state, np.array([0.1, 0.5, 1.0]))


def test_gauge_map_step_phase_at_coincidence():
    state = toy_state()
    x = np.array([0.7, 0.7, 2.0])
    gd_alpha = np.angle((1 + 1.3j) / (1 - 1.3j))
    expected = evaluate(state, x) * np.exp(-1j * gd_alpha * 0.5)
    assert gauge_map(state, x) == pytest.approx(expected)


def test_gauge_map_round_trip():
    state = toy_state()
    mapped = gauge_transformed_state(state)
    inverse_cols = np.exp(1j * np.angle((1 + 1.3j) / (1 - 1.3j))
                          * state.tables.inversion_counts)
    restored = mapped.table * inverse_cols[np.newaxis, :]
    assert np.abs(restored - state.table).max() <= 1e-14


@pytest.mark.parametrize("c,eta", [(2.0, 1.0), (1.0, 0.5)])
@pytest.mark.parametrize("n", [2, 3])
def test_gauge_equivalence_to_delta_gas(c, eta, n):
    rng = np.random.default_rng(10)
    k = K3[:n]
    f = math.factorial(n)
    a = rng.normal(size=f) + 1j * rng.normal(size=f)
    state = bethe_state(CouplingParameters(c, 0.0, 0.0, eta), k, a)
    mapped = gauge_transformed_state(state)
    assert mapped.params.c == pytest.approx(c / (1 + eta**2))
    for j in range(1, n + 1):
        for kk in range(j + 1, n + 1):
            r1, r2 = boundary_residual(mapped, j, kk,
                                       boundary_samples(n, j, kk, rng, count=20))
            assert r1 <= 1e-9 and r2 <= 1e-9
    # the mapped state is the plain evaluate times the wedge step phase
    for _ in range(5):
        x = rng.uniform(-2, 2, n)
        assert evaluate(mapped, x) == pytest.approx(gauge_map(state, x))


@st.composite
def gauge_family_states(draw, n):
    params = CouplingParameters(draw(st.floats(-3.0, 3.0)), 0.0, 0.0, draw(st.floats(-3.0, 3.0)))
    gaps = draw(st.lists(st.floats(0.3, 1.5), min_size=n - 1, max_size=n - 1))
    k = draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    f = math.factorial(n)
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * f, max_size=2 * f)))
    return bethe_state(params, k, parts[:f] + 1j * parts[f:])


# the first symmetric_group(4) build can outlast hypothesis's per-example deadline
@pytest.mark.parametrize("n", [2, 3, 4])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_gauge_map_equals_the_transformed_state_at_generic_points(n, data):
    state = data.draw(gauge_family_states(n))
    x = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    assume(closest_gap(x) > 1e-6)
    want = evaluate(gauge_transformed_state(state), x)
    # roundoff relative to sum |A_P(Q)|, which bounds |psi|
    assert abs(gauge_map(state, x) - want) <= 1e-12 * max(1.0, np.abs(state.table).sum())


def test_gauge_map_catches_corrupted_step_counts(monkeypatch):
    # the reference counts the steps from x, so a fault in the inversion
    # counts that scale the transformed table's columns no longer cancels
    state = toy_state()
    x = np.array([0.9, -1.2, 0.3])
    want = gauge_map(state, x)
    assert evaluate(gauge_transformed_state(state), x) == pytest.approx(want, rel=1e-12)
    tables = state.tables
    counts = tables.inversion_counts.copy()
    counts[rank_of(np.argsort(x))] += 1
    corrupted = dataclasses.replace(tables, inversion_counts=counts)
    monkeypatch.setattr(bethe, "symmetric_group", lambda n: corrupted)
    assert state.tables is corrupted
    assert abs(evaluate(gauge_transformed_state(state), x) - want) >= 0.1 * abs(want)


def test_schrodinger_residual_second_order():
    state = toy_state()
    rng = np.random.default_rng(11)
    k_max = np.abs(state.k).max()
    scale = np.abs(state.table).sum()
    for _ in range(5):
        x = rng.uniform(-2.5, 2.5, 3)
        if min(abs(x[a] - x[b]) for a in range(3) for b in range(a + 1, 3)) < 0.05:
            continue
        h = 1e-4
        res = schrodinger_fd_residual_one_point(state, x, h)
        # fourth-derivative bound on the central-difference truncation error
        assert res <= 10 * state.n * h**2 * k_max**4 * scale


def test_schrodinger_residual_refuses_a_stencil_across_a_boundary():
    # at a 3e-5 gap the h = 1e-4 stencil straddles x1 = x2 and returned ~1e8
    a = np.zeros(6, complex)
    a[0] = 1.0
    state = bethe_state(FAMILY1, K3, a)
    assert schrodinger_fd_residual(state, np.array([[0.3, 0.301, -1.0]]))[0] <= 1e-6
    with pytest.raises(OnBoundary):
        schrodinger_fd_residual(state, np.array([[0.3, 0.3 + 3e-5, -1.0]]))


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2], ids=["family1", "family2"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_fd_residual_batch_equals_the_single_point_calls(params, n):
    k = np.linspace(1.2, -1.1, n) + np.random.default_rng(n).uniform(-0.1, 0.1, n)
    state = toy_state(params, k, seed=n)
    points = np.random.default_rng(40 + n).uniform(-3.0, 3.0, (12, n))
    points = points[closest_gap(points) > 1e-3]
    batch = schrodinger_fd_residual(state, points)
    before = [schrodinger_fd_residual_one_point(state, x, 1e-4) for x in points]
    assert batch.tobytes() == np.array(before).tobytes()
    # a (1, N) array is a batch of one point, not a point
    one = schrodinger_fd_residual(state, points[:1].tolist())
    assert one.shape == (1,) and one.tobytes() == batch[:1].tobytes()


# the ids keep the names these cases had under the earlier messages
@pytest.mark.parametrize("points, error, message", [
    (np.zeros((2, 2)), ValueError, r"points must have shape \(M, 3\), got \(2, 2\)"),
    (np.array([[0.3, np.inf, -1.0]]), ValueError,
     r"points must be finite, got non-finite rows at 0-based indices \[0\]"),
    (np.array([[0.3, 1.1, -1.0], [0.3, 0.3 + 3e-5, -1.0]]), OnBoundary,
     r"coordinates of \[ ?0\.3 .*finite-difference step h=0\.0001"),
    ([[0.3, 1.1], [-1.0]], ValueError, r"points must be a numeric array of shape \(M, 3\): .*"),
], ids=[r"points0-ValueError-need points of shape \(M, 3\), got \(2, 2\)",
        "points1-ValueError-non-finite", "points2-OnBoundary-coordinates of \\[ ?0\\.3 "
        ".*finite-difference step h=0\\.0001", "ragged"])
def test_fd_residual_batch_refuses_bad_points(points, error, message):
    with pytest.raises(error, match=message):
        schrodinger_fd_residual(toy_state(), points)
