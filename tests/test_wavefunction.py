import math

import numpy as np
import pytest
import sympy

from pointbethe._kernels import MAX_DRAWS_PER_SAMPLE
from pointbethe.bethe import BetheState, bethe_state
from pointbethe.couplings import CouplingParameters
from pointbethe.errors import NotGaugeFamily, OnBoundary, WrongWedge
from pointbethe.permutations import Permutation, symmetric_group
from pointbethe.wavefunction import (boundary_residual, boundary_samples,
                                     closest_gap, determinant_bethe_state,
                                     determinant_coefficients,
                                     determinant_eigenfunction, evaluate,
                                     evaluate_grid, extend_by_statistics,
                                     gauge_map, gauge_transformed_state,
                                     locate_wedge, schrodinger_fd_residual)

FAMILY1 = CouplingParameters(2.0, 0.0, 0.0, 1.3)
FAMILY2 = CouplingParameters(1.7, 1.0 / 1.7)

K3 = np.array([1.4, -0.2, 0.7])


def toy_state(params=FAMILY1, k=K3, seed=0):
    rng = np.random.default_rng(seed)
    f = math.factorial(len(k))
    a = rng.normal(size=f) + 1j * rng.normal(size=f)
    return bethe_state(params, np.asarray(k, float), a)


def test_locate_wedge_examples():
    assert locate_wedge(np.array([1.0, 2.0, 3.0])).ordering.images == (1, 2, 3)
    assert locate_wedge(np.array([3.0, 1.0, 2.0])).ordering.images == (2, 3, 1)
    with pytest.raises(OnBoundary):
        locate_wedge(np.array([1.0, 1.0, 2.0]))


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
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_grid(state, np.array([[0.1, bad, 1.2]]))


def _extended_determinant(statistics):
    def func(state, x):
        return extend_by_statistics(lambda y: determinant_eigenfunction(K3, 2.0, y),
                                    statistics, x)
    return func


@pytest.mark.parametrize("func", [
    evaluate, gauge_map,
    lambda state, x: locate_wedge(x),
    lambda state, x: determinant_eigenfunction(K3, 2.0, x),
    _extended_determinant("boson"), _extended_determinant("fermion"),
], ids=["evaluate", "gauge_map", "locate_wedge", "determinant_eigenfunction",
        "extend_by_statistics-boson", "extend_by_statistics-fermion"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_single_point_evaluators_refuse_non_finite_coordinates(func, bad):
    state = toy_state(CouplingParameters(2.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match=r"non-finite coordinates at 0-based indices \[1\]"):
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
def test_block_drawn_samples_match_the_serial_stream(n, j, kk, count, min_gap):
    # min_gap 0.8 keeps about 2 % of the draws at N = 6: many blocks
    rng = np.random.default_rng(n * 100 + j * 10 + kk)
    ref_rng = np.random.default_rng(n * 100 + j * 10 + kk)
    for _ in range(2):  # a second call starts where the first left the stream
        got = boundary_samples(n, j, kk, rng, count=count, min_gap=min_gap)
        ref = _serial_boundary_samples(n, j, kk, ref_rng, count=count, min_gap=min_gap)
        assert len(got) == count
        assert np.array_equal(np.array(got), np.array(ref))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_block_drawn_samples_give_up_like_the_serial_loop():
    # box 0.52 leaves just room for five coordinates 0.2 apart: 2 of 4000 fit
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(ValueError) as got:
        boundary_samples(6, 2, 5, rng, count=4, box=0.52, min_gap=0.2)
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
        "from pointbethe.wavefunction import boundary_samples\n"
        "try:\n"
        "    boundary_samples(6, 1, 2, np.random.default_rng(0), count=5, box=0.3)\n"
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


def test_boundary_residual_input_checks():
    state = toy_state()
    with pytest.raises(ValueError):
        boundary_residual(state, 2, 1, [])
    with pytest.raises(ValueError):
        boundary_residual(state, 1, 2, [np.array([0.1, 0.2, 0.3])])
    with pytest.raises(ValueError, match="finite"):
        boundary_residual(state, 1, 2, [np.array([np.nan, np.nan, 0.3])])
    with pytest.raises(OnBoundary):
        boundary_residual(state, 1, 2, [np.array([0.1, 0.1, 0.1])])


@pytest.mark.parametrize("j, kk", [(0, 2), (2, 2), (3, 1), (1, 4)])
def test_boundary_samples_refuse_a_pair_off_the_planes(j, kk):
    # (0, 2) wrapped x_0 round to x_3, (2, 2) gave points on no plane and
    # (1, 4) raised a bare IndexError
    with pytest.raises(ValueError, match=r"need 1 <= j < k <= N"):
        boundary_samples(3, j, kk, np.random.default_rng(0))


def test_boundary_residual_refuses_an_empty_sample_list():
    # a maximum over no samples would report the contact conditions as met
    with pytest.raises(ValueError, match="at least one sample"):
        boundary_residual(toy_state(), 1, 2, [])


def test_determinant_single_particle():
    k = np.array([0.8])
    assert determinant_eigenfunction(k, 1.0, np.array([0.3])) == pytest.approx(np.exp(0.8j * 0.3))


def test_determinant_wrong_wedge():
    with pytest.raises(WrongWedge):
        determinant_eigenfunction(np.array([1.0, 2.0]), 1.0, np.array([1.0, 0.5]))


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


@pytest.mark.parametrize("c", [0.0, 2.0])
def test_determinant_two_particles_vs_symbolic_differentiation(c):
    k = [1.0, -1.0]
    x = [0.0, 1.0]
    want = _sympy_determinant_oracle(k, c, x)
    got = determinant_eigenfunction(np.array(k, float), c, np.array(x, float))
    assert got == pytest.approx(want, abs=1e-12)


def test_determinant_three_particles_vs_symbolic_differentiation():
    k = [1.3, 0.2, -0.9]
    x = [-0.7, 0.1, 1.2]
    want = _sympy_determinant_oracle(k, 1.5, x)
    got = determinant_eigenfunction(np.array(k, float), 1.5, np.array(x, float))
    assert got == pytest.approx(want, rel=1e-10)


def test_extend_by_statistics_symmetry():
    k = K3
    c = 1.7
    psi = lambda y: determinant_eigenfunction(k, c, y)
    x = np.array([0.9, -1.2, 0.3])
    swapped = x[[1, 0, 2]]
    b_val = extend_by_statistics(psi, "boson", x)
    assert extend_by_statistics(psi, "boson", swapped) == pytest.approx(b_val)
    f_val = extend_by_statistics(psi, "fermion", x)
    assert extend_by_statistics(psi, "fermion", swapped) == pytest.approx(-f_val)
    assert extend_by_statistics(psi, "fermion", np.array([0.4, 0.4, 1.0])) == 0.0
    with pytest.raises(ValueError):
        extend_by_statistics(psi, "anyon", x)


def test_determinant_state_needs_nonzero_c():
    with pytest.raises(ValueError, match="c = 0"):
        determinant_bethe_state(K3, 0.0, "boson")


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


def test_determinant_state_matches_pointwise_extension():
    c = 1.7
    state = determinant_bethe_state(K3, c, "fermion")
    psi = lambda y: determinant_eigenfunction(K3, c, y)
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.uniform(-2, 2, 3)
        assert evaluate(state, x) == pytest.approx(extend_by_statistics(psi, "fermion", x))


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
        res = schrodinger_fd_residual(state, x, h=h)
        # fourth-derivative bound on the central-difference truncation error
        assert res <= 10 * state.n * h**2 * k_max**4 * scale


def test_schrodinger_residual_refuses_a_stencil_across_a_boundary():
    # at a 3e-5 gap the h = 1e-4 stencil straddles x1 = x2 and returned ~1e8
    a = np.zeros(6, complex)
    a[0] = 1.0
    state = bethe_state(FAMILY1, K3, a)
    assert schrodinger_fd_residual(state, np.array([0.3, 0.301, -1.0])) <= 1e-6
    with pytest.raises(OnBoundary):
        schrodinger_fd_residual(state, np.array([0.3, 0.3 + 3e-5, -1.0]))


@pytest.mark.parametrize("h", [0.0, -1e-4, np.nan, np.inf])
def test_schrodinger_residual_refuses_a_bad_step(h):
    # h = 0 returned nan; h = nan was blamed on the point's coordinates
    with pytest.raises(ValueError, match=r"finite-difference step h="):
        schrodinger_fd_residual(toy_state(), np.array([0.3, 1.1, -1.0]), h=h)
