"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to see them on a green run; on failure the captured line shows up in the
pytest report anyway).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from pointbethe import CouplingParameters, _kernels
from pointbethe.bethe import bethe_state, coefficients_bc_oracle
from pointbethe.factorization import (FAIL_FLOOR, PASS_TOL, GridSpec,
                                      block_reduction_check,
                                      check_factorization_panel,
                                      scan_couplings, yang_baxter_matrix_check)
from pointbethe.permutations import symmetric_group
from pointbethe.scattering import amplitudes, amplitudes_bvp_oracle
from pointbethe.wavefunction import (boundary_residual, boundary_samples,
                                     determinant_bethe_state,
                                     determinant_coefficients,
                                     gauge_transformed_state)
from reference import (regular_rep, schrodinger_fd_residual_one_point,
                       transposition, yang_matrix)

FAMILY1 = CouplingParameters(2.0, 0.0, 0.0, 1.5)
FAMILY2 = CouplingParameters(2.0, 0.5)

MOMENTA = {2: np.array([1.4, -0.2]),
           3: np.array([1.4, -0.2, 0.7]),
           4: np.array([1.9, 0.8, -0.3, -1.5]),
           5: np.array([2.1, 1.2, 0.3, -0.8, -1.7])}


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {description}", flush=True)
        raise
    print(f"criterion {num:2d}: PASS - {description}", flush=True)


def _random_state(params, n, seed):
    rng = np.random.default_rng(seed)
    f = math.factorial(n)
    a = rng.normal(size=f) + 1j * rng.normal(size=f)
    return bethe_state(params, MOMENTA[n], a)


def test_criterion_01_amplitude_oracle_equivalence():
    with criterion(1, "closed-form amplitudes == boundary-value oracle, rel 1e-10, 1000 draws, <5s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        checked = 0
        while checked < 1000:
            params = CouplingParameters(*rng.uniform(-3, 3, 4))
            u = rng.uniform(-5, 5)
            if abs(u) < 0.05:
                continue
            closed = amplitudes(params, u)
            oracle = amplitudes_bvp_oracle(params, u)
            for attr in ("s_t_plus", "s_r_plus", "s_t_minus", "s_r_minus"):
                a, b = getattr(closed, attr), getattr(oracle, attr)
                assert abs(a - b) / max(1.0, abs(a)) <= 1e-10
            checked += 1
        assert time.perf_counter() - start < 5.0


def test_criterion_02_universal_identities():
    with criterion(2, "first four factorization identities hold for all couplings, 1e-10"):
        rng = np.random.default_rng(102)
        panel = _kernels.sample_panel(102, 40)
        for _ in range(500):
            params = CouplingParameters(*rng.uniform(-3, 3, 4))
            res = check_factorization_panel(params, panel).residuals
            assert res[:4].max() <= 1e-10


def test_criterion_03_coupling_classification_rediscovered():
    with criterion(3, "5^4 grid scan classifies both families exactly, pass 1e-8 / fail 1e-3, <30s"):
        start = time.perf_counter()
        grid = GridSpec(c_values=(-2.0, -1.0, 0.5, 1.0, 2.0),
                        lam_values=(-0.5, 0.0, 0.5, 1.0, 2.0),
                        gamma_values=(-1.0, -0.5, 0.0, 0.5, 1.0),
                        eta_values=(-1.0, -0.5, 0.0, 0.5, 1.0),
                        seed=103)
        rows = scan_couplings(grid)
        assert len(rows) == 625
        n_pass = 0
        for row in rows:
            if row.family is not None:
                assert row.max_residual <= PASS_TOL, row
                n_pass += 1
            else:
                assert row.max_residual >= FAIL_FLOOR, row
        # 25 family1 points (lam = gamma = 0) and 4 family2 points (c*lam = 1)
        assert n_pass == 29
        assert time.perf_counter() - start < 30.0


def test_criterion_04_explicit_three_particle_fixtures():
    with criterion(4, "6x6 transposition matrices and amplitude diagonal patterns are exact"):
        t1_expected = np.array([[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                                [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0],
                                [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]])
        t2_expected = np.array([[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0],
                                [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1],
                                [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
        assert (regular_rep(transposition(3, 1)) == t1_expected).all()
        assert (regular_rep(transposition(3, 2)) == t2_expected).all()

        params, u = CouplingParameters(1.3, -0.4, 0.8, -0.2), 0.9
        amp = amplitudes(params, u)
        p, m = amp.s_r_plus, amp.s_r_minus
        tp, tm = amp.s_t_plus, amp.s_t_minus
        y1 = yang_matrix(params, 3, 1, u)
        y2 = yang_matrix(params, 3, 2, u)
        tmaps = symmetric_group(3).tmaps
        assert (np.diag(y1) == np.array([p, m, p, m, p, m])).all()
        assert (np.diag(y2) == np.array([p, p, m, p, m, m])).all()
        assert (y1[np.arange(6), tmaps[0]] == np.array([tm, tp, tm, tp, tm, tp])).all()
        assert (y2[np.arange(6), tmaps[1]] == np.array([tm, tm, tp, tm, tp, tp])).all()


def test_criterion_05_yang_baxter_matrix_relations():
    with criterion(5, "matrix relations <=1e-10 for both families N in {3,4,5,6}; >=1e-3 off-family, <2min"):
        start = time.perf_counter()
        panel = _kernels.sample_panel(105, 100)
        for params in (FAMILY1, FAMILY2):
            for n in (3, 4, 5, 6):
                report = yang_baxter_matrix_check(params, n, panel)
                assert report.max_residual <= 1e-10, (params, n, report)
        rng = np.random.default_rng(105)
        found = 0
        while found < 20:
            params = CouplingParameters(*rng.uniform(-3, 3, 4))
            if abs(params.lam) < 0.05 and abs(params.gamma) < 0.05:
                continue
            if (abs(params.gamma) < 0.05 and abs(params.eta) < 0.05
                    and abs(params.c * params.lam - 1) < 0.05):
                continue
            report = yang_baxter_matrix_check(params, 3, panel[:20])
            assert report.max_residual >= 1e-3, params
            found += 1
        assert time.perf_counter() - start < 120.0


def test_criterion_06_block_reduction():
    with criterion(6, "6x6 blocks of Y_i at N in {4,5,6} equal the N=3 matrices to 1e-12"):
        for params in (FAMILY1, FAMILY2):
            for n in (4, 5, 6):
                for i in range(1, n - 1):
                    dev = block_reduction_check(n, i)
                    assert dev <= 1e-12, (params, n, i, dev)


def test_criterion_07_propagation_vs_brute_force():
    with criterion(7, "propagated tables match the stacked boundary system to 1e-9"):
        for n, params in ((2, CouplingParameters(1.5, 0.7, 0.2, -0.4)),
                          (2, FAMILY1), (3, FAMILY1)):
            state = _random_state(params, n, seed=700 + n)
            oracle = coefficients_bc_oracle(params, MOMENTA[n], state.table[0])
            assert oracle.residual <= 1e-9, (n, params)
            assert np.abs(oracle.table - state.table).max() <= 1e-9, (n, params)
        # family2 transmission vanishes, and the identity-wedge column would
        # pin only a rank-one slice of the N!-dimensional solution space;
        # row I pins all of it, so the table is recovered entrywise here too
        for n in (2, 3):
            state = _random_state(FAMILY2, n, seed=703 + n)
            oracle = coefficients_bc_oracle(FAMILY2, MOMENTA[n], state.table[0])
            assert oracle.residual <= 1e-9
            assert oracle.nullity == math.factorial(n)
            assert np.abs(oracle.table - state.table).max() <= 1e-9, (n, FAMILY2)
        rng = np.random.default_rng(707)
        pinned = rng.normal(size=6) + 1j * rng.normal(size=6)
        bad = coefficients_bc_oracle(CouplingParameters(1.0, 0.3, 0.2, 0.1),
                                     MOMENTA[3], pinned)
        assert bad.residual >= 1e-3


def test_criterion_08_eigenfunction_boundary_residuals():
    with criterion(8, "contact conditions <=1e-9 at 50 boundary samples; free equation O(h^2)"):
        rng = np.random.default_rng(108)
        for params in (FAMILY1, FAMILY2):
            for n in (2, 3):
                state = _random_state(params, n, seed=800 + n)
                for j in range(1, n + 1):
                    for kk in range(j + 1, n + 1):
                        samples = boundary_samples(n, j, kk, rng, count=50)
                        r1, r2 = boundary_residual(state, j, kk, samples)
                        assert max(r1, r2) <= 1e-9, (params, n, j, kk, r1, r2)
                h = 1e-4
                bound = 10 * n * h**2 * np.abs(state.k).max() ** 4 * np.abs(state.table).sum()
                for _ in range(5):
                    x = rng.uniform(-2.5, 2.5, n)
                    if min(abs(np.subtract.outer(x, x))[~np.eye(n, dtype=bool)]) < 0.05:
                        continue
                    assert schrodinger_fd_residual_one_point(state, x, h) <= bound


def test_criterion_09_determinant_eigenfunction():
    with criterion(9, "determinant expansion == propagated coefficients; extensions satisfy contacts"):
        c = 1.7
        for n in (2, 3):
            k = MOMENTA[n]
            params = CouplingParameters(c, 1.0 / c)
            tables = symmetric_group(n)
            for statistics, profile in (("boson", np.ones(tables.order)),
                                        ("fermion", tables.signs.astype(float))):
                state = bethe_state(params, k, profile.astype(complex))
                coeff = determinant_coefficients(k, c)
                ratio = state.table[:, 0] / coeff
                assert np.abs(ratio - ratio[0]).max() <= 1e-10 * max(1.0, abs(ratio[0]))

                det_state = determinant_bethe_state(k, c, statistics)
                rng = np.random.default_rng(900 + n)
                for j in range(1, n + 1):
                    for kk in range(j + 1, n + 1):
                        samples = boundary_samples(n, j, kk, rng, count=50)
                        r1, r2 = boundary_residual(det_state, j, kk, samples)
                        assert max(r1, r2) <= 1e-9, (n, statistics, j, kk)


def test_criterion_10_gauge_equivalence():
    with criterion(10, "step-phase map lands on the delta gas with c/(1+eta^2), residual 1e-9"):
        rng = np.random.default_rng(110)
        for c, eta in ((2.0, 1.0), (1.0, 0.5)):
            for n in (2, 3):
                state = _random_state(CouplingParameters(c, 0.0, 0.0, eta), n,
                                      seed=1000 + n)
                mapped = gauge_transformed_state(state)
                assert abs(mapped.params.c - c / (1 + eta**2)) <= 1e-14
                for j in range(1, n + 1):
                    for kk in range(j + 1, n + 1):
                        samples = boundary_samples(n, j, kk, rng, count=25)
                        r1, r2 = boundary_residual(mapped, j, kk, samples)
                        assert max(r1, r2) <= 1e-9, (c, eta, n, j, kk)


def test_criterion_11_yang_limit():
    with criterion(11, "Y_i(u) == (iu T_i + c)/(iu - c) entrywise to 1e-12 at N in {3,4}"):
        c = 1.7
        params = CouplingParameters(c)
        for n in (3, 4):
            eye = np.eye(math.factorial(n))
            for i in range(1, n):
                t_hat = regular_rep(transposition(n, i))
                for u in (0.9, -2.3, 4.1):
                    y = yang_matrix(params, n, i, u)
                    ref = (1j * u * t_hat + c * eye) / (1j * u - c)
                    assert np.abs(y - ref).max() <= 1e-12
