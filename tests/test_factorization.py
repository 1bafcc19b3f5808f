import numpy as np
import pytest

from pointbethe._kernels import sample_panel, yang_apply
from pointbethe.bethe import build_yang_matrix, yang_parts
from pointbethe.couplings import CouplingParameters
from pointbethe.errors import PoleAtU
from pointbethe.factorization import (FAIL_FLOOR, PASS_TOL, GridSpec,
                                      IntegrabilityTag, block_reduction_check,
                                      check_factorization,
                                      check_factorization_panel, classify,
                                      scan_couplings, scan_to_csv,
                                      yang_baxter_matrix_check)
from pointbethe.permutations import symmetric_group

FAMILY1 = CouplingParameters(2.0, 0.0, 0.0, 1.5)
FAMILY2 = CouplingParameters(2.0, 0.5)
NONINTEGRABLE = CouplingParameters(1.0, 0.3, 0.2, 0.1)

# these identity rows hold for every coupling choice; the others only on
# the two integrable families
UNIVERSAL_ROWS = (0, 1, 2, 3, 5, 6)


def test_free_case_all_zero():
    report = check_factorization(CouplingParameters(0.0), 0.9, 1.7)
    assert report.residuals.shape == (13,)
    assert report.max_residual <= 1e-14


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2])
def test_families_satisfy_all_identities(params):
    report = check_factorization_panel(params, sample_panel(3, 50))
    assert report.max_residual <= 1e-10


def test_noninteg_universal_rows_only():
    report = check_factorization_panel(NONINTEGRABLE, sample_panel(4, 50))
    res = report.residuals
    assert max(res[r] for r in UNIVERSAL_ROWS) <= 1e-10
    rest = [res[r] for r in range(13) if r not in UNIVERSAL_ROWS]
    assert max(rest) >= 1e-3
    # in particular the first four (the two-body consistency set) always hold
    assert res[:4].max() <= 1e-10


def test_universal_rows_for_random_couplings():
    rng = np.random.default_rng(12)
    panel = sample_panel(12, 20)
    for _ in range(50):
        params = CouplingParameters(*rng.uniform(-3, 3, 4))
        res = check_factorization_panel(params, panel).residuals
        assert max(res[r] for r in UNIVERSAL_ROWS) <= 1e-10


def test_reduced_condition_residuals():
    report = check_factorization(CouplingParameters(2.0, 0.5, 0.3, 0.7), 1.0, 2.0)
    c, lam, gamma, eta = 2.0, 0.5, 0.3, 0.7
    expected = (abs(gamma), abs(lam * (c * lam + eta**2 - 1)), abs(lam * eta))
    assert report.reduced_condition_residuals == pytest.approx(expected)
    for params in (FAMILY1, FAMILY2):
        r = check_factorization(params, 1.0, 2.0).reduced_condition_residuals
        assert max(r) == 0.0


def test_pole_band_raises():
    with pytest.raises(PoleAtU):
        check_factorization(CouplingParameters(0.0), 1e-15, 1.0)


def test_classify_examples():
    assert classify(CouplingParameters(2.0, 0.0, 0.0, 1.5)).tag is IntegrabilityTag.FAMILY1
    assert classify(CouplingParameters(2.0, 0.5)).tag is IntegrabilityTag.FAMILY2
    assert classify(CouplingParameters(1.0, 1.0, 1.0, 0.0)).tag is IntegrabilityTag.NOT_INTEGRABLE
    assert classify(FAMILY1, tol=1e-6).tolerance == 1e-6


def test_classify_agrees_with_residual_thresholds_regardless_of_panel():
    rng = np.random.default_rng(13)
    cases = [FAMILY1, FAMILY2, NONINTEGRABLE,
             CouplingParameters(-1.2, 0.0, 0.0, -0.4),
             CouplingParameters(0.5, 2.0)]
    cases += [CouplingParameters(*rng.uniform(-2, 2, 4)) for _ in range(10)]
    for seed in (0, 99):
        panel = sample_panel(seed, 60)
        for params in cases:
            res = check_factorization_panel(params, panel).max_residual
            if classify(params).tag is IntegrabilityTag.NOT_INTEGRABLE:
                assert res >= FAIL_FLOOR
            else:
                assert res <= PASS_TOL


def test_scan_lambda_sweep():
    grid = GridSpec(c_values=(1.0,), lam_values=(0.0, 0.25, 0.5, 0.75, 1.0),
                    gamma_values=(0.0,), eta_values=(0.0,))
    rows = scan_couplings(grid)
    passed = [r.params.lam for r in rows if r.max_residual <= PASS_TOL]
    assert passed == [0.0, 1.0]
    assert all(r.consistent for r in rows)


def test_scan_gamma_only_grid_has_empty_pass_set():
    grid = GridSpec(c_values=(1.0, 2.0), lam_values=(0.0, 0.5),
                    gamma_values=(0.5,), eta_values=(0.0, 1.0))
    rows = scan_couplings(grid)
    assert all(r.max_residual > PASS_TOL for r in rows)


def test_scan_lambda_eta_cross_term_fails():
    grid = GridSpec(c_values=(2.0,), lam_values=(0.5,), gamma_values=(0.0,),
                    eta_values=(0.5,))
    rows = scan_couplings(grid)
    assert rows[0].max_residual >= FAIL_FLOOR


def test_scan_csv_format():
    grid = GridSpec(c_values=(1.0,), lam_values=(0.0, 1.0), gamma_values=(0.0,),
                    eta_values=(0.0,))
    csv = scan_to_csv(scan_couplings(grid))
    lines = csv.strip().split("\n")
    assert lines[0] == "c,lambda,gamma,eta,class,max_residual"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:4] == ["1", "0", "0", "0"]
    assert first[4] == "family1"
    float(first[5])  # parses


def test_scan_deterministic_for_fixed_seed():
    grid = GridSpec(c_values=(1.0, -0.5), lam_values=(0.0, 0.7),
                    gamma_values=(0.0, 0.2), eta_values=(1.0,), seed=21)
    assert scan_to_csv(scan_couplings(grid)) == scan_to_csv(scan_couplings(grid))


@pytest.mark.parametrize("params,n", [(FAMILY1, 3), (FAMILY2, 4)])
def test_yang_baxter_matrix_families(params, n):
    report = yang_baxter_matrix_check(params, n, sample_panel(5, 20))
    assert report.max_residual <= 1e-10


def test_yang_baxter_matrix_upper_size_limit():
    report = yang_baxter_matrix_check(FAMILY1, 6, sample_panel(7, 2))
    assert report.max_residual <= 1e-10
    with pytest.raises(ValueError):
        yang_baxter_matrix_check(FAMILY1, 7, sample_panel(7, 2))


def test_yang_baxter_matrix_noninteg():
    report = yang_baxter_matrix_check(NONINTEGRABLE, 3, sample_panel(6, 20))
    assert report.braid >= 1e-3
    assert report.unitarity <= 1e-10  # universal rows keep the inverses exact


def test_matrix_relations_equivalent_to_identities_at_three_particles():
    rng = np.random.default_rng(17)
    panel = sample_panel(17, 30)
    for _ in range(12):
        params = CouplingParameters(*rng.uniform(-2, 2, 4))
        identities_pass = check_factorization_panel(params, panel).max_residual <= PASS_TOL
        matrices_pass = yang_baxter_matrix_check(params, 3, panel[:10]).max_residual <= PASS_TOL
        assert identities_pass == matrices_pass


@pytest.mark.parametrize("params,n,i", [(FAMILY1, 4, 1), (FAMILY2, 4, 2), (FAMILY1, 5, 2)])
def test_block_reduction(params, n, i, subtests=None):
    assert block_reduction_check(params, n, i, 0.9, 1.7) <= 1e-12


def dense_yang_baxter(params, n, samples):
    """Reference: every product applied to the dense N! x N! identity."""
    eye = np.eye(symmetric_group(n).order)

    def y(i, w):
        return yang_parts(params, n, i, w)

    def dense(parts):
        return yang_apply(parts, eye.astype(np.complex128))

    unitarity = braid = commute = 0.0
    for u, v in samples:
        for i in range(1, n):
            prod = yang_apply(y(i, -u), dense(y(i, u)))
            unitarity = max(unitarity, float(np.abs(prod - eye).max()))
        for i in range(1, n - 1):
            lhs = yang_apply(y(i, v), yang_apply(y(i + 1, u + v), dense(y(i, u))))
            rhs = yang_apply(y(i + 1, u), yang_apply(y(i, u + v), dense(y(i + 1, v))))
            braid = max(braid, float(np.abs(lhs - rhs).max()))
        for i in range(1, n):
            for j in range(i + 2, n):
                a, b = y(i, u), y(j, v)
                commute = max(commute, float(np.abs(yang_apply(a, dense(b))
                                                    - yang_apply(b, dense(a))).max()))
    return unitarity, braid, commute


def dense_block_reduction(params, n, i, u, v):
    """Reference: dense Y_i, Y_{i+1} sliced orbit by orbit in chain order."""
    tables = symmetric_group(n)
    tmap_i, tmap_i1 = tables.tmaps[i - 1], tables.tmaps[i]
    y_i = build_yang_matrix(params, n, i, u).matrix
    y_i1 = build_yang_matrix(params, n, i + 1, v).matrix
    ref_1 = build_yang_matrix(params, 3, 1, u).matrix
    ref_2 = build_yang_matrix(params, 3, 2, v).matrix
    deviation = 0.0
    seen = np.zeros(tables.order, dtype=bool)
    for q in range(tables.order):
        if seen[q]:
            continue
        orbit = {q, tmap_i[q], tmap_i1[q], tmap_i[tmap_i1[q]],
                 tmap_i1[tmap_i[q]], tmap_i[tmap_i1[tmap_i[q]]]}
        seen[list(orbit)] = True
        qp = min(orbit)  # smallest rank index == largest permutation
        sel = np.array([qp, tmap_i[qp], tmap_i1[qp], tmap_i[tmap_i1[qp]],
                        tmap_i1[tmap_i[qp]], tmap_i[tmap_i1[tmap_i[qp]]]])
        deviation = max(deviation, float(np.abs(y_i[np.ix_(sel, sel)] - ref_1).max()))
        deviation = max(deviation, float(np.abs(y_i1[np.ix_(sel, sel)] - ref_2).max()))
    return deviation


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_packed_relations_equal_dense_reference(params, n):
    panel = sample_panel(31, 8)
    report = yang_baxter_matrix_check(params, n, panel)
    unitarity, braid, commute = dense_yang_baxter(params, n, panel)
    assert report.unitarity == unitarity
    assert report.braid == braid
    assert report.commute == commute
    if params is NONINTEGRABLE and n >= 4:
        assert report.braid >= 1e-3


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [4, 5])
def test_orbit_packed_block_reduction_equals_dense_reference(params, n):
    for i in range(1, n - 1):
        for u, v in sample_panel(32, 3):
            assert block_reduction_check(params, n, i, u, v) == \
                dense_block_reduction(params, n, i, u, v)


def test_block_reduction_guards():
    with pytest.raises(ValueError):
        block_reduction_check(FAMILY1, 3, 1, 0.9, 1.7)
    with pytest.raises(ValueError):
        block_reduction_check(FAMILY1, 4, 3, 0.9, 1.7)


def test_sample_panel_reproducible_and_away_from_poles():
    p1 = sample_panel(9, 100)
    p2 = sample_panel(9, 100)
    assert np.array_equal(p1, p2)
    assert np.abs(p1).max() <= 5.0
    assert np.abs(p1).min() >= 0.25
    assert np.abs(p1[:, 0] + p1[:, 1]).min() >= 0.25


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_refused(bad):
    # np.abs(nan).max() compared inside max() would report a residual of 0.0
    params = CouplingParameters(2.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"sample 1 \(0-based\) \(u, v\) = \(0.3, "):
        yang_baxter_matrix_check(params, 3, [(0.5, 0.2), (0.3, bad)])
    with pytest.raises(ValueError, match=r"sample 0 \(0-based\) \(u, v\) = \((nan|-?inf), 0.2\)"):
        yang_baxter_matrix_check(params, 3, [(bad, 0.2)])
    with pytest.raises(ValueError, match=r"sample \(u, v\) = \((nan|-?inf), 0.2\) is not finite"):
        block_reduction_check(params, 4, 1, bad, 0.2)
