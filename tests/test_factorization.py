import dataclasses
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pointbethe import factorization
from pointbethe._kernels import sample_panel, step_parts, yang_apply
from pointbethe.couplings import CouplingParameters, integrable_family
from pointbethe.errors import PoleAtU
from pointbethe.factorization import (FAIL_FLOOR, PASS_TOL, GridSpec,
                                      block_reduction_check,
                                      check_factorization_panel,
                                      scan_couplings, scan_to_csv,
                                      yang_baxter_matrix_check)
from pointbethe.permutations import symmetric_group
from pointbethe.scattering import _closed_form
import reference
from reference import yang_baxter_per_sample, yang_matrix, yang_parts

FAMILY1 = CouplingParameters(2.0, 0.0, 0.0, 1.5)
FAMILY2 = CouplingParameters(2.0, 0.5)
NONINTEGRABLE = CouplingParameters(1.0, 0.3, 0.2, 0.1)

# these identity rows hold for every coupling choice; the others only on
# the two integrable families
UNIVERSAL_ROWS = (0, 1, 2, 3, 5, 6)


def test_free_case_all_zero():
    report = check_factorization_panel(CouplingParameters(0.0), [(0.9, 1.7)])
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


def test_pole_band_raises():
    # u = 0 at c = 0: every amplitude there is 0/0
    with pytest.raises(PoleAtU):
        check_factorization_panel(CouplingParameters(0.0), [(0.0, 1.0)])
    # eta = 1e200 overflows the closed form into NaN, which the panel reads as inf
    with pytest.raises(PoleAtU):
        check_factorization_panel(CouplingParameters(1, 0, 0, 1e200), [(0.9, 1.7)])


def test_integrable_family_agrees_with_residual_thresholds_regardless_of_panel():
    rng = np.random.default_rng(13)
    cases = [FAMILY1, FAMILY2, NONINTEGRABLE,
             CouplingParameters(-1.2, 0.0, 0.0, -0.4),
             CouplingParameters(0.5, 2.0)]
    cases += [CouplingParameters(*rng.uniform(-2, 2, 4)) for _ in range(10)]
    for seed in (0, 99):
        panel = sample_panel(seed, 60)
        for params in cases:
            res = check_factorization_panel(params, panel).max_residual
            if integrable_family(params) is None:
                assert res >= FAIL_FLOOR
            else:
                assert res <= PASS_TOL


def test_scan_lambda_sweep():
    grid = GridSpec(c_values=(1.0,), lam_values=(0.0, 0.25, 0.5, 0.75, 1.0),
                    gamma_values=(0.0,), eta_values=(0.0,))
    table = scan_couplings(grid)
    passed = table.couplings[table.max_residual <= PASS_TOL, 1]
    assert passed.tolist() == [0.0, 1.0]
    assert table.family.tolist() == ["family1"] + ["not_integrable"] * 3 + ["family2"]
    assert table.consistent.all()


def test_scan_gamma_only_grid_has_empty_pass_set():
    grid = GridSpec(c_values=(1.0, 2.0), lam_values=(0.0, 0.5),
                    gamma_values=(0.5,), eta_values=(0.0, 1.0))
    table = scan_couplings(grid)
    assert (table.max_residual > PASS_TOL).all()


def test_scan_lambda_eta_cross_term_fails():
    grid = GridSpec(c_values=(2.0,), lam_values=(0.5,), gamma_values=(0.0,),
                    eta_values=(0.5,))
    table = scan_couplings(grid)
    assert table.max_residual[0] >= FAIL_FLOOR


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


# the ids keep the names these cases had under the earlier messages
@pytest.mark.parametrize("field,value,message", [
    ("c_values", (), "grid axis c_values is empty"),
    ("lam_values", (), "grid axis lam_values is empty"),
    ("gamma_values", (), "grid axis gamma_values is empty"),
    ("eta_values", (), "grid axis eta_values is empty"),
    ("seed", -1, r"seed must be a whole number >= 0, got -1"),
], ids=["c_values-value0-grid axis c_values is empty",
        "lam_values-value1-grid axis lam_values is empty",
        "gamma_values-value2-grid axis gamma_values is empty",
        "eta_values-value3-grid axis eta_values is empty",
        "seed--1"])
def test_grid_refuses_an_empty_axis_or_panel(field, value, message):
    # seed -1 failed with numpy's "expected non-negative integer"
    axes = dict(c_values=(0.0,), lam_values=(0.0,), gamma_values=(0.0,), eta_values=(0.0,))
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridSpec(**{**axes, field: value})


@pytest.mark.parametrize("params,n", [(FAMILY1, 3), (FAMILY2, 4)])
def test_yang_baxter_matrix_families(params, n):
    report = yang_baxter_matrix_check(params, n, sample_panel(5, 20))
    assert report.max_residual <= 1e-10


def test_yang_baxter_matrix_upper_size_limit():
    report = yang_baxter_matrix_check(FAMILY1, 6, sample_panel(7, 2))
    assert report.max_residual <= 1e-10
    with pytest.raises(ValueError):
        yang_baxter_matrix_check(FAMILY1, 7, sample_panel(7, 2))


def test_yang_baxter_matrix_check_names_a_sample_whose_sum_leaves_the_float_range():
    samples = [[1.0, 2.0], [1e300, np.finfo(np.float64).max]]
    with pytest.raises(ValueError, match=r"^sample 1: u \+ v of \(u, v\) = "
                                         r"\(1e\+300, 1.7976931348623157e\+308\) is past the float range$"):
        yang_baxter_matrix_check(CouplingParameters(1.0), 3, samples)


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
    assert block_reduction_check(n, i) <= 1e-12


def dense_yang_baxter(params, n, samples):
    """Reference: every product applied to the dense N! x N! Y matrices."""
    eye = np.eye(symmetric_group(n).order)

    def y(i, w):
        return yang_parts(params, n, i, w)

    def dense(i, w):
        return yang_matrix(params, n, i, w)

    unitarity = braid = commute = 0.0
    for u, v in samples:
        for i in range(1, n):
            prod = yang_apply(y(i, -u), dense(i, u))
            unitarity = max(unitarity, float(np.abs(prod - eye).max()))
        for i in range(1, n - 1):
            lhs = yang_apply(y(i, v), yang_apply(y(i + 1, u + v), dense(i, u)))
            rhs = yang_apply(y(i + 1, u), yang_apply(y(i, u + v), dense(i + 1, v)))
            braid = max(braid, float(np.abs(lhs - rhs).max()))
        for i in range(1, n):
            for j in range(i + 2, n):
                commute = max(commute, float(np.abs(yang_apply(y(i, u), dense(j, v))
                                                    - yang_apply(y(j, v), dense(i, u))).max()))
    return unitarity, braid, commute


def dense_block_reduction(params, n, i, u, v):
    """Reference: dense Y_i, Y_{i+1} sliced orbit by orbit in chain order."""
    tables = symmetric_group(n)
    tmap_i, tmap_i1 = tables.tmaps[i - 1], tables.tmaps[i]
    y_i = yang_matrix(params, n, i, u)
    y_i1 = yang_matrix(params, n, i + 1, v)
    ref_1 = yang_matrix(params, 3, 1, u)
    ref_2 = yang_matrix(params, 3, 2, v)
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


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, CouplingParameters(2.0, gamma=0.3)],
                         ids=["family1", "family2", "gamma0.3"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_relations_equal_the_per_sample_loop(params, n):
    panel = sample_panel(40 + n, 25)
    report = yang_baxter_matrix_check(params, n, panel)
    assert (report.unitarity, report.braid, report.commute) == \
        yang_baxter_per_sample(params, n, panel)
    if params.gamma and n >= 3:
        assert report.braid >= 1e-3


@settings(deadline=None, max_examples=30)
@given(couplings=st.tuples(*[st.floats(-3.0, 3.0)] * 4), n=st.integers(2, 5),
       samples=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                        min_size=1, max_size=6))
def test_panel_maxima_are_the_max_of_single_sample_checks(couplings, n, samples):
    params = CouplingParameters(*couplings)
    try:
        singles = [yang_baxter_matrix_check(params, n, [sample]) for sample in samples]
    except PoleAtU:
        reject()
    report = yang_baxter_matrix_check(params, n, samples)
    for name in ("unitarity", "braid", "commute"):
        assert getattr(report, name) == max(getattr(single, name) for single in singles)


def test_amplitudes_are_evaluated_only_where_a_relation_runs():
    # N = 2 runs unitarity alone, at u and -u; v = 0 is a pole for c = 0
    report = yang_baxter_matrix_check(CouplingParameters(c=0.0), 2, [(1.0, 0.0)])
    assert (report.unitarity, report.braid, report.commute) == (0.0, 0.0, 0.0)
    with pytest.raises(PoleAtU, match="at u=0.0"):
        yang_baxter_matrix_check(CouplingParameters(c=0.0), 3, [(1.0, 0.0)])


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [4, 5])
def test_orbit_packed_block_reduction_equals_dense_reference(params, n):
    for i in range(1, n - 1):
        for u, v in sample_panel(32, 3):
            assert block_reduction_check(n, i) == dense_block_reduction(params, n, i, u, v)


def _swap_step_targets(tables):
    # at 0-based site 2 of N = 5, rows 3 and 9 share their patterns at
    # positions 1..3 and 2..4, so the swap keeps the unitarity and braid
    # labels and ascent flags; only the steps leaving their orbits show it
    tmaps = tables.tmaps.copy()
    tmaps[2, [3, 9]] = tmaps[2, [9, 3]]
    return dataclasses.replace(tables, tmaps=tmaps)


def _flip_ascent(tables):
    asc = tables.asc.copy()
    asc[2, 3] = ~asc[2, 3]
    return dataclasses.replace(tables, asc=asc)


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2])
@pytest.mark.parametrize("corrupt", [_swap_step_targets, _flip_ascent])
def test_orbit_structure_check_catches_corrupted_tables(monkeypatch, params, corrupt):
    real = symmetric_group
    bad = corrupt(real(5))
    for module in (factorization, reference):
        monkeypatch.setattr(module, "symmetric_group", lambda n: bad if n == 5 else real(n))
    panel = sample_panel(5, 4)
    report = yang_baxter_matrix_check(params, 5, panel)
    # site 3 (0-based 2) enters every relation
    assert report.unitarity == report.braid == report.commute == math.inf
    # the blocks at i = 2, 3 cover positions 2, 3; the one at i = 1 does not
    assert [block_reduction_check(5, i) for i in (1, 2, 3)] == \
        [0.0, math.inf, math.inf]
    if params is FAMILY1:
        # the dense products see both faults; in family 2, where the plus and
        # minus amplitudes coincide, they see neither
        assert min(dense_yang_baxter(params, 5, panel)) >= 0.1


def _exact_relations(params):
    """Unitarity on S_2 and braid on S_3 from the code's own Y step on
    object arrays of sympy amplitudes: the entries of products minus products,
    each cancelled to a canonical rational function of the symbols."""
    u, v = sympy.symbols("u v", real=True)

    def columns(w):  # S_T^+, S_R^+, S_T^-, S_R^-, exact: 1j and 1.0 as I and 1
        *nums, den = (sympy.nsimplify(x) for x in _closed_form(*params, w))
        return [num / den for num in nums]

    def product(m, *steps):
        group = symmetric_group(m)
        out = np.eye(group.order, dtype=int).astype(object)
        for i, w in steps:
            out = yang_apply(step_parts(group, i - 1, columns(w)), out)
        return out

    unitarity = product(2, (1, u), (1, -u)) - product(2)
    braid = (product(3, (1, u), (2, u + v), (1, v))
             - product(3, (2, v), (1, u + v), (2, u)))
    return [[sympy.cancel(entry) for entry in relation.ravel()] for relation in (unitarity, braid)]


def test_yang_baxter_relations_hold_exactly_on_both_families():
    # with the exact orbit check, this proves the N!-dimensional relations
    # at every N, not only on a sampled panel
    c, eta = sympy.symbols("c eta", real=True)
    for params in ((c, 0, 0, eta), (c, 1 / c, 0, 0)):
        unitarity, braid = _exact_relations(params)
        assert len(unitarity) == 4 and len(braid) == 36
        assert unitarity == [0] * 4 and braid == [0] * 36, params


@pytest.mark.parametrize("params, nonzero", [((2, 0, sympy.Rational(3, 10), 0), 16),
                                             ((2, sympy.Rational(1, 2), 0, 1), 12)],
                         ids=["gamma", "lambda-eta"])
def test_exact_braid_relation_fails_off_both_families(params, nonzero):
    unitarity, braid = _exact_relations(params)
    assert unitarity == [0] * 4  # holds for every coupling
    assert sum(entry != 0 for entry in braid) == nonzero


def test_block_reduction_guards():
    with pytest.raises(ValueError):
        block_reduction_check(3, 1)
    with pytest.raises(ValueError):
        block_reduction_check(4, 3)
    # a site of 1.5 failed as an index with a bare IndexError
    with pytest.raises(ValueError, match=r"^site i must be a whole number in 1\.\.2, got 1\.5$"):
        block_reduction_check(4, 1.5)


def test_sample_panel_reproducible_and_away_from_poles():
    p1 = sample_panel(9, 100)
    p2 = sample_panel(9, 100)
    assert np.array_equal(p1, p2)
    assert np.abs(p1).max() <= 5.0
    assert np.abs(p1).min() >= 0.25
    assert np.abs(p1[:, 0] + p1[:, 1]).min() >= 0.25


def test_empty_sample_list_is_refused():
    # a maximum over no samples would pass a non-integrable coupling
    with pytest.raises(ValueError, match="at least one"):
        yang_baxter_matrix_check(CouplingParameters(1.0, 0.5, 0.3, 0.2), 4, [])
    with pytest.raises(ValueError, match="at least one"):
        check_factorization_panel(FAMILY2, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_refused(bad):
    # np.abs(nan).max() compared inside max() would report a residual of 0.0
    params = CouplingParameters(2.0, 0.0, 0.0, 1.0)
    rows = r"^samples must be finite, got non-finite rows at 0-based indices "
    with pytest.raises(ValueError, match=rows + r"\[1\]$"):
        yang_baxter_matrix_check(params, 3, [(0.5, 0.2), (0.3, bad)])
    with pytest.raises(ValueError, match=rows + r"\[0\]$"):
        yang_baxter_matrix_check(params, 3, [(bad, 0.2)])
    # the panel blamed nan on the couplings as a pole and met inf with a RuntimeWarning
    with pytest.raises(ValueError, match=rows + r"\[0\]$"):
        check_factorization_panel(CouplingParameters(2.0), [(bad, 1.0)])
    with pytest.raises(ValueError, match=rows + r"\[1\]$"):
        check_factorization_panel(CouplingParameters(2.0, 0.5), [(0.9, 1.7), (0.3, bad)])


# Y_i(-u) Y_i(u) = 1 follows from the universal identity rows alone
@pytest.mark.parametrize("n", [2, 3, 4])
@settings(deadline=None, max_examples=25)
@given(couplings=st.tuples(*[st.floats(-3.0, 3.0)] * 4), u=st.floats(-3.0, 3.0),
       data=st.data())
def test_unitarity_holds_for_every_coupling(n, couplings, u, data):
    params = CouplingParameters(*couplings)
    i = data.draw(st.integers(1, n - 1))
    try:
        forward, backward = yang_parts(params, n, i, u), yang_parts(params, n, i, -u)
    except PoleAtU:
        reject()
    eye = np.eye(math.factorial(n), dtype=np.complex128)
    prod = yang_apply(backward, yang_apply(forward, eye))
    scale = max(1.0, np.abs(forward[:2]).max() * np.abs(backward[:2]).max())
    assert np.abs(prod - eye).max() <= 1e-12 * scale
