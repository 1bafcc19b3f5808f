"""Numpy kernels: pole marking, pair-table layout, plane waves, the table
fill and bounded sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbethe import _kernels
from pointbethe.couplings import CouplingParameters
from pointbethe.permutations import symmetric_group


def test_panel_marks_poles_with_inf():
    grid = np.array([[0.0, 0.0, 0.0, 0.0]])
    res = _kernels.factorization_panel(grid, np.array([1e-15]), np.array([1.0]))
    assert np.isinf(res).all()


@pytest.mark.parametrize("panel_size", [1, 100, _kernels.PANEL_BLOCK_ENTRIES + 3])
def test_blocked_panel_matches_row_by_row_calls(panel_size):
    # more rows than one block holds, with c = 0 rows (a pole at u -> 0) in
    # the middle; the blocks must not leak the inf into their other rows
    rng = np.random.default_rng(panel_size)
    rows = max(101, _kernels.PANEL_BLOCK_ENTRIES // panel_size + 3)
    grid = rng.uniform(0.5, 1.5, (rows, 4))
    poles = [rows // 2, rows // 2 + 1]
    grid[poles] = 0.0
    panel = _kernels.sample_panel(7, panel_size)
    us = panel[:, 0].copy()
    us[-1] = 1e-15
    res = _kernels.factorization_panel(grid, us, panel[:, 1])
    single = np.vstack([_kernels.factorization_panel(row, us, panel[:, 1]) for row in grid])
    assert np.array_equal(res, single)
    assert np.isinf(res[poles]).all()
    assert np.isfinite(np.delete(res, poles, axis=0)).all()


def test_pair_amplitude_tables_layout():
    params = CouplingParameters(1.2, 0.0, 0.3, -0.4)
    k = np.array([0.9, -0.7, 1.6])
    srp, srm, stp, stm = _kernels.pair_amplitude_tables(params, k)
    from pointbethe.scattering import amplitudes
    amp = amplitudes(params, k[2] - k[0])
    assert srp[2, 0] == amp.s_r_plus
    assert srm[2, 0] == amp.s_r_minus
    assert stp[2, 0] == amp.s_t_plus
    assert stm[2, 0] == amp.s_t_minus
    assert srp[1, 1] == 0.0


def test_sample_panel_gives_up_on_an_empty_domain(run_python):
    # |u| <= box < min_sep rejects every draw
    proc = run_python(
        "from pointbethe._kernels import sample_panel\n"
        "try:\n"
        "    sample_panel(0, 10, box=0.2)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "box=0.2" in proc.stdout and "min_sep=0.25" in proc.stdout


def _direct_plane_waves(k, images, xq):
    # one exponential of the summed phase per wave
    return np.exp(1j * (k[images][np.newaxis] * xq[:, np.newaxis]).sum(axis=-1))


# the first symmetric_group(6) build can outlast hypothesis's per-example deadline
@settings(deadline=None)
@given(st.data())
def test_plane_waves_match_the_summed_phase(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 4))
    coords = st.floats(-5.0, 5.0)
    k = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    xq = np.array(data.draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                                     min_size=m, max_size=m)))
    images = symmetric_group(n).images
    waves = _kernels.plane_waves(k, images, xq)
    assert waves.shape == (m, math.factorial(n))
    assert np.abs(waves - _direct_plane_waves(k, images, xq)).max() <= 1e-12
    assert np.abs(np.abs(waves) - 1.0).max() <= 1e-14
    for row in range(m):
        assert np.array_equal(_kernels.plane_waves(k, images, xq[row:row + 1]), waves[row:row + 1])


def _row_by_row_table(a_identity, tables, srp, srm, stp, stm):
    # the fill with every step's parts built inside the loop
    out = np.empty((tables.order, tables.order), dtype=np.complex128)
    out[0] = a_identity
    for p in range(1, tables.order):
        s = tables.last_site[p]
        parent = tables.tmaps[s, p]
        ka, kb = tables.images[parent, s], tables.images[parent, s + 1]
        parts = _kernels.step_parts(tables, s, srp[ka, kb], srm[ka, kb], stp[ka, kb], stm[ka, kb])
        out[p] = _kernels.yang_apply(parts, out[parent])
    return out


@pytest.mark.parametrize("params", [CouplingParameters(2.0, 0.0, 0.0, 1.3),
                                    CouplingParameters(1.7, 1.0 / 1.7)],
                         ids=["family1", "family2"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "random"])
def test_prebuilt_step_parts_fill_equals_row_by_row_fill(params, n, unit):
    rng = np.random.default_rng(n)
    tables = symmetric_group(n)
    k = np.linspace(1.5, -1.5, n) + rng.uniform(-0.05, 0.05, n)
    a = np.zeros(tables.order, dtype=np.complex128)
    a[0] = 1.0
    if not unit:
        a = rng.normal(size=tables.order) + 1j * rng.normal(size=tables.order)
    amps = _kernels.pair_amplitude_tables(params, k)
    assert np.array_equal(_kernels.propagate_table(a, tables, *amps),
                          _row_by_row_table(a, tables, *amps))
