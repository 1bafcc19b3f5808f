"""Numpy kernels: pole marking, pair-table layout and bounded sampling."""

import numpy as np
import pytest

from pointbethe import _kernels
from pointbethe.couplings import CouplingParameters


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
