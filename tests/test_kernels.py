"""Numpy kernels: pole marking, pair-table layout and bounded sampling."""

import numpy as np

from pointbethe import _kernels
from pointbethe.couplings import CouplingParameters


def test_panel_marks_poles_with_inf():
    grid = np.array([[0.0, 0.0, 0.0, 0.0]])
    res = _kernels.factorization_panel(grid, np.array([1e-15]), np.array([1.0]))
    assert np.isinf(res).all()


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
