import numpy as np
import pytest

from pointbethe.cli import (EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK,
                            EXIT_RESIDUAL, main)


def run_cli(args, tmp_path, name="report.txt"):
    out = tmp_path / name
    status = main(list(args) + ["--out", str(out)])
    return status, (out.read_text() if out.exists() else "")


def test_yb_check_family_passes(tmp_path):
    status, report = run_cli(["yb-check", "--N", "3", "--c", "1", "--eta", "0.5"], tmp_path)
    assert status == EXIT_OK
    assert "# command = yb-check" in report
    assert "unitarity residual" in report


def test_yb_check_noninteg_fails(tmp_path):
    status, _ = run_cli(["yb-check", "--N", "3", "--c", "1",
                         "--lambda", "0.3", "--gamma", "0.2"], tmp_path)
    assert status == EXIT_RESIDUAL


def test_yb_check_block_reduction_included_for_four_particles(tmp_path):
    status, report = run_cli(["yb-check", "--N", "4", "--c", "2", "--eta", "1"], tmp_path)
    assert status == EXIT_OK
    assert "block-reduction deviation" in report


def test_scan_classifies_lambda_sweep(tmp_path):
    status, report = run_cli(["scan", "--c", "1", "--lambda", "0,0.25,0.5,0.75,1",
                              "--gamma", "0", "--eta", "0"], tmp_path)
    assert status == EXIT_OK
    lines = [l for l in report.splitlines() if not l.startswith("#")]
    assert lines[0] == "c,lambda,gamma,eta,class,max_residual"
    classes = [l.split(",")[4] for l in lines[1:6]]
    assert classes == ["family1", "not_integrable", "not_integrable",
                       "not_integrable", "family2"]


@pytest.mark.parametrize("args", [
    ["scan", "--c", "1,2", "--lambda", "0,0.5", "--eta", "0,1"],
    ["eigen", "--c", "2", "--eta", "1", "--N", "3"],
    ["gauge", "--c", "2", "--eta", "1", "--N", "3"],
    ["coeffs", "--c", "1.5", "--lambda", str(1 / 1.5), "--N", "3"],
    ["yb-check", "--c", "2", "--eta", "1", "--N", "3"],
], ids=lambda args: args[0])
def test_reports_are_byte_identical(tmp_path, args):
    args = args + ["--seed", "7"]
    _, r1 = run_cli(args, tmp_path, "a.txt")
    _, r2 = run_cli(args, tmp_path, "b.txt")
    assert r1 and r1 == r2


def test_scatter_grid_from_k_flag(tmp_path):
    status, report = run_cli(["scatter", "--c", "2", "--eta", "0.5",
                              "--k", "0.5,1.5,-2.0"], tmp_path)
    assert status == EXIT_OK
    lines = [l for l in report.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("u,re_st_plus")
    assert len(lines) == 1 + 3 + 1  # header, three grid rows, oracle summary


def test_coeffs_two_particles(tmp_path):
    status, report = run_cli(["coeffs", "--c", "1.5", "--k", "1.0,-0.5"], tmp_path)
    assert status == EXIT_OK
    assert "boundary-system residual" in report
    assert "p_rank,q_rank,re_a,im_a" in report


def test_coeffs_noninteg_exits_degenerate(tmp_path):
    status, _ = run_cli(["coeffs", "--c", "1", "--lambda", "0.3", "--gamma", "0.2",
                         "--k", "1.0,-0.5,0.3"], tmp_path)
    assert status == EXIT_DEGENERATE


def test_eigen_csv_block(tmp_path):
    status, report = run_cli(["eigen", "--c", "2", "--eta", "1",
                              "--k", "1.1,-0.3"], tmp_path)
    assert status == EXIT_OK
    lines = report.splitlines()
    assert any(l == "x1,x2,re_psi,im_psi" for l in lines)
    assert any(l.startswith("boundary (1,2)") for l in lines)


def test_gauge_command(tmp_path):
    status, report = run_cli(["gauge", "--c", "2", "--eta", "1",
                              "--k", "0.9,-0.5"], tmp_path)
    assert status == EXIT_OK
    assert "c_tilde = 1" in report


def test_gauge_outside_family_is_degenerate(tmp_path):
    status, _ = run_cli(["gauge", "--c", "2", "--lambda", "0.5",
                         "--k", "0.9,-0.5"], tmp_path)
    assert status == EXIT_DEGENERATE


def test_missing_command_is_config_error(tmp_path):
    assert main(["--c", "1"]) == EXIT_CONFIG


def test_n_guard(tmp_path):
    status, _ = run_cli(["eigen", "--c", "1", "--N", "9"], tmp_path)
    assert status == EXIT_CONFIG


def test_coincident_momenta_is_config_error(tmp_path):
    status, _ = run_cli(["eigen", "--c", "1", "--k", "1.0,1.0"], tmp_path)
    assert status == EXIT_CONFIG


def test_non_finite_momentum_is_config_error(tmp_path):
    # NaN momenta used to print NaN residuals, then "max boundary residual = 0"
    status, _ = run_cli(["eigen", "--c", "2", "--k", "1,nan,0.3"], tmp_path)
    assert status == EXIT_CONFIG


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_tolerance_must_be_finite_and_positive(tmp_path, tol):
    status, report = run_cli(["eigen", "--c", "2", "--k", "1,0.2,0.3", f"--tol={tol}"], tmp_path)
    assert status == EXIT_CONFIG
    assert report == ""


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_residual_fails_the_verdict(tmp_path):
    # u = inf gives an all-NaN amplitude row; max(0.0, nan) would pass it
    status, report = run_cli(["scatter", "--c", "2", "--eta", "1", "--k", "inf,1"], tmp_path)
    assert status == EXIT_RESIDUAL
    assert "max rel deviation = nan" in report


def test_unknown_flag_is_config_error():
    assert main(["scatter", "--nope", "1"]) == EXIT_CONFIG


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# gauge check\n"
        "command = gauge\n"
        "c = 2\n"
        "eta = 1\n"
        "k = 0.9,-0.5\n"
        "tol = 1e-8\n"
    )
    out = tmp_path / "report.txt"
    status = main(["--config", str(cfg), "--out", str(out)])
    assert status == EXIT_OK
    assert "c_tilde = 1" in out.read_text()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = yb-check\nc = 1\nlambda = 0.3\ngamma = 0.2\nN = 3\n")
    out = tmp_path / "r.txt"
    # file values describe a failing point; flags override back to family1
    status = main(["--config", str(cfg), "--lambda", "0", "--gamma", "0",
                   "--out", str(out)])
    assert status == EXIT_OK


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = scatter\nwavelength = 3\n")
    assert main(["--config", str(cfg)]) == EXIT_CONFIG


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = scatter\nthis is not a pair\n")
    assert main(["--config", str(cfg)]) == EXIT_CONFIG


def test_config_requires_single_values_for_scalar_commands(tmp_path):
    status, _ = run_cli(["scatter", "--c", "1,2"], tmp_path)
    assert status == EXIT_CONFIG


def test_eigen_finite_difference_skips_points_near_a_boundary(tmp_path):
    # seed 686 draws a grid point among the first five whose closest pair
    # is 5.2e-5 apart, inside the h = 1e-4 stencil; it used to report ~1.7e8
    status, report = run_cli(["eigen", "--c", "2", "--eta", "1.3",
                              "--k", "1.4,-0.2,0.7", "--seed", "686"], tmp_path)
    assert status == EXIT_OK
    fd_line = next(l for l in report.splitlines() if l.startswith("free-equation"))
    assert float(fd_line.rsplit(" ", 1)[1]) <= 1e-5
