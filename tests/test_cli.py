import contextlib
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbethe import bethe, cli, factorization
from pointbethe._kernels import sample_panel
from pointbethe.bethe import bethe_state
from pointbethe.cli import (EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK,
                            EXIT_RESIDUAL, main)
from pointbethe.couplings import FAMILY_TOL, CouplingParameters
from pointbethe.factorization import GridSpec
from reference import coefficient_csv_lines, scan_report_per_point


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


def test_coeffs_one_particle(tmp_path):
    # the oracle used to index site 1 of a table without sites
    status, report = run_cli(["coeffs", "--N", "1", "--c", "2"], tmp_path)
    assert status == EXIT_OK
    assert "solution-space dimension: 1 (expected 1)" in report.splitlines()


def test_coeffs_noninteg_exits_degenerate(tmp_path):
    status, _ = run_cli(["coeffs", "--c", "1", "--lambda", "0.3", "--gamma", "0.2",
                         "--k", "1.0,-0.5,0.3"], tmp_path)
    assert status == EXIT_DEGENERATE


@pytest.mark.parametrize("near", [["--eta", "1", "--gamma", "1e-10"],
                                  ["--eta", "1", "--lambda", "1e-10"]])
@pytest.mark.parametrize("n", ["3", "4"])
def test_coeffs_within_family_tol_passes(tmp_path, n, near):
    # couplings 1e-10 off family 1 are taken as integrable, and the oracle's
    # least squares meets them to about 1e-10, inside the default --tol 1e-8.
    # Its rank cutoff sees gamma = 1e-10 as on the family but not lambda =
    # 1e-10, whose solution space has dimension 2, not N!: that run fails
    status, report = run_cli(["coeffs", "--N", n, "--c", "2"] + near, tmp_path)
    assert status == (EXIT_OK if "--gamma" in near else EXIT_RESIDUAL)
    residual, = [line for line in report.splitlines()
                 if line.startswith("boundary-system residual: ")]
    assert float(residual.split(": ")[1]) <= 1e-9


@pytest.mark.parametrize("args, dimension, expected", [
    (["--N", "4", "--eta", "1"], "24 (expected 24)", EXIT_OK),
    (["--N", "4", "--lambda", "0.5"], "24 (expected 24)", EXIT_OK),
    (["--N", "4", "--lambda", "0.5", "--gamma", "1e-10"], "2 (expected 24)", EXIT_RESIDUAL),
    (["--N", "4", "--eta", "1", "--lambda", "1e-10"], "2 (expected 24)", EXIT_RESIDUAL),
    (["--N", "3", "--lambda", "0.5", "--gamma", "1e-10"], "2 (expected 6)", EXIT_RESIDUAL),
], ids=["n4-family1", "n4-family2", "n4-near-family2", "n4-near-family1", "n3-near-family2"])
def test_coeffs_gates_the_solution_space_dimension(capsys, args, dimension, expected):
    # integrable_family accepts couplings 1e-10 off a family, the oracle's
    # rank cutoff does not: the whole report still goes to stdout, every
    # residual inside --tol, and the run fails on the dimension alone
    status = main(["coeffs", "--c", "2"] + args)
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (status, err) == (expected, "")
    assert len(lines) == 8 + 1 + math.factorial(int(args[1])) ** 2 + 5  # header, CSV, 5 lines
    assert f"solution-space dimension: {dimension}" in lines
    assert lines[-2].startswith("oracle vs fill: max deviation / max|A| = ")
    assert float(lines[-2].split()[-1]) <= 1e-8
    assert lines[-1].startswith("max residual = ") and lines[-1].endswith(" (tol 1e-08)")
    assert float(lines[-1].split()[3]) <= 1e-8


def test_coeffs_gates_the_oracle_table_against_the_fill(capsys, monkeypatch):
    # an oracle table off the fill in one entry outside row I, with every
    # residual and the dimension as they were, fails the run on the
    # deviation alone; the closing line stays the largest residual line
    def moved(params, k, a_identity):
        oracle = bethe.coefficients_bc_oracle(params, k, a_identity)
        table = oracle.table.copy()
        table[5, 7] += 1e-6 * np.abs(table).max()
        return dataclasses.replace(oracle, table=table)

    monkeypatch.setattr(cli, "coefficients_bc_oracle", moved)
    status = main(["coeffs", "--N", "4", "--c", "2", "--eta", "1"])
    out, err = capsys.readouterr()
    assert (status, err) == (EXIT_RESIDUAL, "")
    value = {line.split(": ")[0]: line.split(": ")[1] for line in out.splitlines()
             if line.startswith(("pairwise relation residual", "boundary-system residual",
                                 "oracle vs fill"))}
    assert float(value["oracle vs fill"].split(" = ")[1]) == pytest.approx(1e-6, rel=1e-3)
    closing = out.splitlines()[-1]
    worst = max(value["pairwise relation residual"], value["boundary-system residual"],
                key=float)
    assert closing == f"max residual = {worst} (tol 1e-08)"


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


def _no_tables(*args, **kwargs):
    raise AssertionError("a table was built past the N guard")


TOO_MANY = "field N: must be between 1 and 6, got 7"
MATRIX_N = "N must be a whole number in 2..6, got "


@pytest.mark.parametrize("args,message", [
    (["coeffs", "--N", "7"], TOO_MANY), (["eigen", "--N", "7"], TOO_MANY),
    (["eigen", "--k", "0.3,0.9,1.5,2.1,-0.4,-1.2,-2.0"], TOO_MANY),
    (["gauge", "--N", "7"], TOO_MANY),
    (["yb-check", "--N", "7"], MATRIX_N + "7"), (["yb-check", "--N", "1"], MATRIX_N + "1"),
], ids=["coeffs", "eigen", "eigen-k", "gauge", "yb-check-7", "yb-check-1"])
def test_n_guard_refuses_before_any_table(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.setattr(cli, "bethe_state", _no_tables)
    monkeypatch.setattr(factorization, "symmetric_group", _no_tables)
    status, report = run_cli(args + ["--c", "2", "--eta", "1"], tmp_path)
    assert status == EXIT_CONFIG
    assert report == ""
    assert capsys.readouterr().err == f"config error: {message}\n"


def _scan_body(report):
    """The CSV block and the summary line of a scan report."""
    body = [line for line in report.splitlines(keepends=True) if not line.startswith("#")]
    return "".join(body[:-1]), body[-1].rstrip("\n")


def _around(x):
    """x and the floats on either side of it."""
    return float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))


# signed zeros, FAMILY_TOL and its neighbours, c lam - 1 near the tolerance,
# points in both families (c = 1e9), a subnormal, and 1e200, whose rows
# overflow to inf and whose c lam overflows the family test
EDGE_GRID = GridSpec(c_values=(-0.0, 0.0, 5e-324, 1.0, -1.0, 1e9, 1e200),
                     lam_values=(-0.0, 0.0, *_around(FAMILY_TOL), *_around(-FAMILY_TOL),
                                 *_around(1.0 - FAMILY_TOL), *_around(1.0 + FAMILY_TOL), 1e200),
                     gamma_values=(-0.0, 0.0, *_around(FAMILY_TOL), -FAMILY_TOL, 5e-324),
                     eta_values=(-0.0, *_around(FAMILY_TOL), -FAMILY_TOL, 1.0), seed=7)
BENCH_AXES = dict(c_values=(-2.0, -1.0, 0.5, 1.0, 2.0), lam_values=(-0.5, 0.0, 0.5, 1.0, 2.0),
                  gamma_values=(-1.0, -0.5, 0.0, 0.5, 1.0), eta_values=(-1.0, -0.5, 0.0, 0.5, 1.0))


@pytest.mark.parametrize("grid", [GridSpec(**BENCH_AXES, seed=seed) for seed in (0, 1, 2)]
                         + [EDGE_GRID], ids=["bench-seed0", "bench-seed1", "bench-seed2", "edges"])
def test_scan_report_matches_the_per_point_reference(tmp_path, grid):
    axes = (grid.c_values, grid.lam_values, grid.gamma_values, grid.eta_values)
    args = [f"--{key}={','.join(map(repr, axis))}"
            for key, axis in zip(("c", "lambda", "gamma", "eta"), axes)]
    status, report = run_cli(["scan", *args, f"--seed={grid.seed}"], tmp_path)
    csv, summary = scan_report_per_point(grid)
    assert _scan_body(report) == (csv, summary)
    assert status == (EXIT_OK if summary.endswith(": 0") else EXIT_RESIDUAL)
    if grid is EDGE_GRID:
        assert "inf" in csv and "-0," in csv and not summary.endswith(": 0")


def test_scan_overflow_rows_are_inf(tmp_path):
    # eta = 1e200 overflows the amplitudes into NaN; the row reads inf, as a
    # pole-guarded row does, and the finite rows are untouched
    status, report = run_cli(["scan", "--c", "1,2", "--eta", "1e200,1"], tmp_path)
    _, finite = run_cli(["scan", "--c", "1,2", "--eta", "1"], tmp_path, "finite.txt")
    assert status == EXIT_RESIDUAL
    rows = [l for l in report.splitlines() if l[0].isdigit()]
    assert [r.rsplit(",", 1)[1] for r in rows[::2]] == ["inf", "inf"]
    assert rows[1::2] == [l for l in finite.splitlines() if l[0].isdigit()]
    # the summary counts the inconsistent rows that the per-point reference counts
    grid = GridSpec((1.0, 2.0), (0.0,), (0.0,), (1e200, 1.0))
    assert _scan_body(report)[1] == scan_report_per_point(grid)[1]
    status, report = run_cli(["scan", "--c=-0,0,1,1e200", "--lambda=-0,0,1e-9,-1e-9,1.000000001",
                              "--gamma=-0,0,1e-9,2e-9", "--eta=-0,0,1,1e-9"], tmp_path, "edges.txt")
    grid = GridSpec((-0.0, 0.0, 1.0, 1e200), (-0.0, 0.0, 1e-9, -1e-9, 1.000000001),
                    (-0.0, 0.0, 1e-9, 2e-9), (-0.0, 0.0, 1.0, 1e-9))
    assert status == EXIT_RESIDUAL
    assert _scan_body(report)[1] == scan_report_per_point(grid)[1] == \
        "grid points: 320, inconsistent classifications: 92"


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


def test_nan_residual_fails_the_verdict(tmp_path, monkeypatch):
    # max(0.0, nan) is 0.0: a verdict taken with Python's max passes NaN
    monkeypatch.setattr(cli, "block_reduction_check", lambda *args: math.nan)
    status, report = run_cli(["yb-check", "--N", "4", "--c", "2", "--eta", "1"], tmp_path)
    assert status == EXIT_RESIDUAL
    assert "block-reduction deviation: nan" in report
    assert "max residual = nan" in report


def test_non_finite_scatter_momentum_is_config_error(tmp_path):
    status, report = run_cli(["scatter", "--c", "2", "--eta", "1", "--k", "inf,1"], tmp_path)
    assert status == EXIT_CONFIG
    assert report == ""


# the first table builds can outlast hypothesis's per-example deadline
@settings(deadline=None)
@given(command=st.sampled_from(["scatter", "coeffs", "eigen", "gauge", "yb-check"]),
       flag=st.sampled_from(["c", "lambda", "gamma", "eta", "k"]),
       value=st.sampled_from(["nan", "inf", "-inf"]),
       position=st.integers(0, 2))
def test_non_finite_input_never_exits_zero(tmp_path_factory, command, flag, value, position):
    values = {"c": ["2"], "lambda": ["0"], "gamma": ["0"], "eta": ["1"],
              "k": ["0.9", "-0.4", "0.2"]}
    values[flag][min(position, len(values[flag]) - 1)] = value
    args = [command] + [f"--{key}={','.join(vals)}" for key, vals in values.items()]
    status, _ = run_cli(args, tmp_path_factory.mktemp("run"))
    assert status != EXIT_OK


# the float range's edges: signed zeros, the least subnormal, tiny and
# huge values and the largest finite float
EDGE_VALUES = ["0", "-0", "1", "-1", "5e-324", "1e-300", "1e150", "-1e150", "1e300",
               "1.7976931348623157e308"]


@st.composite
def edge_argv(draw):
    """argv of any command with couplings and momenta drawn from EDGE_VALUES;
    scan gets two-point axes, the others N <= 3, so each run is short."""
    command = draw(st.sampled_from(cli.COMMANDS))
    values = st.lists(st.sampled_from(EDGE_VALUES), min_size=1,
                      max_size=2 if command == "scan" else 1)
    argv = [command]
    for flag in ("c", "lambda", "gamma", "eta"):
        if draw(st.booleans()):
            argv.append(f"--{flag}=" + ",".join(draw(values)))
    if command == "yb-check":
        argv += ["--N", draw(st.sampled_from(["2", "3"]))]
    elif command != "scan":
        momenta = st.lists(st.sampled_from(EDGE_VALUES), min_size=1, max_size=3)
        argv.append("--k=" + ",".join(draw(momenta)))
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=500)
@given(argv=edge_argv())
def test_float_range_edges_keep_the_exit_contract(argv):
    # in process, as CI runs the CLI: a numpy warning is an error, no
    # report line reads nan, and a refusal is one stderr line and no report
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    report, errors = out.getvalue(), err.getvalue()
    assert status in (EXIT_OK, EXIT_CONFIG, EXIT_RESIDUAL, EXIT_DEGENERATE)
    assert not re.search(r"\bnan\b", report, re.IGNORECASE)
    if status in (EXIT_CONFIG, EXIT_DEGENERATE):
        assert report == "" and errors.endswith("\n") and errors.count("\n") == 1
    else:
        assert errors == ""


@pytest.mark.parametrize("args, status, line", [
    # every term of the contact residuals is finite, their sums are not
    (["coeffs", "--k=0,1.7976931348623157e308", "--c", "0"], EXIT_RESIDUAL,
     "boundary-system residual: inf"),
    (["eigen", "--k=0,1.7976931348623157e308", "--c", "0"], EXIT_CONFIG,
     "config error: plane-wave phase past the float range: momentum k[1]=1.7976931348623157e+308"),
    (["coeffs", "--k=0,1", "--c", "1.7976931348623157e308"], EXIT_CONFIG,
     "config error: oracle system at couplings (1.7976931348623157e+308, 0.0, 0.0, 0.0) and "
     "momenta [0.0, 1.0] is past the float range"),
])
def test_float_range_edges_read_inf_or_are_refused(tmp_path, capsys, args, status, line):
    got, report = run_cli(args, tmp_path)
    assert got == status
    if status == EXIT_RESIDUAL:
        assert line in report.splitlines()
        assert report.splitlines()[-1] == "max residual = inf (tol 1e-08)"
    else:
        assert report == "" and capsys.readouterr().err.startswith(line)


@pytest.mark.parametrize("command", ["coeffs", "eigen", "gauge"])
def test_overflowing_coupling_is_degenerate(tmp_path, capsys, command):
    # one line on stderr: no NaN table, no OverflowError traceback
    status, report = run_cli([command, "--N", "2", "--c", "1", "--eta", "1e200"], tmp_path)
    assert status == EXIT_DEGENERATE
    assert report == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("degenerate input: PoleAtU:")


def test_yb_check_overflow_names_the_first_sample(tmp_path, capsys):
    status, report = run_cli(["yb-check", "--N", "3", "--c", "2", "--eta", "1e200"], tmp_path)
    assert status == EXIT_DEGENERATE
    assert report == ""
    u = float(sample_panel(0, 100)[0, 0])  # the CLI's default seed
    assert capsys.readouterr().err == (
        f"degenerate input: PoleAtU: amplitudes at u={u} are not finite for couplings "
        "(2.0, 0.0, 0.0, 1e+200)\n")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_config_error(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "report.txt"
    assert main(["scatter", "--c", "2", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write report to {out}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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


@pytest.mark.parametrize("k, expected", [("1e160,-1e160", EXIT_OK),
                                         ("9e153,-9e153,1,2", EXIT_RESIDUAL)],
                         ids=["energy-overflows", "hypot-overflows"])
def test_eigen_at_huge_momenta_reads_inf_with_no_numpy_warning(tmp_path, k, expected):
    # k**2 overflows the energy, or the residual's hypot overflows; the suite
    # turns a numpy RuntimeWarning into an error, as -W error::RuntimeWarning does
    status, report = run_cli(["eigen", "--c", "2", "--eta", "1", f"--k={k}"], tmp_path)
    assert status == expected
    assert "free-equation finite-difference residual: inf" in report.splitlines()


def test_scatter_takes_more_u_values_than_max_n(tmp_path):
    # scatter builds no N! table, so the N guard does not bound its u grid
    status, report = run_cli(["scatter", "--c", "2", "--k", "0.5,1,1.5,2,2.5,3,3.5"], tmp_path)
    assert status == EXIT_OK
    lines = [l for l in report.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("u,re_st_plus")
    assert len(lines) == 1 + 7 + 1  # header, seven grid rows, oracle summary
    assert "# N =" not in report


def test_yb_check_echoes_the_n_it_ran(tmp_path):
    # yb-check ignores k and runs at N = 3 without --N; the header used to
    # echo the length of k as N
    base = ["yb-check", "--c", "2", "--eta", "1"]
    _, plain = run_cli(base, tmp_path, "a.txt")
    status, with_k = run_cli(base + ["--k", "0.1,0.2,0.3,0.4,0.5"], tmp_path, "b.txt")
    assert status == EXIT_OK
    lines = with_k.splitlines()
    assert "# k = 0.10000000000000001,0.20000000000000001,0.29999999999999999," \
           "0.40000000000000002,0.5" in lines
    assert not any(l.startswith("# N =") for l in lines)
    assert [l for l in lines if not l.startswith("# k =")] == plain.splitlines()


def _run_route(tmp_path, capsys, command, base, key, value, via_file):
    """main() with base as flags and key = value as a flag or a config-file
    line; returns (status, report, stderr)."""
    args = [command] + [f"--{k}={v}" for k, v in base.items() if k != key]
    if via_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args += ["--config", str(cfg)]
    else:
        args.append(f"--{key}={value}")
    status = main(args)
    captured = capsys.readouterr()
    report = captured.out
    if key == "out":
        report += (tmp_path / "r.txt").read_text()
        (tmp_path / "r.txt").unlink()
    return status, report, captured.err


ROUTE_VALUES = {"c": "1.5", "lambda": "0", "gamma": "0", "eta": "0.5", "N": "2",
                "k": "0.9,-0.4,0.2", "seed": "11", "tol": "1e-6", "out": "r.txt"}


@pytest.mark.parametrize("key", list(cli.FIELDS))
def test_flag_and_config_file_give_the_same_report(tmp_path, capsys, key):
    value = str(tmp_path / ROUTE_VALUES[key]) if key == "out" else ROUTE_VALUES[key]
    base = {"c": "2", "eta": "1", "k": "0.9,-0.5"}
    if key == "N":
        del base["k"]
    by_flag = _run_route(tmp_path, capsys, "gauge", base, key, value, via_file=False)
    by_file = _run_route(tmp_path, capsys, "gauge", base, key, value, via_file=True)
    assert by_flag[0] == EXIT_OK
    assert by_flag[1].startswith("# command = gauge")
    assert by_flag == by_file


@pytest.mark.parametrize("key,value", [("N", "x"), ("N", "1.5"), ("N", "0"),
                                       ("seed", "x"), ("seed", "1.5"),
                                       ("tol", "x"), ("tol", "0")])
def test_flag_and_config_file_give_the_same_error(tmp_path, capsys, key, value):
    base = {"c": "2", "eta": "1", "N": "3"}
    by_flag = _run_route(tmp_path, capsys, "coeffs", base, key, value, via_file=False)
    by_file = _run_route(tmp_path, capsys, "coeffs", base, key, value, via_file=True)
    assert by_flag[:2] == (EXIT_CONFIG, "")
    assert by_flag[2].startswith(f"config error: field {key}: ")
    assert by_flag == by_file


@pytest.mark.parametrize("via_file", [False, True], ids=["flag", "file"])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_negative_seed_is_refused_by_every_command(tmp_path, capsys, monkeypatch,
                                                   command, via_file):
    # refused while parsing: no command starts, whether it reads the seed or not
    monkeypatch.setattr(cli, "_RUNNERS", {})
    base = {"c": "2", "eta": "1", "N": "3"}
    status, report, err = _run_route(tmp_path, capsys, command, base, "seed", "-1", via_file)
    assert (status, report) == (EXIT_CONFIG, "")
    assert err == "config error: field seed: must be >= 0, got '-1'\n"


def test_coeffs_csv_parses_back_to_the_table(tmp_path):
    status, report = run_cli(["coeffs", "--N", "3", "--c", "2", "--eta", "1.3",
                              "--k", "1.4,-0.2,0.7"], tmp_path)
    assert status == EXIT_OK
    lines = report.splitlines()
    assert "# N = 3" in lines
    start = lines.index("p_rank,q_rank,re_a,im_a") + 1
    rows = [line.split(",") for line in lines[start:start + 36]]
    assert lines[start + 36].startswith("pairwise relation residual")
    # ranks in row-major order: P outer, Q inner, both 1-based
    assert [(int(p), int(q)) for p, q, _, _ in rows] == [
        (p, q) for p in range(1, 7) for q in range(1, 7)]
    parsed = np.array([complex(float(re), float(im)) for _, _, re, im in rows]).reshape(6, 6)
    a_identity = np.zeros(6, dtype=np.complex128)
    a_identity[0] = 1.0
    table = bethe_state(CouplingParameters(2.0, 0.0, 0.0, 1.3),
                        np.array([1.4, -0.2, 0.7]), a_identity).table
    # bit for bit, signed zeros included
    assert np.array_equal(parsed.view(np.uint64), np.ascontiguousarray(table).view(np.uint64))


@pytest.mark.parametrize("flags, params", [
    (["--eta", "1"], CouplingParameters(2.0, 0.0, 0.0, 1.0)),
    (["--lambda", "0.5"], CouplingParameters(2.0, 0.5, 0.0, 0.0)),
], ids=["f1", "f2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coeffs_csv_matches_the_per_entry_format(tmp_path, n, flags, params):
    k = [1.4, -0.6, 0.3, -1.3, 0.9][:n]
    status, report = run_cli(["coeffs", "--c", "2", *flags,
                              "--k", ",".join(map(str, k))], tmp_path)
    assert status == EXIT_OK
    lines = report.splitlines()
    start = lines.index("p_rank,q_rank,re_a,im_a") + 1
    end = next(i for i, line in enumerate(lines) if line.startswith("pairwise relation"))
    assert end - start == math.factorial(n) ** 2
    a_identity = np.zeros(math.factorial(n), dtype=np.complex128)
    a_identity[0] = 1.0
    table = bethe_state(params, np.array(k), a_identity).table
    assert lines[start:end] == coefficient_csv_lines(table)


@pytest.mark.parametrize("order", ["C", "F"])
def test_table_csv_rows_format_edge_values(order):
    table = np.array([[complex(-0.0, 5e-324), complex(-1 / 3, 1e300)],
                      [complex(-1e-300, -0.0), complex(0.0, 1.0)]], order=order)
    rows = list(cli._table_csv_rows(table))
    assert len(rows) == 2  # one entry of cfg.lines per table row
    assert "\n".join(rows).split("\n") == coefficient_csv_lines(table) == [
        "1,1,-0,4.9406564584124654e-324",
        "1,2,-0.33333333333333331,1.0000000000000001e+300",
        "2,1,-1e-300,-0",
        "2,2,0,1"]


def test_config_file_repeated_key_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = yb-check\nc = 1\n# c = 3\neta = 0.5\nc = 2\n")
    assert main(["--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {cfg}:5: field 'c' repeats line 2\n"


def test_repeated_flag_is_refused(tmp_path, capsys):
    assert main(["yb-check", "--c", "1", "--eta", "0.5", "--c", "2"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: field c: flag --c given 2 times\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = yb-check\n")
    assert main(["--config", str(cfg), "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: field config: flag --config given 2 times\n"


@pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1", "1, ,2", ""])
def test_empty_list_item_is_refused(tmp_path, capsys, text):
    status, report = run_cli(["scan", "--c", text], tmp_path)
    assert (status, report) == (EXIT_CONFIG, "")
    assert capsys.readouterr().err == f"config error: field c: empty item in {text!r}\n"


def test_whitespace_around_list_items_is_accepted(tmp_path):
    _, spaced = run_cli(["scan", "--c", " 1 ,2 ", "--eta", "0.5 "], tmp_path, "a.txt")
    status, plain = run_cli(["scan", "--c", "1,2", "--eta", "0.5"], tmp_path, "b.txt")
    assert status == EXIT_OK
    assert spaced == plain


def test_the_shared_parser_refuses_a_repeated_flag_after_a_good_parse(tmp_path, capsys):
    assert run_cli(["yb-check", "--c", "1", "--eta", "0.5"], tmp_path)[0] == EXIT_OK
    assert main(["yb-check", "--c", "1", "--eta", "0.5", "--c", "2"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: field c: flag --c given 2 times\n"


def test_parses_share_no_list_values():
    first = vars(cli._parser().parse_args(["scan", "--c", "1", "--eta", "0.5"]))
    second = vars(cli._parser().parse_args(["scan", "--c", "2"]))
    assert (first["c"], first["eta"]) == (["1"], ["0.5"])
    assert (second["c"], second["eta"]) == (["2"], None)
    assert cli.build_config(["scan"]).c == (0.0,)


def test_help_exits_zero_with_the_usage_of_a_fresh_parser(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == cli._parser.__wrapped__().format_help()
