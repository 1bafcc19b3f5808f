"""The CLI contract checks of .github/cli-contract.sh, run through bash.

Each check must pass on a report that keeps the contract and fail on one
that breaks it: a check that let a wrong exit status through would make
every CI step built on it pass whatever the CLI does.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")


@pytest.fixture
def contract(tmp_path):
    """Run a bash snippet under `bash -e` with the helper sourced, from the
    repository root, with `python` this interpreter."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path),
           "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}

    def run(check: str) -> subprocess.CompletedProcess:
        return subprocess.run(["bash", "-ec", f"source .github/cli-contract.sh; {check}"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return run


@pytest.mark.parametrize("check", [
    "same 0 coeffs --N 2 --c 2 --eta 1",
    'refuses 1 "config error: " eigen --N 0 --c 2',
    "gated --N 3 --lambda 0.5 --gamma 1e-10 --c 2",
])
def test_a_kept_contract_passes(contract, check):
    result = contract(check)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("check, breach", [
    ("same 2 coeffs --N 2 --c 2 --eta 1", "exit 0, expected 2"),
    # `bash -e` does not stop inside an `if` condition; the check must
    ("if same 2 coeffs --N 2 --c 2 --eta 1; then :; fi", "exit 0, expected 2"),
    ('refuses 3 "config error: " eigen --N 0 --c 2', "exit 1, expected 3"),
])
def test_a_wrong_exit_status_fails(contract, check, breach):
    result = contract(check)
    assert result.returncode == 1
    assert f"contract broken: {breach}" in result.stderr


@pytest.mark.parametrize("check, breach", [
    # the second run of each pair writes no report: a refused input, and a
    # subcommand that exits 0 without honouring --out; the first run's
    # matching reports must not stand in for it
    ("same 0 coeffs --N 2 --c 2 --eta 1; same 1 eigen --N 0 --c 2",
     "reports differ or are missing"),
    ("same 0 coeffs --N 2 --c 2 --eta 1; same 0 coeffs --help",
     "reports differ or are missing"),
    pytest.param("one_cpu coeffs --N 2 --c 2 --eta 1; one_cpu coeffs --help",
                 "one CPU differs or a report is missing",
                 marks=pytest.mark.skipif(shutil.which("taskset") is None,
                                          reason="needs taskset")),
])
def test_a_missing_report_fails(contract, check, breach):
    result = contract(check)
    assert result.returncode == 1
    assert f"contract broken: {breach}" in result.stderr
