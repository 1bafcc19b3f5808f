import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def run_python():
    """Run code in a fresh interpreter with the package importable.

    A call that never returns fails its test on the timeout instead of
    hanging the suite.
    """
    def run(code: str, timeout: float = 30.0) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": SRC}
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=timeout, env=env)
    return run
