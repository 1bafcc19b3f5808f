"""One fresh-process set-up, timed from outside by run.py.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

from __future__ import annotations

import sys

import program


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    try:
        program.setup(workload, seed)
    except program.ProgramMissing as exc:
        print(f"setup probe: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
