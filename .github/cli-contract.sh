# Contract checks on the pointbethe CLI, one function per check.  Source it
# from the repository root with RUNNER_TEMP set to a writable directory; a
# breach prints what broke and exits 1, also inside `if`.  Each run is a
# fresh interpreter on src/ that makes a numpy overflow or invalid-value
# warning an error, as the tier-1 suite does.

fail() { echo "contract broken: $*" >&2; exit 1; }

# cli ARGS...: one run, launched through $pin (one_cpu sets it); sets $status
pin=
cli() {
  status=0
  PYTHONPATH=src $pin python -W error::RuntimeWarning -m pointbethe.cli "$@" || status=$?
}

# expect STATUS ARGS...: the last run exited STATUS
expect() { [ "$status" -eq "$1" ] || fail "exit $status, expected $1: ${*:2}"; }

# same STATUS ARGS...: two fresh interpreters exit STATUS and write the same report
same() {
  local want=$1 run; shift
  rm -f "$RUNNER_TEMP/same-1" "$RUNNER_TEMP/same-2"  # so a run that writes no report fails cmp
  for run in 1 2; do cli "$@" --out "$RUNNER_TEMP/same-$run"; expect "$want" "$@"; done
  cmp "$RUNNER_TEMP/same-1" "$RUNNER_TEMP/same-2" || fail "reports differ or are missing: $*"
}

# one_cpu ARGS...: a run pinned to CPU 0 writes what a run on every CPU writes; both exit 0
one_cpu() {
  rm -f "$RUNNER_TEMP/all-cpus" "$RUNNER_TEMP/one-cpu"  # as in same
  cli "$@" --out "$RUNNER_TEMP/all-cpus"; expect 0 "$@"
  pin="taskset -c 0" cli "$@" --out "$RUNNER_TEMP/one-cpu"; expect 0 taskset -c 0 "$@"
  cmp "$RUNNER_TEMP/all-cpus" "$RUNNER_TEMP/one-cpu" || fail "one CPU differs or a report is missing: $*"
}

# refuses STATUS PREFIX ARGS...: exit STATUS, no report, and one stderr line
# that starts with PREFIX and is no traceback
refuses() {
  local want=$1 prefix=$2 out=$RUNNER_TEMP/refused.out err=$RUNNER_TEMP/refused.err; shift 2
  cli "$@" > "$out" 2> "$err"; cat "$err"
  expect "$want" "$@"
  [ ! -s "$out" ] || fail "refusal wrote a report: $*"
  [ "$(wc -l < "$err")" -eq 1 ] || fail "stderr is not one line: $*"
  grep -q "^$prefix" "$err" || fail "stderr does not start with '$prefix': $*"
  ! grep -q Traceback "$err" || fail "traceback: $*"
}

# gated ARGS...: coeffs off a family reports on stdout, with the solution-space
# and oracle-vs-fill lines, writes nothing to stderr and exits 2
gated() {
  local out=$RUNNER_TEMP/gated.out err=$RUNNER_TEMP/gated.err
  cli coeffs "$@" > "$out" 2> "$err"; expect 2 coeffs "$@"
  grep -q "^solution-space dimension: 2 (expected" "$out" || fail "no dimension line: $*"
  grep -q "^oracle vs fill: max deviation / max|A| = " "$out" || fail "no oracle line: $*"
  [ ! -s "$err" ] || fail "stderr not empty: $*"
}

# smoke WORKLOAD: the benchmark's 1 s run reports "correct"; run.py exits 0
# even when ops fail, so the verdict is the JSON on its last stdout line
smoke() {
  python3 perfbench/run.py --workload "$1" --seed 1 --seconds 1 --trace 0 > "$RUNNER_TEMP/smoke-$1.out"
  tail -n 1 "$RUNNER_TEMP/smoke-$1.out" | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); print(sys.argv[1], r); sys.exit(r.get("correct") is not True)' "$1" ||
    fail "benchmark smoke not correct: $1"
}
