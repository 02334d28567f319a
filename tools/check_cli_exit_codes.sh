#!/usr/bin/env bash
#===- tools/check_cli_exit_codes.sh - virgilc exit-code contract ---------===#
#
# `virgilc batch` promises distinct exit codes so scripts and CI can
# tell failure modes apart without scraping output:
#   0  all inputs compiled (and ran, with --run) cleanly
#   1  at least one input failed to compile
#   2  usage error (no inputs, unknown option, bad --jobs)
#   3  an input file could not be opened
#   4  compiles succeeded but at least one --run trapped
# Errors must go to stderr; stdout stays machine-friendly.
#
# Every feature-knob flag (src/core/Features.h) with a bad value is a
# usage error (exit 2) in single, batch and fuzz mode alike, and so is
# a malformed number for fuzz's --seeds/--start-seed/--fuel/
# --time-budget or virgild's --deadline-ms (which must fit 32 bits).
#
# usage: check_cli_exit_codes.sh [path-to-virgilc [path-to-virgild]]
#
#===----------------------------------------------------------------------===#
set -uo pipefail

VIRGILC=${1:-build/tools/virgilc}
VIRGILD=${2:-$(dirname "$VIRGILC")/virgild}

if [ ! -x "$VIRGILC" ]; then
  echo "FAIL: virgilc not found at $VIRGILC (build first)" >&2
  exit 1
fi
if [ ! -x "$VIRGILD" ]; then
  echo "FAIL: virgild not found at $VIRGILD (build first)" >&2
  exit 1
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# expect <code> <label> -- <args...>: run virgilc, check the exit code,
# and require any diagnostics to land on stderr (stdout may hold batch
# status lines but no error text).
expect() {
  local Want=$1 Label=$2; shift 2
  run_expect "$Want" "$Label" "$VIRGILC" "$@"
}

run_expect() {
  local Want=$1 Label=$2; shift 2
  local Out Err Code
  Out=$("$@" 2>"$DIR/stderr")
  Code=$?
  Err=$(cat "$DIR/stderr")
  [ "$Code" -eq "$Want" ] \
    || fail "$Label: expected exit $Want, got $Code (stderr: $Err)"
  if [ "$Want" -ne 0 ]; then
    [ -n "$Err" ] || fail "$Label: exit $Want but stderr is empty"
  fi
  echo "ok: $Label -> exit $Code"
}

cat > "$DIR/good.v" <<'EOF'
def main() -> int { return 7; }
EOF
cat > "$DIR/bad_compile.v" <<'EOF'
def main() -> int { return undefined_name; }
EOF
cat > "$DIR/traps.v" <<'EOF'
def main() -> int { var z = 0; return 1 / z; }
EOF

expect 2 "no input files"      batch
expect 2 "unknown option"      batch --frobnicate "$DIR/good.v"
expect 2 "bad --jobs"          batch --jobs potato "$DIR/good.v"
expect 3 "missing input file"  batch "$DIR/does_not_exist.v"
expect 1 "compile error"       batch "$DIR/bad_compile.v"
expect 4 "trap under --run"    batch --run "$DIR/traps.v"
expect 0 "clean compile"       batch "$DIR/good.v"
expect 0 "clean run"           batch --run "$DIR/good.v"

# Compile failure beats trap when both occur in one batch.
expect 1 "compile error + trap" batch --run "$DIR/bad_compile.v" "$DIR/traps.v"

# One bad value per knob flag. Single mode parses every knob strictly;
# batch takes only the compile-layer knobs and fuzz only those its Fuzz
# column names, so there the rest are unknown options: exit 2 either way.
for Case in "--mono-share maybe" "--opt-escape 1" "--opt-ssa yes" \
            "--vm-jit sometimes" "--jit-threshold 12ms" "--vm-gc copying" \
            "--vm-nursery-bytes 4096x"; do
  read -r Flag Bad <<< "$Case"
  expect 2 "single $Case" "$Flag" "$Bad" "$DIR/good.v"
  expect 2 "batch $Case"  batch "$Flag" "$Bad" "$DIR/good.v"
  expect 2 "fuzz $Case"   fuzz --seeds 1 "$Flag" "$Bad"
done
expect 0 "every knob set" --mono-share off --opt-escape off --opt-ssa off \
  --vm-jit on --jit-threshold 0 --vm-gc semi --vm-nursery-bytes 4096 \
  -e 'def main() -> int { return 0; }'

# Fuzz's numeric options are strict: a typo must not become 0 (for
# --fuel, an unlimited budget).
for Case in "--seeds 2x" "--seeds 0" "--start-seed -1" "--fuel abc" \
            "--time-budget 1.5s" "--time-budget 0"; do
  read -r Flag Bad <<< "$Case"
  expect 2 "fuzz $Case" fuzz "$Flag" "$Bad"
done
expect 2 "fuzz --fuel abc --seeds 2x" fuzz --fuel abc --seeds 2x
expect 0 "fuzz numbers valid" fuzz --seeds 1 --start-seed 3 --fuel 1000000

# virgild validates its quotas before listening: a deadline above
# 2^32-1 ms used to be truncated by a 32-bit cast.
run_expect 2 "virgild --deadline-ms 2^32" "$VIRGILD" --unix "$DIR/sock" \
  --deadline-ms 4294967296
run_expect 2 "virgild --deadline-ms 12ms" "$VIRGILD" --unix "$DIR/sock" \
  --deadline-ms 12ms

echo "PASS: batch exit codes 0/1/2/3/4 and knob and number usage errors all verified"
