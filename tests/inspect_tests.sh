#!/bin/sh
# ctest harness for flexnet-inspect (see tests/CMakeLists.txt). Runs in the
# working directory ctest gives it.
#
#   inspect_tests.sh fixture SWEEP_CLI         write one file of every format
#   inspect_tests.sh dispatch INSPECT SRC_DIR  each file reaches its view
#   inspect_tests.sh unknown INSPECT SRC_DIR   a foreign file exits 1
#   inspect_tests.sh replay INSPECT SNAP...    each capture replays, frozen
set -u
mode=$1
bin=$2
src=${3:-}

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

case $mode in
fixture)
  # A deadlocking 4-ary 2-cube: metrics stream, manifest, binary trace,
  # workload trace, two captures and two checkpoints; plus a pace file.
  rm -rf corpus ckpt
  "$bin" --k 4 --n 2 --routing DOR --uni --vcs 1 --length 8 --loads 0.8 \
    --warmup 200 --measure 800 --seed 7 --metrics run.ndjson \
    --metrics-interval 50 --telemetry-json run.json --trace-bin run.bin \
    --capture-trace run.trace --capture-deadlocks corpus --capture-limit 2 \
    --checkpoint-every 500 --checkpoint-dir ckpt >/dev/null ||
    fail "sweep_cli exited $?"
  printf 'flexnet-pace-v1\nrepeat on\nphase 40 0 2 bulk\nphase 10 3 3 burst\n' \
    >run.pace
  ;;
dispatch)
  # view FILE MARKER: the file exits 0 and its output holds its view's
  # marker line.
  view() {
    out=$("$bin" "$1") || fail "$1: exit $?"
    printf '%s\n' "$out" | grep -q -- "$2" || fail "$1: no '$2' in: $out"
    echo "ok $1"
  }
  for f in "$src"/tests/corpus/*.snap "$src"/tests/corpus/v3/*.snap \
    corpus/*.snap; do
    view "$f" "kind        deadlock-capture"
  done
  for f in ckpt/*.snap; do view "$f" "kind        checkpoint"; done
  for f in "$src"/examples/topologies/*.topo; do
    view "$f" "degree histogram (out)"
  done
  view run.trace "^flexnet-trace-v1: run.trace"
  view run.pace "^flexnet-pace-v1: run.pace"
  view run.ndjson "^final: "
  view run.json "^schema    flexnet-telemetry-v1"
  view run.bin "^run.bin: [0-9]* events total"
  ;;
unknown)
  out=$("$bin" "$src/README.md" 2>&1) && fail "README.md was accepted"
  printf '%s\n' "$out" | grep -q "README.md: unknown format (expected one of flexnet-snap, .*flexnet-topo-v1)" ||
    fail "no unknown-format error in: $out"
  echo "ok: $out"
  ;;
replay)
  shift 2
  out=$("$bin" "$@" --replay) || fail "exit $?: $out"
  printf '%s\n' "$out"
  frozen=$(printf '%s\n' "$out" | grep -c "^  freeze      frozen 5000 cycles$")
  [ "$frozen" -eq $# ] || fail "$frozen of $# captures frozen"
  ;;
*)
  fail "unknown mode $mode"
  ;;
esac
