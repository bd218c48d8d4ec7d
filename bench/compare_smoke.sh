#!/bin/sh
# The regression gate's two outcomes on a real measurement of the
# cheapest subject: `fabric_bench --compare` passes against a baseline
# far below the measured median and prints its table, and it exits 1
# naming the tolerance against a baseline far above it.
set -u
# dune passes a bare file name for a target in this directory
case "$1" in */*) BENCH="$1" ;; *) BENCH="./$1" ;; esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fails=0

# gate NAME WANT_EXIT REGEX MEDIAN: compare allocate-64 against a
# baseline holding MEDIAN, check the exit code, match any output line
gate() {
  name="$1" want="$2" regex="$3"
  cat >"$tmp/base.json" <<JSON
{ "subjects": { "allocate-64": { "median": $4, "iqr": 0.0, "samples": [$4] } } }
JSON
  out=$("$BENCH" --subject allocate-64 --compare "$tmp/base.json" 2>&1)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: exit $got, wanted $want"
    fails=$((fails + 1))
  elif ! printf '%s\n' "$out" | grep -Eq "$regex"; then
    echo "FAIL $name: no line matches /$regex/"
    fails=$((fails + 1))
  else
    echo "ok   $name"
  fi
}

gate bench-compare-ok 0 '^subject +baseline +current +delta$' 1.0
gate bench-compare-regression 1 'regressed more than 30% below' 1e12

if [ "$fails" -ne 0 ]; then
  printf '%s\n' "$out"
  exit 1
fi
