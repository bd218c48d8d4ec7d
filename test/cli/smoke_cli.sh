#!/bin/sh
# Cram-style smoke tests for the ihnetctl CLI: pin exit codes and
# first-line output shapes so flag renames and format drift fail
# loudly in CI instead of silently breaking operator scripts.
set -u
CTL="$1"
DAEMON="$2"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fails=0

# expect NAME WANT_EXIT FIRST_LINE_REGEX CMD...: run CMD, check the
# exit code and match the first line of combined output.
expect() {
  name="$1" want="$2" regex="$3"
  shift 3
  out=$("$@" 2>&1)
  got=$?
  first=$(printf '%s\n' "$out" | head -n 1)
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: exit $got, wanted $want (first line: $first)"
    fails=$((fails + 1))
  elif ! printf '%s\n' "$first" | grep -Eq "$regex"; then
    echo "FAIL $name: first line '$first' does not match /$regex/"
    fails=$((fails + 1))
  else
    echo "ok   $name"
  fi
}

# expect_any NAME WANT_EXIT REGEX CMD...: like expect, but the regex
# may match any line (for shapes that follow a header).
expect_any() {
  name="$1" want="$2" regex="$3"
  shift 3
  out=$("$@" 2>&1)
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

# a daemon run that should exit at once, bounded in case it serves
bounded=""
if command -v timeout >/dev/null 2>&1; then bounded="timeout 20"; fi

expect scan-summary 0 \
  '^scan: epoch [0-9]+, [0-9]+ registers, digest 0x[0-9a-f]{16}$' \
  "$CTL" scan --load --ms 2 -o "$tmp/a.scan.json"
expect scan-diff-same 0 \
  '^scan diff: identical \([0-9]+ registers compared\)$' \
  "$CTL" scan --diff "$tmp/a.scan.json" "$tmp/a.scan.json"
"$CTL" scan --load --ms 3 -o "$tmp/b.scan.json" >/dev/null 2>&1
expect scan-diff-differ 1 \
  '^scan diff: [^ ]+: .+ vs .+ \([0-9]+ register\(s\) differ\)$' \
  "$CTL" scan --diff "$tmp/a.scan.json" "$tmp/b.scan.json"
expect scan-diff-missing-args 1 \
  '^ihnetctl: scan --diff needs two snapshot files' \
  "$CTL" scan --diff
expect scan-step 0 \
  '^scan: epoch [0-9]+, [0-9]+ registers, digest 0x[0-9a-f]{16}$' \
  "$CTL" scan --load --ms 1 --step 2
expect_any scan-step-lines 0 \
  '^step 1: epoch [0-9]+, digest 0x[0-9a-f]{16}$' \
  "$CTL" scan --load --ms 1 --step 2
expect latency 0 \
  '^flow end-to-end latency: ' \
  "$CTL" latency --load --ms 2
expect_any ping-rtt 0 \
  '^rtt min/p50/p99/max = ' \
  "$CTL" ping nic0 dimm0.0.0 -c 5
expect_any scenario-kv-p99 0 \
  '^ +kv p99 +[0-9.]+ [a-z]+$' \
  "$CTL" scenario colocation --ms 5
"$CTL" record -s e5 -o "$tmp/e5.trace.jsonl" >/dev/null 2>&1
expect faults 0 \
  '^trace .*: [0-9]+ link fault\(s\), [0-9]+ sensor fault\(s\) active at end$' \
  "$CTL" faults "$tmp/e5.trace.jsonl"
"$CTL" record -s e17 -o "$tmp/e17.trace.jsonl" >/dev/null 2>&1
expect faults-timeline 0 \
  '^ +2000000  link 28   fault: capacity x0\.05$' \
  "$CTL" faults -t "$tmp/e17.trace.jsonl"

# Topology files: the file's own config line holds, and one that does
# not parse exits 2 naming the file and line, from either binary
"$CTL" spec | sed 's/^config .*/config ddio=off mps=128/' >"$tmp/cfg.topo"
expect_any topo-file-config 0 \
  '^config: .* ddio=off mps=128 ' \
  "$CTL" topo -f "$tmp/cfg.topo"
printf 'host broken\nswitch sw0 at 9:9\n' >"$tmp/bad.topo"
expect topo-file-malformed 2 \
  "^.*bad\\.topo: line 2: at 9:9: socket 9 has no root complex$" \
  "$CTL" topo -f "$tmp/bad.topo"
expect daemon-topo-file-malformed 2 \
  "^.*bad\\.topo: line 2: at 9:9: socket 9 has no root complex$" \
  $bounded "$DAEMON" --topo-file "$tmp/bad.topo" --socket "$tmp/never.sock" --no-trace
# check takes the host flags too, so a file is checked in-process
"$CTL" spec | sed 's/^nic  nic0 on sw0 port=200$/nic  nic0 on sw0 port=400/' >"$tmp/fast.topo"
expect check-topo-file 1 \
  '^finding: nic nic0: inter-host port \(400 Gbps\) outruns its PCIe slot \(31\.5 GB/s\)$' \
  "$CTL" check -f "$tmp/fast.topo"

# a name the topology does not know is refused in the topology's words
expect ping-unknown-device 1 '^ihnetctl: no device nope$' \
  "$CTL" ping nope socket0 -c 1
expect heartbeat-no-link 1 '^ihnetctl: no link between nic0 and socket1$' \
  "$CTL" heartbeat --degrade nic0:socket1

expect fleet 0 \
  '^fleet: 3 host\(s\), 4 tenant\(s\)$' \
  "$CTL" fleet --hosts 3 --tenants 4 --rounds 24
expect_any fleet-status-header 0 \
  '^fleet: 3 host\(s\), 24 round\(s\)$' \
  "$CTL" fleet --hosts 3 --tenants 4 --rounds 24
expect_any fleet-one-round 0 \
  ', round 1, [0-9]+ decision\(s\)$' \
  "$CTL" fleet --hosts 1 --tenants 1 --rounds 1
expect fleet-empty 0 \
  '^fleet: 0 host\(s\), 0 tenant\(s\)$' \
  "$CTL" fleet --hosts 0 --tenants 0 --rounds 0
expect fleet-negative-rounds 1 \
  '^ihnetctl: fleet: --rounds must be >= 0 \(got -2\)$' \
  "$CTL" fleet --rounds=-2
expect_any fleet-bad-loss 1 \
  '^ihnetctl: fleet_loss: loss must be in \[0, 1\] \(got 1\.5\)$' \
  "$CTL" fleet --hosts 2 --loss 1.5
expect_any fleet-crash-failover 0 \
  '^  migrate tenant [0-9]+ host1 -> host[0-9]+ \(host-down\)$' \
  "$CTL" fleet --hosts 3 --tenants 4 --rounds 24 --crash host1 --decisions
expect_any fleet-reconcile 0 \
  '^  reconcile host0: revoke stray tenant\(s\) [0-9]+' \
  "$CTL" fleet --hosts 3 --tenants 3 --rounds 24 --partition host0 --decisions
expect_any fleet-digest 0 \
  '^fleet digest 0x[0-9a-f]{16} decisions 0x[0-9a-f]{16}$' \
  "$CTL" fleet --hosts 2 --tenants 2 --rounds 12
expect_any fleet-unknown-host 1 \
  '^ihnetctl: Fleet.Controller: unknown host "nope"$' \
  "$CTL" fleet --hosts 2 --rounds 12 --crash nope

# Daemon smoke: start ihnetd, drive it over the socket (happy paths,
# typed wire errors with their documented exit codes, out-of-range
# fields), shut it down cleanly, then replay the recorded session.
# await_socket PATH: wait up to 5 s for a daemon to bind PATH
await_socket() {
  i=0
  while [ ! -S "$1" ] && [ "$i" -lt 100 ]; do
    sleep 0.05
    i=$((i + 1))
  done
  [ -S "$1" ]
}

dsock="$tmp/d.sock"
dtrace="$tmp/d.trace.jsonl"
"$DAEMON" --socket "$dsock" --trace "$dtrace" --seed 7 2>"$tmp/d.err" &
dpid=$!
if ! await_socket "$dsock"; then
  echo "FAIL daemon-start: socket never appeared ($(cat "$tmp/d.err"))"
  fails=$((fails + 1))
else
  expect daemon-topo 0 \
    '^two-socket-server: 34 devices' \
    "$CTL" topo --connect "$dsock"
  expect daemon-flow 0 \
    '^started flow [0-9]+$' \
    "$CTL" flow ext socket0 --gbps 2 --connect "$dsock"
  expect daemon-submit 0 \
    '^tenant 1: [0-9]+ placement\(s\)$' \
    "$CTL" submit -t 1 --pipe nic0:socket0:2 --connect "$dsock"
  expect daemon-stats 0 \
    '^now .*aggregate$' \
    "$CTL" stats --connect "$dsock"
  expect daemon-capacity-exhausted 16 \
    '^ihnetctl: tenant 9: no pathway can hold ' \
    "$CTL" submit -t 9 --pipe nic0:socket0:5000 --connect "$dsock"
  expect daemon-wrong-mode 4 \
    '^ihnetctl: daemon is in host mode; command unavailable$' \
    "$CTL" fleet --connect "$dsock"
  # each of these frames once killed the daemon through an engine
  # assertion; now each is a typed Invalid (exit 1), and the shutdown,
  # exit and replay checks below show the daemon survived them
  expect daemon-bad-ping-count 1 \
    '^ihnetctl: ping: count must be > 0 \(got -5\)$' \
    "$CTL" ping nic0 dimm0.0.0 --count=-5 --load --connect "$dsock"
  expect daemon-bad-run-negative 1 \
    '^ihnetctl: run_for: ms must be finite and >= 0 \(got -1\)$' \
    "$CTL" run --ms=-1 --connect "$dsock"
  expect daemon-bad-run-nan 1 \
    '^ihnetctl: run_for: ms must be finite and >= 0 \(got nan\)$' \
    "$CTL" run --ms=nan --connect "$dsock"
  expect daemon-bad-latency 1 \
    '^ihnetctl: latency: ms must be finite and >= 0 \(got -5\)$' \
    "$CTL" latency --ms=-5 --connect "$dsock"
  expect daemon-bad-fault-factor 1 \
    '^ihnetctl: fault_inject: factor must be in \[0, 1\] \(got 2\)$' \
    "$CTL" fault gpu0:pciesw0 --factor 2 --connect "$dsock"
  expect daemon-bad-plan-headroom 1 \
    '^ihnetctl: plan: headroom must be in \(0, 1\] \(got 1.5\)$' \
    "$CTL" plan --pipe ext:socket0:10 --headroom 1.5 --connect "$dsock"
  expect daemon-bad-monitor-period 1 \
    '^ihnetctl: monitor: period_us must be finite and > 0 \(got 0\)$' \
    "$CTL" monitor --period 0 --ms 1 --connect "$dsock"
  expect daemon-bad-monitor-period-negative 1 \
    '^ihnetctl: monitor: period_us must be finite and > 0 \(got -5\)$' \
    "$CTL" monitor --period=-5 --ms 1 --connect "$dsock"
  expect daemon-bad-monitor-period-nan 1 \
    '^ihnetctl: monitor: period_us must be finite and > 0 \(got nan\)$' \
    "$CTL" monitor --period nan --ms 1 --connect "$dsock"
  # a NaN rate once stayed registered beside its refusal, and every
  # later start on its component was refused too
  expect daemon-bad-flow-gbps-nan 1 \
    '^ihnetctl: flow_start: gbps must be >= 0 \(got nan\)$' \
    "$CTL" flow ext socket0 --gbps nan --connect "$dsock"
  expect daemon-flow-after-nan 0 \
    '^started flow [0-9]+$' \
    "$CTL" flow ext socket0 --connect "$dsock"
  # a NaN rate once passed validation and came back as a capacity
  # refusal (exit 16)
  expect daemon-bad-submit-nan 10 \
    '^ihnetctl: intent target with non-finite rate$' \
    "$CTL" submit -t 9 --pipe nic0:socket0:nan --connect "$dsock"
  # a second daemon on the live socket is refused before it opens (and
  # truncates) its trace file, and a regular file at the path is
  # refused untouched; a daemon that took the path over would serve
  # forever, hence the time bound
  printf 'kept\n' >"$tmp/second.trace.jsonl"
  expect daemon-socket-live 1 \
    "^ihnetd: .*d\\.sock: a server is already listening on this socket$" \
    $bounded "$DAEMON" --socket "$dsock" --trace "$tmp/second.trace.jsonl"
  expect daemon-socket-live-trace-kept 0 '^kept$' cat "$tmp/second.trace.jsonl"
  printf 'kept\n' >"$tmp/notes.txt"
  expect daemon-socket-file 1 \
    "^ihnetd: .*notes\\.txt: exists and is not a socket; refusing to replace it$" \
    $bounded "$DAEMON" --socket "$tmp/notes.txt" --no-trace
  expect daemon-socket-file-kept 0 '^kept$' cat "$tmp/notes.txt"
  expect daemon-shutdown 0 \
    '^bye$' \
    "$CTL" shutdown --connect "$dsock"
  wait "$dpid"
  dstatus=$?
  if [ "$dstatus" -ne 0 ]; then
    echo "FAIL daemon-exit: ihnetd exited $dstatus ($(cat "$tmp/d.err"))"
    fails=$((fails + 1))
  else
    echo "ok   daemon-exit"
  fi
  expect daemon-replay 0 \
    '^replayed [0-9]+ command\(s\): ' \
    "$CTL" replay "$dtrace"
  expect_any daemon-replay-clean 0 \
    '^no divergence$' \
    "$CTL" replay "$dtrace"
fi

# A scan step on a host whose queue holds only the manager's idle shim
# (a placed pipe, no flow) once never returned, and the daemon answered
# nothing more: it now gives up at its event budget with no epoch. The
# commands are time-bounded and the daemon is killed at the end, so a
# daemon stuck in a step fails here instead of hanging the suite.
ssock="$tmp/s.sock"
"$DAEMON" --preset minimal --socket "$ssock" --no-trace 2>"$tmp/s.err" &
spid=$!
if ! await_socket "$ssock"; then
  echo "FAIL step-daemon-start: socket never appeared ($(cat "$tmp/s.err"))"
  fails=$((fails + 1))
else
  expect step-daemon-submit 0 \
    '^tenant 1: [0-9]+ placement\(s\)$' \
    $bounded "$CTL" submit -t 1 --pipe nic0:socket0:10 --connect "$ssock"
  expect_any step-daemon-scan-idle 0 \
    '^no further epoch after 0 epoch\(s\)$' \
    $bounded "$CTL" scan --step 1 --connect "$ssock"
  expect step-daemon-stats-after 0 \
    '^now .*aggregate$' \
    $bounded "$CTL" stats --connect "$ssock"
  expect step-daemon-shutdown 0 '^bye$' $bounded "$CTL" shutdown --connect "$ssock"
fi
kill "$spid" 2>/dev/null
wait "$spid" 2>/dev/null

# A daemon serving a topology file: check inspects the served host (it
# once checked a fresh minimal host and reported it clean)
csock="$tmp/c.sock"
"$DAEMON" --topo-file "$tmp/fast.topo" --socket "$csock" --no-trace 2>"$tmp/c.err" &
cpid=$!
if ! await_socket "$csock"; then
  echo "FAIL topo-daemon-start: socket never appeared ($(cat "$tmp/c.err"))"
  fails=$((fails + 1))
else
  expect daemon-check-served-host 1 \
    '^finding: nic nic0: inter-host port \(400 Gbps\) outruns its PCIe slot ' \
    "$CTL" check --connect "$csock"
  expect topo-daemon-shutdown 0 '^bye$' "$CTL" shutdown --connect "$csock"
  wait "$cpid"
fi

# Fleet daemon: a submit is validated before the controller queues it;
# a bad one was once Acked and parked the tenant as fleet-degraded
fsock="$tmp/f.sock"
"$DAEMON" --fleet --socket "$fsock" --no-trace 2>"$tmp/f.err" &
fpid=$!
if ! await_socket "$fsock"; then
  echo "FAIL fleet-daemon-start: socket never appeared ($(cat "$tmp/f.err"))"
  fails=$((fails + 1))
else
  expect fleet-daemon-bad-submit-nan 10 \
    '^ihnetctl: intent target with non-finite rate$' \
    "$CTL" submit --fleet -t 1 --pipe nic0:socket0:nan --connect "$fsock"
  expect fleet-daemon-bad-submit-negative 10 \
    '^ihnetctl: intent target with non-positive rate$' \
    "$CTL" submit --fleet -t 1 --pipe nic0:socket0:-1 --connect "$fsock"
  expect_any fleet-daemon-run 0 \
    '^fleet: 2 host\(s\), 6 round\(s\)$' \
    "$CTL" fleet --hosts 2 --tenants 2 --rounds 6 --connect "$fsock"
  # no hosts, tenants or rounds: a plain status read
  expect_any fleet-daemon-status 0 \
    '^fleet: 2 host\(s\), 6 round\(s\)$' \
    "$CTL" fleet --hosts 0 --tenants 0 --rounds 0 --connect "$fsock"
  # the daemon's controller was seeded by ihnetd --seed
  expect fleet-daemon-seed 1 \
    '^ihnetctl: fleet: --seed seeds only the in-process controller; use ihnetd --seed$' \
    "$CTL" fleet --seed 7 --connect "$fsock"
  expect fleet-daemon-check 4 \
    '^ihnetctl: daemon is in fleet mode; command unavailable$' \
    "$CTL" check --connect "$fsock"
  expect fleet-daemon-shutdown 0 '^bye$' "$CTL" shutdown --connect "$fsock"
  wait "$fpid"
  fstatus=$?
  if [ "$fstatus" -ne 0 ]; then
    echo "FAIL fleet-daemon-exit: ihnetd exited $fstatus ($(cat "$tmp/f.err"))"
    fails=$((fails + 1))
  else
    echo "ok   fleet-daemon-exit"
  fi
fi

# One fleet script, two paths: in-process and against a fresh fleet
# daemon (same default seed), the output is byte-identical; so is the
# in-process run at pool width 4, where worker domains exist while the
# status block is printed
gsock="$tmp/g.sock"
"$DAEMON" --fleet --socket "$gsock" --no-trace 2>"$tmp/g.err" &
gpid=$!
if ! await_socket "$gsock"; then
  echo "FAIL fleet-twin-daemon-start: socket never appeared ($(cat "$tmp/g.err"))"
  fails=$((fails + 1))
else
  twin="--hosts 3 --tenants 4 --rounds 12 --crash host1 --loss 0.2 --decisions"
  "$CTL" fleet $twin >"$tmp/twin.local" 2>&1
  IHNET_DOMAINS=4 "$CTL" fleet $twin >"$tmp/twin.wide" 2>&1
  "$CTL" fleet $twin --connect "$gsock" >"$tmp/twin.remote" 2>&1
  expect fleet-connect-identical 0 '' cmp "$tmp/twin.local" "$tmp/twin.remote"
  expect fleet-wide-identical 0 '' cmp "$tmp/twin.wide" "$tmp/twin.remote"
  expect_any fleet-connect-status 0 \
    '^fleet digest 0x[0-9a-f]{16} decisions 0x[0-9a-f]{16}$' \
    cat "$tmp/twin.remote"
  expect fleet-twin-daemon-shutdown 0 '^bye$' "$CTL" shutdown --connect "$gsock"
  wait "$gpid"
fi

# Fault lines name the controller's round, as the status block does:
# after a 30-round script, a second script's crash lands at the
# daemon's round 40 (it once printed "round 10", this invocation's own
# count, above a status block at round 60)
hsock="$tmp/h.sock"
"$DAEMON" --fleet --seed 7 --socket "$hsock" --no-trace 2>"$tmp/h.err" &
hpid=$!
if ! await_socket "$hsock"; then
  echo "FAIL fleet-clock-daemon-start: socket never appeared ($(cat "$tmp/h.err"))"
  fails=$((fails + 1))
else
  expect fleet-clock-first 0 \
    '^fleet: 8 host\(s\), 12 tenant\(s\)$' \
    "$CTL" fleet --hosts 8 --tenants 12 --connect "$hsock"
  "$CTL" fleet --hosts 0 --tenants 0 --crash host1 --decisions --connect "$hsock" \
    >"$tmp/clock.out" 2>&1
  expect_any fleet-clock-crash 0 '^round 40: crashed host1$' cat "$tmp/clock.out"
  expect_any fleet-clock-restart 0 '^round 50: restarted host1$' cat "$tmp/clock.out"
  expect fleet-clock-daemon-shutdown 0 '^bye$' "$CTL" shutdown --connect "$hsock"
  wait "$hpid"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI smoke(s) failed"
  exit 1
fi
echo "all CLI smokes passed"
