#!/usr/bin/env python3
"""Build and run the ihnet benchmark (see perfbench/README.md).

One run, from the root of the repository:

    python3 perfbench/run.py --workload host-churn --seed 1 --seconds 24 --trace 0

builds perfbench/main.exe with dune, runs it with IHNET_DOMAINS,
IHNET_WARM and OCAMLRUNPARAM cleared, in a scratch directory under
.perfbench/ that holds the daemon socket, the trace file and the
Runtime_events ring and is removed afterwards, and passes its exit code
through. The last line of standard output is the JSON result.
--trace 1 gives the per-layer metrics and keeps the spans under
.perfbench/spans/. --check also replays the recorded daemon session.

Noise report:

    python3 perfbench/run.py --noise 10 --seconds 24

runs every workload (or only --workload) N times, one seed per round
from --seed upwards, alternating the workload order between rounds, and
prints the median, quartiles and spread of every metric, plus the gap
between the medians of the even and the odd rounds. This is the
evidence the bounds in BENCHMARK.json are set from. Each run's full
output is kept under .perfbench/noise/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["host-churn", "ihnetd-rpc", "fleet-round"]
TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = ".perfbench"
CLEARED = [
    "IHNET_DOMAINS",
    "IHNET_WARM",
    "OCAMLRUNPARAM",
    "OCAML_RUNTIME_EVENTS_START",
    "OCAML_RUNTIME_EVENTS_PRESERVE",
]
RUN_TIMEOUT_S = 170


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    try:
        done = subprocess.run(
            cmd + ["build", "--root", ".", TARGET],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: cannot build {TARGET}: {e}")
    if done.returncode != 0 or not os.path.isfile(EXE):
        sys.exit(f"perfbench: building {TARGET} failed")


def run_once(workload, seed, seconds, trace, check=False):
    """Runs main.exe once; returns (exit code, stdout lines)."""
    scratch = os.path.abspath(os.path.join(WORK, f"run-{os.getpid()}"))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env["OCAML_RUNTIME_EVENTS_DIR"] = scratch
    args = [
        os.path.abspath(EXE),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if check:
        args.append("--check")
    if trace:
        spans = os.path.abspath(os.path.join(WORK, "spans"))
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.tsv")]
    try:
        done = subprocess.run(
            args, cwd=scratch, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
        return done.returncode, done.stdout.splitlines()
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        print(out, file=sys.stderr)
        return 124, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def parse_result(lines):
    """The JSON result on the last line, or None when it is malformed."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def declared(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def single(a):
    code, lines = run_once(a.workload, a.seed, a.seconds, a.trace, a.check)
    print(f"perfbench: nproc={os.cpu_count()} python={sys.version.split()[0]}")
    for line in lines:
        print(line)
    if code != 0:
        return code
    res = parse_result(lines)
    if res is None:
        print("perfbench: the run printed no valid result", file=sys.stderr)
        return 1
    printed = {(name, m["unit"]) for name, m in res["metrics"].items()}
    if printed != declared(a.trace):
        print("perfbench: the run's metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    return 0


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def noise(a):
    workloads = [a.workload] if a.workload else WORKLOADS
    values = {w: {} for w in workloads}
    by_round = {w: {} for w in workloads}
    logs = os.path.join(WORK, "noise")
    os.makedirs(logs, exist_ok=True)
    for i in range(a.noise):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = a.seed + i
            code, lines = run_once(w, seed, a.seconds, a.trace, a.check)
            with open(os.path.join(logs, f"{w}-round{i}-seed{seed}.txt"), "w") as f:
                f.write("\n".join(lines) + "\n")
            res = parse_result(lines)
            if code != 0 or res is None or not res["correct"]:
                print(f"{w} seed {seed}: run failed (exit {code})", file=sys.stderr)
                for line in lines[-20:]:
                    print("  " + line, file=sys.stderr)
                return 1
            for m, v in res["metrics"].items():
                values[w].setdefault(m, []).append(v["value"])
                by_round[w].setdefault(m, []).append((i, v["value"]))
            print(f"round {i} {w} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()), flush=True)
    print()
    print(f"{'workload':12} {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'even/odd':>9}")
    for w in workloads:
        for m, xs in values[w].items():
            q1, med, q3 = quartiles(xs)
            spread = (q3 - q1) / med if med else 0.0
            even = [v for i, v in by_round[w][m] if i % 2 == 0]
            odd = [v for i, v in by_round[w][m] if i % 2 == 1]
            gap = 0.0
            if even and odd and statistics.median(even):
                gap = statistics.median(odd) / statistics.median(even) - 1.0
            print(f"{w:12} {m:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {gap:+9.2%}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--check", action="store_true")
    p.add_argument("--noise", type=int, default=0, metavar="N")
    a = p.parse_args()
    if not a.noise and not a.workload:
        p.error("give --workload or --noise")
    build()
    return noise(a) if a.noise else single(a)


if __name__ == "__main__":
    sys.exit(main())
