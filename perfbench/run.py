#!/usr/bin/env python3
"""Repository benchmark runner.

Builds perfbench.exe from the checkout this file sits in, then runs a workload
as repeated repetitions, each in a fresh process, and prints every metric
BENCHMARK.json names, with its unit:

  python3 perfbench/run.py --workload commit_long --seed 3 --trace 0
  python3 perfbench/run.py --seed 3            # every workload, interleaved
  python3 perfbench/run.py --smoke             # all paths at tiny scale

--trace 0 reports the end-to-end metrics: the median of repetitions repeated
until --seconds have passed (at least MIN_REPS), with quartiles, min and max
in the table above the result line.  --trace 1 reports the per-layer metrics:
one untraced and one traced repetition of the same seed, plus the Bechamel
micro suite.  The last stdout line of a single-workload run is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit status: 0 when correct,
1 on a correctness failure or a missing repository, 2 on bad arguments.
See perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "default" / "perfbench" / "perfbench.exe"
MICRO_EXE = BUILD / "default" / "bench" / "main.exe"
MIN_REPS = 2
REP_TIMEOUT_S = 150
# Sim-side rows that must not change when the run is traced.
SAME_WHEN_TRACED = [
    "sim_commit_p50_us",
    "sim_commit_p99_us",
    "simcore.events_per_commit",
    "net.msgs_per_commit",
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_contract():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    if not ((ROOT / "dune-project").is_file() and (ROOT / "lib").is_dir()):
        die("%s holds no repository to build" % ROOT)
    # Keep every write inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=str(BUILD / "cache"))
    cmd = ["dune", "build", "--root", str(ROOT), "--build-dir", str(BUILD),
           "./perfbench/perfbench.exe", "./bench/main.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        die("build failed")


def rep(workload, seed, *flags):
    """One repetition in a fresh process; returns its parsed result line."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed), *flags]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s took over %d s" % (" ".join(cmd), REP_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        die("%s exited %d" % (" ".join(cmd), r.returncode))
    return json.loads(lines[-1])


def micro():
    """The existing Bechamel suite, one micro.<slug>_ns row per benchmark."""
    r = subprocess.run([str(MICRO_EXE), "micro"], capture_output=True, text=True,
                       timeout=REP_TIMEOUT_S)
    if r.returncode != 0:
        die("micro suite exited %d" % r.returncode)
    rows = {}
    for line in r.stdout.splitlines():
        m = re.match(r"^(\S.*?)\s+([0-9.]+) ns/op$", line)
        if m:
            slug = re.sub(r"[^a-z0-9]+", "_", m.group(1).lower()).strip("_")
            rows["micro.%s_ns" % slug] = float(m.group(2))
    return rows


def spread_table(names, units, reps):
    for name in names:
        vals = sorted(r["metrics"][name] for r in reps if name in r["metrics"])
        if not vals:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        print("  %-24s %14.6g  q1 %.6g  q3 %.6g  min %.6g  max %.6g  %s  (n=%d)"
              % (name, statistics.median(vals), q1, q3, vals[0], vals[-1], units[name],
                 len(vals)))


def end_to_end(contract, workloads, seed, seconds):
    """Interleaved repetitions (W1 W2 .. W1 ..) until each workload has had
    [seconds] of wall time and MIN_REPS repetitions; medians per workload."""
    reps = {w: [] for w in workloads}
    spent = {w: 0.0 for w in workloads}
    while any(len(reps[w]) < MIN_REPS or spent[w] < seconds for w in workloads):
        for w in workloads:
            if len(reps[w]) < MIN_REPS or spent[w] < seconds:
                t0 = time.monotonic()
                reps[w].append(rep(w, seed))
                spent[w] += time.monotonic() - t0
    names = [m["name"] for m in contract["end_to_end"]]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    results = {}
    for w in workloads:
        print("%s (seed %d, %d repetitions):" % (w, seed, len(reps[w])))
        spread_table(names, units, reps[w])
        results[w] = {
            "correct": all(r["correct"] for r in reps[w]),
            "attempted": sum(r["attempted"] for r in reps[w]),
            "failed": sum(r["failed"] for r in reps[w]),
            "metrics": {n: {"value": statistics.median(r["metrics"][n] for r in reps[w]),
                            "unit": units[n]} for n in names},
        }
    return results


def per_layer(contract, workload, seed, smoke=False, micro_rows=None):
    """One untraced and one traced repetition of the same seed.  Rows the
    workload does not exercise read 0."""
    flags = ["--smoke"] if smoke else []
    base = rep(workload, seed, *flags)
    traced = rep(workload, seed, "--trace", *flags)
    correct = base["correct"] and traced["correct"]
    for n in SAME_WHEN_TRACED:
        if base["metrics"].get(n) != traced["metrics"].get(n):
            print("perfbench: %s differs when traced: %s vs %s"
                  % (n, base["metrics"].get(n), traced["metrics"].get(n)), file=sys.stderr)
            correct = False
    measured = {**base["metrics"], **traced["metrics"],
                **(micro() if micro_rows is None else micro_rows)}
    measured["trace.overhead_pct"] = 100.0 * (
        traced["metrics"]["window_ref_ns"] / base["metrics"]["window_ref_ns"] - 1.0)
    return {
        "correct": correct,
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in contract["per_layer"]},
    }, measured


def smoke(contract):
    """Every workload at smoke scale, untraced and traced: outputs correct, every
    end-to-end metric measured on every workload, every per-layer metric measured
    on some workload, and bad arguments rejected with exit code 2."""
    ok = True
    seen = set()
    rows = micro()
    for w in [x["name"] for x in contract["workloads"]]:
        result, measured = per_layer(contract, w, 2, smoke=True, micro_rows=rows)
        missing = [m["name"] for m in contract["end_to_end"] if m["name"] not in measured]
        seen |= set(measured)
        good = result["correct"] and not missing
        print("smoke %-14s %s%s" % (w, "ok" if good else "FAILED",
                                    "" if not missing else " missing: " + " ".join(missing)))
        ok = ok and good
    unmeasured = [m["name"] for m in contract["per_layer"] if m["name"] not in seen]
    if unmeasured:
        print("smoke: per-layer metrics no workload measures: " + " ".join(unmeasured))
        ok = False
    for bad in (["--workload", "nope", "--seed", "1"], ["--workload", "pg_fanout", "--seed", "x"],
                ["--seed", "1"], ["--workload", "pg_fanout", "--seed", "1", "--bogus"]):
        code = subprocess.run([str(EXE), *bad], capture_output=True).returncode
        if code != 2:
            print("smoke: perfbench.exe %s exited %d, not 2" % (" ".join(bad), code))
            ok = False
    print("smoke: " + ("ok" if ok else "FAILED"))
    return ok


def main():
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, help="one workload (default: all, interleaved)")
    p.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    p.add_argument("--seconds", type=int, default=contract["run_seconds"],
                   help="wall time per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="every path at tiny scale, then exit")
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be non-negative")
    if a.seconds < 1:
        p.error("--seconds must be positive")
    build()
    if a.smoke:
        sys.exit(0 if smoke(contract) else 1)
    workloads = [a.workload] if a.workload else names
    if a.trace:
        results = {w: per_layer(contract, w, a.seed)[0] for w in workloads}
    else:
        results = end_to_end(contract, workloads, a.seed, a.seconds)
    for w in workloads:
        line = results[w] if a.workload else {"workload": w, **results[w]}
        print(json.dumps(line))
    sys.exit(0 if all(r["correct"] and r["failed"] == 0 for r in results.values()) else 1)


if __name__ == "__main__":
    main()
