#!/bin/sh
# Fixed-behaviour parity: run the same deterministic outputs on the working
# tree and on REV (default HEAD), cmp each pair, and exit 1 on any
# difference.
#
#   scripts/parity.sh [REV]
#
# REV is extracted with `git archive` into a temporary directory under
# $TMPDIR and built there, so the repository gains no worktree metadata; the
# working tree is built in place.  Outputs compared (stdout plus exit
# status): smoke --json at seed 7 and at seed 1 with 4 PGs, obs --json at
# seed 3 (bare and with a 200-entry recorder tail), `vopr list`, the vopr
# run digest of every listed scenario at seeds 1-3 (replica-reads-across-crash
# also at seeds 4-6), the generated nemesis schedule's digest at seeds 1-5
# and 25 (slowdowns, crashes and AZ partitions drawn from the seed; 5 and
# 25 once exposed a stream gap), explain pg:0 of writer-crash-recovery, the file
# `trace-export` writes at seed 1, exp all at seed 1 (which runs the
# membership experiment, e5, at seed 4), e5 again at its default seed 21,
# and the replica experiment (e9) at seed 2.  For each cluster workload of the benchmark it
# also runs `perfbench.exe --workload W --seed 1 --smoke` and compares only
# its simulated rows (net.bytes_per_commit, net.msgs_per_commit,
# simcore.events_per_commit and every sim_*_us), then the same run with
# --trace and compares only the counts the traced run adds (the storage
# rows versions_per_key, bytes_per_user_byte, hot_log_records and
# gossip_fill_ratio, timer.events_per_commit and every
# handler.*.calls_per_commit).  A change that keeps the simulation's
# behaviour leaves all of these byte-identical; wall-clock rows are
# dropped.
# `exp all` takes a few minutes per side, so this is not part of check.sh.
set -eu

cd "$(dirname "$0")/.."
if [ $# -gt 1 ]; then
  echo "usage: scripts/parity.sh [REV]" >&2
  exit 2
fi
rev=${1:-HEAD}
if ! git rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
  echo "parity: unknown revision $rev" >&2
  exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/parity.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

mkdir "$work/tree"
git archive "$rev" | tar -x -C "$work/tree"
echo "parity: building the working tree and $rev" >&2
dune build ./bin/aurora_cli.exe ./perfbench/perfbench.exe
(cd "$work/tree" && dune build --root . ./bin/aurora_cli.exe ./perfbench/perfbench.exe)
here=$PWD/_build/default
there=$work/tree/_build/default

{
  echo "smoke --json --seed 7"
  echo "smoke --json --seed 1 --pgs 4"
  echo "obs --json --seed 3"
  echo "obs --json --seed 3 --trace-tail 200"
  echo "vopr list"
  "$here/bin/aurora_cli.exe" vopr list | while read -r name _; do
    for seed in 1 2 3; do echo "vopr run --scenario $name --seed $seed"; done
  done
  # More replica-read coverage: seeds 1-3 alone exercise few replica reads.
  for seed in 4 5 6; do
    echo "vopr run --scenario replica-reads-across-crash --seed $seed"
  done
  for seed in 1 2 3 4 5 25; do
    echo "vopr run --nemesis --seed $seed"
  done
  echo "explain pg:0 --scenario writer-crash-recovery"
  echo "trace-export --txns 200 --seed 1 -o trace.json"
  echo "exp all --seed 1"
  echo "exp e5 --seed 21"
  echo "exp e9 --seed 2"
  for workload in commit_long read_replica pg_fanout; do
    echo "perfbench --workload $workload --seed 1 --smoke"
    echo "perfbench --workload $workload --seed 1 --smoke --trace"
  done
} > "$work/cases"

# The simulated rows of a perfbench result line, one "name value" a line:
# the sim rows of every run, and the counts only a traced run prints.
sim_rows() {
  python3 -c '
import json, sys
lines = sys.stdin.read().strip().splitlines()
metrics = json.loads(lines[-1])["metrics"] if lines else {}
for name in sorted(metrics):
    if name.startswith("sim_") or name in (
        "net.bytes_per_commit", "net.msgs_per_commit", "simcore.events_per_commit",
        "storage.versions_per_key", "storage.bytes_per_user_byte",
        "storage.hot_log_records", "storage.gossip_fill_ratio",
        "timer.events_per_commit") or (
        name.startswith("handler.") and name.endswith(".calls_per_commit")):
        print(name, metrics[name])
'
}

# One side, given its dune build directory: every case in order, run inside
# $dir, case i's stdout and exit status in $dir/i.out, followed by the
# trace.json it wrote, if any.  A `perfbench` case runs the side's
# perfbench.exe and keeps its simulated rows and counts.  The two sides run
# concurrently.
run_side() {
  build=$1 dir=$2
  mkdir -p "$dir"
  i=0
  while read -r args; do
    i=$((i + 1))
    status=0
    case $args in
      perfbench\ *)
        # shellcheck disable=SC2086  # args is a word list on purpose
        (cd "$dir" && "$build/perfbench/perfbench.exe" ${args#perfbench }) \
          > "$dir/$i.json" 2> /dev/null || status=$?
        sim_rows < "$dir/$i.json" > "$dir/$i.out"
        ;;
      *)
        # shellcheck disable=SC2086  # args is a word list on purpose
        (cd "$dir" && "$build/bin/aurora_cli.exe" $args) > "$dir/$i.out" 2> /dev/null \
          || status=$?
        ;;
    esac
    echo "exit $status" >> "$dir/$i.out"
    if [ -f "$dir/trace.json" ]; then
      cat "$dir/trace.json" >> "$dir/$i.out"
      rm "$dir/trace.json"
    fi
  done < "$work/cases"
}

run_side "$here" "$work/here" &
here_pid=$!
run_side "$there" "$work/there"
wait "$here_pid"

fail=0
i=0
while read -r args; do
  i=$((i + 1))
  if cmp -s "$work/here/$i.out" "$work/there/$i.out"; then
    echo "same    $args"
  else
    echo "DIFFERS $args"
    diff "$work/there/$i.out" "$work/here/$i.out" | head -5 || true
    fail=1
  fi
done < "$work/cases"

if [ "$fail" -ne 0 ]; then
  echo "parity: working tree differs from $rev" >&2
  exit 1
fi
echo "parity: byte-identical to $rev ($i outputs)"
