#!/bin/sh
# Tier-1 gate: build everything and run the full test suite, refusing to
# proceed if build artefacts have been staged (the repo must never track
# _build/; see .gitignore).
set -eu

cd "$(dirname "$0")/.."

# --diff-filter=d: staged deletions of _build/ files are fine (that's the
# cleanup); staged additions/modifications are not.
staged_build=$(git diff --cached --name-only --diff-filter=d | grep '^_build/' || true)
if [ -n "$staged_build" ]; then
  echo "error: _build/ files are staged for commit:" >&2
  echo "$staged_build" | head -5 >&2
  echo "run: git restore --staged _build/" >&2
  exit 1
fi

# Curated-scenario coverage: every scenario in the `vopr list` golden needs
# its digest golden and the test/golden/dune rule that diffs it, or a new
# scenario would pass runtest without its digest ever being checked.
uncovered=""
for name in $(cut -d' ' -f1 test/golden/vopr_list.txt); do
  [ -f "test/golden/vopr_$name.txt" ] || uncovered="$uncovered $name:golden"
  grep -qF "(diff? vopr_$name.txt vopr_$name.txt.out)" test/golden/dune \
    || uncovered="$uncovered $name:rule"
done
if [ -n "$uncovered" ]; then
  echo "error: curated vopr scenarios without a digest check:$uncovered" >&2
  exit 1
fi

# Build-profile gate: the default context is the build perfbench measures,
# so it must compile libraries without -opaque (dev's -opaque stops every
# cross-module inline), and every directory must see exactly the pinned
# warning set of the root dune file, with no stanza overriding it.
rng_cmx=_build/default/lib/simcore/.simcore.objs/native/simcore__Rng.cmx
rng_rule=$(dune rules "$rng_cmx")
if ! echo "$rng_rule" | grep -q -- 'ocamlopt'; then
  echo "error: dune rules printed no ocamlopt command for $rng_cmx" >&2
  exit 1
fi
if echo "$rng_rule" | grep -q -- '-opaque'; then
  echo "error: the default build compiles lib/ with -opaque (is dune-workspace's profile release?)" >&2
  exit 1
fi
pinned_flags='(flags (-w @1..3@5..28@30..39@43@46..47@49..57@61..62-40 -strict-sequence -strict-formats -short-paths -keep-locs -warn-error +32+33))'
pinned_opt='(ocamlopt_flags (-g -inline 200))'
for dir in $(find lib bin test bench perfbench -name dune -exec dirname {} \; | sort); do
  env_flags=$(dune printenv "$dir" | tr -s ' \n' ' ')
  for want in "$pinned_flags" "$pinned_opt"; do
    case "$env_flags" in
      *"$want"*) ;;
      *) echo "error: dune printenv $dir does not print $want" >&2; exit 1 ;;
    esac
  done
done
stanza_flags=$(find lib bin test bench perfbench -name dune -exec grep -lE '\((flags|ocamlc_flags|ocamlopt_flags)([[:space:]]|$)' {} + || true)
if [ -n "$stanza_flags" ]; then
  echo "error: stanza-level flags override the root warning policy in:" $stanza_flags >&2
  exit 1
fi

dune build @all

# Static-analysis gate: aurora_lint reads the compiler's typed trees (.cmt)
# of every unit under lib/ bin/ bench/ test/ perfbench/ and fails on any
# finding not frozen in lint/baseline.txt: determinism, stable iteration,
# protocol-type discipline, raw LSN arithmetic, generic tables on the commit
# path, interface coverage, sim-state purity, protocol/event coverage, and
# any source without a readable typed tree (see DESIGN.md §6).  Runs before
# the runtime determinism gate because it rejects the *root causes* the byte
# diff below can only catch probabilistically.
dune build @lint

# Includes the golden gate (test/golden): smoke/obs JSON, every curated
# vopr digest at seeds 1-3 and explain, byte-compared with the committed
# expected outputs.
dune runtest

# Benchmark smoke: every perfbench workload at tiny scale, traced and
# untraced.  Checks the [Sim.set_probe] contract perfbench/tracer.ml relies
# on (the deterministic rows match with the probe on and off) and that every
# metric is measured (~20 s).
python3 perfbench/run.py --smoke

# The slow golden: `exp all --seed 1` (every experiment table), diffed the
# same way.  Accept an intended change with `dune promote`.
dune build @golden-exp

# VOPR smoke: three short curated fault scenarios, a digest-determinism
# double-run, and a 25-seed nemesis mini-swarm — every run must end with
# zero semantic-invariant violations (see DESIGN.md section 7).
dune build @vopr-smoke

# Flight-recorder smoke: force a curated scenario to fail, shrink it, and
# verify the repro artifact carries recorder rings whose explain output is
# byte-deterministic and covers send -> ack -> VCL advance -> commit ack
# (see DESIGN.md section 8).
dune build @recorder-smoke

# Determinism gate: the whole sim (including the observability sampler,
# time-series decimation, and health sampler) must be byte-identical across reruns
# of the same seed.  Any nondeterminism (hash-order iteration, wall-clock
# leakage, unseeded randomness) shows up here as a byte diff.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec --no-build bin/aurora_cli.exe -- smoke --json --seed 7 > "$tmpdir/a.json"
dune exec --no-build bin/aurora_cli.exe -- smoke --json --seed 7 > "$tmpdir/b.json"
if ! cmp -s "$tmpdir/a.json" "$tmpdir/b.json"; then
  echo "error: smoke --json is not deterministic across reruns of seed 7" >&2
  diff "$tmpdir/a.json" "$tmpdir/b.json" | head -10 >&2
  exit 1
fi

echo "check.sh: all green (determinism gate: byte-identical reruns)"
