#!/usr/bin/env bash
# Ablation sweep: the bench report plus the one-flag-at-a-time
# ablation matrix, all into a single output directory. This is what the
# ablation-matrix CI job runs (in --smoke mode) and what a workstation
# run uses to regenerate BENCH_efgame.json (full mode; copy bench.json
# over the committed baseline).
#
#   bench/sweep.sh OUTDIR [--smoke] [--reps N]
#
# Produces:
#   OUTDIR/bench.json            bench --json
#   OUTDIR/ablation-matrix.json  the ablate.exe matrix (schema efgame-ablate/1)
#
# Every report embeds the environment block (hostname, CPU, domain
# count, OCaml version), so downstream comparisons can detect — and
# refuse to hard-fail on — numbers from a different machine.
set -euo pipefail

outdir="${1:?usage: bench/sweep.sh OUTDIR [--smoke] [--reps N]}"
shift
# option pass-throughs are arrays, never word-split strings: every
# expansion below stays quoted and an empty option vanishes cleanly
smoke=()
reps=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=(--smoke); shift ;;
    --reps) reps=(--reps "$2"); shift 2 ;;
    *) echo "sweep.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$outdir"

echo "== bench ${smoke[*]:-} =="
dune exec bench/main.exe -- ${smoke[@]+"${smoke[@]}"} --json "$outdir/bench.json"

echo "== ablation matrix =="
dune exec bench/ablate.exe -- ${smoke[@]+"${smoke[@]}"} ${reps[@]+"${reps[@]}"} \
  --json "$outdir/ablation-matrix.json"

echo "sweep: reports in $outdir/"
