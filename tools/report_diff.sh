#!/usr/bin/env bash
# Compare the report files of two revisions, config by config.
#
# Usage: tools/report_diff.sh BASE [CHANGE]
#
# BASE and CHANGE (default HEAD) are git revisions; `git stash create` names
# the working tree's tracked changes as one.  Each is exported with
# `git archive` into its own temporary directory, so neither side runs from
# the working tree.  Both run the shipped configs (src/fracheat/configs),
# perfbench/configs/disk_2d.json and its CI variants (tools/disk_variants.py),
# all taken from BASE, at --seed 7 with OPENBLAS_NUM_THREADS=1, and
# report.json, series.csv, trajectories.csv and curves.csv are compared with
# diff.  Prints each config as identical or different and exits 1 on any
# difference.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE [CHANGE]" >&2
  exit 2
fi
root="$(git rev-parse --show-toplevel)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
files="report.json series.csv trajectories.csv curves.csv"

export_tree() {  # export_tree SIDE REV
  mkdir -p "$work/$1/tree"
  git -C "$root" archive "$2" | tar -x -C "$work/$1/tree"
}

run_configs() {  # run_configs SIDE
  for cfg in "$work"/configs/*.json; do
    name="$(basename "$cfg" .json)"
    OPENBLAS_NUM_THREADS=1 PYTHONPATH="$work/$1/tree/src" python3 -m fracheat.cli \
      run --config "$cfg" --out "$work/$1/out/$name" --seed 7 > /dev/null
  done
}

export_tree base "$1"
export_tree change "${2:-HEAD}"
mkdir -p "$work/configs"
cp "$work"/base/tree/src/fracheat/configs/*.json "$work/base/tree/perfbench/configs/disk_2d.json" "$work/configs"
python3 "$root/tools/disk_variants.py" "$work/configs/disk_2d.json" "$work/configs"
run_configs base
run_configs change

status=0
for cfg in "$work"/configs/*.json; do
  name="$(basename "$cfg" .json)"
  verdict=identical
  for f in $files; do
    diff -q "$work/base/out/$name/$f" "$work/change/out/$name/$f" > /dev/null || verdict=different
  done
  echo "$name: $verdict"
  [ "$verdict" = identical ] || status=1
done
exit "$status"
