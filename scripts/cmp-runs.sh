#!/usr/bin/env bash
# Run one command twice and demand byte-identical outputs.
#
#   scripts/cmp-runs.sh [--tags A,B] [--stdout FILE] [--stderr FILE] [--expect-fail] OUT... -- CMD ARG...
#
# Every "{}" in CMD's arguments, in FILE and in the OUT names is replaced
# by the run's tag (default "a" then "b"), so the two runs write side by
# side; each OUT is then compared across the two tags with cmp. The tag
# can also be the one thing that is allowed to differ between the runs:
#
#   scripts/cmp-runs.sh --tags 1,8 --stdout 'p{}.txt' 'p{}.txt' -- \
#       go run ./cmd/asyncio-bench -exp abl-blame -parallel '{}'
#
# --stdout/--stderr capture the command's streams into FILE (list FILE
# among the OUTs to have it compared). --expect-fail demands a non-zero
# exit from both runs (a crash-injected trace exits 1 after flushing its
# exports); without it a failing run fails the script.
set -euo pipefail

tags=(a b) stdout="" stderr="" expect_fail=0 outs=()
while [ $# -gt 0 ]; do
  case "$1" in
    --tags) IFS=, read -r -a tags <<< "$2"; shift 2 ;;
    --stdout) stdout=$2; shift 2 ;;
    --stderr) stderr=$2; shift 2 ;;
    --expect-fail) expect_fail=1; shift ;;
    --) shift; break ;;
    *) outs+=("$1"); shift ;;
  esac
done
if [ ${#tags[@]} -ne 2 ] || [ ${#outs[@]} -eq 0 ] || [ $# -eq 0 ]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi

for tag in "${tags[@]}"; do
  cmd=()
  for arg in "$@"; do cmd+=("${arg//\{\}/$tag}"); done
  rc=0
  (
    if [ -n "$stdout" ]; then exec > "${stdout//\{\}/$tag}"; fi
    if [ -n "$stderr" ]; then exec 2> "${stderr//\{\}/$tag}"; fi
    exec "${cmd[@]}"
  ) || rc=$?
  if [ $expect_fail -eq 1 ] && [ $rc -eq 0 ]; then
    echo "cmp-runs: run '$tag' was expected to fail and succeeded: ${cmd[*]}" >&2
    exit 1
  elif [ $expect_fail -eq 0 ] && [ $rc -ne 0 ]; then
    echo "cmp-runs: run '$tag' exited $rc: ${cmd[*]}" >&2
    exit 1
  fi
done
for out in "${outs[@]}"; do
  cmp "${out//\{\}/${tags[0]}}" "${out//\{\}/${tags[1]}}"
done
