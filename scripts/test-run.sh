#!/usr/bin/env bash
# go test -run, but a pattern that matches nothing fails.
#
#   scripts/test-run.sh PATTERN [go test flags...] PACKAGE...
#
# `go test -run PATTERN` exits 0 when PATTERN selects no test at all, so
# a renamed or moved test turns a CI gate into a silent pass. This first
# lists what each |-separated alternative of PATTERN selects in the
# given packages and fails if any selects nothing, then runs the tests.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,4p' "$0" >&2
  exit 2
fi
pattern=$1
shift
IFS='|' read -r -a alts <<< "$pattern"
for alt in "${alts[@]}"; do
  listed=$(go test -list "$alt" "$@")
  if ! grep -q '^\(Test\|Fuzz\)' <<< "$listed"; then
    echo "test-run: '$alt' (of -run '$pattern') matches no test in: $*" >&2
    exit 1
  fi
done
exec go test -run "$pattern" "$@"
