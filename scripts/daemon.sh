#!/usr/bin/env bash
# Build, start, stop and kill the asyncio-serve daemon for the CI jobs.
#
#   scripts/daemon.sh build
#   scripts/daemon.sh start ADDR LOG [asyncio-serve flags...]
#   scripts/daemon.sh stop
#   scripts/daemon.sh kill
#
# build compiles ./asyncio-serve. start launches it on ADDR in the
# background with its stderr appended to LOG, records the pid in
# ./serve.pid and returns once /healthz answers (it fails after 10 s of
# silence, or if a previous daemon is still running). stop sends
# SIGTERM — the graceful drain — and kill sends SIGKILL; both wait for
# the process to exit and fail if it has not after 10 s. A restart is
# kill or stop, then start with the same flags.
set -euo pipefail

pidfile=serve.pid

alive() { [ -f "$pidfile" ] && kill -0 "$(cat "$pidfile")" 2>/dev/null; }

# await CONDITION...: poll every 0.2 s, up to 10 s.
await() {
  for _ in $(seq 1 50); do
    if "$@"; then return 0; fi
    sleep 0.2
  done
  return 1
}

signal() {
  if ! alive; then
    echo "daemon.sh: no running daemon to signal" >&2
    exit 1
  fi
  kill "-$1" "$(cat "$pidfile")"
  if ! await not_alive; then
    echo "daemon.sh: daemon $(cat "$pidfile") still running 10 s after SIG$1" >&2
    exit 1
  fi
  rm -f "$pidfile"
}
not_alive() { ! alive; }

case "${1:-}" in
  build)
    go build -o asyncio-serve ./cmd/asyncio-serve
    ;;
  start)
    [ $# -ge 3 ] || { sed -n '2,8p' "$0" >&2; exit 2; }
    addr=$2 log=$3
    shift 3
    if alive; then
      echo "daemon.sh: daemon $(cat "$pidfile") is still running" >&2
      exit 1
    fi
    ./asyncio-serve -listen "$addr" "$@" 2>> "$log" &
    echo $! > "$pidfile"
    if ! await curl -sf "http://$addr/healthz" -o /dev/null; then
      echo "daemon.sh: daemon on $addr never became healthy; see $log" >&2
      exit 1
    fi
    ;;
  stop) signal TERM ;;
  kill) signal KILL ;;
  *)
    sed -n '2,8p' "$0" >&2
    exit 2
    ;;
esac
