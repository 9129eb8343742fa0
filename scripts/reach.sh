#!/usr/bin/env bash
# What does no program in this tree ever execute?
#
#   scripts/reach.sh [WORKDIR]
#
# Builds the cmd/ binaries, the examples and the benchmark/ driver with
# `go build -cover -coverpkg=asyncio/...`, runs them the way CI and the
# documents do, into two GOCOVERDIRs (programs; the benchmark driver),
# and prints
#
#   (a) every function outside cmd/, examples/ and benchmark/ that
#       neither set of runs enters, and
#   (b) every function only the benchmark driver enters (ROADMAP item 4's
#       shrink list).
#
# A function is named `path/file.go Recv.Method` (or `path/file.go Func`).
# Every (a) function must have a line `path/file.go Name  reason: why` in
# scripts/reach-keep.txt; the script fails on an (a) function with no
# such line, on a keep line naming a function that no longer exists or
# that a program now reaches, and on a run over 5 minutes. WORKDIR
# (default: a fresh temp dir, removed on success) keeps the binaries,
# the coverage data and every program's output under WORKDIR/out.
set -euo pipefail
export LC_ALL=C # sort, join and comm must agree on one order

root=$(cd "$(dirname "$0")/.." && pwd)
keep=$root/scripts/reach-keep.txt
if [ $# -ge 1 ]; then
  mkdir -p "$1"
  work=$(cd "$1" && pwd)
  cleanup=0
else
  work=$(mktemp -d)
  cleanup=1
fi
bin=$work/bin out=$work/out
mkdir -p "$bin" "$out" "$work/cov-programs" "$work/cov-benchmark" "$work/run"
start=$SECONDS
fails() { ! "$@"; }

cd "$root"
go build -cover -coverpkg=asyncio/... -o "$bin/" ./cmd/... ./examples/...
go build -C benchmark -cover -coverpkg=asyncio/... -o "$bin/benchmark" .

# --- the benchmark driver, every workload, measured and traced. It is
# two thirds of the recipe's CPU time and shares nothing with the
# programs, so it runs beside them. The traced pass also checks that its
# spans cover 95 % of a request's wall time, which a busy machine fails;
# the counters are written either way, so only its result line is asked
# for. What the benchmark measures is CI's `test` job's business.
(
  export GOCOVERDIR=$work/cov-benchmark
  cd "$root/benchmark"
  for w in sweep_write sweep_read scale_wide serve_cold serve_warm; do
    "$bin/benchmark" --workload "$w" --seconds 1 --trace 0 > "$out/benchmark-$w-0.json"
    grep -q '"correct":true' "$out/benchmark-$w-0.json"
    "$bin/benchmark" --workload "$w" --seconds 1 --trace 1 > "$out/benchmark-$w-1.json" 2> "$out/benchmark-$w-1.log" || true
    grep -q '"attempted"' "$out/benchmark-$w-1.json"
  done
) &
benchmark=$!
trap 'kill "$benchmark" 2>/dev/null || true' EXIT

# Everything below runs in a scratch cwd: the tools write where they are
# told, the daemon its pid file and store beside it.
cd "$work/run"
cp "$bin/asyncio-serve" .
export GOCOVERDIR=$work/cov-programs

# --- asyncio-bench: every experiment, the observability exports, the
# full scale table, and the usage errors.
"$bin/asyncio-bench" -list > "$out/bench-list.txt"
"$bin/asyncio-bench" -exp all -scale reduced > "$out/bench-all.txt"
"$bin/asyncio-bench" -exp micro-mem -scale full > "$out/bench-micro-mem-full.txt"
"$bin/asyncio-bench" -exp fig7 -scale reduced -trace-json "$out/bench-fig7.json" -metrics "$out/bench-fig7-metrics.csv" \
  -critpath "$out/bench-fig7-critpath.json" -pprof "$out/bench-fig7.pb.gz" > "$out/bench-fig7-observed.txt"
"$bin/asyncio-bench" -exp abl-consistency -scale reduced -parallel 1 > "$out/bench-cons-p1.txt"
"$bin/asyncio-bench" -exp faultsweep -scale reduced -faults 'seed=3;err=*:0.02;retries=10' > "$out/bench-faultsweep-spec.txt"
"$bin/asyncio-bench" -exp crashsweep -scale reduced -durability lustre -durability-seed 5 > "$out/bench-crashsweep-lustre.txt"
for bad in "-exp nope" "-exp fig1 -scale huge" "-exp fig1 -faults bogus" "-exp fig1 -journal" ""; do
  # shellcheck disable=SC2086
  fails "$bin/asyncio-bench" $bad > /dev/null 2>> "$out/bench-usage-errors.txt"
done

# --- asyncio-trace: every run-kind workload x system x mode, then the
# CI jobs' faulted / crashed / journaled / consistency / critpath runs.
for w in vpic bdcats nyx castro eqsim; do
  for s in summit cori; do
    for m in sync async adaptive; do
      "$bin/asyncio-trace" -workload "$w" -system "$s" -nodes 2 -steps 3 -compute 1s -mode "$m" \
        -o "$out/trace-$w-$s-$m.csv" 2> "$out/trace-$w-$s-$m.log"
    done
  done
  "$bin/asyncio-trace" -workload "$w" -nodes 2 -steps 3 -mode async \
    -faults 'seed=11;err=*:0.05;outage=gpfs@20s+10s;retries=10' \
    -o "$out/faulted-$w.csv" -trace-json "$out/faulted-$w.json" -metrics "$out/faulted-$w-metrics.csv" 2> "$out/faulted-$w.log"
done
fails "$bin/asyncio-trace" -workload vpic -nodes 1 -steps 6 -compute 1s -mode async \
  -faults 'seed=7;crashrank=3@4s' -checkpoint-every 2 -journal -o "$out/crash.csv" -trace-json "$out/crash.json" \
  -metrics "$out/crash-metrics.csv" 2> "$out/crash.log"
fails "$bin/asyncio-trace" -workload vpic -nodes 2 -steps 6 -compute 1s -mode async -durability lustre \
  -faults 'seed=7;crashnode=1@4s' -checkpoint-every 2 -journal -o "$out/crashnode.csv" 2> "$out/crashnode.log"
"$bin/asyncio-trace" -workload vpic -nodes 1 -steps 4 -compute 1s -mode async -checkpoint-every 2 -journal \
  -o "$out/journaled.csv" 2> "$out/journaled.log"
for m in posix session mpiio commit; do
  "$bin/asyncio-trace" -workload vpic -nodes 1 -steps 4 -compute 1s -mode async \
    -consistency "$m;check=1" -o "$out/cons-$m.csv" 2> "$out/cons-$m.log"
done
"$bin/asyncio-trace" -workload bdcats -nodes 1 -steps 3 -compute 1s -mode async \
  -consistency 'session;check=1;lease=50us;publish=100us' -o "$out/cons-read.csv" 2> "$out/cons-read.log"
# The whole fault vocabulary in one spec (slowdown, metadata stall,
# background stall, staging cap, degradation), then a run whose retries
# run out and which therefore fails.
"$bin/asyncio-trace" -workload vpic -nodes 2 -steps 6 -compute 2s -mode async \
  -faults 'seed=5;slow=gpfs:0.5@2s-9s;meta=gpfs:2ms;bgstall=3s+2s;stagecap=1048576;err=gpfs:0.02;retries=8;backoff=20ms;maxbackoff=2s;deadline=60s;demote=1;healthy=2;spike=1.5' \
  -o "$out/faults-all.csv" 2> "$out/faults-all.log"
fails "$bin/asyncio-trace" -workload vpic -nodes 1 -steps 2 -compute 1s -mode async \
  -faults 'seed=1;err=*:1;retries=2;backoff=1ms' -o "$out/faults-exhausted.csv" 2> "$out/faults-exhausted.log"
fails "$bin/asyncio-trace" -workload vpic -nodes 1 -steps 2 -compute 1s -mode sync \
  -faults 'seed=1;err=*:1;retries=2;backoff=1ms' -o "$out/faults-exhausted-sync.csv" 2> "$out/faults-exhausted-sync.log"
"$bin/asyncio-trace" -workload vpic -nodes 2 -steps 4 -mode async -o "$out/critpath.csv" \
  -critpath "$out/critpath.json" -pprof "$out/critpath.pb.gz" 2> "$out/critpath.log"
"$bin/asyncio-trace" -workload vpic -nodes 1 -steps 2 -compute 1s -mode sync > "$out/trace-stdout.csv" 2> /dev/null
for bad in "-workload nope" "-mode nope" "-system nope" "-faults bogus" "-consistency bogus" "-o /nonexistent/x.csv"; do
  # shellcheck disable=SC2086
  fails "$bin/asyncio-trace" -nodes 1 -steps 1 $bad > /dev/null 2>> "$out/trace-usage-errors.txt"
done

# --- iomodel: a trace with both modes, so both fits and the advisor
# run; then a strong-scaling history (one problem size on two
# allocations), where the regressions replace the mean-rate fallback.
{ cat "$out/trace-vpic-summit-sync.csv"; tail -n +2 "$out/trace-vpic-summit-async.csv"; } > "$out/two-mode.csv"
"$bin/iomodel" "$out/two-mode.csv" > "$out/iomodel.txt"
grep -q 'advisor: use' "$out/iomodel.txt"
head -n 1 "$out/two-mode.csv" > "$out/two-sizes.csv"
for n in 2 4; do
  for m in sync async; do
    "$bin/asyncio-trace" -workload nyx -nodes "$n" -steps 3 -compute 1s -mode "$m" 2> /dev/null | tail -n +2 >> "$out/two-sizes.csv"
  done
done
"$bin/iomodel" "$out/two-sizes.csv" > "$out/iomodel-two-sizes.txt"
grep -q 'linear(size,ranks)' "$out/iomodel-two-sizes.txt"
"$bin/iomodel" "$out/trace-vpic-summit-sync.csv" > "$out/iomodel-sync-only.txt"
fails "$bin/iomodel" > /dev/null 2>&1
fails "$bin/iomodel" /nonexistent.csv > /dev/null 2>&1

# --- the examples.
for e in quickstart vpic_checkpoint adaptive_mode prefetch_reader checkpoint_restart; do
  "$bin/$e" > "$out/example-$e.txt"
done

# --- the daemon, twice. A process stopped with SIGKILL writes no
# coverage, so every route is exercised in one that is stopped with
# SIGTERM; the kill -9 and the recovery belong to a second one, whose
# successor is again stopped with SIGTERM.
daemon=$root/scripts/daemon.sh
addr=127.0.0.1:18077 url=http://127.0.0.1:18077
sweep='{"sweep":"fig3a","scale":"reduced"}'
runspec='{"kind":"run","workload":"vpic","nodes":2,"steps":2,"mode":"async"}'
trap '"$daemon" kill 2>/dev/null || true; kill "$benchmark" 2>/dev/null || true' EXIT

"$daemon" start "$addr" "$out/serve-routes.log" -workers 2
curl -sf "$url/readyz" > "$out/readyz.json"
id=$(curl -sf -X POST "$url/v1/campaigns" -d "$sweep" | sed 's/.*"id":"\([^"]*\)".*/\1/')
curl -sf "$url/v1/campaigns/$id/events" > "$out/events.ndjson"
curl -sf "$url/v1/campaigns/$id" > "$out/status.json"
for f in table json csv; do
  curl -sf "$url/v1/campaigns/$id/result?format=$f" > "$out/served-fig3a.$f"
done
curl -sf -X POST "$url/v1/campaigns?wait=table" -d "$sweep" > "$out/served-fig3a-cached.txt"
cmp "$out/served-fig3a.table" "$out/served-fig3a-cached.txt"
for a in summary trace metrics perfetto critpath bundle; do
  curl -sf -X POST "$url/v1/campaigns?wait=$a" -d "$runspec" > "$out/served-run-$a"
done
curl -sf -X POST "$url/v1/campaigns?wait=summary" > "$out/served-run-knobs" -d \
  '{"kind":"run","workload":"vpic","nodes":1,"steps":3,"mode":"async","compute_seconds":1,"consistency":"commit;check=1;publish=1ms","faults":"seed=2;slow=gpfs:0.5@1s-3s;err=gpfs:0.01","durability":"lustre","checkpoint_every":1,"journal":true}'
curl -s -X POST "$url/v1/campaigns" -d '{"sweep":"fig99"}' > "$out/served-400.json"
grep -q '"field"' "$out/served-400.json"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$url/v1/campaigns/$id/result?format=nope")" = 400 ]
[ "$(curl -s -o /dev/null -w '%{http_code}' "$url/v1/campaigns/nope")" = 404 ]
curl -sf "$url/metricz" > "$out/metricz.csv"
"$daemon" stop
grep -q draining "$out/serve-routes.log"

store_daemon() { "$daemon" start "$addr" "$1" -workers 2 -store-dir ./points -store-fsync; }
store_daemon "$out/serve-killed.log"
curl -sf -X POST "$url/v1/campaigns?wait=bundle" -d "$runspec" > /dev/null
curl -s -X POST "$url/v1/campaigns?wait=table" -d "$sweep" > /dev/null &
sleep 0.4
"$daemon" kill
wait $! || true
store_daemon "$out/serve-restart.log"
curl -sf -X POST "$url/v1/campaigns?wait=table" -d "$sweep" > "$out/recovered-fig3a.txt"
cmp "$out/served-fig3a.table" "$out/recovered-fig3a.txt"
curl -sf -X POST "$url/v1/campaigns?wait=bundle" -d "$runspec" | cmp - "$out/served-run-bundle"
curl -sf "$url/readyz" > "$out/readyz-recovered.json"
grep -q 'store ./points:' "$out/serve-restart.log"
"$daemon" stop

wait "$benchmark"
trap - EXIT
unset GOCOVERDIR

# --- the report. `go tool cover -func` names a method without its
# receiver, so the declaration line is read back from the source. A
# function with an empty body has no statement to count and always reads
# 0 %; it is left out.
cd "$root"
funcs() { # funcs COVDIR -> "path/file.go Recv.Name<TAB>percent", library code only
  go tool covdata textfmt -i="$1" -o="$work/profile.all"
  grep -Ev '^asyncio/(cmd|examples|benchmark)/' "$work/profile.all" > "$work/profile.txt"
  go tool cover -func="$work/profile.txt" | awk -v root="$root" '
    $1 == "total:" { next }
    {
      split($1, loc, ":"); file = substr(loc[1], length("asyncio/") + 1)
      if (file != cur) {
        if (cur != "") close(root "/" cur)
        cur = file; n = 0
        while ((getline line < (root "/" file)) > 0) src[file, ++n] = line
      }
      decl = src[file, loc[2]]; name = $2
      if (decl ~ /\{ *\}[ \t]*$/) next
      if (match(decl, /^func \([A-Za-z_0-9]* ?\*?[A-Za-z_0-9]+/)) {
        recv = substr(decl, RSTART, RLENGTH); sub(/.*[ (*]/, "", recv); name = recv "." name
      }
      printf "%s %s\t%s\n", file, name, $NF
    }' | sort
}
funcs "$work/cov-programs" > "$work/programs.func"
funcs "$work/cov-benchmark" > "$work/benchmark.func"
join -t "$(printf '\t')" "$work/programs.func" "$work/benchmark.func" > "$work/both.func"
awk -F'\t' '$2 == "0.0%" && $3 == "0.0%" { print $1 }' "$work/both.func" > "$work/unreached.txt"
awk -F'\t' '$2 == "0.0%" && $3 != "0.0%" { print $1 }' "$work/both.func" > "$work/benchmark-only.txt"
cut -f1 "$work/both.func" > "$work/all.txt"
keeplines() { awk '!/^#/ && NF' "$keep"; }
keeplines | awk '{ print $1, $2 }' | sort > "$work/kept.txt"

echo "== (b) functions only the benchmark driver reaches: $(wc -l < "$work/benchmark-only.txt")"
cat "$work/benchmark-only.txt"
echo "== (a) functions no program reaches: $(wc -l < "$work/unreached.txt"), of which in reach-keep.txt: $(comm -12 "$work/unreached.txt" "$work/kept.txt" | wc -l)"
status=0
if keeplines | grep -Ev '^[^ ]+\.go [^ ]+ +(safety|reference|interface|probe|benchmark): .+'; then
  echo "reach: the keep lines above carry none of the five reasons" >&2; status=1
fi
if [ -n "$(uniq -d "$work/kept.txt")" ]; then
  echo "reach: listed twice in reach-keep.txt:" >&2; uniq -d "$work/kept.txt" >&2; status=1
fi
if comm -23 "$work/unreached.txt" "$work/kept.txt" | grep .; then
  echo "reach: the functions above are entered by no program and have no line in scripts/reach-keep.txt: delete them or say why they stay" >&2; status=1
fi
if comm -13 "$work/all.txt" "$work/kept.txt" | grep .; then
  echo "reach: reach-keep.txt names the functions above, which no longer exist" >&2; status=1
fi
if comm -12 "$work/kept.txt" "$work/all.txt" | comm -23 - "$work/unreached.txt" | grep .; then
  echo "reach: reach-keep.txt names the functions above, which a program now reaches" >&2; status=1
fi
elapsed=$((SECONDS - start))
echo "== recipe took ${elapsed}s"
if [ "$elapsed" -gt 300 ]; then
  echo "reach: the recipe must stay under 5 minutes" >&2; status=1
fi
if [ $cleanup -eq 1 ]; then
  if [ $status -eq 0 ]; then rm -rf "$work"; else echo "reach: lists and outputs left in $work" >&2; fi
fi
exit $status
