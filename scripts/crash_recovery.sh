#!/usr/bin/env bash
# Crash-recovery end-to-end checks.
#
#   crash_recovery.sh [cli]    interrupt a checkpointed lspmine run with
#                              SIGINT, resume from the snapshot, and require
#                              the resumed border to be identical to an
#                              uninterrupted run's.
#   crash_recovery.sh serve    SIGKILL an lspserve daemon with jobs in
#                              flight, restart it on the same journal, and
#                              require every replayed job's result document
#                              to be byte-identical to one mined by an
#                              uninterrupted server.
#   crash_recovery.sh stream   SIGKILL an appender mid-append and a
#                              checkpointed follower mid-advance, recover
#                              both, and require the final frequent set to
#                              be identical to a follower that consumed the
#                              whole log in one quiet advance (the stream
#                              result depends only on log content + config,
#                              never on batch boundaries or crashes).
#
# Both modes tolerate the kill landing after the work already finished (the
# recovery then replays completed state instead of resuming, which must
# still produce identical output).
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-cli}

dir=$(mktemp -d)
server_pid=
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

# cli_cell NAME [EXTRA_FLAGS...] — run one interrupt-and-resume cell: an
# uninterrupted baseline, a SIGINT mid-run, and a resume whose border must
# be identical to the baseline. Artifacts are prefixed with NAME.
cli_cell() {
  cell=$1
  shift
  cargs=("${args[@]}" "$@")

  "$dir/lspmine" "${cargs[@]}" >"$dir/$cell-baseline.txt"

  "$dir/lspmine" "${cargs[@]}" -checkpoint "$dir/$cell.lckp" \
    >"$dir/$cell-killed.txt" 2>"$dir/$cell-killed.err" &
  pid=$!
  sleep 0.2
  kill -INT "$pid" 2>/dev/null || true
  rc=0
  wait "$pid" || rc=$?

  case "$rc" in
  130)
    echo "$cell: run interrupted mid-flight"
    grep -q "progress saved to" "$dir/$cell-killed.err"
    ;;
  0)
    echo "$cell: run finished before the signal landed; resume will skip everything"
    ;;
  *)
    echo "$cell: interrupted run exited with unexpected status $rc" >&2
    cat "$dir/$cell-killed.err" >&2
    exit 1
    ;;
  esac

  if [ ! -f "$dir/$cell.lckp" ]; then
    # The signal beat the first checkpoint write (mid-Phase 1). Produce a
    # snapshot to resume from so the check still exercises the resume path.
    echo "$cell: no snapshot written yet; rerunning to completion for one"
    "$dir/lspmine" "${cargs[@]}" -checkpoint "$dir/$cell.lckp" >/dev/null
  fi

  "$dir/lspmine" "${cargs[@]}" -checkpoint "$dir/$cell.lckp" -resume -v \
    >"$dir/$cell-resumed.txt"
  grep -q "resumed from phase" "$dir/$cell-resumed.txt"
  # Strip the -v preamble so the border list lines up with the plain baseline.
  sed -n '/patterns (/,$p' "$dir/$cell-resumed.txt" >"$dir/$cell-resumed-border.txt"
  diff -u "$dir/$cell-baseline.txt" "$dir/$cell-resumed-border.txt"
  echo "$cell: resumed border identical to the uninterrupted run"
}

cli_mode() {
  go build -o "$dir/lspgen" ./cmd/lspgen
  go build -o "$dir/lspmine" ./cmd/lspmine

  "$dir/lspgen" -out "$dir/test.lsq" -matrix "$dir/compat.txt" \
    -n 12000 -alpha 0.25 -seed 7

  args=(-db "$dir/test.lsq" -matrix "$dir/compat.txt"
    -min-match 0.08 -sample 800 -seed 7)
  cli_cell levelwise
  expect_engine levelwise levelwise

  # Sequences long relative to the alphabet (mean length 150 >= 3 x 20
  # symbols): Phase 2 runs by pattern growth.
  "$dir/lspgen" -out "$dir/long.lsq" -matrix "$dir/long-compat.txt" \
    -n 3000 -minlen 120 -maxlen 180 -alpha 0.25 -seed 7
  args=(-db "$dir/long.lsq" -matrix "$dir/long-compat.txt"
    -min-match 0.3 -sample 400 -budget 50 -seed 7)
  cli_cell growth
  expect_engine growth growth
  echo "crash recovery OK: both cells resume to their baselines, each on its Phase 2 engine"
}

# expect_engine CELL ENGINE — require the cell's resumed -v output to name
# ENGINE as the one that ran Phase 2.
expect_engine() {
  if ! grep -q "^phase 2: .*($2, " "$dir/$1-resumed.txt"; then
    echo "$1: the resumed run does not report the $2 Phase 2 engine" >&2
    cat "$dir/$1-resumed.txt" >&2
    exit 1
  fi
}

# serve_start DATA_DIR LOG_PREFIX — start lspserve on a free port and set
# $server_pid/$base from the "lspserve listening on ..." stdout line.
serve_start() {
  "$dir/lspserve" -data "$1" -addr 127.0.0.1:0 \
    >"$dir/$2.log" 2>"$dir/$2.err" &
  server_pid=$!
  base=
  for _ in $(seq 1 100); do
    base=$(sed -n 's#^lspserve listening on ##p' "$dir/$2.log")
    [ -n "$base" ] && return 0
    sleep 0.1
  done
  echo "lspserve ($2) did not come up" >&2
  cat "$dir/$2.err" >&2
  exit 1
}

serve_stop() {
  kill -TERM "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  server_pid=
}

# submit SPEC_JSON — POST a job, print its id (responses are indented JSON).
submit() {
  curl -sf -X POST "$base/v1/jobs" -H 'Content-Type: application/json' \
    -d "$1" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n1
}

# wait_done ID — poll until the job is done; fail on failed/canceled.
wait_done() {
  for _ in $(seq 1 600); do
    st=$(curl -sf "$base/v1/jobs/$1")
    if echo "$st" | grep -q '"state": *"done"'; then
      return 0
    fi
    if echo "$st" | grep -Eq '"state": *"(failed|canceled)"'; then
      echo "job $1 ended badly: $st" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "job $1 never finished" >&2
  exit 1
}

serve_mode() {
  command -v curl >/dev/null || { echo "serve mode needs curl" >&2; exit 1; }
  go build -o "$dir/lspgen" ./cmd/lspgen
  go build -o "$dir/lspserve" ./cmd/lspserve

  "$dir/lspgen" -out "$dir/test.lsq" -matrix "$dir/compat.txt" \
    -n 12000 -alpha 0.25 -seed 7

  spec1='{"db":"'$dir'/test.lsq","matrix":"'$dir'/compat.txt","min_match":0.08,"max_len":8,"max_gap":1,"sample":800,"seed":7}'
  spec2='{"db":"'$dir'/test.lsq","matrix":"'$dir'/compat.txt","min_match":0.10,"max_len":8,"max_gap":1,"sample":800,"seed":11}'

  # Baseline: an uninterrupted server mines both jobs.
  serve_start "$dir/data-a" server-a
  a1=$(submit "$spec1")
  a2=$(submit "$spec2")
  wait_done "$a1"
  wait_done "$a2"
  curl -sf "$base/v1/jobs/$a1/result" >"$dir/baseline1.json"
  curl -sf "$base/v1/jobs/$a2/result" >"$dir/baseline2.json"
  serve_stop

  # Victim: same two jobs, SIGKILL once mining progress is checkpointed
  # (after Phase 1 at the earliest, mid-Phase-3 probing at the latest).
  serve_start "$dir/data-b" server-b
  b1=$(submit "$spec1")
  b2=$(submit "$spec2")
  for _ in $(seq 1 200); do
    n=$(ls "$dir/data-b/ckpt" 2>/dev/null | wc -l)
    [ "$n" -ge 1 ] && break
    sleep 0.05
  done
  sleep 0.3
  kill -9 "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  server_pid=

  interrupted=$(grep -l '"state": "running"' "$dir/data-b/jobs"/*.json 2>/dev/null | wc -l)
  if [ "${interrupted:-0}" -ge 1 ]; then
    echo "SIGKILL landed with $interrupted job(s) journaled mid-run"
  else
    echo "jobs finished before the kill; restart replays completed state"
  fi

  # Revival: the journal replays, interrupted jobs resume from their
  # checkpoints, and every result document must match the baseline byte for
  # byte (the documents carry no timings or scheduling facts).
  serve_start "$dir/data-b" server-b2
  wait_done "$b1"
  wait_done "$b2"
  curl -sf "$base/v1/jobs/$b1/result" >"$dir/resumed1.json"
  curl -sf "$base/v1/jobs/$b2/result" >"$dir/resumed2.json"
  if [ "${interrupted:-0}" -ge 1 ]; then
    curl -sf "$base/v1/jobs" | grep -q '"resumed":' ||
      { echo "no job reports a resume after the kill" >&2; exit 1; }
  fi
  serve_stop

  cmp "$dir/baseline1.json" "$dir/resumed1.json"
  cmp "$dir/baseline2.json" "$dir/resumed2.json"
  echo "serve crash recovery OK: replayed results byte-identical to the uninterrupted server's"
}

# follow_final LOG OUT [EXTRA...] — run one bounded follow advance over LOG
# and extract the final frequent-pattern line into OUT.
follow_final() {
  flog=$1
  fout=$2
  shift 2
  "$dir/lspmine" -db "$flog" -matrix "$dir/compat.txt" \
    -min-match 0.08 -sample 800 -seed 7 \
    -follow -follow-batches 1 -v -all "$@" >"$fout.raw"
  grep '^  frequent:' "$fout.raw" >"$fout"
}

stream_mode() {
  go build -o "$dir/lspgen" ./cmd/lspgen
  go build -o "$dir/lspmine" ./cmd/lspmine
  go build -o "$dir/lspappend" ./cmd/lspappend

  "$dir/lspgen" -out "$dir/test.lsq" -matrix "$dir/compat.txt" \
    -n 12000 -alpha 0.25 -seed 7

  # Baseline: the whole database lands in one quiet append, one advance.
  "$dir/lspappend" -log "$dir/log-a.lsa" -from "$dir/test.lsq" >/dev/null
  follow_final "$dir/log-a.lsa" "$dir/stream-baseline.txt"

  # Cell 1 — SIGKILL the appender mid-append. The next writer open repairs
  # the torn tail, and re-appending from the recovered total must rebuild
  # the exact same log content.
  "$dir/lspappend" -log "$dir/log-b.lsa" -from "$dir/test.lsq" \
    >/dev/null 2>&1 &
  apid=$!
  sleep 0.01
  kill -9 "$apid" 2>/dev/null || true
  wait "$apid" 2>/dev/null || true
  total=$("$dir/lspappend" -log "$dir/log-b.lsa" -from "$dir/test.lsq" -count 0 |
    sed -n 's/.*(total \([0-9]*\),.*/\1/p')
  echo "stream: appender killed with $total sequences durable"
  "$dir/lspappend" -log "$dir/log-b.lsa" -from "$dir/test.lsq" \
    -start "$total" >/dev/null
  follow_final "$dir/log-b.lsa" "$dir/stream-appender.txt"
  diff -u "$dir/stream-baseline.txt" "$dir/stream-appender.txt"
  echo "stream: log rebuilt after a torn append mines identically"

  # Cell 2 — SIGKILL a checkpointed follower mid-stream while batches keep
  # arriving, then resume it. The resumed session's final set must match the
  # baseline: at most one batch is ever replayed, never lost.
  # Seed the log small so the follower's first advance — and with it the
  # first checkpoint — lands fast, making the kill a real mid-stream resume
  # rather than a fresh start (the fallback below still covers that race).
  "$dir/lspappend" -log "$dir/log-c.lsa" -from "$dir/test.lsq" -count 500 \
    >/dev/null
  "$dir/lspmine" -db "$dir/log-c.lsa" -matrix "$dir/compat.txt" \
    -min-match 0.08 -sample 800 -seed 7 \
    -follow -poll 50ms -checkpoint "$dir/stream.lckp" \
    >"$dir/stream-killed.txt" 2>&1 &
  fpid=$!
  for lo in 500 2500 4500 6500 8500 10500; do
    "$dir/lspappend" -log "$dir/log-c.lsa" -from "$dir/test.lsq" \
      -start "$lo" -count 2000 >/dev/null
    sleep 0.3
    if [ "$lo" = 4500 ]; then
      # Give the follower a moment to checkpoint an advance first, so the
      # kill usually exercises a real resume (the fallback below still
      # covers the kill beating the first checkpoint write).
      for _ in $(seq 1 100); do
        [ -f "$dir/stream.lckp" ] && break
        sleep 0.1
      done
      kill -9 "$fpid" 2>/dev/null || true
      wait "$fpid" 2>/dev/null || true
      echo "stream: follower killed at $lo appended sequences"
    fi
  done
  resume_flags=(-resume)
  if [ ! -f "$dir/stream.lckp" ]; then
    # The kill beat the first checkpoint write; the restarted follower
    # simply starts over, which must still converge to the same set.
    echo "stream: no snapshot written yet; restarting the follower fresh"
    resume_flags=()
  fi
  follow_final "$dir/log-c.lsa" "$dir/stream-resumed.txt" \
    -checkpoint "$dir/stream.lckp" "${resume_flags[@]}"
  diff -u "$dir/stream-baseline.txt" "$dir/stream-resumed.txt"
  echo "stream crash recovery OK: killed appender and follower both recover to the baseline frequent set"
}

case "$mode" in
cli) cli_mode ;;
serve) serve_mode ;;
stream) stream_mode ;;
*)
  echo "usage: $0 [cli|serve|stream]" >&2
  exit 2
  ;;
esac
