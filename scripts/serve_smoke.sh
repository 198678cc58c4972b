#!/bin/sh
# Smoke-test the fsdep serve daemon end to end:
#   1. start `fsdep serve` on a private socket,
#   2. issue `fsdep query` requests (ping, extract, docck, blame, depgraph),
#   3. compare every answer byte-for-byte with the one-shot CLI,
#   4. check a warm repeat is served from the memo,
#   5. after an invalidate, interleave --inter and --intra queries (which
#      share one parse per component and one analysis per scenario and
#      engine) and compare each with the one-shot CLI,
#   6. shut the daemon down cleanly and verify the socket is gone.
# Usage: scripts/serve_smoke.sh <fsdep-binary> [workdir]
set -eu

FSDEP=${1:?usage: serve_smoke.sh <fsdep-binary> [workdir]}
WORK=${2:-"$(mktemp -d /tmp/fsdep-serve-smoke.XXXXXX)"}
mkdir -p "$WORK"
SOCKET="$WORK/fsdep.sock"

cleanup() {
  # Best-effort: if the daemon is still up, ask it to stop.
  if [ -S "$SOCKET" ]; then
    "$FSDEP" query --socket "$SOCKET" --raw '{"type":"shutdown"}' >/dev/null 2>&1 || true
  fi
  [ -n "${SERVE_PID:-}" ] && wait "$SERVE_PID" 2>/dev/null || true
}
trap cleanup EXIT

rm -f "$SOCKET"
"$FSDEP" serve --socket "$SOCKET" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

# Wait for the socket to appear (daemon startup is fast, but not instant).
tries=0
while [ ! -S "$SOCKET" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "serve_smoke: daemon never created $SOCKET" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done

echo "== ping =="
PONG=$("$FSDEP" query --socket "$SOCKET" --type ping)
[ "$PONG" = "pong" ] || { echo "serve_smoke: expected pong, got '$PONG'" >&2; exit 1; }

echo "== extract: daemon answer must match the one-shot CLI byte-for-byte =="
"$FSDEP" extract --scenario s1 > "$WORK/oneshot.txt"
"$FSDEP" query --socket "$SOCKET" --scenario s1 > "$WORK/served-cold.txt"
cmp "$WORK/oneshot.txt" "$WORK/served-cold.txt"

echo "== warm repeat: memoized, still identical =="
"$FSDEP" query --socket "$SOCKET" --scenario s1 --timing > "$WORK/served-warm.txt" 2> "$WORK/warm-timing.txt"
cmp "$WORK/oneshot.txt" "$WORK/served-warm.txt"
grep -q "query: cached" "$WORK/warm-timing.txt" || {
  echo "serve_smoke: warm query was not served from the memo" >&2
  cat "$WORK/warm-timing.txt" >&2
  exit 1
}

echo "== docck over the daemon =="
"$FSDEP" query --socket "$SOCKET" --type docck > "$WORK/docck.txt"
"$FSDEP" docck > "$WORK/docck-oneshot.txt"
cmp "$WORK/docck.txt" "$WORK/docck-oneshot.txt"

echo "== blame and depgraph: the daemon runs explain and graph =="
"$FSDEP" explain mke2fs.sparse_super2 --inter > "$WORK/explain.txt"
"$FSDEP" query --socket "$SOCKET" --type blame --param mke2fs.sparse_super2 --inter > "$WORK/blame.txt"
cmp "$WORK/explain.txt" "$WORK/blame.txt"
"$FSDEP" graph --inter > "$WORK/graph.txt"
"$FSDEP" query --socket "$SOCKET" --type depgraph --inter > "$WORK/depgraph.txt"
cmp "$WORK/graph.txt" "$WORK/depgraph.txt"

echo "== invalidate, then interleaved --inter/--intra queries match the one-shot CLI =="
"$FSDEP" query --socket "$SOCKET" --type invalidate > /dev/null
n=0
for spec in "extract --scenario s2 --inter" "extract --scenario s2 --intra" \
            "blame --param mke2fs.blocksize --intra" "blame --param mke2fs.blocksize --inter" \
            "depgraph --intra" "extract --json --inter" "docck" "extract --json --intra"; do
  n=$((n + 1))
  # shellcheck disable=SC2086 # the spec is split into the command and its flags
  set -- $spec
  type=$1
  shift
  case $type in
    blame) oneshot=explain ;;
    depgraph) oneshot=graph ;;
    *) oneshot=$type ;;
  esac
  "$FSDEP" "$oneshot" "$@" > "$WORK/mixed-$n-oneshot.txt"
  "$FSDEP" query --socket "$SOCKET" --type "$type" "$@" > "$WORK/mixed-$n-served.txt"
  cmp "$WORK/mixed-$n-oneshot.txt" "$WORK/mixed-$n-served.txt"
done

echo "== clean shutdown =="
"$FSDEP" query --socket "$SOCKET" --raw '{"type":"shutdown"}' > /dev/null
wait "$SERVE_PID"
SERVE_PID=""
if [ -S "$SOCKET" ]; then
  echo "serve_smoke: socket file survived shutdown" >&2
  exit 1
fi

echo "serve_smoke: all checks passed"
