#!/bin/sh
# Smoke test of the shipped binaries: starts treediff_serve on ephemeral
# ports with a temporary store dir, runs every treediff_client one-shot
# command against it, checks each exit status and OK/ERR line, then
# requires the server to exit 0 on SIGTERM.
#
# Usage: cli_smoke_test.sh <treediff_serve> <treediff_client>
set -u
serve=$1
client=$2
dir=$(mktemp -d "${TMPDIR:-/tmp}/treediff_smoke.XXXXXX") || exit 1
pid=
cleanup() {
  if [ -n "$pid" ]; then kill -KILL "$pid" 2>/dev/null; fi
  rm -rf "$dir"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- server stderr:" >&2
  cat "$dir/serve.err" >&2
  exit 1
}

mkdir "$dir/store"
"$serve" --port 0 --metrics-port 0 --store-dir "$dir/store" --no-stdin \
  </dev/null 2>"$dir/serve.err" &
pid=$!

port=
tries=0
while [ -z "$port" ]; do
  port=$(sed -n 's/.*listening on [^ ]*:\([0-9][0-9]*\) (metrics.*/\1/p' \
    "$dir/serve.err")
  tries=$((tries + 1))
  [ "$tries" -gt 200 ] && fail "no 'listening on' line within 20 s"
  kill -0 "$pid" 2>/dev/null || fail "treediff_serve exited during start-up"
  [ -z "$port" ] && sleep 0.1
done

# expect <exit status> <first-line prefix> <client args...>
expect() {
  want_status=$1
  want_line=$2
  shift 2
  "$client" --port "$port" "$@" >"$dir/out" 2>"$dir/err"
  got=$?
  first=$(head -n 1 "$dir/out")
  [ "$got" -eq "$want_status" ] ||
    fail "client $1: exit $got, want $want_status: $(cat "$dir/err" "$dir/out")"
  case "$first" in
    "$want_line"*) ;;
    *) fail "client $1: first line '$first', want '$want_line...'" ;;
  esac
}

# contains <text>: the last command's stdout has a line with <text>.
contains() {
  grep -qF "$1" "$dir/out" || fail "output lacks '$1': $(cat "$dir/out")"
}

expect 0 "OK" ping
expect 0 "OK rung=" diff sexpr '(d (p "a"))' '(d (p "b"))'
[ "$(tail -n 1 "$dir/out")" = "." ] || fail "diff output not '.'-terminated"
expect 0 "OK doc=doc version=0" open doc sexpr '(d (p "a"))'
expect 0 "OK version=1" commit doc sexpr '(d (p "b"))'
expect 0 "OK rung=" vdiff doc 0 1
contains "chain=1"
expect 0 "OK doc=rdoc version=0 replicas=3" openr rdoc sexpr 3 '(d (p "a"))'
expect 0 "OK version=1" commit rdoc sexpr '(d (p "c"))'
expect 0 "OK" status
contains "PRUNE subtrees="
contains "store=doc versions=2 durable=0"
contains "store=rdoc versions=2 durable=1"
contains "REPL doc=rdoc epoch="
expect 0 "OK" metrics
contains "# TYPE net_frames_total counter"
[ -f "$dir/store/rdoc.r0.log" ] || fail "openr wrote no primary log"

# Errors come back as ERR lines with exit 1; bad arguments exit 2.
expect 1 "ERR InvalidArgument" openr ../escape sexpr 3 '(d)'
expect 1 "ERR NotFound" vdiff no-such-doc 0 1
expect 2 "" vdiff doc 0 1x
"$client" --port "${port}x" ping >/dev/null 2>&1
[ $? -eq 2 ] || fail "--port ${port}x was not rejected with exit 2"
[ ! -e "$dir/escape.r0.log" ] || fail "openr wrote outside the store dir"

kill -TERM "$pid"
wait "$pid"
status=$?
pid=
[ "$status" -eq 0 ] || fail "treediff_serve exited $status after SIGTERM"
grep -q "draining" "$dir/serve.err" || fail "no 'draining' line on SIGTERM"
echo "cli smoke test passed"
