#!/bin/sh
# smoke_flashramd.sh — boots the real daemon over a real socket and
# checks the service contract end to end (see DESIGN.md §6i):
#
#   1. /healthz turns ready after boot.
#   2. Two identical /v1/optimize POSTs return byte-identical documents
#      (cold == warm), and those bytes equal what `flashram -json` prints
#      for the same request — the cross-transport byte-identity contract.
#      The same holds for a request setting every pipeline knob, with
#      the CLI spelling each JSON field as its flag.
#   3. A request-shaped failure is a 400 from the daemon and a non-zero
#      `flashram` exit, both with the same message.
#   4. A /v1/sweep of two inline sources (examples/kernels/biquad.c and
#      checksum.c, both under the default name) streams, for each cell,
#      the same run document /v1/optimize returns for that cell.
#   5. `flashramd -selftest -target <url>` drives 64 concurrent mixed
#      requests against the running daemon: 0 dropped, 0 non-2xx, a
#      nonzero cross-request hit rate (the harness exits non-zero
#      otherwise).
#   6. SIGTERM drains the daemon: it exits 0 on its own, no kill -9.
set -e
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/flashramd" ./cmd/flashramd
go build -o "$tmp/flashram" ./cmd/flashram

addr=127.0.0.1:8377
url="http://$addr"
"$tmp/flashramd" -addr "$addr" 2>"$tmp/daemon.log" &
pid=$!
# If the daemon dies early, don't hang the loop below. After a clean
# drain the daemon is already gone, so the kill fails; under set -e that
# failure would skip the cleanup and turn the script's exit status to 1.
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

ready=0
for _ in $(seq 1 50); do
    if curl -fsS "$url/healthz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.2
done
if [ "$ready" != 1 ]; then
    echo "smoke_flashramd: daemon never became healthy" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi

# Byte identity: cold == warm == CLI.
body='{"bench":"crc32","level":"O2"}'
curl -fsS -X POST -d "$body" "$url/v1/optimize" >"$tmp/cold.json"
curl -fsS -X POST -d "$body" "$url/v1/optimize" >"$tmp/warm.json"
"$tmp/flashram" -bench crc32 -O O2 -json >"$tmp/cli.json"
cmp "$tmp/cold.json" "$tmp/warm.json" || {
    echo "smoke_flashramd: warm response differs from cold" >&2
    exit 1
}
cmp "$tmp/cold.json" "$tmp/cli.json" || {
    echo "smoke_flashramd: service response differs from flashram -json" >&2
    exit 1
}

# A request-shaped failure maps to 400 and does not disturb the daemon.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"bench":"nope"}' "$url/v1/optimize")
if [ "$code" != 400 ]; then
    echo "smoke_flashramd: unknown benchmark returned $code, want 400" >&2
    exit 1
fi

# Byte identity with every knob set: each JSON field against its flag.
knobs='{"bench":"int_matmult","level":"O2","rspare":512,"xlimit":1.25,"use_profile":true,"link_time":true,"power_trace":"adversarial","ckpt_aware":true,"checkpoint_cycles":4096,"solve_max_nodes":50,"solve_max_lp_iter":5000,"solve_timeout_ms":60000}'
curl -fsS -X POST -d "$knobs" "$url/v1/optimize" >"$tmp/knobs.json"
"$tmp/flashram" -bench int_matmult -O O2 -rspare 512 -xlimit 1.25 -profile -linktime \
    -powertrace adversarial -ckptaware -checkpoint 4096 \
    -solvenodes 50 -solvelpiter 5000 -solvetimeout 60s -json >"$tmp/knobs_cli.json"
cmp "$tmp/knobs.json" "$tmp/knobs_cli.json" || {
    echo "smoke_flashramd: knob-heavy service response differs from flashram -json" >&2
    exit 1
}

# A rejected request: 400 from the daemon, a non-zero exit from the CLI,
# and the same message from both.
code=$(curl -s -o "$tmp/reject.json" -w '%{http_code}' -X POST -d '{"bench":"crc32","xlimit":0.5}' "$url/v1/optimize")
if [ "$code" != 400 ]; then
    echo "smoke_flashramd: xlimit 0.5 returned $code, want 400" >&2
    exit 1
fi
if "$tmp/flashram" -bench crc32 -xlimit 0.5 -json >/dev/null 2>"$tmp/reject_cli.txt"; then
    echo "smoke_flashramd: flashram accepted xlimit 0.5" >&2
    exit 1
fi
daemon_msg=$(sed -n 's/^  "error": "\(.*\)",$/\1/p' "$tmp/reject.json")
cli_msg=$(sed 's/^flashram: //' "$tmp/reject_cli.txt")
if [ -z "$daemon_msg" ] || [ "$daemon_msg" != "$cli_msg" ]; then
    echo "smoke_flashramd: rejection messages differ: daemon '$daemon_msg', flashram '$cli_msg'" >&2
    exit 1
fi

# Sweep rows equal single-shot responses. The two inline sources share
# the default name "source"; only their content tells them apart.
i=0
for f in biquad checksum; do
    jq -n --rawfile src "examples/kernels/$f.c" '{source: $src}' >"$tmp/cell$i.json"
    i=$((i + 1))
done
jq -s '{cells: .}' "$tmp/cell0.json" "$tmp/cell1.json" >"$tmp/sweep.json"
curl -fsS -X POST --data-binary @"$tmp/sweep.json" "$url/v1/sweep" >"$tmp/sweep.ndjson"
for i in 0 1; do
    jq -S -c "select(.index == $i) | .run" "$tmp/sweep.ndjson" >"$tmp/row$i.json"
    curl -fsS -X POST --data-binary @"$tmp/cell$i.json" "$url/v1/optimize" | jq -S -c . >"$tmp/single$i.json"
    if [ ! -s "$tmp/row$i.json" ] || ! cmp -s "$tmp/row$i.json" "$tmp/single$i.json"; then
        echo "smoke_flashramd: sweep row $i differs from /v1/optimize for the same cell" >&2
        exit 1
    fi
done

# Concurrent mixed load against the live socket. The harness itself
# enforces 0 dropped / 0 non-2xx / >50% hit rate on the repeated mix.
"$tmp/flashramd" -selftest -target "$url" -n 64

# Graceful drain: SIGTERM, then the process exits 0 on its own.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
if [ "$status" != 0 ]; then
    echo "smoke_flashramd: drain exited $status, want 0" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi
grep -q 'drained' "$tmp/daemon.log" || {
    echo "smoke_flashramd: daemon log records no drain" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
}
echo "smoke_flashramd: byte identity, knob-heavy identity, 400 mapping, CLI/daemon rejection parity, sweep/optimize row identity, 64-way load and graceful drain all clean"
