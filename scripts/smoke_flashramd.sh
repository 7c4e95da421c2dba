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
#      `flashram` exit, both with the same message. So is a pipeline-stage
#      one: a source file that does not compile is a 400 from
#      /v1/optimize, a status-400 row from /v1/sweep and a non-zero
#      `flashram -src` exit, all three with one message.
#   4. 40 writes of int_matmult O2, each at a new rspare and in a fixed
#      shuffled order, run warm solves through one session while its
#      warm-start registry evicts donors; every 8th answer equals
#      `flashram -json -rspare X` byte for byte.
#   5. A /v1/sweep of two inline sources (examples/kernels/biquad.c and
#      checksum.c, both under the default name) streams, for each cell,
#      the same run document /v1/optimize returns for that cell.
#   6. 64 concurrent requests cycling over the daemon's standard mix
#      (service.DefaultMix: every benchmark at O2 and Os, sha O2
#      profiled, crc32 O2 at rspare 512) each answer byte-identical to
#      that body's serial answer; every one of them hits the session
#      store, and none is a 5xx.
#   7. SIGTERM drains the daemon: it exits 0 on its own, no kill -9.
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

# A pipeline-stage rejection: source that does not compile. The daemon
# requests name the source by its path, as `flashram -src` does, so the
# three surfaces must answer with one message.
printf 'int main( {\n' >"$tmp/broken.c"
jq -n --rawfile src "$tmp/broken.c" --arg name "$tmp/broken.c" '{source: $src, name: $name}' >"$tmp/broken.json"
code=$(curl -s -o "$tmp/broken_opt.json" -w '%{http_code}' -X POST --data-binary @"$tmp/broken.json" "$url/v1/optimize")
if [ "$code" != 400 ]; then
    echo "smoke_flashramd: uncompilable source returned $code from /v1/optimize, want 400" >&2
    exit 1
fi
jq '{cells: [.]}' "$tmp/broken.json" >"$tmp/broken_sweep.json"
curl -fsS -X POST --data-binary @"$tmp/broken_sweep.json" "$url/v1/sweep" >"$tmp/broken_row.ndjson"
row_status=$(jq .status "$tmp/broken_row.ndjson")
if [ "$row_status" != 400 ]; then
    echo "smoke_flashramd: uncompilable source gave a /v1/sweep row with status $row_status, want 400" >&2
    exit 1
fi
if "$tmp/flashram" -src "$tmp/broken.c" -json >/dev/null 2>"$tmp/broken_cli.txt"; then
    echo "smoke_flashramd: flashram accepted an uncompilable source" >&2
    exit 1
fi
opt_msg=$(jq -r .error "$tmp/broken_opt.json")
row_msg=$(jq -r .error "$tmp/broken_row.ndjson")
cli_msg=$(sed 's/^flashram: //' "$tmp/broken_cli.txt")
if [ -z "$opt_msg" ] || [ "$opt_msg" != "$row_msg" ] || [ "$opt_msg" != "$cli_msg" ]; then
    echo "smoke_flashramd: compile-failure messages differ: optimize '$opt_msg', sweep row '$row_msg', flashram '$cli_msg'" >&2
    exit 1
fi

# Distinct-rspare writes through one warm session: rspare 40 + 50k for
# k = 17i mod 40, a fixed shuffle of 40 budgets over 13 placements.
# The session keeps a few warm donors per solve family, so all but the
# first write solve warm while older donors are evicted; what a write
# answers must not depend on which donor it found.
i=0
while [ "$i" -lt 40 ]; do
    rspare=$((40 + 50 * (17 * i % 40)))
    curl -fsS -X POST -d "{\"bench\":\"int_matmult\",\"level\":\"O2\",\"rspare\":$rspare}" \
        "$url/v1/optimize" >"$tmp/write$i.json"
    if [ $((i % 8)) = 0 ]; then
        "$tmp/flashram" -bench int_matmult -O O2 -rspare "$rspare" -json >"$tmp/write_cli$i.json"
        cmp "$tmp/write$i.json" "$tmp/write_cli$i.json" || {
            echo "smoke_flashramd: warm write at rspare $rspare differs from flashram -json" >&2
            exit 1
        }
    fi
    i=$((i + 1))
done

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

# Concurrent mixed load against the live socket. Each mix body is
# answered once serially; the 64 concurrent answers must equal those
# bytes, and since every body's session is then built, each of the 64
# must be a store hit.
n=0
for b in $("$tmp/flashram" -list | awk '{print $1}'); do
    for level in O2 Os; do
        printf '{"bench":"%s","level":"%s"}' "$b" "$level" >"$tmp/mix$n.json"
        n=$((n + 1))
    done
done
printf '{"bench":"sha","level":"O2","use_profile":true}' >"$tmp/mix$n.json"
n=$((n + 1))
printf '{"bench":"crc32","level":"O2","rspare":512}' >"$tmp/mix$n.json"
n=$((n + 1))
k=0
while [ "$k" -lt "$n" ]; do
    curl -fsS -X POST --data-binary @"$tmp/mix$k.json" "$url/v1/optimize" >"$tmp/serial$k.json"
    k=$((k + 1))
done
curl -fsS "$url/statsz" >"$tmp/statsz0.json"
if ! seq 0 63 | xargs -P 64 -I{} sh -c '
    k=$(({} % $2))
    curl -fsS -X POST --data-binary @"$0/mix$k.json" "$1/v1/optimize" >"$0/conc{}.json" &&
        cmp -s "$0/conc{}.json" "$0/serial$k.json"' "$tmp" "$url" "$n"; then
    echo "smoke_flashramd: a concurrent request failed or differs from its serial answer" >&2
    exit 1
fi
curl -fsS "$url/statsz" >"$tmp/statsz1.json"
hits=$(($(jq .store.hits "$tmp/statsz1.json") - $(jq .store.hits "$tmp/statsz0.json")))
errors=$(($(jq .requests.server_error "$tmp/statsz1.json") - $(jq .requests.server_error "$tmp/statsz0.json")))
if [ "$hits" != 64 ] || [ "$errors" != 0 ]; then
    echo "smoke_flashramd: 64 concurrent requests gave $hits store hits and $errors 5xx, want 64 and 0" >&2
    exit 1
fi

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
echo "smoke_flashramd: byte identity, knob-heavy identity, 400 mapping, CLI/daemon rejection parity (request and compile stage), warm-write identity, sweep/optimize row identity, 64-way concurrent identity and graceful drain all clean"
