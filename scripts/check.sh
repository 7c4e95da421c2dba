#!/bin/sh
# check.sh — lint gate run alongside the tier-1 tests (see ROADMAP.md).
#
#   gofmt -l            all Go sources formatted
#   go vet ./...        no vet complaints
#   flashram analyze    static analysis suite clean on every BEEBS
#                       benchmark and on the examples/kernels sources,
#                       at both paper levels (O2, Os)
#   flashram bounds     static energy brackets validated against the
#                       simulator (lower <= simulated <= upper) on the
#                       full benchmark matrix, >= 15/20 cells finite
#   flashram -powertrace  harvested-power replay smoke under -race on
#                       two benchmarks, plus a determinism diff: two
#                       identical trace runs must emit identical JSON
#
# Exits non-zero on the first failure.
set -e
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l cmd internal examples bench_test.go)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# Sweep and service configuration must live on the Sweep/Server values,
# not in package globals — the old `evaluation.Workers` variable let two
# concurrent sweeps race on each other's worker count, and a daemon
# holding per-process mutable globals could not host two Servers in one
# test binary. Only the read-only figure1Bars table is allowed at
# package level.
globals=$(grep -n '^var ' internal/evaluation/*.go internal/service/*.go \
    | grep -v '_test.go:' | grep -v 'figure1Bars' || true)
if [ -n "$globals" ]; then
    echo "internal/evaluation or internal/service grew package-global state (put it on Sweep, Session or Server instead):" >&2
    echo "$globals" >&2
    exit 1
fi

# The solver stack threads warm state explicitly — lp.State flows
# through ilp.WarmStart, placement.Warm and core.Session's memo, and a
# model family's shared ILP lowering lives on the Model the session
# memoizes. A package-global cache there would alias tableaus or
# lowerings across concurrent sessions and break the byte-identity
# guarantee (DESIGN.md §6j). Sentinel errors (`var Err...`) are the one
# legitimate package var.
solverGlobals=$(grep -n '^var ' internal/lp/*.go internal/ilp/*.go \
    internal/placement/*.go internal/core/*.go internal/model/*.go \
    | grep -v '_test.go:' | grep -v ':var Err' || true)
if [ -n "$solverGlobals" ]; then
    echo "solver packages grew package-global state (thread it through lp.State/ilp.WarmStart/placement.Warm instead):" >&2
    echo "$solverGlobals" >&2
    exit 1
fi

# The pipeline promises panic isolation (DESIGN.md §6g): a pathological
# cell forfeits only its own result. A naked panic() in the pipeline
# packages defeats that by design — misuse and broken invariants must
# surface as typed errors (internal/errs, or lp.ErrBadProblem at the
# solver layer) so sweeps degrade instead of dying. Tests may panic
# freely; they run under the testing harness.
panics=$(grep -n 'panic(' internal/core/*.go internal/evaluation/*.go internal/sim/*.go \
    internal/placement/*.go internal/lp/*.go internal/ilp/*.go internal/trace/*.go \
    internal/service/*.go \
    | grep -v '_test.go:' || true)
if [ -n "$panics" ]; then
    echo "pipeline packages call panic() (return a typed internal/errs error instead):" >&2
    echo "$panics" >&2
    exit 1
fi

# The simulator must dispatch through its predecoded tables, never
# through the layout map. InstrAt/byAddr reappearing in internal/sim
# means someone reintroduced a per-instruction map lookup on the hot
# path (see DESIGN.md "Simulator execution engine").
mapuse=$(grep -n 'InstrAt\|byAddr' internal/sim/*.go || true)
if [ -n "$mapuse" ]; then
    echo "internal/sim uses the layout instruction map (predecode instead):" >&2
    echo "$mapuse" >&2
    exit 1
fi

# The executor's whole win is that a descriptor retires with zero map
# traffic: symbol/memory/block-name resolution happens once at SetImage
# time (predecode.go) and lands in the uop records and the dense counter
# arrays (DESIGN.md §6k). Every non-test file of internal/sim that holds
# the run path — the dispatch loop runFrom, the uop executor, the
# intermittent segment driver, and any file added later — is policed;
# only predecode.go (SetImage time) and sim.go (image setup, Reset and
# the ReadGlobal API, all outside the run loop) may resolve symbols. Any
# of these identifiers elsewhere means a per-instruction (or
# per-dispatch) map lookup crept back into the run path — hoist it to
# predecode time.
runfiles=$(ls internal/sim/*.go | grep -v '_test\.go$' | grep -v '/predecode\.go$' | grep -v '/sim\.go$')
runmaps=$(grep -n 'Symbols\[\|MemoryOf(\|BlockCounts\[' $runfiles || true)
if [ -n "$runmaps" ]; then
    echo "internal/sim run-path files do map lookups (resolve at SetImage/predecode time instead):" >&2
    echo "$runmaps" >&2
    exit 1
fi
if grep -n 'func (m \*Machine) runFrom(' internal/sim/sim.go internal/sim/predecode.go; then
    echo "runFrom moved into a file the map-lookup gate exempts" >&2
    exit 1
fi

go build -o /tmp/flashram.check ./cmd/flashram
trap 'rm -f /tmp/flashram.check' EXIT

for level in O2 Os; do
    /tmp/flashram.check analyze -all -O "$level"
    for src in examples/kernels/*.c; do
        /tmp/flashram.check analyze -src "$src" -O "$level"
    done
done

# The static energy-bounds analysis must bracket the simulator on every
# benchmark at both paper levels (lower <= simulated <= upper, checked
# for baseline and optimized images), with finite brackets on at least
# 15 of the 20 cells (DESIGN.md §6h). Default levels are O2 and Os, so
# one invocation covers the full matrix.
/tmp/flashram.check bounds -all -minfinite 15 > /dev/null

# Harvested-power fault injection (DESIGN.md §6l). Built with -race: the
# intermittent replay shares the session's memoized stages, and a data
# race there corrupts silently before it fails loudly. Two benchmarks,
# one checkpoint-aware, cover both solve paths.
go build -race -o /tmp/flashram.race ./cmd/flashram
trap 'rm -f /tmp/flashram.check /tmp/flashram.race /tmp/powertrace.a.json /tmp/powertrace.b.json' EXIT
/tmp/flashram.race -bench crc32 -powertrace steady > /dev/null
/tmp/flashram.race -bench 2dfir -powertrace bursty -ckptaware > /dev/null

# Determinism: an identical trace + configuration must reproduce the
# document byte-for-byte (the replay contract the service's ETags and
# the sharded sweeps rely on).
/tmp/flashram.check -bench 2dfir -powertrace adversarial -ckptaware -json > /tmp/powertrace.a.json
/tmp/flashram.check -bench 2dfir -powertrace adversarial -ckptaware -json > /tmp/powertrace.b.json
if ! cmp -s /tmp/powertrace.a.json /tmp/powertrace.b.json; then
    echo "powertrace determinism: two identical trace runs emitted different JSON" >&2
    diff /tmp/powertrace.a.json /tmp/powertrace.b.json >&2 || true
    exit 1
fi

echo "check.sh: all clean"
