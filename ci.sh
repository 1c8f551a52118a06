#!/usr/bin/env bash
# ci.sh — the repository's full verification gate.
#
# Runs, in order:
#   1. go build        — everything compiles
#   2. go vet          — stock vet findings
#   3. repolint        — the project's own invariants (internal/lint):
#                        rng-discipline, goroutine-join, float-eq,
#                        dropped-error, panic-message, map-order, wallclock,
#                        hotpath-alloc, metric-schema, ignore-audit. Runs as
#                        its own timed stage with a 30s budget so analysis
#                        cost stays visible as the codebase grows.
#   4. go test ./...   — tier-1 tests (includes the module-wide lint pass
#                        and the GOMAXPROCS replay determinism test)
#   5. go test -race   — race detector over the concurrency-bearing
#                        packages (tensor matmul fan-out, core parallel
#                        training engine incl. the worker pool, pooled
#                        group spaces, and SCAFFOLD's shared state
#                        (TestEngineWorkerPoolRace), simnet event loop,
#                        wire codec, fednode cloud/edge/client servers,
#                        metrics registry)
#   6. scale smoke     — the virtualized-population gate: the O(selected)
#                        memory test (a 4× larger flyweight population must
#                        not allocate proportionally more per round) runs
#                        under -race, then felbench -scalebench drives the
#                        100k-client grid row end to end through the CLI
#                        (1M lives in the full grid, see EXPERIMENTS.md)
#   7. perf smoke      — one medium cell of the felbench engine grid
#                        (GOMAXPROCS=4, MaxParallel=8, blocked kernels)
#                        runs end to end; felbench exits 1 if the cell's
#                        final weights diverge bit-for-bit from the naive
#                        serial baseline, so this gates the blocked-GEMM
#                        + tree-aggregation determinism contract on every
#                        push (full grid: felbench -bench all)
#   8. async smoke     — the buffered-async determinism gate: the α=0
#                        full-buffer property test (async ≡ sync bit for
#                        bit at several parallelism levels) runs under
#                        -race, then felbench -exp async-vs-sync drives
#                        every aggregation mode end to end and exits 1 if
#                        any gate fails (bit-identity, strictly fewer
#                        logical ticks, equal-or-better accuracy)
#   9. fuzz smoke      — every fuzz target runs randomized inputs on a 10s
#                        total budget (FuzzDecodeFrame over the wire codec
#                        and FuzzArrivalLogFrame over the arrival-log
#                        frames, both seeded from faultnet's corruption
#                        mutators)
#  10. chaos smoke     — felnode -chaos runs a named fault-injection
#                        scenario twice against a full loopback federation
#                        and diffs the fault event logs and timing-masked
#                        metrics snapshots byte for byte
#  11. felnode smoke   — a real networked loopback job over 127.0.0.1 TCP
#                        (2 edges × 12 clients × 2 rounds), which also
#                        cross-checks accuracy against the in-process
#                        trainer and transport bytes against the codec's
#                        accounting
#  12. metrics smoke   — the same loopback job with -metrics: polls the
#                        live HTTP endpoint until the snapshot exposes
#                        fel_wire_bytes_total and checks every line parses
#                        as Prometheus text exposition
#  13. load smoke      — the felserve serving layer under -race: hundreds of
#                        loopback subscribers fan in on a multi-job cloud
#                        (TestServeLoadSmoke), every subscriber must land on
#                        the correct final aggregate and the goroutine count
#                        must settle back to its pre-run level, then the
#                        kill-cloud chaos exercise proves a crash-restarted
#                        cloud resumes bit-identically
#
# Future PRs inherit this gate: run ./ci.sh before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# One scratch root for every stage (each takes a subdirectory), removed by
# the single EXIT trap along with the metrics smoke's background felnode.
scratch="$(mktemp -d)"
smokepid=""
stop_smoke() {
  if [ -n "$smokepid" ]; then
    kill "$smokepid" 2>/dev/null || true
    wait "$smokepid" 2>/dev/null || true
    smokepid=""
  fi
}
trap 'stop_smoke; rm -rf "$scratch"' EXIT
stage_dir() { mkdir -p "$scratch/$1" && echo "$scratch/$1"; }

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== repolint (30s budget)"
lintdir="$(stage_dir lint)"
go build -o "$lintdir/repolint" ./cmd/repolint
lint_start=$SECONDS
"$lintdir/repolint"
lint_elapsed=$(( SECONDS - lint_start ))
echo "repolint: module-wide pass took ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 30 ]; then
  echo "ci.sh: repolint exceeded its 30s budget (${lint_elapsed}s)" >&2
  exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race (tensor, core, async, simnet, wire, fednode, faultnet, metrics, felserve)"
go test -race ./internal/tensor ./internal/core ./internal/async ./internal/simnet ./internal/wire ./internal/fednode ./internal/faultnet/... ./internal/metrics ./internal/felserve

echo "== scale smoke (O(selected) memory under -race, 100k grid row via felbench)"
go test -race -count=1 -run 'TestPopScaleOSelectedMemory' ./internal/experiments
scaledir="$(stage_dir scale)"
go run ./cmd/felbench -scalebench 100k -out "$scaledir"
if ! grep -q '"id": "100k"' "$scaledir/BENCH_scale.json"; then
  echo "ci.sh: felbench -scalebench wrote no 100k row" >&2
  exit 1
fi

echo "== perf smoke (one medium bench-grid cell, bit-identity gated)"
perfdir="$(stage_dir perf)"
go run ./cmd/felbench -bench medium -benchprocs 4 -benchpar 8 -benchrepeats 1 -out "$perfdir"
if ! grep -q '"bit_identical": true' "$perfdir/BENCH_grid.json"; then
  echo "ci.sh: perf smoke cell is not bit-identical to the serial baseline" >&2
  exit 1
fi

echo "== async smoke (alpha=0 equivalence under -race, async-vs-sync gates via felbench)"
go test -race -count=1 -run 'TestAsyncAlphaZeroFullBufferEquivalence' ./internal/core
asyncdir="$(stage_dir async)"
go run ./cmd/felbench -exp async-vs-sync -scale small -out "$asyncdir"
if ! grep -q '"Pass": true' "$asyncdir/BENCH_async.json"; then
  echo "ci.sh: async-vs-sync gates failed" >&2
  exit 1
fi

echo "== go test -fuzz smoke (10s total across targets)"
go test ./internal/wire -run '^$' -fuzz FuzzDecodeFrame -fuzztime 5s
go test ./internal/async -run '^$' -fuzz FuzzArrivalLogFrame -fuzztime 5s

echo "== felnode -chaos smoke (deterministic replay)"
chaosdir="$(stage_dir chaos)"
go build -o "$chaosdir/felnode" ./cmd/felnode
"$chaosdir/felnode" -chaos corrupt-frames > "$chaosdir/run1.txt"
"$chaosdir/felnode" -chaos corrupt-frames > "$chaosdir/run2.txt"
if ! diff -u "$chaosdir/run1.txt" "$chaosdir/run2.txt"; then
  echo "ci.sh: chaos scenario replay is not deterministic" >&2
  exit 1
fi
echo "chaos smoke: corrupt-frames replayed byte-identically"

echo "== felnode loopback smoke (TCP on 127.0.0.1)"
timeout 120 go run ./cmd/felnode -role loopback -clients 12 -edges 2 -rounds 2

echo "== felnode -metrics smoke (live HTTP endpoint)"
smokedir="$(stage_dir smoke)"
go build -o "$smokedir/felnode" ./cmd/felnode
"$smokedir/felnode" -role loopback -clients 12 -edges 2 -rounds 2 \
  -metrics 127.0.0.1:19137 -hold 60s > "$smokedir/out.log" 2>&1 &
smokepid=$!
snapshot=""
for _ in $(seq 1 120); do
  if snapshot="$(curl -sf http://127.0.0.1:19137/metrics 2>/dev/null)" \
     && grep -q '^fel_wire_bytes_total' <<<"$snapshot"; then
    break
  fi
  snapshot=""
  sleep 0.5
done
if [ -z "$snapshot" ]; then
  echo "ci.sh: metrics endpoint never served fel_wire_bytes_total" >&2
  cat "$smokedir/out.log" >&2 || true
  exit 1
fi
if bad="$(grep -Ev '^#|^$|^fel_[a-z0-9_]+(\{[^}]*\})? -?[0-9][0-9eE+.-]*$' <<<"$snapshot")" && [ -n "$bad" ]; then
  echo "ci.sh: metrics snapshot has unparseable lines:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "metrics smoke: $(grep -c '^fel_' <<<"$snapshot") samples parsed, fel_wire_bytes_total present"
stop_smoke

echo "== felserve load smoke (loopback subscriber fan-in + leak check under -race)"
go test -race -count=1 -run 'TestServeLoadSmoke' ./internal/felserve
loaddir="$(stage_dir load)"
go build -o "$loaddir/felnode" ./cmd/felnode
timeout 300 "$loaddir/felnode" -chaos kill-cloud | tee "$loaddir/killcloud.txt"
if ! grep -q 'bit-identical=true' "$loaddir/killcloud.txt"; then
  echo "ci.sh: kill-cloud recovery was not bit-identical" >&2
  exit 1
fi
echo "load smoke: serving layer leak-free under -race, kill-cloud recovery bit-identical"

echo "ci.sh: all gates passed"
