#!/usr/bin/env bash
# ci.sh — the repository's full verification gate.
#
# Runs, in order:
#   1. go build        — everything compiles; then internal/tensor,
#                        internal/nn and internal/grouping are cross-compiled
#                        for arm64 and the disassembly must hold no fused
#                        multiply-add: their bit-identity contract is
#                        architecture-independent only while every a·b+c is
#                        written float64(a*b) + c (the cross-build is also
#                        what proves the `!amd64` files of internal/tensor,
#                        internal/grouping and internal/cpu compile).
#                        The mirror image for amd64, where internal/tensor's
#                        row update and internal/grouping's scan filter are
#                        hand-written AVX: the assembler's listing
#                        (`go tool asm -S`) of every internal/*/*_amd64.s
#                        must hold no VFMADD/VFMSUB/VFNMADD/VFNMSUB —
#                        one would pass every test on an FMA host once someone
#                        "fixed" the digests, so the gate is on the
#                        instruction. (`go tool objdump` cannot be the reader:
#                        its x86 decoder has no VEX tables and prints
#                        VBROADCASTSD as `SBBL AX, 0x38(SP)`.)
#                        Then `placement` (print-only, never fails; also
#                        `./ci.sh placement` on its own) builds ./bench and
#                        prints where grouping.argminScan and
#                        grouping.scanFilter (where pop-regroup's time is),
#                        grouping.CoVGrouping.Form,
#                        core.(*Trainer).Step and tensor.quadUpdate (where
#                        the training workloads' time is) landed mod 64: a
#                        short loop can
#                        read ±10–20 % across a half-line shift (argminScan
#                        was measured not to; the rest of the workload was
#                        not measured), so compare the lines against the
#                        parent commit's before believing a pop-regroup delta
#   2. go vet + gofmt  — stock vet findings, asmdecl among them: it is what
#                        holds the frame sizes and argument offsets of every
#                        *_amd64.s to the Go declarations; any file
#                        `gofmt -l` lists outside internal/lint/testdata fails
#                        the stage
#   3. repolint        — the project's own invariants (internal/lint):
#                        rng-discipline, goroutine-join, float-eq,
#                        dropped-error, panic-message, map-order, wallclock,
#                        hotpath-alloc, metric-schema, ignore-audit. Runs as
#                        its own timed stage with a 30s budget so analysis
#                        cost stays visible as the codebase grows.
#   4. go test ./...   — tier-1 tests (includes the module-wide lint pass,
#                        the GOMAXPROCS replay determinism test, the
#                        async-vs-sync gates and the `go test ./bench`
#                        benchmark smoke)
#   5. go test -race   — race detector over the concurrency-bearing
#                        packages (core parallel training engine incl. the
#                        worker pool, pooled group spaces, SCAFFOLD's
#                        shared state (TestEngineWorkerPoolRace), the
#                        pinned wide-model replay across MaxParallel and
#                        GOMAXPROCS, the alpha=0 async ≡ sync property
#                        and the O(selected) round-memory gate of the
#                        virtual populations; wire codec, fednode
#                        cloud/edge/client servers, metrics registry,
#                        felserve — where TestFanoutFramesIdentical has eight
#                        handlers writing one version's shared frame bytes at
#                        once). internal/tensor and internal/simnet are
#                        not in the list: they start no goroutine and share
#                        no state — a GEMM runs on its caller's goroutine,
#                        and simnet is closed-form arithmetic
#   6. fuzz smoke      — the fuzz targets of the networked path and of the
#                        two assembly routines run randomized inputs on a 10s
#                        total budget: internal/tensor's FuzzQuadUpdate (row
#                        length, start phase and raw operand bits: the AVX
#                        row update against the Go expression, bit for bit,
#                        guard bands intact), internal/grouping's
#                        FuzzScanFilter (class and block counts and raw
#                        operand bits: the block the AVX filter names against
#                        the first block the Go comparison holds in),
#                        FuzzDecodeFrame over the wire codec,
#                        FuzzDecodeIntoReuse holding DecodeInto on a dirty
#                        Message to a fresh Decode of the same bytes, and
#                        FuzzArrivalLogFrame over the arrival-log frames
#                        (all seeded from faultnet's corruption mutators),
#                        and internal/secagg's FuzzFieldOps,
#                        FuzzQuantizeRoundTrip and FuzzMaskCancel (random
#                        seeds, dimensions and drop sets: the masks cancel
#                        to the plain sum). internal/stats' and
#                        internal/groupio's targets run their seed corpora
#                        in stage 4 only.
#   7. chaos smoke     — felnode -chaos runs a named fault-injection
#                        scenario twice against a full loopback federation
#                        and diffs the fault event logs and timing-masked
#                        metrics snapshots byte for byte
#   8. felnode smoke   — a real networked loopback job over 127.0.0.1 TCP
#                        (2 edges × 12 clients × 2 rounds), which also
#                        cross-checks accuracy against the in-process
#                        trainer and transport bytes against the codec's
#                        accounting
#   9. metrics smoke   — the same loopback job with -metrics: polls the
#                        live HTTP endpoint until the snapshot exposes
#                        fel_wire_bytes_total and checks every line parses
#                        as Prometheus text exposition
#  10. load smoke      — the felserve serving layer under -race: hundreds of
#                        loopback subscribers fan in on a multi-job cloud
#                        (TestServeLoadSmoke), every subscriber must land on
#                        the correct final aggregate and the goroutine count
#                        must settle back to its pre-run level, then the
#                        kill-cloud chaos exercise proves a crash-restarted
#                        cloud resumes bit-identically
#
# Performance is not a stage: it is judged by `go run ./bench` followed by
# `go run ./bench -compare bench/baseline/run1.json bench/out/result-seed2024.json`
# (minutes, see bench/README.md); only its `go test ./bench` smoke rides in
# stage 4.
#
# `./ci.sh reach` is not a stage either: it prints (and never fails on) the
# top-level funcs no `package main` links — run it before a re-anchor to read
# which code has traffic instead of guessing.
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

# placement prints the addresses mod 64 of the functions whose 64-byte code
# placement has moved pop-regroup (CHANGES.md, PR 15 and PR 19). It reports,
# it never judges: every failure inside it is swallowed.
placement() {
  local dir
  dir="$(stage_dir placement)"
  go build -o "$dir/bench" ./bench || return 0
  go tool nm "$dir/bench" | while read -r addr _ sym; do
    case "$sym" in
      repro/internal/grouping.argminScan | repro/internal/grouping.scanFilter.abi0 | repro/internal/grouping.CoVGrouping.Form | 'repro/internal/core.(*Trainer).Step' | repro/internal/tensor.quadUpdate.abi0)
        echo "placement: $sym at 0x$addr, mod 64 = $(( 0x$addr % 64 ))" ;;
    esac
  done || true
}
# reach prints every top-level func of non-test, non-main source that is
# linked into no `package main` (bench, cmd/*, examples/*), built without
# inlining so a called function keeps its symbol: the ledger of code no user
# can run. It reports, it never judges — test oracles, fuzz seeds and facade
# exports are listed too (ROADMAP item 6 says which stay and why) — and every
# failure inside it is swallowed.
reach() (
  set +e
  dir="$(stage_dir reach)"
  mod="$(go list -m)"
  for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
    go build -gcflags=all=-l -o "$dir/bin" "$p" && go tool nm "$dir/bin"
  done | awk '$2 ~ /^[Tt]$/ {print $3}' | sed -E 's/\[.*$//; s/\.abi0$//' | sort -u > "$dir/linked"
  total=0
  for d in $(go list -f '{{if ne .Name "main"}}{{.Dir}}{{end}}' ./...); do
    pkg="$mod${d#"$PWD"}"
    while IFS=: read -r file line decl; do
      # "func (r *T) M(" -> (*T).M, "func (T) M(" -> T.M, "func F(" -> F
      sym="$(sed -E 's/^func \(([A-Za-z_0-9]+ )?(\*?)([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/\2\3.\5/; s/^func ([A-Za-z_0-9]+).*/\1/; s/^\*([^.]+)/(*\1)/' <<<"$decl")"
      case "$sym" in init) continue ;; esac
      # a value-receiver method reached only through a pointer links as (*T).M
      if ! grep -qxF -e "$pkg.$sym" -e "$pkg.(*${sym%%.*}).${sym#*.}" "$dir/linked"; then
        echo "reach: ${file#"$PWD"/}:$line $pkg.$sym"
        total=$((total + 1))
      fi
    done < <(grep -n '^func ' $(ls "$d"/*.go | grep -v '_test\.go$') /dev/null)
  done
  echo "reach: $total top-level funcs of non-test, non-main source are linked into no binary"
)
case "${1:-}" in
  placement | reach)
    "$1"
    exit 0
    ;;
esac

echo "== go build ./... + fused-multiply-add checks (arm64: tensor, nn, grouping; amd64: every internal/*/*_amd64.s)"
go build ./...
fmadir="$(stage_dir fma)"
for pkg in tensor nn grouping; do
  GOARCH=arm64 go build -o "$fmadir/$pkg.a" "./internal/$pkg"
  go tool objdump "$fmadir/$pkg.a" > "$fmadir/$pkg.s"
  if grep -E 'FN?M(ADD|SUB)' "$fmadir/$pkg.s" >&2; then
    echo "ci.sh: internal/$pkg compiles to fused multiply-adds on arm64; write a*b + c as float64(a*b) + c" >&2
    exit 1
  fi
done
echo "arm64 check: internal/tensor, internal/nn and internal/grouping hold no FMADD/FMSUB/FNMADD/FNMSUB"
for src in internal/*/*_amd64.s; do
  GOARCH=amd64 go tool asm -S -I "$(go env GOROOT)/pkg/include" -p "repro/$(dirname "$src")" -o "$fmadir/asm.o" "$src" > "$fmadir/asm.lst"
  if grep -E 'VFN?M(ADD|SUB)' "$fmadir/asm.lst" >&2; then
    echo "ci.sh: $src holds a fused multiply-add; the amd64 kernels are VMULPD then VADDPD, two roundings like the Go loops" >&2
    exit 1
  fi
  grep -q 'RET' "$fmadir/asm.lst" || { echo "ci.sh: $src: the assembler listing shows no instruction; the check above read nothing" >&2; exit 1; }
done
echo "amd64 check: $(echo internal/*/*_amd64.s) hold no VFMADD/VFMSUB/VFNMADD/VFNMSUB"
placement

echo "== go vet ./... + gofmt"
go vet ./...
unformatted="$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)"
if [ -n "$unformatted" ]; then
  echo "ci.sh: gofmt -l lists unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

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

echo "== go test -race (core, async, wire, fednode, faultnet, metrics, felserve)"
go test -race ./internal/core ./internal/async ./internal/wire ./internal/fednode ./internal/faultnet/... ./internal/metrics ./internal/felserve

echo "== go test -fuzz smoke (10s total across targets)"
go test ./internal/wire -run '^$' -fuzz FuzzDecodeFrame -fuzztime 2s
go test ./internal/wire -run '^$' -fuzz FuzzDecodeIntoReuse -fuzztime 1s
go test ./internal/async -run '^$' -fuzz FuzzArrivalLogFrame -fuzztime 1s
go test ./internal/secagg -run '^$' -fuzz FuzzFieldOps -fuzztime 1s
go test ./internal/secagg -run '^$' -fuzz FuzzQuantizeRoundTrip -fuzztime 1s
go test ./internal/secagg -run '^$' -fuzz FuzzMaskCancel -fuzztime 2s
go test ./internal/tensor -run '^$' -fuzz FuzzQuadUpdate -fuzztime 1s
go test ./internal/grouping -run '^$' -fuzz FuzzScanFilter -fuzztime 1s

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
