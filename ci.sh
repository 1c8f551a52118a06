#!/usr/bin/env bash
# ci.sh — the repository's full verification gate. What the stages hold and
# why lives in DESIGN.md (the S-row of each subsystem names its gate; §8 the
# no-FMA rule of stage 1; S26 repolint); this is only the list:
#
#   1. build       go build ./..., the arm64 fused-multiply-add check of every
#                  package under internal/ and the amd64 one of the assembly,
#                  the two AVX kernels at 0 mod 64 in the bench binary, then
#                  the print-only `placement`
#   2. vet         go vet ./... (asmdecl among it), GOARCH=386 go vet ./...
#                  + gofmt -l
#   3. test        go test ./... — tier-1; internal/lint's TestRepoIsLintClean
#                  is the module-wide repolint pass, run here and nowhere else
#   4. race        go test -race over the concurrent packages
#   5. fuzz        18 s across the wire, secagg, tensor, grouping, core
#                  (Config against validate), fednode (MemNetwork byte
#                  streams), felserve (whole checkpoint files, 2 s), faultnet
#                  (whole plan files), stats (CoV, KL), groupio (request
#                  JSON) and data (a label-only partition redrawn against the
#                  pooled one) targets; the fednode, felserve and faultnet
#                  runs end in leakcheck.Main's goroutine check
#   6. chaos       felnode -chaos <name> twice for each of the six named
#                  scenarios and kill-cloud, outputs byte-identical
#                  (simulated time: seconds for all six)
#   7. felnode     a loopback TCP job, cross-checked against core.Train;
#                  -clients 0, -lr NaN, -role bogus and -hold 1s without
#                  -metrics each exit 2 with one line, -role bogus before its
#                  -metrics listener opens; the
#                  two modelled-link examples print a simulated round time;
#                  examples/fednet recovers a client reset by a faultnet rule;
#                  examples/quickstart prints the same bytes twice; covgroup
#                  prints the same bytes twice for an inline histogram, and
#                  -targetgs -1 exits 2 with one line
#   8. metrics     the same job's live /metrics endpoint parses, carries
#                  fel_core_groups and fel_core_gamma_p, and no group label
#   9. load        felserve under -race, then stage 6's kill-cloud verdict
#  10. results     the 18 results/medium CSVs regenerated and diffed (fig5 on
#                  its shape columns), the golden and regenerated name sets
#                  equal both ways
#  11. contention  internal/core and the packages whose tests run on
#                  fednode's MemNetwork at -count=3 beside one busy loop per
#                  CPU
#
# Not stages (print-only, never fail): `./ci.sh placement`, `./ci.sh reach`.
# Performance is judged by `go run ./bench` (bench/README.md), not here.
set -euo pipefail
cd "$(dirname "$0")"

# One scratch root for every stage (each takes a subdirectory), removed by
# the single EXIT trap along with the metrics smoke's background felnode and
# the contention stage's busy loops.
scratch="$(mktemp -d)"
smokepid=""
stop_smoke() {
  if [ -n "$smokepid" ]; then
    kill "$smokepid" 2>/dev/null || true
    wait "$smokepid" 2>/dev/null || true
    smokepid=""
  fi
}
spinpids=()
stop_spin() {
  if [ "${#spinpids[@]}" -gt 0 ]; then
    kill "${spinpids[@]}" 2>/dev/null || true
    wait "${spinpids[@]}" 2>/dev/null || true
    spinpids=()
  fi
}
trap 'stop_smoke; stop_spin; rm -rf "$scratch"' EXIT
stage_dir() { mkdir -p "$scratch/$1" && echo "$scratch/$1"; }

# placement prints the addresses mod 64 of the functions whose 64-byte code
# placement has moved pop-regroup (CHANGES.md, PR 15 and PR 19), and of
# main.speedKernel, the host-speed sampler every normalised rate is divided
# by, whose 32-byte placement moves them all. It reports, it never judges:
# every failure inside it is swallowed.
placement() {
  local dir
  dir="$(stage_dir placement)"
  go build -o "$dir/bench" ./bench || return 0
  go tool nm "$dir/bench" | while read -r addr _ sym; do
    case "$sym" in
      repro/internal/grouping.argminScan | repro/internal/grouping.scanFilter.abi0 | repro/internal/grouping.CoVGrouping.Form | 'repro/internal/core.(*Trainer).Step' | repro/internal/tensor.accumRows | repro/internal/tensor.rowsUpdate.abi0 | main.speedKernel)
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

echo "== go build ./... + fused-multiply-add checks (arm64: every package go list ./internal/... names; amd64: every internal/*/*_amd64.s)"
go build ./...
fmadir="$(stage_dir fma)"
fmapkgs="$(go list ./internal/...)"
for pkg in $fmapkgs; do
  out="$fmadir/$(tr / _ <<<"$pkg")"
  GOARCH=arm64 go build -o "$out.a" "$pkg"
  go tool objdump "$out.a" > "$out.s"
  if grep -E 'FN?M(ADD|SUB)' "$out.s" >&2; then
    echo "ci.sh: $pkg compiles to fused multiply-adds on arm64; write a*b + c as float64(a*b) + c" >&2
    exit 1
  fi
done
echo "arm64 check: all $(wc -w <<<"$fmapkgs") packages under internal/ hold no FMADD/FMSUB/FNMADD/FNMSUB"
# The assembler's listing, not `go tool objdump`: its x86 decoder has no VEX
# tables (it prints VBROADCASTSD as `SBBL AX, 0x38(SP)`), so a grep over its
# output could never fire.
for src in internal/*/*_amd64.s; do
  GOARCH=amd64 go tool asm -S -I "$(go env GOROOT)/pkg/include" -p "repro/$(dirname "$src")" -o "$fmadir/asm.o" "$src" > "$fmadir/asm.lst"
  if grep -E 'VFN?M(ADD|SUB)' "$fmadir/asm.lst" >&2; then
    echo "ci.sh: $src holds a fused multiply-add; the amd64 kernels are VMULPD then VADDPD, two roundings like the Go loops" >&2
    exit 1
  fi
  grep -q 'RET' "$fmadir/asm.lst" || { echo "ci.sh: $src: the assembler listing shows no instruction; the check above read nothing" >&2; exit 1; }
done
echo "amd64 check: $(echo internal/*/*_amd64.s) hold no VFMADD/VFMSUB/VFNMADD/VFNMSUB"
# The two AVX kernels open with PCALIGN $64, so a size change in a package
# linked before them cannot move their entries off a cache line (a scanFilter
# at 32 mod 64 read pop-regroup ≈ 0.87×). Held in the bench binary, whose
# rates they are.
GOARCH=amd64 go build -o "$fmadir/bench" ./bench
pinned=0
while read -r addr _ sym; do
  case "$sym" in
    repro/internal/grouping.scanFilter.abi0 | repro/internal/tensor.rowsUpdate.abi0)
      echo "kernel alignment: $sym at 0x$addr, mod 64 = $(( 0x$addr % 64 ))"
      if [ $(( 0x$addr % 64 )) -eq 0 ]; then pinned=$((pinned + 1)); fi ;;
  esac
done < <(go tool nm "$fmadir/bench")
if [ "$pinned" -ne 2 ]; then
  echo "ci.sh: $pinned of grouping.scanFilter and tensor.rowsUpdate sit at 0 mod 64 in the bench binary; want both (PCALIGN \$64 opens each)" >&2
  exit 1
fi
placement

echo "== go vet ./... (amd64, then 386: every package and test compiles for a 32-bit int) + gofmt"
go vet ./...
GOARCH=386 go vet ./...
unformatted="$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)"
if [ -n "$unformatted" ]; then
  echo "ci.sh: gofmt -l lists unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go test ./..."
go test ./...

# internal/tensor is not listed: it starts no goroutine and shares no state.
echo "== go test -race (cpu, core, wire, secagg, fednode, faultnet, metrics, felserve, grouping, data, leakcheck, cmd/felnode)"
go test -race ./internal/cpu ./internal/core ./internal/wire ./internal/secagg ./internal/fednode ./internal/faultnet/... ./internal/metrics ./internal/felserve ./internal/grouping ./internal/data ./internal/leakcheck ./cmd/felnode

echo "== go test -fuzz smoke (19s total across targets)"
go test ./internal/wire -run '^$' -fuzz FuzzDecodeFrame -fuzztime 1s
go test ./internal/wire -run '^$' -fuzz FuzzDecodeIntoReuse -fuzztime 1s
go test ./internal/secagg -run '^$' -fuzz FuzzFieldOps -fuzztime 1s
go test ./internal/secagg -run '^$' -fuzz FuzzQuantizeRoundTrip -fuzztime 1s
go test ./internal/secagg -run '^$' -fuzz FuzzMaskCancel -fuzztime 1s
go test ./internal/secagg -run '^$' -fuzz FuzzMaskedUpdateIntoReuse -fuzztime 1s
go test ./internal/tensor -run '^$' -fuzz FuzzRowUpdate -fuzztime 1s
go test ./internal/tensor -run '^$' -fuzz FuzzAccumRows -fuzztime 1s
go test ./internal/grouping -run '^$' -fuzz FuzzScanFilter -fuzztime 1s
go test ./internal/core -run '^$' -fuzz FuzzTrainerConfig -fuzztime 1s
go test ./internal/fednode -run '^$' -fuzz FuzzMemConnStream -fuzztime 1s
# Its seeds are whole files of tens of KB: minimising each new input for the
# default 60 s would spend the whole second on one input instead of fuzzing.
go test ./internal/felserve -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 2s -fuzzminimizetime 100x
go test ./internal/faultnet -run '^$' -fuzz FuzzLoadPlan -fuzztime 1s
go test ./internal/faultnet -run '^$' -fuzz FuzzFaultConnPassThrough -fuzztime 1s
go test ./internal/stats -run '^$' -fuzz FuzzCoVOfCounts -fuzztime 1s
go test ./internal/stats -run '^$' -fuzz FuzzKLDivergence -fuzztime 1s
go test ./internal/groupio -run '^$' -fuzz FuzzParse -fuzztime 1s
go test ./internal/data -run '^$' -fuzz FuzzRedraw -fuzztime 1s

echo "== felnode -chaos smoke (deterministic replay of every named scenario)"
# One felnode binary serves this stage and the three after it.
nodedir="$(stage_dir felnode)"
go build -o "$nodedir/felnode" ./cmd/felnode
scenarios="$("$nodedir/felnode" -chaos list | awk '{print $1}')"
for sc in $scenarios; do
  "$nodedir/felnode" -chaos "$sc" > "$nodedir/$sc.1.txt"
  "$nodedir/felnode" -chaos "$sc" > "$nodedir/$sc.2.txt"
  if ! diff -u "$nodedir/$sc.1.txt" "$nodedir/$sc.2.txt"; then
    echo "ci.sh: chaos scenario $sc does not replay deterministically" >&2
    exit 1
  fi
done
echo "chaos smoke: $(echo $scenarios | wc -w) named scenarios ($(echo $scenarios)) replayed byte-identically"

echo "== felnode loopback smoke (TCP on 127.0.0.1) + empty federation + modelled-link examples + fednet reset recovery + quick start + covgroup"
timeout 120 "$nodedir/felnode" -role loopback -clients 12 -edges 2 -rounds 2
# An empty federation is a usage error: exit 2 and one line, no panic dump.
empty=0
timeout 30 "$nodedir/felnode" -role loopback -clients 0 2> "$nodedir/empty.txt" || empty=$?
if [ "$empty" -ne 2 ] || [ "$(wc -l < "$nodedir/empty.txt")" -ne 1 ] || grep -q goroutine "$nodedir/empty.txt"; then
  cat "$nodedir/empty.txt" >&2
  echo "ci.sh: felnode -clients 0 exited $empty; want 2 with one stderr line and no stack trace" >&2
  exit 1
fi
echo "empty federation: $(cat "$nodedir/empty.txt")"
# So is a learning rate no job can train with, refused before any listener opens.
badlr=0
timeout 30 "$nodedir/felnode" -role loopback -lr NaN 2> "$nodedir/badlr.txt" || badlr=$?
if [ "$badlr" -ne 2 ] || [ "$(wc -l < "$nodedir/badlr.txt")" -ne 1 ] || grep -q goroutine "$nodedir/badlr.txt"; then
  cat "$nodedir/badlr.txt" >&2
  echo "ci.sh: felnode -lr NaN exited $badlr; want 2 with one stderr line and no stack trace" >&2
  exit 1
fi
echo "bad learning rate: $(cat "$nodedir/badlr.txt")"
# So is an unknown role, refused before the -metrics listener opens.
badrole=0
timeout 30 "$nodedir/felnode" -role bogus -metrics 127.0.0.1:0 > "$nodedir/badrole.out" 2> "$nodedir/badrole.txt" || badrole=$?
if [ "$badrole" -ne 2 ] || [ "$(wc -l < "$nodedir/badrole.txt")" -ne 1 ] || grep -q goroutine "$nodedir/badrole.txt" || [ -s "$nodedir/badrole.out" ]; then
  cat "$nodedir/badrole.out" "$nodedir/badrole.txt" >&2
  echo "ci.sh: felnode -role bogus exited $badrole; want 2 with one stderr line, nothing on stdout and no stack trace" >&2
  exit 1
fi
echo "unknown role: $(cat "$nodedir/badrole.txt")"
# So is a -hold with no -metrics endpoint to hold up, which used to exit 0.
badhold=0
timeout 30 "$nodedir/felnode" -role loopback -hold 1s > "$nodedir/badhold.out" 2> "$nodedir/badhold.txt" || badhold=$?
if [ "$badhold" -ne 2 ] || [ "$(wc -l < "$nodedir/badhold.txt")" -ne 1 ] || grep -q goroutine "$nodedir/badhold.txt" || [ -s "$nodedir/badhold.out" ]; then
  cat "$nodedir/badhold.out" "$nodedir/badhold.txt" >&2
  echo "ci.sh: felnode -hold 1s without -metrics exited $badhold; want 2 with one stderr line, nothing on stdout and no stack trace" >&2
  exit 1
fi
echo "hold without metrics: $(cat "$nodedir/badhold.txt")"
# Each runs fednode rounds on faultnet's simulated clock and prints the
# round's modelled duration in simulated seconds.
for ex in distributed secureagg; do
  go build -o "$nodedir/$ex" "./examples/$ex"
  timeout 120 "$nodedir/$ex" > "$nodedir/$ex.txt"
  if ! grep 'simulated seconds' "$nodedir/$ex.txt"; then
    cat "$nodedir/$ex.txt" >&2
    echo "ci.sh: examples/$ex printed no simulated round time" >&2
    exit 1
  fi
done
# Its second job resets one client mid-round; the group must recover.
go build -o "$nodedir/fednet" ./examples/fednet
timeout 120 "$nodedir/fednet" > "$nodedir/fednet.txt"
if ! grep -E 'recovered group rounds=[1-9]' "$nodedir/fednet.txt"; then
  cat "$nodedir/fednet.txt" >&2
  echo "ci.sh: examples/fednet recovered no group round after the reset" >&2
  exit 1
fi
# README's quick start, run twice: a seeded run prints the same bytes.
go build -o "$nodedir/quickstart" ./examples/quickstart
timeout 120 "$nodedir/quickstart" > "$nodedir/quickstart.1.txt"
timeout 120 "$nodedir/quickstart" > "$nodedir/quickstart.2.txt"
if ! diff -u "$nodedir/quickstart.1.txt" "$nodedir/quickstart.2.txt"; then
  echo "ci.sh: examples/quickstart does not replay byte-identically" >&2
  exit 1
fi
echo "quick start: two runs of examples/quickstart printed identical output ($(wc -l < "$nodedir/quickstart.1.txt") lines)"
# The edge-side grouping tool on a histogram document, twice: seeded, so the
# same bytes; an out-of-range flag is a usage error, one line, no panic dump.
go build -o "$nodedir/covgroup" ./cmd/covgroup
cat > "$nodedir/hist.json" <<'JSON'
{"classes": 3, "clients": [
  {"id": 0, "counts": [12, 0, 3], "edge": 0}, {"id": 1, "counts": [0, 9, 8], "edge": 0},
  {"id": 2, "counts": [5, 5, 0], "edge": 0}, {"id": 3, "counts": [1, 0, 14], "edge": 0},
  {"id": 4, "counts": [7, 2, 2], "edge": 1}, {"id": 5, "counts": [0, 11, 1], "edge": 1},
  {"id": 6, "counts": [3, 3, 9], "edge": 1}, {"id": 7, "counts": [10, 1, 0], "edge": 1}]}
JSON
for i in 1 2; do
  timeout 30 "$nodedir/covgroup" -mings 2 -maxcov 0.5 < "$nodedir/hist.json" > "$nodedir/covgroup.$i.json"
done
if ! diff -u "$nodedir/covgroup.1.json" "$nodedir/covgroup.2.json"; then
  echo "ci.sh: covgroup does not replay byte-identically" >&2
  exit 1
fi
badflag=0
timeout 30 "$nodedir/covgroup" -targetgs -1 < "$nodedir/hist.json" > /dev/null 2> "$nodedir/covgroup.err" || badflag=$?
if [ "$badflag" -ne 2 ] || [ "$(wc -l < "$nodedir/covgroup.err")" -ne 1 ] || grep -q goroutine "$nodedir/covgroup.err"; then
  cat "$nodedir/covgroup.err" >&2
  echo "ci.sh: covgroup -targetgs -1 exited $badflag; want 2 with one stderr line and no stack trace" >&2
  exit 1
fi
echo "covgroup: two runs printed identical output ($(wc -c < "$nodedir/covgroup.1.json") bytes); $(cat "$nodedir/covgroup.err")"

echo "== felnode -metrics smoke (live HTTP endpoint)"
"$nodedir/felnode" -role loopback -clients 12 -edges 2 -rounds 2 \
  -metrics 127.0.0.1:19137 -hold 60s > "$nodedir/metrics.log" 2>&1 &
smokepid=$!
snapshot=""
for _ in $(seq 1 120); do
  if snapshot="$(curl -sf http://127.0.0.1:19137/metrics 2>/dev/null)" \
     && grep -q '^fel_wire_bytes_total' <<<"$snapshot" \
     && grep -q '^fel_core_gamma_p ' <<<"$snapshot"; then
    break
  fi
  snapshot=""
  sleep 0.5
done
if [ -z "$snapshot" ]; then
  echo "ci.sh: metrics endpoint never served fel_wire_bytes_total and fel_core_gamma_p" >&2
  cat "$nodedir/metrics.log" >&2 || true
  exit 1
fi
if bad="$(grep -Ev '^#|^$|^fel_[a-z0-9_]+(\{[^}]*\})? -?[0-9][0-9eE+.-]*$' <<<"$snapshot")" && [ -n "$bad" ]; then
  echo "ci.sh: metrics snapshot has unparseable lines:" >&2
  echo "$bad" >&2
  exit 1
fi
if ! grep -q '^fel_core_groups ' <<<"$snapshot"; then
  echo "ci.sh: metrics snapshot lacks fel_core_groups" >&2
  exit 1
fi
if perGroup="$(grep -F 'group="' <<<"$snapshot")"; then
  echo "ci.sh: metrics snapshot has per-group series:" >&2
  echo "$perGroup" >&2
  exit 1
fi
echo "metrics smoke: $(grep -c '^fel_' <<<"$snapshot") samples parsed, fel_wire_bytes_total, fel_core_groups and fel_core_gamma_p present, no group label"
stop_smoke

echo "== felserve load smoke (loopback subscriber fan-in + leak check under -race)"
go test -race -count=1 -run 'TestServeLoadSmoke' ./internal/felserve
# Stage 6 ran kill-cloud twice already; its first output is the verdict.
if ! grep 'bit-identical=true' "$nodedir/kill-cloud.1.txt"; then
  echo "ci.sh: kill-cloud recovery was not bit-identical" >&2
  exit 1
fi
echo "load smoke: serving layer leak-free under -race, kill-cloud recovery bit-identical"

echo "== results (every deterministic results/medium CSV at -scale medium -seed 2024)"
# The north star's second fixed point: the figure CSVs are regenerated, not
# trusted. fig5 times group formation on this host, so only its shape columns
# (series, client count) are held.
results_start=$SECONDS
resdir="$(stage_dir results)"
go build -o "$resdir/felbench" ./cmd/felbench
"$resdir/felbench" -exp all -scale medium -seed 2024 -out "$resdir/medium" > "$resdir/felbench.out"
# felbench's last line counts the runs it trained and the ones it reused.
tail -n 1 "$resdir/felbench.out"
# Both directions: a golden file no experiment writes is stale, and a CSV
# felbench writes with no golden file would be regenerated and never held.
(cd results/medium && ls -1 -- *.csv) > "$resdir/golden.names"
(cd "$resdir/medium" && ls -1 -- *.csv) > "$resdir/fresh.names"
odd=0
for name in $(comm -23 "$resdir/golden.names" "$resdir/fresh.names"); do
  echo "ci.sh: results/medium/$name is written by no experiment; delete it" >&2
  odd=1
done
for name in $(comm -13 "$resdir/golden.names" "$resdir/fresh.names"); do
  echo "ci.sh: felbench -exp all writes $name, but results/medium holds no golden copy; record it" >&2
  odd=1
done
[ "$odd" = 0 ] || exit 1
for golden in results/medium/*.csv; do
  fresh="$resdir/medium/$(basename "$golden")"
  if [ "$(basename "$golden")" = fig5.csv ]; then
    diff -u <(cut -d, -f1,2 "$golden") <(cut -d, -f1,2 "$fresh")
  else
    diff -u "$golden" "$fresh"
  fi || { echo "ci.sh: $golden no longer regenerates; a figure moved — find out why before re-recording" >&2; exit 1; }
done
echo "results: $(ls results/medium/*.csv | wc -l) CSVs regenerate byte-identically (fig5 on its shape columns) in $((SECONDS - results_start)) s"

echo "== contention (core and the MemNetwork packages, -count=3, beside one busy loop per CPU)"
# A test that leans on timing — a write that returns only once its peer has
# read, a sleep long enough on an idle host, a formation collected by the
# time a regroup's runtime.GC returns — fails here rather than for a user on
# a loaded one. The loops are processes, not goroutines: faultnet's simulated
# clock only moves while every goroutine of its own process waits.
for _ in $(seq "$(nproc)"); do
  (while :; do :; done) &
  spinpids+=($!)
done
contention_start=$SECONDS
go test -count=3 ./internal/core ./internal/fednode ./internal/felserve ./internal/faultnet/...
stop_spin
echo "contention: passed three times beside $(nproc) busy loops in $((SECONDS - contention_start)) s"

echo "ci.sh: all gates passed"
