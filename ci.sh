#!/usr/bin/env bash
# ci.sh — the repository's full verification gate. What the stages hold and
# why lives in DESIGN.md (the S-row of each subsystem names its gate; §8 the
# no-FMA rule of stage 1; S26 repolint); this is only the list:
#
#   1. build       go build ./..., the arm64 fused-multiply-add check of every
#                  package under internal/ and the amd64 one of the assembly,
#                  then the print-only `placement`
#   2. vet         go vet ./... (asmdecl among it) + gofmt -l
#   3. test        go test ./... — tier-1; internal/lint's TestRepoIsLintClean
#                  is the module-wide repolint pass, run here and nowhere else
#   4. race        go test -race over the concurrent packages
#   5. fuzz        14 s across the wire, secagg, tensor, grouping, core
#                  (Config against validate), fednode (MemNetwork byte
#                  streams), felserve (whole checkpoint files, 2 s) and
#                  faultnet (whole plan files) targets
#   6. chaos       felnode -chaos <name> twice for each of the six named
#                  scenarios and kill-cloud, outputs byte-identical
#                  (simulated time: seconds for all six)
#   7. felnode     a loopback TCP job, cross-checked against core.Train; the
#                  two modelled-link examples print a simulated round time;
#                  examples/fednet recovers a client reset by a faultnet rule;
#                  examples/quickstart prints the same bytes twice
#   8. metrics     the same job's live /metrics endpoint parses
#   9. load        felserve under -race, then stage 6's kill-cloud verdict
#  10. results     every deterministic results/medium CSV regenerated and diffed
#  11. contention  the packages whose tests run on fednode's MemNetwork at
#                  -count=3 beside one busy loop per CPU
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
# placement has moved pop-regroup (CHANGES.md, PR 15 and PR 19). It reports,
# it never judges: every failure inside it is swallowed.
placement() {
  local dir
  dir="$(stage_dir placement)"
  go build -o "$dir/bench" ./bench || return 0
  go tool nm "$dir/bench" | while read -r addr _ sym; do
    case "$sym" in
      repro/internal/grouping.argminScan | repro/internal/grouping.scanFilter.abi0 | repro/internal/grouping.CoVGrouping.Form | 'repro/internal/core.(*Trainer).Step' | repro/internal/tensor.accumRows | repro/internal/tensor.rowUpdate.abi0)
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
placement

echo "== go vet ./... + gofmt"
go vet ./...
unformatted="$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)"
if [ -n "$unformatted" ]; then
  echo "ci.sh: gofmt -l lists unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go test ./..."
go test ./...

# internal/tensor is not listed: it starts no goroutine and shares no state.
echo "== go test -race (cpu, core, async, wire, fednode, faultnet, metrics, felserve, grouping, data)"
go test -race ./internal/cpu ./internal/core ./internal/async ./internal/wire ./internal/fednode ./internal/faultnet/... ./internal/metrics ./internal/felserve ./internal/grouping ./internal/data

echo "== go test -fuzz smoke (14s total across targets)"
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

echo "== felnode loopback smoke (TCP on 127.0.0.1) + modelled-link examples + fednet reset recovery + quick start"
timeout 120 "$nodedir/felnode" -role loopback -clients 12 -edges 2 -rounds 2
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

echo "== felnode -metrics smoke (live HTTP endpoint)"
"$nodedir/felnode" -role loopback -clients 12 -edges 2 -rounds 2 \
  -metrics 127.0.0.1:19137 -hold 60s > "$nodedir/metrics.log" 2>&1 &
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
  cat "$nodedir/metrics.log" >&2 || true
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
resdir="$(stage_dir results)"
go build -o "$resdir/felbench" ./cmd/felbench
"$resdir/felbench" -exp all -scale medium -seed 2024 -out "$resdir/medium" > /dev/null
for golden in results/medium/*.csv; do
  fresh="$resdir/medium/$(basename "$golden")"
  if [ "$(basename "$golden")" = fig5.csv ]; then
    diff -u <(cut -d, -f1,2 "$golden") <(cut -d, -f1,2 "$fresh")
  else
    diff -u "$golden" "$fresh"
  fi || { echo "ci.sh: $golden no longer regenerates; a figure moved — find out why before re-recording" >&2; exit 1; }
done
echo "results: $(ls results/medium/*.csv | wc -l) CSVs regenerate byte-identically (fig5 on its shape columns)"

echo "== contention (MemNetwork packages, -count=3, beside one busy loop per CPU)"
# A test that leans on timing — a write that returns only once its peer has
# read, a sleep long enough on an idle host — fails here rather than for a
# user on a loaded one. The loops are processes, not goroutines: faultnet's
# simulated clock only moves while every goroutine of its own process waits.
for _ in $(seq "$(nproc)"); do
  (while :; do :; done) &
  spinpids+=($!)
done
contention_start=$SECONDS
go test -count=3 ./internal/fednode ./internal/felserve ./internal/faultnet/...
stop_spin
echo "contention: passed three times beside $(nproc) busy loops in $((SECONDS - contention_start)) s"

echo "ci.sh: all gates passed"
