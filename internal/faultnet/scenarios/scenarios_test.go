package scenarios

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/metrics"
)

// TestChaosSuite runs every named scenario twice. The first run proves the
// recovery invariants (inside Run); the second proves replay determinism:
// the injected-fault event log and the full timing-masked metrics snapshot —
// frames, bytes, secagg ops, dropouts, rejoins — must be byte-identical.
// That holds for client-crash-restart too: its restart backoff and the
// round-1 hold-back run on the simulated clock, so the rejoin always lands
// at the same round boundary.
func TestChaosSuite(t *testing.T) {
	for _, sc := range All() {
		t.Run(sc.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r1, err := Run(sc, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(sc, t.Logf)
			if err != nil {
				t.Fatal(err)
			}

			if r1.Log.Len() == 0 {
				t.Fatal("scenario injected no faults: the plan matched nothing")
			}
			if l1, l2 := r1.Log.String(), r2.Log.String(); l1 != l2 {
				t.Fatalf("fault event log differs between two seeded runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", l1, l2)
			}
			s1 := metrics.MaskTimings(r1.Registry.Snapshot())
			s2 := metrics.MaskTimings(r2.Registry.Snapshot())
			if s1 != s2 {
				t.Fatalf("masked metrics snapshot differs between two seeded runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", s1, s2)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestDelayOnlyScenariosRanBaseline pins that the bitwise-weights check is
// actually exercised: the delay-only scenarios must have produced a
// fault-free baseline (Run compares the vectors bit for bit and fails on
// any difference).
func TestDelayOnlyScenariosRanBaseline(t *testing.T) {
	for _, name := range []string{"edge-partition-heal", "slow-links"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("scenario %q missing from suite", name)
		}
		r, err := Run(sc, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if r.FaultFreeParams == nil {
			t.Fatalf("%s: no fault-free baseline was run, bitwise check skipped", name)
		}
	}
}

// TestFromPlanFile drives the felnode -chaos path: a hand-written plan.json
// is loaded, validated, and run with the universal invariants (including
// the delay-only bitwise check, since this plan only adds latency).
func TestFromPlanFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	planJSON := `{
		"name": "file-plan",
		"seed": 99,
		"rules": [
			{"from": "client/*", "to": "edge/*", "type": "MaskedUpdate",
			 "action": "delay", "delay_ms": 1, "jitter_ms": 2, "prob": 0.5}
		]
	}`
	if err := os.WriteFile(path, []byte(planJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := faultnet.LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(FromPlan(plan), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "file-plan" {
		t.Fatalf("scenario took name %q, want the plan's name", r.Name)
	}
	if r.FaultFreeParams == nil {
		t.Fatal("delay-only file plan skipped the bitwise baseline check")
	}
	if r.Log.Len() == 0 {
		t.Fatal("file plan injected nothing")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("no-such-scenario"); ok {
		t.Fatal("ByName invented a scenario")
	}
	if len(All()) < 5 {
		t.Fatalf("suite has %d scenarios, want at least 5", len(All()))
	}
}

// waitGoroutines fails the test if the goroutine count does not return to
// (near) its pre-run level: a leaked edge accept loop or client supervisor
// would hold it up.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before run, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}
