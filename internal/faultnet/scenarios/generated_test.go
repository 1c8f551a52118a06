package scenarios

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/fednode"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// The seeds each generated-plan property runs. They are fixed, and sized so
// the package stays inside its 2 s budget: a faulted job costs tens of
// milliseconds of wall time however long its simulated waits are.
var (
	timeOnlySeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	mixedSeeds    = []uint64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112}
)

// genPlan draws a seeded plan of one to three rules in faultnet's grammar,
// each on a single-writer link (the package doc's rule: client→edge,
// edge→client, cloud→edge) and matching the frame type that link carries
// every group round. Time rules wait at most 800 ms each, so even three
// stacked on one exchange stay below the 5 s straggler deadline. Mixed plans
// add corrupt, truncate and reset rules and a restart budget; those aim at
// one client's link, as the named scenarios do — an edge is meant to survive
// every plan, and a class-wide corruption would only break every group's
// Shamir threshold.
func genPlan(seed uint64, mixed bool) *faultnet.Plan {
	rng := stats.NewRNG(seed)
	kind := "time-only"
	actions := []faultnet.Action{faultnet.ActionDelay, faultnet.ActionPartition}
	if mixed {
		kind = "mixed"
		actions = append(actions, faultnet.ActionCorrupt, faultnet.ActionTruncate, faultnet.ActionReset)
	}
	p := &faultnet.Plan{Name: fmt.Sprintf("gen-%s-%d", kind, seed), Seed: seed}
	if mixed {
		p.MaxRestarts = rng.IntN(3)
		p.RestartBackoffMs = rng.IntN(50)
	}
	// side names one node of a class, or, when any may do, possibly the class.
	side := func(class string, n int, wide bool) string {
		if wide && rng.IntN(2) == 0 {
			return class + "/*"
		}
		return fmt.Sprintf("%s/%d", class, rng.IntN(n))
	}
	for n := 1 + rng.IntN(3); len(p.Rules) < n; {
		r := faultnet.Rule{
			Action: actions[rng.IntN(len(actions))],
			Round:  faultnet.MatchAny, Seq: faultnet.MatchAny,
			Prob:  []float64{1, 0.5, 0.2}[rng.IntN(3)],
			Count: rng.IntN(4),
		}
		timeOnly := r.Action == faultnet.ActionDelay || r.Action == faultnet.ActionPartition
		links := 2
		if timeOnly {
			links = 3
		}
		switch rng.IntN(links) {
		case 0:
			r.From, r.To, r.Type = side("client", 24, timeOnly), side("edge", 2, true), "MaskedUpdate"
		case 1:
			r.From, r.To, r.Type = side("edge", 2, true), side("client", 24, timeOnly), "GlobalModel"
		case 2:
			r.From, r.To, r.Type = "cloud", side("edge", 2, true), "GlobalModel"
		}
		if rng.IntN(3) == 0 {
			r.Round = rng.IntN(3)
		}
		if rng.IntN(3) == 0 {
			r.Seq = rng.IntN(2)
		}
		switch r.Action {
		case faultnet.ActionDelay:
			r.DelayMs = 1 + rng.IntN(600)
			r.JitterMs = rng.IntN(200)
		case faultnet.ActionPartition:
			r.HealMs = 1 + rng.IntN(800)
		case faultnet.ActionCorrupt:
			r.Flips = 1 + rng.IntN(8)
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// checkReplayable validates plan and requires its JSON to load back as the
// same plan, so the replay line a failure prints runs exactly this plan. It
// returns the JSON.
func checkReplayable(t *testing.T, plan *faultnet.Plan) string {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatalf("generated plan %s does not validate: %v", plan.Name, err)
	}
	js, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back := new(faultnet.Plan)
	if err := json.Unmarshal(js, back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil || !reflect.DeepEqual(back, plan) {
		t.Fatalf("plan %s does not survive its JSON (err %v):\n%s", plan.Name, err, js)
	}
	return string(js)
}

// replayHelp is what a failing seed logs: its plan and the command that
// replays it.
func replayHelp(js string) string {
	return "plan.json:\n" + js + "\nreplay: go run ./cmd/felnode -chaos plan.json"
}

// runWatched runs sc, failing with the replay line if the run outlives a
// wall-clock bound. Every wait in a faulted run — injected delays, heals,
// deadlines, backoff — is on the simulated clock, so a wedged run resolves
// at the simulated RoundTimeout in milliseconds of wall time; one still
// running after the bound has blocked where no deadline reaches.
func runWatched(t *testing.T, sc Scenario, js string) (*Result, *faultnet.Plan, error) {
	t.Helper()
	type outcome struct {
		res  *Result
		plan *faultnet.Plan
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		res, plan, err := execute(sc, func(string, ...any) {})
		done <- outcome{res, plan, err}
	}()
	select {
	case o := <-done:
		return o.res, o.plan, o.err
	case <-time.After(20 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s hangs past the simulated RoundTimeout\n%s\n%s", sc.Name, replayHelp(js), buf[:runtime.Stack(buf, true)])
		return nil, nil, nil
	}
}

// TestGeneratedTimeOnlyPlans: a seeded plan of delays, jitter and
// partitions, every wait below the straggler deadline, must complete with
// zero dropouts, final weights Float64bits-equal to one fault-free run, and
// the same fault log on a replay.
func TestGeneratedTimeOnlyPlans(t *testing.T) {
	sys := baseSystem()
	cfg := baseJobConfig()
	if _, err := cfg.PinAllGroups(sys); err != nil {
		t.Fatal(err)
	}
	cfg.Meter = fednode.NewMeter(metrics.New())
	base, err := fednode.RunJob(fednode.NewMemNetwork(), sys, cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range timeOnlySeeds {
		plan := genPlan(seed, false)
		js := checkReplayable(t, plan)
		sc := Scenario{Name: plan.Name, Plan: func(*Context) *faultnet.Plan { return plan }, NoBaseline: true}
		var logs [2]string
		for i := range logs {
			noLeaks := leakcheck.Check(t)
			res, _, err := runWatched(t, sc, js)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, replayHelp(js))
			}
			if d := res.Report.Dropouts; d != 0 || len(res.Casualties) != 0 {
				t.Fatalf("seed %d: %d dropouts, %d casualties under waits below the deadline\n%s", seed, d, len(res.Casualties), replayHelp(js))
			}
			for j, w := range base.Params {
				if math.Float64bits(res.Report.Params[j]) != math.Float64bits(w) {
					t.Fatalf("seed %d: param %d is %x, fault-free %x\n%s", seed, j,
						math.Float64bits(res.Report.Params[j]), math.Float64bits(w), replayHelp(js))
				}
			}
			logs[i] = res.Log.String()
			noLeaks()
		}
		if logs[0] != logs[1] {
			t.Fatalf("seed %d: fault log differs between two runs:\n--- run 1\n%s--- run 2\n%s%s", seed, logs[0], logs[1], replayHelp(js))
		}
	}
}

// TestGeneratedMixedPlans: adding corrupt, truncate and reset rules, a run
// either completes and passes verify's universal invariants, or its job
// returns an error; it never hangs and never leaks a goroutine.
func TestGeneratedMixedPlans(t *testing.T) {
	for _, seed := range mixedSeeds {
		plan := genPlan(seed, true)
		js := checkReplayable(t, plan)
		sc := Scenario{Name: plan.Name, Plan: func(*Context) *faultnet.Plan { return plan }, NoBaseline: true}
		noLeaks := leakcheck.Check(t)
		res, validated, err := runWatched(t, sc, js)
		if err == nil {
			err = verify(sc, validated, res)
			if err != nil {
				t.Fatalf("seed %d: completed but broke an invariant: %v\n%s", seed, err, replayHelp(js))
			}
			t.Logf("seed %d: completed, %d faults, %d dropouts, %d casualties, %d restarts",
				seed, res.Log.Len(), res.Report.Dropouts, len(res.Casualties), res.Restarts)
		} else {
			t.Logf("seed %d: job failed: %v", seed, err)
		}
		noLeaks()
	}
}
