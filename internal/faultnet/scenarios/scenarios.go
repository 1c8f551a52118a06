package scenarios

import (
	"fmt"
	"time"

	"repro/internal/faultnet"
	"repro/internal/fednode"
	"repro/internal/metrics"
)

// anyRule returns a rule matching every round and group-round sequence —
// the Go-side equivalent of a plan.json rule that omits round and seq.
func anyRule(r faultnet.Rule) faultnet.Rule {
	r.Round, r.Seq = faultnet.MatchAny, faultnet.MatchAny
	return r
}

// clientTag formats a client's link tag.
func clientTag(id int) string { return fmt.Sprintf("client/%d", id) }

// needTargets fails the scenario early when formation produced fewer
// distinct big-enough groups than the plan scripts faults for.
func needTargets(ctx *Context, n, minSize int) ([]int, error) {
	ids := ctx.Targets(n, minSize)
	if len(ids) < n {
		return nil, fmt.Errorf("scenarios: need %d groups of size >= %d, formation gave %d", n, minSize, len(ids))
	}
	return ids, nil
}

// mustTargets is needTargets for plan builders, which cannot return an
// error; the runner surfaces the panic-free empty plan as a validation
// failure instead, so we encode the shortfall as an invalid plan.
func mustTargets(ctx *Context, n, minSize int) []int {
	ids, err := needTargets(ctx, n, minSize)
	if err != nil {
		return nil
	}
	return ids
}

// All returns the named chaos suite in a stable order.
func All() []Scenario {
	return []Scenario{
		corruptFrames(),
		clientCrashRestart(),
		edgePartitionHeal(),
		stragglerStorm(),
		slowLinks(),
		mixed(),
	}
}

// ByName looks a scenario up in the suite.
func ByName(name string) (Scenario, bool) {
	for _, sc := range All() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// FromPlan wraps an externally supplied plan (felnode -chaos plan.json) in
// a scenario with only the universal invariants: the job completes, every
// injected fault is accounted, and a delay-only plan leaves the weights
// bit-identical.
func FromPlan(plan *faultnet.Plan) Scenario {
	name := plan.Name
	if name == "" {
		name = "custom-plan"
	}
	return Scenario{
		Name:  name,
		About: "externally supplied chaos plan",
		Plan:  func(*Context) *faultnet.Plan { return plan },
	}
}

// corruptFrames flips payload bits in one masked update from each of two
// clients in distinct groups. The CRC must catch both, the edges must
// convert them into secure-aggregation dropouts, and the counters must
// match the injection log exactly.
func corruptFrames() Scenario {
	return Scenario{
		Name:  "corrupt-frames",
		About: "bit-flip one masked update in each of two groups; CRC rejects, secagg recovers",
		Plan: func(ctx *Context) *faultnet.Plan {
			rules := make([]faultnet.Rule, 0, 2)
			for _, id := range mustTargets(ctx, 2, 3) {
				rules = append(rules, anyRule(faultnet.Rule{
					From: clientTag(id), To: "edge/*", Type: "MaskedUpdate",
					Action: faultnet.ActionCorrupt, Count: 1, Flips: 3,
				}))
			}
			return &faultnet.Plan{Name: "corrupt-frames", Seed: 7, Rules: rules}
		},
		Expect: func(r *Result) error {
			if n := r.Log.Counts()[faultnet.ActionCorrupt]; n != 2 {
				return fmt.Errorf("injected %d corruptions, want 2", n)
			}
			if got := r.Counter("fel_wire_decode_errors_total", metrics.L("reason", "checksum")); got != 2 {
				return fmt.Errorf("counted %d checksum decode errors, want exactly the 2 injected", got)
			}
			if r.Report.Dropouts != 2 {
				return fmt.Errorf("%d dropouts, want 2 (one per corrupted client)", r.Report.Dropouts)
			}
			if r.Report.Recoveries < 2 {
				return fmt.Errorf("%d recoveries, want >= 2 (each wounded group reveals shares)", r.Report.Recoveries)
			}
			if len(r.Casualties) != 2 || r.Restarts != 0 {
				return fmt.Errorf("%d casualties / %d restarts, want 2 / 0: corrupted clients die for good", len(r.Casualties), r.Restarts)
			}
			if got := r.Counter("fel_fednode_straggler_timeouts_total"); got != 0 {
				return fmt.Errorf("%d straggler timeouts on a corruption-only plan", got)
			}
			return nil
		},
	}
}

// clientCrashRestart resets one client's connection mid-round-0. fednode
// redials it within the plan's restart budget; the edge must replay the
// assignment, adopt the rejoined connection at the next round boundary, and
// finish with the client back in its seat. The round-1 broadcast is held
// back well past the restart backoff so that a round boundary is still to
// come when the redial lands: local SGD takes no simulated time, so without
// the hold-back the job would end before the backoff does. Both waits run on
// the simulated clock, so the rejoin lands at round 1's boundary every run.
func clientCrashRestart() Scenario {
	return Scenario{
		Name:  "client-crash-restart",
		About: "kill one client's connection in round 0; it restarts, rejoins, and finishes the job",
		Plan: func(ctx *Context) *faultnet.Plan {
			targets := mustTargets(ctx, 1, 3)
			rules := make([]faultnet.Rule, 0, 2)
			for _, id := range targets {
				rules = append(rules, faultnet.Rule{
					From: clientTag(id), To: "edge/*", Type: "MaskedUpdate",
					Round: 0, Seq: faultnet.MatchAny,
					Action: faultnet.ActionReset, Count: 1,
				})
			}
			rules = append(rules, faultnet.Rule{
				From: "cloud", To: "edge/*", Type: "GlobalModel",
				Round: 1, Seq: faultnet.MatchAny,
				Action: faultnet.ActionDelay, DelayMs: 150, Count: 1,
			})
			return &faultnet.Plan{
				Name: "client-crash-restart", Seed: 11,
				MaxRestarts: 2, RestartBackoffMs: 10,
				Rules: rules,
			}
		},
		Expect: func(r *Result) error {
			if n := r.Log.Counts()[faultnet.ActionReset]; n != 1 {
				return fmt.Errorf("injected %d resets, want 1", n)
			}
			if r.Report.Dropouts != 1 {
				return fmt.Errorf("%d dropouts, want 1 (the round-0 crash)", r.Report.Dropouts)
			}
			if r.Restarts < 1 {
				return fmt.Errorf("supervisor recorded %d restarts, want >= 1", r.Restarts)
			}
			if got := r.Counter("fel_fednode_rejoins_total"); got < 1 {
				return fmt.Errorf("edge adopted %d rejoins, want >= 1", got)
			}
			if len(r.Casualties) != 0 {
				return fmt.Errorf("%d casualties, want 0: the crashed client must rejoin and finish (%v)", len(r.Casualties), r.Casualties)
			}
			return nil
		},
	}
}

// edgePartitionHeal partitions the cloud↔edge/1 link when the round-1
// global model is in flight and heals it 150ms later. A partition only
// reshapes time, so beyond completing, the run must reproduce the
// fault-free weights bit for bit (checked universally for delay-only
// plans).
func edgePartitionHeal() Scenario {
	return Scenario{
		Name:  "edge-partition-heal",
		About: "partition cloud↔edge/1 across the round-1 broadcast, heal after 150ms, weights bit-identical",
		Plan: func(*Context) *faultnet.Plan {
			return &faultnet.Plan{
				Name: "edge-partition-heal", Seed: 13,
				Rules: []faultnet.Rule{{
					From: "cloud", To: "edge/1", Type: "GlobalModel",
					Round: 1, Seq: faultnet.MatchAny,
					Action: faultnet.ActionPartition, HealMs: 150, Count: 1,
				}},
			}
		},
		Expect: func(r *Result) error {
			if n := r.Log.Counts()[faultnet.ActionPartition]; n != 1 {
				return fmt.Errorf("injected %d partitions, want 1", n)
			}
			if r.Report.Dropouts != 0 || len(r.Casualties) != 0 {
				return fmt.Errorf("healed partition caused %d dropouts / %d casualties, want none", r.Report.Dropouts, len(r.Casualties))
			}
			return nil
		},
	}
}

// stragglerStorm delays one masked update from each of two groups far past
// the straggler deadline. Each miss must be classified as a *timeout* — not
// a generic I/O error — and counted once as a straggler and once as a
// dropout; the groups recover via share reveal.
func stragglerStorm() Scenario {
	return Scenario{
		Name:  "straggler-storm",
		About: "two clients straggle past the deadline; edges classify timeouts and recover",
		Tune: func(cfg *fednode.JobConfig) {
			// Simulated time, like the 1.5 s delays: honest clients, whose
			// training takes none, never miss it.
			cfg.StragglerTimeout = 600 * time.Millisecond
		},
		Plan: func(ctx *Context) *faultnet.Plan {
			rules := make([]faultnet.Rule, 0, 2)
			for _, id := range mustTargets(ctx, 2, 3) {
				rules = append(rules, anyRule(faultnet.Rule{
					From: clientTag(id), To: "edge/*", Type: "MaskedUpdate",
					Action: faultnet.ActionDelay, DelayMs: 1500, Count: 1,
				}))
			}
			return &faultnet.Plan{Name: "straggler-storm", Seed: 17, Rules: rules}
		},
		// Technically delay-only, but a delay past the straggler deadline is
		// a dropout by design — the trajectory is supposed to change.
		NoBaseline: true,
		Expect: func(r *Result) error {
			if n := r.Log.Counts()[faultnet.ActionDelay]; n != 2 {
				return fmt.Errorf("injected %d delays, want 2", n)
			}
			if got := r.Counter("fel_fednode_straggler_timeouts_total"); got != 2 {
				return fmt.Errorf("counted %d straggler timeouts, want exactly the 2 injected", got)
			}
			if got := r.Counter("fel_wire_decode_errors_total", metrics.L("reason", "timeout")); got != 2 {
				return fmt.Errorf("counted %d timeout decode errors, want 2: deadline misses must classify as timeouts", got)
			}
			if r.Report.Dropouts != 2 {
				return fmt.Errorf("%d dropouts, want 2", r.Report.Dropouts)
			}
			if len(r.Casualties) != 2 {
				return fmt.Errorf("%d casualties, want 2: stragglers are cut off and die", len(r.Casualties))
			}
			return nil
		},
	}
}

// slowLinks adds small seeded latency and jitter to client uploads and
// global-model broadcasts — all far below the straggler deadline. Nothing
// may be dropped, and the final weights must match the fault-free run bit
// for bit.
func slowLinks() Scenario {
	return Scenario{
		Name:  "slow-links",
		About: "jittered sub-deadline latency everywhere; zero dropouts, weights bit-identical",
		Plan: func(*Context) *faultnet.Plan {
			return &faultnet.Plan{
				Name: "slow-links", Seed: 19,
				Rules: []faultnet.Rule{
					anyRule(faultnet.Rule{
						From: "client/*", To: "edge/*", Type: "MaskedUpdate",
						Action: faultnet.ActionDelay, DelayMs: 1, JitterMs: 3, Prob: 0.5,
					}),
					anyRule(faultnet.Rule{
						From: "cloud", To: "edge/*", Type: "GlobalModel",
						Action: faultnet.ActionDelay, DelayMs: 2, JitterMs: 2,
					}),
				},
			}
		},
		Expect: func(r *Result) error {
			if n := r.Log.Counts()[faultnet.ActionDelay]; n == 0 {
				return fmt.Errorf("no delays injected: the plan matched nothing")
			}
			if r.Report.Dropouts != 0 || len(r.Casualties) != 0 {
				return fmt.Errorf("sub-deadline latency caused %d dropouts / %d casualties", r.Report.Dropouts, len(r.Casualties))
			}
			if got := r.Counter("fel_fednode_straggler_timeouts_total"); got != 0 {
				return fmt.Errorf("%d straggler timeouts under sub-deadline latency", got)
			}
			return nil
		},
	}
}

// mixed layers one corruption, one abrupt crash, background latency, and a
// healed partition in a single run — the kitchen-sink plan. The job must
// still complete all rounds with exactly the two scripted losses.
func mixed() Scenario {
	return Scenario{
		Name:  "mixed",
		About: "corruption + crash + latency + healed partition in one run",
		Plan: func(ctx *Context) *faultnet.Plan {
			targets := mustTargets(ctx, 3, 3)
			var rules []faultnet.Rule
			if len(targets) == 3 {
				rules = append(rules,
					anyRule(faultnet.Rule{
						From: clientTag(targets[0]), To: "edge/*", Type: "MaskedUpdate",
						Action: faultnet.ActionCorrupt, Count: 1, Flips: 5,
					}),
					faultnet.Rule{
						From: clientTag(targets[1]), To: "edge/*", Type: "MaskedUpdate",
						Round: 1, Seq: faultnet.MatchAny,
						Action: faultnet.ActionReset, Count: 1,
					},
				)
			}
			rules = append(rules,
				anyRule(faultnet.Rule{
					From: "client/*", To: "edge/*", Type: "MaskedUpdate",
					Action: faultnet.ActionDelay, DelayMs: 1, JitterMs: 2, Prob: 0.3,
				}),
				faultnet.Rule{
					From: "cloud", To: "edge/0", Type: "GlobalModel",
					Round: 1, Seq: faultnet.MatchAny,
					Action: faultnet.ActionPartition, HealMs: 100, Count: 1,
				},
			)
			return &faultnet.Plan{Name: "mixed", Seed: 23, Rules: rules}
		},
		Expect: func(r *Result) error {
			counts := r.Log.Counts()
			if counts[faultnet.ActionCorrupt] != 1 || counts[faultnet.ActionReset] != 1 || counts[faultnet.ActionPartition] != 1 {
				return fmt.Errorf("injection counts %v, want exactly 1 corrupt + 1 reset + 1 partition", counts)
			}
			if got := r.Counter("fel_wire_decode_errors_total", metrics.L("reason", "checksum")); got != 1 {
				return fmt.Errorf("counted %d checksum decode errors, want 1", got)
			}
			if r.Report.Dropouts != 2 {
				return fmt.Errorf("%d dropouts, want 2 (corrupted + reset clients)", r.Report.Dropouts)
			}
			if len(r.Casualties) != 2 {
				return fmt.Errorf("%d casualties, want the 2 scripted losses", len(r.Casualties))
			}
			return nil
		},
	}
}
