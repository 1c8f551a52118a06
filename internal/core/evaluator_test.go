package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
)

// evalPins holds Float64bits of (accuracy, loss) for three parameter
// vectors (model seeds 1, 2, 3) per model and test-set size, recorded from
// Evaluate on the commit before the evaluator existed — when every call
// gathered its batches with Dataset.Batch and ran on fresh tensors — at
// GOMAXPROCS 1 and 2, which agreed. Sizes: below one 256-row batch, exactly
// one, two with a tail, and four with a tail.
var evalPins = map[string][3][2]uint64{
	"mlp/100":   {{0x3fb70a3d70a3d70a, 0x4011a8da2f82f4aa}, {0x3fc0a3d70a3d70a4, 0x40140be1b3b9800a}, {0x3fa47ae147ae147b, 0x4015a199da76faf1}},
	"mlp/256":   {{0x3fb5000000000000, 0x4011d459493a7b64}, {0x3fc2000000000000, 0x4013b49cff948785}, {0x3faa000000000000, 0x40142fcb2e696d5f}},
	"mlp/400":   {{0x3fb47ae147ae147b, 0x4012393c4aaf0cdf}, {0x3fc0f5c28f5c28f6, 0x4013c1678e17c3bd}, {0x3fac28f5c28f5c29, 0x4014846a4b1b2e4c}},
	"mlp/1000":  {{0x3fb5810624dd2f1b, 0x40119c3f83091b1a}, {0x3fc22d0e56041893, 0x4013ea4278d29e69}, {0x3fafbe76c8b43958, 0x401492f13cfcaadd}},
	"cnn5/100":  {{0x3fc1eb851eb851ec, 0x4027af02c1dba172}, {0x3fc1eb851eb851ec, 0x4014c1886dec5a49}, {0x3fb70a3d70a3d70a, 0x4020b1b67960e805}},
	"cnn5/256":  {{0x3fbd000000000000, 0x40280c34c7abb3e0}, {0x3fbd000000000000, 0x4014f7ff4848af96}, {0x3fba000000000000, 0x40207dadfee5889e}},
	"cnn5/400":  {{0x3fba3d70a3d70a3d, 0x402833b652ee1738}, {0x3fbccccccccccccd, 0x4014de8ee48fc952}, {0x3fba3d70a3d70a3d, 0x40200215680b3ee8}},
	"cnn5/1000": {{0x3fbae147ae147ae1, 0x40284fad7bdcf8c8}, {0x3fb89374bc6a7efa, 0x401608e6b76a8e06}, {0x3fbc28f5c28f5c29, 0x401e6e3f87e079b0}},
}

// TestEvaluatorPinned holds evaluation to the bits it produced before it
// ran from kept storage: through one-shot Evaluate, and through one kept
// evaluator scoring three different parameter vectors in turn, so nothing a
// run leaves behind — activations, probabilities, batch slots — can reach
// the next. Then it bounds what a warm run allocates by a constant that is
// the same for both models and every test-set size: the goroutines
// parallelEach starts, nothing per batch or per parameter.
func TestEvaluatorPinned(t *testing.T) {
	models := []struct {
		name string
		gen  data.GeneratorConfig
		mk   func(seed uint64) *nn.Sequential
	}{
		{"mlp", data.FlatConfig(10, 24, 77), func(s uint64) *nn.Sequential { return nn.NewMLP(24, []int{32}, 10, s) }},
		{"cnn5", data.GeneratorConfig{Classes: 10, SampleShape: []int{1, 8, 8}, Modes: 2, Noise: 1.8, Seed: 77},
			func(s uint64) *nn.Sequential { return nn.NewCNN5(1, 8, 8, 10, s) }},
	}
	check := func(t *testing.T, how string, seed int, acc, loss float64, pin [2]uint64) {
		t.Helper()
		if math.Float64bits(acc) != pin[0] || math.Float64bits(loss) != pin[1] {
			t.Errorf("%s, params %d: (acc, loss) bits (%#x, %#x), pinned (%#x, %#x)",
				how, seed, math.Float64bits(acc), math.Float64bits(loss), pin[0], pin[1])
		}
	}
	for _, procs := range []int{1, 2} {
		for _, m := range models {
			g := data.NewGenerator(m.gen)
			for _, n := range []int{100, 256, 400, 1000} {
				key := fmt.Sprintf("%s/%d", m.name, n)
				t.Run(fmt.Sprintf("%s/procs%d", key, procs), func(t *testing.T) {
					old := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(old)
					ds := g.Sample(n, 1)
					pins := evalPins[key]
					ev := newEvaluator(m.mk(99), ds, 0)
					var params []float64
					for seed := 1; seed <= 3; seed++ {
						model := m.mk(uint64(seed))
						acc, loss := Evaluate(model, ds, 0)
						check(t, "Evaluate", seed, acc, loss, pins[seed-1])
						params = model.ParamVector()
						acc, loss = ev.run(params)
						check(t, "kept evaluator", seed, acc, loss, pins[seed-1])
					}
					// Counted by hand: testing.AllocsPerRun drops to GOMAXPROCS 1
					// and would never see the fan-out.
					const runs, maxAllocs = 2, 16
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < runs; i++ {
						ev.run(params)
					}
					runtime.ReadMemStats(&after)
					if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs > maxAllocs {
						t.Errorf("a warm run allocates %.1f objects, want at most %d whatever the model and test size", allocs, maxAllocs)
					}
				})
			}
		}
	}
}

// TestEvaluatorScoreZeroAllocs holds what TestEvaluatorPinned's bound leaves
// room for to nothing: scoring every batch, the 144-row tail included, on a
// warm worker — forward pass, loss head, argmax — allocates no object.
func TestEvaluatorScoreZeroAllocs(t *testing.T) {
	ds := data.NewGenerator(data.FlatConfig(10, 24, 77)).Sample(400, 1)
	model := nn.NewMLP(24, []int{32}, 10, 1)
	ev := newEvaluator(model, ds, 0)
	ev.run(model.ParamVector())
	if allocs := testing.AllocsPerRun(10, func() {
		for bi := range ev.xs {
			ev.score(ev.workers[0], bi)
		}
	}); allocs != 0 {
		t.Fatalf("scoring %d batches on a warm worker allocates %.1f objects, want 0", len(ev.xs), allocs)
	}
}
