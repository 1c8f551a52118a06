package async_test

import (
	"testing"

	"repro/internal/async"
	"repro/internal/stats"
)

func TestStalenessWeight(t *testing.T) {
	cases := []struct {
		tau   int
		alpha float64
		want  float64
	}{
		{0, 0, 1}, {0, 2, 1}, {5, 0, 1}, {-3, 1.5, 1},
		{1, 1, 0.5}, {3, 1, 0.25}, {1, 2, 0.25},
	}
	for _, c := range cases {
		if got := async.StalenessWeight(c.tau, c.alpha); got != c.want {
			t.Errorf("StalenessWeight(%d, %v) = %v, want %v", c.tau, c.alpha, got, c.want)
		}
	}
	// Monotone decreasing in τ for α > 0.
	prev := 1.0
	for tau := 1; tau < 10; tau++ {
		w := async.StalenessWeight(tau, 0.5)
		if w >= prev || w <= 0 {
			t.Fatalf("w(%d)=%v not strictly decreasing below %v", tau, w, prev)
		}
		prev = w
	}
}

func TestFlushThreshold(t *testing.T) {
	cases := []struct {
		frac string
		cfg  async.Config
		n    int
		want int
	}{
		{"zero-means-full", async.Config{}, 8, 8},
		{"full", async.Config{BufferFrac: 1}, 8, 8},
		{"half", async.Config{BufferFrac: 0.5}, 8, 4},
		{"ceil", async.Config{BufferFrac: 0.5}, 7, 4},
		{"floor-one", async.Config{BufferFrac: 0.01}, 8, 1},
		{"singleton", async.Config{BufferFrac: 0.25}, 1, 1},
	}
	for _, c := range cases {
		if got := c.cfg.FlushThreshold(c.n); got != c.want {
			t.Errorf("%s: FlushThreshold(%d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}

func TestDelayModelDrawDeterministicAndBounded(t *testing.T) {
	d := async.StragglerStorm()
	seed := async.DispatchSeed(42, 3, 1, 9, 0)
	a := d.Draw(stats.NewRNG(seed))
	b := d.Draw(stats.NewRNG(seed))
	if a != b {
		t.Fatalf("same seed drew %d then %d", a, b)
	}
	rng := stats.NewRNG(1)
	sawStraggler := false
	for i := 0; i < 2000; i++ {
		rng.Reseed(async.DispatchSeed(42, 0, 0, i, 0))
		got := d.Draw(rng)
		fastMax := d.BaseTicks + d.JitterTicks
		slowMax := fastMax * d.StragglerFactor
		if got < d.BaseTicks || got > slowMax {
			t.Fatalf("draw %d outside [%d,%d]", got, d.BaseTicks, slowMax)
		}
		if got > fastMax {
			sawStraggler = true
		}
	}
	if !sawStraggler {
		t.Fatal("2000 straggler-storm draws produced no straggler")
	}
	var zero async.DelayModel
	if zero.Draw(stats.NewRNG(1)) != 0 {
		t.Fatal("zero model drew a nonzero delay")
	}
}

func TestDispatchSeedSensitivity(t *testing.T) {
	base := async.DispatchSeed(42, 1, 2, 3, 4)
	perturbed := []uint64{
		async.DispatchSeed(43, 1, 2, 3, 4),
		async.DispatchSeed(42, 2, 2, 3, 4),
		async.DispatchSeed(42, 1, 3, 3, 4),
		async.DispatchSeed(42, 1, 2, 4, 4),
		async.DispatchSeed(42, 1, 2, 3, 5),
	}
	for i, p := range perturbed {
		if p == base {
			t.Errorf("coordinate %d change did not change the seed", i)
		}
	}
}

func TestModeAndKindStrings(t *testing.T) {
	if async.Buffered.String() != "async" || async.SemiSync.String() != "semisync" || async.Sync.String() != "sync" {
		t.Fatal("mode names drifted from experiment output vocabulary")
	}
	if async.Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode rendering drifted")
	}
}
