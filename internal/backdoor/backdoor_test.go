package backdoor

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// benignUpdates returns n updates drawn around a common direction.
func benignUpdates(n, dim int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	base := make([]float64, dim)
	for d := range base {
		base[d] = rng.Normal(0, 1)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for d := range out[i] {
			out[i][d] = base[d] + rng.Normal(0, 0.25)
		}
	}
	return out
}

func TestDetectAllBenign(t *testing.T) {
	updates := benignUpdates(8, 50, 1)
	res := Detect(updates, DefaultConfig())
	if len(res.Flagged) != 0 {
		t.Fatalf("flagged %v among benign updates", res.Flagged)
	}
	if len(res.Accepted) != 8 {
		t.Fatalf("accepted %d of 8", len(res.Accepted))
	}
}

func TestDetectFlagsPoisonedUpdate(t *testing.T) {
	updates := benignUpdates(9, 50, 2)
	// The attacker submits a large update pointing the opposite way.
	poison := make([]float64, 50)
	for d := range poison {
		poison[d] = -10 * updates[0][d]
	}
	updates = append(updates, poison)
	res := Detect(updates, DefaultConfig())
	found := false
	for _, f := range res.Flagged {
		if f == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("poisoned update not flagged: flagged=%v scores=%v", res.Flagged, res.Scores)
	}
	for _, f := range res.Flagged {
		if f != 9 {
			t.Errorf("benign update %d flagged", f)
		}
	}
}

func TestDetectFlagsMultipleAttackers(t *testing.T) {
	updates := benignUpdates(10, 40, 3)
	rng := stats.NewRNG(4)
	for k := 0; k < 3; k++ {
		poison := make([]float64, 40)
		for d := range poison {
			poison[d] = -5*updates[0][d] + rng.Normal(0, 0.2)
		}
		updates = append(updates, poison)
	}
	res := Detect(updates, DefaultConfig())
	flaggedAttackers := 0
	for _, f := range res.Flagged {
		if f >= 10 {
			flaggedAttackers++
		} else {
			t.Errorf("benign update %d flagged", f)
		}
	}
	if flaggedAttackers < 3 {
		t.Fatalf("only %d/3 attackers flagged (scores %v)", flaggedAttackers, res.Scores)
	}
}

func TestDetectNeverFlagsMajority(t *testing.T) {
	// Two disjoint camps of equal size: no consensus → accept everyone
	// rather than guessing.
	a := benignUpdates(4, 30, 5)
	b := benignUpdates(4, 30, 6)
	for i := range b {
		for d := range b[i] {
			b[i][d] = -b[i][d]
		}
	}
	updates := append(a, b...)
	res := Detect(updates, DefaultConfig())
	if len(res.Flagged) != 0 {
		t.Fatalf("flagged %v in a 50/50 split", res.Flagged)
	}
}

func TestDetectClipsToMedianNorm(t *testing.T) {
	updates := benignUpdates(7, 20, 7)
	// Inflate one benign update's magnitude (same direction → not flagged).
	for d := range updates[3] {
		updates[3][d] *= 50
	}
	res := Detect(updates, DefaultConfig())
	if res.ClipNorm <= 0 {
		t.Fatal("expected a clip norm")
	}
	for _, i := range res.Accepted {
		if n := l2(updates[i]); n > res.ClipNorm*1.0001 {
			t.Fatalf("accepted update %d norm %v exceeds bound %v", i, n, res.ClipNorm)
		}
	}
}

func TestDetectNoClipWhenDisabled(t *testing.T) {
	updates := benignUpdates(5, 20, 8)
	for d := range updates[2] {
		updates[2][d] *= 50
	}
	want := l2(updates[2])
	cfg := DefaultConfig()
	cfg.ClipToMedianNorm = false
	res := Detect(updates, cfg)
	if res.ClipNorm != 0 {
		t.Fatal("ClipNorm should be 0 when disabled")
	}
	if math.Abs(l2(updates[2])-want) > 1e-9 {
		t.Fatal("update mutated despite clipping disabled")
	}
}

func TestDetectDegenerateSizes(t *testing.T) {
	if res := Detect(nil, DefaultConfig()); len(res.Accepted) != 0 || len(res.Flagged) != 0 {
		t.Fatal("empty input should produce empty result")
	}
	one := [][]float64{{1, 2, 3}}
	res := Detect(one, DefaultConfig())
	if len(res.Accepted) != 1 || len(res.Flagged) != 0 {
		t.Fatal("single update must be accepted")
	}
}

func TestDetectIdenticalUpdatesNoFalsePositive(t *testing.T) {
	updates := make([][]float64, 6)
	for i := range updates {
		updates[i] = []float64{1, 2, 3, 4}
	}
	res := Detect(updates, DefaultConfig())
	if len(res.Flagged) != 0 {
		t.Fatalf("identical updates flagged: %v", res.Flagged)
	}
}

func TestPairwiseOpsQuadratic(t *testing.T) {
	ops := func(n int) int {
		return Detect(benignUpdates(n, 10, 9), DefaultConfig()).PairwiseOps
	}
	if o10, o20 := ops(10), ops(20); float64(o20)/float64(o10) < 3.5 {
		t.Fatalf("pairwise ops not quadratic: %d vs %d", o10, o20)
	}
}

func TestMedianHelpers(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
	if medianAbsDev([]float64{1, 1, 1}, 1) != 0 {
		t.Fatal("MAD of constants")
	}
}
