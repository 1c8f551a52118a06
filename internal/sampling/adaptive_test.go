package sampling

import (
	"math"
	"testing"
)

func TestAdaptiveRoundZeroFallsBackToBase(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{Beta: 0.3, Explore: 0.1}, 4)
	base := []float64{0.4, 0.3, 0.2, 0.1}
	got := a.Mix(base)
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("round-0 mix[%d] = %v, want base %v exactly", i, got[i], base[i])
		}
	}
}

func TestAdaptiveObserveShiftsMass(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{Beta: 0.5}, 3)
	base := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	a.Observe(0, 10)
	a.Observe(1, 1)
	a.Observe(2, 1)
	p := a.Mix(base)
	if p[0] <= p[1] || p[0] <= p[2] {
		t.Fatalf("high-norm group not favored: %v", p)
	}
	sum := p[0] + p[1] + p[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mix does not normalize: sum %v", sum)
	}
	// EWMA: a second, smaller observation pulls the estimate down.
	before := a.Mix(base)[0]
	a.Observe(0, 1)
	if after := a.Mix(base)[0]; after >= before {
		t.Fatalf("EWMA did not decay: %v -> %v", before, after)
	}
}

func TestAdaptiveUnseenImputation(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{Beta: 0.5}, 3)
	base := []float64{0.6, 0.3, 0.1}
	a.Observe(1, 5)
	p := a.Mix(base)
	// Unseen groups inherit the mean observed norm scaled by their base
	// share, so the prior's ordering between them survives.
	if p[0] <= p[2] {
		t.Fatalf("base ordering of unseen groups lost: %v", p)
	}
	for i, v := range p {
		if v <= 0 {
			t.Fatalf("p[%d] = %v, want > 0", i, v)
		}
	}
}

func TestAdaptiveExploreFloor(t *testing.T) {
	explore := 0.2
	a := NewAdaptive(AdaptiveConfig{Beta: 0.5, Explore: explore}, 4)
	base := []float64{0.25, 0.25, 0.25, 0.25}
	a.Observe(0, 1000)
	a.Observe(1, 0)
	a.Observe(2, 0)
	a.Observe(3, 0)
	p := a.Mix(base)
	floor := explore / 4
	for i, v := range p {
		if v < floor-1e-12 {
			t.Fatalf("p[%d] = %v below exploration floor %v", i, v, floor)
		}
	}
}

func TestAdaptiveAllZeroNormsFallBack(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{Beta: 0.5}, 2)
	base := []float64{0.7, 0.3}
	a.Observe(0, 0)
	a.Observe(1, 0)
	p := a.Mix(base)
	for i := range base {
		if p[i] != base[i] {
			t.Fatalf("zero-evidence mix %v, want base %v", p, base)
		}
	}
}

func TestAdaptiveExportRestoreRoundTrip(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{Beta: 0.3, Explore: 0.05}, 3)
	base := []float64{0.5, 0.3, 0.2}
	a.Observe(0, 2)
	a.Observe(2, 7)
	st := a.Export()

	b := NewAdaptive(AdaptiveConfig{Beta: 0.3, Explore: 0.05}, 3)
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Mix(base), b.Mix(base)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("restored mix diverges at %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	// The snapshot is a copy, not an alias.
	st.Norms[0] = 999
	if pc := a.Mix(base); math.Float64bits(pc[0]) != math.Float64bits(pa[0]) {
		t.Fatal("Export aliased internal state")
	}
	if err := b.Restore(AdaptiveState{Norms: []float64{1}, Seen: []bool{true, false}}); err == nil {
		t.Fatal("mismatched state shape restored without error")
	}
}

func TestAdaptiveResetAndSizeMismatch(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{Beta: 0.5}, 2)
	a.Observe(0, 3)
	a.Reset(3)
	base := []float64{0.5, 0.3, 0.2}
	p := a.Mix(base)
	for i := range base {
		if p[i] != base[i] {
			t.Fatalf("post-reset mix %v, want base %v", p, base)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	a.Mix([]float64{0.5, 0.5})
}

func TestAdaptiveConfigValidate(t *testing.T) {
	bad := []AdaptiveConfig{
		{Beta: 0}, {Beta: -0.1}, {Beta: 1.5},
		{Beta: 0.5, Explore: -0.1}, {Beta: 0.5, Explore: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): accepted", i, c)
		}
	}
	if err := (AdaptiveConfig{Beta: 1, Explore: 0}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
