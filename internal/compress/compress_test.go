package compress

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestTopKKeepsLargest(t *testing.T) {
	c := NewTopK(2)
	out := c.Compress([]float64{0.1, -5, 0.3, 4, -0.2})
	dec := out.Decode()
	if dec[1] != -5 || dec[3] != 4 {
		t.Fatalf("top-2 wrong: %v", dec)
	}
	for _, i := range []int{0, 2, 4} {
		if dec[i] != 0 {
			t.Fatalf("non-top coordinate kept: %v", dec)
		}
	}
}

func TestTopKErrorFeedbackConserves(t *testing.T) {
	// Summed over rounds, error feedback delivers (almost) the full signal:
	// compressing a constant vector repeatedly must transmit every
	// coordinate's cumulative mass.
	c := NewTopK(1)
	update := []float64{1, 0.5, 0.25}
	total := make([]float64, 3)
	const rounds = 60
	for r := 0; r < rounds; r++ {
		dec := c.Compress(update).Decode()
		for i, v := range dec {
			total[i] += v
		}
	}
	for i, v := range update {
		want := v * rounds
		if math.Abs(total[i]-want) > want*0.2+1 {
			t.Fatalf("coordinate %d delivered %v of %v", i, total[i], want)
		}
	}
}

func TestTopKBytesSmaller(t *testing.T) {
	c := NewTopK(10)
	update := make([]float64, 1000)
	for i := range update {
		update[i] = float64(i)
	}
	out := c.Compress(update)
	if out.Bytes() >= (Identity{}).Compress(update).Bytes()/10 {
		t.Fatalf("top-10 of 1000 should be tiny: %d bytes", out.Bytes())
	}
}

func TestTopKDimensionChangePanics(t *testing.T) {
	c := NewTopK(1)
	c.Compress(make([]float64, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Compress(make([]float64, 5))
}

func TestTopKKLargerThanDim(t *testing.T) {
	c := NewTopK(100)
	update := []float64{1, 2, 3}
	dec := c.Compress(update).Decode()
	for i, v := range update {
		if dec[i] != v {
			t.Fatal("k >= dim should be lossless")
		}
	}
}

func TestUniformUnbiased(t *testing.T) {
	// Stochastic rounding: the expected decode equals the input.
	u := NewUniform(4, 1)
	update := []float64{0.7, -0.3, 0.11, -0.99}
	sum := make([]float64, len(update))
	const rounds = 4000
	for r := 0; r < rounds; r++ {
		dec := u.Compress(update).Decode()
		for i, v := range dec {
			sum[i] += v
		}
	}
	for i, v := range update {
		mean := sum[i] / rounds
		if math.Abs(mean-v) > 0.02 {
			t.Fatalf("coordinate %d mean %v, want %v", i, mean, v)
		}
	}
}

func TestUniformHighBitsAccurate(t *testing.T) {
	u := NewUniform(16, 2)
	rng := stats.NewRNG(3)
	update := make([]float64, 100)
	for i := range update {
		update[i] = rng.Normal(0, 1)
	}
	dec := u.Compress(update).Decode()
	for i := range update {
		if math.Abs(dec[i]-update[i]) > 1e-3*math.Abs(update[i])+1e-3 {
			t.Fatalf("16-bit decode too lossy at %d: %v vs %v", i, dec[i], update[i])
		}
	}
}

func TestUniformBytes(t *testing.T) {
	u := NewUniform(8, 4)
	update := make([]float64, 100)
	out := u.Compress(update)
	if out.Bytes() != 8+100 {
		t.Fatalf("8-bit bytes = %d, want 108", out.Bytes())
	}
	if (Identity{}).Compress(update).Bytes() != 800 {
		t.Fatal("dense bytes wrong")
	}
}

func TestUniformZeroVector(t *testing.T) {
	u := NewUniform(8, 5)
	dec := u.Compress(make([]float64, 10)).Decode()
	for _, v := range dec {
		if v != 0 {
			t.Fatal("zero vector must decode to zero")
		}
	}
}

func TestIdentityRoundTrip(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		update := make([]float64, 16)
		for i := range update {
			update[i] = rng.Normal(0, 3)
		}
		dec := (Identity{}).Compress(update).Decode()
		for i := range update {
			if dec[i] != update[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConstructorsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTopK(0) },
		func() { NewUniform(0, 1) },
		func() { NewUniform(17, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestNames(t *testing.T) {
	if NewTopK(3).Name() != "topk" || NewUniform(8, 1).Name() != "q8" || (Identity{}).Name() != "none" {
		t.Fatal("names wrong")
	}
}
