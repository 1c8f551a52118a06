package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !approxEq(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !approxEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !approxEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty slice statistics should be 0")
	}
}

func TestCoVScaleInvariance(t *testing.T) {
	// CoV must be invariant to positive scaling — the property that makes it
	// a better grouping criterion than the raw variance (paper Sec. 5.1).
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = 1 + 10*r.Float64()
		}
		scaled := make([]float64, len(xs))
		k := 1 + 99*r.Float64()
		for i := range xs {
			scaled[i] = k * xs[i]
		}
		return approxEq(CoV(xs), CoV(scaled), 1e-9)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoVDegenerate(t *testing.T) {
	if got := CoV([]float64{0, 0, 0}); got != 0 {
		t.Errorf("CoV of all-zero = %v, want 0", got)
	}
	if got := CoV([]float64{-1, 1}); !math.IsInf(got, 1) {
		t.Errorf("CoV with zero mean = %v, want +Inf", got)
	}
}

func TestCoVOfCountsBalanced(t *testing.T) {
	if got := CoVOfCounts([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("balanced histogram CoV = %v, want 0", got)
	}
}

func TestCoVOfCountsSkewOrdering(t *testing.T) {
	balanced := CoVOfCounts([]float64{10, 10, 10, 10})
	mild := CoVOfCounts([]float64{14, 10, 10, 6})
	severe := CoVOfCounts([]float64{37, 1, 1, 1})
	if !(balanced < mild && mild < severe) {
		t.Fatalf("CoV ordering violated: %v %v %v", balanced, mild, severe)
	}
}

func TestCoVOfCountsScaleInvariance(t *testing.T) {
	a := CoVOfCounts([]float64{1, 2, 3, 4})
	b := CoVOfCounts([]float64{10, 20, 30, 40})
	if !approxEq(a, b, 1e-12) {
		t.Fatalf("CoVOfCounts not scale invariant: %v vs %v", a, b)
	}
}

func TestVarianceOfCountsScaleSensitive(t *testing.T) {
	// The paper's motivating example: a small skewed group can have a
	// smaller *variance* than a large balanced-ish one, even though its CoV
	// is worse. Variance prefers the wrong group.
	small := []float64{4, 0, 0, 0}     // tiny but fully skewed
	large := []float64{60, 40, 50, 50} // big, mildly skewed
	if VarianceOfCounts(small) >= VarianceOfCounts(large) {
		t.Fatalf("expected variance to (wrongly) prefer the skewed small group")
	}
	if CoVOfCounts(small) <= CoVOfCounts(large) {
		t.Fatalf("expected CoV to (rightly) prefer the large balanced group")
	}
}

func TestCoVOfCountsEmptyAndZero(t *testing.T) {
	if !math.IsInf(CoVOfCounts(nil), 1) {
		t.Error("empty histogram should have +Inf CoV")
	}
	if !math.IsInf(CoVOfCounts([]float64{0, 0}), 1) {
		t.Error("zero histogram should have +Inf CoV")
	}
}

func TestGammaFactor(t *testing.T) {
	// Equal sample counts: gamma = 1 (its minimum).
	if got := GammaFactor([]float64{10, 10, 10}); !approxEq(got, 1, 1e-12) {
		t.Errorf("gamma of equal counts = %v, want 1", got)
	}
	// gamma = 1 + CoV^2 of the counts (paper Sec. 4.3).
	counts := []float64{5, 10, 30, 15}
	cov := CoV(counts)
	if got := GammaFactor(counts); !approxEq(got, 1+cov*cov, 1e-9) {
		t.Errorf("gamma = %v, want 1+CoV^2 = %v", got, 1+cov*cov)
	}
	if !math.IsInf(GammaFactor(nil), 1) {
		t.Error("gamma of empty group should be +Inf")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); !approxEq(got, 1, 1e-12) {
		t.Errorf("equal allocation index = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !approxEq(got, 0.25, 1e-12) {
		t.Errorf("monopoly index = %v, want 1/n", got)
	}
	mid := JainIndex([]float64{3, 1, 1, 1})
	if mid <= 0.25 || mid >= 1 {
		t.Errorf("skewed allocation index = %v", mid)
	}
	if JainIndex(nil) != 0 {
		t.Error("empty allocation")
	}
	if JainIndex([]float64{0, 0}) != 1 {
		t.Error("all-zero allocation should be trivially fair")
	}
}
