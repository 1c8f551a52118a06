package cost

import (
	"math"
	"testing"
)

func TestTrainingLinear(t *testing.T) {
	p := CIFARProfile()
	// H(2n) - H(n) must equal H(3n) - H(2n): constant slope.
	d1 := p.Training(20) - p.Training(10)
	d2 := p.Training(30) - p.Training(20)
	if math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("training cost not linear: %v vs %v", d1, d2)
	}
	if p.Training(10) <= p.Training(5) {
		t.Fatal("training cost must increase with data")
	}
}

func TestGroupOpsQuadratic(t *testing.T) {
	for _, p := range []Profile{CIFARProfile(), SCProfile()} {
		// Quadratic growth: doubling group size should more than double
		// the overhead once the quadratic term dominates.
		if p.SecAgg(40) < 3*p.SecAgg(20) {
			t.Errorf("%s SecAgg not superlinear: %v vs %v", p.Name, p.SecAgg(40), p.SecAgg(20))
		}
		if p.Backdoor(40) < 3*p.Backdoor(20) {
			t.Errorf("%s Backdoor not superlinear", p.Name)
		}
		// Second difference of a quadratic is constant.
		d2a := p.SecAgg(12) - 2*p.SecAgg(11) + p.SecAgg(10)
		d2b := p.SecAgg(22) - 2*p.SecAgg(21) + p.SecAgg(20)
		if math.Abs(d2a-d2b) > 1e-9 {
			t.Errorf("%s SecAgg not quadratic", p.Name)
		}
	}
}

func TestScaffoldCostsMore(t *testing.T) {
	p := CIFARProfile()
	for _, gs := range []int{5, 10, 20, 50} {
		if p.ScaffoldSecAgg(gs) <= p.SecAgg(gs) {
			t.Fatalf("SCAFFOLD SecAgg must exceed plain SecAgg at gs=%d", gs)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	// The paper's Fig. 8 ordering at group size 50: SCAFFOLD SecAgg >
	// SecAgg > backdoor detection; and training at 50 samples is comparable
	// to SecAgg at group size ~35-50 (overheads dominate for large groups).
	p := CIFARProfile()
	if !(p.ScaffoldSecAgg(50) > p.SecAgg(50) && p.SecAgg(50) > p.Backdoor(50)) {
		t.Fatal("Fig. 8 overhead ordering violated")
	}
	if p.SecAgg(50) < p.Training(50)*0.8 {
		t.Fatalf("SecAgg at gs=50 (%v) should be comparable to training 50 samples (%v)",
			p.SecAgg(50), p.Training(50))
	}
}

func TestGroupOverheadComposition(t *testing.T) {
	p := CIFARProfile()
	ops := DefaultOps()
	want := p.SecAgg(10) + p.Backdoor(10)
	if got := p.GroupOverhead(10, ops); math.Abs(got-want) > 1e-12 {
		t.Fatalf("GroupOverhead = %v, want %v", got, want)
	}
	sc := OpSet{SecAgg: true, Backdoor: true, Scaffold: true}
	want = p.ScaffoldSecAgg(10) + p.Backdoor(10)
	if got := p.GroupOverhead(10, sc); math.Abs(got-want) > 1e-12 {
		t.Fatalf("scaffold GroupOverhead = %v, want %v", got, want)
	}
	if got := p.GroupOverhead(10, OpSet{}); got != 0 {
		t.Fatalf("no-op overhead = %v, want 0", got)
	}
}

func TestAccountantEq5(t *testing.T) {
	p := CIFARProfile()
	a := NewAccountant(p, DefaultOps())
	clientSamples := []int{10, 20, 30}
	const E = 2
	a.GroupRound(3, clientSamples, E)
	want := 0.0
	overhead := p.GroupOverhead(3, DefaultOps())
	for _, n := range clientSamples {
		want += overhead + E*p.Training(n)
	}
	if math.Abs(a.Total()-want) > 1e-9 {
		t.Fatalf("Total = %v, want %v", a.Total(), want)
	}
	if math.Abs(a.Training()+a.GroupOps()-a.Total()) > 1e-9 {
		t.Fatal("components do not sum to total")
	}
}

func TestAccountantGlobalRound(t *testing.T) {
	p := SCProfile()
	a := NewAccountant(p, DefaultOps())
	groups := [][]int{{10, 10}, {20, 20, 20}}
	const K, E = 5, 2
	a.GlobalRound(groups, K, E)

	b := NewAccountant(p, DefaultOps())
	for k := 0; k < K; k++ {
		b.GroupRound(2, groups[0], E)
		b.GroupRound(3, groups[1], E)
	}
	if math.Abs(a.Total()-b.Total()) > 1e-9 {
		t.Fatalf("GlobalRound %v != manual %v", a.Total(), b.Total())
	}
}

func TestAccountantReset(t *testing.T) {
	a := NewAccountant(CIFARProfile(), DefaultOps())
	a.GroupRound(2, []int{5, 5}, 1)
	if a.Total() == 0 {
		t.Fatal("expected nonzero total")
	}
	a.Reset()
	if a.Total() != 0 || a.Training() != 0 || a.GroupOps() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestAccountantPanicsOnMismatch(t *testing.T) {
	a := NewAccountant(CIFARProfile(), DefaultOps())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.GroupRound(3, []int{1, 2}, 1)
}

func TestSmallGroupsCheaperPerRound(t *testing.T) {
	// The motivation of the whole paper (Fig. 2): with quadratic group
	// operations, one group of 20 costs more than four groups of 5 covering
	// the same clients.
	p := CIFARProfile()
	samples := make([]int, 20)
	for i := range samples {
		samples[i] = 30
	}
	big := NewAccountant(p, DefaultOps())
	big.GroupRound(20, samples, 2)
	small := NewAccountant(p, DefaultOps())
	for i := 0; i < 4; i++ {
		small.GroupRound(5, samples[i*5:(i+1)*5], 2)
	}
	if small.Total() >= big.Total() {
		t.Fatalf("4×5 groups (%v) should cost less than 1×20 (%v)", small.Total(), big.Total())
	}
	// Training spend identical; only overhead differs.
	if math.Abs(small.Training()-big.Training()) > 1e-9 {
		t.Fatal("training spend should not depend on grouping")
	}
}

func TestRestoreResumesAccounting(t *testing.T) {
	p := CIFARProfile()
	samples := [][]int{{30, 40}, {25, 25, 25}}
	full := NewAccountant(p, DefaultOps())
	full.GlobalRound(samples, 2, 3)
	full.GlobalRound(samples, 2, 3)

	half := NewAccountant(p, DefaultOps())
	half.GlobalRound(samples, 2, 3)
	resumed := NewAccountant(p, DefaultOps())
	resumed.Restore(half.Training(), half.GroupOps())
	resumed.GlobalRound(samples, 2, 3)
	if resumed.Total() != full.Total() || resumed.Training() != full.Training() || resumed.GroupOps() != full.GroupOps() {
		t.Fatalf("resumed accountant diverged: %v vs %v", resumed.Total(), full.Total())
	}
}
