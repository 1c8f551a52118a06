// Package cost implements the paper's learning cost model (Sec. 3.2):
// every client in a running group pays a training cost H_i(n_i), linear in
// its sample count, plus a group-operation overhead O_g(|g|), quadratic in
// the group size (secure aggregation and backdoor detection both scale with
// the number of pairwise interactions). The total cost of a training run is
// Eq. 5:
//
//	O = Σ_t Σ_{g∈S_t} K · Σ_{c_i∈g} ( O_g(|g|) + E·H_i(n_i) ).
//
// The paper measured these costs on Raspberry Pi 4 devices (Fig. 8); that
// hardware is unavailable here, so the coefficients below are calibrated to
// the published curves (see DESIGN.md substitution table). The secagg
// package's mask-stream count confirms the quadratic shape; backdoor
// detection's is its pair count, n(n−1)/2 (experiments.Fig8).
package cost

import "fmt"

// Profile holds the per-task cost coefficients, in seconds. Training costs
// are per-sample per-epoch; group operation costs are per client and
// quadratic in group size.
type Profile struct {
	Name string
	// TrainPerSample is the H_i slope: seconds per sample per local epoch.
	TrainPerSample float64
	// TrainBase is the fixed per-epoch overhead of H_i.
	TrainBase float64
	// SecAggQuad and SecAggLin parameterize the secure aggregation
	// overhead per client: SecAggQuad·s² + SecAggLin·s.
	SecAggQuad, SecAggLin float64
	// BackdoorQuad and BackdoorLin parameterize backdoor detection.
	BackdoorQuad, BackdoorLin float64
	// ScaffoldFactor multiplies the SecAgg cost when the method ships
	// control variates alongside the model (double payload; Fig. 8's
	// "SCAFFOLD SecAgg" curve).
	ScaffoldFactor float64
}

// CIFARProfile is calibrated to the paper's Fig. 8 CIFAR curves: training
// ≈ 0.5 s/sample on an RPi4, SecAgg reaching ≈ 45 s at group size 50.
func CIFARProfile() Profile {
	return Profile{
		Name:           "CIFAR",
		TrainPerSample: 0.50,
		TrainBase:      0.5,
		SecAggQuad:     0.018,
		SecAggLin:      0.05,
		BackdoorQuad:   0.008,
		BackdoorLin:    0.04,
		ScaffoldFactor: 1.9,
	}
}

// SCProfile is calibrated to the lighter SpeechCommands task: cheaper
// training, slightly cheaper group operations (smaller model payload).
func SCProfile() Profile {
	return Profile{
		Name:           "SC",
		TrainPerSample: 0.20,
		TrainBase:      0.3,
		SecAggQuad:     0.012,
		SecAggLin:      0.04,
		BackdoorQuad:   0.006,
		BackdoorLin:    0.03,
		ScaffoldFactor: 1.9,
	}
}

// Training returns H_i(n) for one local epoch over n samples.
func (p Profile) Training(n int) float64 {
	return p.TrainBase + float64(p.TrainPerSample*float64(n))
}

// SecAgg returns the per-client secure aggregation overhead for a group of
// size gs.
func (p Profile) SecAgg(gs int) float64 {
	s := float64(gs)
	return float64(p.SecAggQuad*s*s) + float64(p.SecAggLin*s)
}

// ScaffoldSecAgg returns the secure aggregation overhead when control
// variates double the payload.
func (p Profile) ScaffoldSecAgg(gs int) float64 {
	return p.ScaffoldFactor * p.SecAgg(gs)
}

// Backdoor returns the per-client backdoor detection overhead.
func (p Profile) Backdoor(gs int) float64 {
	s := float64(gs)
	return float64(p.BackdoorQuad*s*s) + float64(p.BackdoorLin*s)
}

// OpSet selects which group operations run during group aggregation.
type OpSet struct {
	// SecAgg enables secure aggregation.
	SecAgg bool
	// Backdoor enables backdoor detection.
	Backdoor bool
	// Scaffold marks the double-payload SecAgg variant used when the
	// training method ships control variates (SCAFFOLD).
	Scaffold bool
}

// DefaultOps is the paper's setting: secure aggregation plus backdoor
// detection at every group aggregation.
func DefaultOps() OpSet { return OpSet{SecAgg: true, Backdoor: true} }

// GroupOverhead returns O_g(|g|): the per-client overhead of the enabled
// group operations for a group of size gs.
func (p Profile) GroupOverhead(gs int, ops OpSet) float64 {
	o := 0.0
	if ops.SecAgg {
		if ops.Scaffold {
			o += float64(p.ScaffoldSecAgg(gs))
		} else {
			o += p.SecAgg(gs)
		}
	}
	if ops.Backdoor {
		o += p.Backdoor(gs)
	}
	return o
}

// Accountant accumulates total cost per Eq. 5 across a training run.
// The zero value is unusable; construct with NewAccountant.
type Accountant struct {
	profile Profile
	ops     OpSet
	total   float64
	// byCategory tracks training vs group operation spend for reporting.
	training, groupOps float64
}

// NewAccountant creates an accountant for the given task profile and
// enabled group operations.
func NewAccountant(profile Profile, ops OpSet) *Accountant {
	return &Accountant{profile: profile, ops: ops}
}

// GroupRound charges one group round: every client in the group pays the
// group operation overhead once plus E local training epochs over its own
// samples. Call this K times per global round for each selected group
// (or use GlobalRound).
func (a *Accountant) GroupRound(groupSize int, clientSamples []int, localEpochs int) {
	if groupSize != len(clientSamples) {
		panic(fmt.Sprintf("cost: group size %d but %d client sample counts", groupSize, len(clientSamples)))
	}
	overhead := a.profile.GroupOverhead(groupSize, a.ops)
	for _, n := range clientSamples {
		a.groupOps += overhead
		a.training += float64(float64(localEpochs) * a.profile.Training(n))
	}
	a.total = a.training + a.groupOps
}

// GlobalRound charges K group rounds for each selected group, where
// groups[i] lists the per-client sample counts of the i-th selected group.
func (a *Accountant) GlobalRound(groups [][]int, groupRounds, localEpochs int) {
	for k := 0; k < groupRounds; k++ {
		for _, g := range groups {
			a.GroupRound(len(g), g, localEpochs)
		}
	}
}

// Total returns the accumulated cost (Eq. 5).
func (a *Accountant) Total() float64 { return a.total }

// Training returns the training component of the total.
func (a *Accountant) Training() float64 { return a.training }

// GroupOps returns the group-operation component of the total.
func (a *Accountant) GroupOps() float64 { return a.groupOps }

// Reset clears the accumulated cost.
func (a *Accountant) Reset() { a.total, a.training, a.groupOps = 0, 0, 0 }

// Restore sets the accumulated components to previously captured values,
// so a checkpointed training run resumes cost accounting exactly where it
// stopped. The total is recomputed as their sum, matching GroupRound.
func (a *Accountant) Restore(training, groupOps float64) {
	a.training, a.groupOps = training, groupOps
	a.total = training + groupOps
}
