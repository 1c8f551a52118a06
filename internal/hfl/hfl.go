// Package hfl runs Group-FEL rounds as the distributed protocol of the
// paper's Fig. 1, one group at a time: the cloud pushes the global model to
// edge servers, edges broadcast to their group's clients, clients train
// locally and submit *secure-aggregation-masked* updates, edges unmask the
// group sum and (after K group rounds) return group models to the cloud,
// which folds them in the order they arrive. It ties together the secagg,
// nn, and grouping substrates and prices the message flow on the modelled
// links of topology.go — the repository's one modelled clock in seconds.
//
// The in-process trainer (internal/core) is the fast path used by the
// experiment harness; this package exists to demonstrate and test that the
// same round semantics survive a privacy-preserving execution.
//
// It is deliberately not a core.Executor under core.Trainer (DESIGN.md S32):
// a round here folds by modelled arrival time with a plain left-to-right
// sum, held to recorded digests (TestRunGlobalRoundArrivalOrderPinned,
// fednode's TestTrajectoryPinned), where Plan.Fold sums a fixed-pairing tree
// — a different rounding of the same aggregate. It stays as the
// modelled-time secure-round oracle, one round per call.
package hfl

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/grouping"
	"repro/internal/secagg"
	"repro/internal/stats"
)

// RoundConfig parameterizes one distributed global round.
type RoundConfig struct {
	// GroupRounds (K) and LocalEpochs (E) as in Alg. 1.
	GroupRounds, LocalEpochs int
	// BatchSize and LR for local SGD.
	BatchSize int
	LR        float64
	// Seed drives local shuffling and the secure aggregation sessions.
	Seed uint64
	// Topology models the links; zero value uses DefaultTopology().
	Topology Topology
	// Profile supplies per-client compute times; zero value uses the CIFAR
	// profile.
	Profile cost.Profile
	// ThresholdFrac is the Shamir threshold as a fraction of group size
	// (minimum 2 clients); zero means 2/3.
	ThresholdFrac float64
	// DropoutProb makes each client fail to submit its masked update with
	// this probability; the session's Shamir-based recovery removes the
	// dropped clients' masks and the edge renormalizes the surviving
	// weights. Dropouts are capped so the threshold always holds.
	DropoutProb float64
}

// RoundResult reports a distributed round's outcome.
type RoundResult struct {
	// Params is the new global parameter vector.
	Params []float64
	// WallClock is the modelled time until the last group model reached
	// the cloud.
	WallClock float64
	// Messages is the number of cloud–edge messages: the global model down
	// and the group model up, per selected group.
	Messages int
	// MaskStreams totals the PRG expansions across all secure
	// aggregations (quadratic in group sizes).
	MaskStreams int
	// QuantError is the max absolute difference between the secure group
	// aggregates and their plaintext counterparts, a fixed-point fidelity
	// check.
	QuantError float64
}

// RunGlobalRound executes one global round of Alg. 1 for the selected
// groups as a message exchange. Group weights at the cloud are the biased
// n_g/n_t of Alg. 1 line 15.
func RunGlobalRound(sys *core.System, groups []*grouping.Group, selected []int, globalParams []float64, cfg RoundConfig) (*RoundResult, error) {
	if len(selected) == 0 {
		return nil, fmt.Errorf("hfl: no groups selected")
	}
	if cfg.Topology == (Topology{}) {
		cfg.Topology = DefaultTopology()
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("hfl: %w", err)
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = cost.CIFARProfile()
	}
	if cfg.GroupRounds <= 0 || cfg.LocalEpochs <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("hfl: K, E, LR must be positive")
	}
	for _, gi := range selected {
		if gi < 0 || gi >= len(groups) {
			return nil, fmt.Errorf("hfl: selected index %d out of range [0,%d)", gi, len(groups))
		}
		if groups[gi].Size() == 0 {
			return nil, fmt.Errorf("hfl: group %d has no clients", groups[gi].ID)
		}
	}
	if want := sys.NewModel(sys.ModelSeed).NumParams(); len(globalParams) != want {
		return nil, fmt.Errorf("hfl: globalParams has %d values, model has %d", len(globalParams), want)
	}

	modelBytes := len(globalParams) * 8
	res := &RoundResult{Messages: 2 * len(selected)}

	// Group g's flow, priced link by link as it goes:
	//   cloud --model--> edge --model--> clients (parallel)
	//   clients train (the slowest gates the round), submit masked updates
	//   edge unmasks the sum, repeats K times, then --group model--> cloud.
	edgeCloud := cfg.Topology.EdgeCloud.TransferTime(modelBytes)
	clientEdge := 2 * cfg.Topology.ClientEdge.TransferTime(modelBytes)
	type arrival struct {
		at     float64
		gi     int
		params []float64
	}
	arrivals := make([]arrival, 0, len(selected))
	nt := 0
	for _, gi := range selected {
		g := groups[gi]
		nt += g.NumSamples()
		groupParams := globalParams
		now := edgeCloud
		for k := 0; k < cfg.GroupRounds; k++ {
			newParams, roundTime, masks, qerr, err := secureGroupRound(sys, g, groupParams, cfg, uint64(k))
			if err != nil {
				return nil, err
			}
			res.MaskStreams += masks
			if qerr > res.QuantError {
				res.QuantError = qerr
			}
			now += clientEdge + roundTime
			groupParams = newParams
		}
		arrivals = append(arrivals, arrival{at: now + edgeCloud, gi: gi, params: groupParams})
	}

	// The cloud folds the group models as they arrive: by finish time,
	// selection order breaking ties. Float addition is not associative, so
	// the order is part of the result.
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
	res.WallClock = arrivals[len(arrivals)-1].at
	res.Params = make([]float64, len(globalParams))
	for _, a := range arrivals {
		w := float64(groups[a.gi].NumSamples()) / float64(nt)
		for j, v := range a.params {
			res.Params[j] += float64(w * v)
		}
	}
	return res, nil
}

// secureGroupRound trains every client of g from groupParams and securely
// aggregates the weighted updates: client i submits (n_i/n_g)·params masked;
// the unmasked sum is exactly the group aggregation of Alg. 1 line 14.
// Returns the new group params, the compute time of the slowest client, the
// PRG mask stream count, and the worst quantization error.
func secureGroupRound(sys *core.System, g *grouping.Group, groupParams []float64, cfg RoundConfig, tag uint64) ([]float64, float64, int, float64, error) {
	n := g.Size()
	dim := len(groupParams)
	if n < 2 {
		// Secure aggregation needs at least two parties; a singleton group
		// trains in the clear (nothing to hide from itself).
		c := g.Clients[0]
		model := sys.NewModel(sys.ModelSeed)
		model.SetParamVector(groupParams)
		x, y := sys.ClientBatch(c)
		core.SGDUpdater{}.LocalTrain(model, x, y, core.LocalContext{
			ClientID: c.ID, Anchor: groupParams,
			Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.LR,
			Rng: stats.NewRNG(cfg.Seed ^ tag ^ uint64(c.ID+1)),
		})
		return model.ParamVector(), float64(cfg.LocalEpochs) * cfg.Profile.Training(c.NumSamples()), 0, 0, nil
	}

	threshold := secagg.Threshold(cfg.ThresholdFrac, n)
	sess := secagg.NewSession(n, dim, threshold, cfg.Seed^(tag*0x9e3779b97f4a7c15)^uint64(g.ID), secagg.DefaultQuantizer())

	ng := float64(g.NumSamples())
	masked := make([][]uint64, n)
	plain := make([]float64, dim)
	slowest := 0.0
	var dropped []int
	survivedSamples := 0
	dropRng := stats.NewRNG(cfg.Seed ^ 0xd20b ^ tag ^ uint64(g.ID+1)*0xff51afd7ed558ccd)
	model := sys.NewModel(sys.ModelSeed)
	for i, c := range g.Clients {
		model.SetParamVector(groupParams)
		x, y := sys.ClientBatch(c)
		core.SGDUpdater{}.LocalTrain(model, x, y, core.LocalContext{
			ClientID: c.ID, Anchor: groupParams,
			Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.LR,
			Rng: stats.NewRNG(cfg.Seed ^ tag ^ uint64(c.ID+1)*0x165667b19e3779f9),
		})
		if t := float64(cfg.LocalEpochs) * cfg.Profile.Training(c.NumSamples()); t > slowest {
			slowest = t
		}
		// Simulated mid-round dropout: the client trained but never
		// submits. We cap dropouts so the Shamir threshold always holds —
		// beyond that the real protocol would abort the round.
		if cfg.DropoutProb > 0 && dropRng.Float64() < cfg.DropoutProb && n-len(dropped)-1 >= threshold {
			dropped = append(dropped, i)
			continue
		}
		w := float64(c.NumSamples()) / ng
		contrib := model.ParamVector()
		for j := range contrib {
			contrib[j] = float64(contrib[j] * w)
			plain[j] += contrib[j]
		}
		masked[i] = sess.MaskedUpdate(i, contrib)
		survivedSamples += c.NumSamples()
	}
	sum, err := sess.Aggregate(masked, dropped)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("hfl: group %d secure aggregation: %w", g.ID, err)
	}
	// Dropout renormalization: the unmasked sum is Σ_surv (n_i/n_g)x_i;
	// rescale so the surviving clients' weights sum to one.
	if len(dropped) > 0 && survivedSamples > 0 {
		scale := ng / float64(survivedSamples)
		for j := range sum {
			sum[j] *= scale
		}
		for j := range plain {
			plain[j] *= scale
		}
	}
	qerr := 0.0
	for j := range sum {
		if e := math.Abs(sum[j] - plain[j]); e > qerr {
			qerr = e
		}
	}
	return sum, slowest, sess.Ops().MaskStreams, qerr, nil
}
