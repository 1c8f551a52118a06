package baselines

import (
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/stats"
)

// TrainFedCLAR runs the FedCLAR-style personalized baseline: phase one is
// plain hierarchical FedAvg; at the clustering round, clients are grouped by
// the similarity of their local update directions; phase two trains one
// model per cluster on that cluster's clients only. Reported accuracy is the
// data-weighted accuracy of the cluster models on the *global* test set —
// which is exactly why the paper's Fig. 9 shows FedCLAR dropping after its
// clustering round: personalized models stop tracking the global task.
func TrainFedCLAR(sys *core.System, cfg core.Config, opts Options) *core.Result {
	clusterRound := opts.FedCLARClusterRound
	if clusterRound <= 0 || clusterRound >= cfg.GlobalRounds {
		clusterRound = cfg.GlobalRounds / 2
	}
	if clusterRound < 1 {
		clusterRound = 1
	}
	k := opts.FedCLARClusters
	if k < 2 {
		k = 2
	}

	// Phase 1: FedAvg-style warmup.
	p1 := cfg
	p1.GlobalRounds = clusterRound
	phase1 := core.Train(sys, p1)

	// Clustering: one local epoch per client from the shared model; cluster
	// the update directions.
	deltas := clientDeltas(sys, cfg, phase1.Params)
	assign := kmeansCosine(deltas, k, stats.NewRNG(cfg.Seed^0xfedc1a5))

	clusters := make([][]*data.Client, k)
	for i, c := range sys.Clients {
		clusters[assign[i]] = append(clusters[assign[i]], c)
	}

	// Phase 2: per-cluster training, continuing from the shared model.
	remaining := cfg.GlobalRounds - clusterRound
	type clusterRun struct {
		res    *core.Result
		weight float64
	}
	var runs []clusterRun
	totalData := 0.0
	for _, cl := range clusters {
		if len(cl) == 0 {
			continue
		}
		sub := sys.SubSystem(cl, len(sys.Edges))
		p2 := cfg
		p2.GlobalRounds = remaining
		p2.InitParams = phase1.Params
		p2.CostBudget = 0 // budget is enforced by the caller over the merge
		p2.Seed = cfg.Seed ^ uint64(len(runs)+1)*0x9e3779b97f4a7c15
		w := 0.0
		for _, c := range cl {
			w += float64(c.NumSamples())
		}
		totalData += w
		runs = append(runs, clusterRun{res: core.Train(sub, p2), weight: w})
	}

	// Merge: phase-1 records verbatim, then per-round weighted accuracy and
	// summed cost across clusters.
	out := &core.Result{Records: append([]core.RoundRecord(nil), phase1.Records...)}
	baseCost := phase1.TotalCost
	for r := 0; r < remaining; r++ {
		rec := core.RoundRecord{Round: clusterRound + r, Cost: baseCost}
		accNum, lossNum, covNum := 0.0, 0.0, 0.0
		evaluated := true
		for _, cr := range runs {
			rr := recordAt(cr.res, r)
			rec.Cost += rr.Cost
			if rr.Accuracy < 0 {
				evaluated = false
			}
			accNum += float64(cr.weight * rr.Accuracy)
			lossNum += float64(cr.weight * rr.Loss)
			covNum += float64(cr.weight * rr.AvgSelectedCoV)
		}
		if evaluated && totalData > 0 {
			rec.Accuracy = accNum / totalData
			rec.Loss = lossNum / totalData
			rec.AvgSelectedCoV = covNum / totalData
		} else {
			rec.Accuracy, rec.Loss = -1, -1
		}
		out.Records = append(out.Records, rec)
	}

	finalAcc, finalLoss, finalCost := 0.0, 0.0, baseCost
	for _, cr := range runs {
		finalAcc += float64(cr.weight * cr.res.FinalAccuracy)
		finalLoss += float64(cr.weight * cr.res.FinalLoss)
		finalCost += cr.res.TotalCost
	}
	if totalData > 0 {
		finalAcc /= totalData
		finalLoss /= totalData
	}
	out.FinalAccuracy = finalAcc
	out.FinalLoss = finalLoss
	out.TotalCost = finalCost
	out.RoundsRun = cfg.GlobalRounds
	out.Groups = phase1.Groups
	out.Probs = phase1.Probs
	out.Params = phase1.Params
	return out
}

// clientDeltas trains each client one epoch from params and returns the
// parameter deltas.
func clientDeltas(sys *core.System, cfg core.Config, params []float64) [][]float64 {
	deltas := make([][]float64, len(sys.Clients))
	updater := core.SGDUpdater{}
	model := sys.NewModel(sys.ModelSeed)
	for i, c := range sys.Clients {
		model.SetParamVector(params)
		x, y := sys.ClientBatch(c)
		updater.LocalTrain(model, x, y, core.LocalContext{
			ClientID: c.ID, Anchor: params,
			Epochs: 1, BatchSize: cfg.BatchSize, LR: cfg.LR,
			Rng: stats.NewRNG(cfg.Seed ^ uint64(c.ID+1)*0xc2b2ae3d27d4eb4f),
		})
		after := model.ParamVector()
		d := make([]float64, len(params))
		for j := range d {
			d[j] = after[j] - params[j]
		}
		deltas[i] = d
	}
	return deltas
}

// kmeansCosine clusters unit-normalized vectors with k-means.
func kmeansCosine(vecs [][]float64, k int, rng *stats.RNG) []int {
	n := len(vecs)
	if k > n {
		k = n
	}
	normed := make([][]float64, n)
	for i, v := range vecs {
		nv := append([]float64(nil), v...)
		norm := 0.0
		for _, x := range nv {
			norm += float64(x * x)
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			for j := range nv {
				nv[j] /= norm
			}
		}
		normed[i] = nv
	}
	perm := rng.Perm(n)
	centroids := make([][]float64, k)
	for i := 0; i < k; i++ {
		centroids[i] = append([]float64(nil), normed[perm[i]]...)
	}
	assign := make([]int, n)
	for it := 0; it < 15; it++ {
		changed := false
		for i, v := range normed {
			best, bestD := 0, math.Inf(1)
			for ci, cen := range centroids {
				d := stats.L2Distance(v, cen)
				if d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		counts := make([]int, k)
		for ci := range centroids {
			for j := range centroids[ci] {
				centroids[ci][j] = 0
			}
		}
		for i, v := range normed {
			ci := assign[i]
			counts[ci]++
			for j, x := range v {
				centroids[ci][j] += x
			}
		}
		for ci := range centroids {
			if counts[ci] > 0 {
				for j := range centroids[ci] {
					centroids[ci][j] /= float64(counts[ci])
				}
			}
		}
	}
	return assign
}

// recordAt returns the r-th record of res, clamping to the last one when a
// cluster run stopped early.
func recordAt(res *core.Result, r int) core.RoundRecord {
	if len(res.Records) == 0 {
		return core.RoundRecord{Accuracy: -1, Loss: -1}
	}
	if r >= len(res.Records) {
		return res.Records[len(res.Records)-1]
	}
	return res.Records[r]
}
