package core

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sampling"
)

// Trainer runs Algorithm 1 one global round at a time. It holds every piece
// of cross-round state the one-shot Train loop kept in locals, which is what
// makes a run pausable: after any Step the trainer sits at a global-round
// boundary, ExportState captures that boundary completely, and
// NewTrainerResumed rebuilds a trainer whose remaining rounds are
// bit-for-bit identical to the uninterrupted run's.
//
// The determinism argument leans on two properties of the engine (PR 4):
// per-(seed, round, group, client) RNG streams are re-derived from the
// round index — stateless across rounds — and all reductions run in fixed
// order. The only RNG state that survives a round boundary belongs to the
// Plan, which exports it.
type Trainer struct {
	cfg Config

	// plan is the Alg. 1 control plane: formation, p_g, S_t, weights, fold.
	plan *Plan
	// exec trains the groups the plan selects; err is its failure, if any.
	exec Executor
	err  error

	globalParams []float64
	next         []float64
	// eval scores globalParams on the test set out of storage it keeps, so
	// evaluating every round allocates nothing model-sized.
	eval *evaluator

	acct *cost.Accountant
	res  *Result
	// aggNodes is the global fold's tree-node scratch, reused across rounds
	// so the steady-state Step stays allocation-free.
	aggNodes [][]float64

	dropsCtr *metrics.Counter
	// roundTicks is fel_async_round_ticks on asyncRegistry: the paper's
	// configuration publishes no fel_async_*.
	roundTicks *metrics.Gauge

	// lastSelected counts the clients in the most recent round's selected
	// groups — the set O(selected)-memory claims are measured against.
	lastSelected int

	t int
}

// NewTrainer prepares an in-process run: group formation, sampling vector,
// model initialization, cost accountant — everything Train did before its
// round loop, with the identical parent-RNG consumption order. It panics on a
// configuration NewTrainerOn rejects.
func NewTrainer(sys *System, cfg Config) *Trainer {
	tr, err := NewTrainerOn(sys, cfg, NewExecutor(sys, cfg), nil, nil)
	if err != nil {
		panic(fmt.Sprintf("fel: %v", err))
	}
	return tr
}

// NewTrainerOn prepares a run whose groups train on exec. pinned, when
// non-nil, is used verbatim in place of the initial formation; fixed, when
// non-nil, replaces sampling — round t selects fixed[t], indices into the
// group list. A configuration no run can start from is an error, worded
// without a package tag so each caller can add its own.
func NewTrainerOn(sys *System, cfg Config, exec Executor, pinned []*grouping.Group, fixed [][]int) (*Trainer, error) {
	if err := validate(sys, cfg, pinned != nil, fixed != nil); err != nil {
		return nil, err
	}
	// Lines 2–4: group formation at every edge, sampling vector.
	plan, err := NewPlan(sys, cfg, pinned, fixed)
	if err != nil {
		return nil, err
	}
	tr := &Trainer{cfg: cfg, plan: plan, exec: exec}
	model := sys.NewModel(sys.ModelSeed)
	tr.globalParams = model.ParamVector()
	tr.eval = newEvaluator(model, sys.Test, 0)
	if cfg.InitParams != nil {
		if len(cfg.InitParams) != len(tr.globalParams) {
			return nil, fmt.Errorf("InitParams length %d, model has %d", len(cfg.InitParams), len(tr.globalParams))
		}
		copy(tr.globalParams, cfg.InitParams)
	}
	tr.acct = cost.NewAccountant(cfg.CostProfile, cfg.CostOps)
	tr.res = &Result{Participation: make(map[int]int)}
	tr.next = make([]float64, len(tr.globalParams))
	tr.dropsCtr = cfg.Metrics.Counter("fel_core_dropouts_total")
	tr.roundTicks = asyncRegistry(cfg).Gauge("fel_async_round_ticks")
	return tr, nil
}

// Round returns the index of the next global round Step would run, i.e. the
// number of rounds executed so far.
func (tr *Trainer) Round() int { return tr.t }

// SelectedClients returns the number of clients in the groups the most
// recent Step sampled (0 before the first Step). At scale this — not the
// population — is what a round's working memory tracks;
// TestVirtualRoundMemoryOSelected checks it stays bounded while the
// population quadruples.
func (tr *Trainer) SelectedClients() int { return tr.lastSelected }

// Groups returns the live formation — what a networked executor's owner
// pushes to its edges before the first round. Read-only.
func (tr *Trainer) Groups() []*grouping.Group { return tr.plan.Groups() }

// Params returns the live global parameter vector. Callers must treat it as
// read-only; it is the buffer the next Step aggregates into.
func (tr *Trainer) Params() []float64 { return tr.globalParams }

// Err returns the executor failure that ended the run (a networked one's
// peer or transport), nil while it is healthy.
func (tr *Trainer) Err() error { return tr.err }

// Done reports whether the run is over: all GlobalRounds executed, the cost
// budget exhausted (the same check the Train loop made at the top of each
// iteration), or the executor failed (see Err).
func (tr *Trainer) Done() bool {
	if tr.err != nil || tr.t >= tr.cfg.GlobalRounds {
		return true
	}
	return tr.cfg.CostBudget > 0 && tr.acct.Total() >= tr.cfg.CostBudget
}

// Step executes one global round (Alg. 1 lines 6–15): optional regrouping,
// group sampling, group training on the executor, weighted global
// aggregation, and cost/participation accounting — the only round loop,
// inherited whole by every executor. Like bufio.Scanner it reports
// failure out of band: once Done, executor error (Err) included, Step does
// nothing and returns the zero record.
func (tr *Trainer) Step() RoundRecord {
	if tr.Done() {
		return RoundRecord{}
	}
	cfg, res, t := tr.cfg, tr.res, tr.t

	// Line 6: regroup when due (Sec. 6.1), then sample S_t.
	selected := tr.plan.Next(t)
	groups := tr.plan.Groups()

	// Lines 7–14: the executor trains every selected group. It owns what it
	// hands back; the global aggregation below consumes it.
	updates, err := tr.exec.RunGroups(t, groups, selected, tr.globalParams)
	if err != nil {
		tr.err = err
		return RoundRecord{}
	}
	// A round's logical time is the slowest selected group (the cloud
	// barrier).
	roundTicks := int64(0)
	tr.aggNodes = tr.aggNodes[:0]
	for si := range updates {
		u := &updates[si]
		res.Dropouts += u.Drops
		res.UplinkBytes += u.UplinkBytes
		tr.dropsCtr.Add(int64(u.Drops))
		res.Carryovers += u.Carryovers
		res.LateDrops += u.LateDrops
		roundTicks = max(roundTicks, u.Ticks)
		tr.aggNodes = append(tr.aggNodes, u.Params)
	}
	res.LogicalTicks += roundTicks
	// Published here, from the barrier value: written per group, the gauge
	// would keep whichever group happened to finish last.
	tr.roundTicks.Set(float64(roundTicks))

	// Line 15: global aggregation into the reused double buffer. The fold
	// consumes the group models as tree nodes.
	aggSpan := cfg.Metrics.Start("fel_core_global_aggregate_seconds")
	tr.plan.Fold(tr.aggNodes, tr.globalParams, tr.next, workerBound(cfg.MaxParallel))
	tr.globalParams, tr.next = tr.next, tr.globalParams
	clear(tr.aggNodes) // the vectors are the executor's: keep no reference past the fold
	aggSpan.End()

	if gf, ok := cfg.Local.(globalRoundFinisher); ok {
		gf.FinishGlobalRound()
	}

	// Cost and participation accounting (Eq. 5).
	sel := make([][]int, len(selected))
	covSum := 0.0
	tr.lastSelected = 0
	for si, gi := range selected {
		g := groups[gi]
		tr.lastSelected += g.Size()
		counts := make([]int, g.Size())
		for i, c := range g.Clients {
			counts[i] = c.NumSamples()
			res.Participation[c.ID]++
		}
		sel[si] = counts
		covSum += g.CoV()
	}
	tr.acct.GlobalRound(sel, cfg.GroupRounds, cfg.LocalEpochs)

	rec := RoundRecord{
		Round: t, Accuracy: -1, Loss: -1,
		Cost:           tr.acct.Total(),
		AvgSelectedCoV: covSum / float64(len(selected)),
	}
	if cfg.EvalEvery <= 1 || t%cfg.EvalEvery == 0 || t == cfg.GlobalRounds-1 {
		evalSpan := cfg.Metrics.Start("fel_core_eval_seconds")
		rec.Accuracy, rec.Loss = tr.eval.run(tr.globalParams)
		evalSpan.End()
	}
	res.Records = append(res.Records, rec)
	res.RoundsRun = t + 1
	tr.t = t + 1
	return rec
}

// Finish runs the final evaluation and seals the Result. The trainer must
// not be stepped afterwards.
func (tr *Trainer) Finish() *Result {
	res := tr.res
	if n := len(res.Records); n > 0 && res.Records[n-1].Round == tr.t-1 && res.Records[n-1].Accuracy >= 0 {
		// The last Step already scored these parameters (it always scores
		// round GlobalRounds-1); only a CostBudget stop can leave them unscored.
		res.FinalAccuracy, res.FinalLoss = res.Records[n-1].Accuracy, res.Records[n-1].Loss
	} else {
		res.FinalAccuracy, res.FinalLoss = tr.eval.run(tr.globalParams)
	}
	res.Groups = tr.plan.Groups()
	res.Probs = tr.plan.Probs()
	res.TotalCost = tr.acct.Total()
	res.Params = tr.globalParams
	return res
}

// TrainerState is a complete snapshot of a Trainer at a global-round
// boundary. Everything a resumed run needs that cannot be re-derived from
// (System, Config) is here: the global parameters, the sampling stream's
// PCG words, the cost components, the accumulated Result accounting, and —
// when the local updater is SCAFFOLD — the control variates, and under
// adaptive sampling the EWMA norms. Group formation is deliberately absent:
// it is replayed from the seed (including every regroup before Round). So is
// what a round did, async arrivals included: it is state only where a later
// round reads it, and the fel_async_* series count it. What remains is
// O(model + rounds) — the global vector and one Records entry per round so
// far, which a resumed run's Result must carry — plus, under SCAFFOLD, one
// variate per client that has trained.
type TrainerState struct {
	// Round is the next global round to run (= rounds already executed).
	Round int
	// Params is the global parameter vector at the boundary.
	Params []float64
	// SampleHi, SampleLo are the sampling stream's PCG state words.
	SampleHi, SampleLo uint64
	// CostTraining and CostGroupOps are the accountant's components.
	CostTraining, CostGroupOps float64
	// Dropouts, UplinkBytes mirror the Result accumulators.
	Dropouts    int
	UplinkBytes int64
	// Participation maps client ID to rounds participated.
	Participation map[int]int
	// Records is the per-round history so far.
	Records []RoundRecord
	// Scaffold is non-nil when the run trains with SCAFFOLD.
	Scaffold *ScaffoldCheckpoint
	// LogicalTicks, Carryovers, and LateDrops mirror the Result
	// accumulators.
	LogicalTicks int64
	Carryovers   int
	LateDrops    int
	// Adaptive is non-nil when the run samples adaptively: the EWMA
	// utilities and seen flags at the boundary.
	Adaptive *sampling.AdaptiveState
}

// ExportState captures the trainer's state at the current round boundary.
// Call it only between Steps (or before the first / after the last). It
// fails for runs with a compressor configured: per-client error-feedback
// residuals live inside the compressor implementations and have no
// serialization surface.
func (tr *Trainer) ExportState() (*TrainerState, error) {
	if tr.cfg.NewCompressor != nil {
		return nil, errors.New("core: cannot checkpoint a run with NewCompressor set (per-client residual state is not serializable)")
	}
	st := &TrainerState{
		Round:         tr.t,
		Params:        append([]float64(nil), tr.globalParams...),
		CostTraining:  tr.acct.Training(),
		CostGroupOps:  tr.acct.GroupOps(),
		Dropouts:      tr.res.Dropouts,
		UplinkBytes:   tr.res.UplinkBytes,
		Participation: make(map[int]int, len(tr.res.Participation)),
		Records:       append([]RoundRecord(nil), tr.res.Records...),
	}
	for id, n := range tr.res.Participation {
		st.Participation[id] = n
	}
	if sc, ok := tr.cfg.Local.(*ScaffoldUpdater); ok {
		st.Scaffold = sc.ExportState()
	}
	st.LogicalTicks = tr.res.LogicalTicks
	st.Carryovers = tr.res.Carryovers
	st.LateDrops = tr.res.LateDrops
	tr.plan.Export(st)
	return st, nil
}

// NewTrainerResumed rebuilds a trainer from a snapshot taken by
// ExportState under the same (System, Config). Plan.Restore replays the
// formation history and reinstates the sampling state; the remaining rounds
// are bit-identical to the run the snapshot came from.
//
// When the snapshot carries SCAFFOLD state, cfg.Local must be a fresh
// *ScaffoldUpdater for the variates to be restored into.
func NewTrainerResumed(sys *System, cfg Config, st *TrainerState) (*Trainer, error) {
	if cfg.NewCompressor != nil {
		return nil, errors.New("core: cannot resume a run with NewCompressor set")
	}
	tr, err := NewTrainerOn(sys, cfg, NewExecutor(sys, cfg), nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(st.Params) != len(tr.globalParams) {
		return nil, fmt.Errorf("core: snapshot has %d params, model has %d", len(st.Params), len(tr.globalParams))
	}
	if st.Round > cfg.GlobalRounds {
		return nil, fmt.Errorf("core: snapshot round %d exceeds GlobalRounds %d", st.Round, cfg.GlobalRounds)
	}
	if err := tr.plan.Restore(st); err != nil {
		return nil, err
	}

	tr.t = st.Round
	copy(tr.globalParams, st.Params)
	tr.acct.Restore(st.CostTraining, st.CostGroupOps)
	tr.res.Dropouts = st.Dropouts
	tr.res.UplinkBytes = st.UplinkBytes
	tr.res.RoundsRun = st.Round
	tr.res.Records = append([]RoundRecord(nil), st.Records...)
	for id, n := range st.Participation {
		tr.res.Participation[id] = n
	}
	if st.Scaffold != nil {
		sc, ok := tr.cfg.Local.(*ScaffoldUpdater)
		if !ok {
			return nil, errors.New("core: snapshot carries SCAFFOLD state but cfg.Local is not *ScaffoldUpdater")
		}
		sc.RestoreState(st.Scaffold)
	}
	tr.res.LogicalTicks = st.LogicalTicks
	tr.res.Carryovers = st.Carryovers
	tr.res.LateDrops = st.LateDrops
	return tr, nil
}
