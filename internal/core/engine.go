package core

import (
	"strconv"
	"sync"

	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// engine is the deterministic parallel training core behind Train: workers
// (one model clone + SGD arena each) train clients across goroutines while
// every result stays bit-for-bit identical to the serial schedule at any
// MaxParallel.
//
// The determinism contract rests on four rules:
//
//  1. Every client's RNG is derived from (seed, round, group, client), never
//     from which worker runs it, and each worker's model is fully overwritten
//     (SetParamVector) before training, so worker identity cannot leak into
//     results.
//  2. Dropout decisions are pre-drawn serially in client order from the
//     group's dropout RNG — the exact draw sequence of the serial loop —
//     before any goroutine starts.
//  3. Each client writes its trained parameters into its own indexed slot
//     of its group's machine; no shared accumulator is touched concurrently.
//     begin resets everything a group's run reads, so which goroutine's
//     machine runs a group cannot leak into results either.
//  4. The weighted reduction over slots is a fixed-pairing tree fold
//     (treeagg.go): the pairing is a pure function of the surviving client
//     count, so floating-point operation order never depends on scheduling —
//     the tree levels may fan out across goroutines and still produce the
//     same bits as the inline fold.
//
// The engine holds no run storage between calls: each client's training
// borrows a Worker (worker.go) from the System's lender (lender.go), and
// RunGroups one group-round machine per goroutine of its fan-out, which holds
// a group's n×dim storage and its members' rows, each drawn in the member's
// first group round of the run; both go back before the borrowing call returns,
// so a round's data footprint is the rows of at most max groups, whatever
// the population. Warm, training a client allocates nothing: models recycle
// their layer buffers (nn.Layer), SGD scratch lives in per-worker arenas.
// MaxParallel sets only the width of the fan-outs, max; the lender builds
// at most cpu.Procs() Workers. The lender's lists are plain lists, not a
// sync.Pool, whose per-P and victim caches keep more n×dim matrices alive
// than a round uses (EXPERIMENTS.md: replacing such a pool cut train-gemm's
// peak RSS 18 %).
type engine struct {
	sys   *System
	cfg   Config
	local LocalUpdater
	max   int

	// mu guards groupAggHists.
	mu sync.Mutex

	// updates is the result slice RunGroups returns and spaces its borrowed
	// machines, both reused from round to round.
	updates []GroupUpdate
	spaces  []*groupSpace

	epochsCtr *metrics.Counter
	trainHist *metrics.Histogram
	// groupAggHists[edge] is fel_core_group_aggregate_seconds{edge}, looked
	// up at the edge's first fold.
	groupAggHists []*metrics.Histogram
}

// groupSpace is one group-round machine (groupround.go) and the storage it
// runs in, lent by the System to one goroutine of a RunGroups fan-out at a
// time, so a warm machine allocates nothing: the per-client result slots
// (views into one flat backing array), the tree-reduction node scratch, the
// members' rows (views into one slab), the pre-drawn dropout flags, and the
// run's outcome. group is the vector of the selection slot being run, the
// caller's (begin takes it, end lets it go).
type groupSpace struct {
	e *engine

	group []float64
	flat  []float64
	slots [][]float64
	nodes [][]float64
	nodeW []float64

	feats  []float64
	labels []int
	rows   []memberRows // longest group's length: its shapes are kept

	g       *grouping.Group
	round   int
	dropRng *stats.RNG
	dropped []bool // member i's update in this group round is lost (rule 2)

	drops int
	bytes int64
}

// memberRows is one member's batch, views into its machine's slab.
type memberRows struct {
	x tensor.Tensor
	y []int
}

// testUncapWorkers lifts the physical-CPU cap on the fan-out width and on the
// Workers a System builds. The test binary sets it (engine_test.go init) so
// the -race engine test and the MaxParallel replay sweeps exercise real
// multi-worker concurrency even on single-CPU CI hosts; production runs
// never do.
var testUncapWorkers bool

// NewExecutor builds the in-process Executor: the training engine for one
// run. MaxParallel <= 0 follows the effective processor count (cpu.Procs);
// MaxParallel == 1 is the serial reference path: groups and their clients
// training one after another on the calling goroutine.
func NewExecutor(sys *System, cfg Config) Executor {
	local := cfg.Local
	if local == nil {
		local = SGDUpdater{}
	}
	width := workerBound(cfg.MaxParallel)
	e := &engine{
		sys:       sys,
		cfg:       cfg,
		local:     local,
		max:       width,
		epochsCtr: cfg.Metrics.Counter("fel_core_local_epochs_total"),
		trainHist: cfg.Metrics.Histogram("fel_core_local_train_seconds"),
	}
	// The test binary's cap on the System's Workers follows its widest engine.
	sys.lend.mu.Lock()
	sys.lend.asked = max(sys.lend.asked, width)
	sys.lend.mu.Unlock()
	return e
}

// workerBound is the fan-out width a MaxParallel setting buys — a bound, not
// a worker count: results are bit-identical however many workers actually
// run, so the width is free to stay at the physical CPU count. Beyond it,
// extra workers only multiply resident model clones and thread handoffs on
// the same cores — PR 9 measured large-model rounds ~15% slower with 8
// workers on one CPU, PR 18 no faster and +7% peak RSS with 8 on two. A change
// here shows in `go run ./bench` workload train-gemm (rounds_per_s,
// parallel_speedup).
func workerBound(maxParallel int) int {
	cpus := cpu.Procs()
	if maxParallel <= 0 || (maxParallel > cpus && !testUncapWorkers) {
		return cpus
	}
	return maxParallel
}

// groupAggHist returns edge's group-aggregation histogram, looking it up on
// the edge's first fold only, so a fold's span renders no label and searches
// no registry.
func (e *engine) groupAggHist(edge int) *metrics.Histogram {
	e.mu.Lock()
	defer e.mu.Unlock()
	if edge >= len(e.groupAggHists) {
		e.groupAggHists = append(e.groupAggHists, make([]*metrics.Histogram, edge+1-len(e.groupAggHists))...)
	}
	h := e.groupAggHists[edge]
	if h == nil {
		h = e.cfg.Metrics.Histogram("fel_core_group_aggregate_seconds", metrics.L("edge", strconv.Itoa(edge)))
		e.groupAggHists[edge] = h
	}
	return h
}

// newGroupSpace builds a group-round machine with no storage yet.
func newGroupSpace() *groupSpace {
	return &groupSpace{dropRng: stats.NewRNG(0)}
}

// begin readies the machine to run group g for e from params in global round
// round in a selection slot's group vector, of len(params): storage for its
// n clients of len(params) parameters, backing arrays kept, and the run
// state of a group that has run no group round yet.
func (sp *groupSpace) begin(e *engine, group []float64, g *grouping.Group, params []float64, round int) {
	n, dim := g.Size(), len(params)
	sp.e, sp.g, sp.round = e, g, round
	sp.group = group[:dim]
	copy(sp.group, params)
	sp.flat = tensor.Grow(sp.flat, n*dim)
	sp.slots, sp.nodes, sp.nodeW = tensor.Grow(sp.slots, n), tensor.Grow(sp.nodes, n), tensor.Grow(sp.nodeW, n)
	sp.dropped = tensor.Grow(sp.dropped, n)
	for i := range sp.slots {
		sp.slots[i] = sp.flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	sp.layRows(e.sys.Test)
	// The dropout stream is per (round, group) and drawn in client order, K
	// times over (rule 2).
	sp.dropRng.Reseed(dropSeed(sp.e.cfg.Seed, round, g.ID))
	sp.drops, sp.bytes = 0, 0
}

// layRows lays the members' batches out in the slab, member i's c.N rows
// after member i−1's, for trainClient to draw into.
func (sp *groupSpace) layRows(test *data.Dataset) {
	total, dim := 0, test.Dim()
	for _, c := range sp.g.Clients {
		total += c.N
	}
	sp.feats, sp.labels = tensor.Grow(sp.feats, total*dim), tensor.Grow(sp.labels, total)
	sp.rows = append(sp.rows, make([]memberRows, max(0, len(sp.g.Clients)-len(sp.rows)))...)
	off := 0
	for i, c := range sp.g.Clients {
		r, hi := &sp.rows[i], off+c.N
		r.x.Data, r.y = sp.feats[off*dim:hi*dim:hi*dim], sp.labels[off:hi:hi]
		r.x.Shape = append(append(r.x.Shape[:0], c.N), test.SampleShape...)
		off = hi
	}
}

// end closes the run, the group model left in the slot's vector, and lets
// go of the engine, the group and the vector, so a free machine keeps no run
// alive.
func (sp *groupSpace) end() GroupUpdate {
	u := GroupUpdate{Drops: sp.drops, UplinkBytes: sp.bytes}
	sp.e, sp.g, sp.group = nil, nil, nil
	return u
}

// LocalSeed derives the local-training RNG seed of client cid training in
// group gid during global round round (determinism rule 1). Every executor —
// the engine here, the networked fednode client — seeds local SGD from this
// one derivation, which is what lets a clean loopback run follow the
// in-process trajectory.
func LocalSeed(seed uint64, round, gid, cid int) uint64 {
	return seed ^
		(uint64(round+1) * 0x9e3779b97f4a7c15) ^
		(uint64(gid+1) * 0xc2b2ae3d27d4eb4f) ^
		(uint64(cid+1) * 0x165667b19e3779f9)
}

// dropSeed derives the dropout stream of group gid in global round round
// (determinism rule 2).
func dropSeed(seed uint64, round, gid int) uint64 {
	return seed ^ 0xd20b ^
		(uint64(round+1) * 0xff51afd7ed558ccd) ^
		(uint64(gid+1) * 0xc4ceb9fe1a85ec53)
}

// trainClient runs lines 9–13 of Alg. 1 for member i of sp's group in group
// round k on worker w: E local epochs from the group model in sp.group,
// seeded by LocalSeed, over the member's rows, drawn in round 0.
// Unless the client's update was drawn as dropped, its trained parameters —
// the dense uplink the edge receives — land in sp.slots[i]; a dropped client
// trains (work done is work paid for) and ships nothing.
func (e *engine) trainClient(w *Worker, sp *groupSpace, i, k int) {
	cfg := &e.cfg
	c, rows := sp.g.Clients[i], &sp.rows[i]
	trainSpan := e.trainHist.Start()
	if k == 0 {
		e.sys.rows.DrawInto(c.ID, rows.x.Data, rows.y, &w.draw)
	}
	w.Train(e.local, &rows.x, rows.y, LocalSeed(cfg.Seed, sp.round, sp.g.ID, c.ID), LocalContext{
		ClientID:  c.ID,
		Anchor:    sp.group,
		Epochs:    cfg.LocalEpochs,
		BatchSize: cfg.BatchSize,
		LR:        cfg.LR,
	})
	trainSpan.End()
	e.epochsCtr.Add(int64(cfg.LocalEpochs))
	if !sp.dropped[i] {
		w.Model.ParamVectorInto(sp.slots[i])
	}
}
