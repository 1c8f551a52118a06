package core

import (
	"strconv"
	"sync"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/cpu"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// engine is the deterministic parallel training core behind Train: a bounded
// pool of workers (one model clone + SGD arena each) fans client training out
// across goroutines while keeping every result bit-for-bit identical to the
// serial schedule at any MaxParallel.
//
// The determinism contract rests on six rules:
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
//  5. Arrival order is decided by (tick, dispatch ordinal) on the group's
//     event heap, every delay a pure function of (seed, round, group,
//     client, dispatch ordinal) — never by goroutine scheduling. Training
//     fans out over the worker pool only within a dispatch batch, between
//     clock events.
//  6. A client is redispatched only by the flush that consumed its previous
//     update, anchored on the post-flush group model. At a full buffer every
//     flush consumes every client in client order at staleness zero: that is
//     the synchronous group round of Alg. 1, and the only way this engine
//     runs one (async_engine.go).
//
// Workers (worker.go) are created lazily up to max and recycled through the
// engine's WorkerPool, so the steady state allocates nothing: models reuse
// their layer buffers (EnableBufferReuse), SGD scratch lives in per-worker
// arenas, and a group round's n×dim storage lives in group-round machines,
// one per goroutine of RunGroups' fan-out. A Worker's sample buffer is what
// bounds a round's data footprint on a virtual system: at most max workers ×
// one client batch exist at any instant, independent of the population size.
type engine struct {
	sys   *System
	cfg   Config
	local LocalUpdater
	comp  *compressorPool
	max   int

	workers *WorkerPool

	// mu guards groupAggHists.
	mu sync.Mutex
	// spaces[w] is the group-round machine RunGroups' goroutine w runs each
	// of its groups on, so at most the fan-out width ever exist. It is a
	// plain list, not a sync.Pool, whose per-P and victim caches keep more
	// n×dim matrices alive than a round uses (EXPERIMENTS.md: replacing such
	// a pool cut train-gemm's peak RSS 18 %).
	spaces []*groupSpace

	// slots[si] is the group vector selection slot si's update aliases —
	// O(dim), never a per-client array — and updates the result slice
	// RunGroups returns, both reused from round to round.
	slots   [][]float64
	updates []GroupUpdate

	epochsCtr *metrics.Counter
	trainHist *metrics.Histogram
	// groupAggHists[edge] is fel_core_group_aggregate_seconds{edge}, looked
	// up at the edge's first flush.
	groupAggHists []*metrics.Histogram

	// fel_async_* handles: the nil registry's discard instruments unless an
	// async mode or a delay model is configured, so the paper's configuration
	// publishes no fel_async_* series and the machine never asks.
	asyncStale   *metrics.Histogram
	asyncDepth   *metrics.Histogram
	asyncFolds   *metrics.Counter
	asyncFlushes *metrics.Counter
	asyncCarry   *metrics.Counter
	asyncLate    *metrics.Counter
	asyncTicks   *metrics.Counter
}

// groupSpace is one group-round machine (async_engine.go) and the n×dim
// storage it runs in, reused from one group's run to the next on the same
// goroutine of RunGroups' fan-out so a warm machine allocates nothing: the
// per-client result slots (views into one flat backing array), the
// tree-reduction node scratch, then the run state — logical-clock heap,
// per-client bookkeeping (pre-drawn dropout flag and uplink bytes included),
// the batch scratch — and the run's outcome. group belongs to the selection
// slot being run (begin takes it, RunGroups hands it back).
type groupSpace struct {
	e *engine

	group []float64
	flat  []float64
	slots [][]float64
	nodes [][]float64
	nodeW []float64

	g        *grouping.Group
	round    int
	dropRng  *stats.RNG
	delayRng *stats.RNG
	heap     arrivalHeap
	seq      int // next dispatch ordinal within the group
	version  int // group model version v: increments per nonempty fold
	arrivals int // arrivals (incl. drops) since the last flush
	clients  []clientRun
	batch    []int // client indices, in client order: next to dispatch, or just consumed

	drops       int
	bytes       int64
	ticks       int64
	carry, late int
}

// clientRun is one member's place in the group round.
type clientRun struct {
	dispatched int   // how many times dispatched (the next ordinal k)
	dispVer    int   // model version at dispatch of the latest update
	inflight   bool  // dispatched, not yet arrived
	arrived    bool  // arrived (buffered or dropped), awaiting flush
	drop       bool  // the latest update was drawn as lost (rule 2)
	bytes      int64 // uplink size of the latest update, 0 when dropped
}

// testUncapWorkers lifts the physical-CPU cap on the worker pool. The test
// binary sets it (engine_test.go init) so the -race pool test and the
// MaxParallel replay sweeps exercise real multi-worker concurrency even on
// single-CPU CI hosts; production runs never do.
var testUncapWorkers bool

// NewExecutor builds the in-process Executor: the training engine for one
// run. MaxParallel <= 0 follows the effective processor count (cpu.Procs);
// MaxParallel == 1 is the serial reference path: one worker, groups and
// their clients training one after another on the calling goroutine.
func NewExecutor(sys *System, cfg Config) Executor {
	local := cfg.Local
	if local == nil {
		local = SGDUpdater{}
	}
	var comp *compressorPool
	if cfg.NewCompressor != nil {
		comp = &compressorPool{factory: cfg.NewCompressor, byClient: make(map[int]compress.Compressor)}
	}
	max := workerBound(cfg.MaxParallel)
	e := &engine{
		sys:       sys,
		cfg:       cfg,
		local:     local,
		comp:      comp,
		max:       max,
		workers:   newWorkerPool(sys, max),
		epochsCtr: cfg.Metrics.Counter("fel_core_local_epochs_total"),
		trainHist: cfg.Metrics.Histogram("fel_core_local_train_seconds"),
	}
	areg := asyncRegistry(cfg)
	e.asyncStale = areg.Histogram("fel_async_staleness")
	e.asyncDepth = areg.Histogram("fel_async_buffer_depth")
	e.asyncFolds = areg.Counter("fel_async_folds_total")
	e.asyncFlushes = areg.Counter("fel_async_flushes_total")
	e.asyncCarry = areg.Counter("fel_async_carryover_total")
	e.asyncLate = areg.Counter("fel_async_late_total")
	e.asyncTicks = areg.Counter("fel_async_ticks_total")
	return e
}

// asyncRegistry is where a run's fel_async_* series go: cfg.Metrics when an
// async mode or a delay model is configured, the nil (discard) registry
// otherwise.
func asyncRegistry(cfg Config) *metrics.Registry {
	if cfg.Async.Mode != async.Sync || cfg.Async.Delays.Enabled() {
		return cfg.Metrics
	}
	return nil
}

// workerBound is the number of workers a MaxParallel setting buys — a bound,
// not a worker count: results are bit-identical however many workers actually
// run, so the pool is free to stay at the physical CPU count. Beyond it,
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
// the edge's first flush only, so a flush's span renders no label and
// searches no registry.
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

// begin readies the machine to run group g from params in global round
// round in a selection slot's group vector: storage for its n clients of
// len(params) parameters, backing arrays kept, and the run state of a group
// nobody has dispatched yet.
func (sp *groupSpace) begin(group []float64, g *grouping.Group, params []float64, round int) {
	n, dim := g.Size(), len(params)
	sp.g, sp.round = g, round
	sp.group = growFloats(group, dim)
	copy(sp.group, params)
	if cap(sp.flat) < n*dim {
		sp.flat = make([]float64, n*dim)
	}
	sp.flat = sp.flat[:n*dim]
	if cap(sp.slots) < n {
		sp.slots = make([][]float64, n)
		sp.nodes = make([][]float64, n)
		sp.nodeW = make([]float64, n)
		sp.clients = make([]clientRun, n)
		sp.batch = make([]int, 0, n)
		sp.heap = make(arrivalHeap, 0, n)
	}
	sp.slots = sp.slots[:n]
	for i := range sp.slots {
		sp.slots[i] = sp.flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	sp.nodes = sp.nodes[:n]
	sp.nodeW = sp.nodeW[:n]
	sp.clients = sp.clients[:n]
	clear(sp.clients)
	// The dropout stream is per (round, group) and drawn in dispatch order
	// (rule 2); at a full buffer that is client order, K times over.
	sp.dropRng.Reseed(dropSeed(sp.e.cfg.Seed, round, g.ID))
	sp.heap = sp.heap[:0]
	sp.seq, sp.version, sp.arrivals = 0, 0, 0
	sp.drops, sp.bytes, sp.ticks, sp.carry, sp.late = 0, 0, 0, 0, 0
}

// end closes the run: the returned update's Params is the group vector,
// which the machine lets go of, so it can run another slot's group next.
func (sp *groupSpace) end() GroupUpdate {
	u := GroupUpdate{
		Params: sp.group, Drops: sp.drops, UplinkBytes: sp.bytes,
		Ticks: sp.ticks, Carryovers: sp.carry, LateDrops: sp.late,
	}
	sp.g, sp.group = nil, nil
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

// trainClient runs lines 9–13 of Alg. 1 for member i of sp's group on worker
// w: E local epochs from the group model in sp.group, seeded by LocalSeed.
// Unless the client's update was drawn as dropped, what the edge receives
// lands in sp.slots[i] — the trained parameters priced as a dense uplink, or
// with a compressor the group model plus the decoded delta at the encoding's
// size; a dropped client trains (work done is work paid for) and ships
// nothing.
func (e *engine) trainClient(w *Worker, sp *groupSpace, i int) {
	cfg := &e.cfg
	c := sp.g.Clients[i]
	x, y := w.Load(e.sys, c, sp.group)
	trainSpan := e.trainHist.Start()
	w.Train(e.local, x, y, LocalSeed(cfg.Seed, sp.round, sp.g.ID, c.ID), LocalContext{
		ClientID:  c.ID,
		Anchor:    sp.group,
		Epochs:    cfg.LocalEpochs,
		BatchSize: cfg.BatchSize,
		LR:        cfg.LR,
	})
	trainSpan.End()
	e.epochsCtr.Add(int64(cfg.LocalEpochs))
	run := &sp.clients[i]
	run.bytes = 0
	if run.drop {
		return
	}
	slot := w.Model.ParamVectorInto(sp.slots[i])
	run.bytes = int64(8 * len(slot))
	if e.comp == nil {
		return
	}
	// The client ships a compressed delta; the edge applies the decoded
	// delta to its copy of the group model.
	if cap(w.delta) < len(slot) {
		w.delta = make([]float64, len(slot))
	}
	w.delta = w.delta[:len(slot)]
	tensor.SubInto(slot, sp.group, w.delta)
	enc := e.comp.forClient(c.ID).Compress(w.delta)
	run.bytes = int64(enc.Bytes())
	tensor.AddInto(sp.group, enc.Decode(), slot)
}
