package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// engine is the deterministic parallel training core behind Train: a bounded
// pool of workers (one model clone + SGD arena each) fans client training out
// across goroutines while keeping every result bit-for-bit identical to the
// serial schedule at any MaxParallel.
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
//  3. Each client writes its trained parameters into its own indexed slot;
//     no shared accumulator is touched concurrently.
//  4. The weighted reduction over slots is a fixed-pairing tree fold
//     (treeagg.go): the pairing is a pure function of the surviving client
//     count, so floating-point operation order never depends on scheduling —
//     the tree levels may fan out across goroutines and still produce the
//     same bits as the inline fold.
//
// Workers are created lazily up to max and recycled through a free list, so
// the steady state allocates nothing: models reuse their layer buffers
// (EnableBufferReuse), SGD scratch lives in per-worker arenas, and group
// aggregation buffers are per-slot groupSpaces.
type engine struct {
	sys   *System
	cfg   Config
	local LocalUpdater
	comp  *compressorPool
	max   int

	mu      sync.Mutex
	created int
	free    chan *worker

	// spaces[si] is selection slot si's aggregation space and updates the
	// result slice RunGroups returns, both reused from round to round.
	spaces  []*groupSpace
	updates []GroupUpdate

	reg        *metrics.Registry
	epochsCtr  *metrics.Counter
	edgeLabels map[int]metrics.Label

	// fel_async_* handles, registered only when an async mode or a delay
	// model is configured so synchronous runs publish an unchanged metric
	// surface (async_engine.go guards every use behind the same condition).
	asyncStale   *metrics.Histogram
	asyncDepth   *metrics.Histogram
	asyncFolds   *metrics.Counter
	asyncFlushes *metrics.Counter
	asyncCarry   *metrics.Counter
	asyncLate    *metrics.Counter
	asyncTicks   *metrics.Counter
}

// worker is one pool slot: a private model clone with buffer reuse enabled
// and the SGD scratch arena, plus a delta buffer for the compression path
// and the sample buffer virtual clients materialize into. The batch buffer
// is what bounds a round's data footprint on a virtual system: at most
// max workers × one client batch exist at any instant, independent of the
// population size.
type worker struct {
	model *nn.Sequential
	arena *sgdArena
	delta []float64
	batch data.SampleBuffer
}

// groupSpace holds one group's aggregation state for a global round: the
// evolving group parameters, per-client result slots (views into one flat
// backing array), the tree-reduction node scratch, pre-drawn dropout flags,
// and per-client uplink byte counts. The engine keeps one per selection slot;
// group stays valid until the slot's next round.
type groupSpace struct {
	group  []float64
	flat   []float64
	slots  [][]float64
	nodes  [][]float64
	nodeW  []float64
	drop   []bool
	cbytes []int64
	drops  int
	bytes  int64
}

// testUncapWorkers lifts the physical-CPU cap on the worker pool. The test
// binary sets it (engine_test.go init) so the -race pool test and the
// MaxParallel replay sweeps exercise real multi-worker concurrency even on
// single-CPU CI hosts; production runs never do.
var testUncapWorkers bool

// procs is the effective processor count, min(GOMAXPROCS, NumCPU): the
// default width of every fan-out in this package (the engine's worker pool,
// Evaluate, parallelEach), which is the only layer that starts goroutines
// for compute — a tensor GEMM runs on its caller's. GOMAXPROCS above the
// physical core count is pure oversubscription for compute-bound work: PR 9
// measured a medium-scale training round at 0.60× the serial baseline with
// GOMAXPROCS=8 on one core before this cap.
func procs() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// NewExecutor builds the in-process Executor: the training engine for one
// run. MaxParallel <= 0 follows the effective processor count; MaxParallel ==
// 1 is the serial reference path: one worker, groups and their clients
// training one after another on the calling goroutine. Only Evaluate, which
// MaxParallel does not govern, still fans out.
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
		sys:        sys,
		cfg:        cfg,
		local:      local,
		comp:       comp,
		max:        max,
		free:       make(chan *worker, max),
		reg:        cfg.Metrics,
		epochsCtr:  cfg.Metrics.Counter("fel_core_local_epochs_total"),
		edgeLabels: make(map[int]metrics.Label),
	}
	if cfg.Async.Mode != async.Sync || cfg.Async.Delays.Enabled() {
		e.asyncStale = cfg.Metrics.Histogram("fel_async_staleness")
		e.asyncDepth = cfg.Metrics.Histogram("fel_async_buffer_depth")
		e.asyncFolds = cfg.Metrics.Counter("fel_async_folds_total")
		e.asyncFlushes = cfg.Metrics.Counter("fel_async_flushes_total")
		e.asyncCarry = cfg.Metrics.Counter("fel_async_carryover_total")
		e.asyncLate = cfg.Metrics.Counter("fel_async_late_total")
		e.asyncTicks = cfg.Metrics.Counter("fel_async_ticks_total")
	}
	return e
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
	cpus := procs()
	if maxParallel <= 0 || (maxParallel > cpus && !testUncapWorkers) {
		return cpus
	}
	return maxParallel
}

// acquire hands out a pooled worker, creating one lazily while fewer than
// max exist, and blocking on the free list otherwise.
func (e *engine) acquire() *worker {
	select {
	case w := <-e.free:
		return w
	default:
	}
	e.mu.Lock()
	if e.created < e.max {
		e.created++
		e.mu.Unlock()
		m := e.sys.NewModel(e.sys.ModelSeed)
		m.EnableBufferReuse()
		return &worker{model: m, arena: newSGDArena()}
	}
	e.mu.Unlock()
	return <-e.free
}

func (e *engine) release(w *worker) { e.free <- w }

// edgeLabel caches the metrics label for an edge so the per-group aggregation
// span does not re-render strconv output every group round.
func (e *engine) edgeLabel(edge int) metrics.Label {
	e.mu.Lock()
	l, ok := e.edgeLabels[edge]
	if !ok {
		l = metrics.L("edge", strconv.Itoa(edge))
		e.edgeLabels[edge] = l
	}
	e.mu.Unlock()
	return l
}

// reserve sizes the space for n clients of dim parameters, reusing backing
// arrays across rounds.
func (sp *groupSpace) reserve(n, dim int) {
	sp.group = growFloats(sp.group, dim)
	if cap(sp.flat) < n*dim {
		sp.flat = make([]float64, n*dim)
	}
	sp.flat = sp.flat[:n*dim]
	if cap(sp.slots) < n {
		sp.slots = make([][]float64, n)
	}
	sp.slots = sp.slots[:n]
	for i := range sp.slots {
		sp.slots[i] = sp.flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	if cap(sp.nodes) < n {
		sp.nodes = make([][]float64, n)
		sp.nodeW = make([]float64, n)
	}
	sp.nodes = sp.nodes[:n]
	sp.nodeW = sp.nodeW[:n]
	if cap(sp.drop) < n {
		sp.drop = make([]bool, n)
		sp.cbytes = make([]int64, n)
	}
	sp.drop = sp.drop[:n]
	sp.cbytes = sp.cbytes[:n]
	sp.drops = 0
	sp.bytes = 0
}

// forEachClient runs fn(0..n-1), inline when the engine is serial and on one
// goroutine per client otherwise (each blocks on a pooled worker, so true
// concurrency stays bounded by max). Panics are re-raised on the caller.
func (e *engine) forEachClient(n int, fn func(i int)) {
	if e.max == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstPanic any
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if firstPanic == nil {
						firstPanic = r
					}
					mu.Unlock()
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if firstPanic != nil {
		panic(fmt.Sprintf("fel: client worker panic: %v", firstPanic))
	}
}

// LocalSeed derives the local-training RNG seed of client cid training in
// group gid during global round round (determinism rule 1). Every executor —
// the sync and async engines here, the networked fednode client — seeds
// local SGD from this one derivation, which is what lets a clean loopback
// run follow the in-process trajectory.
func LocalSeed(seed uint64, round, gid, cid int) uint64 {
	return seed ^
		(uint64(round+1) * 0x9e3779b97f4a7c15) ^
		(uint64(gid+1) * 0xc2b2ae3d27d4eb4f) ^
		(uint64(cid+1) * 0x165667b19e3779f9)
}

// dropSeed derives the dropout stream of group gid in global round round
// (determinism rule 2). The sync and async engines draw from the same stream
// in client order, so a full-buffer async run replays the synchronous draws.
func dropSeed(seed uint64, round, gid int) uint64 {
	return seed ^ 0xd20b ^
		(uint64(round+1) * 0xff51afd7ed558ccd) ^
		(uint64(gid+1) * 0xc4ceb9fe1a85ec53)
}

// trainClient runs lines 9–13 of Alg. 1 for member i of g on worker w: E
// local epochs from the group model in sp.group, seeded by LocalSeed. Unless
// the client's update was drawn as dropped, the trained parameters land in
// sp.slots[i] — which is returned — priced as a dense uplink; a dropped
// client trains (work done is work paid for) and returns nil.
func (e *engine) trainClient(w *worker, g *grouping.Group, sp *groupSpace, round, i int) []float64 {
	cfg := &e.cfg
	c := g.Clients[i]
	w.model.SetParamVector(sp.group)
	x, y := e.sys.clientBatchInto(c, &w.batch)
	w.arena.rng.Reseed(LocalSeed(cfg.Seed, round, g.ID, c.ID))
	ctx := LocalContext{
		ClientID:  c.ID,
		Anchor:    sp.group,
		Epochs:    cfg.LocalEpochs,
		BatchSize: cfg.BatchSize,
		LR:        cfg.LR,
		Rng:       w.arena.rng,
		arena:     w.arena,
	}
	trainSpan := e.reg.Start("fel_core_local_train_seconds")
	e.local.LocalTrain(w.model, x, y, ctx)
	trainSpan.End()
	e.epochsCtr.Add(int64(cfg.LocalEpochs))
	sp.cbytes[i] = 0
	if sp.drop[i] {
		return nil
	}
	sp.cbytes[i] = int64(8 * len(sp.group))
	return w.model.ParamVectorInto(sp.slots[i])
}

// runGroup executes lines 8–14 of Alg. 1 for one selected group: K group
// rounds, each training every member client for E local epochs from the
// current group model, then weight-averaging by n_i over the clients whose
// updates arrived (n_i/n_g when nothing drops). It leaves the final group
// parameters in sp.group plus dropout and uplink accounting.
func (e *engine) runGroup(g *grouping.Group, sp *groupSpace, globalParams []float64, round int) {
	cfg := &e.cfg
	dim := len(globalParams)
	n := g.Size()
	sp.reserve(n, dim)
	copy(sp.group, globalParams)

	dropRng := stats.NewRNG(dropSeed(cfg.Seed, round, g.ID))

	for k := 0; k < cfg.GroupRounds; k++ {
		// Rule 2: the dropout draws happen serially in client order — the
		// same Float64 sequence the serial loop consumes.
		for i := range sp.drop {
			sp.drop[i] = cfg.DropoutProb > 0 && dropRng.Float64() < cfg.DropoutProb
		}
		e.forEachClient(n, func(i int) {
			w := e.acquire()
			defer e.release(w)
			slot := e.trainClient(w, g, sp, round, i)
			if slot == nil || e.comp == nil {
				return
			}
			// The client ships a compressed delta; the edge applies the
			// decoded delta to its copy of the group model.
			if cap(w.delta) < dim {
				w.delta = make([]float64, dim)
			}
			w.delta = w.delta[:dim]
			tensor.SubInto(slot, sp.group, w.delta)
			enc := e.comp.forClient(g.Clients[i].ID).Compress(w.delta)
			sp.cbytes[i] = int64(enc.Bytes())
			tensor.AddInto(sp.group, enc.Decode(), slot)
		})
		// Rules 3–4: reduce the indexed slots with the fixed-pairing tree.
		aggSpan := e.reg.Start("fel_core_group_aggregate_seconds", e.edgeLabel(g.Edge))
		reduceGroup(g, sp, e.max)
		aggSpan.End()
	}
}

// reduceGroup folds the per-client parameter slots into sp.group by
// sample-count-weighted average over the clients whose updates arrived,
// accumulating the space's dropout and uplink accounting as it goes. The
// surviving slots, gathered in client order, feed the fixed-pairing tree
// fold (treeagg.go), which overwrites them in place — safe, because every
// slot is fully rewritten by ParamVectorInto before the next group round
// reads it. The pairing depends only on the survivor count, so the result
// is bit-identical at any MaxParallel. When every client dropped (wsum 0)
// the group model carries over unchanged.
func reduceGroup(g *grouping.Group, sp *groupSpace, par int) {
	live := 0
	wsum := 0.0
	for i, c := range g.Clients {
		if sp.drop[i] {
			sp.drops++
			continue
		}
		sp.bytes += sp.cbytes[i]
		w := float64(c.NumSamples())
		wsum += w
		sp.nodes[live] = sp.slots[i]
		sp.nodeW[live] = w
		live++
	}
	if wsum <= 0 {
		return
	}
	root := treeFold(sp.nodes, sp.nodeW, live, par)
	tensor.ScaleInto(1/wsum, root, sp.group)
}
