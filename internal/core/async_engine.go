package core

import (
	"container/heap"

	"repro/internal/async"
	"repro/internal/grouping"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// This file is the engine's async half: the buffered (FedBuff-style) and
// semi-synchronous group state machines that replace runGroup's K
// bulk-synchronous rounds when Config.Async selects them. Both run on a
// per-group logical clock whose every delay draw is a pure function of
// (seed, round, group, client, dispatch ordinal) — see async.DispatchSeed —
// and record their arrival order to an async.Log, so a run replays
// bit-identically from its configuration at any MaxParallel.
//
// The determinism rules are the engine's four (engine.go) plus two async
// ones:
//
//  5. Arrival order is decided by (tick, dispatch ordinal) on the event
//     heap — never by goroutine scheduling. Training still fans out over
//     the worker pool, but only within a dispatch batch, between clock
//     events.
//  6. A client is redispatched only by the flush that consumed its
//     previous update, anchored on the post-flush group model. With a
//     full buffer (BufferFrac 1) every flush consumes every client, the
//     dispatch batches equal the synchronous client ordering, every
//     staleness is zero, and the fold is byte-for-byte reduceGroup —
//     which is what the α=0 equivalence property test pins down.

// arrivalEvent is one in-flight update on the logical clock's heap.
type arrivalEvent struct {
	tick int64
	seq  int // dispatch ordinal within the group: the deterministic tiebreak
	ci   int // client index within the group
}

// arrivalHeap is a min-heap over (tick, seq).
type arrivalHeap []arrivalEvent

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].tick != h[j].tick {
		return h[i].tick < h[j].tick
	}
	return h[i].seq < h[j].seq
}
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)   { *h = append(*h, x.(arrivalEvent)) }
func (h *arrivalHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// asyncGroupRun is the per-group state machine shared by the buffered and
// semi-sync executors.
type asyncGroupRun struct {
	e   *engine
	g   *grouping.Group
	sp  *groupSpace
	rep *GroupUpdate // the group's arrival-log slice, ticks and deadline counters land here

	round int
	n     int

	dropRng  *stats.RNG
	delayRng *stats.RNG

	heap arrivalHeap
	seq  int

	version int // group model version v: increments per nonempty fold

	// Per-client state, indexed by position in g.Clients.
	dispatched []int  // how many times dispatched (the next ordinal k)
	dispVer    []int  // model version at dispatch of the in-flight update
	inflight   []bool // dispatched, not yet arrived
	arrived    []bool // arrived (buffered or dropped), awaiting flush
	inBuf      []bool // arrived with a live update in its slot
	arrivals   int    // arrivals (incl. drops) since the last flush
}

func (e *engine) newAsyncGroupRun(g *grouping.Group, sp *groupSpace, globalParams []float64, round int, rep *GroupUpdate) *asyncGroupRun {
	cfg := &e.cfg
	n := g.Size()
	sp.reserve(n, len(globalParams))
	copy(sp.group, globalParams)
	return &asyncGroupRun{
		e:     e,
		g:     g,
		sp:    sp,
		rep:   rep,
		round: round,
		n:     n,
		// The stream runGroup draws from, so a full buffer replays it.
		dropRng:    stats.NewRNG(dropSeed(cfg.Seed, round, g.ID)),
		delayRng:   stats.NewRNG(0),
		dispatched: make([]int, n),
		dispVer:    make([]int, n),
		inflight:   make([]bool, n),
		arrived:    make([]bool, n),
		inBuf:      make([]bool, n),
	}
}

// dispatch trains one batch of clients from the current group model and
// schedules their arrivals. batch holds client indices in client order —
// rule 2's serial dropout draws and rule 5's dispatch ordinals both follow
// that order, so the batch composition alone fixes every draw.
func (r *asyncGroupRun) dispatch(batch []int, now int64) {
	if len(batch) == 0 {
		return
	}
	e := r.e
	cfg := &e.cfg
	sp := r.sp
	for _, i := range batch {
		sp.drop[i] = cfg.DropoutProb > 0 && r.dropRng.Float64() < cfg.DropoutProb
	}
	e.forEachClient(len(batch), func(j int) {
		w := e.acquire()
		defer e.release(w)
		e.trainClient(w, r.g, sp, r.round, batch[j])
	})
	for _, i := range batch {
		c := r.g.Clients[i]
		k := r.dispatched[i]
		r.dispatched[i]++
		r.dispVer[i] = r.version
		r.inflight[i] = true
		r.delayRng.Reseed(async.DispatchSeed(cfg.Seed, r.round, r.g.ID, c.ID, k))
		delay := cfg.Async.Delays.Draw(r.delayRng)
		heap.Push(&r.heap, arrivalEvent{tick: now + delay, seq: r.seq, ci: i})
		r.seq++
	}
}

// arrive consumes one heap event: the update lands in the buffer (or its
// dropout is observed) and waits for the next flush.
func (r *asyncGroupRun) arrive(ev arrivalEvent) {
	i := ev.ci
	sp := r.sp
	r.inflight[i] = false
	r.arrived[i] = true
	r.arrivals++
	c := r.g.Clients[i]
	if sp.drop[i] {
		sp.drops++
		r.rep.Events = append(r.rep.Events, async.Event{
			Round: r.round, Group: r.g.ID, Client: c.ID,
			Kind: async.Drop, Tick: ev.tick,
		})
		return
	}
	r.inBuf[i] = true
	sp.bytes += sp.cbytes[i]
	// The flush that consumes this arrival is the next one, and v only
	// moves at flushes, so the version lag is already final here.
	stale := r.version - r.dispVer[i]
	r.e.asyncStale.Observe(float64(stale))
	r.rep.Events = append(r.rep.Events, async.Event{
		Round: r.round, Group: r.g.ID, Client: c.ID,
		Kind: async.Arrive, Tick: ev.tick, Stale: stale,
	})
}

// flush folds the buffered updates into the group model in canonical
// client order, weighted n_i·w(τ), and returns the clients the flush
// consumed (in client order) so the caller can redispatch or free them.
// The version advances only on a nonempty fold; an all-dropped buffer
// carries the model over, exactly like reduceGroup's wsum<=0 branch.
func (r *asyncGroupRun) flush(now int64) []int {
	e := r.e
	sp := r.sp
	alpha := e.cfg.Async.Alpha
	live := 0
	wsum := 0.0
	for i := 0; i < r.n; i++ {
		if !r.inBuf[i] {
			continue
		}
		w := float64(float64(r.g.Clients[i].NumSamples()) *
			async.StalenessWeight(r.version-r.dispVer[i], alpha))
		sp.nodes[live] = sp.slots[i]
		sp.nodeW[live] = w
		wsum += w
		live++
	}
	if wsum > 0 {
		aggSpan := e.reg.Start("fel_core_group_aggregate_seconds", e.edgeLabel(r.g.Edge))
		root := treeFold(sp.nodes, sp.nodeW, live, e.max)
		tensor.ScaleInto(1/wsum, root, sp.group)
		aggSpan.End()
		r.version++
		e.asyncFolds.Add(int64(live))
	}
	e.asyncFlushes.Inc()
	e.asyncDepth.Observe(float64(live))
	r.rep.Events = append(r.rep.Events, async.Event{
		Round: r.round, Group: r.g.ID, Client: -1,
		Kind: async.Flush, Tick: now, Stale: live,
	})
	consumed := make([]int, 0, r.arrivals)
	for i := 0; i < r.n; i++ {
		if r.arrived[i] {
			r.arrived[i] = false
			r.inBuf[i] = false
			consumed = append(consumed, i)
		}
	}
	r.arrivals = 0
	return consumed
}

// runGroupBuffered executes one selected group under buffered-async
// semantics: every client is dispatched K times, arrivals fold whenever
// ceil(BufferFrac·n) of them (dropouts included — the loss is observed)
// have landed since the last flush, and the flush redispatches exactly the
// clients it consumed, anchored on the post-flush model. The heap draining
// with a nonempty buffer forces a final partial flush so no update is ever
// abandoned.
func (e *engine) runGroupBuffered(g *grouping.Group, sp *groupSpace, globalParams []float64, round int, rep *GroupUpdate) {
	r := e.newAsyncGroupRun(g, sp, globalParams, round, rep)
	threshold := e.cfg.Async.FlushThreshold(r.n)
	K := e.cfg.GroupRounds

	all := make([]int, r.n)
	for i := range all {
		all[i] = i
	}
	r.dispatch(all, 0)

	now := int64(0)
	for r.heap.Len() > 0 {
		ev := heap.Pop(&r.heap).(arrivalEvent)
		now = ev.tick
		r.arrive(ev)
		if r.arrivals < threshold && r.heap.Len() > 0 {
			continue
		}
		consumed := r.flush(now)
		batch := make([]int, 0, len(consumed))
		for _, i := range consumed {
			if r.dispatched[i] < K {
				batch = append(batch, i)
			}
		}
		r.dispatch(batch, now)
	}
	rep.Ticks = now
	e.asyncTicks.Add(now)
}

// runGroupSemiSync executes one selected group under semi-sync semantics:
// K rounds of DeadlineTicks each. Free clients dispatch at every round
// start; arrivals before the deadline fold at the deadline; an update
// still in flight at a deadline logs a carryover (per deadline missed) and
// folds later at its then-current staleness; updates in flight after the
// final deadline are discarded as late. The group always spends exactly
// K·DeadlineTicks logical ticks.
func (e *engine) runGroupSemiSync(g *grouping.Group, sp *groupSpace, globalParams []float64, round int, rep *GroupUpdate) {
	r := e.newAsyncGroupRun(g, sp, globalParams, round, rep)
	K := e.cfg.GroupRounds
	D := e.cfg.Async.DeadlineTicks

	free := make([]bool, r.n)
	for i := range free {
		free[i] = true
	}
	batch := make([]int, 0, r.n)
	for gr := 0; gr < K; gr++ {
		start := int64(gr) * D
		deadline := start + D
		batch = batch[:0]
		for i := 0; i < r.n; i++ {
			if free[i] {
				free[i] = false
				batch = append(batch, i)
			}
		}
		r.dispatch(batch, start)
		for r.heap.Len() > 0 && r.heap[0].tick <= deadline {
			r.arrive(heap.Pop(&r.heap).(arrivalEvent))
		}
		for i := 0; i < r.n; i++ {
			if r.inflight[i] {
				rep.Carryovers++
				e.asyncCarry.Inc()
				rep.Events = append(rep.Events, async.Event{
					Round: r.round, Group: g.ID, Client: g.Clients[i].ID,
					Kind: async.Carry, Tick: deadline, Stale: gr,
				})
			}
		}
		for _, i := range r.flush(deadline) {
			free[i] = true
		}
	}
	for r.heap.Len() > 0 {
		ev := heap.Pop(&r.heap).(arrivalEvent)
		rep.LateDrops++
		e.asyncLate.Inc()
		rep.Events = append(rep.Events, async.Event{
			Round: r.round, Group: g.ID, Client: g.Clients[ev.ci].ID,
			Kind: async.Late, Tick: ev.tick,
		})
	}
	rep.Ticks = int64(K) * D
	e.asyncTicks.Add(rep.Ticks)
}

// syncGroupTicks prices the bulk-synchronous schedule on the same logical
// clock the async modes run on: each of the K group rounds costs the
// maximum of its members' delay draws (the round barrier waits for the
// slowest update), drawn from the identical per-dispatch streams — purely
// observational, the training path never sees these draws.
func (e *engine) syncGroupTicks(g *grouping.Group, round int) int64 {
	cfg := &e.cfg
	if !cfg.Async.Delays.Enabled() {
		return 0
	}
	rng := stats.NewRNG(0)
	total := int64(0)
	for k := 0; k < cfg.GroupRounds; k++ {
		roundMax := int64(0)
		for _, c := range g.Clients {
			rng.Reseed(async.DispatchSeed(cfg.Seed, round, g.ID, c.ID, k))
			if d := cfg.Async.Delays.Draw(rng); d > roundMax {
				roundMax = d
			}
		}
		total += roundMax
	}
	e.asyncTicks.Add(total)
	return total
}
