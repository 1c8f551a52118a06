package core

import (
	"repro/internal/async"
	"repro/internal/cpu"
	"repro/internal/tensor"
)

// This file is the group round: lines 8–14 of Alg. 1 as one dispatch →
// arrive → flush state machine per selected group (state in groupSpace,
// engine.go), with two flush triggers. runBuffered flushes on an arrival
// count — the whole membership for async.Sync, which is the paper's K
// bulk-synchronous group rounds, ceil(BufferFrac·n) for async.Buffered
// (FedBuff-style); runDeadlines flushes on async.SemiSync's per-round
// deadline. The machine runs on a per-group logical clock (rule 5,
// engine.go), so a run replays bit-identically from its configuration at any
// MaxParallel; outside Sync it counts what arrived, folded, carried over and
// came late in the fel_async_* series.

// arrivalEvent is one in-flight update on the logical clock's heap.
type arrivalEvent struct {
	tick int64
	seq  int // dispatch ordinal within the group: the deterministic tiebreak
	ci   int // client index within the group
}

func (a arrivalEvent) before(b arrivalEvent) bool {
	return a.tick < b.tick || (a.tick == b.tick && a.seq < b.seq)
}

// arrivalHeap is a binary min-heap over (tick, seq) — a total order, so the
// pop sequence is a function of the pushed set alone.
type arrivalHeap []arrivalEvent

func (h *arrivalHeap) push(ev arrivalEvent) {
	s := append(*h, ev)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *arrivalHeap) pop() arrivalEvent {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && s[child+1].before(s[child]) {
			child++
		}
		if !s[child].before(s[i]) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	*h = s
	return top
}

// observes reports whether the run makes the fel_async_* staleness, fold and
// flush observations: every mode but Sync, where each flush consumes the
// whole membership in client order and nothing depends on the order of
// arrival.
func (sp *groupSpace) observes() bool { return sp.e.cfg.Async.Mode != async.Sync }

// dispatch trains the clients in sp.batch from the current group model and
// schedules their arrivals. The batch is in client order — rule 2's serial
// dropout draws and rule 5's dispatch ordinals both follow it, so the batch
// composition alone fixes every draw.
func (sp *groupSpace) dispatch(now int64) {
	if len(sp.batch) == 0 {
		return
	}
	e := sp.e
	cfg := &e.cfg
	for _, i := range sp.batch {
		sp.clients[i].drop = cfg.DropoutProb > 0 && sp.dropRng.Float64() < cfg.DropoutProb
	}
	cpu.Each(len(sp.batch), e.max, func(_, j int) {
		w := e.workers.Acquire()
		defer e.workers.Release(w)
		e.trainClient(w, sp, sp.batch[j])
	})
	for _, i := range sp.batch {
		c := &sp.clients[i]
		sp.delayRng.Reseed(async.DispatchSeed(cfg.Seed, sp.round, sp.g.ID, sp.g.Clients[i].ID, c.dispatched))
		c.dispatched++
		c.dispVer = sp.version
		c.inflight = true
		sp.heap.push(arrivalEvent{tick: now + cfg.Async.Delays.Draw(sp.delayRng), seq: sp.seq, ci: i})
		sp.seq++
	}
}

// arrive consumes one heap event: the update lands in the buffer (or its
// dropout is observed) and waits for the next flush.
func (sp *groupSpace) arrive(ev arrivalEvent) {
	i := ev.ci
	c := &sp.clients[i]
	c.inflight, c.arrived = false, true
	sp.arrivals++
	if c.drop {
		sp.drops++
		return
	}
	sp.bytes += c.bytes
	if sp.observes() {
		// The flush that consumes this arrival is the next one, and v only
		// moves at flushes, so the version lag is already final here.
		sp.e.asyncStale.Observe(float64(sp.version - c.dispVer))
	}
}

// flush folds the buffered updates into the group model by the
// fixed-pairing tree over the arrived clients' slots, gathered in client
// order and weighted n_i·w(τ) — at a full buffer τ is 0 and w exactly 1, the
// n_i-weighted average of Alg. 1 line 14 — and leaves the clients it
// consumed (dropped ones included) in sp.batch for the caller to redispatch
// or free. The tree overwrites the slots it folds, which is safe: a slot is
// fully rewritten by trainClient before it is read again. The version
// advances only on a nonempty fold; when every arrival was a dropout the
// group model carries over.
func (sp *groupSpace) flush() {
	e := sp.e
	aggSpan := e.groupAggHist(sp.g.Edge).Start()
	alpha := e.cfg.Async.Alpha
	live, folded := 0, 0
	wsum := 0.0
	sp.batch = sp.batch[:0]
	for i := range sp.clients {
		c := &sp.clients[i]
		if !c.arrived {
			continue
		}
		c.arrived = false
		sp.batch = append(sp.batch, i)
		if c.drop {
			continue
		}
		w := float64(float64(sp.g.Clients[i].NumSamples()) *
			async.StalenessWeight(sp.version-c.dispVer, alpha))
		sp.nodes[live] = sp.slots[i]
		sp.nodeW[live] = w
		wsum += w
		live++
	}
	sp.arrivals = 0
	if wsum > 0 {
		root := treeFold(sp.nodes, sp.nodeW, live, e.max)
		tensor.ScaleInto(1/wsum, root, sp.group)
		sp.version++
		folded = live
	}
	aggSpan.End()
	if !sp.observes() {
		return
	}
	e.asyncFolds.Add(int64(folded))
	e.asyncFlushes.Inc()
	e.asyncDepth.Observe(float64(live))
}

// runBuffered runs the group on the arrival-count trigger: every client is
// dispatched K times, the buffer folds whenever threshold arrivals
// (dropouts included — the loss is observed) have landed since the last
// flush, and the flush redispatches exactly the clients it consumed,
// anchored on the post-flush model (rule 6). Sync is the full buffer: every
// flush waits for the whole membership, the dispatch batches are the client
// ordering K times over, every staleness is zero, and the group's ticks come
// to Σ_k max_c delay — the barrier waiting for its slowest update. The heap
// draining with a nonempty buffer forces a final partial flush so no update
// is ever abandoned.
func (sp *groupSpace) runBuffered() {
	cfg := &sp.e.cfg
	n := len(sp.clients)
	threshold := n
	if cfg.Async.Mode == async.Buffered {
		threshold = cfg.Async.FlushThreshold(n)
	}
	sp.batch = sp.batch[:0]
	for i := 0; i < n; i++ {
		sp.batch = append(sp.batch, i)
	}
	sp.dispatch(0)
	for len(sp.heap) > 0 {
		ev := sp.heap.pop()
		sp.ticks = ev.tick
		sp.arrive(ev)
		if sp.arrivals < threshold && len(sp.heap) > 0 {
			continue
		}
		sp.flush()
		owing := sp.batch[:0]
		for _, i := range sp.batch {
			if sp.clients[i].dispatched < cfg.GroupRounds {
				owing = append(owing, i)
			}
		}
		sp.batch = owing
		sp.dispatch(ev.tick)
	}
}

// runDeadlines runs the group on the deadline trigger (semi-sync): K rounds
// of DeadlineTicks each. Clients with nothing in flight dispatch at every
// round start; arrivals before the deadline fold at the deadline; an update
// still in flight at a deadline counts a carryover (per deadline missed) and
// folds later at its then-current staleness; updates in flight after the
// final deadline are discarded as late. The group always spends exactly
// K·DeadlineTicks logical ticks.
func (sp *groupSpace) runDeadlines() {
	e := sp.e
	K, D := e.cfg.GroupRounds, e.cfg.Async.DeadlineTicks
	for gr := 0; gr < K; gr++ {
		start := int64(gr) * D
		deadline := start + D
		sp.batch = sp.batch[:0]
		for i := range sp.clients {
			if !sp.clients[i].inflight {
				sp.batch = append(sp.batch, i)
			}
		}
		sp.dispatch(start)
		for len(sp.heap) > 0 && sp.heap[0].tick <= deadline {
			sp.arrive(sp.heap.pop())
		}
		for i := range sp.clients {
			if sp.clients[i].inflight {
				sp.carry++
				e.asyncCarry.Inc()
			}
		}
		sp.flush()
	}
	sp.late = len(sp.heap)
	e.asyncLate.Add(int64(sp.late))
	sp.heap = sp.heap[:0]
	sp.ticks = int64(K) * D
}
