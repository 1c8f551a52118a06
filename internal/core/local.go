package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// LocalContext carries the per-client training context into a LocalUpdater.
type LocalContext struct {
	// ClientID identifies the client (stable across rounds).
	ClientID int
	// Anchor is the parameter vector the client started from (the group
	// model x^g_{t,k}); FedProx regularizes toward it.
	Anchor []float64
	// Epochs is E, BatchSize the mini-batch size (<=0 means full batch),
	// LR the learning rate η.
	Epochs    int
	BatchSize int
	LR        float64
	// Rng drives batch shuffling, derived deterministically per
	// (seed, round, group, client).
	Rng *stats.RNG

	// arena, when non-nil, supplies the worker's reusable SGD scratch
	// buffers. Worker.Train sets it; other callers leave it nil and
	// sgdEpochs falls back to a private arena.
	arena *sgdArena
}

// LocalUpdater performs a client's local training (Alg. 1 lines 12–13),
// mutating model in place. Implementations must be safe for concurrent use
// by multiple clients.
type LocalUpdater interface {
	Name() string
	LocalTrain(model *nn.Sequential, x *tensor.Tensor, y []int, ctx LocalContext)
}

// sgdEpochs runs the shared mini-batch SGD loop, invoking adjust (if non-nil)
// after each backward pass so variants can modify gradients before the
// step. Returns the number of optimizer steps taken.
//
// All scratch state — shuffle order, the batch tensor, the tail batch for
// n % bs leftovers, the loss-head probability buffer, the optimizer — comes
// from the context's arena, so the steady-state loop allocates nothing.
func sgdEpochs(model *nn.Sequential, x *tensor.Tensor, y []int, ctx LocalContext, adjust func(model *nn.Sequential)) int {
	n := x.Shape[0]
	bs := ctx.BatchSize
	if bs <= 0 || bs > n {
		bs = n
	}
	a := ctx.arena
	if a == nil {
		a = newSGDArena()
	}
	a.opt.LR = ctx.LR
	var lossFn nn.SoftmaxCrossEntropy
	order := a.ensureOrder(n)
	dim := x.Size() / n
	a.full.ensure(bs, x)
	steps := 0
	for e := 0; e < ctx.Epochs; e++ {
		ctx.Rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < n; lo += bs {
			hi := lo + bs
			if hi > n {
				hi = n
			}
			cur := hi - lo
			buf := &a.full
			if cur != bs {
				buf = &a.tail
				buf.ensure(cur, x)
			}
			xb, yb := buf.x, buf.y
			for bi := 0; bi < cur; bi++ {
				src := order[lo+bi]
				copy(xb.Data[bi*dim:(bi+1)*dim], x.Data[src*dim:(src+1)*dim])
				yb[bi] = y[src]
			}
			logits := model.Forward(xb, true)
			buf.probs = tensor.Resize(buf.probs, logits.Shape...)
			lossFn.ProbsInto(buf.probs, logits, yb)
			lossFn.BackwardInPlace(buf.probs, yb)
			model.Backward(buf.probs)
			if adjust != nil {
				adjust(model)
			}
			a.opt.Step(model)
			steps++
		}
	}
	return steps
}

// SGDUpdater is the plain local SGD of Alg. 1 — used by Group-FEL, FedAvg,
// OUEA, and SHARE.
type SGDUpdater struct{}

// Name returns "SGD".
func (SGDUpdater) Name() string { return "SGD" }

// LocalTrain runs E epochs of mini-batch SGD.
func (SGDUpdater) LocalTrain(model *nn.Sequential, x *tensor.Tensor, y []int, ctx LocalContext) {
	sgdEpochs(model, x, y, ctx, nil)
}

// ProxUpdater implements FedProx: local loss is augmented with
// (Mu/2)·‖w − anchor‖², i.e. each gradient gains Mu·(w − anchor).
type ProxUpdater struct {
	Mu float64
}

// Name returns "FedProx".
func (ProxUpdater) Name() string { return "FedProx" }

// LocalTrain runs proximal SGD epochs.
func (p ProxUpdater) LocalTrain(model *nn.Sequential, x *tensor.Tensor, y []int, ctx LocalContext) {
	sgdEpochs(model, x, y, ctx, func(m *nn.Sequential) {
		params := m.Params()
		grads := m.Grads()
		off := 0
		for i, par := range params {
			g := grads[i]
			for j := range par.Data {
				g.Data[j] += float64(p.Mu * (par.Data[j] - ctx.Anchor[off+j]))
			}
			off += par.Size()
		}
	})
}

// ScaffoldUpdater implements SCAFFOLD's variance-reduced local update,
// ported to the hierarchical setting: each local step descends
// g − c_i + c, where c_i is the client control variate and c the server
// variate. After local training the client variate is refreshed with
// option II of the SCAFFOLD paper:
//
//	c_i⁺ = c_i − c + (w_start − w_end)/(steps·η)
//
// and the server variate absorbs the average drift of participating
// clients at the end of every global round.
//
// Concurrency and determinism: the server variate is an immutable snapshot
// replaced wholesale by FinishGlobalRound, so concurrent clients read it
// through an RLock without cloning; each client's variate and pending drift
// are owner-written only (group sampling is without replacement, so a client
// trains in at most one goroutine per round). The drift fold at the end of
// the round runs in ascending client-ID order, which keeps the whole scheme
// bit-for-bit reproducible at any parallelism.
type ScaffoldUpdater struct {
	// NumClients scales the server variate update (the 1/N in SCAFFOLD).
	NumClients int

	mu      sync.RWMutex
	clients map[int]*scaffoldState
	c       []float64 // server variate snapshot: replaced, never mutated
	deltaC  []float64 // fold scratch, used only under the write lock
}

// scaffoldState is one client's control variate and its pending drift for
// the current global round. Only the owning client's goroutine writes it.
type scaffoldState struct {
	ci      []float64
	pending []float64
	calls   int
}

// Name returns "SCAFFOLD".
func (*ScaffoldUpdater) Name() string { return "SCAFFOLD" }

// state returns the client's variate state and the current server-variate
// snapshot, allocating zeros on first use. The fast path is a shared RLock
// with no copying — the snapshot discipline makes the references safe to
// read for the rest of the local training pass.
func (s *ScaffoldUpdater) state(clientID, dim int) (*scaffoldState, []float64) {
	s.mu.RLock()
	st := s.clients[clientID]
	c := s.c
	s.mu.RUnlock()
	if st != nil && c != nil {
		return st, c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients == nil {
		s.clients = make(map[int]*scaffoldState)
	}
	if s.c == nil {
		s.c = make([]float64, dim)
		s.deltaC = make([]float64, dim)
	}
	st = s.clients[clientID]
	if st == nil {
		st = &scaffoldState{ci: make([]float64, dim), pending: make([]float64, dim)}
		s.clients[clientID] = st
	}
	return st, s.c
}

// LocalTrain runs control-variate-corrected SGD and refreshes c_i.
func (s *ScaffoldUpdater) LocalTrain(model *nn.Sequential, x *tensor.Tensor, y []int, ctx LocalContext) {
	dim := model.NumParams()
	st, c := s.state(ctx.ClientID, dim)
	ci := st.ci
	start := model.ParamVector()
	steps := sgdEpochs(model, x, y, ctx, func(m *nn.Sequential) {
		grads := m.Grads()
		off := 0
		for _, g := range grads {
			for j := range g.Data {
				g.Data[j] += c[off+j] - ci[off+j]
			}
			off += g.Size()
		}
	})
	if steps == 0 {
		return
	}
	end := model.ParamVector()
	inv := 1 / (float64(steps) * ctx.LR)
	for j := 0; j < dim; j++ {
		newCi := ci[j] - c[j] + float64((start[j]-end[j])*inv)
		st.pending[j] += newCi - ci[j]
		ci[j] = newCi
	}
	st.calls++
}

// FinishGlobalRound folds the accumulated client drift into the server
// variate: c += (participants/N)·mean(Δc_i). Called by Train once per
// global round, after every group has joined. Clients fold in ascending ID
// order and the snapshot is replaced atomically, so the update is identical
// for any worker count.
func (s *ScaffoldUpdater) FinishGlobalRound() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c == nil {
		return
	}
	ids := make([]int, 0, len(s.clients))
	touched := 0
	for id, st := range s.clients {
		if st.calls > 0 {
			ids = append(ids, id)
			touched += st.calls
		}
	}
	if touched == 0 {
		return
	}
	sort.Ints(ids)
	clear(s.deltaC)
	for _, id := range ids {
		st := s.clients[id]
		tensor.Axpy(1, st.pending, s.deltaC)
		clear(st.pending)
		st.calls = 0
	}
	n := s.NumClients
	if n <= 0 {
		n = touched
	}
	next := make([]float64, len(s.c))
	inv := 1 / float64(n)
	for j := range next {
		next[j] = s.c[j] + float64(s.deltaC[j]*inv)
	}
	s.c = next
}

// globalRoundFinisher is implemented by updaters that need a hook at the
// end of every global round (SCAFFOLD's server variate refresh).
type globalRoundFinisher interface {
	FinishGlobalRound()
}

// ScaffoldCheckpoint is a global-round-boundary snapshot of SCAFFOLD's
// variates: the server variate c and each client's c_i, keyed by sorted
// client ID. Pending drift and call counts are deliberately absent — at a
// round boundary FinishGlobalRound has just zeroed them, which is exactly
// what makes the state this small.
type ScaffoldCheckpoint struct {
	C         []float64
	ClientIDs []int
	CI        [][]float64
}

// ExportState snapshots the variates. It must be called at a global-round
// boundary: a client with unfolded drift means the caller is mid-round,
// where the checkpoint would silently lose the pending updates.
func (s *ScaffoldUpdater) ExportState() *ScaffoldCheckpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := &ScaffoldCheckpoint{C: append([]float64(nil), s.c...)}
	st.ClientIDs = make([]int, 0, len(s.clients))
	for id, cs := range s.clients {
		if cs.calls != 0 {
			panic("fel: ScaffoldUpdater.ExportState called mid-round (pending drift not yet folded)")
		}
		st.ClientIDs = append(st.ClientIDs, id)
	}
	sort.Ints(st.ClientIDs)
	st.CI = make([][]float64, len(st.ClientIDs))
	for i, id := range st.ClientIDs {
		st.CI[i] = append([]float64(nil), s.clients[id].ci...)
	}
	return st
}

// RestoreState overwrites the updater's variates with a snapshot taken by
// ExportState, leaving every client at a clean round boundary.
func (s *ScaffoldUpdater) RestoreState(st *ScaffoldCheckpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(st.ClientIDs) != len(st.CI) {
		panic(fmt.Sprintf("fel: scaffold snapshot has %d ids but %d variates", len(st.ClientIDs), len(st.CI)))
	}
	if st.C == nil {
		s.clients, s.c, s.deltaC = nil, nil, nil
		return
	}
	dim := len(st.C)
	s.c = append([]float64(nil), st.C...)
	s.deltaC = make([]float64, dim)
	s.clients = make(map[int]*scaffoldState, len(st.ClientIDs))
	for i, id := range st.ClientIDs {
		if len(st.CI[i]) != dim {
			panic(fmt.Sprintf("fel: scaffold snapshot client %d has dim %d, server variate %d", id, len(st.CI[i]), dim))
		}
		s.clients[id] = &scaffoldState{
			ci:      append([]float64(nil), st.CI[i]...),
			pending: make([]float64, dim),
		}
	}
}
