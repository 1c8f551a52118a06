package fednode

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/wire"
)

// TestClientExchangeSteadyState holds a warm client to less than one model
// vector of allocation per exchange. The test speaks the edge's side of one
// client's connection over a MemNetwork: it seats client 0 in a group of n,
// then each exchange is one GlobalModel broadcast (encoded once, written
// again every time) and the MaskedUpdate reply, decoded into one Message.
// Everything model-sized on the client's side — the model, the SGD scratch,
// the parameter and masked-word vectors, the reply frame, the broadcast's
// decode — is borrowed or reused, so what an exchange allocates is its
// secagg session and mask-stream states, deadline timers and metric labels:
// fixed-size objects. At n = 1 the reply is plaintext, at n = 2 masked.
func TestClientExchangeSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled buffers at random")
	}
	gen := data.FlatConfig(4, 10, 3)
	gen.Noise = 0.8
	sys := core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: 2, Alpha: 0.5,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: 4,
		},
		NumEdges: 1,
		TestSize: 10,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{256, 32}, 4, s)
		},
		ModelSeed: 7,
	})
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	dim := len(global)
	if dim < 10_000 {
		t.Fatalf("model has %d parameters, the gate needs >= 10k", dim)
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("group%d", n), func(t *testing.T) {
			nw := NewMemNetwork()
			ln, err := nw.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer closeQuiet(ln)
			done := make(chan error, 1)
			go func() {
				_, err := NewClient(0, sys, testJobConfig(), nil).Run(nw, ln.Addr().String())
				done <- err
			}()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer closeQuiet(conn)

			var in wire.Message
			if err := wire.DecodeInto(conn, 0, &in); err != nil || in.Type != wire.GroupAssign {
				t.Fatalf("hello: %s frame, %v", in.Type, err)
			}
			members := []int32{0, 1}[:n]
			if _, err := wire.Encode(conn, &wire.Message{Type: wire.GroupAssign, From: 0, Seq: 0, Ints: members}); err != nil {
				t.Fatal(err)
			}
			broadcast, err := wire.AppendFrame(nil, &wire.Message{Type: wire.GlobalModel, Floats: global})
			if err != nil {
				t.Fatal(err)
			}
			exchange := func() {
				if _, err := conn.Write(broadcast); err != nil {
					t.Fatal(err)
				}
				if err := wire.DecodeInto(conn, 0, &in); err != nil {
					t.Fatal(err)
				}
				if in.Type != wire.MaskedUpdate || len(in.Floats)+len(in.Words) != dim {
					t.Fatalf("reply: %s frame with %d floats and %d words, want %d", in.Type, len(in.Floats), len(in.Words), dim)
				}
			}
			for i := 0; i < 3; i++ {
				exchange()
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, exchange)
			runtime.ReadMemStats(&after)
			// AllocsPerRun calls exchange once more, untimed, before its runs.
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
			t.Logf("group of %d, %d parameters: %.0f objects, %.0f bytes per exchange (one model vector = %d bytes)", n, dim, allocs, bytes, 8*dim)
			if bytes >= float64(8*dim) {
				t.Errorf("a warm exchange allocates %.0f bytes, want less than one model vector (%d bytes)", bytes, 8*dim)
			}

			if _, err := wire.Encode(conn, &wire.Message{Type: wire.GlobalAggregate, Floats: global}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("client: %v", err)
			}
		})
	}
}

// TestClientsShareWorkerPool: a loopback job's clients train on their
// System's shared pool, so the job builds procs() models for its clients
// however many it hosts — plus the one the cloud's Trainer holds the global
// model in. GOMAXPROCS is pinned so the bound means the same on every host.
func TestClientsShareWorkerPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const numClients = 12
	sys := testSystem(numClients, 1)
	var built atomic.Int64
	newModel := sys.NewModel
	sys.NewModel = func(s uint64) *nn.Sequential {
		built.Add(1)
		return newModel(s)
	}
	if _, err := RunJob(NewMemNetwork(), sys, testJobConfig(), ""); err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	if got := built.Load(); got < 2 || got > int64(procs)+1 {
		t.Fatalf("%d clients built %d models besides the cloud's one, want 1..%d (procs)", numClients, got-1, procs)
	}
}

// TestClientRejectsUnknownMember: a group assignment naming a member the
// System does not hold — past the end of its dense ID range, or negative —
// is refused with "unknown group member", before the client trains.
func TestClientRejectsUnknownMember(t *testing.T) {
	sys := testSystem(4, 1)
	for _, bad := range []int32{int32(len(sys.Clients)), -1} {
		nw := NewMemNetwork()
		ln, err := nw.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := NewClient(0, sys, testJobConfig(), nil).Run(nw, ln.Addr().String())
			done <- err
		}()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.Decode(conn, 0); err != nil {
			t.Fatalf("hello: %v", err)
		}
		if _, err := wire.Encode(conn, &wire.Message{Type: wire.GroupAssign, Ints: []int32{0, bad}}); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unknown group member %d", bad)
		if err := <-done; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("member %d: client returned %v, want an error containing %q", bad, err, want)
		}
		closeQuiet(conn)
		closeQuiet(ln)
	}
}
