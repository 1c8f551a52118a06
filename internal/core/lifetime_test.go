//go:build go1.24

// The weak package is Go 1.24's; go.mod's go line is older.

package core

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/stats"
)

// formationWatch wraps a grouping.Algorithm to watch the first formation's
// lifetime. The Form calls of the first formation (one per edge) keep only
// weak pointers to the groups they return; every later call, which belongs
// to a regroup, first collects garbage and counts the first formation's
// groups still reachable.
type formationWatch struct {
	grouping.Algorithm
	edges int

	mu     sync.Mutex
	calls  int
	first  []weak.Pointer[grouping.Group]
	checks int // regroup Form calls that looked
	alive  int // most first-formation groups any of them saw reachable
}

func (w *formationWatch) Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*grouping.Group {
	w.mu.Lock()
	w.calls++
	first := w.calls <= w.edges
	if !first {
		runtime.GC()
		alive := 0
		for _, p := range w.first {
			if p.Value() != nil {
				alive++
			}
		}
		w.checks++
		w.alive = max(w.alive, alive)
	}
	w.mu.Unlock()
	groups := w.Algorithm.Form(clients, classes, edge, firstID, rng)
	if first {
		w.mu.Lock()
		for _, g := range groups {
			w.first = append(w.first, weak.Make(g))
		}
		w.mu.Unlock()
	}
	return groups
}

// verdict fails t unless a regroup looked and found every group of the
// first formation collected.
func (w *formationWatch) verdict(t *testing.T) {
	t.Helper()
	if len(w.first) == 0 || w.checks == 0 {
		t.Fatalf("watched %d first-formation groups over %d regroup Form calls; the test saw no regroup", len(w.first), w.checks)
	}
	if w.alive > 0 {
		t.Fatalf("%d of the %d superseded groups were still reachable while Alg. 2 formed their replacement", w.alive, len(w.first))
	}
}

// TestRegroupReleasesSupersededFormation: a regroup lets the formation it
// replaces go before FormAll allocates the next one, so a run never holds
// two formations at once — once for a trainer stepping into a regroup, once
// for a resume past one, whose Restore forms the formation in force after
// NewPlan formed the initial one.
func TestRegroupReleasesSupersededFormation(t *testing.T) {
	sys := testSystem(60, 0.5, 3)
	cfg := testConfig()
	cfg.GlobalRounds = 5
	cfg.RegroupEvery = 2
	watch := func() (*formationWatch, Config) {
		w := &formationWatch{Algorithm: cfg.Grouping, edges: len(sys.Edges)}
		c := cfg
		c.Grouping = w
		return w, c
	}

	t.Run("step", func(t *testing.T) {
		w, c := watch()
		tr := NewTrainer(sys, c)
		for tr.Round() < 3 {
			tr.Step()
		}
		w.verdict(t)
	})

	t.Run("resume", func(t *testing.T) {
		tr := NewTrainer(sys, cfg)
		for tr.Round() < 3 {
			tr.Step()
		}
		st, err := tr.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		w, c := watch()
		if _, err := NewTrainerResumed(sys, c, st); err != nil {
			t.Fatal(err)
		}
		w.verdict(t)
	})
}
