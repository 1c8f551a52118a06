package faultnet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event records one injected fault. Frame is the per-link-direction frame
// index at injection time, which — together with the per-link seeded RNGs —
// makes the log a pure function of (plan, seed): two runs of the same
// seeded plan must produce byte-identical rendered logs.
type Event struct {
	// Link is the frame direction, "from→to" in node tags.
	Link string
	// Frame is the 0-based index of the frame on this link direction.
	Frame int64
	// Action is the fault injected.
	Action Action
	// Type, Round, and Seq describe the matched frame.
	Type  string
	Round int
	Seq   int
	// Detail carries action parameters (delay duration, bits flipped, ...).
	Detail string
}

// String renders the event as one log line.
func (e Event) String() string {
	return fmt.Sprintf("%s frame=%d %s round=%d.%d action=%s %s",
		e.Link, e.Frame, e.Type, e.Round, e.Seq, e.Action, e.Detail)
}

// Log collects injected-fault events from every link goroutine. It is safe
// for concurrent use; reads return deterministically sorted copies.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// add appends one event.
func (l *Log) add(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns the injected faults sorted by (link, frame, action). Two
// rules of one action firing on one frame keep the plan's rule order: a
// link's events are recorded by one goroutine at a time, in that order, and
// the sort is stable.
func (l *Log) Events() []Event {
	l.mu.Lock()
	out := append([]Event(nil), l.events...)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Link != out[j].Link {
			return out[i].Link < out[j].Link
		}
		if out[i].Frame != out[j].Frame {
			return out[i].Frame < out[j].Frame
		}
		return out[i].Action < out[j].Action
	})
	return out
}

// Len returns the number of injected faults so far.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Counts tallies events by action.
func (l *Log) Counts() map[Action]int {
	counts := make(map[Action]int)
	for _, e := range l.Events() {
		counts[e.Action]++
	}
	return counts
}

// String renders the sorted log, one event per line — the replay artifact
// the determinism tests compare byte-for-byte.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
