package faultnet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// FuzzLoadPlan feeds whole plan files to LoadPlan. Every input must either
// return an error or yield rules the per-frame decision executes without
// panicking, for every message type on every kind of link and for frames up
// to the largest the wire admits, with a sleep that is never negative and bit
// positions and cuts inside the frame.
//
//	go test ./internal/faultnet -run '^$' -fuzz FuzzLoadPlan -fuzztime 30s
func FuzzLoadPlan(f *testing.F) {
	for _, seed := range []string{
		`{"name": "slow-links", "seed": 99, "rules": [
			{"from": "*", "to": "cloud", "action": "delay", "delay_ms": 5},
			{"from": "edge/*", "to": "cloud", "action": "partition", "heal_ms": 40}]}`,
		`{"name": "mixed", "seed": 7, "max_restarts": 2, "restart_backoff_ms": 10, "rules": [
			{"from": "client/*", "to": "edge/*", "type": "MaskedUpdate", "action": "corrupt", "flips": 3, "count": 1},
			{"from": "*", "to": "*", "action": "delay", "delay_ms": 1, "jitter_ms": 2, "prob": 0.5},
			{"from": "client/1", "to": "*", "round": 1, "seq": 0, "action": "truncate"},
			{"from": "edge/0", "to": "cloud", "action": "reset", "prob": 0.3}]}`,
		`{"name": "huge-jitter", "rules": [{"from": "*", "to": "*", "action": "delay", "jitter_ms": 9223372036854775807}]}`,
		`{"name": "huge-flips", "rules": [{"from": "*", "to": "*", "action": "corrupt", "flips": 4611686018427387904}]}`,
		`{"name": "negative", "rules": [{"from": "*", "to": "*", "action": "delay", "delay_ms": -5, "jitter_ms": 3, "count": -1}]}`,
		`{"name": "long-heal", "rules": [{"from": "*", "to": "*", "action": "partition", "heal_ms": 9300000000000}]}`,
		`{"name": "bandwidth-only", "rules": [{"from": "edge/*", "to": "cloud", "type": "GroupAggregate", "action": "delay", "bytes_per_ms": 5000}]}`,
		`{"name": "slow-one-byte", "rules": [{"from": "*", "to": "*", "action": "delay", "delay_ms": 3600000, "jitter_ms": 3600000, "bytes_per_ms": 1}]}`,
		`{"name": "job-control", "rules": [{"from": "sub", "to": "cloud", "type": "JobControl", "action": "corrupt"},
			{"from": "*", "to": "*", "type": "Checkpoint", "action": "reset"}]}`,
		`{"name": "negative-bandwidth", "rules": [{"from": "*", "to": "*", "action": "delay", "delay_ms": 5, "bytes_per_ms": -25000}]}`,
		`{"name": "huge-bandwidth", "rules": [{"from": "*", "to": "*", "action": "delay", "bytes_per_ms": 1073741825}]}`,
		`{"name": "overflowing-bandwidth", "rules": [{"from": "*", "to": "*", "action": "delay", "bytes_per_ms": 9223372036854775808}]}`,
		`{"rules": []}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	for _, m := range misspelt {
		f.Add([]byte(m.doc))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, doc []byte) {
		path := filepath.Join(dir, "plan.json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadPlan(path)
		if err != nil {
			return
		}
		nw := Wrap(nil, p, nil)
		links := [][2]string{{"client/1", "edge/0"}, {"edge/0", "client/1"}, {"edge/1", "cloud"}, {"cloud", "edge/1"}}
		for _, link := range links {
			ds := nw.dir(link[0], link[1])
			for typ := wire.GlobalModel; typ.Valid(); typ++ {
				for _, frameLen := range []int{wire.HeaderSize + 8, wire.HeaderSize + 4096, wire.HeaderSize + wire.DefaultMaxFrame} {
					d := ds.decide(frameInfo{typ: typ, round: 1, seq: 0}, frameLen)
					if d.sleep < 0 {
						t.Fatalf("%s→%s %v: negative sleep %v", link[0], link[1], typ, d.sleep)
					}
					for _, bit := range d.corrupt {
						if bit < 0 || bit >= (frameLen-wire.HeaderSize)*8 {
							t.Fatalf("%s→%s %v: flip at bit %d of a %d-byte frame", link[0], link[1], typ, bit, frameLen)
						}
					}
					if d.terminal == ActionTruncate && (d.cut <= 0 || d.cut >= frameLen) {
						t.Fatalf("%s→%s %v: cut %d of a %d-byte frame", link[0], link[1], typ, d.cut, frameLen)
					}
				}
			}
		}
	})
}

// misspelt are plan files with one key that names no field, at the plan's
// level and inside a rule. Read leniently, the first would grant no restarts
// and the second would fire a once-only reset on every match.
var misspelt = []struct{ key, doc string }{
	{"max_restart", `{"name": "typo", "max_restart": 2, "rules": [
		{"from": "client/1", "to": "edge/*", "action": "reset", "count": 1}]}`},
	{"cout", `{"name": "typo", "max_restarts": 2, "rules": [
		{"from": "client/1", "to": "edge/*", "action": "reset", "cout": 1}]}`},
}

// TestLoadPlanRejectsUnknownKeys: each misspelt plan is refused with an
// error that names the key.
func TestLoadPlanRejectsUnknownKeys(t *testing.T) {
	for _, m := range misspelt {
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, []byte(m.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPlan(path); err == nil || !strings.Contains(err.Error(), `"`+m.key+`"`) {
			t.Errorf("plan with key %q: LoadPlan error %v, want one naming the key", m.key, err)
		}
	}
}
