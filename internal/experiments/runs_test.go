package experiments

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// shapeCSV is an artifact's CSV with fig5's measured times cut off: fig5
// times formation on this host, so only its series and client counts repeat.
func shapeCSV(t *testing.T, reg map[string]Runner, id string, sc Scale) string {
	t.Helper()
	a := reg[id](sc, testSeed)
	if id != "fig5" {
		return a.CSV
	}
	lines := strings.Split(a.CSV, "\n")
	for i, l := range lines {
		if j := strings.LastIndexByte(l, ','); j >= 0 {
			lines[i] = l[:j]
		}
	}
	return strings.Join(lines, "\n")
}

// TestRunCacheSharesNoState: every artifact renders the same CSV from a
// registry of its own as from one registry shared by all of them — first in
// felbench's -exp all order, then in reverse on the same registry, when
// every run is reused — so no artifact changes a result another one reads.
// The keys the shared registry ends with compare by value only.
func TestRunCacheSharesNoState(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 6
	ids := IDs()
	own := map[string]string{}
	for _, id := range ids {
		own[id] = shapeCSV(t, Registry(NewRuns()), id, sc)
	}
	runs := NewRuns()
	shared := Registry(runs)
	reverse := slices.Clone(ids)
	slices.Reverse(reverse)
	var forward int
	for pass, order := range [][]string{ids, reverse} {
		for _, id := range order {
			if got := shapeCSV(t, shared, id, sc); got != own[id] {
				t.Errorf("pass %d: %s from the shared registry differs from its own registry's:\n%s\n--- own ---\n%s", pass, id, got, own[id])
			}
		}
		if pass == 0 {
			forward, _ = runs.Counts()
		}
	}
	if trained, _ := runs.Counts(); trained != forward {
		t.Errorf("the reverse pass trained %d runs, want 0", trained-forward)
	}
	for key := range runs.done {
		if path := pointerIn(reflect.ValueOf(key), "key"); path != "" {
			t.Errorf("run key holds a pointer at %s", path)
		}
	}
}

// pointerIn names the first non-nil pointer, map, slice, chan or func
// inside v, or returns "".
func pointerIn(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
		if !v.IsNil() {
			return path
		}
	case reflect.Interface:
		if !v.IsNil() {
			return pointerIn(v.Elem(), path)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if p := pointerIn(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			if p := pointerIn(v.Index(i), path); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestFig9ReusesFig10: the two figures plot one comparison, so fig9 after
// fig10 on one registry trains nothing.
func TestFig9ReusesFig10(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 6
	runs := NewRuns()
	reg := Registry(runs)
	shapeCSV(t, reg, "fig10", sc)
	before, _ := runs.Counts()
	shapeCSV(t, reg, "fig9", sc)
	if after, reused := runs.Counts(); after != before || reused != 7 {
		t.Errorf("fig9 after fig10: trained %d, reused %d; want 0 trained and all 7 methods reused", after-before, reused)
	}
}
