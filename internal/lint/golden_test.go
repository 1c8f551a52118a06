package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGoldenFixtures runs each analyzer over its intentionally-good and
// intentionally-bad fixture packages under testdata/src and asserts exact
// diagnostic positions against the fixtures' `// want "substring"`
// annotations. A want comment sits on the offending line, or alone on the
// following line when the offending line is itself a comment (malformed
// directives).
func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
	}{
		{RNGDiscipline, "rngdiscipline/bad"},
		{RNGDiscipline, "rngdiscipline/good"},
		{RNGDiscipline, "rngdiscipline/internal/stats"},
		{GoroutineJoin, "goroutinejoin/bad"},
		{GoroutineJoin, "goroutinejoin/good"},
		{FloatEq, "floateq/bad"},
		{FloatEq, "floateq/good"},
		{DroppedError, "droppederr/bad"},
		{DroppedError, "droppederr/good"},
		{PanicMessage, "panicmsg/bad"},
		{PanicMessage, "panicmsg/good"},
		{MapOrder, "maporder/bad"},
		{MapOrder, "maporder/good"},
		{Wallclock, "wallclock/bad"},
		{Wallclock, "wallclock/good"},
		{MetricSchema, "metricschema/bad"},
		{MetricSchema, "metricschema/good"},
		{FloatEq, "suppress/bad"},
	}
	for _, c := range cases {
		t.Run(c.dir+"/"+c.analyzer.Name, func(t *testing.T) {
			runFixture(t, []*Analyzer{c.analyzer}, c.dir)
		})
	}
}

// TestIgnoreAuditFixture exercises the ignore-audit analyzer, which only
// makes sense alongside at least one rule that can mark directives as used.
func TestIgnoreAuditFixture(t *testing.T) {
	for _, dir := range []string{"ignoreaudit/bad", "ignoreaudit/good"} {
		t.Run(dir, func(t *testing.T) {
			runFixture(t, []*Analyzer{FloatEq, IgnoreAudit}, dir)
		})
	}
}

var wantRe = regexp.MustCompile(`// want ("[^"]*"(?:\s+"[^"]*")*)`)
var wantArgRe = regexp.MustCompile(`"([^"]*)"`)

func runFixture(t *testing.T, analyzers []*Analyzer, rel string) {
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	pkg, err := LoadDir(dir, rel)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags := Check([]*Package{pkg}, analyzers)
	wants := parseWants(t, dir)

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)
		matched := false
		for i, w := range wants[key] {
			if strings.Contains(d.Message, w) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s: expected diagnostic matching %q, got none", key, w)
		}
	}
}

// parseWants scans fixture files for want annotations and returns them
// keyed by "file.go:line". A line that consists solely of a want comment
// annotates the line above it.
func parseWants(t *testing.T, dir string) map[string][]string {
	wants := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			target := i + 1
			if strings.HasPrefix(strings.TrimSpace(line), "// want") {
				target = i // annotates the previous line
			}
			key := fmt.Sprintf("%s:%d", e.Name(), target)
			for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				wants[key] = append(wants[key], arg[1])
			}
		}
	}
	return wants
}
