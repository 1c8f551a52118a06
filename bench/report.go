package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// host is the envelope of every result file: enough to tell whether two
// files may be compared at all.
type host struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_avg_1m"`
	// Loaded marks a run started while the 1-minute load average exceeded
	// nproc: its numbers are not a baseline.
	Loaded bool `json:"host_loaded"`
}

func hostEnvelope() host {
	h := host{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if blob, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(blob)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.LoadAvg1 = v
			}
		}
	}
	h.Loaded = h.LoadAvg1 > float64(h.NProc)
	return h
}

// hostProcs is the CPU count the attribution sums divide concurrent work by.
func hostProcs() int { return runtime.GOMAXPROCS(0) }

// summary is one metric over the repeats of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// workloadReport is everything the all-workloads mode learned about one
// workload.
type workloadReport struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	WallS     float64            `json:"wall_s"`
	E2E       map[string]summary `json:"end_to_end"`
	Layer     map[string]metric  `json:"per_layer,omitempty"`
}

// resultFile is what runAll writes and -compare reads.
type resultFile struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Scale     string           `json:"scale"`
	Repeats   int              `json:"repeats"`
	Traced    bool             `json:"traced"`
	TotalS    float64          `json:"total_wall_s"`
	Workloads []workloadReport `json:"workloads"`
}

// child runs one workload in a fresh process of this same binary, so no
// workload inherits another's heap, pools or page cache state, and returns
// its full result.
func child(name string, seed uint64, z sizing, scale string, trace bool, outDir string) (*result, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(z.seconds, 'g', -1, 64),
		"-trace", traceArg, "-scale", scale, "-out", outDir, "-detail")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	runErr := cmd.Run()
	wall := seconds(t0)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		if runErr != nil {
			return nil, wall, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, wall, fmt.Errorf("%s: result line: %w", name, err)
	}
	// A child that printed a result but exited non-zero had failed checks;
	// they are in the result.
	return &r, wall, nil
}

// runAll is the one command: every workload, repeat times, interleaved so
// that drift of the host spreads over all workloads instead of landing on
// one, each run in a fresh child process; then one traced run per workload
// when asked. It prints every metric by name with its unit, writes the
// result file, and returns the exit code: 1 if any operation failed.
func runAll(seed uint64, z sizing, scale string, repeat int, trace bool, outDir string) int {
	start := time.Now()
	file := resultFile{Host: hostEnvelope(), Seed: seed, Seconds: z.seconds, Scale: scale, Repeats: repeat, Traced: trace}
	if file.Host.Loaded {
		fmt.Printf("warning: 1-minute load average %.2f exceeds nproc %d — result marked host_loaded\n", file.Host.LoadAvg1, file.Host.NProc)
	}
	reports := make([]workloadReport, len(workloads))
	values := make([]map[string][]float64, len(workloads))
	units := map[string]string{}
	for i, w := range workloads {
		reports[i] = workloadReport{Name: w.name, E2E: map[string]summary{}}
		values[i] = map[string][]float64{}
	}
	// run executes one child and folds its operations and wall time into the
	// workload's report; a child that produced no result counts as one failed
	// operation.
	run := func(i int, label string, trace bool) *result {
		fmt.Printf("%-12s%-13s ", label, workloads[i].name)
		r, wall, err := child(workloads[i].name, seed, z, scale, trace, outDir)
		reports[i].WallS += wall
		if err != nil {
			fmt.Printf("FAILED: %v\n", err)
			reports[i].Attempted++
			reports[i].Failed++
			reports[i].Failures = append(reports[i].Failures, err.Error())
			return nil
		}
		fmt.Printf("%6.1f s  %d ops, %d failed\n", wall, r.Attempted, r.Failed)
		reports[i].Attempted += r.Attempted
		reports[i].Failed += r.Failed
		reports[i].Failures = append(reports[i].Failures, r.Failures...)
		return r
	}
	for rep := 0; rep < repeat; rep++ {
		for i := range workloads {
			r := run(i, fmt.Sprintf("repeat %d/%d", rep+1, repeat), false)
			if r == nil {
				continue
			}
			for _, name := range sortedKeys(r.E2E) {
				values[i][name] = append(values[i][name], r.E2E[name].Value)
				units[name] = r.E2E[name].Unit
			}
		}
	}
	if trace {
		for i := range workloads {
			if r := run(i, "traced", true); r != nil {
				reports[i].Layer = r.Layer
			}
		}
	}
	failed := 0
	for i := range reports {
		for name, vs := range values[i] {
			q1, med, q3 := quartiles(vs)
			reports[i].E2E[name] = summary{Unit: units[name], Median: med, Q1: q1, Q3: q3, N: len(vs), Values: vs}
		}
		failed += reports[i].Failed
	}
	file.Workloads = reports
	file.TotalS = seconds(start)
	printReports(file)

	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nresult file: %s (total %.1f s)\n", path, file.TotalS)
	if failed > 0 {
		fmt.Printf("%d operations failed\n", failed)
		return 1
	}
	return 0
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	blob, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(blob, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// e2eOrder lists the end-to-end metric names in table order.
func e2eOrder() []decl { return append(append([]decl(nil), universal...), specific...) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult prints one run's metrics by name with their units.
func printResult(r *result, trace bool) {
	fmt.Printf("workload %s: %d operations attempted, %d failed, timed window %.2f s at host speed %.2f of nominal\n", r.Workload, r.Attempted, r.Failed, r.WindowS, r.HostSpeed)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, d := range e2eOrder() {
		m, ok := r.E2E[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-28s %14.6g %s", d.Name, m.Value, m.Unit)
		if s := r.Samples[d.Name]; len(s) > 1 {
			q1, _, q3 := quartiles(s)
			fmt.Printf("   (median of %d, quartiles %.4g–%.4g)", len(s), q1, q3)
		}
		fmt.Println()
	}
	if s := r.Samples["round_s"]; len(s) > 0 {
		q1, med, q3 := quartiles(s)
		fmt.Printf("  %-28s %14.6g ms   (n=%d, quartiles %.4g–%.4g, p95 %.4g)\n", "round time", med*1e3, len(s), q1*1e3, q3*1e3, percentile(s, 0.95)*1e3)
	}
	if !trace {
		return
	}
	for _, d := range perLayer {
		m := r.Layer[d.Name]
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
}

// printReports prints the all-workloads tables.
func printReports(f resultFile) {
	h := f.Host
	fmt.Printf("\nhost: nproc=%d GOMAXPROCS=%d %s commit=%s load=%.2f host_loaded=%v\n", h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit, h.LoadAvg1, h.Loaded)
	fmt.Printf("seed=%d seconds=%g scale=%s repeats=%d\n", f.Seed, f.Seconds, f.Scale, f.Repeats)
	for _, wr := range f.Workloads {
		fmt.Printf("\n%s — %d operations attempted, %d failed, %.1f s wall\n", wr.Name, wr.Attempted, wr.Failed, wr.WallS)
		for _, fail := range wr.Failures {
			fmt.Printf("  FAILED %s\n", fail)
		}
		for _, d := range e2eOrder() {
			s, ok := wr.E2E[d.Name]
			if !ok {
				continue
			}
			fmt.Printf("  %-28s %14.6g %-10s q1 %-12.6g q3 %-12.6g n=%d\n", d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
		for _, name := range sortedKeys(wr.Layer) {
			if _, isE2E := wr.E2E[name]; isE2E {
				continue
			}
			m := wr.Layer[name]
			fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
}

// worse returns by what share of base the new value is worse (negative:
// better), given which direction is better.
func worse(d decl, base, now float64) float64 {
	if base == 0 { //lint:ignore float-eq an exact zero base has no relative change
		return 0
	}
	if d.Better == higher {
		return (base - now) / base
	}
	return (now - base) / base
}

// compareFiles prints each end-to-end metric's change against its bound,
// one row per workload × metric, and returns 1 if any regressed. A row
// whose base quartile spread is already wider than the bound is labelled
// unresolved: the base cannot tell a change of that size from noise.
func compareFiles(basePath, newPath string) int {
	base, err := readResultFile(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	now, err := readResultFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if base.Host.Loaded || now.Host.Loaded {
		fmt.Println("warning: a result was taken on a loaded host")
	}
	if base.Seed != now.Seed || base.Host.NProc != now.Host.NProc || base.Host.GoMaxProcs != now.Host.GoMaxProcs {
		fmt.Println("warning: seeds or CPU counts differ between the two results")
	}
	newBy := map[string]workloadReport{}
	for _, wr := range now.Workloads {
		newBy[wr.Name] = wr
	}
	fmt.Printf("%-13s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	regressions := 0
	for _, bw := range base.Workloads {
		nw := newBy[bw.Name]
		for _, d := range e2eOrder() {
			b, ok := bw.E2E[d.Name]
			n, ok2 := nw.E2E[d.Name]
			if !ok || !ok2 {
				continue
			}
			by := worse(d, b.Median, n.Median)
			spread := 0.0
			if b.Median != 0 { //lint:ignore float-eq guard against dividing by an exact zero
				spread = (b.Q3 - b.Q1) / b.Median
			}
			verdict := "ok"
			switch {
			case spread > d.Bound && d.Bound > 0:
				verdict = fmt.Sprintf("unresolved (base spread %.1f%%)", 100*spread)
			case by > d.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-13s %-26s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", bw.Name, d.Name, b.Median, n.Median, 100*by, 100*d.Bound, verdict)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regressions\n", regressions)
		return 1
	}
	return 0
}
