// Command bench is the repository's one benchmark: five named workloads,
// end-to-end metrics measured with tracing off, and per-layer probes,
// spans and registry readings in a traced run. See README.md beside this
// file for what each workload and metric is for.
//
//	go run ./bench                          every workload, -repeat times, interleaved
//	go run ./bench -trace 1                 … plus one traced run per workload
//	go run ./bench -workload train-gemm     one workload in this process (the driver's form)
//	go run ./bench -compare base.json new.json
//
// Everything is measured from outside, through the public functions of the
// packages under internal/ and the metrics.Registry they already expose.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// One run sets the workload up at least minSetups times, and keeps going
// until the set-ups add up to setupBudget or maxSetups is reached; setup_s
// is the median, so a cold or collected-upon set-up does not decide it and
// a millisecond-sized set-up is not judged from three samples.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 0.5 // seconds
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print the result as the last line")
		seed    = flag.Uint64("seed", 2024, "workload seed; every system, partition, model and training seed is derived from it")
		secs    = flag.Float64("seconds", 10, "length of one run's timed work; round counts scale with it")
		trace   = flag.Int("trace", 0, "1: traced run — spans, registries and layer probes; per-layer metrics are reported")
		scale   = flag.String("scale", "full", "full, or smoke (a few rounds, four subscribers; for the smoke test)")
		repeat  = flag.Int("repeat", 3, "repeats of every workload when running them all, interleaved A B C D E, A B C D E, …")
		outDir  = flag.String("out", "bench/out", "directory for result files, traces and scratch data")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		detail  = flag.Bool("detail", false, "with -workload: print the full result instead of the contract line (used by the all-workloads mode)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two result files: base.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(os.Stderr, "bench: unknown -scale %q (full or smoke)\n", *scale)
		os.Exit(2)
	}
	if *secs <= 0 || *repeat <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be positive, -trace 0 or 1")
		os.Exit(2)
	}
	// More runnable threads than CPUs measures the scheduler, not the
	// program; refuse rather than record it.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS=%d exceeds nproc=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		os.Exit(2)
	}
	z := sizing{smoke: *scale == "smoke", seconds: *secs}

	if *name == "" {
		os.Exit(runAll(*seed, z, *scale, *repeat, *trace == 1, *outDir))
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	r, err := runOne(def, *seed, z, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	printResult(r, *trace == 1)
	var line []byte
	if *detail {
		line, err = json.Marshal(r)
	} else {
		line, err = json.Marshal(contractLine(r, *trace == 1))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.Failed > 0 {
		os.Exit(1)
	}
}

// runOne runs one workload in this process: set-up (repeated for the
// median), the untraced timed window with its correctness checks, and — in
// a traced run — the traced rerun and the layer probes.
func runOne(def workloadDef, seed uint64, z sizing, trace bool, outDir string) (*result, error) {
	w := def.make(seed, z, outDir)
	r := newResult(def.name)
	sm := newSpeedometer()
	// timedSetup is one set-up in nominal-host seconds: the host speed is
	// sampled just before and just after it.
	timedSetup := func() (float64, error) {
		sm.reset()
		sm.sample()
		t0 := time.Now()
		err := w.setup()
		d := seconds(t0)
		sm.sample()
		return sm.nominal(d), err
	}

	d, err := timedSetup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{d}
	if err := w.window(r, sm); err != nil {
		return nil, err
	}
	// Read the high-water mark before the extra set-ups below can raise it.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	w.teardown()
	for i, spent := 1, d; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		runtime.GC()
		d, err := timedSetup()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d)
		spent += d
		w.teardown()
	}
	r.Samples[mSetup] = setups
	r.e2e(mSetup, median(setups), "s")
	r.e2e(mPeakRSS, rss, "MB")

	if trace {
		runtime.GC()
		t := newTracer(def.name)
		if err := w.traced(t, r, sm); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		if err := t.write(outDir); err != nil {
			return nil, err
		}
		// Every declared layer metric is reported by every workload; one
		// that this workload does not exercise reads 0.
		for _, d := range layerDecls() {
			if v, ok := r.E2E[d.Name]; ok {
				r.Layer[d.Name] = v
			} else if _, ok := r.Layer[d.Name]; !ok {
				r.layer(d.Name, 0, d.Unit)
			}
		}
	}
	return r, nil
}

// contract is the driver's result line.
type contract struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractLine selects what the contract wants: every end_to_end metric of
// an untraced run, every per_layer metric of a traced one.
func contractLine(r *result, trace bool) contract {
	c := contract{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	if trace {
		for _, d := range layerDecls() {
			c.Metrics[d.Name] = r.Layer[d.Name]
		}
		return c
	}
	for _, d := range universal {
		c.Metrics[d.Name] = r.E2E[d.Name]
	}
	return c
}
