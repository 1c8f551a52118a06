// Command felbench regenerates the paper's evaluation artifacts (figures
// 2a–12 and Table 1, plus the ablation studies) and prints them as
// summaries and CSV.
//
// Usage:
//
//	felbench -list
//	felbench -exp fig9 -scale small -seed 7
//	felbench -exp all -scale medium -out results/
//	felbench -exp fig7,async-vs-sync -scale small
//
// felbench does not measure performance: that is `go run ./bench` (see
// bench/README.md), judged against the committed baseline with
// `go run ./bench -compare`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// idList renders the experiment id list, shared by -list and the
// unknown-id error path so both always show the same valid set.
func idList() string {
	var b strings.Builder
	b.WriteString("experiments:\n")
	for _, id := range experiments.IDs() {
		b.WriteString("  " + id + "\n")
	}
	return b.String()
}

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (see -list), comma list, or 'all'")
		scale = flag.String("scale", "small", "scale: small, medium, or paper")
		seed  = flag.Uint64("seed", 2024, "random seed")
		out   = flag.String("out", "", "directory to write per-experiment CSV files (optional)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		fmt.Print(idList())
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "felbench: -exp is required (or -list)")
		os.Exit(2)
	}
	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "felbench:", err)
		os.Exit(2)
	}
	reg := experiments.Registry()
	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := reg[id]; !ok {
				fmt.Fprintf(os.Stderr, "felbench: unknown experiment %q\n", id)
				fmt.Fprint(os.Stderr, idList())
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "felbench:", err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		fmt.Printf("=== %s (scale=%s seed=%d) ===\n", id, sc.Name, *seed)
		// Each experiment gets its own registry, so the JSON dump isolates
		// that run's counters and spans.
		mreg := metrics.New()
		scRun := sc
		scRun.Metrics = mreg
		a := reg[id](scRun, *seed)
		fmt.Println(a.Pretty)
		if *out != "" {
			path := filepath.Join(*out, id+".csv")
			if err := os.WriteFile(path, []byte(a.CSV), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "felbench:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", path)
			mjson, err := mreg.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "felbench:", err)
				os.Exit(1)
			}
			mpath := filepath.Join(*out, id+".metrics.json")
			if err := os.WriteFile(mpath, mjson, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "felbench:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", mpath)
		}
		fmt.Println()
	}
}
