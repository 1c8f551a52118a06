// Command covgroup runs the paper's group formation and sampling on real
// client label histograms: feed it a JSON document of per-client label
// counts, get back the formed groups with their CoV, γ, and sampling
// probabilities. This is the edge-server component of Group-FEL as a
// standalone tool.
//
// Usage:
//
//	covgroup -alg covg -mings 5 -maxcov 0.5 -sampling esrcov < clients.json
//
// Input format:
//
//	{"classes": 3,
//	 "clients": [
//	   {"id": 0, "counts": [12, 0, 3], "edge": 0},
//	   {"id": 1, "counts": [0, 9, 8]} ]}
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/grouping"
	"repro/internal/groupio"
)

func main() {
	var (
		alg      = flag.String("alg", "covg", "formation algorithm: covg, rg, cdg, kldg, varg")
		minGS    = flag.Int("mings", 5, "minimum group size (anonymity constraint)")
		targetGS = flag.Int("targetgs", 0, "target group size for rg/cdg/kldg (0 = mings)")
		maxCoV   = flag.Float64("maxcov", 0.5, "CoV target for covg (0 disables)")
		method   = flag.String("sampling", "esrcov", "sampling method: random, rcov, srcov, esrcov")
		seed     = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := checkRanges(*minGS, *targetGS, *maxCoV); err != nil {
		fmt.Fprintln(os.Stderr, "covgroup:", err)
		os.Exit(2)
	}

	in, err := groupio.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "covgroup:", err)
		os.Exit(2)
	}
	cfg := grouping.Config{MinGS: *minGS, MaxCoV: *maxCoV, MergeLeftover: true}
	a, err := groupio.AlgorithmByName(*alg, cfg, *targetGS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "covgroup:", err)
		os.Exit(2)
	}
	m, err := groupio.SamplingByName(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "covgroup:", err)
		os.Exit(2)
	}
	out, err := groupio.Run(in, a, m, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "covgroup:", err)
		os.Exit(1)
	}
	if err := out.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "covgroup:", err)
		os.Exit(1)
	}
}

// checkRanges rejects a flag value outside its range, naming the flag. 0
// keeps its documented meaning (mings for -targetgs, no cap for -maxcov); a
// negative, NaN or infinite value has none. Whether a size suits the
// algorithm is the algorithm's Validate to say.
func checkRanges(minGS, targetGS int, maxCoV float64) error {
	if minGS < 0 {
		return fmt.Errorf("-mings must be non-negative, got %d", minGS)
	}
	if targetGS < 0 {
		return fmt.Errorf("-targetgs must be non-negative (0 = mings), got %d", targetGS)
	}
	if !(maxCoV >= 0) || math.IsInf(maxCoV, 1) {
		return fmt.Errorf("-maxcov must be non-negative and finite (0 disables), got %g", maxCoV)
	}
	return nil
}
