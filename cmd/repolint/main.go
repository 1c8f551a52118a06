// Command repolint runs the repository's custom static-analysis suite
// (internal/lint) over every package of the module and reports violations
// with file:line:col positions. The gate itself is the same pass run by
// internal/lint's TestRepoIsLintClean under go test ./...; this is the pass
// with the diagnostics on stdout.
//
// Usage:
//
//	repolint [-dir .] [-analyzers name1,name2] [-json] [-list]
//
// Exit codes:
//
//	0 — the tree is clean (no diagnostics)
//	1 — one or more violations were reported
//	2 — the run itself failed (unknown analyzer name, module load or
//	    type-check error, `go list -export std` failing or naming no export
//	    data for an import)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	dir := flag.String("dir", ".", "directory inside the module to lint (the whole module is loaded)")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *names != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*names, ",") {
			a, err := lint.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	diags := lint.Check(pkgs, analyzers)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d violation(s) in %d package(s) checked\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repolint:", err)
	os.Exit(2)
}
