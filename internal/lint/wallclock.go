package lint

import (
	"strings"
)

// Wallclock forbids wall-clock reads (time.Now, time.Since, time.Sleep,
// timers, tickers) in any function reachable — through the module call
// graph, interface calls resolved by class-hierarchy analysis — from a
// function annotated //lint:deterministic. Replayable training runs must
// derive every quantity from the seeded RNG and the simulated topology
// clock; a stray time.Now deep in a helper silently breaks bit-identical
// replay. Legitimate wall-clock uses on a deterministic path (e.g. the
// metrics span layer measuring real elapsed time without feeding it back
// into results) carry a //lint:ignore directive naming this rule at the use
// site.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "time.Now/Since/Sleep/... must not be reachable from //lint:deterministic roots",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	for _, fi := range pass.Mod.Funcs() {
		if fi.Pkg != pass.Pkg || len(fi.TimeUses) == 0 {
			continue
		}
		path := pass.Mod.DeterministicPath(fi.Obj)
		if path == nil {
			continue
		}
		chain := make([]string, 0, len(path))
		for _, fn := range path {
			chain = append(chain, fn.Name())
		}
		for _, use := range fi.TimeUses {
			pass.Reportf(use.Pos, "time.%s inside %s, reachable from //lint:deterministic root %s (via %s); wall-clock reads break replayable runs",
				use.Name, fi.Obj.Name(), path[0].Name(), strings.Join(chain, " -> "))
		}
	}
}
