package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// TestDeterminismContract holds the determinism contract (DESIGN.md §8,
// "Determinism contract") as one table. A row is a shape; its first column is
// the reference, every other column moves one axis, and each must reproduce
// testdata/contract/<row>.digests line by line. There is no update flag: a
// deliberate re-record copies the lines a failing reference prints. The cells
// held lists run under the names of the tests the table replaced; this test
// runs every other cell, and checks that rows, files and held agree.
// engine_test.go's init lifts the CPU cap on MaxParallel in this binary, so
// par=8 fans out eight wide anywhere.
func TestDeterminismContract(t *testing.T) {
	rows := contractRows()
	files, _ := filepath.Glob(filepath.Join(contractDir, "*")) //lint:ignore dropped-error the pattern is well formed
	for _, msg := range unmatched(files, rows) {
		t.Error(msg)
	}
	for _, h := range held {
		r, ok := rowNamed(rows, h.row)
		if !ok || slices.ContainsFunc(h.cols, func(name string) bool {
			return !slices.ContainsFunc(r.cols, func(c column) bool { return c.name == name })
		}) {
			t.Errorf("held: %s names a cell of %s %q the table lacks", h.test, h.row, h.cols)
		}
	}
	for _, r := range rows {
		var free []string
		for _, c := range r.cols {
			if !slices.ContainsFunc(held, func(h heldCells) bool { return h.holds(r.name, c.name) }) {
				free = append(free, c.name)
			}
		}
		if free != nil {
			t.Run(r.name, func(t *testing.T) { runCells(t, r, free) })
		}
	}
}

// heldCells are the cells of one row that test runs; nil cols is every column.
type heldCells struct {
	test, row string
	cols      []string
}

func (h heldCells) holds(row, col string) bool {
	return h.row == row && (h.cols == nil || slices.Contains(h.cols, col))
}

// held keeps each test the table replaced under its old name, a subtest's
// included, as a view of the cells that hold what it asserted.
var held = []heldCells{
	{"TestTrainDeterministic", "sgd", []string{"reference"}},
	{"TestReplayBitIdenticalAcrossParallelism", "sgd", []string{"procs=1", "procs=8"}},
	{"TestResumeBitIdentical/sgd", "sgd", []string{"resume@1", "resume@4", "resume@6"}},
	{"TestDropoutDeterministic", "dropout-regroup", []string{"reference"}},
	{"TestResumeBitIdentical/dropout-regroup", "dropout-regroup", []string{"resume@1", "resume@4", "resume@6"}},
	{"TestReplayBitIdenticalAcrossMaxParallel", "scaffold-dropout", []string{"reference", "par=2", "par=8"}},
	{"TestResumeBitIdentical/scaffold", "scaffold-dropout", []string{"resume@1", "resume@4", "resume@6"}},
	{"TestReplayWideModelsPinned", "wide-mlp64x128x4", nil},
	{"TestReplayWideModelsPinned", "wide-mlp256x256x10", nil},
	{"TestVirtualTrainBitIdenticalToMaterialized", "virtual", []string{"reference", "materialized", "par=4", "materialized par=4"}},
	{"TestVirtualTrainerCheckpointResume", "virtual", []string{"resume@3"}},
}

func TestTrainDeterministic(t *testing.T)                     { runHeld(t) }
func TestReplayBitIdenticalAcrossParallelism(t *testing.T)    { runHeld(t) }
func TestDropoutDeterministic(t *testing.T)                   { runHeld(t) }
func TestReplayBitIdenticalAcrossMaxParallel(t *testing.T)    { runHeld(t) }
func TestResumeBitIdentical(t *testing.T)                     { runHeld(t) }
func TestReplayWideModelsPinned(t *testing.T)                 { runHeld(t) }
func TestVirtualTrainBitIdenticalToMaterialized(t *testing.T) { runHeld(t) }
func TestVirtualTrainerCheckpointResume(t *testing.T)         { runHeld(t) }

// runHeld runs the cells held lists for t, and those it lists for a subtest
// of t in that subtest.
func runHeld(t *testing.T) {
	rows := contractRows()
	for _, h := range held {
		r, _ := rowNamed(rows, h.row)
		if h.test == t.Name() {
			runCells(t, r, h.cols)
		} else if sub, ok := strings.CutPrefix(h.test, t.Name()+"/"); ok {
			t.Run(sub, func(t *testing.T) { runCells(t, r, h.cols) })
		}
	}
}

// runCells holds row r's columns named in names (nil: all) to its recorded
// lines. A resume column starts from the reference's export, so the
// reference runs, and is held to the lines, when it or a resume is named.
func runCells(t *testing.T, r row, names []string) {
	defer leakcheck.Check(t)() // every run joins its goroutines
	recorded := readDigests(r.name)
	cols := slices.DeleteFunc(slices.Clone(r.cols), func(c column) bool {
		return names != nil && !slices.Contains(names, c.name)
	})
	var exported map[int]export
	if cols[0].name == r.cols[0].name || slices.ContainsFunc(cols, func(c column) bool { return c.resumeAt > 0 }) {
		ref, ex, err := r.run(r.cols[0], -1, nil)
		if err != nil {
			t.Errorf("%s, column %s: %v", r.name, r.cols[0].name, err)
			return
		}
		if _, msg := compare(r.name, r.cols[0], ref, recorded); msg != "" {
			t.Errorf("%s\nthe reference ran:\n%s", msg, strings.Join(ref, "\n"))
		}
		exported, cols = ex, slices.DeleteFunc(cols, func(c column) bool { return c.name == r.cols[0].name })
	}
	for _, c := range cols {
		if got, _, err := r.run(c, -1, exported); err != nil {
			t.Errorf("%s, column %s: %v", r.name, c.name, err)
		} else if _, msg := compare(r.name, c, got, recorded); msg != "" {
			t.Error(msg)
		}
	}
}

func rowNamed(rows []row, name string) (row, bool) {
	i := slices.IndexFunc(rows, func(r row) bool { return r.name == name })
	if i < 0 {
		return row{}, false
	}
	return rows[i], true
}

// TestDeterminismContractNamesCell: one ulp added to the live global vector
// after round r, first or last, in one column, is reported at that cell.
func TestDeterminismContractNamesCell(t *testing.T) {
	rows := contractRows()
	for _, cell := range [][2]string{{"sgd", "procs=8"}, {"sync-storm", "par=8"}} {
		r, _ := rowNamed(rows, cell[0])
		c := r.cols[slices.IndexFunc(r.cols, func(c column) bool { return c.name == cell[1] })]
		recorded := readDigests(r.name)
		for _, round := range []int{0, len(recorded) - 2} {
			got, _, err := r.run(c, round, nil)
			if at, msg := compare(r.name, c, got, recorded); err != nil || at != round || !strings.HasPrefix(msg, cell[0]+", column "+cell[1]+":") {
				t.Errorf("one ulp at %v, round %d, reported at round %d: %v %s", cell, round, at, err, msg)
			}
		}
	}
}

// TestDeterminismContractFiles: a digests file no row reads fails the table,
// and so does a row with no file.
func TestDeterminismContractFiles(t *testing.T) {
	got := unmatched([]string{contractDir + "/a.digests", contractDir + "/c.digests"}, []row{{name: "a"}, {name: "b"}})
	if !slices.Equal(got, []string{"row b: no testdata/contract/b.digests", "testdata/contract/c.digests: no row reads it"}) {
		t.Errorf("unmatched = %q", got)
	}
}

const contractDir = "testdata/contract"

// row is one shape. An in-process run builds its System from shape and its
// Config afresh, base then edit (a SCAFFOLD updater holds state); with reg,
// it has a registry unless it resumes.
type row struct {
	name         string
	shape        core.SystemConfig
	base         func() core.Config
	edit         func(*core.Config)
	virtual, reg bool
	cols         []column // cols[0] is the reference
}

// column is one cell of a row: the reference's run with one axis moved.
type column struct {
	name        string
	procs, par  int      // GOMAXPROCS and MaxParallel for the run; 0 keeps them
	materialize bool     // train on the system's Materialize() copy
	resumeAt    int      // resume a fresh trainer from the reference's export here
	skip        []string // final-line fields the column moves by construction
}

var reference = column{name: "reference"}

func par(n int) column { return column{name: fmt.Sprintf("par=%d", n), par: n} }

// resume finishes a fresh trainer from the reference's export before round
// at, which the reference then stepped past: the export must be detached.
func resume(at int) column {
	return column{name: fmt.Sprintf("resume@%d", at), resumeAt: at, skip: []string{"snap"}}
}

func contractRows() []row {
	scaffold := func() core.LocalUpdater { return &core.ScaffoldUpdater{NumClients: 12} }
	resumes := []column{resume(1), resume(4), resume(6)}
	grid := []column{{name: "procs=1 par=1", procs: 1, par: 1}, {name: "procs=1 par=8", procs: 1, par: 8},
		{name: "procs=8 par=1", procs: 8, par: 1}, {name: "procs=8 par=8", procs: 8, par: 8}}
	return []row{
		// The bench's train-paper population and schedule, cut to 60 clients
		// and 4 rounds; two groups train at a time.
		{name: "paper", shape: flatShape(10, 24, 32, 1.9, partition(60, 20, 200, 110, 45), 3, 200, 11, 13),
			base: baseConfig, cols: []column{reference}, edit: func(cfg *core.Config) {
				cfg.GlobalRounds, cfg.GroupRounds, cfg.LocalEpochs, cfg.SampleGroups, cfg.MaxParallel = 4, 5, 2, 12, 2
				cfg.EvalEvery, cfg.DropoutProb, cfg.RegroupEvery, cfg.Seed = 2, 0.05, 2, 14
				cfg.Grouping, cfg.Weights = covg(5), sampling.Stabilized
			}},
		{name: "wide-mlp64x128x4", base: baseConfig, shape: flatShape(4, 64, 128, 0.8, partition(10, 24, 48, 32, 8), 2, 200, 3, 7),
			edit: func(cfg *core.Config) { cfg.GlobalRounds, cfg.BatchSize = 2, 24 }, cols: grid},
		{name: "wide-mlp256x256x10", base: baseConfig, shape: flatShape(10, 256, 256, 1.2, partition(12, 64, 160, 112, 24), 2, 200, 5, 7),
			edit: func(cfg *core.Config) { cfg.GlobalRounds, cfg.BatchSize = 2, 64 }, cols: grid},
		{name: "sgd", base: baseConfig, shape: smallShape(3, 400), edit: func(cfg *core.Config) { cfg.GlobalRounds = 7 },
			cols: append([]column{reference, {name: "procs=1", procs: 1}, {name: "procs=8", procs: 8}}, resumes...)},
		{name: "dropout-regroup", base: baseConfig, shape: smallShape(3, 400), cols: append([]column{reference}, resumes...),
			edit: func(cfg *core.Config) { cfg.GlobalRounds, cfg.DropoutProb, cfg.RegroupEvery = 7, 0.25, 2 }},
		{name: "scaffold-dropout", base: baseConfig, shape: smallShape(3, 400), cols: append([]column{reference, par(2), par(8)}, resumes...),
			edit: func(cfg *core.Config) { cfg.GlobalRounds, cfg.Local, cfg.DropoutProb = 7, scaffold(), 0.25 }},
		{name: "scaffold-regroup", base: baseConfig, shape: smallShape(3, 400), cols: append([]column{reference}, resumes...),
			edit: func(cfg *core.Config) { cfg.GlobalRounds, cfg.Local, cfg.RegroupEvery = 7, scaffold(), 3 }},
		{name: "virtual", base: baseConfig, shape: smallShape(3, 400), virtual: true,
			edit: func(cfg *core.Config) {
				cfg.GlobalRounds, cfg.Local, cfg.DropoutProb, cfg.RegroupEvery = 6, scaffold(), 0.25, 2
			},
			cols: []column{reference, {name: "materialized", materialize: true}, par(4),
				{name: "materialized par=4", materialize: true, par: 4}, resume(3)}},
		// Heavy dropout with a registry: the row pins the run's whole masked
		// metric snapshot.
		{name: "sync-storm", base: baseConfig, shape: smallShape(28, 400), reg: true, cols: []column{reference, par(8)},
			edit: func(cfg *core.Config) { cfg.GlobalRounds, cfg.DropoutProb = 5, 0.6 }},
	}
}

// export is a run's state before a round and the digests of those before.
type export struct {
	st      *core.TrainerState
	digests []string
}

// run returns cell c's lines, adding one ulp to the live global vector after
// round perturb (-1: never). A run that resumes nothing exports its state
// before each round a column of the row resumes at; a resume column starts
// from the export in from.
func (r row) run(c column, perturb int, from map[int]export) ([]string, map[int]export, error) {
	if c.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
	}
	newSys, cfg, reg := core.NewSystem, r.base(), (*metrics.Registry)(nil)
	if r.virtual {
		newSys = core.NewVirtualSystem
	}
	sys := newSys(r.shape)
	r.edit(&cfg)
	if virtual := sys.Virtual(); c.materialize {
		if sys = sys.Materialize(); !virtual || sys.Virtual() {
			return nil, nil, fmt.Errorf("Materialize did not copy a virtual system into a materialised one")
		}
	}
	if c.par > 0 {
		cfg.MaxParallel = c.par
	}
	tr, digests, out := (*core.Trainer)(nil), []string(nil), map[int]export{}
	if ex, ok := from[c.resumeAt]; c.resumeAt == 0 || !ok {
		if r.reg && c.resumeAt == 0 {
			reg = metrics.New()
			cfg.Metrics = reg
		}
		tr = core.NewTrainer(sys, cfg)
	} else {
		resumed, err := core.NewTrainerResumed(sys, cfg, ex.st)
		if err != nil {
			return nil, nil, err
		}
		tr, digests, out = resumed, slices.Clone(ex.digests), nil
	}
	if tr.Round() != c.resumeAt {
		return nil, nil, fmt.Errorf("starts at round %d, want %d", tr.Round(), c.resumeAt)
	}
	for !tr.Done() {
		if out != nil && slices.ContainsFunc(r.cols, func(c column) bool { return c.resumeAt == tr.Round() }) {
			st, err := tr.ExportState()
			if err != nil {
				return nil, nil, err
			}
			out[tr.Round()] = export{st, slices.Clone(digests)}
		}
		tr.Step()
		if p := tr.Params(); len(digests) == perturb {
			p[0] = math.Nextafter(p[0], math.Inf(1))
		}
		digests = append(digests, paramDigest(tr.Params()))
	}
	res := tr.Finish()
	if len(res.Records) != len(digests) {
		return nil, nil, fmt.Errorf("%d records for %d rounds", len(res.Records), len(digests))
	}
	var lines []string
	for i, rec := range res.Records {
		lines = append(lines, fmt.Sprintf("round=%d params=%s acc=%s loss=%s cost=%s cov=%s", rec.Round,
			digests[i], bits(rec.Accuracy), bits(rec.Loss), bits(rec.Cost), bits(rec.AvgSelectedCoV)))
	}
	final := fmt.Sprintf("final params=%s acc=%s loss=%s cost=%s rounds=%d dropouts=%d uplink=%d part=%s",
		paramDigest(res.Params), bits(res.FinalAccuracy), bits(res.FinalLoss), bits(res.TotalCost), res.RoundsRun, res.Dropouts,
		res.UplinkBytes, digest([]byte(fmt.Sprint(res.Participation))))
	if reg != nil {
		final += " snap=" + digest([]byte(metrics.MaskTimings(reg.Snapshot())))
	}
	return append(lines, final), out, nil
}

// compare finds the first line of got that parts from want, less the fields
// c skips in the final line, and returns its round (-1: the final line) and
// a message naming the cell and both lines; "" when got reproduces want.
func compare(row string, c column, got, want []string) (int, string) {
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(none)"
	}
	for i := range max(len(got), len(want)) {
		g, w := line(got, i), line(want, i)
		if strings.HasPrefix(w, "final ") {
			g, w = without(g, c.skip), without(w, c.skip)
		}
		if at := fmt.Sprintf("round %d", i); g != w {
			if i >= len(want)-1 {
				i, at = -1, "the final line"
			}
			return i, fmt.Sprintf("%s, column %s: first difference at %s\n got: %s\nwant: %s", row, c.name, at, g, w)
		}
	}
	return 0, ""
}

// without drops line's key=value fields whose key is in keys.
func without(line string, keys []string) string {
	return strings.Join(slices.DeleteFunc(strings.Fields(line), func(f string) bool {
		k, _, _ := strings.Cut(f, "=")
		return slices.Contains(keys, k)
	}), " ")
}

// readDigests returns a row's recorded lines, or the read error as its line.
func readDigests(name string) []string {
	b, err := os.ReadFile(filepath.Join(contractDir, name+".digests"))
	if err != nil {
		return []string{err.Error()}
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

// unmatched names each row with no file and each file no row reads.
func unmatched(files []string, rows []row) []string {
	var msgs []string
	path := func(r row) string { return filepath.Join(contractDir, r.name+".digests") }
	for _, r := range rows {
		if !slices.Contains(files, path(r)) {
			msgs = append(msgs, "row "+r.name+": no "+path(r))
		}
	}
	for _, f := range files {
		if !slices.ContainsFunc(rows, func(r row) bool { return path(r) == f }) {
			msgs = append(msgs, f+": no row reads it")
		}
	}
	return msgs
}

// paramDigest is the first eight bytes of the SHA-256 of the parameters'
// big-endian Float64bits, in hex.
func paramDigest(params []float64) string {
	buf := make([]byte, 0, 8*len(params))
	for _, v := range params {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return digest(buf)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func partition(clients, minS, maxS int, mean, std float64) data.PartitionConfig {
	return data.PartitionConfig{NumClients: clients, MinSamples: minS, MaxSamples: maxS, MeanSamples: mean, StdSamples: std}
}

// flatShape is a Dirichlet(0.5) partition, drawn from seed+1, of flat
// Gaussian classes, and a one-hidden-layer MLP.
func flatShape(classes, features, hidden int, noise float64, part data.PartitionConfig, edges, testSize int, seed, modelSeed uint64) core.SystemConfig {
	gen := data.FlatConfig(classes, features, seed)
	gen.Noise = noise
	part.Alpha, part.Seed = 0.5, seed+1
	return core.SystemConfig{
		Generator: gen, Partition: part, NumEdges: edges, TestSize: testSize, ModelSeed: modelSeed,
		NewModel: func(s uint64) *nn.Sequential { return nn.NewMLP(features, []int{hidden}, classes, s) },
	}
}

// smallShape is 12 clients on two edges, 4 classes of 10 features, and an
// MLP 10→16→4.
func smallShape(seed uint64, testSize int) core.SystemConfig {
	return flatShape(4, 10, 16, 0.8, partition(12, 10, 40, 25, 8), 2, testSize, seed, 7)
}

func covg(minGS int) grouping.Algorithm {
	return grouping.CoVGrouping{Config: grouping.Config{MinGS: minGS, MaxCoV: 0.5, MergeLeftover: true}}
}

// baseConfig is CoV-Grouping, ESRCoV sampling and biased weights on the
// serial reference path.
func baseConfig() core.Config {
	return core.Config{
		GroupRounds: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.05, SampleGroups: 3, MaxParallel: 1, Seed: 42,
		Grouping: covg(3), Sampling: sampling.ESRCoV, Weights: sampling.Biased,
		CostProfile: cost.CIFARProfile(), CostOps: cost.DefaultOps(),
	}
}
