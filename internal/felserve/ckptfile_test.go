package felserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

var (
	errInjected = errors.New("injected fault")
	errCrashed  = errors.New("the process crashed")
)

// faultFS is the checkpoint writers' file system under test: the real one,
// with every operation logged per job, open handles counted, and at most one
// operation — the at-th of job's history — failed or, for a WriteAt, cut
// short. A cut write lands only cut(p) bytes and the process is taken to
// have died: until reboot nothing reaches the disk, and every operation
// fails.
type faultFS struct {
	job string
	at  int                // the faulted operation; < 0: none
	cut func(p []byte) int // nil: fail the operation

	mu   sync.Mutex
	dead bool
	open int
	ops  map[string][]string // per job: open, create, write, sync, rename, syncdir
	// newest is, per job, the round of the newest checkpoint whose every
	// byte is in the job's file — what Recover must resume from — and has
	// no entry while the job has no file; staged is the same for temp files
	// not yet renamed into place, renamed the temp files that have been.
	newest  map[string]int
	staged  map[string]int
	renamed map[string]bool
	// fallbacks sums the recoveries that read an older slot.
	fallbacks int64
}

func newFaultFS(job string, at int, cut func([]byte) int) *faultFS {
	return &faultFS{job: job, at: at, cut: cut, ops: map[string][]string{},
		newest: map[string]int{}, staged: map[string]int{}, renamed: map[string]bool{}}
}

// jobOf names the job a checkpoint path or temp file belongs to.
func jobOf(path string) string {
	base := filepath.Base(path)
	if name, _, ok := strings.Cut(base, ".tmp-"); ok {
		return strings.TrimPrefix(name, ".")
	}
	return strings.TrimSuffix(base, ".ckpt")
}

// step logs job's next operation and returns its fate: an error, or for the
// faulted write, the cut.
func (fs *faultFS) step(job, op string) (func([]byte) int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return nil, errCrashed
	}
	k := len(fs.ops[job])
	fs.ops[job] = append(fs.ops[job], op)
	if job != fs.job || k != fs.at {
		return nil, nil
	}
	if fs.cut == nil {
		return nil, errInjected
	}
	return fs.cut, nil
}

func (fs *faultFS) handles() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.open
}

func (fs *faultFS) reboot() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dead = false
}

func (fs *faultFS) opened(job string, f *os.File, err error) (ckptFile, error) {
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.open++
	return &faultFile{fs: fs, job: job, f: f}, nil
}

func (fs *faultFS) Open(path string) (ckptFile, error) {
	if _, err := fs.step(jobOf(path), "open"); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	return fs.opened(jobOf(path), f, err)
}

func (fs *faultFS) CreateTemp(dir, pattern string) (ckptFile, error) {
	job := jobOf(strings.TrimSuffix(pattern, "*"))
	if _, err := fs.step(job, "create"); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, pattern)
	return fs.opened(job, f, err)
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if _, err := fs.step(jobOf(newpath), "rename"); err != nil {
		return err
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.newest[jobOf(newpath)] = fs.staged[oldpath]
	fs.renamed[oldpath] = true
	return nil
}

func (fs *faultFS) SyncDir(path string) error {
	_, err := fs.step(jobOf(path), "syncdir")
	return err
}

// Remove is not one of the enumerated operations, but a dead process
// removes nothing.
func (fs *faultFS) Remove(path string) error {
	fs.mu.Lock()
	dead := fs.dead
	fs.mu.Unlock()
	if dead {
		return errCrashed
	}
	return os.Remove(path)
}

type faultFile struct {
	fs  *faultFS
	job string
	f   *os.File
}

func (f *faultFile) Name() string { return f.f.Name() }

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	cut, err := f.fs.step(f.job, "write")
	if err != nil {
		return 0, err
	}
	if cut == nil {
		n, err := f.f.WriteAt(p, off)
		if err == nil {
			f.fs.landed(f, roundOf(p))
		}
		return n, err
	}
	n, err := f.f.WriteAt(p[:cut(p)], off)
	if err != nil {
		return n, err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.dead = true
	return n, errCrashed
}

// landed records that a whole checkpoint of round is in f.
func (fs *faultFS) landed(f *faultFile, round int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if strings.Contains(filepath.Base(f.Name()), ".tmp-") && !fs.renamed[f.Name()] {
		fs.staged[f.Name()] = round
	} else {
		fs.newest[f.job] = round
	}
}

func (f *faultFile) Sync() error {
	if _, err := f.fs.step(f.job, "sync"); err != nil {
		return err
	}
	return f.f.Sync()
}

// Close always closes: a crashed process's descriptors go too.
func (f *faultFile) Close() error {
	f.fs.mu.Lock()
	f.fs.open--
	f.fs.mu.Unlock()
	return f.f.Close()
}

// slotStart is where the checkpoint starts in bytes a writer writes: after
// the header in a new file's image, at 0 in a slot.
func slotStart(p []byte) int {
	if bytes.HasPrefix(p, []byte(slotMagic)) {
		return slotHeaderSize
	}
	return 0
}

// roundOf reads the round of the checkpoint in a write's bytes.
func roundOf(p []byte) int {
	return int(binary.BigEndian.Uint32(p[slotStart(p)+4:]))
}

// frameEnds returns where each frame of a write's checkpoint ends; the last
// entry is where its terminator starts.
func frameEnds(p []byte) []int {
	var ends []int
	for off := slotStart(p); string(p[off:off+len(termMagic)]) != termMagic; {
		off += wire.HeaderSize + int(binary.BigEndian.Uint32(p[off+8:]))
		ends = append(ends, off)
	}
	return ends
}

// The three places a cut write stops: in the middle of the trainer frame, at
// the boundary after it, and just before the terminator.
var cuts = map[string]func(p []byte) int{
	"mid-frame": func(p []byte) int { e := frameEnds(p); return (e[0] + e[1]) / 2 },
	"boundary":  func(p []byte) int { return frameEnds(p)[1] },
	"pre-term":  func(p []byte) int { e := frameEnds(p); return e[len(e)-1] },
}

// TestCheckpointCrashEnumeration fails, in turn, every operation of each
// tenant's checkpoint history — open, create, WriteAt, Sync, rename,
// directory sync — and cuts every WriteAt mid-frame, at a frame boundary and
// just before the terminator, where the process then dies. The history is a
// two-tenant async cloud crashed after five rounds, recovered through the
// same file system and run to the end; a third, clean instance recovers
// whatever is left. Every Recover must resume each job from the newest
// checkpoint whose every byte reached its file — the one being written, or
// the previous one when that write was torn or failed — never quarantine,
// and every job must finish with the result of an uninterrupted run, unless
// it never had a checkpoint file in place. Every file handle must be closed
// after each instance. The tenants train with SCAFFOLD, one group of 30
// clients a round: a client's variate joins the checkpoint when it first
// trains, which grows each checkpoint past its slot (10.5 KB at round 2,
// 16.5 KB or more by round 8), so both a fresh file and a slot doubling are
// in the history.
func TestCheckpointCrashEnumeration(t *testing.T) {
	specs := asyncDemoSpecs(41)
	for i := range specs {
		specs[i].Scaffold, specs[i].Clients, specs[i].SampleGroups = true, 30, 1
	}
	ref := map[string]*core.Result{}
	for _, spec := range specs {
		ref[spec.Name] = core.Train(spec.System(), spec.TrainConfig(nil))
	}
	dry := newFaultFS("", -1, nil)
	if msg := crashHistory(t, t.TempDir(), dry, specs, ref); msg != "" {
		t.Fatalf("fault-free history: %s", msg)
	}
	cases, fallbacks := 0, int64(0)
	for _, spec := range specs {
		ops := dry.ops[spec.Name]
		if n := strings.Count(strings.Join(ops, " "), "create"); n < 2 {
			t.Fatalf("job %s creates its file %d times in the history %v; the enumeration is meant to cover a slot doubling", spec.Name, n, ops)
		}
		for k, op := range ops {
			variants := map[string]func([]byte) int{"fail": nil}
			if op == "write" {
				for name, cut := range cuts {
					variants[name] = cut
				}
			}
			for name, cut := range variants {
				fs := newFaultFS(spec.Name, k, cut)
				if msg := crashHistory(t, t.TempDir(), fs, specs, ref); msg != "" {
					t.Errorf("%s op %d (%s), %s: %s", spec.Name, k, op, name, msg)
				}
				cases++
				fallbacks += fs.fallbacks
			}
		}
	}
	t.Logf("%d faulted histories, %d recoveries from the older slot", cases, fallbacks)
	if fallbacks == 0 {
		t.Fatal("no history tore a slot that held a checkpoint; the enumeration never reached the fallback")
	}
}

// crashHistory runs the enumeration's history on dir through fs and returns
// what went wrong, or "".
func crashHistory(t *testing.T, dir string, fs *faultFS, specs []JobSpec, ref map[string]*core.Result) string {
	t.Helper()
	finished := map[string]bool{}
	// check reports a handle left open, a quarantine, and a job resumed from
	// anything but its newest or previous attempted checkpoint; then the
	// recovered jobs run to the end.
	check := func(svc *Service, jobs []*Job) string {
		if n := svc.Registry().CounterValue("fel_serve_checkpoints_quarantined_total"); n != 0 {
			return fmt.Sprintf("%v checkpoints quarantined", n)
		}
		fs.mu.Lock()
		defer fs.mu.Unlock()
		fs.fallbacks += svc.Registry().CounterValue("fel_serve_checkpoint_fallbacks_total")
		for _, j := range jobs {
			if r, want := j.Round(), fs.newest[j.Name()]; r != want {
				return fmt.Sprintf("job %s resumed from round %d; the newest checkpoint in its file is round %d", j.Name(), r, want)
			}
		}
		return ""
	}
	finish := func(svc *Service, jobs []*Job) string {
		svc.Start()
		svc.Wait()
		for _, j := range jobs {
			res, err := j.Wait()
			if err != nil {
				continue
			}
			if d := diffResult(res, ref[j.Name()]); d != "" {
				return fmt.Sprintf("job %s finished with %s that differ from the uninterrupted run", j.Name(), d)
			}
			finished[j.Name()] = true
		}
		return ""
	}
	closed := func(when string) string {
		if n := fs.handles(); n != 0 {
			return fmt.Sprintf("%d checkpoint files open after %s", n, when)
		}
		return ""
	}

	first := newService(Config{Dir: dir, CheckpointEvery: 2, HaltAfterWaves: 5, StartHeld: true}, fs)
	var jobs []*Job
	for _, spec := range specs {
		j, err := first.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	first.Start()
	// A fault can fail every job before the fifth wave, and a scheduler
	// with nothing to run counts no waves.
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-first.Halted():
		}
	}
	first.Kill()
	if msg := closed("the crash"); msg != "" {
		return msg
	}
	fs.reboot()

	second := newService(Config{Dir: dir, CheckpointEvery: 2, StartHeld: true}, fs)
	jobs, err := second.Recover()
	if err != nil {
		return err.Error()
	}
	msg := check(second, jobs)
	if msg == "" {
		msg = finish(second, jobs)
	}
	second.Kill()
	if msg != "" {
		return msg
	}
	if msg := closed("the recovered run"); msg != "" {
		return msg
	}

	third := New(Config{Dir: dir, CheckpointEvery: 2, StartHeld: true})
	if jobs, err = third.Recover(); err != nil {
		return err.Error()
	}
	if msg = check(third, jobs); msg == "" {
		msg = finish(third, jobs)
	}
	if err := third.Close(); err != nil && msg == "" {
		msg = err.Error()
	}
	if msg != "" {
		return msg
	}
	for _, spec := range specs {
		if _, hadFile := fs.newest[spec.Name]; hadFile && !finished[spec.Name] {
			return fmt.Sprintf("job %s had a checkpoint file but was lost", spec.Name)
		}
	}
	return ""
}

// diffResult names the first part of two finished runs that differs, ""
// when they are the same run: the weights, and everything a checkpoint
// carries into the result.
func diffResult(a, b *core.Result) string {
	switch {
	case !sameBits(a.Params, b.Params):
		return "weights"
	case !slices.Equal(a.Records, b.Records):
		return "round records"
	case !slices.Equal(bitsOf(a.TotalCost, a.FinalAccuracy, a.FinalLoss), bitsOf(b.TotalCost, b.FinalAccuracy, b.FinalLoss)) ||
		a.Dropouts != b.Dropouts || a.UplinkBytes != b.UplinkBytes:
		return "cost, accuracy or dropout totals"
	case fmt.Sprint(a.Participation) != fmt.Sprint(b.Participation):
		return "participation counts"
	case a.LogicalTicks != b.LogicalTicks || a.Carryovers != b.Carryovers || a.LateDrops != b.LateDrops:
		return "async clock totals"
	}
	return ""
}

func bitsOf(v ...float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestCheckpointHandlesClosed: every file handle a job's writer opens is
// closed as soon as the job finishes or a checkpoint fails it — checked at
// the scheduler's halt right after that wave, before the service stops — and
// by Close or Kill of a service whose job is mid-run.
func TestCheckpointHandlesClosed(t *testing.T) {
	spec := demoSpecs(3)[0] // 12 rounds
	for _, tc := range []struct {
		name string
		fail int // the job's operation to fail; < 0: none
		halt int // the wave the scheduler halts after
		stop func(*Service) error
	}{
		{"finish", -1, spec.Rounds, nil},
		{"fail", 8, 6, nil}, // the Sync of the round-6 checkpoint
		{"Close", -1, 5, (*Service).Close},
		{"Kill", -1, 5, func(s *Service) error { s.Kill(); return nil }},
	} {
		fs := newFaultFS(spec.Name, tc.fail, nil)
		svc := newService(Config{Dir: t.TempDir(), CheckpointEvery: 2, HaltAfterWaves: tc.halt}, fs)
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-svc.Halted()
		if tc.stop != nil {
			if err := tc.stop(svc); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		} else if !j.Done() || (j.err != nil) != (tc.fail >= 0) {
			t.Fatalf("%s: at the halt the job is done=%v with error %v", tc.name, j.Done(), j.err)
		}
		if got := fs.ops[spec.Name]; tc.fail >= 0 && got[tc.fail] != "sync" {
			t.Fatalf("%s: operation %d is %q, want the sync the case means to fail (%v)", tc.name, tc.fail, got[tc.fail], got)
		}
		if n := fs.handles(); n != 0 {
			t.Errorf("%s: %d checkpoint files left open", tc.name, n)
		}
		svc.Kill()
	}
}

// TestCheckpointWriteCounts: through the seam, a steady-state checkpoint is
// one WriteAt and one Sync on the file the job keeps open, and a 1300-round
// job — its records growing every round, as in the serve-fanout workload —
// creates and renames its file only O(log size) times. A semi-sync job's
// checkpoint grows by its records alone, as a synchronous one's does, so
// after 1300 rounds both are under 64 KiB.
func TestCheckpointWriteCounts(t *testing.T) {
	semi := asyncDemoSpecs(41)[1]
	semi.Rounds, semi.EvalEvery = 1300, 1300
	for _, spec := range []JobSpec{{
		Name: "long", Clients: 24, Edges: 2, SystemSeed: 5, Seed: 6,
		Rounds: 1300, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 2, EvalEvery: 1300,
	}, semi} {
		fs := newFaultFS("", -1, nil)
		svc := newService(Config{Dir: t.TempDir(), CheckpointEvery: 5}, fs)
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		ops := strings.Join(fs.ops[spec.Name], " ")
		creates := strings.Count(ops, "create write sync rename syncdir")
		steady := strings.Count(strings.ReplaceAll(ops, "create write sync rename syncdir", ""), "write sync")
		if strings.Count(ops, "create") != creates || strings.Count(ops, "rename") != creates {
			t.Fatalf("%s: a file is made other than by create, write, sync, rename, sync-dir: %s", spec.Name, ops)
		}
		if creates+steady != spec.Rounds/5 || len(fs.ops[spec.Name]) != 5*creates+2*steady {
			t.Fatalf("%s: %d creates + %d steady saves for %d due checkpoints, %d operations in all",
				spec.Name, creates, steady, spec.Rounds/5, len(fs.ops[spec.Name]))
		}
		st, err := svc.Job(spec.Name).tr.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		var final bytes.Buffer
		if _, err := EncodeCheckpoint(&final, spec, st); err != nil {
			t.Fatal(err)
		}
		// One file at the start, then one per doubling from 4 KiB to the final size.
		if bound := 1 + int(math.Ceil(math.Log2(float64(final.Len()+termSize)/slotMinSize))); creates > bound {
			t.Fatalf("%s: %d files created for a final checkpoint of %d bytes, want at most %d", spec.Name, creates, final.Len(), bound)
		}
		if final.Len() > 64<<10 {
			t.Fatalf("%s: the final checkpoint is %d bytes, want at most 64 KiB", spec.Name, final.Len())
		}
		t.Logf("%s: %d files created, %d steady-state saves, final checkpoint %d bytes", spec.Name, creates, steady, final.Len())
	}
}

// slotFile lays checkpoints out as a slot file with slot size size; a nil
// checkpoint leaves its slot zero.
func slotFile(size int, slots ...[]byte) []byte {
	b := make([]byte, slotHeaderSize+2*size)
	copy(b, slotMagic)
	binary.BigEndian.PutUint64(b[len(slotMagic):], uint64(size))
	for i, s := range slots {
		copy(b[slotHeaderSize+i*size:], s)
	}
	return b
}

// terminated appends a checkpoint's terminator to its frames.
func terminated(frames []byte, round int) []byte {
	var term [termSize]byte
	copy(term[:], termMagic)
	binary.BigEndian.PutUint32(term[4:], uint32(round))
	binary.BigEndian.PutUint32(term[8:], uint32(len(frames)))
	return append(slices.Clone(frames), term[:]...)
}

// FuzzLoadCheckpoint feeds whole checkpoint files to the loader: it must
// never panic, and whatever state it returns must survive a re-encode and
// decode unchanged. Seeds: the golden checkpoint in both slots, with the
// newer slot torn, and an async job's first checkpoint — the async and
// adaptive frames the golden lacks — alone in a new file.
func FuzzLoadCheckpoint(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint.golden"))
	if err != nil {
		f.Fatal(err)
	}
	slot := terminated(golden, 3)
	f.Add(slotFile(len(slot), slot, slot))
	f.Add(slotFile(len(slot), slot, slot[:len(slot)/2]))
	aspec := asyncJobSpec()
	tr := core.NewTrainer(aspec.System(), aspec.TrainConfig(nil))
	tr.Step()
	st, err := tr.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	frames, err := appendCheckpoint(nil, aspec, st)
	if err != nil {
		f.Fatal(err)
	}
	aslot := terminated(frames, st.Round)
	f.Add(slotFile(len(aslot), aslot))
	f.Fuzz(func(t *testing.T, b []byte) {
		spec, st, _, err := decodeCheckpointFile(b)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := EncodeCheckpoint(&buf, spec, st); err != nil {
			t.Fatalf("a loaded checkpoint does not re-encode: %v", err)
		}
		spec2, st2, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("a re-encoded checkpoint does not decode: %v", err)
		}
		if d := diffCheckpoint(spec, st, spec2, st2); d != "" {
			t.Fatalf("re-encoding changed the checkpoint: %s", d)
		}
	})
}

// diffCheckpoint names the first field in which two decoded checkpoints
// differ, comparing floats by their bits; "" when none does.
func diffCheckpoint(as JobSpec, a *core.TrainerState, bs JobSpec, b *core.TrainerState) string {
	specFloats := func(s *JobSpec) []uint64 {
		fs := bitsOf(s.LR, s.MaxCoV, s.DropoutProb, s.AdaptiveBeta, s.AdaptiveExplore,
			s.Async.Alpha, s.Async.BufferFrac, s.Async.Delays.StragglerProb)
		s.LR, s.MaxCoV, s.DropoutProb, s.AdaptiveBeta, s.AdaptiveExplore = 0, 0, 0, 0, 0
		s.Async.Alpha, s.Async.BufferFrac, s.Async.Delays.StragglerProb = 0, 0, 0
		return fs
	}
	records := func(st *core.TrainerState) ([]int, []uint64) {
		var rounds []int
		var fs []uint64
		for _, r := range st.Records {
			rounds = append(rounds, r.Round)
			fs = append(fs, bitsOf(r.Accuracy, r.Loss, r.Cost, r.AvgSelectedCoV)...)
		}
		return rounds, fs
	}
	ar, af := records(a)
	br, bf := records(b)
	switch {
	case !slices.Equal(specFloats(&as), specFloats(&bs)) || as != bs:
		return "spec"
	case a.Round != b.Round || a.SampleHi != b.SampleHi || a.SampleLo != b.SampleLo ||
		!slices.Equal(bitsOf(a.CostTraining, a.CostGroupOps), bitsOf(b.CostTraining, b.CostGroupOps)) ||
		a.Dropouts != b.Dropouts || a.UplinkBytes != b.UplinkBytes:
		return "trainer scalars"
	case !slices.Equal(bitsOf(a.Params...), bitsOf(b.Params...)):
		return "params"
	case !slices.Equal(ar, br) || !slices.Equal(af, bf):
		return "records"
	case fmt.Sprint(a.Participation) != fmt.Sprint(b.Participation):
		return "participation"
	case (a.Scaffold == nil) != (b.Scaffold == nil):
		return "scaffold presence"
	case a.LogicalTicks != b.LogicalTicks || a.Carryovers != b.Carryovers || a.LateDrops != b.LateDrops:
		return "async totals"
	case (a.Adaptive == nil) != (b.Adaptive == nil):
		return "adaptive presence"
	}
	if a.Scaffold != nil {
		if (a.Scaffold.C == nil) != (b.Scaffold.C == nil) || !slices.Equal(bitsOf(a.Scaffold.C...), bitsOf(b.Scaffold.C...)) ||
			!slices.Equal(a.Scaffold.ClientIDs, b.Scaffold.ClientIDs) || len(a.Scaffold.CI) != len(b.Scaffold.CI) {
			return "scaffold"
		}
		for i := range a.Scaffold.CI {
			if !slices.Equal(bitsOf(a.Scaffold.CI[i]...), bitsOf(b.Scaffold.CI[i]...)) {
				return "scaffold client variate"
			}
		}
	}
	if a.Adaptive != nil && (!slices.Equal(bitsOf(a.Adaptive.Norms...), bitsOf(b.Adaptive.Norms...)) ||
		!slices.Equal(a.Adaptive.Seen, b.Adaptive.Seen)) {
		return "adaptive"
	}
	return ""
}
