package felserve

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSpec is the fixed job whose checkpoint bytes the golden file pins:
// SCAFFOLD with dropout, so every frame kind — spec, trainer, records,
// participation, server variate, per-client variates — appears.
func goldenSpec() JobSpec {
	return JobSpec{
		Name: "golden", Clients: 8, Edges: 2,
		SystemSeed: 11, Seed: 13,
		Rounds: 6, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 2,
		Scaffold: true, DropoutProb: 0.2,
	}
}

// goldenState steps the golden job's trainer to round 3 and exports.
func goldenState(t *testing.T, spec JobSpec) *core.TrainerState {
	t.Helper()
	tr := core.NewTrainer(spec.System(), spec.TrainConfig(nil))
	for tr.Round() < 3 {
		tr.Step()
	}
	st, err := tr.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckpointGolden pins the checkpoint encoding byte for byte.
// Regenerate with `go test ./internal/felserve -run Golden -update` — after
// a format change (which must also bump ckptFormat) or after an intentional
// change to the trainer's canonical numerics (the golden embeds round-3
// weights, so e.g. reshaping the aggregation order moves its bytes without
// any format change).
func TestCheckpointGolden(t *testing.T) {
	spec := goldenSpec()
	st := goldenState(t, spec)
	var buf bytes.Buffer
	n, err := EncodeCheckpoint(&buf, spec, st)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("EncodeCheckpoint reported %d bytes, wrote %d", n, buf.Len())
	}
	golden := filepath.Join("testdata", "checkpoint.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("checkpoint encoding changed: %d bytes, golden %d — a format change must bump ckptFormat and regenerate",
			buf.Len(), len(want))
	}
}

// TestCheckpointRoundTrip: decode(encode(x)) == x, field for field and bit
// for bit, through the actual file path (atomic save + load).
func TestCheckpointRoundTrip(t *testing.T) {
	spec := goldenSpec()
	st := goldenState(t, spec)
	dir := t.TempDir()
	if _, err := SaveCheckpoint(dir, spec, st); err != nil {
		t.Fatal(err)
	}
	gotSpec, gotSt, err := LoadCheckpoint(checkpointPath(dir, spec.Name))
	if err != nil {
		t.Fatal(err)
	}
	if gotSpec != spec {
		t.Fatalf("spec round trip: got %+v, want %+v", gotSpec, spec)
	}
	if gotSt.Round != st.Round || gotSt.SampleHi != st.SampleHi || gotSt.SampleLo != st.SampleLo {
		t.Fatal("round or sampling stream corrupted")
	}
	if math.Float64bits(gotSt.CostTraining) != math.Float64bits(st.CostTraining) ||
		math.Float64bits(gotSt.CostGroupOps) != math.Float64bits(st.CostGroupOps) {
		t.Fatal("cost components corrupted")
	}
	if gotSt.Dropouts != st.Dropouts || gotSt.UplinkBytes != st.UplinkBytes {
		t.Fatal("dropout/uplink accounting corrupted")
	}
	bitEq := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: element %d differs", what, i)
			}
		}
	}
	bitEq("params", gotSt.Params, st.Params)
	if len(gotSt.Records) != len(st.Records) {
		t.Fatalf("%d records, want %d", len(gotSt.Records), len(st.Records))
	}
	for i := range st.Records {
		if gotSt.Records[i] != st.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, gotSt.Records[i], st.Records[i])
		}
	}
	if len(gotSt.Participation) != len(st.Participation) {
		t.Fatal("participation size differs")
	}
	for id, n := range st.Participation {
		if gotSt.Participation[id] != n {
			t.Fatalf("participation[%d] = %d, want %d", id, gotSt.Participation[id], n)
		}
	}
	if (gotSt.Scaffold == nil) != (st.Scaffold == nil) {
		t.Fatal("scaffold presence differs")
	}
	bitEq("scaffold c", gotSt.Scaffold.C, st.Scaffold.C)
	if len(gotSt.Scaffold.ClientIDs) != len(st.Scaffold.ClientIDs) {
		t.Fatal("scaffold client count differs")
	}
	for i, id := range st.Scaffold.ClientIDs {
		if gotSt.Scaffold.ClientIDs[i] != id {
			t.Fatalf("scaffold client %d: id %d, want %d", i, gotSt.Scaffold.ClientIDs[i], id)
		}
		bitEq("scaffold ci", gotSt.Scaffold.CI[i], st.Scaffold.CI[i])
	}
}

// TestCheckpointRejectsCorruption: a flipped byte anywhere must fail the
// decode (the wire codec's CRC does the heavy lifting), and a truncated
// file, or one ending in a frame of a retired type, must be rejected rather
// than half-loaded.
func TestCheckpointRejectsCorruption(t *testing.T) {
	spec := goldenSpec()
	st := goldenState(t, spec)
	var buf bytes.Buffer
	if _, err := EncodeCheckpoint(&buf, spec, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, off := range []int{3, len(raw) / 2, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		if _, _, err := DecodeCheckpoint(bytes.NewReader(mut)); err == nil {
			t.Fatalf("decode accepted a corrupted byte at offset %d", off)
		}
	}
	if _, _, err := DecodeCheckpoint(bytes.NewReader(raw[:len(raw)-7])); err == nil {
		t.Fatal("decode accepted a truncated checkpoint")
	}
	if _, _, err := DecodeCheckpoint(bytes.NewReader(raw[:40])); err == nil {
		t.Fatal("decode accepted a checkpoint missing mandatory frames")
	}
	// Async checkpoints from before the arrival log was retired end in
	// frames of wire type 9, which the codec no longer knows.
	retired, err := wire.AppendFrame(slices.Clone(raw), &wire.Message{Type: wire.JobControl, Round: uint32(st.Round)})
	if err != nil {
		t.Fatal(err)
	}
	retired[len(raw)+3] = 9
	if _, _, err := DecodeCheckpoint(bytes.NewReader(retired)); !errors.Is(err, wire.ErrBadType) {
		t.Fatalf("decode of a checkpoint ending in a type-9 frame: %v, want ErrBadType", err)
	}
}

// TestCheckpointRejectsValidFramesBadValues: the CRC vouches for the bytes,
// not for what they say. A well-framed file whose reserved trainer word is
// set fails the decode, and one whose spec frame carries a non-finite
// learning rate or dropout probability decodes but cannot become a job —
// Recover quarantines both instead of training to NaN.
func TestCheckpointRejectsValidFramesBadValues(t *testing.T) {
	spec := goldenSpec()
	st := goldenState(t, spec)
	var good bytes.Buffer
	if _, err := EncodeCheckpoint(&good, spec, st); err != nil {
		t.Fatal(err)
	}
	var reframed bytes.Buffer
	for r := bytes.NewReader(good.Bytes()); r.Len() > 0; {
		m, err := wire.Decode(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq == ckptTrainer {
			m.Words[6] = math.Float64bits(12.5) // what a modelled wall clock once looked like
		}
		if _, err := wire.Encode(&reframed, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := DecodeCheckpoint(&reframed); err == nil {
		t.Fatal("decode accepted a non-zero reserved trainer word")
	}

	svc := New(Config{StartHeld: true})
	defer svc.Kill()
	for name, mutate := range map[string]func(*JobSpec){
		"LR NaN":          func(s *JobSpec) { s.LR = math.NaN() },
		"LR +Inf":         func(s *JobSpec) { s.LR = math.Inf(1) },
		"DropoutProb NaN": func(s *JobSpec) { s.DropoutProb = math.NaN() },
		"BufferFrac NaN": func(s *JobSpec) {
			s.Async = async.Config{Mode: async.Buffered, BufferFrac: math.NaN()}
		},
	} {
		bad := spec
		mutate(&bad)
		var buf bytes.Buffer
		if _, err := EncodeCheckpoint(&buf, bad, st); err != nil {
			t.Fatal(err)
		}
		gotSpec, gotSt, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if _, err := newJob(svc, gotSpec, gotSt); err == nil {
			t.Errorf("%s: a recovered spec with a non-finite field became a job", name)
		}
	}
}

// TestDecodeCheckpointRejectsUnencodable: well-framed sequences describing a
// state EncodeCheckpoint never writes fail the decode, because that state
// would not survive a re-encode — FuzzLoadCheckpoint's property, which
// mutated bytes seldom reach through the CRCs.
func TestDecodeCheckpointRejectsUnencodable(t *testing.T) {
	spec := goldenSpec()
	st := goldenState(t, spec)
	var good bytes.Buffer
	if _, err := EncodeCheckpoint(&good, spec, st); err != nil {
		t.Fatal(err)
	}
	var frames []*wire.Message
	for r := bytes.NewReader(good.Bytes()); r.Len() > 0; {
		m, err := wire.Decode(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, m)
	}
	round := uint32(st.Round)
	without := func(seq uint32) []*wire.Message {
		var out []*wire.Message
		for _, m := range frames {
			if m.Seq != seq {
				out = append(out, m)
			}
		}
		return out
	}
	with := func(extra ...*wire.Message) []*wire.Message {
		return append(append([]*wire.Message(nil), frames...), extra...)
	}
	for name, seq := range map[string][]*wire.Message{
		"as encoded":             frames,
		"no records frame":       without(ckptRecords),
		"no participation frame": without(ckptParticipation),
		"adaptive state, no async frame": with(&wire.Message{
			Type: wire.Checkpoint, Round: round, Seq: ckptAdaptive}),
		"async frame configuring nothing": with(&wire.Message{
			Type: wire.Checkpoint, Round: round, Seq: ckptAsync,
			Ints: []int32{0, 0}, Words: make([]uint64, 12)}),
	} {
		var buf bytes.Buffer
		for _, m := range seq {
			if _, err := wire.Encode(&buf, m); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := DecodeCheckpoint(&buf)
		if (err == nil) != (name == "as encoded") {
			t.Errorf("%s: decode error %v", name, err)
		}
	}
}
