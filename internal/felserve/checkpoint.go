package felserve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/wire"
)

// Checkpoint encoding: a flat sequence of wire.Checkpoint frames (the same
// versioned, CRC-framed codec the federation protocol speaks); ckptfile.go
// lays it out in the job's file. Frame kinds are carried in Seq; every
// frame's Round is the snapshot's round boundary.
//
//	Seq 0  spec           From=format version; Ints=[11 spec fields, name
//	                      bytes]; Floats=[LR, MaxCoV, DropoutProb];
//	                      Words=[SystemSeed, Seed]
//	Seq 1  trainer        Words=[sampleHi, sampleLo, costTrainingBits,
//	                      costGroupOpsBits, dropouts, uplinkBytes,
//	                      0 (reserved)]; Floats=global params
//	Seq 2  records        Ints=round ids; Floats=[acc, loss, cost, cov]×n
//	Seq 3  participation  Ints=[client id, rounds]×n, ascending id
//	Seq 4  scaffold c     From=1 if the server variate exists, else 0;
//	                      Floats=c (present only for SCAFFOLD jobs)
//	Seq 5  scaffold c_i   From=client id; Floats=c_i (one per client,
//	                      ascending id)
//
// Kinds 6 and 7 are retired: 6 carried a buffered or semi-sync job's async
// knobs and logical-clock totals, 7 an adaptive group sampler's state. A
// file holding either fails the decode and Recover quarantines it, while
// every other file keeps its bytes; so does an async file from before the
// arrival log was retired, whose last frames are of wire type 9, a type that
// no longer exists.
//
// A checkpoint carries state, not history, so a job's checkpoint grows with
// its rounds only by its records. EOF terminates the sequence. Decoding is
// strict: frames of another type, unknown kinds, a missing mandatory frame
// (spec, trainer, records, participation), a non-zero reserved slot, or
// cross-frame round disagreement are errors — so whatever decodes re-encodes
// to itself.
const (
	ckptFormat uint8 = 1

	ckptSpec          uint32 = 0
	ckptTrainer       uint32 = 1
	ckptRecords       uint32 = 2
	ckptParticipation uint32 = 3
	ckptScaffoldC     uint32 = 4
	ckptScaffoldCI    uint32 = 5
)

// checkpointPath is dir/<name>.ckpt.
func checkpointPath(dir, name string) string {
	return filepath.Join(dir, name+".ckpt")
}

// EncodeCheckpoint writes the checkpoint frame sequence for (spec, st) to
// w, returning the bytes written. Exposed (capitalized) for the golden-file
// codec test; files are written by SaveCheckpoint and the service's
// per-job writer (ckptfile.go).
func EncodeCheckpoint(w io.Writer, spec JobSpec, st *core.TrainerState) (int, error) {
	b, err := appendCheckpoint(nil, spec, st)
	if err != nil {
		return 0, err
	}
	return w.Write(b)
}

// appendCheckpoint appends the checkpoint frame sequence for (spec, st) to
// dst: the encoder, which a writer with a buffer of its own calls directly.
func appendCheckpoint(dst []byte, spec JobSpec, st *core.TrainerState) ([]byte, error) {
	round := uint32(st.Round)
	emit := func(m *wire.Message) (err error) {
		m.Type = wire.Checkpoint
		m.Round = round
		dst, err = wire.AppendFrame(dst, m)
		return err
	}

	scaffold01 := int32(0)
	if spec.Scaffold {
		scaffold01 = 1
	}
	nameBytes := []byte(spec.Name)
	specInts := []int32{
		int32(spec.Clients), int32(spec.Edges), int32(spec.Rounds),
		int32(spec.GroupRounds), int32(spec.LocalEpochs), int32(spec.BatchSize),
		int32(spec.SampleGroups), int32(spec.MinGS), int32(spec.MaxParallel),
		int32(spec.EvalEvery), scaffold01,
	}
	for _, b := range nameBytes {
		specInts = append(specInts, int32(b))
	}
	if err := emit(&wire.Message{
		Seq: ckptSpec, From: int32(ckptFormat),
		Ints:   specInts,
		Floats: []float64{spec.LR, spec.MaxCoV, spec.DropoutProb},
		Words:  []uint64{spec.SystemSeed, spec.Seed},
	}); err != nil {
		return dst, err
	}

	if err := emit(&wire.Message{
		Seq: ckptTrainer,
		Words: []uint64{
			st.SampleHi, st.SampleLo,
			math.Float64bits(st.CostTraining), math.Float64bits(st.CostGroupOps),
			uint64(st.Dropouts), uint64(st.UplinkBytes),
			0, // reserved (format 1 once kept a modelled wall clock here); decode rejects anything else
		},
		Floats: st.Params,
	}); err != nil {
		return dst, err
	}

	recInts := make([]int32, len(st.Records))
	recFloats := make([]float64, 0, 4*len(st.Records))
	for i, r := range st.Records {
		recInts[i] = int32(r.Round)
		recFloats = append(recFloats, r.Accuracy, r.Loss, r.Cost, r.AvgSelectedCoV)
	}
	if err := emit(&wire.Message{Seq: ckptRecords, Ints: recInts, Floats: recFloats}); err != nil {
		return dst, err
	}

	ids := make([]int, 0, len(st.Participation))
	for id := range st.Participation {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	partInts := make([]int32, 0, 2*len(ids))
	for _, id := range ids {
		partInts = append(partInts, int32(id), int32(st.Participation[id]))
	}
	if err := emit(&wire.Message{Seq: ckptParticipation, Ints: partInts}); err != nil {
		return dst, err
	}

	if st.Scaffold != nil {
		hasC := int32(0)
		if st.Scaffold.C != nil {
			hasC = 1
		}
		if err := emit(&wire.Message{Seq: ckptScaffoldC, From: hasC, Floats: st.Scaffold.C}); err != nil {
			return dst, err
		}
		for i, id := range st.Scaffold.ClientIDs {
			if err := emit(&wire.Message{Seq: ckptScaffoldCI, From: int32(id), Floats: st.Scaffold.CI[i]}); err != nil {
				return dst, err
			}
		}
	}

	return dst, nil
}

// DecodeCheckpoint reads a checkpoint frame sequence until EOF and
// reconstructs the job spec and trainer snapshot.
func DecodeCheckpoint(r io.Reader) (JobSpec, *core.TrainerState, error) {
	var spec JobSpec
	st := &core.TrainerState{Participation: map[int]int{}}
	seen := map[uint32]bool{}
	round := -1
	for {
		m, err := wire.Decode(r, 0)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return spec, nil, err
		}
		if m.Type != wire.Checkpoint {
			return spec, nil, fmt.Errorf("felserve: checkpoint stream has %s frame", m.Type)
		}
		if round < 0 {
			round = int(m.Round)
			st.Round = round
		} else if int(m.Round) != round {
			return spec, nil, fmt.Errorf("felserve: checkpoint frames disagree on round: %d vs %d", m.Round, round)
		}
		switch m.Seq {
		case ckptSpec:
			if uint8(m.From) != ckptFormat {
				return spec, nil, fmt.Errorf("felserve: checkpoint format %d, want %d", m.From, ckptFormat)
			}
			if len(m.Ints) < 11 || len(m.Floats) != 3 || len(m.Words) != 2 {
				return spec, nil, fmt.Errorf("felserve: malformed spec frame (%d ints, %d floats, %d words)",
					len(m.Ints), len(m.Floats), len(m.Words))
			}
			spec.Clients, spec.Edges = int(m.Ints[0]), int(m.Ints[1])
			spec.Rounds, spec.GroupRounds, spec.LocalEpochs = int(m.Ints[2]), int(m.Ints[3]), int(m.Ints[4])
			spec.BatchSize, spec.SampleGroups = int(m.Ints[5]), int(m.Ints[6])
			spec.MinGS, spec.MaxParallel, spec.EvalEvery = int(m.Ints[7]), int(m.Ints[8]), int(m.Ints[9])
			spec.Scaffold = m.Ints[10] != 0
			name := make([]byte, 0, len(m.Ints)-11)
			for _, b := range m.Ints[11:] {
				name = append(name, byte(b))
			}
			spec.Name = string(name)
			spec.LR, spec.MaxCoV, spec.DropoutProb = m.Floats[0], m.Floats[1], m.Floats[2]
			spec.SystemSeed, spec.Seed = m.Words[0], m.Words[1]
		case ckptTrainer:
			if len(m.Words) != 7 || m.Words[6] != 0 {
				return spec, nil, fmt.Errorf("felserve: malformed trainer frame (%d words; the seventh is reserved and must be 0)", len(m.Words))
			}
			st.SampleHi, st.SampleLo = m.Words[0], m.Words[1]
			st.CostTraining = math.Float64frombits(m.Words[2])
			st.CostGroupOps = math.Float64frombits(m.Words[3])
			st.Dropouts = int(m.Words[4])
			st.UplinkBytes = int64(m.Words[5])
			st.Params = m.Floats
		case ckptRecords:
			if len(m.Floats) != 4*len(m.Ints) {
				return spec, nil, fmt.Errorf("felserve: malformed records frame (%d rounds, %d floats)",
					len(m.Ints), len(m.Floats))
			}
			st.Records = make([]core.RoundRecord, len(m.Ints))
			for i := range m.Ints {
				st.Records[i] = core.RoundRecord{
					Round:          int(m.Ints[i]),
					Accuracy:       m.Floats[4*i],
					Loss:           m.Floats[4*i+1],
					Cost:           m.Floats[4*i+2],
					AvgSelectedCoV: m.Floats[4*i+3],
				}
			}
		case ckptParticipation:
			if len(m.Ints)%2 != 0 {
				return spec, nil, fmt.Errorf("felserve: malformed participation frame (%d ints)", len(m.Ints))
			}
			for i := 0; i < len(m.Ints); i += 2 {
				st.Participation[int(m.Ints[i])] = int(m.Ints[i+1])
			}
		case ckptScaffoldC:
			st.Scaffold = &core.ScaffoldCheckpoint{}
			if m.From != 0 {
				st.Scaffold.C = m.Floats
				if st.Scaffold.C == nil {
					st.Scaffold.C = []float64{}
				}
			}
		case ckptScaffoldCI:
			if st.Scaffold == nil {
				return spec, nil, fmt.Errorf("felserve: scaffold client frame before server-variate frame")
			}
			st.Scaffold.ClientIDs = append(st.Scaffold.ClientIDs, int(m.From))
			st.Scaffold.CI = append(st.Scaffold.CI, m.Floats)
		default:
			return spec, nil, fmt.Errorf("felserve: unknown checkpoint frame kind %d", m.Seq)
		}
		seen[m.Seq] = true
	}
	if !seen[ckptSpec] || !seen[ckptTrainer] || !seen[ckptRecords] || !seen[ckptParticipation] {
		return spec, nil, fmt.Errorf("felserve: checkpoint missing mandatory frames (spec=%v trainer=%v records=%v participation=%v)",
			seen[ckptSpec], seen[ckptTrainer], seen[ckptRecords], seen[ckptParticipation])
	}
	return spec, st, nil
}
