package felserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/wire"
)

// Checkpoint file layout: one file per job, <dir>/<name>.ckpt, overwritten
// in place. A 16-byte header — the magic "FELSLOT1", then the slot size S as
// a big-endian uint64 — is followed by two slots of S bytes:
//
//	[0, 16)        header
//	[16, 16+S)     slot 0
//	[16+S, 16+2S)  slot 1
//
// A slot holds one checkpoint — EncodeCheckpoint's frame sequence — and a
// 12-byte terminator: "FEND", then the checkpoint's round and the byte length
// of its frames as big-endian uint32s. What follows the terminator is
// ignored: zeros in a new file, the tail of a longer checkpoint the slot held
// before.
//
// A save writes the slot that does not hold the newest checkpoint with one
// WriteAt on the file the job keeps open, then Syncs it: no create, rename,
// truncate or size change, so a crash tears at most the slot being written
// and the other still holds the previous checkpoint. The file itself is made
// the older way — temp file, Sync, rename, Sync of the directory — when a
// job first saves, and when a checkpoint outgrows its slot: the new file
// doubles S until the checkpoint fits (at least 4 KiB, so records growing a
// few dozen bytes a round make O(log size) files), holds it in slot 0, and
// is zeros everywhere else.
//
// A slot is valid when its frames run up to a terminator, the terminator
// names their round and their length, and DecodeCheckpoint accepts the
// frames: every CRC, every frame at that one round, every required frame
// present. Loading takes the valid slot with the higher round; when the other
// slot is neither valid nor the zeros of a new file, the write into it was
// torn (or the file cut short), and Recover counts the fallback. A file
// without the magic does not decode.
const (
	slotMagic      = "FELSLOT1"
	slotHeaderSize = 16
	slotMinSize    = 4 << 10
	termMagic      = "FEND"
	termSize       = 12
)

// fileSystem is everything the checkpoint writer does to the file system —
// a test substitutes one that fails or cuts short each operation in turn.
// osFS is the real one.
type fileSystem interface {
	// Open opens an existing checkpoint file for writing in place.
	Open(path string) (ckptFile, error)
	// CreateTemp creates a new file in dir, making dir first if needed.
	CreateTemp(dir, pattern string) (ckptFile, error)
	Rename(oldpath, newpath string) error
	// SyncDir makes path's directory entry durable.
	SyncDir(path string) error
	Remove(path string) error
}

// ckptFile is an open checkpoint file; *os.File is one.
type ckptFile interface {
	Name() string
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) Open(path string) (ckptFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (ckptFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) Remove(path string) error { return os.Remove(path) }

// ckptWriter owns one job's checkpoint file between saves. Only one
// goroutine at a time uses it: the scheduler's turn for the job, or stop
// once the scheduler has exited.
type ckptWriter struct {
	fs   fileSystem
	dir  string
	name string

	f      ckptFile // nil until a save creates or opens the file
	slot   int64    // S; 0 until a save or a recovery learns the layout
	newest int      // the slot holding the newest checkpoint
	buf    []byte   // the last checkpoint and its terminator; reused
}

func (w *ckptWriter) path() string { return checkpointPath(w.dir, w.name) }

// save makes (spec, st) the job's newest checkpoint and returns the bytes
// EncodeCheckpoint wrote.
func (w *ckptWriter) save(spec JobSpec, st *core.TrainerState) (int, error) {
	data, err := appendCheckpoint(w.buf[:0], spec, st)
	if err != nil {
		return 0, err
	}
	n := len(data)
	data = binary.BigEndian.AppendUint32(append(data, termMagic...), uint32(st.Round))
	data = binary.BigEndian.AppendUint32(data, uint32(n))
	w.buf = data
	if int64(len(data)) > w.slot {
		return n, w.create(data)
	}
	if w.f == nil {
		if w.f, err = w.fs.Open(w.path()); err != nil {
			return n, err
		}
	}
	next := 1 - w.newest
	if _, err := w.f.WriteAt(data, slotHeaderSize+int64(next)*w.slot); err != nil {
		return n, err
	}
	if err := w.f.Sync(); err != nil {
		return n, err
	}
	w.newest = next
	return n, nil
}

// create writes a new file holding data in slot 0 and renames it over the
// job's file, whose handle it then replaces.
func (w *ckptWriter) create(data []byte) error {
	size := max(w.slot, slotMinSize)
	for size < int64(len(data)) {
		size *= 2
	}
	img := make([]byte, slotHeaderSize+2*size)
	copy(img, slotMagic)
	binary.BigEndian.PutUint64(img[len(slotMagic):], uint64(size))
	copy(img[slotHeaderSize:], data)

	f, err := w.fs.CreateTemp(w.dir, "."+w.name+".tmp-*")
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(img, 0); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = w.fs.Rename(f.Name(), w.path())
	}
	if err != nil {
		//lint:ignore dropped-error the save already failed; closing and removing the temp is best-effort cleanup
		f.Close()
		//lint:ignore dropped-error the save already failed; closing and removing the temp is best-effort cleanup
		w.fs.Remove(f.Name())
		return err
	}
	if w.f != nil {
		//lint:ignore dropped-error the rename just replaced this file, whose last save was synced
		w.f.Close()
	}
	w.f, w.slot, w.newest = f, size, 0
	return w.fs.SyncDir(w.path())
}

// close releases the file handle; a later save reopens the file.
func (w *ckptWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// remove closes the file and deletes it: the job is finished.
func (w *ckptWriter) remove() error {
	err := w.close()
	if rerr := w.fs.Remove(w.path()); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && err == nil {
		err = rerr
	}
	return err
}

// SaveCheckpoint writes the job's checkpoint file into dir as a new file —
// the service's writer, opened for a single save — so a crash mid-write
// leaves the previous file intact. Returns the encoded byte count.
func SaveCheckpoint(dir string, spec JobSpec, st *core.TrainerState) (int, error) {
	w := &ckptWriter{fs: osFS{}, dir: dir, name: spec.Name}
	n, err := w.save(spec, st)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	return n, err
}

// LoadCheckpoint reads a job checkpoint file written by SaveCheckpoint or a
// service: the newest valid slot.
func LoadCheckpoint(path string) (JobSpec, *core.TrainerState, error) {
	spec, st, _, err := loadCheckpoint(path)
	return spec, st, err
}

// slotRead says where in its file a loaded checkpoint was found.
type slotRead struct {
	// size is the file's slot size S, 0 for a file that is not its full
	// 16+2S bytes — one a writer must not reuse in place.
	size int64
	// slot is the slot the checkpoint came from.
	slot int
	// fellBack reports that the other slot holds no valid checkpoint and is
	// not the zeros a new file starts with: a torn write, or cut off by the
	// end of the file.
	fellBack bool
}

func loadCheckpoint(path string) (JobSpec, *core.TrainerState, slotRead, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return JobSpec{}, nil, slotRead{}, err
	}
	return decodeCheckpointFile(b)
}

// decodeCheckpointFile decodes a checkpoint file's bytes.
func decodeCheckpointFile(b []byte) (JobSpec, *core.TrainerState, slotRead, error) {
	if len(b) < slotHeaderSize || string(b[:len(slotMagic)]) != slotMagic {
		return JobSpec{}, nil, slotRead{}, errors.New("felserve: checkpoint file does not start with " + slotMagic)
	}
	size := binary.BigEndian.Uint64(b[len(slotMagic):])
	body := b[slotHeaderSize:]
	var (
		slots [2][]byte
		specs [2]JobSpec
		sts   [2]*core.TrainerState
		errs  [2]error
	)
	for i := range slots {
		slots[i] = slotBytes(body, size, i)
		specs[i], sts[i], errs[i] = decodeSlot(slots[i])
	}
	if errs[0] != nil && errs[1] != nil {
		return JobSpec{}, nil, slotRead{}, fmt.Errorf("felserve: no valid checkpoint slot (slot 0: %w; slot 1: %w)", errs[0], errs[1])
	}
	r := slotRead{}
	if errs[0] != nil || (errs[1] == nil && sts[1].Round > sts[0].Round) {
		r.slot = 1
	}
	other := slots[1-r.slot]
	r.fellBack = errs[1-r.slot] != nil && (uint64(len(other)) < size || !allZero(other))
	if len(body)%2 == 0 && size == uint64(len(body)/2) {
		r.size = int64(size)
	}
	return specs[r.slot], sts[r.slot], r, nil
}

// slotBytes returns slot i of a file body with slot size size, cut short
// where the body ends.
func slotBytes(body []byte, size uint64, i int) []byte {
	lo := uint64(i) * size
	if lo >= uint64(len(body)) {
		return nil
	}
	return body[lo : lo+min(size, uint64(len(body))-lo)]
}

// decodeSlot decodes one slot: frames up to a terminator that names their
// round and length.
func decodeSlot(s []byte) (JobSpec, *core.TrainerState, error) {
	off := 0
	for len(s)-off < termSize || string(s[off:off+len(termMagic)]) != termMagic {
		h, err := wire.ParseHeader(s[off:], 0)
		if err != nil || h.FrameLen() > len(s)-off {
			return JobSpec{}, nil, fmt.Errorf("felserve: checkpoint slot has no terminator after %d bytes of frames", off)
		}
		off += h.FrameLen()
	}
	term := s[off+len(termMagic):] // the terminator's round, then its byte count
	round := binary.BigEndian.Uint32(term)
	if n := binary.BigEndian.Uint32(term[4:]); int(n) != off {
		return JobSpec{}, nil, fmt.Errorf("felserve: checkpoint slot terminator counts %d bytes of frames, found %d", n, off)
	}
	spec, st, err := DecodeCheckpoint(bytes.NewReader(s[:off]))
	if err != nil {
		return spec, nil, err
	}
	if uint32(st.Round) != round {
		return spec, nil, fmt.Errorf("felserve: checkpoint slot frames are at round %d, its terminator at %d", st.Round, round)
	}
	return spec, st, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
