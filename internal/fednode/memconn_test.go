package fednode

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
	"repro/internal/wire"
)

// connRows is the contract a MemNetwork connection keeps with a reader and a
// writer end; each row returns the error it is about, which must classify
// under wire.ErrorClass as class says. None of them depends on buffering, so
// every row also runs on net.Pipe, the transport MemNetwork replaced: the
// two must fail alike.
var connRows = []struct {
	name  string
	class string
	run   func(t *testing.T, a, b net.Conn) error
}{
	{"a read deadline fires as a timeout", "timeout", func(t *testing.T, a, b net.Conn) error {
		if err := a.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		_, err := a.Read(make([]byte, 1))
		return err
	}},
	{"a past deadline fires at once, and the zero time clears it", "timeout", func(t *testing.T, a, b net.Conn) error {
		if err := a.SetReadDeadline(time.Unix(1, 0)); err != nil {
			t.Fatal(err)
		}
		_, err := a.Read(make([]byte, 1))
		if err := a.SetReadDeadline(time.Time{}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, werr := b.Write([]byte{7})
			done <- werr
		}()
		if got, rerr := a.Read(make([]byte, 1)); got != 1 || rerr != nil {
			t.Errorf("read after clearing the deadline: %d bytes, %v", got, rerr)
		}
		if werr := <-done; werr != nil {
			t.Error(werr)
		}
		return err
	}},
	{"a write blocked on a full buffer is released by its write deadline", "timeout", func(t *testing.T, a, b net.Conn) error {
		if err := a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		n, err := a.Write(make([]byte, memBuffer+1))
		if n > memBuffer {
			t.Errorf("wrote %d bytes past a %d-byte buffer nobody reads", n, memBuffer)
		}
		return err
	}},
	{"after the peer closes, writes fail", "io", func(t *testing.T, a, b net.Conn) error {
		closeQuiet(b)
		_, err := a.Write([]byte{1})
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("write to a closed peer: %v, want io.ErrClosedPipe", err)
		}
		return err
	}},
	{"after the peer closes, an empty read is EOF", "eof", func(t *testing.T, a, b net.Conn) error {
		closeQuiet(b)
		_, err := a.Read(make([]byte, 1))
		return err
	}},
	{"a read waiting on the peer ends at its close", "eof", func(t *testing.T, a, b net.Conn) error {
		done := make(chan error, 1)
		go func() {
			_, err := a.Read(make([]byte, 1))
			done <- err
		}()
		closeQuiet(b)
		return <-done
	}},
	{"after a local close, reads fail", "io", func(t *testing.T, a, b net.Conn) error {
		closeQuiet(a)
		_, err := a.Read(make([]byte, 1))
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("read on a closed end: %v, want io.ErrClosedPipe", err)
		}
		return err
	}},
	{"after a local close, writes fail", "io", func(t *testing.T, a, b net.Conn) error {
		closeQuiet(a)
		_, err := a.Write([]byte{1})
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("write on a closed end: %v, want io.ErrClosedPipe", err)
		}
		return err
	}},
	{"after a local close, deadlines are refused", "io", func(t *testing.T, a, b net.Conn) error {
		closeQuiet(a)
		return a.SetDeadline(time.Now().Add(time.Second))
	}},
	{"a blocked write ends at a local close", "io", func(t *testing.T, a, b net.Conn) error {
		done := make(chan error, 1)
		go func() {
			_, err := a.Write(make([]byte, memBuffer+1))
			done <- err
		}()
		for len(done) == 0 && !blockedInWrite(a) {
			time.Sleep(time.Millisecond)
		}
		closeQuiet(a)
		return <-done
	}},
}

// blockedInWrite reports whether a MemNetwork end has filled its peer's
// buffer; on any other conn it reports true after a pause.
func blockedInWrite(c net.Conn) bool {
	mc, ok := c.(*memConn)
	if !ok {
		time.Sleep(10 * time.Millisecond)
		return true
	}
	mc.out.mu.Lock()
	defer mc.out.mu.Unlock()
	return mc.out.chunk != nil && len(mc.out.chunk.b)-mc.out.off == memBuffer
}

func TestMemConnConformance(t *testing.T) {
	transports := []struct {
		name string
		pair func() (net.Conn, net.Conn)
	}{
		{"MemNetwork", func() (net.Conn, net.Conn) { return memConnPair("t", clock.Real) }},
		{"net.Pipe", net.Pipe},
	}
	for _, row := range connRows {
		for _, tr := range transports {
			a, b := tr.pair()
			err := row.run(t, a, b)
			closeQuiet(a)
			closeQuiet(b)
			if got := wire.ErrorClass(err); got != row.class {
				t.Errorf("%s: %s: error %v classifies as %q, want %q", tr.name, row.name, err, got, row.class)
			}
			var ne net.Error
			if timeout := errors.As(err, &ne) && ne.Timeout(); timeout != (row.class == "timeout") {
				t.Errorf("%s: %s: error %v: Timeout() = %v", tr.name, row.name, err, timeout)
			}
			if row.class == "timeout" && !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: %s: error %v is not os.ErrDeadlineExceeded", tr.name, row.name, err)
			}
		}
	}
}

// TestMemConnDrainsAfterPeerClose: what a peer wrote before it closed is
// still read, in full, and only then does the reader see EOF — the buffered
// row net.Pipe has no counterpart for.
func TestMemConnDrainsAfterPeerClose(t *testing.T) {
	a, b := memConnPair("t", clock.Real)
	defer closeQuiet(a)
	if _, err := b.Write([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	closeQuiet(b)
	if err := a.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatalf("a deadline after the peer's close: %v", err)
	}
	got, err := io.ReadAll(a)
	if err != nil || string(got) != "queued" {
		t.Fatalf("read %q, %v after the peer closed; want %q then EOF", got, err, "queued")
	}
}

// TestMemConnWriteDoesNotWaitForReader: a write that fits the buffer returns
// before anyone reads, which is what makes a served version a copy.
func TestMemConnWriteDoesNotWaitForReader(t *testing.T) {
	a, b := memConnPair("t", clock.Real)
	defer closeQuiet(a)
	defer closeQuiet(b)
	if n, err := a.Write(make([]byte, memBuffer)); n != memBuffer || err != nil {
		t.Fatalf("a full-buffer write with no reader: %d, %v", n, err)
	}
}

// streamThrough writes stream into one end in chunks of writeSize(i) bytes
// while the other end reads it in chunks of readSize(i), concurrently, and
// reports whether the reader got exactly stream, then EOF.
func streamThrough(t *testing.T, stream []byte, writeSize, readSize func(i int) int) {
	t.Helper()
	a, b := memConnPair("t", clock.Real)
	defer closeQuiet(b)
	werr := make(chan error, 1)
	go func() {
		defer closeQuiet(a)
		rest := stream
		for i := 0; len(rest) > 0; i++ {
			n := min(writeSize(i), len(rest))
			if _, err := a.Write(rest[:n]); err != nil {
				werr <- err
				return
			}
			rest = rest[n:]
		}
		werr <- nil
	}()
	var got []byte
	buf := make([]byte, 1<<18)
	for i := 0; ; i++ {
		n, err := b.Read(buf[:readSize(i)])
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	if err := <-werr; err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(got, stream) {
		t.Fatalf("read %d bytes that differ from the %d written", len(got), len(stream))
	}
}

// TestMemConnConcurrentStream: a writer and a reader on separate goroutines
// (run under -race in CI) move 1 MiB through the 64 KiB buffer in
// mismatched chunk sizes, and the reader sees the exact byte stream.
func TestMemConnConcurrentStream(t *testing.T) {
	rng := stats.NewRNG(46)
	stream := make([]byte, 1<<20)
	for i := range stream {
		stream[i] = byte(rng.IntN(256))
	}
	streamThrough(t, stream,
		func(i int) int { return 1 + rng.IntN(3*memBuffer/2) },
		func(i int) int { return 1 + (i*7919)%(memBuffer/3) })
}

// FuzzMemConnStream: fuzzed write and read sizes — some past the buffer, so
// writers block and resume — must reproduce the written stream exactly.
func FuzzMemConnStream(f *testing.F) {
	f.Add([]byte("a served version"), []byte{0, 1, 255}, []byte{3})
	f.Add([]byte{0}, []byte{200}, []byte{0, 9})
	f.Fuzz(func(t *testing.T, payload, writes, reads []byte) {
		if len(payload) == 0 || len(writes) == 0 || len(reads) == 0 {
			return
		}
		stream := bytes.Repeat(payload, (3*memBuffer)/len(payload)+1)
		streamThrough(t, stream,
			func(i int) int { return 1 + int(writes[i%len(writes)])*521 },
			func(i int) int { return 1 + int(reads[i%len(reads)])*263 })
	})
}
