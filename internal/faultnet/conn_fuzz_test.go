package faultnet_test

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/stats"
	"repro/internal/wire"
)

// FuzzFaultConnPassThrough holds a wrapped connection to pass-through when no
// rule fires: under a plan whose one rule names a link no connection uses,
// any byte stream — whole frames, torn frames, foreign bytes, any mix —
// written in the chunks cuts chooses arrives byte-identical and ends in
// io.EOF, in both directions: written by the dialed end, whose Write
// classifies each chunk, and read by it, whose Read re-frames the stream.
//
//	go test ./internal/faultnet -run '^$' -fuzz FuzzFaultConnPassThrough -fuzztime 30s
func FuzzFaultConnPassThrough(f *testing.F) {
	rng := stats.NewRNG(0xFA17)
	var stream []byte
	for i, typ := range []wire.Type{wire.GlobalModel, wire.MaskedUpdate, wire.JobControl} {
		frame, err := wire.AppendFrame(nil, testMsg(typ, uint32(i), 1, 3*i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, []byte{})
		f.Add(faultnet.CorruptBits(frame, 3, rng), []byte{7})
		f.Add(faultnet.TruncateFrame(frame, rng), []byte{0, 15})
		stream = append(stream, frame...)
	}
	f.Add(stream, []byte{35, 1, 255})
	f.Add(append(bytes.Repeat([]byte{0xff}, wire.HeaderSize), stream...), []byte{15, 3})

	plan := &faultnet.Plan{Name: "silent", Rules: []faultnet.Rule{{
		From: "nobody", To: "*", Round: faultnet.MatchAny, Seq: faultnet.MatchAny, Action: faultnet.ActionReset,
	}}}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		nw := wrap(t, plan)
		ln, err := nw.ListenAs("srv", "srv")
		if err != nil {
			t.Fatal(err)
		}
		defer closeQuietly(ln)
		for _, dir := range []string{"dialed→accepted", "accepted→dialed"} {
			dialed, err := nw.DialFrom("cli", "srv")
			if err != nil {
				t.Fatal(err)
			}
			accepted, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			w, r := dialed, accepted
			if dir == "accepted→dialed" {
				w, r = accepted, dialed
			}
			got, err := passThrough(w, r, data, cuts)
			closeQuietly(dialed)
			closeQuietly(accepted)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: wrote %d bytes %x, read %d bytes %x", dir, len(data), data, len(got), got)
			}
		}
	})
}

// passThrough writes data to w in chunks of 1+cuts[i] bytes, cycling
// through cuts (one write when cuts is empty), closes w, and returns what r
// reads until io.EOF, in reads as large as the last chunk.
func passThrough(w, r net.Conn, data, cuts []byte) ([]byte, error) {
	werr := make(chan error, 1)
	go func() {
		defer closeQuietly(w)
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)]))
			}
			if _, err := w.Write(rest[:n]); err != nil {
				werr <- err
				return
			}
			rest = rest[n:]
		}
		werr <- nil
	}()
	buf := make([]byte, 4096)
	if len(cuts) > 0 {
		buf = buf[:1+int(cuts[len(cuts)-1])]
	}
	var got []byte
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			return got, <-werr
		}
		if err != nil {
			<-werr
			return got, err
		}
	}
}

// closeQuietly closes c in a test where the close error changes nothing.
func closeQuietly(c io.Closer) {
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	c.Close()
}
