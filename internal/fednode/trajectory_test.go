package fednode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"
)

// paramDigest is the SHA-256 of the parameters' IEEE-754 bit patterns: two
// vectors share a digest only when they are Float64bits-equal.
func paramDigest(params []float64) string {
	buf := make([]byte, 8*len(params))
	for i, v := range params {
		binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestTrajectoryPinned pins the final parameters of the executor that runs
// above internal/secagg. Pairwise and personal masks cancel exactly in the
// masking ring, so what an aggregate dequantises to depends only on the
// quantised inputs — never on the mask generator, the ring it folds in, its
// buffering, or how the frames that carried the masked words were encoded.
// The digests were recorded before the mask pipeline was rewritten, while
// the masks still lived in GF(2⁶¹−1) rather than Z₂⁶⁴, and must never need
// re-recording for a change confined to secagg, wire or fednode's framing.
func TestTrajectoryPinned(t *testing.T) {
	runJob := func(seed uint64, drop bool) string {
		sys := testSystem(12, 5)
		jcfg := testJobConfig()
		jcfg.Seed = seed
		jcfg.GlobalRounds = 2
		var nw Network = NewMemNetwork()
		victim := -1
		if drop {
			jcfg.StragglerTimeout = 2 * time.Second
			nw, victim = dropFirstMember(t, sys, &jcfg, 1)
		}
		rep, err := RunJob(nw, sys, jcfg, "")
		if err != nil {
			t.Fatalf("RunJob seed %d drop %v: %v", seed, drop, err)
		}
		if drop {
			checkCasualty(t, rep, victim)
			if rep.Recoveries == 0 {
				t.Fatalf("seed %d: the reset never triggered recovery", seed)
			}
		}
		return paramDigest(rep.Params)
	}
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"fednode/seed42/clean", runJob(42, false), "f484796b291980d6"},
		{"fednode/seed2024/clean", runJob(2024, false), "aa27c874b484ffeb"},
		{"fednode/seed42/forcedrop", runJob(42, true), "6b89bfb88df846ec"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: parameter digest %s, pinned %s", tc.name, tc.got, tc.want)
		}
	}
}
