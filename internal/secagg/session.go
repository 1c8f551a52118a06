package secagg

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// OpCounts records the work performed during one aggregation, used by the
// experiment harness to confirm the quadratic-in-group-size cost shape of
// Fig. 8.
type OpCounts struct {
	// MaskStreams is the number of PRG mask expansions (pairwise + self).
	MaskStreams int
	// SharesDealt is the number of Shamir shares created.
	SharesDealt int
	// SharesUsed is the number of shares consumed during reconstruction.
	SharesUsed int
	// FieldOps approximates the element-wise additions performed: mask
	// words folded and masked vectors summed, in Z₂⁶⁴.
	FieldOps int
}

// Session runs one secure aggregation among n clients over dim-dimensional
// updates. The flow mirrors Bonawitz et al. (CCS'17), collapsed to the
// simulation's trust model:
//
//  1. setup: every client i derives a pairwise seed with every j (stand-in
//     for the DH round) and a personal mask seed b_i, then Shamir-shares
//     its secret key s_i and b_i with the group (threshold T).
//  2. MaskedUpdate(i, v): client i submits v, quantized into Z₂⁶⁴, blinded
//     by its personal mask and all pairwise masks.
//  3. Aggregate(masked, dropped): the server removes the personal masks of
//     survivors (reconstructing b_i from shares) and the pairwise masks of
//     dropped clients (reconstructing s_i), yielding exactly the sum of
//     surviving clients' quantized updates.
type Session struct {
	N, Dim    int
	Threshold int
	Quant     Quantizer

	sessionSeed uint64
	selfSeeds   []uint64  // b_i
	selfShares  [][]Share // selfShares[i] held by the group
	keyShares   [][]Share // shares of s_i (here: of the session-pair seeds' base)

	ops       OpCounts
	published OpCounts // high-water mark of counts already flushed by PublishOps
}

// Threshold returns the Shamir reconstruction threshold for a group of n
// clients: ceil(frac·n) clamped to [2, n]. frac <= 0 means the 2/3 default.
func Threshold(frac float64, n int) int {
	if frac <= 0 {
		frac = 2.0 / 3
	}
	return min(max(int(math.Ceil(frac*float64(n))), 2), n)
}

// NewSession prepares a secure aggregation session. threshold is the Shamir
// reconstruction threshold T; the aggregation can tolerate up to
// n−threshold dropped clients.
//
//lint:deterministic
func NewSession(n, dim, threshold int, seed uint64, q Quantizer) *Session {
	if n < 2 {
		panic("secagg: need at least 2 clients")
	}
	if threshold < 1 || threshold > n {
		panic(fmt.Sprintf("secagg: invalid threshold %d for %d clients", threshold, n))
	}
	q.Check(n)
	rng := stats.NewRNG(seed ^ 0x5ec4a66)
	s := &Session{
		N: n, Dim: dim, Threshold: threshold, Quant: q,
		sessionSeed: seed,
		selfSeeds:   make([]uint64, n),
		selfShares:  make([][]Share, n),
		keyShares:   make([][]Share, n),
	}
	for i := 0; i < n; i++ {
		s.selfSeeds[i] = rng.Uint64()
		s.selfShares[i] = Split(Reduce(s.selfSeeds[i]), n, threshold, rng)
		// In the real protocol each client shares its DH secret; the
		// simulation derives pairwise seeds from the session seed, so the
		// shared "key" is a per-client token the server can use to re-derive
		// that client's pairwise seeds on dropout.
		s.keyShares[i] = Split(Reduce(uint64(i)+1), n, threshold, rng)
		s.ops.SharesDealt += 2 * n
	}
	return s
}

// MaskedUpdate produces client i's blinded, quantized update.
//
//lint:deterministic
func (s *Session) MaskedUpdate(i int, update []float64) []uint64 {
	return s.MaskedUpdateInto(make([]uint64, s.Dim), i, update)
}

// MaskedUpdateInto is MaskedUpdate writing into dst's storage: the result is
// dst resized to Dim, reallocated only when its capacity is short, and
// whatever dst held does not matter.
//
//lint:deterministic
func (s *Session) MaskedUpdateInto(dst []uint64, i int, update []float64) []uint64 {
	if i < 0 || i >= s.N {
		panic(fmt.Sprintf("secagg: client %d out of range", i))
	}
	if len(update) != s.Dim {
		panic(fmt.Sprintf("secagg: update dim %d, want %d", len(update), s.Dim))
	}
	y := s.Quant.QuantizeInto(dst, update)
	s.fold(y, s.selfSeeds[i], false) // personal mask
	// Pairwise masks: +mask for j>i, −mask for j<i, so they cancel in the
	// full sum.
	for j := 0; j < s.N; j++ {
		if j != i {
			s.fold(y, DeriveSeed(s.sessionSeed, i, j), j < i)
		}
	}
	return y
}

// fold adds (or, with subtract, removes) the mask stream of seed to acc in
// one pass and counts the expansion.
func (s *Session) fold(acc []uint64, seed uint64, subtract bool) {
	foldMask(acc, newMaskPRG(seed), subtract)
	s.ops.MaskStreams++
	s.ops.FieldOps += s.Dim
}

// Aggregate sums the survivors' masked updates and removes the residual
// masks: survivors' personal masks (via their Shamir shares) and dropped
// clients' pairwise masks (via their reconstructed keys). The sum is taken
// in Z₂⁶⁴, where every 64-bit word is a ring element. masked[i] must be nil
// exactly for dropped clients, dropped must name each client at most once,
// and every submitted vector must hold Dim words — the vectors arrive from
// peers, so a short or long one is an error, not a panic or a silent
// truncation. It returns the dequantized sum of the surviving clients'
// updates.
//
//lint:deterministic
func (s *Session) Aggregate(masked [][]uint64, dropped []int) ([]float64, error) {
	if len(masked) != s.N {
		return nil, fmt.Errorf("secagg: %d masked updates for %d clients", len(masked), s.N)
	}
	isDropped := make([]bool, s.N)
	for _, d := range dropped {
		if d < 0 || d >= s.N {
			return nil, fmt.Errorf("secagg: dropped index %d out of range", d)
		}
		if isDropped[d] {
			return nil, fmt.Errorf("secagg: dropped index %d listed twice", d)
		}
		isDropped[d] = true
	}
	survivors := 0
	for i := 0; i < s.N; i++ {
		if isDropped[i] {
			if masked[i] != nil {
				return nil, fmt.Errorf("secagg: dropped client %d submitted an update", i)
			}
			continue
		}
		if masked[i] == nil {
			return nil, fmt.Errorf("secagg: surviving client %d missing update", i)
		}
		if len(masked[i]) != s.Dim {
			return nil, fmt.Errorf("secagg: client %d submitted %d words, want %d", i, len(masked[i]), s.Dim)
		}
		survivors++
	}
	if survivors < s.Threshold {
		return nil, fmt.Errorf("secagg: %d survivors below threshold %d", survivors, s.Threshold)
	}

	sum := make([]uint64, s.Dim)
	for i := 0; i < s.N; i++ {
		if isDropped[i] {
			continue
		}
		for d, w := range masked[i] {
			sum[d] += w
		}
		s.ops.FieldOps += s.Dim
	}

	// Remove survivors' personal masks: reconstruct b_i from the first
	// Threshold shares held by surviving clients.
	for i := 0; i < s.N; i++ {
		if isDropped[i] {
			continue
		}
		shares := s.collectShares(s.selfShares[i], isDropped)
		b := Reconstruct(shares)
		if b != Reduce(s.selfSeeds[i]) {
			return nil, fmt.Errorf("secagg: personal mask reconstruction failed for client %d", i)
		}
		s.fold(sum, s.selfSeeds[i], true)
	}

	// Remove dropped clients' pairwise masks with every survivor. The
	// reconstruction of the dropped client's key token authorizes the
	// server to re-derive its pairwise seeds.
	for _, dc := range dropped {
		shares := s.collectShares(s.keyShares[dc], isDropped)
		if got := Reconstruct(shares); got != Reduce(uint64(dc)+1) {
			return nil, fmt.Errorf("secagg: key reconstruction failed for dropped client %d", dc)
		}
		for j := 0; j < s.N; j++ {
			if j == dc || isDropped[j] {
				continue
			}
			// Survivor j added +mask for a partner dc > j and −mask for
			// dc < j; undo exactly that contribution.
			s.fold(sum, DeriveSeed(s.sessionSeed, dc, j), dc > j)
		}
	}

	return s.Quant.Dequantize(sum, survivors), nil
}

// HeldShares returns the shares client holder holds for each subject: its
// share of the subject's personal-mask secret b_d and of the subject's key
// token, two shares per subject in subject order. This is what a surviving
// client reveals to the aggregation server during dropout recovery; the
// networked protocol (internal/fednode) moves exactly these values in its
// ShareReveal exchange before Aggregate reconstructs from them.
func (s *Session) HeldShares(holder int, subjects []int) ([]Share, error) {
	if holder < 0 || holder >= s.N {
		return nil, fmt.Errorf("secagg: share holder %d out of range", holder)
	}
	out := make([]Share, 0, 2*len(subjects))
	for _, d := range subjects {
		if d < 0 || d >= s.N {
			return nil, fmt.Errorf("secagg: share subject %d out of range", d)
		}
		out = append(out, s.selfShares[d][holder], s.keyShares[d][holder])
	}
	return out, nil
}

// collectShares gathers Threshold shares from surviving holders. Share k of
// a secret is held by client k.
func (s *Session) collectShares(all []Share, isDropped []bool) []Share {
	out := make([]Share, 0, s.Threshold)
	for k := 0; k < s.N && len(out) < s.Threshold; k++ {
		if !isDropped[k] {
			out = append(out, all[k])
			s.ops.SharesUsed++
		}
	}
	return out
}

// Ops returns the accumulated operation counts.
func (s *Session) Ops() OpCounts { return s.ops }

// PublishOps flushes the operation counts accumulated since the previous
// PublishOps call into reg's fel_secagg_* counters, labeled with the group
// size so snapshots expose the quadratic O_g(|g|) cost shape (Eq. 5 /
// Fig. 8) directly: on a clean round the per-session mask-stream count is
// n(n−1) pairwise + n personal at masking time plus n personal removals at
// aggregation time — n²+n total. The delta bookkeeping makes the method
// safe to call at several protocol points (client-side after MaskedUpdate,
// edge-side after Aggregate) without double counting. reg may be nil.
func (s *Session) PublishOps(reg *metrics.Registry) {
	d := s.ops
	d.MaskStreams -= s.published.MaskStreams
	d.SharesDealt -= s.published.SharesDealt
	d.SharesUsed -= s.published.SharesUsed
	d.FieldOps -= s.published.FieldOps
	s.published = s.ops
	gs := metrics.L("gs", strconv.Itoa(s.N))
	reg.Counter("fel_secagg_mask_streams_total", gs).Add(int64(d.MaskStreams))
	reg.Counter("fel_secagg_shares_dealt_total", gs).Add(int64(d.SharesDealt))
	reg.Counter("fel_secagg_shares_used_total", gs).Add(int64(d.SharesUsed))
	reg.Counter("fel_secagg_field_ops_total", gs).Add(int64(d.FieldOps))
}
