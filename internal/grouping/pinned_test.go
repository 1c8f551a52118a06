package grouping

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/stats"
)

// benchGrouping is the configuration every bench/ workload forms with.
var benchGrouping = CoVGrouping{Config: Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}}

// popRegroupEdge is one edge of bench's pop-regroup population: 1 250
// flyweight clients, 10 classes, n_i in [10, 40], Dirichlet alpha 0.5.
func popRegroupEdge(n int) []*data.Client {
	return data.NewVirtualPartition(data.FlatConfig(10, 4, 7), data.PartitionConfig{
		NumClients: n, Alpha: 0.5, MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8, Seed: 7,
	}).Clients()
}

// trainPaperEdge is one edge of the paper's (and bench train-paper's)
// population: 100 clients, n_i in [20, 200].
func trainPaperEdge() []*data.Client {
	return data.NewVirtualPartition(data.FlatConfig(10, 4, 11),
		data.DefaultPartitionConfig(100, 0.5, 11)).Clients()
}

// tieClients is a population built to hit the argmin's tie and zero-total
// rules: every histogram appears three times and two clients hold no data.
func tieClients() []*data.Client {
	base := randomClients(14, 6, stats.NewRNG(99))
	var clients []*data.Client
	for rep := 0; rep < 3; rep++ {
		if rep < 2 {
			clients = append(clients, &data.Client{ID: len(clients), Counts: make([]float64, 6)})
		}
		for _, b := range base {
			clients = append(clients, &data.Client{ID: len(clients), N: b.N, Counts: b.Counts})
		}
	}
	return clients
}

// appendMembership appends formed membership — group order, member order,
// group and client IDs — to buf.
func appendMembership(buf []byte, groups []*Group) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(groups)))
	for _, g := range groups {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.ID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Edge))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(g.Clients)))
		for _, c := range g.Clients {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.ID))
		}
	}
	return buf
}

// digest is the first eight bytes of buf's SHA-256, in hex.
func digest(buf []byte) string {
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestCoVGroupingFormationPinned holds CoV-Grouping's formed membership to
// digests recorded at the parent of PR 19, before Alg. 2's argmin scan
// became argminScan: the scan may change how it walks the candidates, never
// which one it picks.
func TestCoVGroupingFormationPinned(t *testing.T) {
	formAll := func(procs int) func() []*Group {
		return func() []*Group {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			edges := data.SplitAcrossEdges(popRegroupEdge(2000), 8)
			return FormAll(benchGrouping, edges, 10, stats.NewRNG(5))
		}
	}
	cases := []struct {
		name string
		form func() []*Group
		want string
	}{
		{"pop-regroup-edge", func() []*Group {
			return benchGrouping.Form(popRegroupEdge(1250), 10, 3, 17, stats.NewRNG(1))
		}, "a8e26b7629f626c9"},
		{"train-paper-edge", func() []*Group {
			return benchGrouping.Form(trainPaperEdge(), 10, 0, 0, stats.NewRNG(2))
		}, "f6e8e5bc023c311e"},
		{"ties-and-zero-totals", func() []*Group {
			return benchGrouping.Form(tieClients(), 6, 0, 0, stats.NewRNG(3))
		}, "a19cd1f6e871caea"},
		{"form-all-8-edges/procs1", formAll(1), "e86bb97843059f6a"},
		{"form-all-8-edges/procs2", formAll(2), "e86bb97843059f6a"},
	}
	for _, tc := range cases {
		if got := digest(appendMembership(nil, tc.form())); got != tc.want {
			t.Errorf("%s: membership digest %s, pinned %s", tc.name, got, tc.want)
		}
	}

	// The 120 propCases populations (classes 4–10, both leftover policies)
	// fold into one digest.
	var all []byte
	propCases(func(t *testing.T, seed uint64, clients []*data.Client, classes int, alg CoVGrouping) {
		all = appendMembership(all, alg.Form(clients, classes, 0, 0, stats.NewRNG(seed+4000)))
	})(t)
	const wantProp = "3058aa6c7bc252e1"
	if got := digest(all); got != wantProp {
		t.Errorf("propCases: membership digest %s, pinned %s", got, wantProp)
	}
}
