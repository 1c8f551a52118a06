package data

import (
	"fmt"

	"repro/internal/stats"
)

// Client is one federated participant. Grouping and sampling never see
// features, models, or gradients — only the sample count N and the label
// histogram Counts ("row of the label matrix L") — matching the paper's
// privacy posture (Sec. 5.1).
//
// Client is a flyweight: the histogram fields are mandatory, the Indices
// slice is not. Materialized populations (DirichletPartition) fill Indices
// with positions into a shared Dataset; virtual populations
// (VirtualPartition) leave Indices nil and synthesize
// samples on demand from (seed, ID), so a million-client population costs
// only its histograms.
type Client struct {
	ID int
	// N is the client's total sample count n_i. It always equals the sum of
	// Counts, and equals len(Indices) when the client is materialized.
	N int
	// Indices locates the client's samples in a shared Dataset. Nil for
	// virtual clients.
	Indices []int
	// Counts is the per-label sample histogram, length = number of classes.
	Counts []float64
}

// NumSamples returns the client's data entry count n_i.
func (c *Client) NumSamples() int { return c.N }

// PartitionConfig controls the non-IID partition of a dataset.
type PartitionConfig struct {
	// NumClients is the number of participants.
	NumClients int
	// Alpha is the Dirichlet concentration of each client's label
	// distribution; smaller means more skewed (paper Sec. 7.2).
	Alpha float64
	// MinSamples and MaxSamples clip the per-client sample count.
	MinSamples, MaxSamples int
	// MeanSamples and StdSamples parameterize the normal distribution of
	// per-client counts (the paper uses 20–200, normally distributed).
	MeanSamples, StdSamples float64
	// Seed fixes the partition.
	Seed uint64
}

// DefaultPartitionConfig mirrors the paper's CIFAR-10 setup scaled by
// numClients: counts normal around the 20–200 band.
func DefaultPartitionConfig(numClients int, alpha float64, seed uint64) PartitionConfig {
	return PartitionConfig{
		NumClients:  numClients,
		Alpha:       alpha,
		MinSamples:  20,
		MaxSamples:  200,
		MeanSamples: 110,
		StdSamples:  45,
		Seed:        seed,
	}
}

// DirichletPartition splits ds across cfg.NumClients clients. Each client
// gets a sample count drawn from the configured normal distribution and a
// label distribution drawn from Dirichlet(alpha). Samples are assigned
// without replacement from per-label pools; when a client's preferred label
// pool is exhausted the remaining probability mass is renormalized over
// non-empty labels, so the partition always succeeds as long as the dataset
// has at least NumClients×MinSamples samples.
func DirichletPartition(ds *Dataset, cfg PartitionConfig) []*Client {
	if cfg.NumClients <= 0 {
		panic("data: NumClients must be positive")
	}
	if cfg.MinSamples <= 0 || cfg.MaxSamples < cfg.MinSamples {
		panic("data: invalid sample count bounds")
	}
	if ds.Len() < cfg.NumClients*cfg.MinSamples {
		panic(fmt.Sprintf("data: dataset of %d samples cannot give %d clients at least %d each",
			ds.Len(), cfg.NumClients, cfg.MinSamples))
	}
	rng := stats.NewRNG(cfg.Seed)

	// Per-label index pools, pre-shuffled.
	pools := make([][]int, ds.Classes)
	for i, y := range ds.Y {
		pools[y] = append(pools[y], i)
	}
	for _, p := range pools {
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	remaining := ds.Len()

	clients := make([]*Client, cfg.NumClients)
	for ci := 0; ci < cfg.NumClients; ci++ {
		want := int(rng.Normal(cfg.MeanSamples, cfg.StdSamples))
		if want < cfg.MinSamples {
			want = cfg.MinSamples
		}
		if want > cfg.MaxSamples {
			want = cfg.MaxSamples
		}
		// Never starve later clients below MinSamples.
		clientsLeft := cfg.NumClients - ci - 1
		if maxTake := remaining - clientsLeft*cfg.MinSamples; want > maxTake {
			want = maxTake
		}
		p := rng.Dirichlet(cfg.Alpha, ds.Classes)
		c := &Client{ID: ci, Counts: make([]float64, ds.Classes)}
		for len(c.Indices) < want {
			// Zero out exhausted labels and renormalize by drawing from the
			// masked categorical.
			masked := make([]float64, ds.Classes)
			any := false
			for y := range masked {
				if len(pools[y]) > 0 {
					masked[y] = p[y]
					if p[y] > 0 {
						any = true
					}
				}
			}
			if !any {
				// Preferred labels all exhausted; fall back to uniform over
				// whatever is left.
				for y := range masked {
					if len(pools[y]) > 0 {
						masked[y] = 1
						any = true
					}
				}
			}
			if !any {
				panic("data: sample pools exhausted mid-partition")
			}
			y := rng.Categorical(masked)
			pool := pools[y]
			c.Indices = append(c.Indices, pool[len(pool)-1])
			pools[y] = pool[:len(pool)-1]
			c.Counts[y]++
			remaining--
		}
		c.N = len(c.Indices)
		clients[ci] = c
	}
	return clients
}

// GlobalCounts sums the label histograms of all clients.
func GlobalCounts(clients []*Client, classes int) []float64 {
	total := make([]float64, classes)
	for _, c := range clients {
		for y, n := range c.Counts {
			total[y] += n
		}
	}
	return total
}

// SplitAcrossEdges deals clients round-robin onto numEdges edge servers,
// mirroring the paper's "3 edge servers × 100 clients" topology.
func SplitAcrossEdges(clients []*Client, numEdges int) [][]*Client {
	if numEdges <= 0 {
		panic("data: numEdges must be positive")
	}
	out := make([][]*Client, numEdges)
	for i, c := range clients {
		out[i%numEdges] = append(out[i%numEdges], c)
	}
	return out
}
