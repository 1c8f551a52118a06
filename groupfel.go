// Package groupfel is a Go implementation of Group-based Hierarchical
// Federated Learning (Group-FEL) as described in "Group-based Hierarchical
// Federated Learning: Convergence, Group Formation, and Sampling"
// (Liu, Wei, Liu, Gao, Wang — ICPP 2023).
//
// The library covers the full system of the paper:
//
//   - the cloud–edge–client training loop of Algorithm 1 (Train),
//   - CoV-based group formation (CoVGrouping, Algorithm 2) and the
//     comparator policies (RandomGrouping, CDGrouping, KLDGrouping),
//   - CoV-prioritized group sampling (RCoV / SRCoV / ESRCoV) with biased,
//     unbiased (Eq. 4), and stabilized (Eq. 35) aggregation,
//   - the quadratic group-operation cost model of Eq. 5 (CostProfile,
//     CostOps) calibrated to the paper's Fig. 8,
//   - an executable group-operation substrate: Bonawitz-style secure
//     aggregation (SecAggSession),
//   - the baseline methods of the evaluation (FedAvg, FedProx, SCAFFOLD,
//     OUEA, SHARE, FedCLAR) and the Theorem 1 bound calculator.
//
// Quick start:
//
//	sys := groupfel.NewSystem(groupfel.SystemConfig{ ... })
//	cfg := groupfel.Config{
//		GlobalRounds: 50, GroupRounds: 5, LocalEpochs: 2,
//		LR: 0.05, SampleGroups: 12,
//		Grouping: groupfel.CoVGrouping{Config: groupfel.GroupingConfig{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}},
//		Sampling: groupfel.ESRCoV,
//		CostProfile: groupfel.CIFARProfile(),
//	}
//	res := groupfel.Train(sys, cfg)
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper.
package groupfel

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/fednode"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/secagg"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/theory"
)

// Core training types (Algorithm 1).
type (
	// System is a federated population: datasets, clients, edges, model.
	System = core.System
	// SystemConfig describes how to build a System.
	SystemConfig = core.SystemConfig
	// Config parameterizes one training run.
	Config = core.Config
	// Result is a training outcome with per-round records.
	Result = core.Result
	// RoundRecord is the state after one global round.
	RoundRecord = core.RoundRecord
	// LocalUpdater is the pluggable client update rule.
	LocalUpdater = core.LocalUpdater
	// LocalContext is the per-client training context.
	LocalContext = core.LocalContext
	// SGDUpdater is plain local SGD (Group-FEL, FedAvg).
	SGDUpdater = core.SGDUpdater
	// ProxUpdater is the FedProx proximal update.
	ProxUpdater = core.ProxUpdater
	// ScaffoldUpdater is the SCAFFOLD control-variate update.
	ScaffoldUpdater = core.ScaffoldUpdater
)

// Dataset and model types.
type (
	// Dataset is an in-memory labelled dataset.
	Dataset = data.Dataset
	// Client is one federated participant.
	Client = data.Client
	// GeneratorConfig parameterizes a synthetic task.
	GeneratorConfig = data.GeneratorConfig
	// PartitionConfig controls the Dirichlet non-IID partition.
	PartitionConfig = data.PartitionConfig
	// Model is a feed-forward network.
	Model = nn.Sequential
	// Tensor is a dense numeric array.
	Tensor = tensor.Tensor
)

// NewSystem builds a federated population from a system config: the
// paper's Dirichlet partition, each client's rows kept as the stream marks
// they are drawn from while a round trains it.
func NewSystem(cfg SystemConfig) *System { return core.NewSystem(cfg) }

// NewVirtualSystem builds a flyweight federated population: clients carry
// only label histograms and sample counts, and a client's samples are
// synthesized deterministically from (seed, client id) only while a round
// trains it. It holds O(population) histograms and no per-row state — the
// form that scales to millions of clients (see README "Population
// scaling").
func NewVirtualSystem(cfg SystemConfig) *System { return core.NewVirtualSystem(cfg) }

// Train runs Algorithm 1 and returns the result.
func Train(sys *System, cfg Config) *Result { return core.Train(sys, cfg) }

// Evaluate computes accuracy and mean loss of a model on a dataset.
func Evaluate(m *Model, ds *Dataset, batch int) (acc, loss float64) {
	return core.Evaluate(m, ds, batch)
}

// SynthCIFAR returns the CIFAR-10 stand-in generator config.
func SynthCIFAR(seed uint64) GeneratorConfig { return data.SynthCIFARConfig(seed) }

// SynthSpeech returns the SpeechCommands stand-in generator config.
func SynthSpeech(seed uint64) GeneratorConfig { return data.SynthSpeechConfig(seed) }

// FlatTask returns a fast flat-feature task config.
func FlatTask(classes, dim int, seed uint64) GeneratorConfig {
	return data.FlatConfig(classes, dim, seed)
}

// DefaultPartition mirrors the paper's per-client sample distribution.
func DefaultPartition(numClients int, alpha float64, seed uint64) PartitionConfig {
	return data.DefaultPartitionConfig(numClients, alpha, seed)
}

// Model constructors.
var (
	// NewMLP builds a multi-layer perceptron.
	NewMLP = nn.NewMLP
	// NewCNN5 builds the paper's lightweight 5-layer CNN.
	NewCNN5 = nn.NewCNN5
	// NewResNetLite builds the paper's 3-block ResNet.
	NewResNetLite = nn.NewResNetLite
	// NewLogistic builds a linear softmax classifier.
	NewLogistic = nn.NewLogistic
)

// Baseline methods of the paper's evaluation (Sec. 7.3).
type (
	// BaselineName identifies a comparison method.
	BaselineName = baselines.Name
	// BaselineOptions tunes method-specific knobs.
	BaselineOptions = baselines.Options
)

// The evaluated methods.
const (
	FedAvg   = baselines.FedAvg
	FedProx  = baselines.FedProx
	Scaffold = baselines.Scaffold
	GroupFEL = baselines.GroupFEL
	OUEA     = baselines.OUEA
	SHARE    = baselines.SHARE
	FedCLAR  = baselines.FedCLAR
)

// AllBaselines lists the methods in the paper's legend order.
func AllBaselines() []BaselineName { return baselines.All() }

// RunBaseline trains the named method (FedCLAR uses its two-phase loop).
func RunBaseline(m BaselineName, sys *System, base Config, opts BaselineOptions) *Result {
	return baselines.Run(m, sys, base, opts)
}

// DefaultBaselineOptions mirrors the paper's setup at the given scale.
func DefaultBaselineOptions(numClients, targetGS int) BaselineOptions {
	return baselines.DefaultOptions(numClients, targetGS)
}

// Group formation (Sec. 5).
type (
	// Group is a formed client group with its label histogram.
	Group = grouping.Group
	// GroupingConfig carries MinGS / MaxCoV / leftover handling.
	GroupingConfig = grouping.Config
	// GroupingAlgorithm forms groups at one edge server.
	GroupingAlgorithm = grouping.Algorithm
	// CoVGrouping is the paper's Algorithm 2.
	CoVGrouping = grouping.CoVGrouping
	// RandomGrouping is the RG baseline.
	RandomGrouping = grouping.RandomGrouping
	// CDGrouping is OUEA's cluster-then-distribute policy.
	CDGrouping = grouping.CDGrouping
	// KLDGrouping is SHARE's KL-divergence policy.
	KLDGrouping = grouping.KLDGrouping
	// VarianceGrouping is the scale-sensitive ablation criterion.
	VarianceGrouping = grouping.VarianceGrouping
)

// FormGroups runs an algorithm over every edge's client set (Alg. 1
// lines 2–3).
func FormGroups(alg GroupingAlgorithm, edges [][]*Client, classes int, seed uint64) []*Group {
	return grouping.FormAll(alg, edges, classes, stats.NewRNG(seed))
}

// Group sampling (Sec. 6).
type (
	// SamplingMethod selects the probability scheme.
	SamplingMethod = sampling.Method
	// WeightScheme selects the aggregation weighting.
	WeightScheme = sampling.WeightScheme
)

// Sampling methods (Eq. 34 with w(x) = x, x², e^{x²}).
const (
	RandomSampling = sampling.Random
	RCoV           = sampling.RCoV
	SRCoV          = sampling.SRCoV
	ESRCoV         = sampling.ESRCoV
)

// Aggregation weight schemes.
const (
	// BiasedWeights is Alg. 1 line 15 (n_g/n_t over the selected set).
	BiasedWeights = sampling.Biased
	// UnbiasedWeights applies the 1/(p_g·S) correction of Eq. 4.
	UnbiasedWeights = sampling.Unbiased
	// StabilizedWeights normalizes the unbiased weights (Eq. 35).
	StabilizedWeights = sampling.Stabilized
)

// SamplingProbabilities computes p over groups for a method (Eq. 34).
func SamplingProbabilities(groups []*Group, m SamplingMethod) []float64 {
	return sampling.Probabilities(groups, m)
}

// GroupCoV returns the coefficient of variation of a label histogram
// (Eq. 27), the paper's grouping criterion.
func GroupCoV(counts []float64) float64 { return stats.CoVOfCounts(counts) }

// Cost model (Sec. 3.2, Eq. 5).
type (
	// CostProfile holds per-task cost coefficients.
	CostProfile = cost.Profile
	// CostOps selects the group operations charged per aggregation.
	CostOps = cost.OpSet
)

// CIFARProfile returns the CIFAR cost coefficients (Fig. 8 calibration).
func CIFARProfile() CostProfile { return cost.CIFARProfile() }

// SCProfile returns the SpeechCommands cost coefficients.
func SCProfile() CostProfile { return cost.SCProfile() }

// DefaultCostOps enables secure aggregation plus backdoor detection.
func DefaultCostOps() CostOps { return cost.DefaultOps() }

// Secure aggregation substrate (the group operation behind the quadratic
// overhead; Bonawitz-style pairwise masking with Shamir dropout recovery).
type (
	// SecAggSession runs one secure aggregation among a group.
	SecAggSession = secagg.Session
	// SecAggQuantizer maps float updates to fixed-point words of Z₂⁶⁴.
	SecAggQuantizer = secagg.Quantizer
)

// NewSecAggSession prepares a secure aggregation of n clients over
// dim-dimensional updates with Shamir threshold t.
func NewSecAggSession(n, dim, t int, seed uint64, q SecAggQuantizer) *SecAggSession {
	return secagg.NewSession(n, dim, t, seed, q)
}

// DefaultQuantizer returns the standard fixed-point quantizer.
func DefaultQuantizer() SecAggQuantizer { return secagg.DefaultQuantizer() }

// Convergence bound (Theorem 1).
type (
	// TheoryParams collects the constants of Theorem 1.
	TheoryParams = theory.Params
)

// ConvergenceBound evaluates the Theorem 1 right-hand side.
func ConvergenceBound(p TheoryParams) float64 { return theory.Bound(p) }

// TheoryFromSystem fills the structural factors (γ, Γ, Γ_p, ζ_g proxy)
// from a concrete grouping and sampling vector.
func TheoryFromSystem(groups []*Group, probs []float64, base TheoryParams) TheoryParams {
	return theory.FromSystem(groups, probs, base)
}

// Networked execution: Group-FEL over real net.Conn transports — TCP
// sockets between processes, or buffered in-memory connections inside one —
// with the wire codec of internal/wire and straggler/dropout handling mapped
// onto secure aggregation (internal/fednode). On a faultnet network running
// faultnet.ModelPlan a round takes Fig. 1's modelled time, in simulated
// seconds.
type (
	// NetworkedJobConfig parameterizes a multi-round networked job.
	NetworkedJobConfig = fednode.JobConfig
	// NetworkedReport is the cloud's view of a finished networked job.
	NetworkedReport = fednode.Report
	// NetworkTransport abstracts the byte transport (TCP or in-memory).
	NetworkTransport = fednode.Network
	// TCPTransport is the real-socket transport.
	TCPTransport = fednode.TCPNetwork
)

// NewMemTransport returns an in-process transport: each connection is a
// pair of 64 KiB in-memory buffers, so a write returns once its bytes are
// queued, as on a socket, and deadlines behave as on net.Pipe.
func NewMemTransport() NetworkTransport { return fednode.NewMemNetwork() }

// RunNetworkedJob runs a complete multi-round job — cloud, edges, clients —
// in this process over nw. listenAddr seeds every listener ("127.0.0.1:0"
// for TCP, "" for a memory transport).
func RunNetworkedJob(nw NetworkTransport, sys *System, cfg NetworkedJobConfig, listenAddr string) (*NetworkedReport, error) {
	return fednode.RunJob(nw, sys, cfg, listenAddr)
}

// RunNetworkedRound executes one global round over real connections for
// pre-formed groups and an explicit selection.
func RunNetworkedRound(nw NetworkTransport, sys *System, groups []*Group, selected []int, globalParams []float64, cfg NetworkedJobConfig, listenAddr string) ([]float64, *NetworkedReport, error) {
	return fednode.RunRound(nw, sys, groups, selected, globalParams, cfg, listenAddr)
}
