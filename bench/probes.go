package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/felserve"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/secagg"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// sink keeps probed results alive so no call is optimised away.
var sink float64

// timeOp times fn from outside: calls are grouped into batches of at least
// ~100µs so the clock read stays negligible, each batch contributes one
// ns/op sample, and the median over batches is returned with the mean
// allocations per call. It stops after budget of measured time or 200 calls,
// whichever comes first, and never before three samples.
func timeOp(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches, pools and lazily sized buffers
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	batch := 1
	if one < 100*time.Microsecond {
		batch = int(100*time.Microsecond/max(one, 50*time.Nanosecond)) + 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var samples []float64
	calls := 0
	start := time.Now()
	for len(samples) < 3 || (time.Since(start) < budget && calls < 200) {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(b0).Nanoseconds())/float64(batch))
		calls += batch
	}
	runtime.ReadMemStats(&after)
	return median(samples), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// probeInput is the shape a workload implies: its system, model geometry,
// formation and training parameters. Every probe builds its input from
// this, so the same layer metric is comparable across workloads and reads
// "what one call costs at this workload's size".
type probeInput struct {
	sys *core.System
	// vpCfg is set for virtual systems: the recipe the data probes
	// re-synthesize clients from.
	vpCfg *core.SystemConfig
	mlp   mlpShape
	cfg   core.Config
	// trainer is a stepped trainer whose state the checkpoint probes export.
	trainer *core.Trainer
	tmpDir  string
	// budget bounds each probe's measured time.
	budget time.Duration
}

// probed returns the per-call costs the workloads fold into their
// attribution sums.
type probed struct {
	formAllS, probabilitiesS, sampleS, weightsS float64
	maskS, aggregateS                           float64
	encodeS, decodeS                            float64
	ckptSaveS                                   float64
	// localPerSampleS is one sample through one local epoch; meanSamples the
	// population's mean client size; groupSizes the formation's group sizes.
	localPerSampleS, meanSamples float64
	groupSizes                   []int
}

func randomTensor(rng *stats.RNG, relu bool, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		v := rng.NormFloat64()
		if relu && v < 0 {
			v = 0
		}
		t.Data[i] = v
	}
	return t
}

// runProbes times the public entry points of every layer at the workload's
// shapes and records the per-layer metrics that come from probes.
func runProbes(in probeInput, r *result) (probed, error) {
	var out probed
	// A probed call that fails is remembered and ends the probes; the
	// closures keep their no-result signature so timeOp stays a plain loop.
	var failed error
	fail := func(op string, err error) {
		if failed == nil {
			failed = fmt.Errorf("probe %s: %w", op, err)
		}
	}
	rng := stats.NewRNG(derive(in.cfg.Seed, tagProbe))
	m := in.mlp

	// tensor: the forward, weight-gradient and input-gradient GEMMs of one
	// batch through both Dense layers. Hidden activations are post-ReLU
	// (about half zeros) because kernel dispatch looks at sparsity.
	x := randomTensor(rng, false, m.batch, m.in)
	h := randomTensor(rng, true, m.batch, m.hidden)
	w1 := randomTensor(rng, false, m.in, m.hidden)
	w2 := randomTensor(rng, false, m.hidden, m.classes)
	dh := randomTensor(rng, false, m.batch, m.hidden)
	dy := randomTensor(rng, false, m.batch, m.classes)
	oh, oy := tensor.New(m.batch, m.hidden), tensor.New(m.batch, m.classes)
	dw1, dw2 := tensor.New(m.in, m.hidden), tensor.New(m.hidden, m.classes)
	dx, dhid := tensor.New(m.batch, m.in), tensor.New(m.batch, m.hidden)
	w1t, w2t := randomTensor(rng, false, m.in, m.hidden), randomTensor(rng, false, m.hidden, m.classes)
	mm, _ := timeOp(in.budget, func() { tensor.MatMul(oh, x, w1); tensor.MatMul(oy, h, w2) })
	at, _ := timeOp(in.budget, func() { tensor.MatMulAT(dw1, x, dh); tensor.MatMulAT(dw2, h, dy) })
	bt, _ := timeOp(in.budget, func() { tensor.MatMulBT(dx, dh, w1t); tensor.MatMulBT(dhid, dy, w2t) })
	r.layer("tensor.matmul_ns", mm, "ns")
	r.layer("tensor.matmul_at_ns", at, "ns")
	r.layer("tensor.matmul_bt_ns", bt, "ns")
	flops := 2 * float64(m.batch) * float64(m.in*m.hidden+m.hidden*m.classes)
	r.layer("tensor.gflops", flops/mm, "GFLOP/s")

	// Fixed 16×24×32: below every blocked/parallel cutoff on any workload.
	sa, sb, sd := randomTensor(rng, false, 16, 24), randomTensor(rng, false, 24, 32), tensor.New(16, 32)
	small, _ := timeOp(in.budget, func() { tensor.MatMul(sd, sa, sb) })
	r.layer("tensor.matmul_small_ns", small, "ns")

	const mparam = 1 << 20
	va, vb, vd := make([]float64, mparam), make([]float64, mparam), make([]float64, mparam)
	for i := range va {
		va[i], vb[i] = rng.Float64(), rng.Float64()
	}
	axpby, _ := timeOp(in.budget, func() { tensor.AxpbyInto(0.25, va, 0.75, vb, vd); tensor.AddInto(va, vb, vd) })
	r.layer("tensor.axpby_ns_per_mparam", axpby, "ns")
	sink += vd[0] + oy.Data[0] + dw2.Data[0] + dhid.Data[0] + sd.Data[0]

	// grouping: Alg. 2 over every edge, with the stream NewTrainer hands it.
	var formed []*grouping.Group
	formNs, _ := timeOp(in.budget, func() {
		formed = grouping.FormAll(in.cfg.Grouping, in.sys.Edges, in.sys.Classes, stats.NewRNG(in.cfg.Seed).Split(1))
	})
	out.formAllS = formNs / 1e9
	covSum := 0.0
	sizes := make([]int, len(formed))
	for i, g := range formed {
		covSum += g.CoV()
		sizes[i] = g.Size()
	}
	sort.Ints(sizes)
	out.groupSizes = sizes
	groupSize := max(sizes[len(sizes)/2], 2)
	r.layer("grouping.form_all_s", out.formAllS, "s")
	r.layer("grouping.form_ns_per_client", formNs/float64(len(in.sys.Clients)), "ns")
	r.layer("grouping.groups", float64(len(formed)), "count")
	r.layer("grouping.mean_cov", covSum/float64(len(formed)), "cov")

	// nn: one SGD step on one batch, as sgdEpochs strings it together.
	model := in.sys.NewModel(in.sys.ModelSeed)
	model.EnableBufferReuse()
	labels := make([]int, m.batch)
	for i := range labels {
		labels[i] = rng.IntN(m.classes)
	}
	probs := tensor.New(m.batch, m.classes)
	opt := nn.NewSGD(in.cfg.LR)
	var lossFn nn.SoftmaxCrossEntropy
	stepNs, stepAllocs := timeOp(in.budget, func() {
		logits := model.Forward(x, true)
		sink += lossFn.ForwardInto(probs, logits, labels)
		lossFn.BackwardInPlace(probs, labels)
		model.Backward(probs)
		opt.Step(model)
	})
	r.layer("nn.step_ns", stepNs, "ns")
	r.layer("nn.step_allocs", stepAllocs, "count")

	// core: Evaluate on the test set, one client's local update, and the
	// state export a checkpoint starts from.
	evalModel := in.sys.NewModel(in.sys.ModelSeed)
	evalNs, _ := timeOp(in.budget, func() { a, _ := core.Evaluate(evalModel, in.sys.Test, 0); sink += a })
	r.layer("core.evaluate_ns_per_sample", evalNs/float64(in.sys.Test.Len()), "ns")

	client := formed[0].Clients[0]
	cx, cy := in.sys.ClientBatch(client)
	anchor := model.ParamVector()
	localRng := stats.NewRNG(in.cfg.Seed)
	localNs, _ := timeOp(in.budget, func() {
		core.SGDUpdater{}.LocalTrain(model, cx, cy, core.LocalContext{
			ClientID: client.ID, Anchor: anchor,
			Epochs: in.cfg.LocalEpochs, BatchSize: m.batch, LR: in.cfg.LR, Rng: localRng,
		})
	})
	out.localPerSampleS = localNs / float64(len(cy)*in.cfg.LocalEpochs) / 1e9
	r.layer("core.local_update_ns_per_sample", 1e9*out.localPerSampleS, "ns")

	var state *core.TrainerState
	exportNs, _ := timeOp(in.budget, func() {
		st, err := in.trainer.ExportState()
		if err != nil {
			fail("core.ExportState", err)
			return
		}
		state = st
	})
	if failed != nil {
		return out, failed
	}
	r.layer("core.export_state_ns", exportNs, "ns")

	// sampling: p_g, one selection, and its aggregation weights.
	var p []float64
	probNs, _ := timeOp(in.budget, func() { p = sampling.Probabilities(formed, in.cfg.Sampling) })
	s := min(in.cfg.SampleGroups, len(formed))
	var sampler sampling.Sampler
	sampleRng := stats.NewRNG(in.cfg.Seed).Split(2)
	total := 0
	for _, c := range in.sys.Clients {
		total += c.NumSamples()
	}
	var selected []int
	sampleNs, _ := timeOp(in.budget, func() { selected = sampler.Sample(sampleRng, p, s) })
	weightsNs, _ := timeOp(in.budget, func() { sink += sampling.Weights(formed, selected, p, total, in.cfg.Weights)[0] })
	out.probabilitiesS, out.sampleS, out.weightsS = probNs/1e9, sampleNs/1e9, weightsNs/1e9
	out.meanSamples = float64(total) / float64(len(in.sys.Clients))
	r.layer("sampling.probabilities_ns", probNs, "ns")
	r.layer("sampling.sample_ns", sampleNs, "ns")
	r.layer("sampling.weights_ns", weightsNs, "ns")

	// data: on-demand synthesis, which only a virtual population pays.
	materializeNs, clientsS := 0.0, 0.0
	if in.vpCfg != nil {
		vp := data.NewVirtualPartition(in.vpCfg.Generator, in.vpCfg.Partition)
		var buf data.SampleBuffer
		id, samples := 0, 0
		ns, _ := timeOp(in.budget, func() {
			_, y := vp.MaterializeInto(id%vp.NumClients(), &buf)
			samples += len(y)
			id++
		})
		// timeOp's first two calls are warm-up; the mean client size still
		// converts ns/client to ns/sample within a percent.
		materializeNs = ns / (float64(samples) / float64(id))
		t0 := time.Now()
		sink += float64(len(vp.Clients()))
		clientsS = seconds(t0)
	}
	r.layer("data.materialize_ns_per_sample", materializeNs, "ns")
	r.layer("data.virtual_clients_s", clientsS, "s")

	// secagg: one client's masking and the group's unmasking at the median
	// group size and the model's dimension; the stream count is exact.
	n, dim := groupSize, len(anchor)
	threshold := max(int(math.Ceil(2*float64(n)/3)), 2)
	quant := secagg.DefaultQuantizer()
	update := make([]float64, dim)
	for i := range update {
		update[i] = 0.01 * rng.NormFloat64()
	}
	sess := secagg.NewSession(n, dim, threshold, in.cfg.Seed, quant)
	maskNs, _ := timeOp(in.budget, func() { sink += float64(sess.MaskedUpdate(0, update)[0] & 1) })
	fresh := secagg.NewSession(n, dim, threshold, in.cfg.Seed, quant)
	masked := make([][]uint64, n)
	for i := range masked {
		masked[i] = fresh.MaskedUpdate(i, update)
	}
	aggNs, _ := timeOp(in.budget, func() {
		sum, err := fresh.Aggregate(masked, nil)
		if err != nil {
			fail("secagg.Aggregate", err)
			return
		}
		sink += sum[0]
	})
	count := secagg.NewSession(n, dim, threshold, in.cfg.Seed, quant)
	for i := range masked {
		count.MaskedUpdate(i, update)
	}
	if _, err := count.Aggregate(masked, nil); err != nil {
		fail("secagg.Aggregate", err)
	}
	out.maskS, out.aggregateS = maskNs/1e9, aggNs/1e9
	r.layer("secagg.mask_ns", maskNs, "ns")
	r.layer("secagg.aggregate_ns", aggNs, "ns")
	r.layer("secagg.mask_streams", float64(count.Ops().MaskStreams), "count")

	// wire: a model-sized GlobalModel and MaskedUpdate, the two frames that
	// carry nearly every byte of a networked round and of a version stream.
	global := &wire.Message{Type: wire.GlobalModel, Round: 1, Floats: anchor}
	upd := &wire.Message{Type: wire.MaskedUpdate, Round: 1, Seq: 1, Words: masked[0]}
	var frames bytes.Buffer
	for _, msg := range []*wire.Message{global, upd} {
		if _, err := wire.Encode(&frames, msg); err != nil {
			fail("wire.Encode", err)
		}
	}
	encNs, _ := timeOp(in.budget, func() {
		for _, msg := range []*wire.Message{global, upd} {
			if _, err := wire.Encode(io.Discard, msg); err != nil {
				fail("wire.Encode", err)
			}
		}
	})
	rd := bytes.NewReader(nil)
	decNs, decAllocs := timeOp(in.budget, func() {
		rd.Reset(frames.Bytes())
		for i := 0; i < 2; i++ {
			if _, err := wire.Decode(rd, 0); err != nil {
				fail("wire.Decode", err)
			}
		}
	})
	out.encodeS, out.decodeS = encNs/1e9, decNs/1e9
	r.layer("wire.encode_ns", encNs, "ns")
	r.layer("wire.decode_ns", decNs, "ns")
	r.layer("wire.mb_per_s", 2*float64(frames.Len())/(encNs+decNs)*1e9/1e6, "MB/s")
	r.layer("wire.frame_bytes", float64(global.EncodedSize()), "bytes")
	r.layer("wire.decode_allocs", decAllocs/2, "count")

	// felserve: the checkpoint of the exported state — encode alone, the
	// durable temp+fsync+rename save, and the load back.
	spec := felserve.JobSpec{
		Name: "probe", Clients: len(in.sys.Clients), Edges: len(in.sys.Edges),
		SystemSeed: 1, Seed: in.cfg.Seed, Rounds: max(in.cfg.GlobalRounds, 1),
		GroupRounds: in.cfg.GroupRounds, LocalEpochs: in.cfg.LocalEpochs,
		BatchSize: in.cfg.BatchSize, LR: in.cfg.LR, SampleGroups: in.cfg.SampleGroups,
	}
	ckptBytes := 0
	encCkptNs, _ := timeOp(in.budget, func() {
		nb, err := felserve.EncodeCheckpoint(io.Discard, spec, state)
		if err != nil {
			fail("felserve.EncodeCheckpoint", err)
		}
		ckptBytes = nb
	})
	dir := filepath.Join(in.tmpDir, "probe-ckpt")
	saveNs, _ := timeOp(in.budget, func() {
		if _, err := felserve.SaveCheckpoint(dir, spec, state); err != nil {
			fail("felserve.SaveCheckpoint", err)
		}
	})
	loadNs, _ := timeOp(in.budget, func() {
		if _, _, err := felserve.LoadCheckpoint(filepath.Join(dir, spec.Name+".ckpt")); err != nil {
			fail("felserve.LoadCheckpoint", err)
		}
	})
	if err := os.RemoveAll(dir); err != nil {
		fail("remove checkpoint scratch", err)
	}
	out.ckptSaveS = saveNs / 1e9
	r.layer("felserve.ckpt_encode_ns", encCkptNs, "ns")
	r.layer("felserve.ckpt_save_ns", saveNs, "ns")
	r.layer("felserve.ckpt_load_ns", loadNs, "ns")
	r.layer("felserve.ckpt_bytes", float64(ckptBytes), "bytes")
	return out, failed
}
