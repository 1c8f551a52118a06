// Command felnode runs Group-FEL as a real networked federation over TCP:
// a cloud coordinator, edge servers (each hosting its clients), and the
// wire protocol of internal/wire between them.
//
// Every process builds the same synthetic federation from the shared flags
// and seed, so only model parameters, masked updates, and recovery shares
// cross the wire.
//
// Usage:
//
//	felnode -role loopback                     # whole federation in-process over 127.0.0.1
//
//	felnode -role cloud -listen :9000
//	felnode -role edge -edge 0 -cloud host:9000 -listen :9100
//	felnode -role edge -edge 1 -cloud host:9000 -listen :9101
//
// With -chaos the process instead runs a deterministic chaos scenario
// against a full in-process federation behind a fault-injecting transport:
// a named scenario from the built-in suite, or a plan.json written by hand.
// The fault event log and the timing-masked metrics snapshot are printed so
// two invocations with the same seed can be diffed byte for byte:
//
//	felnode -chaos list                        # show the named suite
//	felnode -chaos corrupt-frames
//	felnode -chaos plan.json -seed 7
//
// With -serve the process becomes a long-running multi-job federation
// service (internal/felserve): -jobs concurrent jobs train on one cloud,
// subscribers follow the model-version stream over the -listen address, and
// -ckpt makes every job durable — killing the process and rerunning the
// same command resumes every job from its checkpoint with final weights
// bit-identical to an uninterrupted run (the `-chaos kill-cloud` scenario
// asserts exactly this end to end):
//
//	felnode -serve -jobs 2 -ckpt /tmp/fel-ckpt -listen 127.0.0.1:9400
//	felnode -chaos kill-cloud
//
// With -metrics addr the process additionally serves live introspection
// over HTTP while the job runs: the deterministic text snapshot on
// /metrics, expvar on /debug/vars, and the pprof profiles on /debug/pprof.
// -hold keeps the endpoint up after the job completes so the final
// counters can still be scraped:
//
//	felnode -role loopback -metrics 127.0.0.1:9090 -hold 30s
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/faultnet/scenarios"
	"repro/internal/fednode"
	"repro/internal/felserve"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sampling"
)

func main() {
	var (
		role    = flag.String("role", "loopback", "cloud, edge, or loopback")
		listen  = flag.String("listen", "127.0.0.1:0", "listen address (cloud: for edges; edge: for its clients)")
		cloud   = flag.String("cloud", "127.0.0.1:9000", "cloud address an edge dials")
		edgeID  = flag.Int("edge", 0, "edge id (role=edge)")
		clients = flag.Int("clients", 24, "total clients in the federation")
		edges   = flag.Int("edges", 2, "edge servers in the federation")
		rounds  = flag.Int("rounds", 3, "global rounds T")
		krounds = flag.Int("krounds", 2, "group rounds K")
		epochs  = flag.Int("epochs", 1, "local epochs E")
		batch   = flag.Int("batch", 16, "local SGD batch size")
		lr      = flag.Float64("lr", 0.05, "local SGD learning rate")
		sample  = flag.Int("sample", 2, "groups sampled per round S")
		seed    = flag.Uint64("seed", 42, "shared seed: every process derives the same federation from it")
		chaos   = flag.String("chaos", "", "run a chaos scenario: a name from the built-in suite, a plan.json path, or 'list'")
		serve   = flag.Bool("serve", false, "run as a long-lived multi-job federation service (see -jobs, -ckpt)")
		ckpt    = flag.String("ckpt", "", "service mode: checkpoint directory for durable resume (empty: in-memory only)")
		jobs    = flag.Int("jobs", 2, "service mode: concurrent federation jobs to run")
		maddr   = flag.String("metrics", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		hold    = flag.Duration("hold", 0, "keep the -metrics endpoint up this long after the job completes")
		verbose = flag.Bool("v", false, "trace protocol progress")
	)
	flag.Parse()

	if *chaos != "" {
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		if err := runChaos(*chaos, *seed, seedSet, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "felnode:", err)
			os.Exit(1)
		}
		return
	}

	if *serve {
		tmpl := felserve.JobSpec{
			Clients: *clients, Edges: *edges,
			SystemSeed: *seed, Seed: *seed,
			Rounds: *rounds, GroupRounds: *krounds, LocalEpochs: *epochs,
			BatchSize: *batch, LR: *lr, SampleGroups: *sample,
		}
		if err := runServe(*listen, *ckpt, *jobs, tmpl, *maddr, *hold, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "felnode:", err)
			os.Exit(1)
		}
		return
	}

	// Every process derives the same synthetic federation from the shared
	// flags, so cloud, edges, and clients agree on data, partition, and model
	// without exchanging any of it.
	sys := felserve.JobSpec{Clients: *clients, Edges: *edges, SystemSeed: *seed}.System()
	cfg := fednode.JobConfig{
		GlobalRounds: *rounds, GroupRounds: *krounds, LocalEpochs: *epochs,
		BatchSize: *batch, LR: *lr, SampleGroups: *sample,
		Grouping: grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling: sampling.ESRCoV,
		Weights:  sampling.Biased,
		Seed:     *seed,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "felnode: "+format+"\n", args...)
		}
	}

	var reg *metrics.Registry
	var msrv *metricsServer
	if *maddr != "" {
		reg = metrics.New()
		cfg.Meter = fednode.NewMeter(reg)
		metrics.PublishExpvar("felnode", reg)
		var merr error
		if msrv, merr = startMetrics(*maddr, reg); merr != nil {
			fmt.Fprintln(os.Stderr, "felnode:", merr)
			os.Exit(1)
		}
	}

	var err error
	switch *role {
	case "loopback":
		err = runLoopback(sys, cfg)
	case "cloud":
		err = runCloud(sys, cfg, *listen)
	case "edge":
		err = runEdge(sys, cfg, *edgeID, *listen, *cloud)
	default:
		err = fmt.Errorf("unknown role %q (want cloud, edge, or loopback)", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "felnode:", err)
		os.Exit(1)
	}
	if msrv != nil {
		fmt.Println()
		fmt.Print(reg.Table("felnode_metrics", "felnode metrics").Markdown())
		if *hold > 0 {
			fmt.Printf("metrics: holding endpoint http://%s for %s\n", msrv.addr, *hold)
			time.Sleep(*hold)
		}
		msrv.close()
	}
}

// runChaos executes one chaos scenario — named or loaded from a plan file —
// and prints the replay artifacts: the sorted fault event log and the
// timing-masked metrics snapshot. Both are deterministic for a given seed,
// so `felnode -chaos plan.json -seed 7` twice must print identical output.
func runChaos(arg string, seed uint64, seedSet, verbose bool) error {
	if arg == "list" {
		for _, sc := range scenarios.All() {
			fmt.Printf("%-22s %s\n", sc.Name, sc.About)
		}
		fmt.Printf("%-22s %s\n", "kill-cloud", "crash a two-job felserve cloud past its last checkpoint, restart, require bit-identical weights")
		return nil
	}
	if arg == "kill-cloud" {
		return runKillCloud(seed, verbose)
	}
	var sc scenarios.Scenario
	if st, err := os.Stat(arg); err == nil && !st.IsDir() {
		plan, err := faultnet.LoadPlan(arg)
		if err != nil {
			return err
		}
		if seedSet {
			plan.Seed = seed
		}
		sc = scenarios.FromPlan(plan)
	} else if named, ok := scenarios.ByName(arg); ok {
		sc = named
		if seedSet {
			orig := sc.Plan
			sc.Plan = func(ctx *scenarios.Context) *faultnet.Plan {
				p := orig(ctx)
				p.Seed = seed
				return p
			}
		}
	} else {
		return fmt.Errorf("-chaos %q is neither a plan file nor a named scenario (try -chaos list)", arg)
	}

	var logf func(string, ...any)
	if verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "felnode: "+format+"\n", args...)
		}
	}
	r, err := scenarios.Run(sc, logf)
	if err != nil {
		return err
	}
	fmt.Printf("chaos %s: %d rounds, final acc=%.4f, dropouts=%d, recoveries=%d, casualties=%d, restarts=%d\n",
		r.Name, r.Report.RoundsRun, r.Report.FinalAccuracy, r.Report.Dropouts, r.Report.Recoveries,
		len(r.Casualties), r.Restarts)
	counts := r.Log.Counts()
	actions := make([]string, 0, len(counts))
	for a := range counts {
		actions = append(actions, string(a))
	}
	sort.Strings(actions)
	for _, a := range actions {
		fmt.Printf("  injected %s: %d\n", a, counts[faultnet.Action(a)])
	}
	if r.FaultFreeParams != nil {
		fmt.Println("  delay-only plan: final weights bit-identical to the fault-free baseline")
	}
	fmt.Println("--- fault event log ---")
	fmt.Print(r.Log.String())
	fmt.Println("--- metrics (timings masked) ---")
	fmt.Print(metrics.MaskTimings(r.Registry.Snapshot()))
	return nil
}

// metricsServer is the optional -metrics HTTP endpoint; done carries the
// Serve goroutine's exit so close can join it.
type metricsServer struct {
	addr string
	srv  *http.Server
	done chan error
}

// startMetrics serves reg's introspection handler on addr. It waits briefly
// for an immediate Serve failure (bad address classes surface through
// Listen, so this catches in-process races only) before declaring the
// endpoint up.
func startMetrics(addr string, reg *metrics.Registry) (*metricsServer, error) {
	ln, err := fednode.TCPNetwork{}.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listen on %s: %w", addr, err)
	}
	s := &metricsServer{
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: metrics.Handler(reg)},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	select {
	case err := <-s.done:
		return nil, fmt.Errorf("metrics serve on %s: %w", addr, err)
	case <-time.After(10 * time.Millisecond):
	}
	fmt.Printf("metrics: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", s.addr)
	return s, nil
}

// close shuts the endpoint down and joins the Serve goroutine.
func (s *metricsServer) close() {
	if err := s.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "felnode: metrics close:", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "felnode: metrics server:", err)
	}
}

// runLoopback runs the full federation over real localhost TCP sockets and
// cross-checks the result against the in-process trainer: same seed, same
// config, so no client may fail, the final accuracies must agree within
// tolerance and the transport byte count must equal the codec's accounting.
func runLoopback(sys *core.System, cfg fednode.JobConfig) error {
	rep, err := fednode.RunJob(fednode.TCPNetwork{}, sys, cfg, "127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := casualtiesErr(rep.Casualties); err != nil {
		return err
	}
	fmt.Printf("loopback job: %d edges, %d clients, T=%d K=%d E=%d over 127.0.0.1\n",
		len(sys.Edges), len(sys.Clients), cfg.GlobalRounds, cfg.GroupRounds, cfg.LocalEpochs)
	for _, r := range rep.Rounds {
		fmt.Printf("  round %d: acc=%.4f loss=%.4f groups=%d dropouts=%d recoveries=%d bytes=%d\n",
			r.Round, r.Accuracy, r.Loss, r.Selected, r.Dropouts, r.Recoveries, r.WireBytes)
	}
	fmt.Printf("final: acc=%.4f loss=%.4f wall=%s frames=%d wire=%dB\n",
		rep.FinalAccuracy, rep.FinalLoss, rep.WallClock.Round(0), rep.Frames, rep.WireWritten)

	if rep.WireWritten != rep.AccountedBytes {
		return fmt.Errorf("byte accounting mismatch: transport wrote %d, codec accounted %d",
			rep.WireWritten, rep.AccountedBytes)
	}
	fmt.Printf("byte cross-check: transport bytes == codec-accounted bytes (%d)\n", rep.WireWritten)

	res := core.Train(sys, cfg.TrainConfig(nil))
	gap := math.Abs(rep.FinalAccuracy - res.FinalAccuracy)
	fmt.Printf("in-process Train on same seed: acc=%.4f (gap %.4f)\n", res.FinalAccuracy, gap)
	if gap > 0.05 {
		return fmt.Errorf("networked accuracy %.4f diverges from in-process %.4f by %.4f (> 0.05)",
			rep.FinalAccuracy, res.FinalAccuracy, gap)
	}
	return nil
}

// runCloud serves the coordinator on listen and prints the report.
func runCloud(sys *core.System, cfg fednode.JobConfig, listen string) error {
	ln, err := fednode.TCPNetwork{}.Listen(listen)
	if err != nil {
		return err
	}
	defer func() {
		//lint:ignore dropped-error shutdown-path close of a drained listener
		ln.Close()
	}()
	fmt.Printf("cloud: listening on %s for %d edges\n", ln.Addr(), len(sys.Edges))
	rep, err := fednode.NewCloud(sys, cfg, nil).Run(ln)
	if err != nil {
		return err
	}
	for _, r := range rep.Rounds {
		fmt.Printf("  round %d: acc=%.4f dropouts=%d recoveries=%d\n", r.Round, r.Accuracy, r.Dropouts, r.Recoveries)
	}
	fmt.Printf("final: acc=%.4f loss=%.4f wall=%s\n", rep.FinalAccuracy, rep.FinalLoss, rep.WallClock.Round(0))
	return nil
}

// runEdge serves edge id on listen, dialing the cloud, and hosts the edge's
// clients dialing back over real TCP, so one process per edge covers its
// whole subtree. A client that fails fails the process.
func runEdge(sys *core.System, cfg fednode.JobConfig, id int, listen, cloudAddr string) error {
	nw := fednode.TCPNetwork{}
	ln, err := nw.Listen(listen)
	if err != nil {
		return err
	}
	fmt.Printf("edge %d: listening on %s, cloud at %s\n", id, ln.Addr(), cloudAddr)
	casualties, err := fednode.RunEdge(nw, sys, cfg, id, ln, cloudAddr)
	if err != nil {
		return err
	}
	if err := casualtiesErr(casualties); err != nil {
		return err
	}
	fmt.Printf("edge %d: job complete\n", id)
	return nil
}

// casualtiesErr reports the first of cs, the clients that failed for good.
func casualtiesErr(cs []fednode.Casualty) error {
	if len(cs) == 0 {
		return nil
	}
	return fmt.Errorf("client %d failed (%d casualties): %w", cs[0].Client, len(cs), cs[0].Err)
}
