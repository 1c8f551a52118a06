package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/fednode"
	"repro/internal/felserve"
	"repro/internal/metrics"
)

// runServe is felnode's service mode: a long-running multi-job federation
// cloud. It recovers every job the checkpoint directory holds, tops the
// tenant set up to -jobs fresh jobs derived from the shared flags, serves
// subscriber connections on the TCP listener, and runs until every job
// completes. A process killed mid-run leaves its checkpoints behind;
// rerunning the same command resumes them bit-identically.
func runServe(listen, ckptDir string, jobs int, tmpl felserve.JobSpec, maddr string, hold time.Duration, verbose bool) error {
	cfg := felserve.Config{Dir: ckptDir, CheckpointEvery: 2, StartHeld: true}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "felnode: "+format+"\n", args...)
		}
	}
	var msrv *metricsServer
	if maddr != "" {
		cfg.Registry = metrics.New()
		metrics.PublishExpvar("felnode", cfg.Registry)
		var err error
		if msrv, err = startMetrics(maddr, cfg.Registry); err != nil {
			return err
		}
	}
	svc := felserve.New(cfg)

	recovered, err := svc.Recover()
	if err != nil {
		return err
	}
	for _, j := range recovered {
		fmt.Printf("serve: recovered job %s at round %d/%d\n", j.Name(), j.Round(), j.Spec.Rounds)
	}
	var all []*felserve.Job
	all = append(all, recovered...)
	for i := 0; i < jobs; i++ {
		spec := tmpl
		spec.Name = fmt.Sprintf("job-%d", i)
		spec.SystemSeed = tmpl.SystemSeed + uint64(i)
		spec.Seed = tmpl.Seed + 100*uint64(i+1)
		spec.Scaffold = i%2 == 1
		if svc.Job(spec.Name) != nil {
			continue // already recovered from a checkpoint
		}
		j, err := svc.Submit(spec)
		if err != nil {
			return err
		}
		fmt.Printf("serve: submitted job %s (%d clients, %d rounds%s)\n",
			spec.Name, spec.Clients, spec.Rounds, map[bool]string{true: ", scaffold"}[spec.Scaffold])
		all = append(all, j)
	}

	ln, err := fednode.TCPNetwork{}.Listen(listen)
	if err != nil {
		return err
	}
	fmt.Printf("serve: %d jobs, subscribers welcome on %s (ckpt dir %q)\n", len(all), ln.Addr(), ckptDir)
	svc.Serve(ln)
	svc.Start()
	svc.Wait()

	for _, j := range all {
		res, err := j.Wait()
		if err != nil {
			return fmt.Errorf("job %s: %w", j.Name(), err)
		}
		fmt.Printf("serve: job %s done after %d rounds, acc=%.4f cost=%.1f\n",
			j.Name(), res.RoundsRun, res.FinalAccuracy, res.TotalCost)
	}
	if err := svc.Close(); err != nil {
		return err
	}
	if msrv != nil {
		fmt.Println()
		fmt.Print(cfg.Registry.Table("felnode_metrics", "felnode serve metrics").Markdown())
		if hold > 0 {
			fmt.Printf("metrics: holding endpoint http://%s for %s\n", msrv.addr, hold)
			time.Sleep(hold)
		}
		msrv.close()
	}
	return nil
}

// runKillCloud executes the kill-cloud chaos exercise: crash a two-tenant
// cloud past its last checkpoint, restart it, and require bit-identical
// final weights. Output is deterministic for a given seed.
func runKillCloud(seed uint64, verbose bool) error {
	dir, err := os.MkdirTemp("", "felnode-killcloud-*")
	if err != nil {
		return err
	}
	defer func() {
		//lint:ignore dropped-error best-effort cleanup of a temp directory
		os.RemoveAll(dir)
	}()
	var logf func(string, ...any)
	if verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "felnode: "+format+"\n", args...)
		}
	}
	rep, err := felserve.KillCloudDemo(dir, seed, logf)
	if err != nil {
		return err
	}
	fmt.Printf("chaos kill-cloud: %d jobs crashed and recovered, bit-identical=%v\n", len(rep.Jobs), rep.BitIdentical)
	for _, name := range rep.Jobs {
		fmt.Printf("  job %-10s killed at round %d, resumed from checkpoint round %d, final acc=%.4f\n",
			name, rep.KilledAtRound[name], rep.ResumedFromRound[name], rep.FinalAccuracy[name])
	}
	return nil
}
