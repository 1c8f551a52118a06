package felserve

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fednode"
)

// TestServeLoadSmoke is the serving layer's load gate (`go run ./bench`
// workload serve-fanout measures the same path): hundreds of loopback
// subscribers fan in over one listener while two jobs train concurrently.
// Every subscriber must end on the correct final aggregate, the service
// counters must balance, and — the leak contract — the goroutine count must
// settle back once the service closes. ci.sh runs this under -race.
func TestServeLoadSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	const subsPerJob = 150

	nw := fednode.NewMemNetwork()
	ln, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{StartHeld: true})
	svc.Serve(ln)
	specs := demoSpecs(21)
	for i := range specs {
		specs[i].Rounds = 6
		if _, err := svc.Submit(specs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Half the fleet connects before the first round, half joins mid-run
	// (after Start) to exercise the late-joiner path under contention.
	var wg sync.WaitGroup
	errs := make(chan error, 2*subsPerJob)
	finals := make(chan []float64, 2*subsPerJob)
	follow := func(job string) {
		defer wg.Done()
		conn, err := nw.Dial("cloud")
		if err != nil {
			errs <- err
			return
		}
		defer closeQuiet(conn)
		sub, err := Subscribe(conn, job)
		if err != nil {
			errs <- fmt.Errorf("subscribe %s: %w", job, err)
			return
		}
		last := -1
		for {
			version, params, final, err := sub.Next()
			if err != nil {
				errs <- fmt.Errorf("next %s: %w", job, err)
				return
			}
			if version < last {
				errs <- fmt.Errorf("job %s: version stream rewound %d -> %d", job, last, version)
				return
			}
			last = version
			if final {
				finals <- params
				return
			}
		}
	}
	for _, spec := range specs {
		for i := 0; i < subsPerJob/2; i++ {
			wg.Add(1)
			go follow(spec.Name)
		}
	}
	svc.Start()
	for _, spec := range specs {
		for i := 0; i < subsPerJob-subsPerJob/2; i++ {
			wg.Add(1)
			go follow(spec.Name)
		}
	}
	svc.Wait()
	wg.Wait()
	close(errs)
	close(finals)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	want := map[string][]float64{}
	for _, spec := range specs {
		res, err := svc.Job(spec.Name).Wait()
		if err != nil {
			t.Fatal(err)
		}
		want[spec.Name] = res.Params
	}
	got := 0
	for params := range finals {
		got++
		matched := false
		for _, w := range want {
			if sameBits(params, w) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatal("a subscriber's final aggregate matches no job's result")
		}
	}
	if got != 2*subsPerJob {
		t.Fatalf("%d subscribers reached the final aggregate, want %d", got, 2*subsPerJob)
	}

	// Round throughput and admission accounting must balance exactly.
	wantRounds := int64(0)
	for _, spec := range specs {
		wantRounds += int64(spec.Rounds)
	}
	if v := svc.roundsCtr.Value(); v != wantRounds {
		t.Fatalf("fel_serve_rounds_total = %d, want %d", v, wantRounds)
	}
	if v := svc.subAdmitted.Value(); v != 2*subsPerJob {
		t.Fatalf("fel_serve_subscribers_admitted_total = %d, want %d", v, 2*subsPerJob)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if v := svc.subActive.Value(); v != 0 {
		t.Fatalf("fel_serve_subscribers_active = %g after Close, want 0", v)
	}
	waitGoroutines(t, before)
}
