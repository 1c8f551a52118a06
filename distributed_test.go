package groupfel_test

import (
	"testing"

	groupfel "repro"
)

func TestPublicAPIDropoutSimulation(t *testing.T) {
	sys := newSystem(23)
	cfg := baseConfig()
	cfg.GlobalRounds = 5
	cfg.DropoutProb = 0.3
	res := groupfel.Train(sys, cfg)
	if res.Dropouts == 0 {
		t.Fatal("no dropouts simulated")
	}
}
