package hfl

import (
	"math"
	"strings"
	"testing"
)

func TestTransferTime(t *testing.T) {
	l := Link{Latency: 0.01, Bandwidth: 1e6}
	if got := l.TransferTime(1e6); math.Abs(got-1.01) > 1e-12 {
		t.Fatalf("TransferTime = %v, want 1.01", got)
	}
	if got := l.TransferTime(0); got != 0.01 {
		t.Fatalf("zero-byte transfer = %v, want latency", got)
	}
}

func TestLinkValidate(t *testing.T) {
	if err := (Link{Latency: 0, Bandwidth: 0}).Validate(); err == nil {
		t.Fatal("zero bandwidth passed validation")
	}
	if err := (Link{Latency: -1, Bandwidth: 1e6}).Validate(); err == nil {
		t.Fatal("negative latency passed validation")
	}
	if err := (Link{Latency: 0.01, Bandwidth: 1e6}).Validate(); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := DefaultTopology().Validate(); err != nil {
		t.Fatalf("default topology rejected: %v", err)
	}
	bad := DefaultTopology()
	bad.EdgeCloud.Bandwidth = 0
	err := bad.Validate()
	if err == nil {
		t.Fatal("bad edge–cloud link passed validation")
	}
	if !strings.Contains(err.Error(), "edge–cloud") {
		t.Fatalf("error does not name the offending link: %v", err)
	}
}

func TestTransferTimeOnUnvalidatedLinkIsInf(t *testing.T) {
	// A link that skipped Validate must not take the process down; the
	// unusable bandwidth surfaces as an infinite transfer time instead.
	if got := (Link{Latency: 0, Bandwidth: 0}).TransferTime(1); !math.IsInf(got, 1) {
		t.Fatalf("TransferTime on zero bandwidth = %v, want +Inf", got)
	}
}
